//! The parallel server (paper §3).
//!
//! N worker threads, each with a private port and a static block of
//! player slots. Frames are separated by global synchronization
//! implemented with the fabric's mutex + condition variables (the
//! pthreads wait/signal primitives of §3.2):
//!
//! 1. The first thread out of `select` when no frame is in progress
//!    becomes the frame **master** and runs the world update; threads
//!    arriving while it runs wait at the world gate (*inter-frame
//!    wait*). Threads arriving after the gate opened missed the frame
//!    and wait for the frame-end signal. With a batching window
//!    (`frame_batch_ns`, §5.2) the master first waits for joiners on
//!    its condition variable; the window closes at its deadline or the
//!    moment the last thread joins, whichever comes first.
//! 2. Participants drain their private request queues under the region
//!    locking policy.
//! 3. Participants wait for each other at the intra-frame barrier
//!    (*intra-frame wait*), then run the reply phase. The master also
//!    pays for distributing the global state buffer to clients of
//!    threads that did not participate; those clients read it from the
//!    server's event log when they next get a reply.
//! 4. The master waits for all participants to finish replying, clears
//!    the global state buffer, and signals frame end.

use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex, PoisonError};

use parquake_fabric::{CondId, Fabric, LockId, Nanos, TaskCtx};
use parquake_interest::{EntityIndex, InterestStats};
use parquake_metrics::{Bucket, FrameSample, FrameStats, ThreadStats, Timeline};
use parquake_sim::GameWorld;

use crate::runtime::ServerShared;
use crate::{ServerConfig, ServerHandle, ServerKind, ServerResults};

struct CtrlState {
    in_frame: bool,
    world_done: bool,
    master: u32,
    participants: u32,
    participant_mask: u64,
    /// Participants that finished draining their request queues.
    req_done: u32,
    /// Participants that finished their reply phase.
    finished: u32,
    frame_no: u32,
    frame_start: Nanos,
    frame_stats: FrameStats,
    timeline: Timeline,
    /// Per-thread per-frame request counts / leaf masks (each thread
    /// writes only its own entry during the request phase).
    frame_reqs: Vec<u32>,
    frame_masks: Vec<u64>,
    /// This frame's shared interest index, refreshed once by the thread
    /// that releases the intra-frame barrier (sweep modes only) and
    /// cloned by every participant on its way into the reply phase.
    entity_index: Option<Arc<EntityIndex>>,
    /// Aggregate interest-matching accounting, merged from each
    /// worker's private tallies at exit.
    interest: InterestStats,
    exited: u32,
}

/// Frame orchestration state, guarded by the fabric lock `lock`.
struct Ctrl {
    lock: LockId,
    world_cv: CondId,
    intra_cv: CondId,
    frame_end_cv: CondId,
    /// The master's own: it waits here for the last joiner during the
    /// batching window, and for the last finisher at frame end.
    master_cv: CondId,
    state: UnsafeCell<CtrlState>,
}

// SAFETY: `state` is only accessed while holding the fabric `lock`
// (or, for the per-thread frame_reqs/frame_masks entries, by their
// owning thread during the request phase and the master at frame end).
unsafe impl Sync for Ctrl {}
unsafe impl Send for Ctrl {}

impl Ctrl {
    #[allow(clippy::mut_from_ref)]
    fn state(&self) -> &mut CtrlState {
        // SAFETY: see type-level invariant.
        unsafe { &mut *self.state.get() }
    }

    /// Enter the frame-control critical section. The ctrl lock sits
    /// above every region lock in the witness's layer order: it must
    /// never be requested while holding leaf/parent/global/client
    /// locks.
    // lockcheck: acquire-site
    fn enter(&self, ctx: &TaskCtx) {
        ctx.lock(self.lock);
    }

    /// Leave the frame-control critical section.
    // lockcheck: acquire-site
    fn exit(&self, ctx: &TaskCtx) {
        ctx.unlock(self.lock);
    }
}

/// Per-thread tallies that feed the shared FrameStats at exit.
#[derive(Default)]
struct WaitTallies {
    interwait_world_ns: Nanos,
    interwait_frame_ns: Nanos,
    frames_waited_on_world: u64,
}

/// Spawn the parallel server's worker tasks onto `fabric`.
pub fn spawn_parallel(
    fabric: &Arc<dyn Fabric>,
    cfg: ServerConfig,
    world: Arc<GameWorld>,
) -> ServerHandle {
    let ServerKind::Parallel { threads, locking } = cfg.kind else {
        unreachable!("spawn_parallel with non-parallel config");
    };
    assert!((1..=64).contains(&threads));
    let shared = Arc::new(ServerShared::new(
        fabric,
        &cfg,
        world,
        threads,
        Some(locking),
    ));
    let ctrl_lock = fabric.alloc_lock();
    if let Some(w) = fabric.witness() {
        w.classify(ctrl_lock, parquake_metrics::LockClass::Ctrl);
    }
    let ctrl = Arc::new(Ctrl {
        lock: ctrl_lock,
        world_cv: fabric.alloc_cond(),
        intra_cv: fabric.alloc_cond(),
        frame_end_cv: fabric.alloc_cond(),
        master_cv: fabric.alloc_cond(),
        state: UnsafeCell::new(CtrlState {
            in_frame: false,
            world_done: false,
            master: 0,
            participants: 0,
            participant_mask: 0,
            req_done: 0,
            finished: 0,
            frame_no: 0,
            frame_start: 0,
            frame_stats: FrameStats::new(),
            timeline: Timeline::default(),
            frame_reqs: vec![0; threads as usize],
            frame_masks: vec![0; threads as usize],
            entity_index: None,
            interest: InterestStats::default(),
            exited: 0,
        }),
    });
    let results = Arc::new(Mutex::new(ServerResults {
        threads: vec![ThreadStats::new(); threads as usize],
        ..ServerResults::default()
    }));
    let handle = ServerHandle {
        ports: shared.ports.clone(),
        results: results.clone(),
        slots_per_thread: shared.slots_per_thread,
    };
    // Request-phase protocol checking starts enabled; the master turns
    // it off/on around world updates.
    shared.set_checking(true);
    for t in 0..threads {
        let sh = shared.clone();
        let ct = ctrl.clone();
        let res = results.clone();
        fabric.spawn(
            &format!("server-{t}"),
            Some(t),
            Box::new(move |ctx| worker(ctx, t, &sh, &ct, &res)),
        );
    }
    handle
}

fn worker(
    ctx: &TaskCtx,
    t: u32,
    shared: &ServerShared,
    ctrl: &Ctrl,
    results: &Mutex<ServerResults>,
) {
    let port = shared.ports[t as usize];
    let mut stats = ThreadStats::new();
    let mut waits = WaitTallies::default();
    let mut istats = InterestStats::default();

    'frames: loop {
        // ---- S: select -------------------------------------------------
        let t0 = ctx.now();
        let readable = ctx.wait_readable(port, Some(shared.end_time));
        if !readable {
            // End-of-run drain tail: not part of the measured window.
            break 'frames;
        }
        stats.breakdown.add(Bucket::Idle, ctx.now() - t0);
        ctx.charge(shared.cost.select_op);

        // ---- Join the frame ---------------------------------------------
        ctrl.enter(ctx);
        let frame_no;
        {
            let st = ctrl.state();
            if !st.in_frame {
                // Become the master of a new frame.
                st.in_frame = true;
                st.world_done = false;
                st.master = t;
                st.participants = 1;
                st.participant_mask = 1 << t;
                st.req_done = 0;
                st.finished = 0;
                st.frame_no += 1;
                st.frame_start = ctx.now();
                frame_no = st.frame_no;

                // Optional request batching (paper §5.2): give other
                // threads' requests time to arrive and join the frame.
                // The window closes early once every thread has joined:
                // nobody is left to wait for.
                if shared.frame_batch_ns > 0 && shared.threads > 1 {
                    let t0 = st.frame_start;
                    let deadline = t0 + shared.frame_batch_ns;
                    while ctrl.state().participants < shared.threads {
                        let (_, timed_out) =
                            ctx.cond_wait_until(ctrl.master_cv, ctrl.lock, deadline);
                        if timed_out {
                            break;
                        }
                    }
                    stats.breakdown.add(Bucket::Idle, ctx.now() - t0);
                }
                ctrl.exit(ctx);

                // P: world physics (master only).
                let t0 = ctx.now();
                shared.run_world_update(ctx, port, &mut stats, frame_no);
                stats.breakdown.add(Bucket::World, ctx.now() - t0);
                stats.mastered += 1;

                ctrl.enter(ctx);
                ctrl.state().world_done = true;
                ctx.cond_broadcast(ctrl.world_cv);
                ctrl.exit(ctx);
            } else if !st.world_done {
                // Join before the world gate opens.
                st.participants += 1;
                st.participant_mask |= 1 << t;
                frame_no = st.frame_no;
                if shared.frame_batch_ns > 0 && st.participants == shared.threads {
                    // The last thread is in: close the master's window.
                    ctx.cond_signal(ctrl.master_cv);
                }
                let t0 = ctx.now();
                while !ctrl.state().world_done {
                    ctx.cond_wait(ctrl.world_cv, ctrl.lock);
                }
                let w = ctx.now() - t0;
                stats.breakdown.add(Bucket::InterWait, w);
                waits.interwait_world_ns += w;
                if w > 0 {
                    waits.frames_waited_on_world += 1;
                }
                ctrl.exit(ctx);
            } else {
                // Missed this frame: wait for it to end, then retry.
                let missed = st.frame_no;
                let t0 = ctx.now();
                while ctrl.state().in_frame && ctrl.state().frame_no == missed {
                    ctx.cond_wait(ctrl.frame_end_cv, ctrl.lock);
                }
                let w = ctx.now() - t0;
                stats.breakdown.add(Bucket::InterWait, w);
                waits.interwait_frame_ns += w;
                ctrl.exit(ctx);
                continue 'frames;
            }
        }
        stats.frames += 1;

        // ---- Rx/E: request processing ------------------------------------
        let mut frame_mask = 0u64;
        let moves = shared.drain_requests(ctx, t, port, &mut stats, &mut frame_mask);
        {
            // Publish per-frame tallies (own entry; no lock needed).
            let st = ctrl.state();
            st.frame_reqs[t as usize] = moves;
            st.frame_masks[t as usize] = frame_mask;
        }

        // ---- Intra-frame barrier ------------------------------------------
        ctrl.enter(ctx);
        {
            let st = ctrl.state();
            st.req_done += 1;
            if st.req_done == st.participants {
                // Barrier releaser: every participant has drained its
                // queue, so entity positions are quiescent until the
                // frame ends. Refresh this frame's shared interest index
                // now, before the broadcast, so peers only ever observe
                // it fully formed under the ctrl lock (sweep modes
                // only; `None` otherwise).
                st.entity_index = shared.build_interest_index(ctx, &mut istats);
                ctx.cond_broadcast(ctrl.intra_cv);
            } else {
                let t0 = ctx.now();
                while ctrl.state().req_done < ctrl.state().participants {
                    ctx.cond_wait(ctrl.intra_cv, ctrl.lock);
                }
                stats.breakdown.add(Bucket::IntraWait, ctx.now() - t0);
            }
        }
        let is_master = ctrl.state().master == t;
        let participant_mask = ctrl.state().participant_mask;
        let entity_index = ctrl.state().entity_index.clone();
        ctrl.exit(ctx);

        // ---- T/Tx: reply phase ---------------------------------------------
        let t0 = ctx.now();
        let global = shared.read_global_events(ctx, &mut stats);
        let mine = shared.owned_slots(t);
        // Each participant sweeps its own slot block against the shared
        // index — the match work parallelizes with the rest of the
        // reply phase.
        let iframe = entity_index
            .as_ref()
            .map(|ix| shared.match_interest(ctx, &mine, ix, &mut istats));
        shared.reply_for_slots(
            ctx,
            port,
            &mine,
            &global,
            frame_no,
            &mut stats,
            true,
            iframe.as_ref(),
            &mut istats,
        );
        if is_master {
            // The master pays for updating the message buffers of
            // clients whose threads are not part of this frame (paper
            // §3.3); the events wait in the log for their next reply.
            // Those clients sent no requests this frame, so no replies
            // are built for them and the interest frame is irrelevant.
            for other in 0..shared.threads {
                if participant_mask & (1 << other) == 0 {
                    let theirs = shared.owned_slots(other);
                    shared.reply_for_slots(
                        ctx,
                        port,
                        &theirs,
                        &global,
                        frame_no,
                        &mut stats,
                        false,
                        None,
                        &mut istats,
                    );
                }
            }
        }
        stats.breakdown.add(Bucket::Reply, ctx.now() - t0);
        // Let go of the index before the frame can end: the next
        // frame's refresh then finds it unshared and updates it in place.
        drop(entity_index);

        // ---- Frame end -------------------------------------------------------
        ctrl.enter(ctx);
        {
            let st = ctrl.state();
            st.finished += 1;
        }
        if is_master {
            let t0 = ctx.now();
            while ctrl.state().finished < ctrl.state().participants {
                ctx.cond_wait(ctrl.master_cv, ctrl.lock);
            }
            let w = ctx.now() - t0;
            stats.breakdown.add(Bucket::InterWait, w);
            waits.interwait_frame_ns += w;

            // Frame statistics over the participant set.
            let st = ctrl.state();
            let mut reqs = Vec::with_capacity(st.participants as usize);
            let mut masks = Vec::with_capacity(st.participants as usize);
            for i in 0..shared.threads {
                if st.participant_mask & (1 << i) != 0 {
                    reqs.push(st.frame_reqs[i as usize]);
                    masks.push(st.frame_masks[i as usize]);
                    st.frame_reqs[i as usize] = 0;
                    st.frame_masks[i as usize] = 0;
                }
            }
            st.frame_stats.frames += 1;
            st.frame_stats.frame_ns_sum += ctx.now() - st.frame_start;
            st.frame_stats.note_frame_requests(&reqs);
            st.frame_stats
                .note_frame_leaf_usage(&masks, shared.world.tree.leaf_count() as u64);
            st.timeline.push(FrameSample {
                start_ns: st.frame_start,
                duration_ns: ctx.now() - st.frame_start,
                participants: st.participants,
                requests: reqs.iter().sum(),
                requests_max: reqs.iter().copied().max().unwrap_or(0),
                requests_min: reqs.iter().copied().min().unwrap_or(0),
                master: st.master,
            });

            shared.clear_global_events(ctx, &mut stats);
            // Drop the frame's index: every participant has dropped its
            // own, so the next refresh does not copy it.
            ctrl.state().entity_index = None;
            ctrl.state().in_frame = false;
            ctx.cond_broadcast(ctrl.frame_end_cv);
            ctrl.exit(ctx);
        } else {
            if ctrl.state().finished == ctrl.state().participants {
                ctx.cond_signal(ctrl.master_cv);
            }
            ctrl.exit(ctx);
        }
    }

    // ---- Run over: publish results -----------------------------------------
    ctrl.enter(ctx);
    let st = ctrl.state();
    st.frame_stats.interwait_world_ns += waits.interwait_world_ns;
    st.frame_stats.interwait_frame_ns += waits.interwait_frame_ns;
    st.frame_stats.frames_waited_on_world += waits.frames_waited_on_world;
    st.interest.merge(&istats);
    st.exited += 1;
    let last = st.exited == shared.threads;
    let frame_stats = if last {
        Some((
            st.frame_stats.clone(),
            st.timeline.clone(),
            st.interest.clone(),
        ))
    } else {
        None
    };
    let frame_count = st.frame_no as u64;
    ctrl.exit(ctx);

    stats.queue_dropped = ctx.fabric().port_dropped(port);
    // Host-side result sink, written once per thread at task end;
    // poison-tolerant so one supervised panic cannot eat peer results.
    // lockcheck: allow(raw-sync: host-side result sink, no fabric task blocks on it)
    let mut r = results.lock().unwrap_or_else(PoisonError::into_inner);
    r.threads[t as usize] = stats;
    if let Some((fs, tl, ist)) = frame_stats {
        r.frames = fs;
        r.timeline = tl;
        r.frame_count = frame_count;
        r.leaf_count = shared.world.tree.leaf_count() as u64;
        r.interest = ist;
    }
}
