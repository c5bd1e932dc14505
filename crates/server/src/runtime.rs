//! Shared server runtime: the pieces both the sequential and parallel
//! servers compose — message handling, the world-update phase, the
//! reply phase, and the global state buffer.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use parquake_fabric::{Fabric, Nanos, PortId, TaskCtx};
use parquake_interest::oracle::{oracle_agrees, OracleScratch};
use parquake_interest::{match_viewers, EntityIndex, InterestFrame, InterestMode, InterestStats};
use parquake_math::Pcg32;
use parquake_metrics::{Bucket, FrameSample, FrameStats, ThreadStats, Timeline};
use parquake_protocol::{
    ClientMessage, Decode, Encode, GameEvent, ServerMessage, MAX_EVENTS_PER_REPLY,
};
use parquake_sim::worldphase::run_world_phase;
use parquake_sim::{GameWorld, WorkCounters};

use crate::clients::{ClientTable, SlotState};
use crate::cost::CostModel;
use crate::exec::{execute_move_at, ExecEnv, RegionLocks};
use crate::lifecycle::LifecycleEvent;
use crate::visibility_reply::build_reply;
use crate::{Assignment, LockPolicy, ServerConfig, ServerResults};

/// Bound on each thread's inbound request queue. On overflow the
/// fabric drops the *oldest* queued datagram (freshest input wins,
/// like a full OS socket buffer under load); drops are counted and
/// surfaced as `ThreadStats::queue_dropped`.
pub const REQUEST_QUEUE_CAP: usize = 1024;

/// Everything a single-threaded runtime accumulates across frames: the
/// sequential server owns one for its whole run, a pooled arena hands
/// its own to whichever worker claimed the frame.
#[derive(Default)]
pub struct FrameState {
    pub stats: ThreadStats,
    pub frames: FrameStats,
    pub timeline: Timeline,
    pub interest: InterestStats,
    pub frame_no: u32,
}

/// State shared by every server thread of one server instance.
pub struct ServerShared {
    pub world: Arc<GameWorld>,
    pub clients: ClientTable,
    pub locks: RegionLocks,
    pub cost: CostModel,
    pub policy: Option<LockPolicy>,
    pub end_time: Nanos,
    pub checking: bool,
    /// Request batching window (0 = off).
    pub frame_batch_ns: Nanos,
    /// Player-to-thread assignment scheme.
    pub assignment: Assignment,
    /// QuakeWorld-style delta compression of replies (extension).
    pub delta_compression: bool,
    /// How reply interest sets are computed (scan / sweep / sweep
    /// shadowed by the oracle).
    pub interest: InterestMode,
    /// Reclaim slots silent for this long (0 = never).
    pub client_timeout_ns: Nanos,
    /// Arena id echoed in every ConnectAck (0 for standalone servers).
    pub arena_id: u16,
    /// Directory control port for lifecycle notices (`None` = off).
    pub lifecycle: Option<PortId>,
    pub threads: u32,
    pub slots_per_thread: u32,
    pub ports: Vec<PortId>,
    /// The global state buffer (paper §3.3): broadcast events appended
    /// during the world and request phases; guarded by
    /// `locks.global_lock`.
    global_events: UnsafeCell<Vec<GameEvent>>,
    /// World-phase RNG; only the frame master touches it.
    rng: UnsafeCell<Pcg32>,
    /// Time of the previous world update (master-only).
    last_world: UnsafeCell<Nanos>,
    /// Where each client's last `Move` was routed: slot index by
    /// `client_id` modulo the table size (a power of two). Only ever a
    /// hint — `slot_for_move` checks the slot it names before using it —
    /// so entries are relaxed atomics that publish nothing, and two
    /// client ids sharing an entry merely cost each other the scan.
    route_hint: Box<[AtomicU32]>,
}

// SAFETY: interior state is guarded by the fabric global lock
// (global_events) or by the single-master phase protocol (rng,
// last_world).
unsafe impl Sync for ServerShared {}
unsafe impl Send for ServerShared {}

impl ServerShared {
    pub fn new(
        fabric: &Arc<dyn Fabric>,
        cfg: &ServerConfig,
        world: Arc<GameWorld>,
        threads: u32,
        policy: Option<LockPolicy>,
    ) -> ServerShared {
        assert!(!cfg.catch_panics, "inert: the arena pool supervises frames");
        let slots = world.max_players() as usize;
        let locks = RegionLocks::new(fabric, &world.tree, slots);
        let ports: Vec<PortId> = (0..threads)
            .map(|_| fabric.alloc_bounded_port(REQUEST_QUEUE_CAP))
            .collect();
        ServerShared {
            clients: ClientTable::new(slots),
            locks,
            cost: cfg.cost.clone(),
            policy,
            end_time: cfg.end_time,
            checking: cfg.checking && policy.is_some(),
            frame_batch_ns: cfg.frame_batch_ns,
            assignment: cfg.assignment,
            delta_compression: cfg.delta_compression,
            interest: cfg.interest,
            client_timeout_ns: cfg.client_timeout_ns,
            arena_id: cfg.arena_id,
            lifecycle: cfg.lifecycle_port,
            threads,
            slots_per_thread: (slots as u32).div_ceil(threads),
            ports,
            global_events: UnsafeCell::new(Vec::new()),
            rng: UnsafeCell::new(Pcg32::new(0x5EB0_0715, 99)),
            last_world: UnsafeCell::new(0),
            route_hint: (0..(2 * slots).next_power_of_two())
                .map(|_| AtomicU32::new(0))
                .collect(),
            world,
        }
    }

    /// The static *home* block of a thread (connect-time assignment,
    /// §3.1). Under static assignment this is also the ownership set.
    pub fn own_slots(&self, thread: u32) -> std::ops::Range<usize> {
        let per = self.slots_per_thread as usize;
        let start = thread as usize * per;
        let end = (start + per).min(self.clients.capacity());
        start..end.max(start)
    }

    /// Slots this thread currently answers for. Under static assignment
    /// this is exactly the home block; under the region-affine scheme it
    /// follows the most recent processing thread.
    pub fn owned_slots(&self, thread: u32) -> Vec<usize> {
        match self.assignment {
            Assignment::Static => self
                .own_slots(thread)
                .filter(|&i| self.clients.slot(i).state != SlotState::Empty)
                .collect(),
            Assignment::RegionAffine { .. } => (0..self.clients.capacity())
                .filter(|&i| {
                    let s = self.clients.slot(i);
                    s.state != SlotState::Empty && s.owner == thread
                })
                .collect(),
        }
    }

    /// Is the dynamic assignment scheme active?
    #[inline]
    pub fn dynamic_assignment(&self) -> bool {
        matches!(self.assignment, Assignment::RegionAffine { .. })
    }

    pub fn exec_env(&self) -> ExecEnv<'_> {
        ExecEnv {
            world: &self.world,
            locks: &self.locks,
            cost: &self.cost,
            policy: self.policy,
            commit_log: None,
        }
    }

    /// Append events to the global state buffer under its lock.
    pub fn push_global_events(&self, ctx: &TaskCtx, stats: &mut ThreadStats, events: &[GameEvent]) {
        if events.is_empty() {
            return;
        }
        let waited = self.locks.acquire_global(ctx);
        stats.lock.global_buffer_ns += waited;
        // SAFETY: global_lock held.
        unsafe { (*self.global_events.get()).extend_from_slice(events) };
        self.locks.release_global(ctx);
    }

    /// Snapshot the global buffer (reply phase).
    pub fn read_global_events(&self, ctx: &TaskCtx, stats: &mut ThreadStats) -> Vec<GameEvent> {
        let waited = self.locks.acquire_global(ctx);
        stats.lock.global_buffer_ns += waited;
        // SAFETY: global_lock held.
        let copy = unsafe { (*self.global_events.get()).clone() };
        self.locks.release_global(ctx);
        copy
    }

    /// Clear the global buffer (frame end, master only, under lock).
    pub fn clear_global_events(&self, ctx: &TaskCtx, stats: &mut ThreadStats) {
        let waited = self.locks.acquire_global(ctx);
        stats.lock.global_buffer_ns += waited;
        // SAFETY: global_lock held.
        unsafe { (*self.global_events.get()).clear() };
        self.locks.release_global(ctx);
    }

    /// Fire-and-forget a lifecycle notice at the directory control
    /// port, if one is configured. Sent uncharged — the notice models
    /// an in-process queue append, not network traffic — so enabling
    /// lifecycle reporting never perturbs game-path timing.
    pub fn notify(&self, ctx: &TaskCtx, from: PortId, event: LifecycleEvent) {
        if let Some(dir) = self.lifecycle {
            ctx.send(from, dir, event.to_bytes());
        }
    }

    /// Toggle the dynamic protocol checkers (request phase on, world
    /// phase off — the master mutates freely by phase exclusivity).
    pub fn set_checking(&self, on: bool) {
        if self.checking {
            self.world.links.set_checking(on);
            self.world.store.set_checking(on);
        }
    }

    /// The world-update phase (master/sequential thread). Spawns
    /// pending connections, despawns leavers, reclaims timed-out
    /// slots (sending `Bye` from `port`), advances world physics,
    /// and appends the resulting events to the global buffer. Returns
    /// charged time via the fabric; the caller buckets it as `World`.
    pub fn run_world_update(
        &self,
        ctx: &TaskCtx,
        port: PortId,
        stats: &mut ThreadStats,
        frame_no: u32,
    ) {
        self.set_checking(false);
        let now = ctx.now();
        // SAFETY: master-only by the phase protocol.
        let rng = unsafe { &mut *self.rng.get() };
        let last = unsafe { &mut *self.last_world.get() };
        let dt = if *last == 0 { 30_000_000 } else { now - *last };
        *last = now;

        // Connection maintenance.
        for idx in 0..self.clients.capacity() {
            let slot = self.clients.slot(idx);
            match slot.state {
                SlotState::Pending => {
                    self.world.spawn_player(idx as u16, slot.client_id, rng);
                    slot.state = SlotState::Active;
                    slot.needs_ack = true;
                    slot.leaving = false;
                    slot.last_active = now;
                }
                SlotState::Active if slot.leaving => {
                    let client_id = slot.client_id;
                    self.world.despawn_player(idx as u16);
                    slot.state = SlotState::Empty;
                    slot.leaving = false;
                    slot.events.clear();
                    self.notify(
                        ctx,
                        port,
                        LifecycleEvent::Disconnected {
                            arena: self.arena_id,
                            client_id,
                        },
                    );
                }
                SlotState::Active
                    if self.client_timeout_ns > 0
                        && now.saturating_sub(slot.last_active) >= self.client_timeout_ns =>
                {
                    // Inactivity reclaim: tell the client it is gone
                    // (best effort — it may be, too) and free the slot.
                    let client_id = slot.client_id;
                    let bye = ServerMessage::Bye { client_id };
                    ctx.charge(self.cost.reply_base / 2);
                    ctx.send(port, slot.reply_port, bye.to_bytes());
                    self.world.despawn_player(idx as u16);
                    slot.state = SlotState::Empty;
                    slot.leaving = false;
                    slot.events.clear();
                    stats.timeouts += 1;
                    self.notify(
                        ctx,
                        port,
                        LifecycleEvent::Reclaimed {
                            arena: self.arena_id,
                            client_id,
                            at: now,
                        },
                    );
                }
                _ => {}
            }
        }

        let mut events = Vec::new();
        let mut work = WorkCounters::new();
        run_world_phase(
            &self.world,
            now,
            dt.min(250_000_000),
            rng,
            &mut events,
            &mut work,
        );

        // Region-affine reassignment (paper §5.1 future work): cluster
        // players by the areanode leaf they occupy and steer each client
        // to the thread owning that part of the world.
        if let Assignment::RegionAffine { period_frames } = self.assignment {
            if period_frames > 0 && frame_no % period_frames == 0 {
                self.recluster_players(ctx);
            }
        }

        ctx.charge(self.cost.world_base + self.cost.work_ns(&work));
        self.push_global_events(ctx, stats, &events);
        self.set_checking(true);
    }

    /// Sort active players by areanode leaf (spatial order) and cut the
    /// sorted list into `threads` contiguous groups: players sharing a
    /// region land on the same thread, so concurrent moves mostly lock
    /// disjoint leaves. Master-only (world phase).
    fn recluster_players(&self, ctx: &TaskCtx) {
        let mut keyed: Vec<(u32, usize)> = Vec::new();
        for idx in 0..self.clients.capacity() {
            let slot = self.clients.slot(idx);
            if slot.state != SlotState::Active {
                continue;
            }
            let ent = self.world.store.snapshot(idx as u16);
            keyed.push((ent.linked_node, idx));
        }
        if keyed.is_empty() {
            return;
        }
        keyed.sort_unstable();
        let per = keyed.len().div_ceil(self.threads as usize);
        for (rank, &(_leaf, idx)) in keyed.iter().enumerate() {
            let target = (rank / per) as u32;
            self.clients.slot(idx).desired_thread = target.min(self.threads - 1);
        }
        // Modelled cost: a sort + scan over the player list.
        ctx.charge(keyed.len() as u64 * 400);
    }

    /// The Active slot `thread` may execute `client_id`'s move on.
    /// Static assignment: the slot is in this thread's home block.
    /// Dynamic assignment: the client may have been steered here from
    /// any block, so every slot qualifies. The routing hint is tried
    /// first; whatever it names must pass the same test the scan
    /// applies, so a stale hint falls through to the scan and can never
    /// route a move to another client's slot.
    fn slot_for_move(&self, thread: u32, client_id: u32) -> Option<usize> {
        let range = if self.dynamic_assignment() {
            0..self.clients.capacity()
        } else {
            self.own_slots(thread)
        };
        let plays_here = |idx: usize| {
            let slot = self.clients.slot(idx);
            slot.state == SlotState::Active && slot.client_id == client_id
        };
        let hint = &self.route_hint[client_id as usize & (self.route_hint.len() - 1)];
        let hinted = hint.load(Ordering::Relaxed) as usize;
        if range.contains(&hinted) && plays_here(hinted) {
            return Some(hinted);
        }
        let idx = range.into_iter().find(|&idx| plays_here(idx))?;
        hint.store(idx as u32, Ordering::Relaxed);
        Some(idx)
    }

    /// Handle one decoded client message during request processing.
    /// `now` is the caller's last clock read — the moment the message
    /// came off the wire — and the time everything here is dated from.
    /// Returns `true` if it was a move (counts toward per-frame request
    /// statistics).
    #[allow(clippy::too_many_arguments)]
    pub fn handle_message(
        &self,
        ctx: &TaskCtx,
        now: Nanos,
        thread: u32,
        from_port: PortId,
        msg: ClientMessage,
        stats: &mut ThreadStats,
        frame_leaf_mask: &mut u64,
    ) -> bool {
        match msg {
            // The arena id was consumed by whatever routed this
            // Connect here (the arena directory's admission stage, or
            // nothing for a standalone server); the runtime itself IS
            // one arena and acks with its own id.
            ClientMessage::Connect { client_id, .. } => {
                // Re-ack an existing slot (anywhere, in case the client
                // was steered) or claim a fresh one in the home block.
                let mut existing = None;
                for idx in 0..self.clients.capacity() {
                    let slot = self.clients.slot(idx);
                    if slot.state != SlotState::Empty && slot.client_id == client_id {
                        existing = Some(idx);
                        break;
                    }
                }
                if let Some(idx) = existing {
                    let slot = self.clients.slot(idx);
                    if slot.reply_port == from_port {
                        // Retry from the same endpoint: refresh and
                        // re-ack (the original ack may have been lost).
                        slot.last_active = now;
                        if slot.state == SlotState::Active {
                            slot.needs_ack = true;
                        }
                    } else if self.client_timeout_ns > 0
                        && now.saturating_sub(slot.last_active) >= self.client_timeout_ns / 2
                    {
                        // The old endpoint has gone quiet for half the
                        // inactivity window: accept the rebind (client
                        // genuinely moved — e.g. NAT rebinding).
                        slot.reply_port = from_port;
                        slot.last_active = now;
                        if slot.state == SlotState::Active {
                            slot.needs_ack = true;
                        }
                    } else {
                        // A different endpoint claiming a live session:
                        // reject instead of hijacking the slot.
                        stats.connect_rejected += 1;
                    }
                    return false;
                }
                let fresh = self
                    .own_slots(thread)
                    .find(|&idx| self.clients.slot(idx).state == SlotState::Empty);
                if let Some(idx) = fresh {
                    let slot = self.clients.slot(idx);
                    slot.client_id = client_id;
                    slot.reply_port = from_port;
                    slot.state = SlotState::Pending;
                    slot.owner = thread;
                    slot.desired_thread = thread;
                    slot.last_active = now;
                    let from = self.ports[thread as usize];
                    self.notify(
                        ctx,
                        from,
                        LifecycleEvent::Connected {
                            arena: self.arena_id,
                            client_id,
                            thread: thread as u16,
                        },
                    );
                } else {
                    // Home block full: the connect is dropped (the
                    // client will retry and may land elsewhere under
                    // dynamic steering).
                    stats.connect_rejected += 1;
                    let from = self.ports[thread as usize];
                    self.notify(
                        ctx,
                        from,
                        LifecycleEvent::Rejected {
                            arena: self.arena_id,
                            client_id,
                        },
                    );
                }
                false
            }
            ClientMessage::Disconnect { client_id } => {
                for idx in 0..self.clients.capacity() {
                    let slot = self.clients.slot(idx);
                    if slot.state == SlotState::Active && slot.client_id == client_id {
                        slot.leaving = true;
                    }
                }
                false
            }
            ClientMessage::Move { client_id, cmd } => {
                let Some(idx) = self.slot_for_move(thread, client_id) else {
                    return false;
                };
                let slot = self.clients.slot(idx);
                // Prediction trailer handling, all before the
                // move executes: opt-in is sticky, duplicates
                // are dropped (applying a network duplicate
                // would double-move the player), and sequence
                // gaps disarm the client's divergence oracle by
                // bumping the perturbation epoch.
                if cmd.predict_ack.is_some() {
                    slot.predicts = true;
                    if slot.input_ack != 0 && cmd.seq <= slot.input_ack {
                        stats.inputs_deduped += 1;
                        slot.last_active = now;
                        return false;
                    }
                    if slot.input_ack != 0 && cmd.seq != slot.input_ack + 1 {
                        slot.input_perturb = slot.input_perturb.wrapping_add(1);
                        stats.input_gaps += 1;
                    }
                }
                let env = self.exec_env();
                let outcome = execute_move_at(
                    &env,
                    ctx,
                    now,
                    thread,
                    idx as u16,
                    &cmd,
                    stats,
                    frame_leaf_mask,
                );
                self.push_global_events(ctx, stats, &outcome.events);
                // Slot bookkeeping: under dynamic assignment two
                // threads can transiently process one client's
                // moves in the same frame (port switch window),
                // so serialize on the slot's buffer lock.
                let dynamic = self.dynamic_assignment();
                if dynamic {
                    let waited = self.locks.acquire_client(ctx, idx);
                    stats.lock.reply_buffer_ns += waited;
                }
                let slot = self.clients.slot(idx);
                slot.requests_this_frame += 1;
                slot.last_seq = cmd.seq;
                slot.last_sent_at = cmd.sent_at;
                slot.owner = thread;
                slot.last_active = now;
                if slot.predicts {
                    slot.input_ack = cmd.seq;
                    // Advance the reconciliation shadow with
                    // the pure movement kernel. The first
                    // trailered move (and the first after a
                    // restore) adopts the authoritative
                    // post-move state instead — there is no
                    // prior shadow to step from.
                    slot.predict_shadow = match slot.predict_shadow {
                        Some((pos, vel, on_ground)) => {
                            let next = parquake_sim::step_world_only(
                                &self.world.map,
                                parquake_sim::PredictState {
                                    pos,
                                    vel,
                                    on_ground,
                                },
                                &cmd,
                            );
                            Some((next.pos, next.vel, next.on_ground))
                        }
                        None => {
                            let e = self.world.store.snapshot(idx as u16);
                            Some((e.pos, e.vel, e.on_ground))
                        }
                    };
                }
                if dynamic {
                    self.locks.release_client(ctx, idx);
                }
                true
            }
        }
    }

    /// Drain and process this thread's request queue (the Rx/E loop).
    /// Returns the number of move requests processed.
    pub fn drain_requests(
        &self,
        ctx: &TaskCtx,
        thread: u32,
        port: PortId,
        stats: &mut ThreadStats,
        frame_leaf_mask: &mut u64,
    ) -> u32 {
        let mut moves = 0u32;
        loop {
            let t0 = ctx.now();
            let Some(raw) = ctx.try_recv(port) else {
                break;
            };
            ctx.charge(self.cost.recv);
            stats.datagrams += 1;
            let decoded = ClientMessage::from_bytes(&raw.payload);
            let received = ctx.now();
            stats.breakdown.add(Bucket::Receive, received - t0);
            match decoded {
                Ok(msg) => {
                    if self.handle_message(
                        ctx,
                        received,
                        thread,
                        raw.from,
                        msg,
                        stats,
                        frame_leaf_mask,
                    ) {
                        moves += 1;
                    }
                }
                // Malformed datagrams are dropped, like the original
                // server — but counted, so the gateway's accounting
                // identity can close.
                Err(_) => stats.decode_rejected += 1,
            }
        }
        moves
    }

    /// One complete frame of a single-threaded runtime (paper §2.1):
    /// world update, `drain` the request queue (it returns the moves
    /// processed), reply to everyone who sent a request, then the
    /// per-frame bookkeeping. The sequential server and the pooled
    /// arena frame are this one body, which is what keeps a 1×1 pool
    /// byte-identical to `ServerKind::Sequential`.
    pub fn run_single_frame(
        &self,
        ctx: &TaskCtx,
        f: &mut FrameState,
        drain: impl FnOnce(&mut ThreadStats, &mut u64) -> u32,
    ) {
        let port = self.ports[0];
        ctx.charge(self.cost.select_op);
        f.frame_no += 1;
        let frame_start = ctx.now();

        // P: world physics.
        let t0 = ctx.now();
        self.run_world_update(ctx, port, &mut f.stats, f.frame_no);
        f.stats.breakdown.add(Bucket::World, ctx.now() - t0);
        f.stats.mastered += 1;

        // Rx/E: drain the request queue.
        let mut unused_mask = 0u64;
        let moves = drain(&mut f.stats, &mut unused_mask);

        // T/Tx: replies for everyone who sent a request.
        let t0 = ctx.now();
        let global = self.read_global_events(ctx, &mut f.stats);
        let all_slots: Vec<usize> = (0..self.clients.capacity()).collect();
        let index = self.build_interest_index(ctx, &mut f.interest);
        let iframe = index
            .as_ref()
            .map(|ix| self.match_interest(ctx, &all_slots, ix, &mut f.interest));
        self.reply_for_slots(
            ctx,
            port,
            &all_slots,
            &global,
            f.frame_no,
            &mut f.stats,
            true,
            iframe.as_ref(),
            &mut f.interest,
        );
        self.clear_global_events(ctx, &mut f.stats);
        f.stats.breakdown.add(Bucket::Reply, ctx.now() - t0);

        f.stats.frames += 1;
        f.frames.frames += 1;
        f.frames.frame_ns_sum += ctx.now() - frame_start;
        f.frames.note_frame_requests(&[moves]);
        f.frames.leaf_count = self.world.tree.leaf_count() as u64;
        f.timeline.push(FrameSample {
            start_ns: frame_start,
            duration_ns: ctx.now() - frame_start,
            participants: 1,
            requests: moves,
            requests_max: moves,
            requests_min: moves,
            master: 0,
        });
    }

    /// The select loop of a single-threaded runtime (paper §2.1):
    /// block until a request arrives or the run ends, book the wait as
    /// idle time, run one frame. The sequential server's whole life,
    /// and a 1×1 pool's.
    pub fn run_single_loop(&self, ctx: &TaskCtx, f: &mut FrameState) {
        let port = self.ports[0];
        loop {
            let t0 = ctx.now();
            if !ctx.wait_readable(port, Some(self.end_time)) {
                // End-of-run drain tail: not part of the measured window.
                break;
            }
            f.stats.breakdown.add(Bucket::Idle, ctx.now() - t0);
            self.run_single_frame(ctx, f, |stats, mask| {
                self.drain_requests(ctx, 0, port, stats, mask)
            });
        }
    }

    /// Publish a single-threaded runtime's accumulated state as its
    /// `ServerResults`. Poison-tolerant so a supervised panic elsewhere
    /// still lets results publish.
    pub fn publish_single(
        &self,
        ctx: &TaskCtx,
        f: &mut FrameState,
        results: &Mutex<ServerResults>,
    ) {
        f.stats.queue_dropped = ctx.fabric().port_dropped(self.ports[0]);
        // lockcheck: allow(raw-sync: host-side result sink, no fabric task blocks on it)
        let mut r = results.lock().unwrap_or_else(PoisonError::into_inner);
        r.threads = vec![f.stats.clone()];
        r.frames = f.frames.clone();
        r.timeline = f.timeline.clone();
        r.frame_count = f.frame_no as u64;
        r.leaf_count = self.world.tree.leaf_count() as u64;
        r.interest = f.interest.clone();
    }

    /// Build this frame's shared entity index for the batch interest
    /// sweep, charging the build to the calling thread. Returns `None`
    /// under [`InterestMode::Scan`], and when no client is owed a
    /// reply this frame (connect-only, ack-only and maintenance
    /// frames): nothing would read the index. Must run *after* the
    /// request phase (positions quiescent, and every slot's request
    /// count final — in the parallel server the caller releases the
    /// intra-frame barrier, so every other thread is parked) and
    /// before any reply is built.
    pub fn build_interest_index(
        &self,
        ctx: &TaskCtx,
        istats: &mut InterestStats,
    ) -> Option<Arc<EntityIndex>> {
        let owed = || (0..self.clients.capacity()).any(|idx| self.is_viewer(idx));
        if !self.interest.uses_sweep() || !owed() {
            return None;
        }
        let mut work = WorkCounters::new();
        let index = EntityIndex::build(&self.world, &mut work);
        ctx.charge(self.cost.work_ns(&work));
        istats.frames += 1;
        Some(Arc::new(index))
    }

    /// Is slot `idx` owed a reply this frame — Active, with at least
    /// one request?
    fn is_viewer(&self, idx: usize) -> bool {
        let s = self.clients.slot(idx);
        s.state == SlotState::Active && s.requests_this_frame > 0
    }

    /// Match the viewers among `slots` — Active slots with at least
    /// one request this frame, the exact set `reply_for_slots` builds
    /// replies for — against the shared index. Charges the match work
    /// to the calling thread.
    pub fn match_interest(
        &self,
        ctx: &TaskCtx,
        slots: &[usize],
        index: &EntityIndex,
        istats: &mut InterestStats,
    ) -> InterestFrame {
        let viewers: Vec<u16> = slots
            .iter()
            .filter(|&&idx| self.is_viewer(idx))
            .map(|&idx| idx as u16)
            .collect();
        let mut work = WorkCounters::new();
        let frame = match_viewers(&self.world, index, &viewers, &mut work, istats);
        ctx.charge(self.cost.work_ns(&work));
        frame
    }

    /// Distribute the global state buffer into the message buffers of
    /// the slots in `range` (under per-player buffer locks), then send
    /// replies/acks for slots that need them. `frame` is the server
    /// frame number. `interest` carries this frame's precomputed
    /// interest sets (the sweep modes); `None` scans per client.
    #[allow(clippy::too_many_arguments)]
    pub fn reply_for_slots(
        &self,
        ctx: &TaskCtx,
        port: PortId,
        slots: &[usize],
        global: &[GameEvent],
        frame: u32,
        stats: &mut ThreadStats,
        send_replies: bool,
        interest: Option<&InterestFrame>,
        istats: &mut InterestStats,
    ) {
        let mut oracle_scratch = OracleScratch::default();
        for &idx in slots {
            let slot_state = self.clients.slot(idx).state;
            if slot_state != SlotState::Active {
                continue;
            }
            // Update the slot's message buffer from the global buffer.
            if !global.is_empty() {
                let waited = self.locks.acquire_client(ctx, idx);
                stats.lock.reply_buffer_ns += waited;
                self.clients.slot(idx).push_events(global);
                ctx.charge(self.cost.event_append * global.len() as u64);
                self.locks.release_client(ctx, idx);
            }
            if !send_replies {
                continue;
            }
            let slot = self.clients.slot(idx);
            if slot.needs_ack {
                slot.needs_ack = false;
                let ack = ServerMessage::ConnectAck {
                    client_id: slot.client_id,
                    spawn: self.world.store.snapshot(idx as u16).pos,
                    arena: self.arena_id,
                };
                ctx.charge(self.cost.reply_base / 2);
                ctx.send(port, slot.reply_port, ack.to_bytes());
                stats.replies += 1;
            }
            if slot.requests_this_frame == 0 {
                continue;
            }
            // Build and send the reply.
            let pre = interest.and_then(|f| f.get(idx as u16));
            if self.interest.oracle() {
                if let Some(set) = pre {
                    // Shadow the sweep with the uncharged brute scan.
                    istats.oracle_checked += 1;
                    if !oracle_agrees(&self.world, idx as u16, set, &mut oracle_scratch) {
                        istats.oracle_mismatches += 1;
                    }
                }
            }
            let mut work = WorkCounters::new();
            let reply = {
                let waited = self.locks.acquire_client(ctx, idx);
                stats.lock.reply_buffer_ns += waited;
                let slot = self.clients.slot(idx);
                let take = slot.events.len().min(MAX_EVENTS_PER_REPLY);
                let events: Vec<GameEvent> = slot.events.drain(..take).collect();
                self.locks.release_client(ctx, idx);
                let steer = slot.desired_thread.min(u8::MAX as u32) as u8;
                build_reply(
                    &self.world,
                    idx as u16,
                    slot,
                    frame,
                    steer,
                    self.delta_compression,
                    events,
                    pre,
                    &mut work,
                )
            };
            if let ServerMessage::Reply { ref entities, .. } = reply {
                stats.reply_sizes.note(entities.len());
            }
            let bytes = reply.to_bytes();
            ctx.charge(
                self.cost.work_ns(&work)
                    + self.cost.reply_base
                    + self.cost.reply_byte * bytes.len() as u64,
            );
            let slot = self.clients.slot(idx);
            ctx.send(port, slot.reply_port, bytes);
            slot.requests_this_frame = 0;
            stats.replies += 1;
        }
    }

    /// Capture the connection identity of every occupied slot for a
    /// supervisor checkpoint. Quiescent contexts only (between frames,
    /// under the pool claim) — same contract as the world snapshot.
    pub fn snapshot_slots(&self) -> Vec<SlotSnapshot> {
        (0..self.clients.capacity())
            .filter_map(|idx| {
                let s = self.clients.slot(idx);
                (s.state != SlotState::Empty).then_some(SlotSnapshot {
                    idx: idx as u32,
                    state: s.state,
                    client_id: s.client_id,
                    reply_port: s.reply_port,
                    owner: s.owner,
                    desired_thread: s.desired_thread,
                    last_seq: s.last_seq,
                    predicts: s.predicts,
                    input_ack: s.input_ack,
                    input_perturb: s.input_perturb,
                })
            })
            .collect()
    }

    /// Rebuild the slot table from a checkpoint. Every slot is cleared
    /// first, then the snapshot entries are reinstated with:
    ///
    /// * `last_active = now` — restored clients get a fresh inactivity
    ///   window instead of inheriting pre-crash silence,
    /// * `needs_ack = true` for Active slots — the unsolicited
    ///   ConnectAck both re-synchronizes the client and serves as the
    ///   client-observable "your arena restarted" signal,
    /// * an empty delta baseline — the next reply carries full state,
    ///   since the client's acked view may postdate the checkpoint.
    ///
    /// Quiescent contexts only.
    pub fn restore_slots(&self, snaps: &[SlotSnapshot], now: Nanos) {
        // Live pre-crash perturbation epochs, by slot index. The slot
        // table survives the panic, and between the checkpoint and the
        // crash the live epoch may have advanced past the snapshot's
        // (collision bumps are not checkpointed). Reinstating from the
        // snapshot alone could then reissue an epoch the client has
        // already adopted, re-arming its divergence oracle against the
        // rewound world.
        let live_perturb: Vec<u32> = (0..self.clients.capacity())
            .map(|idx| self.clients.slot(idx).input_perturb)
            .collect();
        for idx in 0..self.clients.capacity() {
            let s = self.clients.slot(idx);
            s.state = SlotState::Empty;
            s.leaving = false;
            s.needs_ack = false;
            s.requests_this_frame = 0;
            s.events.clear();
            s.baseline.clear();
            s.predicts = false;
            s.input_ack = 0;
            s.input_perturb = 0;
            s.predict_shadow = None;
        }
        for snap in snaps {
            let idx = snap.idx as usize;
            if idx >= self.clients.capacity() {
                continue;
            }
            let s = self.clients.slot(idx);
            s.state = snap.state;
            s.client_id = snap.client_id;
            s.reply_port = snap.reply_port;
            s.owner = snap.owner;
            s.desired_thread = snap.desired_thread;
            s.last_seq = snap.last_seq;
            s.last_sent_at = 0;
            s.last_active = now;
            s.needs_ack = snap.state == SlotState::Active;
            // Prediction continuity across a restore: the restored
            // world state is NOT what pure input replay from the
            // client's ring would produce, so the perturbation epoch
            // is bumped past BOTH the checkpointed and the live
            // pre-crash value (disarming the client's divergence
            // oracle until it re-adopts server state) and the shadow
            // is dropped — the next trailered move re-seeds it from
            // the restored authoritative state.
            s.predicts = snap.predicts;
            s.input_ack = snap.input_ack;
            s.input_perturb = snap.input_perturb.max(live_perturb[idx]).wrapping_add(1);
            s.predict_shadow = None;
        }
    }
}

/// One occupied slot's connection identity, as stored in a supervisor
/// checkpoint. Gameplay fields (event queue, delta baseline, per-frame
/// counters) are deliberately absent: they are rebuilt on restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index in the client table.
    pub idx: u32,
    pub state: SlotState,
    pub client_id: u32,
    pub reply_port: PortId,
    pub owner: u32,
    pub desired_thread: u32,
    pub last_seq: u32,
    /// Prediction opt-in survives a restore; the restore path bumps
    /// `input_perturb` so the client's divergence oracle stands down
    /// until it re-adopts server state.
    pub predicts: bool,
    pub input_ack: u32,
    pub input_perturb: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerKind;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_fabric::FabricKind;

    fn shared(threads: u32) -> (Arc<dyn Fabric>, ServerShared) {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(1).generate());
        let world = Arc::new(GameWorld::new(map, 4, 32));
        let cfg = ServerConfig::new(ServerKind::Sequential, 1_000_000_000);
        let s = ServerShared::new(&fabric, &cfg, world, threads, None);
        (fabric, s)
    }

    #[test]
    fn own_slots_partition_block_wise() {
        let (_f, s) = shared(4);
        assert_eq!(s.own_slots(0), 0..8);
        assert_eq!(s.own_slots(1), 8..16);
        assert_eq!(s.own_slots(3), 24..32);
        // Ranges cover everything exactly once.
        let total: usize = (0..4).map(|t| s.own_slots(t).len()).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn slot_snapshot_restore_reinstates_identity() {
        let (_f, s) = shared(2);
        {
            let slot = s.clients.slot(3);
            slot.state = SlotState::Active;
            slot.client_id = 77;
            slot.reply_port = 9;
            slot.owner = 0;
            slot.desired_thread = 1;
            slot.last_seq = 41;
            slot.last_active = 5;
            slot.predicts = true;
            slot.input_ack = 41;
            slot.input_perturb = 3;
            slot.predict_shadow = Some((
                parquake_math::Vec3::new(1.0, 2.0, 3.0),
                parquake_math::Vec3::ZERO,
                true,
            ));
            slot.events.push_back(parquake_protocol::GameEvent {
                kind: parquake_protocol::GameEventKind::Sound,
                a: 1,
                b: 2,
                pos: parquake_math::Vec3::ZERO,
            });
        }
        {
            let slot = s.clients.slot(20);
            slot.state = SlotState::Pending;
            slot.client_id = 88;
            slot.reply_port = 11;
            slot.owner = 1;
        }
        let snaps = s.snapshot_slots();
        assert_eq!(snaps.len(), 2);

        // Diverge: drop one client, admit an impostor, and let the
        // live perturbation epoch advance past the checkpoint (a
        // collision bump after the snapshot), then restore.
        s.clients.slot(3).state = SlotState::Empty;
        s.clients.slot(3).input_perturb = 9;
        s.clients.slot(6).state = SlotState::Active;
        s.restore_slots(&snaps, 1_000);

        let slot = s.clients.slot(3);
        assert_eq!(slot.state, SlotState::Active);
        assert_eq!(slot.client_id, 77);
        assert_eq!(slot.reply_port, 9);
        assert_eq!(slot.desired_thread, 1);
        assert_eq!(slot.last_seq, 41);
        assert_eq!(slot.last_active, 1_000, "fresh inactivity window");
        assert!(slot.needs_ack, "restored Active slots re-ack");
        assert!(slot.events.is_empty(), "queued events are rebuilt");
        assert!(slot.baseline.is_empty(), "delta baseline reset");
        assert!(slot.predicts, "prediction opt-in survives restore");
        assert_eq!(slot.input_ack, 41);
        assert_eq!(
            slot.input_perturb, 10,
            "restore bumps the epoch past the LIVE pre-crash value, not \
             just the checkpoint's — a reissued epoch would re-arm the \
             client's oracle against the rewound world"
        );
        assert_eq!(slot.predict_shadow, None, "shadow re-seeds from reality");

        let pending = s.clients.slot(20);
        assert_eq!(pending.state, SlotState::Pending);
        assert!(!pending.needs_ack, "Pending acks on spawn, not restore");

        assert_eq!(s.clients.slot(6).state, SlotState::Empty, "impostor gone");
    }

    /// One scripted session against a `ServerShared`, run as the only
    /// task of a virtual fabric. Messages go through `handle_message`
    /// on the thread the script names; `tick` is the world phase that
    /// spawns Pending slots and frees leavers.
    struct Session<'a> {
        s: &'a ServerShared,
        ctx: &'a TaskCtx,
        stats: ThreadStats,
        frame: u32,
    }

    impl Session<'_> {
        fn handle(&mut self, thread: u32, msg: ClientMessage) -> bool {
            // Each client's reply port is its id: distinct endpoints.
            let from = match msg {
                ClientMessage::Connect { client_id, .. }
                | ClientMessage::Move { client_id, .. }
                | ClientMessage::Disconnect { client_id } => client_id,
            };
            self.s.handle_message(
                self.ctx,
                self.ctx.now(),
                thread,
                from,
                msg,
                &mut self.stats,
                &mut 0,
            )
        }

        fn connect(&mut self, thread: u32, client_id: u32) {
            self.handle(
                thread,
                ClientMessage::Connect {
                    client_id,
                    arena: 0,
                },
            );
            self.tick();
        }

        fn disconnect(&mut self, thread: u32, client_id: u32) {
            self.handle(thread, ClientMessage::Disconnect { client_id });
            self.tick();
        }

        fn tick(&mut self) {
            self.frame += 1;
            let port = self.s.ports[0];
            self.s
                .run_world_update(self.ctx, port, &mut self.stats, self.frame);
        }

        /// Send `client_id` a move that turns its player to `yaw`, on
        /// `thread`. Returns whether a move executed.
        fn turn(&mut self, thread: u32, client_id: u32, seq: u32, yaw: f32) -> bool {
            let cmd = parquake_protocol::MoveCmd {
                yaw,
                ..parquake_protocol::MoveCmd::idle(seq, 30)
            };
            self.handle(thread, ClientMessage::Move { client_id, cmd })
        }

        fn slot_of(&self, client_id: u32) -> usize {
            (0..self.s.clients.capacity())
                .find(|&i| {
                    let slot = self.s.clients.slot(i);
                    slot.state == SlotState::Active && slot.client_id == client_id
                })
                .expect("client holds an Active slot")
        }

        fn yaw_of(&self, slot: usize) -> f32 {
            self.s.world.store.snapshot(slot as u16).yaw
        }

        fn hint_of(&self, client_id: u32) -> &AtomicU32 {
            &self.s.route_hint[client_id as usize & (self.s.route_hint.len() - 1)]
        }
    }

    fn in_session(
        assignment: Assignment,
        threads: u32,
        script: impl FnOnce(&mut Session<'_>) + Send + 'static,
    ) {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(1).generate());
        let world = Arc::new(GameWorld::new(map, 4, 32));
        let cfg = ServerConfig {
            assignment,
            ..ServerConfig::new(ServerKind::Sequential, 1_000_000_000)
        };
        let s = ServerShared::new(&fabric, &cfg, world, threads, None);
        fabric.spawn(
            "session",
            Some(0),
            Box::new(move |ctx: &TaskCtx| {
                let mut session = Session {
                    s: &s,
                    ctx,
                    stats: ThreadStats::new(),
                    frame: 0,
                };
                script(&mut session);
            }),
        );
        // A failed assertion in the script panics out of `run`.
        fabric.run();
    }

    const A: u32 = 100;
    const B: u32 = 200;

    /// A's hint goes stale in the worst way — the slot it names is
    /// Active again, for somebody else — and must not be believed.
    #[test]
    fn a_move_follows_its_client_into_a_new_slot_not_the_hint_into_the_old_one() {
        in_session(Assignment::Static, 1, |t| {
            t.connect(0, A);
            let old = t.slot_of(A);
            assert!(t.turn(0, A, 1, 10.0));
            assert_eq!(t.yaw_of(old), 10.0);
            assert_eq!(t.hint_of(A).load(Ordering::Relaxed) as usize, old);

            t.disconnect(0, A);
            assert!(!t.turn(0, A, 2, 20.0), "nobody plays as A now");
            t.connect(0, B);
            assert_eq!(t.slot_of(B), old, "B is admitted into A's old slot");
            t.connect(0, A);
            let new = t.slot_of(A);
            assert_ne!(new, old);

            let b_yaw = t.yaw_of(old);
            assert!(t.turn(0, A, 3, 30.0));
            assert_eq!(t.yaw_of(new), 30.0, "A's move ran on A's new entity");
            assert_eq!(t.yaw_of(old), b_yaw, "and left B's alone");
            assert_eq!(t.s.clients.slot(new).last_seq, 3);
            assert_ne!(t.s.clients.slot(old).last_seq, 3);
            assert_eq!(t.hint_of(A).load(Ordering::Relaxed) as usize, new);

            assert!(t.turn(0, B, 4, 40.0));
            assert_eq!(t.yaw_of(old), 40.0, "B's move ran on B's entity");
            assert_eq!(t.yaw_of(new), 30.0);
        });
    }

    /// Under region-affine assignment a steered client's moves arrive
    /// on another thread than the one that admitted it; the hint is
    /// shared by the threads and checked by each.
    #[test]
    fn a_steered_clients_move_is_routed_by_whichever_thread_receives_it() {
        in_session(Assignment::RegionAffine { period_frames: 0 }, 2, |t| {
            t.connect(0, A);
            let old = t.slot_of(A);
            assert!(t.s.own_slots(0).contains(&old));
            assert!(t.turn(0, A, 1, 10.0));
            assert_eq!(t.s.clients.slot(old).owner, 0);
            // The steer: A's replies name thread 1, its moves go there.
            t.s.clients.slot(old).desired_thread = 1;
            assert!(t.turn(1, A, 2, 20.0));
            assert_eq!(t.yaw_of(old), 20.0);
            assert_eq!(t.s.clients.slot(old).owner, 1);

            t.disconnect(1, A);
            t.connect(0, B);
            assert_eq!(t.slot_of(B), old);
            t.connect(1, A);
            let new = t.slot_of(A);
            assert!(t.s.own_slots(1).contains(&new), "admitted by thread 1");
            // Steered back: thread 0 receives A's move, holding a hint
            // that names B's slot in its own home block.
            assert!(t.turn(0, A, 3, 30.0));
            assert_eq!(t.yaw_of(new), 30.0);
            assert_eq!(t.s.clients.slot(new).owner, 0);
            assert_ne!(t.yaw_of(old), 30.0);
            assert!(t.turn(1, B, 4, 40.0));
            assert_eq!(t.yaw_of(old), 40.0);
            assert_eq!(t.yaw_of(new), 30.0);
        });
    }

    #[test]
    fn a_hint_naming_an_empty_or_pending_slot_falls_back_to_the_scan() {
        in_session(Assignment::Static, 2, |t| {
            t.connect(0, B);
            t.connect(0, A);
            let slot = t.slot_of(A);
            assert_eq!(slot, 1);

            // Empty, and out of thread 0's home block besides.
            for stale in [5, 20] {
                assert_eq!(t.s.clients.slot(stale).state, SlotState::Empty);
                t.hint_of(A).store(stale as u32, Ordering::Relaxed);
                assert!(t.turn(0, A, stale as u32, stale as f32));
                assert_eq!(t.yaw_of(slot), stale as f32);
                assert_eq!(t.hint_of(A).load(Ordering::Relaxed) as usize, slot);
            }

            // Pending: a Connect the world phase has not spawned yet,
            // wearing A's id in a slot of its own.
            let pending = t.s.clients.slot(2);
            pending.state = SlotState::Pending;
            pending.client_id = A;
            t.hint_of(A).store(2, Ordering::Relaxed);
            assert!(t.turn(0, A, 30, 33.0));
            assert_eq!(t.yaw_of(slot), 33.0);
            assert_eq!(t.s.clients.slot(2).last_seq, 0);

            // A table index past the last slot is no slot at all.
            t.hint_of(A).store(63, Ordering::Relaxed);
            assert!(t.turn(0, A, 31, 34.0));
            assert_eq!(t.yaw_of(slot), 34.0);
        });
    }

    #[test]
    fn own_slots_handles_uneven_division() {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(1).generate());
        let world = Arc::new(GameWorld::new(map, 4, 10));
        let cfg = ServerConfig::new(ServerKind::Sequential, 1);
        let s = ServerShared::new(&fabric, &cfg, world, 3, None);
        let total: usize = (0..3).map(|t| s.own_slots(t).len()).sum();
        assert_eq!(total, 10);
        assert_eq!(s.own_slots(0), 0..4);
        assert_eq!(s.own_slots(2), 8..10);
    }
}
