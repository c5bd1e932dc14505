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
use parquake_protocol::{ClientMessage, Decode, Encode, GameEvent, ServerMessage};
use parquake_sim::worldphase::run_world_phase;
use parquake_sim::{GameWorld, WorkCounters};

use crate::clients::{ClientTable, EventLog, Slot, SlotState};
use crate::cost::CostModel;
use crate::exec::{execute_move_at, ExecEnv, RegionLocks};
use crate::lifecycle::LifecycleEvent;
use crate::visibility_reply::{reply_view, ReplyScratch};
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
    /// The broadcast event log, whose current frame is the global state
    /// buffer (paper §3.3): appended during the world and request
    /// phases and ended at frame end, under `locks.global_lock`; read
    /// without it in the reply phase, when nobody writes it, and by the
    /// master or a quiescent context to place a joining session's
    /// cursor.
    events: UnsafeCell<EventLog>,
    /// World-phase RNG; only the frame master touches it.
    rng: UnsafeCell<Pcg32>,
    /// Time of the previous world update (master-only).
    last_world: UnsafeCell<Nanos>,
    /// The entity index, kept across frames and refreshed by whichever
    /// thread builds the frame's index (the single thread, or the
    /// parallel server's barrier releaser while every peer is parked).
    /// Empty while a refresh runs, so a refresh that panics leaves
    /// nothing behind and the next frame builds from scratch.
    entity_index: UnsafeCell<Option<Arc<EntityIndex>>>,
    /// Where each client's last `Move` was routed: slot index by
    /// `client_id` modulo the table size (a power of two). Only ever a
    /// hint — `slot_for_move` checks the slot it names before using it —
    /// so entries are relaxed atomics that publish nothing, and two
    /// client ids sharing an entry merely cost each other the scan.
    route_hint: Box<[AtomicU32]>,
}

// SAFETY: interior state is guarded by the fabric global lock
// (events, whose readers rely on the phase protocol too) or by the
// single-master phase protocol (rng, last_world, entity_index).
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
            events: UnsafeCell::new(EventLog::default()),
            rng: UnsafeCell::new(Pcg32::new(0x5EB0_0715, 99)),
            last_world: UnsafeCell::new(0),
            entity_index: UnsafeCell::new(None),
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
    pub fn push_global_events(&self, ctx: &TaskCtx, events: &[GameEvent]) {
        if events.is_empty() {
            return;
        }
        self.locks.acquire_global(ctx);
        // SAFETY: global_lock held.
        unsafe { (*self.events.get()).append(events) };
        self.locks.release_global(ctx);
    }

    /// Snapshot the global buffer: this frame's events (reply phase).
    pub fn read_global_events(&self, ctx: &TaskCtx, _stats: &mut ThreadStats) -> Vec<GameEvent> {
        self.locks.acquire_global(ctx);
        // SAFETY: global_lock held.
        let copy = unsafe { (*self.events.get()).frame().to_vec() };
        self.locks.release_global(ctx);
        copy
    }

    /// Clear the global buffer: end the log's frame (frame end, master
    /// only, under lock).
    pub fn clear_global_events(&self, ctx: &TaskCtx, _stats: &mut ThreadStats) {
        self.locks.acquire_global(ctx);
        // SAFETY: global_lock held.
        unsafe { (*self.events.get()).end_frame() };
        self.locks.release_global(ctx);
    }

    /// Point slot `idx`'s event cursor at the current frame's first
    /// event. A session that becomes Active or is reinstated during a
    /// frame is owed every event of that frame, those appended before
    /// it joined included. Frame master or quiescent contexts only.
    fn join_frame_events(&self, idx: usize) {
        // SAFETY: the master's world phase and quiescent contexts run
        // while no thread appends to the log or ends its frame.
        let start = unsafe { (*self.events.get()).frame_start() };
        self.clients.slot(idx).event_cursor = start;
    }

    /// The events slot `idx`'s reply carries, in wire form: the log's
    /// window at the slot's cursor, which moves past them. The slot's
    /// owner, reply phase.
    fn take_events(&self, idx: usize) -> &[u8] {
        // SAFETY: nobody appends to the log or ends its frame while a
        // reply phase runs, so shared reads are sound.
        let log = unsafe { &*self.events.get() };
        let slot = self.clients.slot(idx);
        let (run, next) = log.window(slot.event_cursor);
        slot.event_cursor = next;
        run
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
                SlotState::Pending | SlotState::Active if slot.leaving => {
                    // A Disconnect met the slot. A Pending one is
                    // vacated before it ever spawns: its Connect and
                    // Disconnect shared one drain, and the director
                    // heard `Connected` for it.
                    let client_id = slot.client_id;
                    self.evict(idx);
                    self.notify(
                        ctx,
                        port,
                        LifecycleEvent::Disconnected {
                            arena: self.arena_id,
                            client_id,
                        },
                    );
                }
                SlotState::Pending => {
                    self.world.spawn_player(idx as u16, slot.client_id, rng);
                    slot.state = SlotState::Active;
                    slot.needs_ack = true;
                    slot.last_active = now;
                    self.join_frame_events(idx);
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
                    self.evict(idx);
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
        self.push_global_events(ctx, &events);
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
                if let Some(idx) = self.clients.find(client_id) {
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
                if let Some(idx) = self.clients.first_empty(self.own_slots(thread)) {
                    let slot = self.clients.slot(idx);
                    slot.vacate();
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
                if let Some(idx) = self.clients.find(client_id) {
                    self.clients.slot(idx).leaving = true;
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
                self.push_global_events(ctx, &outcome.events);
                // Slot bookkeeping: under dynamic assignment two
                // threads can transiently process one client's
                // moves in the same frame (port switch window),
                // so serialize on the slot's buffer lock.
                let dynamic = self.dynamic_assignment();
                if dynamic {
                    self.locks.acquire_client(ctx, idx);
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

    /// The receive half of the Rx/E loop: take each datagram queued on
    /// `port`, charge and count it, decode it, and hand the request to
    /// `each` with its receive time before the next one is taken.
    /// Malformed datagrams are dropped, like the original server — but
    /// counted, so the gateway's accounting identity can close.
    pub fn receive_requests(
        &self,
        ctx: &TaskCtx,
        port: PortId,
        stats: &mut ThreadStats,
        mut each: impl FnMut(&mut ThreadStats, Nanos, PortId, ClientMessage),
    ) {
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
                Ok(msg) => each(stats, received, raw.from, msg),
                Err(_) => stats.decode_rejected += 1,
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
        self.receive_requests(ctx, port, stats, |stats, received, from, msg| {
            if self.handle_message(ctx, received, thread, from, msg, stats, frame_leaf_mask) {
                moves += 1;
            }
        });
        moves
    }

    /// One complete frame of a single-threaded runtime (paper §2.1):
    /// world update, `drain` the request queue (it returns the moves
    /// processed), reply to everyone who sent a request, then the
    /// per-frame bookkeeping. The sequential server and the pooled
    /// arena frame are this one body.
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
    /// idle time, run one frame. The sequential server's whole life.
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

    /// Bring the shared entity index up to date for this frame's batch
    /// interest sweep, charging the refresh to the calling thread.
    /// Returns `None` under [`InterestMode::Scan`], and when no client
    /// is owed a reply this frame (connect-only, ack-only and
    /// maintenance frames): nothing would read the index. Must run
    /// *after* the request phase (positions quiescent, and every slot's
    /// request count final — in the parallel server the caller
    /// releases the intra-frame barrier, so every other thread is
    /// parked) and before any reply is built. The caller should drop
    /// the returned index before the next frame's call, or the refresh
    /// copies it first. Under [`InterestMode::SweepOracle`] the refresh
    /// is compared with an uncharged from-scratch build.
    pub fn build_interest_index(
        &self,
        ctx: &TaskCtx,
        istats: &mut InterestStats,
    ) -> Option<Arc<EntityIndex>> {
        let owed = || (0..self.clients.capacity()).any(|idx| self.is_viewer(idx));
        if !self.interest.uses_sweep() || !owed() {
            return None;
        }
        // SAFETY: one thread at a time builds a frame's index (see the
        // field), and the cell is not borrowed past this call.
        let cell = unsafe { &mut *self.entity_index.get() };
        let mut index = cell.take().unwrap_or_default();
        let mut work = WorkCounters::new();
        Arc::make_mut(&mut index).refresh(&self.world, &mut work);
        ctx.charge(self.cost.work_ns(&work));
        istats.frames += 1;
        if self.interest.oracle() {
            let fresh = EntityIndex::build(&self.world, &mut WorkCounters::new());
            if *index != fresh {
                istats.index_mismatches += 1;
            }
        }
        *cell = Some(Arc::clone(&index));
        Some(index)
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

    /// The reply phase for `slots`: send acks, and replies
    /// to the slots that sent a request, each encoded once straight
    /// into its datagram with its window of the event log. `global` is
    /// this frame's global state buffer (`read_global_events`); the
    /// paper's server copies it into every Active slot's message buffer
    /// here, and that copy's modelled cost is charged per Active slot
    /// though no copy is made. `send_replies: false` charges only —
    /// the master's pass over slots of threads outside the frame.
    /// `frame` is the server frame number. `interest` carries this
    /// frame's precomputed interest sets (the sweep modes); `None`
    /// scans per client.
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
        let mut scratch = ReplyScratch::default();
        for &idx in slots {
            let slot_state = self.clients.slot(idx).state;
            if slot_state != SlotState::Active {
                continue;
            }
            if !global.is_empty() {
                ctx.charge(self.cost.event_append * global.len() as u64);
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
            let events = self.take_events(idx);
            let slot = self.clients.slot(idx);
            let steer = slot.desired_thread.min(u8::MAX as u32) as u8;
            let mut work = WorkCounters::new();
            let reply = reply_view(
                &self.world,
                idx as u16,
                slot,
                frame,
                steer,
                self.delta_compression,
                events,
                pre,
                &mut scratch,
                &mut work,
            );
            stats.reply_sizes.note(reply.entities.len());
            let bytes = reply.to_bytes();
            ctx.charge(
                self.cost.work_ns(&work)
                    + self.cost.reply_base
                    + self.cost.reply_byte * bytes.len() as u64,
            );
            ctx.send(port, slot.reply_port, bytes);
            slot.requests_this_frame = 0;
            stats.replies += 1;
        }
    }

    /// The capsule of every occupied slot, for a supervisor checkpoint.
    /// Quiescent contexts only (between frames, under the pool claim)
    /// — same contract as the world snapshot.
    pub fn snapshot_slots(&self) -> Vec<SlotSnapshot> {
        (0..self.clients.capacity())
            .filter(|&idx| self.clients.slot(idx).state != SlotState::Empty)
            .map(|idx| SlotSnapshot::of(idx, self.clients.slot(idx)))
            .collect()
    }

    /// Rebuild the slot table from a checkpoint: every slot a capsule
    /// names is [reinstated](ServerShared::reinstate) from it, every
    /// other slot is vacated. Quiescent contexts only.
    pub fn restore_slots(&self, snaps: &[SlotSnapshot], now: Nanos) {
        for idx in 0..self.clients.capacity() {
            match snaps.iter().find(|snap| snap.idx as usize == idx) {
                Some(snap) => self.reinstate(idx, snap, now),
                None => self.clients.slot(idx).vacate(),
            }
        }
    }

    /// Install a session capsule in slot `idx`: the one transition both
    /// a checkpoint restore and a live migration use. The slot is
    /// vacated, so the session arrives with an empty delta baseline
    /// (the next reply carries full state, since the client's acked
    /// view may postdate the capsule), then takes the capsule's
    /// identity, and:
    ///
    /// * its event cursor at the current frame's first event, as for a
    ///   session the world phase activates: it is owed the frame's
    ///   events, never earlier ones,
    /// * `last_active = now` — a fresh inactivity window instead of the
    ///   silence before the crash or the fence,
    /// * `needs_ack` for an Active session — the unsolicited ConnectAck
    ///   re-synchronizes the client and tells it its arena restarted or
    ///   changed,
    /// * the perturbation epoch moves past both the capsule's and the
    ///   slot's live value. The session's world state is not what pure
    ///   input replay from the client's ring would produce, so the
    ///   client's divergence oracle must stand down until it re-adopts
    ///   server state; and the live value may be ahead of the capsule
    ///   (a restored arena's slot kept counting after its checkpoint),
    ///   so an epoch the client already adopted is never reissued. The
    ///   shadow re-seeds from the authoritative state on the next
    ///   trailered move.
    ///
    /// Quiescent contexts only (the caller holds the arena's claim).
    pub fn reinstate(&self, idx: usize, snap: &SlotSnapshot, now: Nanos) {
        let s = self.clients.slot(idx);
        let live_perturb = s.input_perturb;
        s.vacate();
        s.state = snap.state;
        s.client_id = snap.client_id;
        s.reply_port = snap.reply_port;
        s.owner = snap.owner;
        s.desired_thread = snap.desired_thread;
        s.leaving = snap.leaving;
        s.last_seq = snap.last_seq;
        s.predicts = snap.predicts;
        s.input_ack = snap.input_ack;
        s.input_perturb = snap.input_perturb.max(live_perturb).wrapping_add(1);
        s.last_active = now;
        s.needs_ack = snap.state == SlotState::Active;
        self.join_frame_events(idx);
    }

    /// End the session in slot `idx`: despawn its player (a Pending
    /// slot's never spawned) and vacate the slot. It sends nothing; a
    /// caller that owes the client a `Bye` or the director a notice
    /// sends it. Frame master or quiescent contexts only.
    pub fn evict(&self, idx: usize) {
        self.world.despawn_player(idx as u16);
        self.clients.slot(idx).vacate();
    }
}

/// The capsule of one slot's session: what a checkpoint stores and a
/// live migration carries, installed by [`ServerShared::reinstate`].
/// Per-session scratch (event cursor, delta baseline, per-frame
/// counters, the prediction shadow) is deliberately absent: it is
/// rebuilt once the session is reinstated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index in the client table the capsule was taken from.
    pub idx: u32,
    pub state: SlotState,
    pub client_id: u32,
    pub reply_port: PortId,
    pub owner: u32,
    pub desired_thread: u32,
    /// A drained `Disconnect`: the first world phase after the
    /// reinstate vacates the slot and sends the `Disconnected` notice.
    pub leaving: bool,
    pub last_seq: u32,
    /// Prediction opt-in and input ack travel; `reinstate` moves the
    /// perturbation epoch past this one.
    pub predicts: bool,
    pub input_ack: u32,
    pub input_perturb: u32,
}

impl SlotSnapshot {
    /// The capsule of `slot`, found at index `idx`. Every field of
    /// [`Slot`] is named here, so a new one does not compile until its
    /// author says whether a restore or a migration carries it.
    pub fn of(idx: usize, slot: &Slot) -> SlotSnapshot {
        let Slot {
            state,
            client_id,
            reply_port,
            owner,
            desired_thread,
            // Re-derived: an Active session re-acks.
            needs_ack: _,
            leaving,
            // Per-frame scratch, zero between frames.
            requests_this_frame: _,
            last_seq,
            // Read only by the reply to a Move, which rewrites it first.
            last_sent_at: _,
            // Restarted at the reinstate.
            last_active: _,
            // At the frame start of the landing server's log.
            event_cursor: _,
            baseline: _,
            in_view: _,
            predicts,
            input_ack,
            input_perturb,
            predict_shadow: _,
        } = *slot;
        SlotSnapshot {
            idx: idx as u32,
            state,
            client_id,
            reply_port,
            owner,
            desired_thread,
            leaving,
            last_seq,
            predicts,
            input_ack,
            input_perturb,
        }
    }

    /// Whether a migration may move this session: it is in the game,
    /// with no `Disconnect` pending. A leaving session stays for its
    /// own arena's next world phase, which vacates it and sends the
    /// `Disconnected` notice that ends its booking.
    pub fn movable(&self) -> bool {
        self.state == SlotState::Active && !self.leaving
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::MAX_PENDING_EVENTS;
    use crate::visibility_reply::build_reply;
    use crate::ServerKind;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_fabric::FabricKind;
    use parquake_protocol::MAX_EVENTS_PER_REPLY;
    use proptest::prelude::*;

    fn shared(threads: u32) -> (Arc<dyn Fabric>, ServerShared) {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(1).generate());
        let world = Arc::new(GameWorld::new(map, 4, 32));
        let cfg = ServerConfig::new(ServerKind::Sequential, 1_000_000_000);
        let s = ServerShared::new(&fabric, &cfg, world, threads, None);
        (fabric, s)
    }

    /// The server's event log, as its frame master or a quiescent
    /// context sees it.
    #[allow(clippy::mut_from_ref)]
    fn log_of(s: &ServerShared) -> &mut EventLog {
        // SAFETY: the tests touch a server from one thread at a time.
        unsafe { &mut *s.events.get() }
    }

    fn sound(a: u16) -> GameEvent {
        GameEvent {
            kind: parquake_protocol::GameEventKind::Sound,
            a,
            b: 0,
            pos: parquake_math::Vec3::ZERO,
        }
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
            slot.event_cursor = 99;
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
        // The restore lands mid-frame: three events of an earlier
        // frame, two of this one.
        log_of(&s).append(&[sound(1); 3]);
        log_of(&s).end_frame();
        log_of(&s).append(&[sound(2); 2]);
        s.restore_slots(&snaps, 1_000);

        let slot = s.clients.slot(3);
        assert_eq!(slot.state, SlotState::Active);
        assert_eq!(slot.client_id, 77);
        assert_eq!(slot.reply_port, 9);
        assert_eq!(slot.desired_thread, 1);
        assert_eq!(slot.last_seq, 41);
        assert_eq!(slot.last_active, 1_000, "fresh inactivity window");
        assert!(slot.needs_ack, "restored Active slots re-ack");
        assert_eq!(slot.event_cursor, 3, "owed this frame's events, no more");
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

    /// What one random slot holds: its state, eight counters and ids,
    /// three flags, two clocks, its event cursor, baseline entries and
    /// whether it has a prediction shadow.
    type SlotFields = (SlotState, [u32; 8], [bool; 3], [u64; 2], (u64, usize, bool));

    fn slot_fields() -> impl Strategy<Value = SlotFields> {
        let u = any::<u32>;
        (
            prop_oneof![
                Just(SlotState::Empty),
                Just(SlotState::Pending),
                Just(SlotState::Active)
            ],
            (u(), u(), u(), u(), u(), u(), u(), u())
                .prop_map(|(a, b, c, d, e, f, g, h)| [a, b, c, d, e, f, g, h]),
            (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(a, b, c)| [a, b, c]),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| [a, b]),
            (0u64..400, 0usize..4, any::<bool>()),
        )
    }

    fn fill(slot: &mut Slot, f: &SlotFields) {
        let &(state, [id, port, owner, desired, requests, seq, ack, perturb], flags, clocks, more) =
            f;
        let [needs_ack, leaving, predicts] = flags;
        let (event_cursor, baseline, shadow) = more;
        slot.vacate();
        *slot = Slot {
            state,
            client_id: id,
            reply_port: port,
            owner,
            desired_thread: desired,
            needs_ack,
            leaving,
            requests_this_frame: requests,
            last_seq: seq,
            last_sent_at: clocks[0],
            last_active: clocks[1],
            event_cursor,
            baseline: (0..baseline)
                .map(|id| parquake_protocol::EntityUpdate {
                    id: id as u16,
                    kind: parquake_protocol::EntityKind::Player,
                    state: 0,
                    pos: parquake_math::Vec3::ZERO,
                    yaw: 0.0,
                })
                .collect(),
            in_view: vec![true; baseline],
            predicts,
            input_ack: ack,
            input_perturb: perturb,
            predict_shadow: shadow.then_some((
                parquake_math::Vec3::new(1.0, 2.0, 3.0),
                parquake_math::Vec3::ZERO,
                true,
            )),
        };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A capsule taken from any slot and reinstated over any other
        /// keeps the session's identity, starts its per-session scratch
        /// afresh and moves the perturbation epoch past both the
        /// capsule's and the landing slot's.
        #[test]
        fn a_reinstated_capsule_keeps_the_identity_and_drops_the_scratch(
            src in slot_fields(),
            live in slot_fields(),
            (from, to) in (0usize..32, 1usize..32).prop_map(|(from, gap)| (from, (from + gap) % 32)),
            now in any::<Nanos>(),
            (earlier, this_frame) in (0usize..300, 0usize..300),
        ) {
            static SHARED: std::sync::OnceLock<(Arc<dyn Fabric>, ServerShared)> =
                std::sync::OnceLock::new();
            let (_f, s) = SHARED.get_or_init(|| shared(1));
            // The capsule lands after `this_frame` events of the
            // current frame were appended.
            let log = log_of(s);
            *log = EventLog::default();
            log.append(&vec![sound(1); earlier]);
            log.end_frame();
            log.append(&vec![sound(2); this_frame]);
            fill(s.clients.slot(from), &src);
            fill(s.clients.slot(to), &live);
            let capsule = SlotSnapshot::of(from, s.clients.slot(from));
            prop_assert_eq!(capsule.idx as usize, from);
            s.reinstate(to, &capsule, now);

            let (want, got) = (s.clients.slot(from), s.clients.slot(to));
            prop_assert_eq!(
                (got.state, got.client_id, got.reply_port, got.owner, got.desired_thread),
                (want.state, want.client_id, want.reply_port, want.owner, want.desired_thread)
            );
            prop_assert_eq!(
                (got.leaving, got.last_seq, got.predicts, got.input_ack),
                (want.leaving, want.last_seq, want.predicts, want.input_ack)
            );
            prop_assert_eq!(got.last_active, now);
            prop_assert_eq!(got.needs_ack, want.state == SlotState::Active);
            prop_assert_eq!(got.event_cursor, earlier as u64);
            prop_assert!(got.baseline.is_empty());
            prop_assert_eq!((got.requests_this_frame, got.last_sent_at), (0, 0));
            prop_assert_eq!(got.predict_shadow, None);
            let past_both = want.input_perturb.max(live.1[7]).wrapping_add(1);
            prop_assert_eq!(got.input_perturb, past_both);
        }
    }

    /// One step of a frame's world and request phases, as the event log
    /// sees it.
    #[derive(Clone, Copy, Debug)]
    enum LogStep {
        /// A phase appends this many events.
        Push(usize),
        /// The world phase activates the slot (its Connect was drained
        /// the frame before).
        Activate(usize),
        /// A migrated or restored session's capsule lands on the slot.
        Reinstate(usize),
        /// The world phase evicts the slot's session.
        Vacate(usize),
    }

    /// Slots the log property test drives.
    const LOG_SLOTS: usize = 6;

    fn log_step() -> impl Strategy<Value = LogStep> {
        prop_oneof![
            (0usize..40).prop_map(LogStep::Push),
            (100usize..300).prop_map(LogStep::Push),
            (0..LOG_SLOTS).prop_map(LogStep::Activate),
            (0..LOG_SLOTS).prop_map(LogStep::Reinstate),
            (0..LOG_SLOTS).prop_map(LogStep::Vacate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 1024 }))]

        /// Every reply reads from the one log exactly the events the
        /// per-slot queue it replaced would have handed it: each Active
        /// slot queued the whole frame's batch in the reply phase,
        /// capped at `MAX_PENDING_EVENTS` by dropping the oldest, and a
        /// reply took up to `MAX_EVENTS_PER_REPLY` from the front. Slots
        /// activate, are reinstated and are vacated between a frame's
        /// appends; batches run past the cap; which Active slots reply
        /// is random, so a reply carries 0–32 events.
        #[test]
        fn replies_read_the_log_as_they_read_the_bounded_queue(
            frames in prop::collection::vec(
                (prop::collection::vec(log_step(), 0..8), any::<u8>()),
                1..14,
            ),
        ) {
            static SHARED: std::sync::OnceLock<(Arc<dyn Fabric>, ServerShared)> =
                std::sync::OnceLock::new();
            let (_f, s) = SHARED.get_or_init(|| shared(1));
            *log_of(s) = EventLog::default();
            for idx in 0..LOG_SLOTS {
                s.clients.slot(idx).vacate();
            }
            let mut queues: Vec<Option<Vec<GameEvent>>> = vec![None; LOG_SLOTS];
            let mut next = 0u32;
            for (steps, replies) in frames {
                let mut batch = Vec::new();
                for step in steps {
                    match step {
                        LogStep::Push(n) => {
                            let events: Vec<GameEvent> = (0..n)
                                .map(|_| {
                                    next += 1;
                                    GameEvent { b: (next >> 16) as u16, ..sound(next as u16) }
                                })
                                .collect();
                            log_of(s).append(&events);
                            batch.extend(events);
                        }
                        LogStep::Activate(idx) if queues[idx].is_none() => {
                            // `run_world_update`'s Pending → Active.
                            s.clients.slot(idx).state = SlotState::Active;
                            s.join_frame_events(idx);
                            queues[idx] = Some(Vec::new());
                        }
                        LogStep::Activate(_) => {}
                        LogStep::Reinstate(idx) => {
                            let capsule = SlotSnapshot {
                                state: SlotState::Active,
                                ..SlotSnapshot::of(idx, s.clients.slot(idx))
                            };
                            s.reinstate(idx, &capsule, 0);
                            queues[idx] = Some(Vec::new());
                        }
                        LogStep::Vacate(idx) => {
                            s.clients.slot(idx).vacate();
                            queues[idx] = None;
                        }
                    }
                }
                for (idx, queue) in queues.iter_mut().enumerate() {
                    let Some(queue) = queue else { continue };
                    for &ev in &batch {
                        if queue.len() >= MAX_PENDING_EVENTS {
                            queue.remove(0);
                        }
                        queue.push(ev);
                    }
                    if replies & (1 << idx) != 0 {
                        let take = queue.len().min(MAX_EVENTS_PER_REPLY);
                        let want: Vec<u8> = queue.drain(..take).flat_map(|e| e.wire()).collect();
                        prop_assert_eq!(s.take_events(idx), &want[..], "slot {}", idx);
                    }
                }
                log_of(s).end_frame();
            }
        }
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

        /// [`Session::turn`] from a predicting client: the move carries
        /// the input-seq trailer.
        fn predicted_turn(&mut self, thread: u32, client_id: u32, seq: u32, yaw: f32) -> bool {
            let cmd = parquake_protocol::MoveCmd {
                yaw,
                predict_ack: Some(0),
                ..parquake_protocol::MoveCmd::idle(seq, 30)
            };
            self.handle(thread, ClientMessage::Move { client_id, cmd })
        }

        /// The reply `client_id` would get now: entity updates (deltas
        /// against its baseline when `delta`), seq echo and trailer.
        fn reply_to(&mut self, client_id: u32, delta: bool) -> ServerMessage {
            let idx = self.slot_of(client_id);
            let mut work = WorkCounters::new();
            let slot = self.s.clients.slot(idx);
            build_reply(
                &self.s.world,
                idx as u16,
                slot,
                self.frame,
                0,
                delta,
                Vec::new(),
                None,
                &mut work,
            )
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
        let cfg = ServerConfig {
            assignment,
            ..ServerConfig::new(ServerKind::Sequential, 1_000_000_000)
        };
        in_session_with(cfg, threads, script);
    }

    fn in_session_with(
        cfg: ServerConfig,
        threads: u32,
        script: impl FnOnce(&mut Session<'_>) + Send + 'static,
    ) {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(1).generate());
        let world = Arc::new(GameWorld::new(map, 4, 32));
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

    /// A vacated slot keeps nothing of its last client: B, admitted
    /// into the slot A predicted in up to seq 50, starts its own input
    /// sequence at 1 — and that move executes instead of counting as a
    /// duplicate of A's.
    #[test]
    fn a_predicting_newcomer_in_a_reused_slot_starts_its_own_sequence() {
        in_session(Assignment::Static, 1, |t| {
            t.connect(0, A);
            let old = t.slot_of(A);
            for seq in 1..=50 {
                assert!(t.predicted_turn(0, A, seq, seq as f32));
            }
            t.disconnect(0, A);
            t.connect(0, B);
            assert_eq!(t.slot_of(B), old, "B is admitted into A's old slot");
            assert!(t.predicted_turn(0, B, 1, 90.0), "B's first move executes");
            assert_eq!(t.yaw_of(old), 90.0);
            assert_eq!(t.stats.inputs_deduped, 0);
            let slot = t.s.clients.slot(old);
            assert_eq!((slot.input_ack, slot.input_perturb), (1, 0));
        });
    }

    /// A delta-compressed client admitted into a reused slot must get
    /// its whole visible set in its first reply: the previous
    /// occupant's baseline would leave out every entity it had already
    /// seen unchanged.
    #[test]
    fn a_delta_client_in_a_reused_slot_gets_its_whole_view_first() {
        let cfg = ServerConfig {
            delta_compression: true,
            ..ServerConfig::new(ServerKind::Sequential, 1_000_000_000)
        };
        in_session_with(cfg, 1, |t| {
            const C: u32 = 300;
            t.connect(0, C);
            t.connect(0, A);
            let old = t.slot_of(A);
            assert!(t.turn(0, A, 1, 10.0));
            let ServerMessage::Reply { entities, .. } = t.reply_to(A, true) else {
                unreachable!()
            };
            assert!(!entities.is_empty(), "A sees something to baseline");
            t.disconnect(0, A);
            t.connect(0, B);
            assert_eq!(t.slot_of(B), old, "B is admitted into A's old slot");
            assert!(t.turn(0, B, 1, 20.0));
            let ServerMessage::Reply { entities: full, .. } = t.reply_to(B, false) else {
                unreachable!()
            };
            let ServerMessage::Reply { entities, seq, .. } = t.reply_to(B, true) else {
                unreachable!()
            };
            assert!(full.len() <= parquake_protocol::MAX_ADDITIONS_PER_REPLY);
            assert_eq!(entities, full, "B's first delta reply is its whole view");
            assert_eq!(seq, 1, "and echoes B's own seq");
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
