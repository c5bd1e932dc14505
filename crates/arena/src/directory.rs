//! The arena directory: N worlds, one front door, one worker pool.
//!
//! ```text
//!                       ┌────────────── directory ──────────────┐
//!  Connect ──► front ──►│ admission ──► arena k runtime (1..N)  │──► ConnectAck{arena:k}
//!  Move ─────────────────────────────► arena k request port     │──► Reply
//!                       │     shared pool: workers 0..W         │
//!                       │ lifecycle notices ──► control port ───│──► ledger
//!                       └───────────────────────────────────────┘
//! ```
//!
//! Two scheduling shapes, picked by the server template's `kind`:
//!
//! * **Pooled** (`Sequential`) — every arena is a single-threaded
//!   runtime (the paper's §2.1 frame body, verbatim); W workers pull
//!   *whole frames* from whichever arena has work. Every arena has one
//!   schedule record in the pool (`crate::pool`: its life, its claim,
//!   a pending migration fence, its pacing); the pool lock guards only
//!   those records — no worker ever holds it during a frame, and no
//!   worker ever touches two arenas at once, so the per-world locking
//!   discipline (and its witness) is untouched.
//! * **Dedicated** (`Parallel`) — every arena is a full `spawn_server`
//!   runtime with its own threads; assignment schemes and region
//!   locking run unchanged inside each arena. The directory only adds
//!   admission.
//!
//! The **director** task owns the front door. It never touches world
//! state: it decodes, places (stickily), and forwards the raw datagram
//! to the chosen arena *preserving the client's source port*, so the
//! arena replies straight to the client and the directory is off the
//! data path after admission.
//!
//! The director's population [`Ledger`] is kept truthful by
//! **lifecycle notices**: each arena runtime reports connect
//! accepts, disconnects, inactivity reclaims and rejects on a control
//! port the director drains between front-door batches. On that
//! corrected bookkeeping sits **elasticity** (pooled scheduling only):
//! `max_arenas` cells are pre-provisioned cold (the fabric requires all
//! allocation before `run()`), admission pressure *spawns* one, and a
//! live non-boot arena whose occupancy stays zero past `linger_ns` is
//! *reaped* — turned cold again, its `ServerResults` published.
//!
//! **Supervision** (off by default) hardens the pooled shape: every
//! claimed frame runs behind `catch_unwind` so a panic *crashes* only
//! its arena, workers checkpoint each arena's world and slot table
//! into a per-arena ring, a director-side watchdog *condemns* arenas
//! whose claimed frame overruns, and [`crate::supervisor`] restores
//! fated arenas from their last checkpoint and replays the ledger.
//! Sustained frame overruns degrade gracefully: the arena's effective
//! frame interval stretches and queued moves are coalesced per client
//! instead of dropped. Spawn, reap, crash, condemn and restore are
//! transitions of the schedule record; DESIGN.md §8 tabulates them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, PoisonError};

use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FrameFault, FrameLottery};
use parquake_fabric::{Fabric, Nanos, PortId, TaskCtx};
use parquake_metrics::{
    ElasticEvent, ElasticEventKind, ElasticStats, SupervisorStats, ThreadStats,
};
use parquake_protocol::{ClientMessage, Decode};
use parquake_server::runtime::{ServerShared, REQUEST_QUEUE_CAP};
use parquake_server::{
    spawn_server, LifecycleEvent, ServerConfig, ServerHandle, ServerKind, ServerResults,
};
use parquake_sim::GameWorld;

use crate::admission::{AdmissionPolicy, AdmissionStats};
use crate::checkpoint::Checkpoint;
use crate::ledger::{Departure, Ledger, Placement};
use crate::pool::{ArenaCell, ArenaGuard, Pool};

/// Configuration for [`spawn_directory`].
#[derive(Clone, Debug)]
pub struct ArenaDirectoryConfig {
    /// Number of worlds live at boot.
    pub arenas: u32,
    /// Player capacity of each world.
    pub slots_per_arena: u16,
    /// Connect routing policy.
    pub policy: AdmissionPolicy,
    /// Shared-pool worker tasks, for `server.kind` `Sequential`: every
    /// arena is a single-threaded runtime and `workers` pinned tasks
    /// execute whole frames of whichever arena has pending input.
    /// `Parallel { threads, .. }` instead gives each arena its own
    /// full server runtime on `threads` tasks and never reads this.
    pub workers: u32,
    /// Map generator settings (one compiled map, shared by every
    /// arena — separate entity state per arena).
    pub map: MapGenConfig,
    /// Areanode tree depth per arena.
    pub areanode_depth: u32,
    /// Server template: `kind` picks the scheduling shape (see
    /// `workers`); `end_time`, cost model, checking, timeouts are
    /// common to all arenas; `arena_id` and `lifecycle_port` are
    /// overwritten per arena.
    pub server: ServerConfig,
    /// Elasticity ceiling (pooled scheduling only): up to this many
    /// arenas may be live at once; cells beyond `arenas` start cold
    /// and are spawned under admission pressure. `0` (the default) and
    /// anything `<= arenas` mean a fixed fleet — exactly the old
    /// behaviour. Dedicated runtimes spawn real tasks at boot and
    /// cannot be grown: [`ArenaDirectoryConfig::validate`] refuses
    /// the combination.
    pub max_arenas: u32,
    /// How long a non-boot arena's occupancy must sit at zero before
    /// it is reaped.
    pub linger_ns: Nanos,
    /// Pooled arenas with resident sessions run a frame at least this
    /// often even with no input queued, so leave/timeout maintenance
    /// (despawns, `Bye`s, lifecycle notices) cannot stall waiting for
    /// traffic that will never come. `0` = automatic: maintenance runs
    /// at 50 ms when the directory is elastic or reclaims are on,
    /// and stays off otherwise.
    pub maintenance_ns: Nanos,
    /// Supervise arena frames (pooled scheduling): run each claimed
    /// frame behind `catch_unwind` so a panic fates only that arena,
    /// checkpoint periodically, watchdog stuck frames, and restore
    /// fated arenas from their last checkpoint with a ledger replay.
    /// `Some(f)` also deals every arena a seeded frame lottery drawn
    /// from `f` ([`parquake_fabric::fault::FrameLottery`]: panics
    /// and/or stuck stalls inside claimed frames);
    /// `Some(FaultConfig::none())` supervises without injecting.
    /// `None` (the default) is unsupervised.
    pub supervision: Option<FaultConfig>,
    /// Live rebalance (pooled scheduling only): when the occupancy
    /// spread between the hottest and coldest live arena reaches this
    /// many clients, the director migrates one slot off the hottest
    /// arena per rebalance tick (see [`crate::migrate`]). `0` (the
    /// default) disables spread rebalance. Values below 2 are clamped
    /// to 2 — moving a client across a spread of 1 just swaps which
    /// arena is hotter.
    pub migrate_spread: u32,
    /// Drain-before-reap (pooled + elastic only): a non-boot live
    /// arena whose whole population fits in the other live arenas'
    /// free capacity is emptied by migration, one slot per tick, so
    /// the linger reclaim reaps it instead of waiting for its clients
    /// to leave on their own.
    pub migrate_drain: bool,
    /// Mirror port for lifecycle notices: every notice the director
    /// drains — and every `Migrated` notice it emits — is also sent
    /// here, uncharged. The UDP gateway points this at its outbound
    /// pump so its session book follows reclaims and migrations.
    /// `None` (the default) = no mirror.
    pub lifecycle_tap: Option<PortId>,
}

impl ArenaDirectoryConfig {
    pub fn new(arenas: u32, slots_per_arena: u16, server: ServerConfig) -> ArenaDirectoryConfig {
        ArenaDirectoryConfig {
            arenas,
            slots_per_arena,
            policy: AdmissionPolicy::Explicit,
            workers: 4,
            map: MapGenConfig::large_arena(0x6D_6D_31),
            areanode_depth: 4,
            server,
            max_arenas: 0,
            linger_ns: 500_000_000,
            maintenance_ns: 0,
            supervision: None,
            migrate_spread: 0,
            migrate_drain: false,
            lifecycle_tap: None,
        }
    }

    /// Elasticity, supervision and live migration are driven through
    /// the pool's claim table; a `Parallel` template gives every arena
    /// dedicated threads instead, so asking for both is refused rather
    /// than silently dropped. So is a thread count a parallel arena
    /// cannot run: its per-frame participant mask is one `u64`. And so
    /// is a supervision lottery [`FaultConfig::validate`] refuses (a
    /// frame-fault rate outside `0.0..=1.0`).
    pub fn validate(&self) -> Result<(), String> {
        if let ServerKind::Parallel { threads, .. } = self.server.kind {
            if !(1..=64).contains(&threads) {
                return Err(
                    "threads must be 1..=64: a parallel arena tracks its frame's \
                     participants in one 64-bit mask"
                        .into(),
                );
            }
        }
        let pool_only = self.max_arenas > self.arenas
            || self.supervision.is_some()
            || self.migrate_spread > 0
            || self.migrate_drain;
        if pool_only && matches!(self.server.kind, ServerKind::Parallel { .. }) {
            return Err(
                "threads > 1 gives every arena dedicated threads; elasticity (max_arenas), \
                 supervision and live migration need the worker pool (threads 1)"
                    .into(),
            );
        }
        self.supervision
            .as_ref()
            .map_or(Ok(()), FaultConfig::validate)
    }
}

/// Per-pool accounting published when the last worker exits.
#[derive(Clone, Debug, Default)]
pub struct PoolReport {
    /// Frames executed by each worker.
    pub frames_by_worker: Vec<u64>,
    /// Frames executed of each arena.
    pub frames_by_arena: Vec<u64>,
    /// Time each worker spent waiting for a runnable arena.
    pub idle_ns_by_worker: Vec<Nanos>,
    /// Idle waits of each worker that ended by their deadline rather
    /// than by a wake-up (with delivery wake-ups: owed pacing,
    /// maintenance and end-of-run deadlines only; without: mostly the
    /// 1 ms `POLL_NS` bound).
    pub idle_timeouts_by_worker: Vec<u64>,
}

/// Everything a directory run measured, as plain values. Read once,
/// host-side, through [`ArenaHandle::report`] after `fabric.run()`.
#[derive(Clone, Debug, Default)]
pub struct DirectoryReport {
    /// Per-arena server results, one per provisioned cell (a reaped
    /// arena's as of its reap).
    pub results: Vec<ServerResults>,
    /// Front-door routing counters.
    pub admission: AdmissionStats,
    /// Pool accounting (`Sequential` arenas only).
    pub pool: Option<PoolReport>,
    /// Spawn/reap accounting.
    pub elastic: ElasticStats,
    /// Supervision accounting (panics caught, restores, checkpoints,
    /// shedding, migrations). Restore and checkpoint counters stay zero
    /// when `supervision` is `None`.
    pub supervisor: SupervisorStats,
}

/// Where a directory run's numbers land, host-side. Every arena's
/// `ServerResults` go through the server crate's own sink
/// (`publish_single`, or a dedicated runtime's threads): the last pool
/// worker publishes them at exit, an elastic reap at reap time. The
/// rest of the [`DirectoryReport`] is one sink with two writers, each
/// writing once at task exit: the director (admission, elastic, its
/// supervision counters) and the last pool worker (pool accounting,
/// the workers' supervision counters).
#[derive(Clone)]
struct Sink {
    results: Vec<Arc<Mutex<ServerResults>>>,
    rest: Arc<Mutex<DirectoryReport>>,
}

impl Sink {
    /// Fold one writer's half into the report. Poison-tolerant: the
    /// report is a plain snapshot with no invariant to corrupt, and a
    /// panic elsewhere must not take the directory's report down with
    /// it — supervision's whole point.
    fn publish(&self, write: impl FnOnce(&mut DirectoryReport)) {
        // lockcheck: allow(raw-sync: host-side report sink, each writer folds in once at task exit)
        write(&mut self.rest.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// A spawned (not yet running) directory.
pub struct ArenaHandle {
    /// The front door: clients send `Connect` here.
    pub front_port: PortId,
    /// Request ports of each arena's runtime (`arena_ports[k][t]` =
    /// arena `k`, thread `t`); move traffic goes straight here. Sized
    /// `max_arenas` — cold cells have allocated ports from birth, so
    /// routing tables built over this vector tolerate arena birth and
    /// death mid-run.
    pub arena_ports: Vec<Vec<PortId>>,
    /// The arenas' worlds (final-state inspection, world hashes).
    pub worlds: Vec<Arc<GameWorld>>,
    /// The director's lifecycle control port: every arena runtime
    /// reports slot churn here (tests inject synthetic notices).
    pub lifecycle_port: PortId,
    sink: Sink,
}

impl ArenaHandle {
    /// The run's numbers, moved out of the sinks. Call after
    /// `fabric.run()` returned: every writer has exited by then.
    pub fn report(self) -> DirectoryReport {
        DirectoryReport {
            results: self.sink.results.iter().map(|r| take(r)).collect(),
            ..take(&self.sink.rest)
        }
    }
}

/// Move out what a sink holds, poison-tolerant like its writers.
fn take<T: Default>(sink: &Mutex<T>) -> T {
    // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
    std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Fill in what a config leaves to the directory, once, so every task
/// runs on the same values: the elastic ceiling is at least the boot
/// fleet, a spread trigger below 2 is 2 (moving a client across a
/// spread of 1 just swaps which arena is hotter), and maintenance
/// frames default to 50 ms whenever the truth of "occupancy is zero"
/// matters (an elastic fleet, or inactivity reclaims configured).
fn normalise(mut cfg: ArenaDirectoryConfig) -> ArenaDirectoryConfig {
    cfg.max_arenas = cfg.max_arenas.max(cfg.arenas);
    if cfg.migrate_spread > 0 {
        cfg.migrate_spread = cfg.migrate_spread.max(2);
    }
    if cfg.maintenance_ns == 0 && (cfg.max_arenas > cfg.arenas || cfg.server.client_timeout_ns > 0)
    {
        cfg.maintenance_ns = 50_000_000;
    }
    cfg
}

/// Spawn the directory onto `fabric`: all arena runtimes (live and
/// cold), the worker pool (if pooled), and the front-door director
/// task.
pub fn spawn_directory(fabric: &Arc<dyn Fabric>, cfg: ArenaDirectoryConfig) -> ArenaHandle {
    assert!(cfg.arenas >= 1, "directory needs at least one arena");
    assert_eq!(cfg.validate(), Ok(()));
    let cfg = normalise(cfg);
    let lifecycle_port = fabric.alloc_bounded_port(REQUEST_QUEUE_CAP);
    let map = Arc::new(cfg.map.generate());
    let worlds: Vec<Arc<GameWorld>> = (0..cfg.max_arenas)
        .map(|_| {
            Arc::new(GameWorld::new(
                map.clone(),
                cfg.areanode_depth,
                cfg.slots_per_arena.max(1),
            ))
        })
        .collect();

    let rest = Arc::new(Mutex::new(DirectoryReport::default()));
    let (arena_ports, sink, pool) = match cfg.server.kind {
        ServerKind::Sequential => {
            let (ports, sink, pool) = spawn_pool(fabric, &cfg, &worlds, lifecycle_port, rest);
            (ports, sink, Some(pool))
        }
        ServerKind::Parallel { .. } => {
            let mut ports = Vec::new();
            let mut results = Vec::new();
            for (k, world) in worlds.iter().enumerate() {
                let mut scfg = cfg.server.clone();
                scfg.arena_id = k as u16;
                scfg.lifecycle_port = Some(lifecycle_port);
                let ServerHandle {
                    ports: p,
                    results: r,
                    ..
                } = spawn_server(fabric, scfg, world.clone());
                ports.push(p);
                results.push(r);
            }
            (ports, Sink { results, rest }, None)
        }
    };

    let front_port = fabric.alloc_bounded_port(REQUEST_QUEUE_CAP);
    let env = DirectorEnv {
        cfg,
        front: front_port,
        lifecycle: lifecycle_port,
        arena_ports: arena_ports.clone(),
        pool,
        sink: sink.clone(),
    };
    fabric.spawn(
        "arena-director",
        None,
        Box::new(move |ctx| director(ctx, &env)),
    );

    ArenaHandle {
        front_port,
        arena_ports,
        worlds,
        lifecycle_port,
        sink,
    }
}

// ---------------------------------------------------------------------------
// Front door
// ---------------------------------------------------------------------------

/// Everything the director task needs, bundled so the closure stays
/// one move.
pub(crate) struct DirectorEnv {
    /// The config the directory was built from, normalised.
    pub(crate) cfg: ArenaDirectoryConfig,
    pub(crate) front: PortId,
    lifecycle: PortId,
    arena_ports: Vec<Vec<PortId>>,
    /// The worker pool, for spawn/reap, supervised restore and
    /// migration (pooled scheduling only).
    pub(crate) pool: Option<Arc<Pool>>,
    sink: Sink,
}

/// The director's mutable state.
pub(crate) struct Director {
    pub(crate) stats: AdmissionStats,
    pub(crate) ledger: Ledger,
    /// Round-robin home-block spreading inside each arena: connects are
    /// dealt to the arena's threads in turn so no single thread's block
    /// fills while others sit empty.
    next_thread: Vec<usize>,
    /// The director's mirror of pool liveness (it is the only mutator,
    /// so the mirror never goes stale). Deliberately *not* cleared
    /// while an arena is crashed or restoring: sticky traffic keeps
    /// queueing on the arena's bounded port and drains after restore,
    /// and elastic spawn must not recycle the fated cell meanwhile.
    pub(crate) live: Vec<bool>,
    /// When arena k's occupancy last hit zero (linger clock).
    pub(crate) empty_since: Vec<Option<Nanos>>,
    elastic: ElasticStats,
    /// Director-side supervision accounting (watchdog condemnations,
    /// restores, ledger replays); worker-side counters merge in at
    /// pool exit.
    pub(crate) sup: SupervisorStats,
    /// Earliest time the next migration handoff may run (rebalance
    /// throttle — see [`crate::migrate`]).
    pub(crate) next_migrate_at: Nanos,
}

/// The director wakes at least this often to drain lifecycle notices
/// and run elastic bookkeeping while the front door is quiet (one task
/// cannot block on two ports).
const NOTICE_POLL_NS: Nanos = 2_000_000;

fn director(ctx: &TaskCtx, env: &DirectorEnv) {
    let cfg = &env.cfg;
    let n = env.arena_ports.len();
    let boot = cfg.arenas as usize;
    let slots = cfg.slots_per_arena as usize;
    let mut d = Director {
        stats: AdmissionStats {
            per_arena: vec![0; n],
            forwarded_per_arena: vec![0; n],
            ..AdmissionStats::default()
        },
        // LRU bound on the book: 4× the directory's total player
        // capacity.
        ledger: Ledger::new(n, (n * slots).saturating_mul(4).max(64)),
        next_thread: vec![0usize; n],
        live: (0..n).map(|k| k < boot).collect(),
        empty_since: vec![None; n],
        elastic: ElasticStats {
            boot: boot as u32,
            max_arenas: n as u32,
            peak_live: boot as u32,
            ..ElasticStats::default()
        },
        sup: SupervisorStats::default(),
        next_migrate_at: 0,
    };

    loop {
        let now = ctx.now();
        if now >= cfg.server.end_time {
            break;
        }
        // The front door is the main wait; lifecycle notices and linger
        // expiries bound the sleep so they are drained/acted on even
        // when no client traffic arrives.
        let mut deadline = now + NOTICE_POLL_NS;
        if let Some(t) = ctx.fabric().port_next_delivery(env.lifecycle) {
            deadline = deadline.min(t.max(now + 1));
        }
        for k in boot..n {
            if let Some(t0) = d.empty_since[k] {
                deadline = deadline.min((t0 + cfg.linger_ns).max(now + 1));
            }
        }
        if cfg.migrate_spread > 0 || cfg.migrate_drain {
            deadline = deadline.min(d.next_migrate_at.max(now + 1));
        }
        let deadline = deadline.min(cfg.server.end_time).max(now + 1);
        ctx.wait_readable(env.front, Some(deadline));
        while let Some(raw) = ctx.try_recv(env.front) {
            ctx.charge(cfg.server.cost.recv);
            handle_front(ctx, env, &mut d, raw.from, &raw.payload);
        }
        // Notices are drained uncharged: they model an in-process
        // queue, not client traffic. Each one is mirrored to the tap
        // (when configured) so downstream placement books see the same
        // stream the ledger does.
        while let Some(raw) = ctx.try_recv(env.lifecycle) {
            handle_notice(&mut d, &raw.payload);
            if let Some(tap) = cfg.lifecycle_tap {
                ctx.send(env.front, tap, raw.payload.clone());
            }
        }
        elastic_reap(ctx, env, &mut d);
        crate::migrate::rebalance(ctx, env, &mut d);
        crate::supervisor::supervise(ctx, env, &mut d);
    }

    d.stats.placed = d.ledger.placed;
    d.stats.departed = d.ledger.departed;
    d.stats.resident = d.ledger.resident();
    d.stats.book_evicted = d.ledger.evicted;
    d.elastic.live_at_end = d.live.iter().filter(|&&l| l).count() as u32;
    env.sink.publish(|r| {
        r.admission = d.stats;
        r.elastic = d.elastic;
        r.supervisor.merge(&d.sup);
    });
}

fn handle_front(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director, from: PortId, payload: &[u8]) {
    let Ok(msg) = ClientMessage::from_bytes(payload) else {
        d.stats.decode_rejected += 1;
        return;
    };
    match msg {
        ClientMessage::Connect { client_id, arena } => {
            if arena != 0 {
                d.stats.explicit_requests += 1;
            }
            let placed = match d.ledger.touch(client_id) {
                Some(p) => {
                    d.stats.sticky += 1;
                    Some(home(p))
                }
                None => place_fresh(ctx, env, d, client_id, arena),
            };
            match placed {
                Some((k, t)) if k < env.arena_ports.len() => {
                    // The arena id in the payload has served its
                    // purpose — the runtime ignores it and acks with
                    // its own id.
                    forward(ctx, env, d, from, payload, (k, t));
                    d.stats.routed += 1;
                    d.stats.per_arena[k] += 1;
                }
                _ => d.stats.rejected_full += 1,
            }
        }
        ClientMessage::Disconnect { client_id } => {
            match d.ledger.remove(client_id, Departure::FrontDoor).map(home) {
                Some((k, t)) if k < env.arena_ports.len() => {
                    forward(ctx, env, d, from, payload, (k, t));
                    d.stats.forwarded_other += 1;
                }
                Some(_) => {}
                None => d.stats.dropped_unknown += 1,
            }
        }
        ClientMessage::Move { client_id, .. } => match d.ledger.touch(client_id).map(home) {
            // A stray move from a client ignoring its ack's arena id:
            // forward it so the session still works, if degraded.
            Some((k, t)) if k < env.arena_ports.len() => {
                forward(ctx, env, d, from, payload, (k, t));
                d.stats.forwarded_other += 1;
            }
            _ => d.stats.dropped_unknown += 1,
        },
    }
}

/// A placement's (arena, home thread).
fn home(p: Placement) -> (usize, usize) {
    (p.arena as usize, p.thread as usize)
}

/// Forward a client's raw datagram to thread `t` of arena `k`,
/// preserving its source port so the arena answers the client
/// directly. The thread is the placement's *home* thread: under static
/// assignment the client's slot lives in the connect-time thread's
/// block, and other threads never scan it.
fn forward(
    ctx: &TaskCtx,
    env: &DirectorEnv,
    d: &mut Director,
    from: PortId,
    payload: &[u8],
    (k, t): (usize, usize),
) {
    let t = t.min(env.arena_ports[k].len() - 1);
    ctx.send(from, env.arena_ports[k][t], payload.to_vec());
    d.stats.forwarded_per_arena[k] += 1;
}

/// Place a never-before-seen client: policy first, then — if every
/// live arena is full — spawn pressure.
fn place_fresh(
    ctx: &TaskCtx,
    env: &DirectorEnv,
    d: &mut Director,
    client_id: u32,
    requested: u16,
) -> Option<(usize, usize)> {
    let k = d
        .policy_place(env, requested)
        .or_else(|| elastic_spawn(ctx, env, d))?;
    let t = d.next_thread[k] % env.arena_ports[k].len();
    d.next_thread[k] = d.next_thread[k].wrapping_add(1);
    d.ledger.place(client_id, k as u16, t as u16);
    d.empty_since[k] = None;
    Some((k, t))
}

impl Director {
    /// Mirror a spawn or reap of arena `k` at `at` in `live` and the
    /// elastic timeline; returns how many arenas are live now.
    fn mirror(&mut self, at: Nanos, k: usize, kind: ElasticEventKind) -> u32 {
        self.live[k] = kind == ElasticEventKind::Spawned;
        self.empty_since[k] = None;
        let live = self.live.iter().filter(|&&l| l).count() as u32;
        self.elastic.events.push(ElasticEvent {
            at,
            arena: k as u16,
            kind,
            live,
        });
        live
    }

    fn policy_place(&self, env: &DirectorEnv, requested: u16) -> Option<usize> {
        env.cfg.policy.place(
            requested,
            self.ledger.occupancy(),
            env.cfg.slots_per_arena as u32,
            &self.live,
            crate::migrate::planned(env, self),
        )
    }
}

/// Reconcile the ledger with one arena lifecycle notice.
fn handle_notice(d: &mut Director, payload: &[u8]) {
    let Ok(ev) = LifecycleEvent::from_bytes(payload) else {
        // Not a lifecycle datagram — a confused sender; count with the
        // front door's decode failures.
        d.stats.decode_rejected += 1;
        return;
    };
    match ev {
        LifecycleEvent::Connected {
            arena,
            client_id,
            thread,
        } => {
            d.stats.notice_connected += 1;
            match d.ledger.touch(client_id) {
                // The notice confirms what the book already says.
                Some(p) if p.arena == arena && p.thread == thread => {}
                // A client the director never placed (it connected at
                // the arena directly) or a stale booking: the arena is
                // the authority — (re)book it there.
                _ => {
                    d.ledger.place(client_id, arena, thread);
                }
            }
        }
        LifecycleEvent::Disconnected { arena, client_id }
        | LifecycleEvent::Reclaimed {
            arena, client_id, ..
        }
        | LifecycleEvent::Rejected { arena, client_id } => {
            match ev {
                LifecycleEvent::Disconnected { .. } => d.stats.notice_disconnected += 1,
                LifecycleEvent::Reclaimed { .. } => d.stats.notice_reclaimed += 1,
                LifecycleEvent::Rejected { .. } => d.stats.notice_rejected += 1,
                LifecycleEvent::Connected { .. } | LifecycleEvent::Migrated { .. } => {
                    unreachable!()
                }
            }
            // Evict only a booking *at that arena*: a late notice from
            // an old placement must not kill a newer one elsewhere.
            match d.ledger.touch(client_id) {
                Some(p) if p.arena == arena => {
                    d.ledger.remove(client_id, Departure::Notice);
                }
                _ => d.stats.notice_stale += 1,
            }
        }
        LifecycleEvent::Migrated {
            from_arena,
            to_arena,
            client_id,
            thread,
        } => {
            // The director's own handoffs rebook the ledger directly
            // (crate::migrate); this arm serves notices injected on
            // the control port (tests, external supervisors).
            d.stats.notice_migrated += 1;
            match d.ledger.touch(client_id) {
                Some(p) if p.arena == to_arena && p.thread == thread => {}
                Some(p) if p.arena == from_arena => {
                    d.ledger.migrate(client_id, to_arena, thread);
                }
                // Unknown client or booked somewhere neither end of
                // the handoff claims: the notice is the authority.
                _ => {
                    d.ledger.place(client_id, to_arena, thread);
                }
            }
        }
    }
}

/// Bring a cold cell live under admission pressure (pooled only).
fn elastic_spawn(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) -> Option<usize> {
    let pool = env.pool.as_ref()?;
    let k = d.live.iter().position(|&l| !l)?;
    pool.with(ctx, |t| t.spawn(k, ctx.now()));
    d.elastic.spawned += 1;
    let live_now = d.mirror(ctx.now(), k, ElasticEventKind::Spawned);
    d.elastic.peak_live = d.elastic.peak_live.max(live_now);
    Some(k)
}

/// Reap live non-boot arenas whose occupancy has sat at zero past the
/// linger window (pooled only). A reaped cell turns cold so workers
/// skip it, and its results are published immediately; the cell can
/// be reborn by [`elastic_spawn`] (its world state is
/// retained — players were already despawned for occupancy to reach
/// zero, and a fresh population simply spawns into the aged world).
fn elastic_reap(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) {
    let Some(pool) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    for k in env.cfg.arenas as usize..d.live.len() {
        if !d.live[k] || d.ledger.occupancy()[k] > 0 {
            d.empty_since[k] = None;
            continue;
        }
        let since = *d.empty_since[k].get_or_insert(now);
        if now.saturating_sub(since) < env.cfg.linger_ns {
            continue;
        }
        // Mid-frame (a last maintenance frame, most likely): leave the
        // linger clock running and retry next tick. Crashed or
        // condemned: the supervisor owns the cell's next transition.
        let reaped = pool.reap(ctx, k, |cell| {
            cell.shared
                .publish_single(ctx, cell.frame(), &env.sink.results[k]);
        });
        if !reaped {
            continue;
        }
        d.elastic.reaped += 1;
        d.mirror(now, k, ElasticEventKind::Reaped);
    }
}

// ---------------------------------------------------------------------------
// Shared worker pool
// ---------------------------------------------------------------------------

/// A frame running longer than this (one client tick) counts as an
/// overrun for the graceful-degradation stretch, and is the unit a
/// stretched arena's frames are paced in.
const FRAME_DEADLINE_NS: Nanos = 30_000_000;

/// Checkpoints retained per arena ring.
const CHECKPOINT_DEPTH: usize = 4;

/// A supervised arena checkpoints every this-many frames, and on its
/// first claim, so restore always has a target.
pub const CHECKPOINT_INTERVAL: u32 = 64;

fn spawn_pool(
    fabric: &Arc<dyn Fabric>,
    cfg: &ArenaDirectoryConfig,
    worlds: &[Arc<GameWorld>],
    lifecycle_port: PortId,
    rest: Arc<Mutex<DirectoryReport>>,
) -> (Vec<Vec<PortId>>, Sink, Arc<Pool>) {
    assert!(cfg.workers >= 1, "pool needs at least one worker");
    let n = worlds.len();
    let mut cells = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    let mut results = Vec::with_capacity(n);
    for (k, world) in worlds.iter().enumerate() {
        let mut scfg = cfg.server.clone();
        scfg.arena_id = k as u16;
        scfg.lifecycle_port = Some(lifecycle_port);
        let shared = Arc::new(ServerShared::new(fabric, &scfg, world.clone(), 1, None));
        // The sequential frame body takes no region locks, so the
        // parallel protocol checkers have nothing to check.
        shared.world.links.set_checking(false);
        shared.world.store.set_checking(false);
        ports.push(shared.ports.clone());
        results.push(Arc::new(Mutex::new(ServerResults::default())));
        // The per-arena fault lottery is salted with the arena id so
        // each arena's fate stream is independent of worker
        // interleaving — crash sweeps replay bit-for-bit.
        let lottery = cfg
            .supervision
            .as_ref()
            .filter(|fc| fc.frame_faults_enabled())
            .map(|fc| FrameLottery::new(fc, k as u64));
        if lottery.is_some() {
            install_quiet_panic_hook();
        }
        cells.push(ArenaCell::new(shared, lottery, CHECKPOINT_DEPTH));
    }

    let pool = Arc::new(Pool::new(fabric, cells, cfg));
    let sink = Sink { results, rest };
    for w in 0..cfg.workers {
        let (pool, sink) = (pool.clone(), sink.clone());
        fabric.spawn(
            &format!("arena-pool-{w}"),
            Some(w),
            Box::new(move |ctx| pool_worker(ctx, w, &pool, &sink)),
        );
    }
    (ports, sink, pool)
}

fn pool_worker(ctx: &TaskCtx, w: u32, pool: &Pool, sink: &Sink) {
    let cfg = &pool.cfg;
    let cells = &pool.cells;
    pool_worker_scan(ctx, w, pool);

    // Exit protocol: the last worker out publishes per-arena results
    // and the pool's half of the report. Every claim is free by then,
    // so the frame cells are safe to read.
    pool.leave(ctx, |report| {
        for (cell, result) in cells.iter().zip(&sink.results) {
            cell.shared.publish_single(ctx, cell.frame(), result);
        }
        sink.publish(|r| {
            r.pool = Some(report);
            if cfg.supervision.is_some() {
                // Fold worker-side guard counters into the directory's
                // supervision report; the director contributes the
                // restore/watchdog side at its own exit.
                let mut sup = SupervisorStats::default();
                for cell in cells {
                    let g = cell.guard();
                    sup.panics_caught += g.panics_caught;
                    sup.checkpoints_taken += g.ring.taken;
                    sup.checkpoint_bytes += g.ring.bytes;
                    sup.shed_frames += g.shed_frames;
                    sup.coalesced_moves += g.coalesced_moves;
                }
                r.supervisor.merge(&sup);
            }
        });
    });
}

/// The pool scheduling loop: claim a due arena, run its frame
/// outside the pool lock, release, repeat. Supervised frames run
/// behind `catch_unwind`: a panic fates only the panicking arena and
/// the worker moves on to other arenas.
fn pool_worker_scan(ctx: &TaskCtx, w: u32, pool: &Pool) {
    let supervised = pool.cfg.supervision.is_some();
    loop {
        let now = ctx.now();
        if now >= pool.cfg.server.end_time {
            break;
        }
        let Some(k) = pool.claim(ctx, w, now) else {
            continue;
        };
        let cell = &pool.cells[k];
        let panicked = if supervised {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_arena_frame_supervised(ctx, cell)
            }))
            .is_err()
        } else {
            run_arena_frame(ctx, cell, None);
            false
        };
        if panicked {
            // Still owning the claim: count on the cell, then fate the
            // arena. Any fabric lock the frame still held is leaked for
            // good — report it to the witness so the run fails on it.
            if let Some(wit) = ctx.fabric().witness() {
                wit.on_unwind(ctx.id(), ctx.now());
            }
            cell.guard().panics_caught += 1;
            pool.with(ctx, |t| t.crash(k, ctx.now()));
            continue;
        }
        // Frames are event-driven; graceful degradation paces a
        // stretched arena at `stretch ×` the frame deadline.
        let stretch = if supervised { cell.guard().stretch } else { 1 };
        let gap = if stretch > 1 {
            FRAME_DEADLINE_NS * stretch as u64
        } else {
            0
        };
        pool.release(ctx, w, k, gap, cell.shared.clients.occupied());
    }
}

/// One complete frame of one arena — the sequential server's frame
/// body (§2.1: world update, drain requests, reply), run by whichever
/// pool worker claimed the arena. `shed`-mode frames (`Some`) coalesce
/// queued moves per client instead of processing every one; the count
/// of superseded moves is accumulated into the given counter.
fn run_arena_frame(ctx: &TaskCtx, cell: &ArenaCell, shed: Option<&mut u64>) {
    let shared = &cell.shared;
    shared.run_single_frame(ctx, cell.frame(), |stats, mask| match shed {
        Some(coalesced) => drain_requests_coalesced(ctx, cell, stats, mask, coalesced),
        None => shared.drain_requests(ctx, 0, cell.port, stats, mask),
    });
}

/// Payload of a lottery-injected panic. The quiet panic hook
/// recognises this type and stays silent for it (crash sweeps inject
/// thousands); organic panics keep the default hook's report.
pub struct InjectedPanic;

static QUIET_HOOK: Once = Once::new();

/// Chain a panic hook that suppresses output for [`InjectedPanic`]
/// payloads only. Installed once, process-wide, and only when a
/// panic lottery is actually configured.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// A supervised frame: fault lottery, shed-mode selection, overload
/// bookkeeping, checkpoint cadence. Runs under the claiming worker's
/// `catch_unwind`.
fn run_arena_frame_supervised(ctx: &TaskCtx, cell: &ArenaCell) {
    let g = cell.guard();
    // First claim of this arena's life (or first after a restore that
    // found an empty ring): checkpoint the current state so a crash on
    // the very next line already has a restore point.
    if g.ring.is_empty() {
        take_checkpoint(ctx, cell, g);
    }
    let t0 = ctx.now();
    // The lottery fires before any frame work — and before any fabric
    // lock could possibly be taken — so an injected panic can never
    // wedge a lock. (An organic mid-frame panic can; see DESIGN.md
    // §9's documented limitations.) An injected stall counts toward
    // the overrun clock below: a slow frame is an overrun, wherever
    // the time went.
    if let Some(lot) = g.lottery.as_mut() {
        match lot.draw() {
            FrameFault::Panic => std::panic::panic_any(InjectedPanic),
            // A stall: the frame "hangs" for the configured time —
            // past the watchdog bound it gets the arena condemned
            // mid-claim; short of it, it drives graceful degradation.
            // Modelled time, so a virtual-fabric-only fault: `charge`
            // costs nothing on `RealFabric`, and no real path (`udpd`
            // exposes only the panic lottery) can configure a stall.
            FrameFault::Stuck(ns) => ctx.charge(ns),
            FrameFault::None => {}
        }
    }
    if g.stretch > 1 {
        let mut coalesced = 0u64;
        run_arena_frame(ctx, cell, Some(&mut coalesced));
        g.shed_frames += 1;
        g.coalesced_moves += coalesced;
    } else {
        run_arena_frame(ctx, cell, None);
    }
    // Graceful degradation: two consecutive deadline overruns double
    // the arena's effective frame interval (cap 8×); a frame back
    // under the deadline halves it toward real time.
    let dur = ctx.now() - t0;
    if dur > FRAME_DEADLINE_NS {
        g.overruns += 1;
        if g.overruns >= 2 && g.stretch < 8 {
            g.stretch *= 2;
            g.overruns = 0;
        }
    } else {
        g.overruns = 0;
        if g.stretch > 1 {
            g.stretch /= 2;
        }
    }
    if cell.frame().frame_no % CHECKPOINT_INTERVAL == 0 {
        take_checkpoint(ctx, cell, g);
    }
}

/// Snapshot the arena's world + slot table into its checkpoint ring.
/// Caller owns the claim, so both are frame-boundary consistent.
fn take_checkpoint(ctx: &TaskCtx, cell: &ArenaCell, g: &mut ArenaGuard) {
    let world = cell.shared.world.snapshot_bytes();
    let slots = cell.shared.snapshot_slots();
    // Modelled cost: a serializing memcpy of the world image.
    ctx.charge((world.len() as u64 >> 6).max(1_000));
    g.ring.push(Checkpoint {
        frame_no: cell.frame().frame_no,
        taken_at: ctx.now(),
        world,
        slots,
    });
}

/// Shed-mode Rx/E: drain the whole queue first, then process it with
/// per-client move coalescing — only the *newest* queued `Move` per
/// client executes; older ones are superseded (their effect is
/// subsumed, not dropped: the client's next reply reflects its latest
/// command). `Connect`/`Disconnect` always pass through in arrival
/// order. Superseded-move count lands in `coalesced_out`.
pub(crate) fn drain_requests_coalesced(
    ctx: &TaskCtx,
    cell: &ArenaCell,
    stats: &mut ThreadStats,
    frame_leaf_mask: &mut u64,
    coalesced_out: &mut u64,
) -> u32 {
    let shared = &cell.shared;
    let mut batch: Vec<(PortId, ClientMessage)> = Vec::new();
    let mut newest: HashMap<u32, usize> = HashMap::new();
    shared.receive_requests(ctx, cell.port, stats, |_, _, from, msg| {
        if let ClientMessage::Move { client_id, .. } = msg {
            newest.insert(client_id, batch.len());
        }
        batch.push((from, msg));
    });
    let mut moves = 0u32;
    for (i, (from, msg)) in batch.into_iter().enumerate() {
        if matches!(msg, ClientMessage::Move { client_id, .. } if newest[&client_id] != i) {
            *coalesced_out += 1;
        } else if shared.handle_message(ctx, ctx.now(), 0, from, msg, stats, frame_leaf_mask) {
            moves += 1;
        }
    }
    moves
}
