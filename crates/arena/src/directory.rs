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
//!   *whole frames* from whichever arena has work. The pool lock only
//!   guards the claim table — no worker ever holds it during a frame,
//!   and no worker ever touches two arenas at once, so the per-world
//!   locking discipline (and its witness) is untouched.
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
//! allocation before `run()`), admission pressure brings one live
//! (spawning = flipping its claim-table liveness bit), and a live
//! non-boot arena whose occupancy stays zero past `linger_ns` is
//! reaped — its claim slot masked, its `ServerResults` published.
//! The elastic state machine per cell is thus
//! `cold → live → lingering → reaped (→ live again under pressure)`.
//!
//! **Supervision** (off by default) hardens the pooled shape: every
//! claimed frame runs behind `catch_unwind` so a panic fates only its
//! arena (`healthy → crashed`), workers checkpoint each arena's world
//! and slot table into a per-arena ring, a director-side watchdog
//! condemns arenas whose claimed frame overruns (`healthy → stuck`),
//! and [`crate::supervisor`] restores fated arenas from their last
//! checkpoint and replays the ledger (`→ restoring → live`). Sustained
//! frame overruns degrade gracefully: the arena's effective frame
//! interval stretches and queued moves are coalesced per client
//! instead of dropped.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, PoisonError};

use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FrameFault, FrameLottery};
use parquake_fabric::{CondId, Fabric, LockId, Nanos, PortId, TaskCtx};
use parquake_metrics::{
    Bucket, ElasticEvent, ElasticEventKind, ElasticStats, LockClass, SupervisorStats, ThreadStats,
};
use parquake_protocol::{ClientMessage, Decode};
use parquake_server::clients::SlotState;
use parquake_server::runtime::{FrameState, ServerShared, REQUEST_QUEUE_CAP};
use parquake_server::{
    spawn_server, LifecycleEvent, ServerConfig, ServerHandle, ServerKind, ServerResults,
};
use parquake_sim::GameWorld;

use crate::admission::{AdmissionPolicy, AdmissionStats};
use crate::checkpoint::{Checkpoint, CheckpointRing};
use crate::ledger::{Departure, Ledger};

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
    /// and stays off otherwise (keeping the 1×1 degenerate path
    /// byte-identical to the sequential server).
    pub maintenance_ns: Nanos,
    /// Supervise arena frames (pooled scheduling): run each claimed
    /// frame behind `catch_unwind` so a panic fates only that arena,
    /// checkpoint periodically, watchdog stuck frames, and restore
    /// fated arenas from their last checkpoint with a ledger replay.
    /// Off by default — the unsupervised 1×1 pooled path stays
    /// byte-identical to the sequential server.
    pub supervision: bool,
    /// Deterministic frame-fault injection for supervised arenas: a
    /// seeded per-arena lottery fires panics and/or stuck stalls
    /// inside claimed frames (see
    /// [`parquake_fabric::fault::FrameLottery`]). `None` = no
    /// injection. Ignored when `supervision` is off — uncaught
    /// injected panics would take down the whole fabric.
    pub frame_faults: Option<FaultConfig>,
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
            supervision: false,
            frame_faults: None,
            migrate_spread: 0,
            migrate_drain: false,
            lifecycle_tap: None,
        }
    }

    /// Elasticity, supervision and live migration are driven through
    /// the pool's claim table; a `Parallel` template gives every arena
    /// dedicated threads instead, so asking for both is refused rather
    /// than silently dropped. So is a thread count a parallel arena
    /// cannot run: its per-frame participant mask is one `u64`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let ServerKind::Parallel { threads, .. } = self.server.kind {
            if !(1..=64).contains(&threads) {
                return Err(
                    "threads must be 1..=64: a parallel arena tracks its frame's participants \
                     in one 64-bit mask",
                );
            }
        }
        let pool_only = self.max_arenas > self.arenas
            || self.supervision
            || self.migrate_spread > 0
            || self.migrate_drain;
        if pool_only && matches!(self.server.kind, ServerKind::Parallel { .. }) {
            return Err(
                "threads > 1 gives every arena dedicated threads; elasticity (max_arenas), \
                 supervision (crash_rate) and live migration need the worker pool (threads 1)",
            );
        }
        Ok(())
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
    /// Per-arena server results, filled when the run ends (or at reap
    /// time for reaped arenas).
    pub results: Vec<Arc<Mutex<ServerResults>>>,
    /// The arenas' worlds (final-state inspection, world hashes).
    pub worlds: Vec<Arc<GameWorld>>,
    /// Front-door routing counters, filled when the run ends.
    pub admission: Arc<Mutex<AdmissionStats>>,
    /// Pool accounting (`Sequential` arenas only), filled when the run
    /// ends.
    pub pool: Option<Arc<Mutex<PoolReport>>>,
    /// Spawn/reap accounting, filled when the run ends.
    pub elastic: Arc<Mutex<ElasticStats>>,
    /// Supervision accounting (panics caught, restores, checkpoints,
    /// shedding), filled when the run ends. All-zero when
    /// `supervision` is off.
    pub supervisor: Arc<Mutex<SupervisorStats>>,
    /// The director's lifecycle control port: every arena runtime
    /// reports slot churn here (tests inject synthetic notices).
    pub lifecycle_port: PortId,
}

/// Spawn the directory onto `fabric`: all arena runtimes (live and
/// cold), the worker pool (if pooled), and the front-door director
/// task.
pub fn spawn_directory(fabric: &Arc<dyn Fabric>, cfg: ArenaDirectoryConfig) -> ArenaHandle {
    assert!(cfg.arenas >= 1, "directory needs at least one arena");
    assert_eq!(cfg.validate(), Ok(()));
    let boot = cfg.arenas as usize;
    let max_arenas = (cfg.max_arenas as usize).max(boot);
    let lifecycle_port = fabric.alloc_bounded_port(REQUEST_QUEUE_CAP);
    let map = Arc::new(cfg.map.generate());
    let worlds: Vec<Arc<GameWorld>> = (0..max_arenas)
        .map(|_| {
            Arc::new(GameWorld::new(
                map.clone(),
                cfg.areanode_depth,
                cfg.slots_per_arena.max(1),
            ))
        })
        .collect();

    let supervisor = Arc::new(Mutex::new(SupervisorStats::default()));
    let (arena_ports, results, pool_parts, pool_report) = match cfg.server.kind {
        ServerKind::Sequential => {
            let (ports, results, parts, report) =
                spawn_pool(fabric, &cfg, &worlds, lifecycle_port, &supervisor);
            (ports, results, Some(parts), Some(report))
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
            (ports, results, None, None)
        }
    };

    let admission = Arc::new(Mutex::new(AdmissionStats::default()));
    let elastic = Arc::new(Mutex::new(ElasticStats::default()));
    let front_port = fabric.alloc_bounded_port(REQUEST_QUEUE_CAP);
    // LRU bound on the director's book: 4× the directory's total
    // player capacity.
    let book_cap = (max_arenas * cfg.slots_per_arena as usize)
        .saturating_mul(4)
        .max(64);
    let env = DirectorEnv {
        front: front_port,
        lifecycle: lifecycle_port,
        arena_ports: arena_ports.clone(),
        policy: cfg.policy,
        capacity: cfg.slots_per_arena as u32,
        cost: cfg.server.cost.clone(),
        end_time: cfg.server.end_time,
        boot,
        linger_ns: cfg.linger_ns,
        book_cap,
        pool: pool_parts,
        results: results.clone(),
        out: admission.clone(),
        elastic_out: elastic.clone(),
        supervised: cfg.supervision,
        supervisor_out: supervisor.clone(),
        migrate_spread: if cfg.migrate_spread > 0 {
            cfg.migrate_spread.max(2)
        } else {
            0
        },
        migrate_drain: cfg.migrate_drain,
        tap: cfg.lifecycle_tap,
    };
    fabric.spawn(
        "arena-director",
        None,
        Box::new(move |ctx| director(ctx, &env)),
    );

    ArenaHandle {
        front_port,
        arena_ports,
        results,
        worlds,
        admission,
        pool: pool_report,
        elastic,
        supervisor,
        lifecycle_port,
    }
}

// ---------------------------------------------------------------------------
// Front door
// ---------------------------------------------------------------------------

/// Everything the director task needs, bundled so the closure stays
/// one move.
pub(crate) struct DirectorEnv {
    pub(crate) front: PortId,
    lifecycle: PortId,
    arena_ports: Vec<Vec<PortId>>,
    policy: AdmissionPolicy,
    pub(crate) capacity: u32,
    cost: parquake_server::CostModel,
    end_time: Nanos,
    /// Arenas live at boot (never reaped).
    pub(crate) boot: usize,
    linger_ns: Nanos,
    book_cap: usize,
    /// Pool internals for spawn/reap and supervised restore (pooled
    /// scheduling only).
    pub(crate) pool: Option<PoolParts>,
    results: Vec<Arc<Mutex<ServerResults>>>,
    out: Arc<Mutex<AdmissionStats>>,
    elastic_out: Arc<Mutex<ElasticStats>>,
    pub(crate) supervised: bool,
    supervisor_out: Arc<Mutex<SupervisorStats>>,
    pub(crate) migrate_spread: u32,
    pub(crate) migrate_drain: bool,
    pub(crate) tap: Option<PortId>,
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
    let n = env.arena_ports.len();
    let mut d = Director {
        stats: AdmissionStats {
            per_arena: vec![0; n],
            forwarded_per_arena: vec![0; n],
            ..AdmissionStats::default()
        },
        ledger: Ledger::new(n, env.book_cap),
        next_thread: vec![0usize; n],
        live: (0..n).map(|k| k < env.boot).collect(),
        empty_since: vec![None; n],
        elastic: ElasticStats {
            boot: env.boot as u32,
            max_arenas: n as u32,
            peak_live: env.boot as u32,
            ..ElasticStats::default()
        },
        sup: SupervisorStats::default(),
        next_migrate_at: 0,
    };

    loop {
        let now = ctx.now();
        if now >= env.end_time {
            break;
        }
        // The front door is the main wait; lifecycle notices and linger
        // expiries bound the sleep so they are drained/acted on even
        // when no client traffic arrives.
        let mut deadline = now + NOTICE_POLL_NS;
        if let Some(t) = ctx.fabric().port_next_delivery(env.lifecycle) {
            deadline = deadline.min(t.max(now + 1));
        }
        for k in env.boot..n {
            if let Some(t0) = d.empty_since[k] {
                deadline = deadline.min((t0 + env.linger_ns).max(now + 1));
            }
        }
        if env.migrate_spread > 0 || env.migrate_drain {
            deadline = deadline.min(d.next_migrate_at.max(now + 1));
        }
        let deadline = deadline.min(env.end_time).max(now + 1);
        ctx.wait_readable(env.front, Some(deadline));
        while let Some(raw) = ctx.try_recv(env.front) {
            ctx.charge(env.cost.recv);
            handle_front(ctx, env, &mut d, raw.from, &raw.payload);
        }
        // Notices are drained uncharged: they model an in-process
        // queue, not client traffic. Each one is mirrored to the tap
        // (when configured) so downstream placement books see the same
        // stream the ledger does.
        while let Some(raw) = ctx.try_recv(env.lifecycle) {
            handle_notice(&mut d, &raw.payload);
            if let Some(tap) = env.tap {
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
    // End-of-run publishes tolerate poisoning: these mutexes guard
    // plain result snapshots (no invariants to corrupt), and a
    // panicking reader elsewhere must not take the directory's report
    // down with it — supervision's whole point.
    *env.out.lock().unwrap_or_else(PoisonError::into_inner) = d.stats; // lockcheck: allow(raw-sync: host-side result snapshot, written once at run end)
    *env.elastic_out
        .lock() // lockcheck: allow(raw-sync: host-side result snapshot, written once at run end)
        .unwrap_or_else(PoisonError::into_inner) = d.elastic;
    env.supervisor_out
        .lock() // lockcheck: allow(raw-sync: host-side supervision counters, merged at run end)
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&d.sup);
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
                    Some((p.arena as usize, p.thread as usize))
                }
                None => place_fresh(ctx, env, d, client_id, arena),
            };
            match placed {
                Some((k, t)) if k < env.arena_ports.len() => {
                    // Forward the raw datagram, preserving the client's
                    // source port: the arena acks (and replies)
                    // straight to the client. The arena id in the
                    // payload has served its purpose — the runtime
                    // ignores it and acks with its own id.
                    let t = t.min(env.arena_ports[k].len() - 1);
                    ctx.send(from, env.arena_ports[k][t], payload.to_vec());
                    d.stats.routed += 1;
                    d.stats.per_arena[k] += 1;
                    d.stats.forwarded_per_arena[k] += 1;
                }
                _ => d.stats.rejected_full += 1,
            }
        }
        ClientMessage::Disconnect { client_id } => {
            match d.ledger.remove(client_id, Departure::FrontDoor) {
                // Forward to the *home thread's* port: under static
                // assignment the client's slot lives in the
                // connect-time thread's block, and other threads never
                // scan it.
                Some(p) if (p.arena as usize) < env.arena_ports.len() => {
                    let k = p.arena as usize;
                    let t = (p.thread as usize).min(env.arena_ports[k].len() - 1);
                    ctx.send(from, env.arena_ports[k][t], payload.to_vec());
                    d.stats.forwarded_other += 1;
                    d.stats.forwarded_per_arena[k] += 1;
                }
                Some(_) => {}
                None => d.stats.dropped_unknown += 1,
            }
        }
        ClientMessage::Move { client_id, .. } => match d.ledger.touch(client_id) {
            // A stray move from a client ignoring its ack's arena id:
            // forward to its placement's home thread so the session
            // still works, if degraded.
            Some(p) if (p.arena as usize) < env.arena_ports.len() => {
                let k = p.arena as usize;
                let t = (p.thread as usize).min(env.arena_ports[k].len() - 1);
                ctx.send(from, env.arena_ports[k][t], payload.to_vec());
                d.stats.forwarded_other += 1;
                d.stats.forwarded_per_arena[k] += 1;
            }
            _ => d.stats.dropped_unknown += 1,
        },
    }
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
    fn policy_place(&self, env: &DirectorEnv, requested: u16) -> Option<usize> {
        env.policy.place(
            requested,
            self.ledger.occupancy(),
            env.capacity,
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
    let parts = env.pool.as_ref()?;
    let k = d.live.iter().position(|&l| !l)?;
    parts.pool.enter(ctx);
    {
        let st = parts.pool.state();
        st.live[k] = true;
        st.next_due[k] = 0;
        st.sessions[k] = false;
        st.last_frame[k] = ctx.now();
        ctx.cond_broadcast(parts.pool.cond);
    }
    parts.pool.exit(ctx);
    d.live[k] = true;
    d.empty_since[k] = None;
    d.elastic.spawned += 1;
    let live_now = d.live.iter().filter(|&&l| l).count() as u32;
    d.elastic.peak_live = d.elastic.peak_live.max(live_now);
    d.elastic.events.push(ElasticEvent {
        at: ctx.now(),
        arena: k as u16,
        kind: ElasticEventKind::Spawned,
        live: live_now,
    });
    Some(k)
}

/// Reap live non-boot arenas whose occupancy has sat at zero past the
/// linger window (pooled only). A reaped cell's claim slot is masked
/// so workers skip it, and its results are published immediately; the
/// cell can be reborn by [`elastic_spawn`] (its world state is
/// retained — players were already despawned for occupancy to reach
/// zero, and a fresh population simply spawns into the aged world).
fn elastic_reap(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) {
    let Some(parts) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    for k in env.boot..d.live.len() {
        if !d.live[k] || d.ledger.occupancy()[k] > 0 {
            d.empty_since[k] = None;
            continue;
        }
        let since = *d.empty_since[k].get_or_insert(now);
        if now.saturating_sub(since) < env.linger_ns {
            continue;
        }
        parts.pool.enter(ctx);
        let st = parts.pool.state();
        if st.claimed[k] {
            // Mid-frame (a last maintenance frame, most likely): leave
            // the linger clock running and retry next tick.
            parts.pool.exit(ctx);
            continue;
        }
        if st.fate[k] != ArenaFate::Healthy {
            // Crashed or condemned: the supervisor owns this cell's
            // next transition (restore). Reaping it would fork the
            // liveness mirror.
            parts.pool.exit(ctx);
            continue;
        }
        st.live[k] = false;
        st.sessions[k] = false;
        // Claim flag clear + liveness masked: no worker will touch the
        // cell again, so its frame state is safe to snapshot here.
        let cell = &parts.cells[k];
        cell.shared
            .publish_single(ctx, cell.frame(), &env.results[k]);
        parts.pool.exit(ctx);
        d.live[k] = false;
        d.empty_since[k] = None;
        d.elastic.reaped += 1;
        let live_now = d.live.iter().filter(|&&l| l).count() as u32;
        d.elastic.events.push(ElasticEvent {
            at: now,
            arena: k as u16,
            kind: ElasticEventKind::Reaped,
            live: live_now,
        });
    }
}

// ---------------------------------------------------------------------------
// Shared worker pool
// ---------------------------------------------------------------------------

/// One arena's runtime state inside the pool. `frame` and `guard` are
/// mutated only by the worker that currently holds the arena's claim
/// flag (the director takes the claim as a fence while restoring).
pub(crate) struct ArenaCell {
    pub(crate) shared: Arc<ServerShared>,
    port: PortId,
    frame: UnsafeCell<FrameState>,
    /// Supervision state: checkpoint ring, fault lottery, overload
    /// stretch. Claim-protected exactly like `frame`.
    guard: UnsafeCell<ArenaGuard>,
}

/// Claim-protected supervision state of one arena.
pub(crate) struct ArenaGuard {
    /// Restore points, newest last.
    pub(crate) ring: CheckpointRing,
    /// Deterministic per-arena fault lottery (`None` = no injection).
    lottery: Option<FrameLottery>,
    /// Effective frame-interval multiplier (1 = real time, up to 8
    /// under sustained overrun).
    stretch: u32,
    /// Consecutive frames that overran the deadline.
    overruns: u32,
    /// Worker-side counters, merged into the directory's
    /// `SupervisorStats` by the last exiting worker.
    pub(crate) panics_caught: u64,
    shed_frames: u64,
    pub(crate) coalesced_moves: u64,
}

/// What the supervisor believes about one arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArenaFate {
    /// Running normally (or cold/reaped — fate only matters live).
    Healthy,
    /// A claimed frame panicked; the arena is fenced off (liveness
    /// masked, claim clear) awaiting restore.
    Crashed { at: Nanos },
    /// The watchdog caught a claimed frame overrunning; the claim is
    /// still held by the stuck worker, restore happens at release.
    Condemned { at: Nanos },
}

// SAFETY: `frame` and `guard` are accessed only between claim (set
// under the pool lock) and release by the claiming worker, by the
// director after masking liveness with the claim flag clear (reap) or
// after taking the claim itself as a restore fence, or by the last
// exiting worker after every claim flag is clear.
unsafe impl Sync for ArenaCell {}
unsafe impl Send for ArenaCell {}

impl ArenaCell {
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn frame(&self) -> &mut FrameState {
        // SAFETY: see type-level invariant.
        unsafe { &mut *self.frame.get() }
    }

    #[allow(clippy::mut_from_ref)]
    pub(crate) fn guard(&self) -> &mut ArenaGuard {
        // SAFETY: see type-level invariant.
        unsafe { &mut *self.guard.get() }
    }
}

pub(crate) struct PoolState {
    /// Arena k is currently being run by some worker (or fenced by the
    /// director during a restore).
    pub(crate) claimed: Vec<bool>,
    /// Arena k has a migration fence pending: workers must not take
    /// new claims on it, so the director can capture it at the current
    /// frame's boundary instead of racing a saturated arena that is
    /// claimed essentially all the time (see [`crate::migrate`]).
    pub(crate) fenced: Vec<bool>,
    /// Arena k accepts frames (cold, reaped and fated cells are
    /// masked; only the director flips these, except a crashing worker
    /// masking its own arena).
    pub(crate) live: Vec<bool>,
    /// Arena k had non-empty player slots after its last frame
    /// (written by the frame's worker while still owning the claim,
    /// read by the maintenance-due scan).
    pub(crate) sessions: Vec<bool>,
    /// When arena k's last frame finished (maintenance pacing).
    pub(crate) last_frame: Vec<Nanos>,
    /// Earliest time arena k may start its next frame: now, unless
    /// sustained overruns stretched it (supervised arenas only).
    pub(crate) next_due: Vec<Nanos>,
    /// When arena k's current claim was taken (watchdog clock).
    pub(crate) claim_started: Vec<Nanos>,
    /// Supervision fate per arena.
    pub(crate) fate: Vec<ArenaFate>,
    /// Round-robin scan start, for fairness across arenas.
    rotor: usize,
    /// Workers that have left the loop.
    exited: u32,
    frames_by_worker: Vec<u64>,
    frames_by_arena: Vec<u64>,
    idle_ns_by_worker: Vec<Nanos>,
    idle_timeouts_by_worker: Vec<u64>,
}

/// Pool scheduling state, guarded by the fabric lock `lock`. The lock
/// sits in the control layer (like the parallel server's frame-control
/// lock): it is never held while running a frame, so it can never rank
/// under a region lock.
pub(crate) struct Pool {
    pub(crate) lock: LockId,
    pub(crate) cond: CondId,
    state: UnsafeCell<PoolState>,
}

// SAFETY: `state` is only accessed while holding the fabric `lock`.
unsafe impl Sync for Pool {}
unsafe impl Send for Pool {}

impl Pool {
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn state(&self) -> &mut PoolState {
        // SAFETY: see type-level invariant.
        unsafe { &mut *self.state.get() }
    }

    /// Enter the pool-scheduling critical section.
    // lockcheck: acquire-site
    pub(crate) fn enter(&self, ctx: &TaskCtx) {
        ctx.lock(self.lock);
    }

    /// Leave the pool-scheduling critical section.
    // lockcheck: acquire-site
    pub(crate) fn exit(&self, ctx: &TaskCtx) {
        ctx.unlock(self.lock);
    }
}

/// The pool internals the director needs for spawn/reap and restore.
pub(crate) struct PoolParts {
    pub(crate) pool: Arc<Pool>,
    pub(crate) cells: Arc<Vec<Arc<ArenaCell>>>,
}

type PoolSpawn = (
    Vec<Vec<PortId>>,
    Vec<Arc<Mutex<ServerResults>>>,
    PoolParts,
    Arc<Mutex<PoolReport>>,
);

/// The modelled select timeout of an idle pooled worker on
/// `VirtualSmp`: it re-scans for runnable arenas at least this often.
/// Unused on fabrics that wake the pool on delivery
/// ([`Fabric::wake_on_delivery`], i.e. `RealFabric`) — there an idle
/// worker sleeps until a datagram, a pool event or a deadline the pool
/// itself owes (overload pacing, maintenance, end of run).
const POLL_NS: Nanos = 1_000_000;

/// A frame running longer than this (one client tick) counts as an
/// overrun for the graceful-degradation stretch, and is the unit a
/// stretched arena's frames are paced in.
const FRAME_DEADLINE_NS: Nanos = 30_000_000;

/// Checkpoints retained per arena ring.
const CHECKPOINT_DEPTH: usize = 4;

/// A supervised arena checkpoints every this-many frames, and on its
/// first claim, so restore always has a target.
pub const CHECKPOINT_INTERVAL: u32 = 64;

/// Per-run knobs every pool worker shares (one allocation, cloned
/// `Arc` per worker).
struct PoolRunCfg {
    end_time: Nanos,
    /// Whether idle waits need the [`POLL_NS`] bound: the fabric does
    /// not wake the pool on delivery.
    poll: bool,
    maintenance_ns: Nanos,
    supervised: bool,
}

fn spawn_pool(
    fabric: &Arc<dyn Fabric>,
    cfg: &ArenaDirectoryConfig,
    worlds: &[Arc<GameWorld>],
    lifecycle_port: PortId,
    supervisor: &Arc<Mutex<SupervisorStats>>,
) -> PoolSpawn {
    let workers = cfg.workers;
    assert!(workers >= 1, "pool needs at least one worker");
    let n = worlds.len();
    let boot = cfg.arenas as usize;
    // Maintenance frames keep session-holding arenas ticking without
    // input so despawns, reclaims and their notices cannot stall; on
    // automatically whenever the truth of "occupancy is zero" matters
    // (elastic fleet or inactivity reclaims configured).
    let maintenance_ns = if cfg.maintenance_ns > 0 {
        cfg.maintenance_ns
    } else if n > boot || cfg.server.client_timeout_ns > 0 {
        50_000_000
    } else {
        0
    };
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
        let lottery = if cfg.supervision {
            cfg.frame_faults
                .as_ref()
                .filter(|fc| fc.frame_faults_enabled())
                .map(|fc| FrameLottery::new(fc, k as u64))
        } else {
            None
        };
        if lottery.is_some() {
            install_quiet_panic_hook();
        }
        cells.push(Arc::new(ArenaCell {
            port: shared.ports[0],
            shared,
            frame: UnsafeCell::new(FrameState::default()),
            guard: UnsafeCell::new(ArenaGuard {
                ring: CheckpointRing::new(CHECKPOINT_DEPTH),
                lottery,
                stretch: 1,
                overruns: 0,
                panics_caught: 0,
                shed_frames: 0,
                coalesced_moves: 0,
            }),
        }));
    }

    let pool_lock = fabric.alloc_lock();
    if let Some(w) = fabric.witness() {
        w.classify(pool_lock, LockClass::Ctrl);
    }
    let pool = Arc::new(Pool {
        lock: pool_lock,
        cond: fabric.alloc_cond(),
        state: UnsafeCell::new(PoolState {
            claimed: vec![false; n],
            fenced: vec![false; n],
            live: (0..n).map(|k| k < boot).collect(),
            sessions: vec![false; n],
            last_frame: vec![0; n],
            next_due: vec![0; n],
            claim_started: vec![0; n],
            fate: vec![ArenaFate::Healthy; n],
            rotor: 0,
            exited: 0,
            frames_by_worker: vec![0; workers as usize],
            frames_by_arena: vec![0; n],
            idle_ns_by_worker: vec![0; workers as usize],
            idle_timeouts_by_worker: vec![0; workers as usize],
        }),
    });
    let report = Arc::new(Mutex::new(PoolReport::default()));
    // Event-driven idling: ask the fabric to ring the pool condvar on
    // every delivery to an arena port (the degenerate pool blocks on
    // its one port directly and has no use for it). Rule: never send
    // to an arena port between `pool.enter` and `pool.exit` — the
    // delivery passes through the pool lock, which is not re-entrant.
    // The director forwards outside that section and the gateway pumps
    // hold no fabric lock. One waiter is woken per delivery; the only
    // non-worker waiter, `migrate::capture_fence`, waits solely while a
    // worker holds a claim, and every claim release broadcasts.
    let degenerate = is_degenerate_pool(n, workers, maintenance_ns, cfg.supervision);
    let delivery_wakes = !degenerate
        && cells
            .iter()
            .all(|c| fabric.wake_on_delivery(c.port, pool.lock, pool.cond));

    let rcfg = Arc::new(PoolRunCfg {
        end_time: cfg.server.end_time,
        poll: !delivery_wakes,
        maintenance_ns,
        supervised: cfg.supervision,
    });
    let cells = Arc::new(cells);
    for w in 0..workers {
        let cells = cells.clone();
        let pool = pool.clone();
        let report = report.clone();
        let results = results.clone();
        let rcfg = rcfg.clone();
        let supervisor = supervisor.clone();
        fabric.spawn(
            &format!("arena-pool-{w}"),
            Some(w),
            Box::new(move |ctx| {
                pool_worker(
                    ctx,
                    w,
                    workers,
                    &cells,
                    &pool,
                    &rcfg,
                    &results,
                    &report,
                    &supervisor,
                )
            }),
        );
    }
    (ports, results, PoolParts { pool, cells }, report)
}

/// A 1×1 pool with nothing to tick and nothing to supervise runs the
/// sequential server's select loop instead of the scan.
fn is_degenerate_pool(
    arenas: usize,
    workers: u32,
    maintenance_ns: Nanos,
    supervised: bool,
) -> bool {
    arenas == 1 && workers == 1 && maintenance_ns == 0 && !supervised
}

#[allow(clippy::too_many_arguments)]
fn pool_worker(
    ctx: &TaskCtx,
    w: u32,
    workers: u32,
    cells: &[Arc<ArenaCell>],
    pool: &Pool,
    rcfg: &PoolRunCfg,
    results: &[Arc<Mutex<ServerResults>>],
    report: &Mutex<PoolReport>,
    supervisor: &Mutex<SupervisorStats>,
) {
    let n = cells.len();
    // A 1×1 pool with no maintenance ticking and no supervision runs
    // the sequential server's select loop itself: no scheduling lock,
    // no polling, so a default single-arena directory *is*
    // `ServerKind::Sequential`. Supervision opts out: its catch_unwind
    // wrapper, checkpoints and watchdog claim accounting all live in
    // the scan path.
    let mut degenerate_frames = 0u64;
    if is_degenerate_pool(n, workers, rcfg.maintenance_ns, rcfg.supervised) {
        let f = cells[0].frame();
        let before = f.frame_no;
        cells[0].shared.run_single_loop(ctx, f);
        degenerate_frames = (f.frame_no - before) as u64;
    } else {
        pool_worker_scan(ctx, w, cells, pool, rcfg);
    }

    // Exit protocol: the last worker out publishes per-arena results
    // and the pool report. Claim flags are all clear by then, so the
    // frame cells are safe to read.
    pool.enter(ctx);
    let st = pool.state();
    if degenerate_frames > 0 {
        st.frames_by_worker[0] += degenerate_frames;
        st.frames_by_arena[0] += degenerate_frames;
    }
    st.exited += 1;
    let last = st.exited == workers;
    if last {
        for (cell, result) in cells.iter().zip(results) {
            cell.shared.publish_single(ctx, cell.frame(), result);
        }
        let mut rep = report.lock().unwrap_or_else(PoisonError::into_inner); // lockcheck: allow(raw-sync: host-side pool report, last worker publishes alone)
        rep.frames_by_worker = st.frames_by_worker.clone();
        rep.frames_by_arena = st.frames_by_arena.clone();
        rep.idle_ns_by_worker = st.idle_ns_by_worker.clone();
        rep.idle_timeouts_by_worker = st.idle_timeouts_by_worker.clone();
        if rcfg.supervised {
            // Fold worker-side guard counters into the directory's
            // supervision report; the director contributes the
            // restore/watchdog side separately via `merge`.
            let mut sup = SupervisorStats::default();
            for cell in cells.iter() {
                let g = cell.guard();
                sup.panics_caught += g.panics_caught;
                sup.checkpoints_taken += g.ring.taken;
                sup.checkpoint_bytes += g.ring.bytes;
                sup.shed_frames += g.shed_frames;
                sup.coalesced_moves += g.coalesced_moves;
            }
            supervisor
                .lock() // lockcheck: allow(raw-sync: host-side supervision counters, merged at run end)
                .unwrap_or_else(PoisonError::into_inner)
                .merge(&sup);
        }
    }
    pool.exit(ctx);
}

/// The general pool scheduling loop: claim a due arena under the pool
/// lock, run its frame unlocked, release, repeat. Supervised frames
/// run behind `catch_unwind`: a panic fates only the panicking arena
/// (claim cleared, liveness masked, fate `Crashed`) and the worker
/// moves on to other arenas.
fn pool_worker_scan(
    ctx: &TaskCtx,
    w: u32,
    cells: &[Arc<ArenaCell>],
    pool: &Pool,
    rcfg: &PoolRunCfg,
) {
    let n = cells.len();
    loop {
        let now = ctx.now();
        if now >= rcfg.end_time {
            break;
        }
        pool.enter(ctx);
        // Scan from the rotor for an unclaimed live arena that is due
        // and has either input waiting or a maintenance frame owed.
        // `port_next_delivery` peeks without claiming the port, so the
        // scan is safe for ports the frame body will drain later.
        let mut pick = None;
        {
            let st = pool.state();
            for i in 0..n {
                let k = (st.rotor + i) % n;
                if st.claimed[k] || st.fenced[k] || !st.live[k] || st.next_due[k] > now {
                    continue;
                }
                let input =
                    matches!(ctx.fabric().port_next_delivery(cells[k].port), Some(t) if t <= now);
                let maint = rcfg.maintenance_ns > 0
                    && st.sessions[k]
                    && now >= st.last_frame[k] + rcfg.maintenance_ns;
                if input || maint {
                    pick = Some(k);
                    break;
                }
            }
            if let Some(k) = pick {
                st.claimed[k] = true;
                st.claim_started[k] = now;
                st.rotor = (k + 1) % n;
            }
        }
        match pick {
            Some(k) => {
                pool.exit(ctx);
                let cell = &cells[k];
                let panicked = if rcfg.supervised {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_arena_frame_supervised(ctx, cell)
                    }))
                    .is_err()
                } else {
                    run_arena_frame(ctx, cell, None);
                    false
                };
                if panicked {
                    // Still owning the claim: count on the cell, then
                    // fate the arena. The world may be mid-mutation —
                    // nothing touches it again until the director
                    // restores from the last checkpoint. Any fabric
                    // lock the frame still held is leaked for good —
                    // report it to the witness so the run fails on it.
                    if let Some(wit) = ctx.fabric().witness() {
                        wit.on_unwind(ctx.id(), ctx.now());
                    }
                    let g = cell.guard();
                    g.panics_caught += 1;
                    pool.enter(ctx);
                    let st = pool.state();
                    st.claimed[k] = false;
                    st.live[k] = false;
                    st.fate[k] = ArenaFate::Crashed { at: ctx.now() };
                    ctx.cond_broadcast(pool.cond);
                    pool.exit(ctx);
                    continue;
                }
                // Still owning the claim: record whether the arena has
                // resident sessions, for the maintenance-due scan, and
                // read the overload stretch for pacing.
                let has_sessions = {
                    let shared = &cell.shared;
                    (0..shared.clients.capacity())
                        .any(|i| shared.clients.slot(i).state != SlotState::Empty)
                };
                let stretch = if rcfg.supervised {
                    cell.guard().stretch
                } else {
                    1
                };
                pool.enter(ctx);
                let st = pool.state();
                st.claimed[k] = false;
                if matches!(st.fate[k], ArenaFate::Condemned { .. }) {
                    // The watchdog condemned this frame while it ran:
                    // leave the arena dead (liveness was masked at
                    // condemn time); the director restores it from
                    // checkpoint now that the claim is clear.
                } else {
                    // Frames are event-driven; graceful degradation
                    // paces a stretched arena at `stretch ×` the frame
                    // deadline.
                    let gap = if stretch > 1 {
                        FRAME_DEADLINE_NS * stretch as u64
                    } else {
                        0
                    };
                    st.next_due[k] = ctx.now() + gap;
                    st.last_frame[k] = ctx.now();
                    st.sessions[k] = has_sessions;
                }
                st.frames_by_worker[w as usize] += 1;
                st.frames_by_arena[k] += 1;
                // The arena is consumable again (it may already have
                // fresh input): wake idle workers to rescan.
                ctx.cond_broadcast(pool.cond);
                pool.exit(ctx);
            }
            None => {
                // Nothing runnable: sleep until the earliest moment an
                // arena could become runnable without anyone ringing
                // the condvar — queued input reaching its pacing or
                // delivery time, a maintenance frame coming due, the
                // end of the run — and, only where deliveries do not
                // ring it, the poll bound; then rescan.
                let st = pool.state();
                let mut deadline = if rcfg.poll {
                    now + POLL_NS
                } else {
                    rcfg.end_time
                };
                for (k, cell) in cells.iter().enumerate() {
                    if st.claimed[k] || st.fenced[k] || !st.live[k] {
                        continue;
                    }
                    if let Some(t) = ctx.fabric().port_next_delivery(cell.port) {
                        deadline = deadline.min(st.next_due[k].max(t));
                    }
                    if rcfg.maintenance_ns > 0 && st.sessions[k] {
                        deadline = deadline
                            .min(st.next_due[k].max(st.last_frame[k] + rcfg.maintenance_ns));
                    }
                }
                let deadline = deadline.min(rcfg.end_time).max(now + 1);
                let (waited, timed_out) = ctx.cond_wait_until(pool.cond, pool.lock, deadline);
                let st = pool.state();
                st.idle_ns_by_worker[w as usize] += waited;
                st.idle_timeouts_by_worker[w as usize] += timed_out as u64;
                pool.exit(ctx);
            }
        }
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
    let port = cell.port;
    let mut batch: Vec<(PortId, ClientMessage)> = Vec::new();
    loop {
        let t0 = ctx.now();
        let Some(raw) = ctx.try_recv(port) else {
            break;
        };
        ctx.charge(shared.cost.recv);
        stats.datagrams += 1;
        let decoded = ClientMessage::from_bytes(&raw.payload);
        stats.breakdown.add(Bucket::Receive, ctx.now() - t0);
        match decoded {
            Ok(msg) => batch.push((raw.from, msg)),
            Err(_) => stats.decode_rejected += 1,
        }
    }
    let mut newest: HashMap<u32, usize> = HashMap::new();
    for (i, (_, msg)) in batch.iter().enumerate() {
        if let ClientMessage::Move { client_id, .. } = msg {
            newest.insert(*client_id, i);
        }
    }
    let mut moves = 0u32;
    for (i, (from, msg)) in batch.into_iter().enumerate() {
        if let ClientMessage::Move { client_id, .. } = &msg {
            if newest.get(client_id) != Some(&i) {
                *coalesced_out += 1;
                continue;
            }
        }
        if shared.handle_message(ctx, ctx.now(), 0, from, msg, stats, frame_leaf_mask) {
            moves += 1;
        }
    }
    moves
}
