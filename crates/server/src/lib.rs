//! The `parquake` game servers — the paper's contribution.
//!
//! Two server implementations share one simulation substrate:
//!
//! * [`seq`] — the **sequential server** (paper §2.1): one thread,
//!   select-driven frames of *world physics → request processing →
//!   reply processing*, no locks.
//! * [`par`] — the **parallel server** (paper §3): N worker threads,
//!   one private UDP-style port each, static block assignment of
//!   players to threads, frames separated by global synchronization
//!   (the first thread out of `select` becomes the frame *master* and
//!   runs the world update), and region locking over the areanode tree
//!   during request processing.
//!
//! Locking policies (paper §3.3 / §4.3) are selected by [`LockPolicy`]:
//!
//! * `Baseline` — conservative: short-range moves lock the leaves
//!   overlapping the (slightly inflated) move bounding box; any move
//!   with a long-range action locks the *entire map*.
//! * `Optimized` — long-range actions lock only the *directional* beam
//!   region (hitscan) or an *expanded* bounding box (thrown
//!   projectiles).
//!
//! All synchronization goes through a [`parquake_fabric::Fabric`], so
//! the same server runs on real threads or on the deterministic
//! virtual-time SMP simulator, and every lock wait and barrier wait is
//! measured in the paper's own breakdown taxonomy.

pub mod clients;
pub mod cost;
pub mod exec;
pub mod lifecycle;
pub mod par;
pub mod runtime;
pub mod seq;
pub mod visibility_reply;

use std::sync::{Arc, Mutex};

use parquake_fabric::{Fabric, Nanos, PortId};
use parquake_interest::InterestStats;
use parquake_metrics::{FrameStats, ThreadStats, Timeline};
use parquake_sim::GameWorld;

pub use cost::CostModel;
pub use lifecycle::LifecycleEvent;
pub use parquake_interest::InterestMode;

/// Which object-lock policy the parallel server uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockPolicy {
    /// Conservative locking (paper §3.3): whole-map locks for
    /// long-range interactions.
    Baseline,
    /// Game-knowledge locking (paper §4.3): expanded and directional
    /// bounding-box locks.
    Optimized,
    /// This reproduction's implementation of the paper's §5.1 future
    /// work ("restructuring move execution … to allow threads to lock
    /// regions once per request"): the optimized region for the whole
    /// request — motion box plus a conservatively pre-inflated action
    /// region — is computed up front and locked exactly once, so no
    /// leaf is ever re-locked within a request.
    OnePass,
}

/// How player slots map to server threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// The paper's measured scheme (§3.1): players are block-assigned
    /// to threads at connect time and never move.
    Static,
    /// The paper's §5.1 future work: every `period_frames` frames, the
    /// master re-clusters players by the areanode leaf they occupy and
    /// steers each client (via its replies) to the thread owning that
    /// region, so threads mostly lock disjoint regions.
    RegionAffine { period_frames: u32 },
}

/// Which server to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerKind {
    /// The original single-threaded server.
    Sequential,
    /// The multithreaded server.
    Parallel { threads: u32, locking: LockPolicy },
}

impl ServerKind {
    /// Number of server threads (1 for sequential).
    pub fn threads(&self) -> u32 {
        match self {
            ServerKind::Sequential => 1,
            ServerKind::Parallel { threads, .. } => *threads,
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub kind: ServerKind,
    /// Stop serving at this fabric time.
    pub end_time: Nanos,
    /// Cost model for charged work.
    pub cost: CostModel,
    /// Enable the dynamic lock/claim protocol checkers (slower; on by
    /// default in debug builds).
    pub checking: bool,
    /// Request batching window (paper §5.2 future work): the frame
    /// master waits up to this long before the world update so that
    /// more threads join the frame instead of missing it. The window
    /// closes as soon as every thread has joined, so it only costs
    /// latency while some thread is still missing (and nothing on a
    /// 1-thread server). 0 = the paper's measured behaviour.
    pub frame_batch_ns: Nanos,
    /// Player-to-thread assignment scheme.
    pub assignment: Assignment,
    /// QuakeWorld-style delta compression of reply entity state
    /// (extension; off reproduces the paper's full-state replies).
    pub delta_compression: bool,
    /// How reply interest sets are computed: the paper's per-client
    /// scan, the batch DDM sweep, or the sweep shadowed by the
    /// brute-force oracle (extension).
    pub interest: InterestMode,
    /// Reclaim a slot whose client has been silent this long
    /// (a `Bye` is sent and the player despawned). 0 = never.
    pub client_timeout_ns: Nanos,
    /// Which arena this runtime is (multi-arena directories give each
    /// world instance its own id; standalone servers are arena 0). The
    /// id is echoed in every `ConnectAck` so clients learn their
    /// placement; arena 0 keeps the ack byte-identical to the
    /// pre-arena wire format.
    pub arena_id: u16,
    /// Control port for [`LifecycleEvent`] notifications (connect
    /// accepted / disconnect / inactivity reclaim / reject). `None`
    /// (the default) disables them; a multi-arena directory sets this
    /// so its occupancy ledger tracks server-side slot churn. Notices
    /// are sent uncharged, so game-path timing is unaffected.
    pub lifecycle_port: Option<PortId>,
    /// Inert, and [`runtime::ServerShared::new`] refuses `true`: the
    /// arena pool supervises frames, no server runtime does. Kept only
    /// because the frozen benchmark (`wallbench/src/mirror.rs`) names
    /// it; goes with the mirror (ROADMAP item 1e).
    pub catch_panics: bool,
}

impl ServerConfig {
    pub fn new(kind: ServerKind, end_time: Nanos) -> ServerConfig {
        ServerConfig {
            kind,
            end_time,
            cost: CostModel::default(),
            checking: cfg!(debug_assertions),
            frame_batch_ns: 0,
            assignment: Assignment::Static,
            delta_compression: false,
            interest: InterestMode::Scan,
            client_timeout_ns: 0,
            arena_id: 0,
            lifecycle_port: None,
            catch_panics: false,
        }
    }
}

/// Results published by the server tasks when the run ends.
#[derive(Clone, Debug, Default)]
pub struct ServerResults {
    /// One entry per server thread.
    pub threads: Vec<ThreadStats>,
    /// Whole-server frame statistics.
    pub frames: FrameStats,
    /// Server frames executed.
    pub frame_count: u64,
    /// Leaf count of the areanode tree (for percentage denominators).
    pub leaf_count: u64,
    /// Per-frame time series (first ~4096 frames).
    pub timeline: Timeline,
    /// Batch interest-matching counters (all zero under
    /// [`InterestMode::Scan`]).
    pub interest: InterestStats,
}

impl ServerResults {
    /// Merged thread stats (sums).
    pub fn merged(&self) -> ThreadStats {
        let mut total = ThreadStats::new();
        for t in &self.threads {
            total.merge(t);
        }
        total
    }

    /// Average per-thread breakdown (the paper's per-config bar).
    pub fn average_breakdown(&self) -> parquake_metrics::Breakdown {
        parquake_metrics::Breakdown::average(self.threads.iter().map(|t| &t.breakdown))
    }
}

/// A spawned (not yet running) server: its request ports and the slot
/// where results will appear after `fabric.run()` completes.
pub struct ServerHandle {
    /// Request port of each server thread; clients of slot `s` must
    /// send to `ports[thread_of(s)]`.
    pub ports: Vec<PortId>,
    /// Filled in when the server tasks finish.
    pub results: Arc<Mutex<ServerResults>>,
    /// Player-slot → thread assignment (block partition, paper §3.1).
    pub slots_per_thread: u32,
}

impl ServerHandle {
    /// The thread that owns player slot `slot`.
    pub fn thread_of(&self, slot: u32) -> u32 {
        (slot / self.slots_per_thread).min(self.ports.len() as u32 - 1)
    }

    /// The port to which slot `slot`'s requests must go.
    pub fn port_of(&self, slot: u32) -> PortId {
        self.ports[self.thread_of(slot) as usize]
    }
}

/// Spawn the configured server onto `fabric`, serving `world`.
pub fn spawn_server(
    fabric: &Arc<dyn Fabric>,
    cfg: ServerConfig,
    world: Arc<GameWorld>,
) -> ServerHandle {
    match cfg.kind {
        ServerKind::Sequential => seq::spawn_sequential(fabric, cfg, world),
        ServerKind::Parallel { .. } => par::spawn_parallel(fabric, cfg, world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_kind_threads() {
        assert_eq!(ServerKind::Sequential.threads(), 1);
        assert_eq!(
            ServerKind::Parallel {
                threads: 8,
                locking: LockPolicy::Baseline
            }
            .threads(),
            8
        );
    }

    #[test]
    fn handle_slot_assignment_is_block() {
        let handle = ServerHandle {
            ports: vec![0, 1, 2, 3],
            results: Arc::new(Mutex::new(ServerResults::default())),
            slots_per_thread: 40,
        };
        assert_eq!(handle.thread_of(0), 0);
        assert_eq!(handle.thread_of(39), 0);
        assert_eq!(handle.thread_of(40), 1);
        assert_eq!(handle.thread_of(159), 3);
        // Out-of-range slots clamp to the last thread.
        assert_eq!(handle.thread_of(1000), 3);
    }
}
