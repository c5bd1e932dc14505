//! Run one measured multi-arena configuration.
//!
//! The single-world [`crate::experiment::Experiment`] answers "how fast
//! is one world at N players?"; this module answers the deployment
//! question "how should one machine carve its processors across many
//! worlds?" — same fabric, same bots, same cost model, with the arena
//! directory between them.

use std::sync::Arc;

use parquake_arena::{spawn_directory, AdmissionStats, ArenaDirectoryConfig, PoolReport};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmRamp, SwarmTopology};
use parquake_fabric::{FabricKind, LockWitness, Nanos};
use parquake_metrics::{rollup, ArenaLoad, ElasticStats, SupervisorStats, WitnessReport};
use parquake_server::{ServerConfig, ServerKind};

use crate::experiment::DRAIN_NS;

/// One multi-arena configuration (a row of the arenasweep figure): the
/// directory under test, plus the bot swarm that drives it.
#[derive(Clone, Debug)]
pub struct ArenaExperimentConfig {
    /// Total bots across all arenas.
    pub players: u32,
    /// Directory under test. Its server template's `end_time` fixes the
    /// run length: the bots send for
    /// [`ArenaExperimentConfig::duration_ns`], then the arenas drain
    /// for [`DRAIN_NS`].
    pub directory: ArenaDirectoryConfig,
    /// Execution platform.
    pub fabric: FabricKind,
    /// Bot population ramp (`None` = everyone plays the whole run).
    pub ramp: Option<SwarmRamp>,
    /// Arena every bot requests at connect time (`None` = spread
    /// requests `c % arenas`). `Some(k)` with the `Explicit` policy
    /// creates a deliberately skewed load — the shape migration
    /// rebalances.
    pub request_arena: Option<u16>,
    /// Client-side prediction: bots run the shared movement kernel on
    /// the (identical) generated map, send the input-seq trailer, and
    /// reconcile against the server's trailered replies.
    pub predict: bool,
}

impl ArenaExperimentConfig {
    /// `players` bots spread evenly over `arenas` pooled sequential
    /// arenas for `duration_ns` of sending, on the directory's default
    /// map, pool and policy.
    pub fn new(players: u32, arenas: u32, duration_ns: Nanos) -> ArenaExperimentConfig {
        let server = ServerConfig::new(ServerKind::Sequential, duration_ns + DRAIN_NS);
        let slots_per_arena = players.div_ceil(arenas).max(1) as u16;
        ArenaExperimentConfig {
            players,
            directory: ArenaDirectoryConfig::new(arenas, slots_per_arena, server),
            fabric: FabricKind::VirtualSmp(Default::default()),
            ramp: None,
            request_arena: None,
            predict: false,
        }
    }

    /// The measured window: how long the bots send.
    pub fn duration_ns(&self) -> Nanos {
        self.directory.server.end_time.saturating_sub(DRAIN_NS)
    }
}

/// Result of one multi-arena run.
pub struct ArenaOutcome {
    /// One load summary per arena (server + client side).
    pub per_arena: Vec<ArenaLoad>,
    /// The machine-level rollup of `per_arena`.
    pub aggregate: ArenaLoad,
    /// Front-door routing counters.
    pub admission: AdmissionStats,
    /// Pool accounting (pooled scheduling only).
    pub pool: Option<PoolReport>,
    /// Bots that completed the connection handshake.
    pub connected: u32,
    /// The measured window (bots' send window).
    pub duration_ns: Nanos,
    /// Final world hash per arena (determinism checks).
    pub world_hashes: Vec<u64>,
    /// Lock-discipline witness report (present when `checking` was on).
    pub witness: Option<WitnessReport>,
    /// Elastic spawn/reap accounting (boot fleet only ⇒ no events).
    pub elastic: ElasticStats,
    /// Supervision accounting (all-zero when supervision is off).
    pub supervisor: SupervisorStats,
    /// Bots that followed a cross-arena re-ack to a new world (client
    /// side of `supervisor.migrations`).
    pub rehomed: u64,
    /// Merged client prediction/reconciliation statistics (all zeros
    /// when `predict` was off).
    pub prediction: parquake_metrics::PredictionStats,
    /// Unacked inputs still in client rings at shutdown — the
    /// `in_flight` term of the prediction ledger.
    pub predict_in_flight: u64,
}

impl ArenaOutcome {
    /// Aggregate response rate across every arena, replies/second.
    pub fn response_rate(&self) -> f64 {
        self.aggregate.response_rate(self.duration_ns)
    }

    /// Aggregate average response time in ms.
    pub fn avg_response_ms(&self) -> f64 {
        self.aggregate.avg_response_ms()
    }
}

/// A configured, runnable multi-arena experiment.
pub struct ArenaExperiment {
    pub cfg: ArenaExperimentConfig,
}

impl ArenaExperiment {
    pub fn new(cfg: ArenaExperimentConfig) -> ArenaExperiment {
        ArenaExperiment { cfg }
    }

    /// Spawn directory + swarm, run the fabric to completion and
    /// collect per-arena and aggregate metrics.
    pub fn run(&self) -> ArenaOutcome {
        let cfg = &self.cfg;
        let fabric = cfg.fabric.build();

        let witness = if cfg.directory.server.checking {
            let w = Arc::new(LockWitness::new());
            fabric.attach_witness(w.clone());
            Some(w)
        } else {
            None
        };

        let handle = spawn_directory(&fabric, cfg.directory.clone());

        // Bots spread across arenas by requesting arena `c % arenas`
        // through the front door; the Explicit default honours the
        // spread, other policies use it as a hint only.
        let swarm_cfg = BotSwarmConfig {
            ramp: cfg.ramp,
            // The directory's arenas all share one compiled map, so
            // predicting bots borrow arena 0's — bit-identical to what
            // the server kernels run against.
            predict: cfg
                .predict
                .then(|| parquake_bots::PredictMap(handle.worlds[0].map.clone())),
            ..BotSwarmConfig::new(cfg.players, cfg.duration_ns())
        };
        let topology = SwarmTopology {
            arena_ports: handle.arena_ports.clone(),
            connect_port: Some(handle.front_port),
        };
        let arenas = cfg.directory.arenas;
        let req = cfg.request_arena;
        let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, move |c| {
            (req.unwrap_or((c % arenas) as u16), 0)
        });

        fabric.run();

        let admission = handle.admission.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
        let bots = swarm.report();
        // Cover every arena cell the directory provisioned — an
        // elastic run has result rows past the boot fleet.
        let per_arena: Vec<ArenaLoad> = (0..handle.results.len())
            .map(|k| {
                let r = handle.results[k].lock().unwrap(); // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
                let m = r.merged();
                ArenaLoad {
                    arena: k as u16,
                    frames: r.frame_count,
                    replies: m.replies,
                    requests: m.requests,
                    datagrams: m.datagrams,
                    admitted: admission.per_arena.get(k).copied().unwrap_or(0),
                    response: bots.per_arena.get(k).cloned().unwrap_or_default(),
                }
            })
            .collect();
        let aggregate = rollup(&per_arena);
        let elastic = handle.elastic.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
        let supervisor = handle.supervisor.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)

        ArenaOutcome {
            aggregate,
            per_arena,
            pool: handle.pool.as_ref().map(|p| p.lock().unwrap().clone()), // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
            admission,
            connected: bots.connected,
            duration_ns: cfg.duration_ns(),
            world_hashes: handle.worlds.iter().map(|w| w.world_hash()).collect(),
            witness: witness.map(|w| w.report()),
            elastic,
            supervisor,
            rehomed: bots.rehomed,
            prediction: bots.prediction,
            predict_in_flight: bots.predict_in_flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_bsp::mapgen::MapGenConfig;

    fn quick(players: u32, arenas: u32, workers: u32) -> ArenaExperimentConfig {
        let mut cfg = ArenaExperimentConfig::new(players, arenas, 2_000_000_000);
        cfg.directory.workers = workers;
        cfg.directory.map = MapGenConfig::small_arena(7);
        cfg.directory.server.checking = true;
        cfg
    }

    #[test]
    fn multi_arena_run_accounts_cleanly() {
        let out = ArenaExperiment::new(quick(24, 3, 2)).run();
        assert_eq!(out.connected, 24);
        assert_eq!(out.per_arena.len(), 3);
        // Every arena served its share.
        for a in &out.per_arena {
            assert!(a.frames > 0, "arena {} idle", a.arena);
            assert!(a.response.received > 0, "arena {} unheard", a.arena);
        }
        // The rollup is the sum of the parts.
        let replies: u64 = out.per_arena.iter().map(|a| a.replies).sum();
        assert_eq!(out.aggregate.replies, replies);
        assert_eq!(out.admission.routed, out.admission.per_arena.iter().sum());
        assert_eq!(out.admission.rejected_full, 0);
        // The witness watched the pool lock and stayed happy.
        let report = out.witness.expect("checking was on");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ArenaExperiment::new(quick(12, 2, 2)).run();
        let b = ArenaExperiment::new(quick(12, 2, 2)).run();
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
        assert_eq!(a.aggregate.frames, b.aggregate.frames);
    }

    /// End-to-end prediction: a predicting swarm against a real
    /// directory-run server. The divergence oracle must fire (clean
    /// windows exist) and never mismatch — client kernel, server
    /// kernel, and the wire trailer all agree bit-for-bit — and the
    /// prediction ledger must close.
    #[test]
    fn predicting_swarm_agrees_with_server_bit_for_bit() {
        let mut cfg = quick(12, 1, 2);
        cfg.predict = true;
        let out = ArenaExperiment::new(cfg).run();
        assert_eq!(out.connected, 12);
        let p = &out.prediction;
        assert!(p.predicted > 200, "predicted only {}", p.predicted);
        assert!(p.reconciled > 0);
        assert!(p.oracle_checks > 0, "oracle never armed");
        assert_eq!(p.oracle_mismatches, 0, "prediction kernel diverged");
        assert!(
            p.closed(out.predict_in_flight),
            "ledger leak: predicted {} != judged {} + dropped {} + in flight {}",
            p.predicted,
            p.judged,
            p.dropped,
            out.predict_in_flight
        );
    }

    /// Prediction under the legacy fabric stays wire-compatible: a
    /// legacy (non-predicting) swarm on the same build produces
    /// all-zero prediction stats and the same clean accounting.
    #[test]
    fn legacy_swarm_reports_zero_prediction_stats() {
        let out = ArenaExperiment::new(quick(8, 1, 2)).run();
        assert_eq!(out.prediction.predicted, 0);
        assert_eq!(out.predict_in_flight, 0);
    }

    /// The run length is stated once, as the server template's
    /// `end_time`: the outcome's window is the bots' send window, which
    /// leaves the arenas `DRAIN_NS` to answer the last moves.
    #[test]
    fn the_measured_window_is_the_bots_send_window() {
        let cfg = quick(12, 2, 2);
        assert_eq!(cfg.directory.server.end_time, 2_000_000_000 + DRAIN_NS);
        assert_eq!(cfg.directory.slots_per_arena, 6);
        let out = ArenaExperiment::new(cfg).run();
        assert_eq!(out.duration_ns, 2_000_000_000);
        // Every bot sends one move per 30 ms client frame, from its
        // connect until the window closes — never into the drain.
        let per_bot = out.aggregate.response.sent as f64 / 12.0;
        let ticks = out.duration_ns as f64 / 30e6;
        assert!(
            per_bot <= ticks + 2.0 && per_bot >= 0.9 * ticks,
            "{per_bot:.1} moves per bot in a {ticks:.1}-frame window"
        );
    }
}
