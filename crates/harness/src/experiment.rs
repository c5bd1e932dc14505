//! Run one measured server configuration.

use std::sync::Arc;

use parquake_bots::{spawn_swarm, BotBehavior, BotSwarmConfig};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{FabricKind, LockWitness, Nanos};
use parquake_metrics::{Breakdown, ResponseStats, WitnessReport};
use parquake_server::{spawn_server, ServerConfig, ServerKind, ServerResults};
use parquake_sim::GameWorld;

/// How long a server keeps serving after its bots stop sending, so the
/// final requests drain: the bots' send window is `end_time − DRAIN_NS`.
pub const DRAIN_NS: Nanos = 500_000_000;

/// One experiment configuration (a single bar/point in a figure): the
/// server configuration under test, plus the world and the bot swarm
/// that drive it.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of automatic players.
    pub players: u32,
    /// Server under test. Its `end_time` fixes the run length: the bots
    /// send for [`ExperimentConfig::duration_ns`], then the server
    /// drains for [`DRAIN_NS`].
    pub server: ServerConfig,
    /// Map generator settings.
    pub map: MapGenConfig,
    /// Areanode tree depth (4 ⇒ the paper's default 31 nodes).
    pub areanode_depth: u32,
    /// Execution platform.
    pub fabric: FabricKind,
    /// Bot behaviour mix.
    pub behavior: BotBehavior,
    /// Workload seed (bots) — map seed lives in `map`.
    pub seed: u64,
    /// Bot driver tasks (client machines).
    pub bot_drivers: u32,
    /// Override the world's maximum view distance (`None` keeps the
    /// world default) — interest figures shrink it so view extents
    /// cover only part of a big map.
    pub view_dist: Option<f32>,
}

impl ExperimentConfig {
    /// `players` bots against a `kind` server for `duration_ns` of
    /// sending, on the default map, fabric and bot mix.
    pub fn new(players: u32, kind: ServerKind, duration_ns: Nanos) -> ExperimentConfig {
        ExperimentConfig {
            players,
            server: ServerConfig::new(kind, duration_ns + DRAIN_NS),
            map: MapGenConfig::large_arena(0x6D_6D_31),
            areanode_depth: 4,
            fabric: FabricKind::VirtualSmp(Default::default()),
            behavior: BotBehavior::deathmatch(),
            seed: 0xB07_5EED,
            bot_drivers: 8,
            view_dist: None,
        }
    }

    /// The measured window: how long the bots send.
    pub fn duration_ns(&self) -> Nanos {
        self.server.end_time.saturating_sub(DRAIN_NS)
    }
}

/// Result of one experiment.
pub struct Outcome {
    pub server: ServerResults,
    pub response: ResponseStats,
    /// Bots that completed the connection handshake.
    pub connected: u32,
    /// The measured window (bots' send window).
    pub duration_ns: Nanos,
    /// Hash of the final world state (determinism checks).
    pub world_hash: u64,
    /// The final world state (scoreboards, item states, positions).
    pub world: Arc<GameWorld>,
    /// Lock-discipline witness report (present when `checking` was on).
    pub witness: Option<WitnessReport>,
}

impl Outcome {
    /// Total server response rate, replies/second (Fig 4b/5b/6b).
    pub fn response_rate(&self) -> f64 {
        self.response.response_rate(self.duration_ns)
    }

    /// Average response time in ms (Fig 4c/5c/6c).
    pub fn avg_response_ms(&self) -> f64 {
        self.response.avg_latency_ms()
    }

    /// Average per-thread execution breakdown (Fig 4a/5a/6a).
    pub fn breakdown(&self) -> Breakdown {
        self.server.average_breakdown()
    }
}

/// A configured, runnable experiment.
pub struct Experiment {
    pub cfg: ExperimentConfig,
}

impl Experiment {
    pub fn new(cfg: ExperimentConfig) -> Experiment {
        Experiment { cfg }
    }

    /// Build the world, spawn server and swarm, run the fabric to
    /// completion and collect every metric.
    pub fn run(&self) -> Outcome {
        let cfg = &self.cfg;
        let map = Arc::new(cfg.map.generate());
        let mut world = GameWorld::new(map, cfg.areanode_depth, cfg.players.max(1) as u16);
        if let Some(d) = cfg.view_dist {
            world.max_view_dist = d;
        }
        let world = Arc::new(world);
        let fabric = cfg.fabric.build();

        // Checking runs also carry the lock-order witness: every fabric
        // lock operation is checked against the region-locking
        // discipline and the report lands in the outcome.
        let witness = if cfg.server.checking {
            let w = Arc::new(LockWitness::new());
            fabric.attach_witness(w.clone());
            Some(w)
        } else {
            None
        };

        let server = spawn_server(&fabric, cfg.server.clone(), world.clone());

        let swarm_cfg = BotSwarmConfig {
            drivers: cfg.bot_drivers,
            seed: cfg.seed,
            behavior: cfg.behavior.clone(),
            ..BotSwarmConfig::new(cfg.players, cfg.duration_ns())
        };
        let spt = server.slots_per_thread;
        let swarm = spawn_swarm(&fabric, &swarm_cfg, &server.ports, move |client| {
            (client / spt) as usize
        });

        fabric.run();

        let results = server.results.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after fabric.run() returned, no tasks alive)
        let bots = swarm.report();
        Outcome {
            server: results,
            response: bots.stats,
            connected: bots.connected,
            duration_ns: cfg.duration_ns(),
            world_hash: world.world_hash(),
            world,
            witness: witness.map(|w| w.report()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_metrics::Bucket;
    use parquake_server::{InterestMode, LockPolicy};

    fn quick(players: u32, server: ServerKind) -> ExperimentConfig {
        ExperimentConfig {
            map: MapGenConfig::small_arena(7),
            bot_drivers: 4,
            ..ExperimentConfig::new(players, server, 2_000_000_000)
        }
    }

    #[test]
    fn sequential_smoke() {
        let out = Experiment::new(quick(8, ServerKind::Sequential)).run();
        assert_eq!(out.connected, 8, "all bots must connect");
        assert!(
            out.response.received > 100,
            "replies: {}",
            out.response.received
        );
        assert!(out.server.frame_count > 10);
        let bd = out.breakdown();
        assert!(bd.get(Bucket::Reply) > 0);
        assert!(bd.get(Bucket::Exec) > 0);
        // The sequential server takes no locks at all.
        assert_eq!(bd.get(Bucket::Lock), 0);
    }

    #[test]
    fn an_index_is_built_only_for_frames_that_owe_a_reply() {
        let mut cfg = quick(8, ServerKind::Sequential);
        cfg.server.interest = InterestMode::SweepOracle;
        let out = Experiment::new(cfg).run();
        assert_eq!(out.connected, 8);
        let timeline = &out.server.timeline;
        assert_eq!(timeline.total_frames, timeline.len() as u64, "clipped");
        let with_moves = timeline.samples().iter().filter(|f| f.requests > 0).count();
        let ist = &out.server.interest;
        // The connect-only frames index nothing.
        assert!(
            (with_moves as u64) < out.server.frame_count,
            "{with_moves} of {} frames",
            out.server.frame_count
        );
        assert_eq!(ist.frames, with_moves as u64, "{ist:?}");
        assert!(ist.oracle_checked > 100 && ist.oracle_mismatches == 0);
    }

    #[test]
    fn parallel_smoke() {
        let mut cfg = quick(
            8,
            ServerKind::Parallel {
                threads: 2,
                locking: LockPolicy::Baseline,
            },
        );
        // The witness is asserted on below, in release builds too.
        cfg.server.checking = true;
        let out = Experiment::new(cfg).run();
        assert_eq!(out.connected, 8);
        assert!(out.response.received > 100);
        assert_eq!(out.server.threads.len(), 2);
        let report = out.witness.expect("checking runs carry a witness report");
        assert!(report.acquisitions > 0);
        report.assert_clean("parallel_smoke");
    }

    #[test]
    fn determinism_on_virtual_fabric() {
        let run = || {
            let out = Experiment::new(quick(6, ServerKind::Sequential)).run();
            (out.response.received, out.world_hash)
        };
        assert_eq!(run(), run());
    }

    /// The run length is stated once, as the server's `end_time`: the
    /// outcome's window is the bots' send window, which leaves the
    /// server `DRAIN_NS` to answer the last moves.
    #[test]
    fn the_measured_window_is_the_bots_send_window() {
        let cfg = quick(8, ServerKind::Sequential);
        assert_eq!(cfg.server.end_time, 2_000_000_000 + DRAIN_NS);
        let out = Experiment::new(cfg).run();
        assert_eq!(out.duration_ns, 2_000_000_000);
        // Every bot sends one move per 30 ms client frame, from its
        // connect until the window closes — never into the drain.
        let per_bot = out.response.sent as f64 / 8.0;
        let ticks = out.duration_ns as f64 / 30e6;
        assert!(
            per_bot <= ticks + 2.0 && per_bot >= 0.9 * ticks,
            "{per_bot:.1} moves per bot in a {ticks:.1}-frame window"
        );
        // And the server answers the last of them inside the drain.
        let last_move = out
            .server
            .timeline
            .samples()
            .iter()
            .filter(|f| f.requests > 0)
            .map(|f| f.start_ns)
            .max()
            .unwrap();
        assert!(last_move >= out.duration_ns - 60_000_000, "{last_move}");
        assert!(last_move < out.duration_ns + DRAIN_NS / 5, "{last_move}");
    }
}
