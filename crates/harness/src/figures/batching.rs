//! Request batching — the improvement the paper proposes but leaves as
//! future work (§5.2): "the frame master thread can wait for a period
//! of time before starting the frame", so requests that are in flight
//! join the frame instead of missing it and waiting a whole frame.
//!
//! This module implements and evaluates it: a sweep over batching
//! windows at a fixed (near-saturation) load, reporting inter-frame
//! wait, response rate and response time.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_metrics::report::{f, numeric_table};
use parquake_metrics::Bucket;
use parquake_server::{LockPolicy, ServerKind};

use crate::experiment::{Experiment, ExperimentConfig};
use crate::figures::common::SweepOpts;

/// Batching windows swept (milliseconds).
pub const WINDOWS_MS: [u64; 5] = [0, 2, 5, 10, 15];

/// Run the batching study.
pub fn run(opts: &SweepOpts) -> String {
    let players = if opts.players.contains(&144) {
        144
    } else {
        *opts.players.last().unwrap_or(&144)
    };
    let mut rows = Vec::new();
    for window_ms in WINDOWS_MS {
        let kind = ServerKind::Parallel {
            threads: 8,
            locking: LockPolicy::Optimized,
        };
        let mut cfg = ExperimentConfig {
            map: MapGenConfig::eval_arena(opts.seed),
            ..ExperimentConfig::new(players, kind, (opts.duration_secs * 1e9) as u64)
        };
        cfg.server.frame_batch_ns = window_ms * 1_000_000;
        cfg.server.checking = false;
        let out = Experiment::new(cfg).run();
        let bd = out.server.merged().breakdown;
        let fs = &out.server.frames;
        let parts = if fs.frames > 0 {
            fs.participants_sum as f64 / fs.frames as f64
        } else {
            0.0
        };
        rows.push(vec![
            format!("{window_ms} ms"),
            f(out.response_rate(), 0),
            f(out.avg_response_ms(), 1),
            f(bd.fraction_non_idle(Bucket::InterWait) * 100.0, 1),
            f(bd.fraction_non_idle(Bucket::IntraWait) * 100.0, 1),
            f(parts, 2),
            out.server.frame_count.to_string(),
        ]);
    }
    let mut s =
        format!("== Request batching (paper 5.2 future work; 8 threads, {players} players) ==\n\n");
    s.push_str(&numeric_table(
        &[
            "batch window",
            "replies/s",
            "resp-ms",
            "interwait%ni",
            "intrawait%ni",
            "participants/frame",
            "frames",
        ],
        &rows,
    ));
    s.push_str(
        "\nLarger windows gather more threads per frame (participants\n\
         approach the thread count and intra-frame waits shrink), but\n\
         joiners spend the window parked at the world gate — accounted\n\
         as inter-frame wait — and response time grows by roughly the\n\
         window. Batching trades latency for synchrony; it does not\n\
         raise peak throughput. This is the quantified version of the\n\
         trade-off the paper anticipated when it deferred the idea.\n",
    );
    s
}
