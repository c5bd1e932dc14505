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

use crate::experiment::{Experiment, ExperimentConfig, Outcome};
use crate::figures::common::SweepOpts;

/// Batching windows swept (milliseconds).
pub const WINDOWS_MS: [u64; 5] = [0, 2, 5, 10, 15];
/// The study's load when the sweep includes it.
const PLAYERS: u32 = 144;

/// Run 8 optimized threads at `players` with a `window_ms` batching
/// window.
fn measure(players: u32, window_ms: u64, opts: &SweepOpts) -> Outcome {
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
    Experiment::new(cfg).run()
}

/// Run the batching study.
pub fn run(opts: &SweepOpts) -> String {
    let players = if opts.players.contains(&PLAYERS) {
        PLAYERS
    } else {
        *opts.players.last().unwrap_or(&PLAYERS)
    };
    let mut rows = Vec::new();
    for window_ms in WINDOWS_MS {
        let out = measure(players, window_ms, opts);
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
         approach the thread count); joiners wait at the world gate,\n\
         accounted as inter-frame wait. The master's window closes the\n\
         moment the last thread joins, so once every thread makes it\n\
         into the frame a wider window changes nothing: response time\n\
         stops growing with the window, at what it takes the last\n\
         thread to arrive. Batching buys synchrony with that latency;\n\
         it does not raise peak throughput. This is the quantified\n\
         version of the trade-off the paper anticipated when it\n\
         deferred the idea.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window closes when the last thread joins: past the width at
    /// which every thread makes it into the frame (5 ms at this load),
    /// response time no longer follows the window.
    #[test]
    fn response_time_stops_growing_once_every_thread_joins() {
        let opts = SweepOpts {
            duration_secs: 1.0,
            ..SweepOpts::default()
        };
        let widest = *WINDOWS_MS.last().unwrap();
        let at5 = measure(PLAYERS, 5, &opts).avg_response_ms();
        let wide = measure(PLAYERS, widest, &opts).avg_response_ms();
        assert!(
            (wide - at5).abs() <= 1.0,
            "resp-ms {wide:.2} at {widest} ms against {at5:.2} at 5 ms"
        );
    }
}
