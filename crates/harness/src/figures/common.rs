//! Shared sweep configuration and report rendering for the figure
//! reproductions.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_metrics::report::{breakdown_table, f, numeric_table};
use parquake_metrics::Bucket;
use parquake_server::{LockPolicy, ServerKind};

use crate::experiment::{Experiment, ExperimentConfig, Outcome};

/// Options common to every figure sweep.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Measured virtual seconds per configuration.
    pub duration_secs: f64,
    /// Player counts to sweep.
    pub players: Vec<u32>,
    /// Map/workload seed.
    pub seed: u64,
    /// Areanode tree depth (4 = paper default, 31 nodes).
    pub depth: u32,
}

impl Default for SweepOpts {
    fn default() -> SweepOpts {
        SweepOpts {
            duration_secs: 10.0,
            players: vec![64, 96, 128, 144, 160],
            seed: 0x6D_6D_31,
            depth: 4,
        }
    }
}

impl SweepOpts {
    /// Quick variant for smoke runs.
    pub fn quick() -> SweepOpts {
        SweepOpts {
            duration_secs: 4.0,
            players: vec![64, 128, 160],
            ..SweepOpts::default()
        }
    }
}

/// Short label for a server configuration ("seq", "par4-base"…).
pub fn kind_label(kind: ServerKind) -> String {
    match kind {
        ServerKind::Sequential => "seq".to_string(),
        ServerKind::Parallel { threads, locking } => format!(
            "par{threads}-{}",
            match locking {
                LockPolicy::Baseline => "base",
                LockPolicy::Optimized => "opt",
                LockPolicy::OnePass => "1pass",
            }
        ),
    }
}

/// Run one configuration on the paper's evaluation map.
pub fn run_config(players: u32, kind: ServerKind, opts: &SweepOpts) -> Outcome {
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::eval_arena(opts.seed),
        areanode_depth: opts.depth,
        ..ExperimentConfig::new(players, kind, (opts.duration_secs * 1e9) as u64)
    };
    cfg.server.checking = false; // measured runs: checkers off, like release Quake
    Experiment::new(cfg).run()
}

/// Render the standard report block for a list of configurations:
/// response rate/time plus the execution-time breakdown — the textual
/// equivalents of sub-figures (a), (b) and (c).
pub fn render_outcomes(title: &str, rows: &[(String, Outcome)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n\n"));

    // (b)+(c): response rate and time, plus the reply-size
    // distribution (entities per reply: median, tail, cap pressure).
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, o)| {
            let sizes = &o.server.merged().reply_sizes;
            vec![
                label.clone(),
                f(o.response_rate(), 0),
                f(o.avg_response_ms(), 1),
                o.connected.to_string(),
                o.server.frame_count.to_string(),
                sizes.percentile(0.50).to_string(),
                sizes.percentile(0.95).to_string(),
                sizes.max().to_string(),
            ]
        })
        .collect();
    out.push_str(&numeric_table(
        &[
            "configuration",
            "replies/s",
            "resp-ms",
            "connected",
            "frames",
            "ents-p50",
            "ents-p95",
            "ents-max",
        ],
        &table,
    ));
    out.push('\n');

    // (a): execution-time breakdowns.
    let bds: Vec<(String, parquake_metrics::Breakdown)> = rows
        .iter()
        .map(|(label, o)| (label.clone(), o.breakdown()))
        .collect();
    let refs: Vec<(String, &parquake_metrics::Breakdown)> =
        bds.iter().map(|(l, b)| (l.clone(), b)).collect();
    out.push_str(&breakdown_table(&refs));
    out.push('\n');
    out
}

/// Render the lock-statistics block (feeds Figure 7 and §5.1).
pub fn render_lock_stats(rows: &[(String, Outcome)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, o)| {
            let m = o.server.merged();
            vec![
                label.clone(),
                f(m.breakdown.percent(Bucket::Lock), 1),
                f(m.lock.leaf_share() * 100.0, 1),
                f(100.0 - m.lock.leaf_share() * 100.0, 1),
                f(m.lock.avg_distinct_leaf_percent(), 1),
                f(m.lock.relock_fraction() * 100.0, 1),
                f(o.server.frames.avg_shared_leaf_percent(), 1),
                f(o.server.frames.avg_touched_leaf_percent(), 1),
            ]
        })
        .collect();
    numeric_table(
        &[
            "configuration",
            "lock%",
            "leaf-share%",
            "parent-share%",
            "leaves/req%",
            "relock%",
            "shared-leaves%",
            "touched-leaves%",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(kind_label(ServerKind::Sequential), "seq");
        assert_eq!(
            kind_label(ServerKind::Parallel {
                threads: 8,
                locking: LockPolicy::Optimized
            }),
            "par8-opt"
        );
    }
}
