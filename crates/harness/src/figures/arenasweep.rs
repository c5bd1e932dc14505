//! Arena sweep (extension): one machine, fixed player total, carved
//! into 1/2/4/8 worlds on a shared 4-worker pool.
//!
//! The paper parallelizes one world across processors; this figure
//! measures the production dual — many small worlds multiplexed on the
//! same processors. The headline comparison: 4 workers serving 4×64
//! players in 4 arenas versus the same 4 workers serving 1×256 in one
//! world. One big world serializes on its single frame loop (the pool
//! can only ever run one frame of one arena at a time), so carving the
//! population into small worlds converts the machine's parallelism
//! into throughput without any intra-world locking at all. The paper's
//! parallel server at 256 players is included as the intra-world
//! reference point.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_metrics::report::{f, numeric_table};
use parquake_server::{LockPolicy, ServerKind};

use crate::arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
use crate::figures::common::{kind_label, run_config, SweepOpts};

/// Arena splits swept over the fixed player total.
pub const SPLITS: [u32; 4] = [1, 2, 4, 8];

/// The figure's default machine shape: 4 pool workers, 256 players.
pub const WORKERS: u32 = 4;
pub const TOTAL_PLAYERS: u32 = 256;

/// Run one pooled split of `total` players into `arenas` arenas.
pub fn run_split(total: u32, arenas: u32, workers: u32, opts: &SweepOpts) -> ArenaOutcome {
    let mut cfg = ArenaExperimentConfig::new(total, arenas, (opts.duration_secs * 1e9) as u64);
    let dir = &mut cfg.directory;
    dir.workers = workers;
    dir.map = MapGenConfig::eval_arena(opts.seed);
    dir.areanode_depth = opts.depth;
    dir.server.checking = false; // measured runs: checkers off, like release Quake
    ArenaExperiment::new(cfg).run()
}

/// Run the full sweep and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let total = TOTAL_PLAYERS;
    let outcomes: Vec<(u32, ArenaOutcome)> = SPLITS
        .iter()
        .map(|&arenas| (arenas, run_split(total, arenas, WORKERS, opts)))
        .collect();

    // The paper's intra-world answer at the same scale, for reference.
    let par_kind = ServerKind::Parallel {
        threads: WORKERS,
        locking: LockPolicy::Optimized,
    };
    let par = run_config(total, par_kind, opts);

    let mut s =
        format!("== Arena sweep (extension): {total} players, {WORKERS}-worker shared pool ==\n\n");
    let mut rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(arenas, o)| {
            let idle: u64 = o
                .directory
                .pool
                .as_ref()
                .map(|p| p.idle_ns_by_worker.iter().sum())
                .unwrap_or(0);
            let busy = 1.0 - idle as f64 / (WORKERS as f64 * o.duration_ns as f64);
            vec![
                format!("pool{WORKERS} {arenas}x{}", total / arenas),
                f(o.response_rate(), 0),
                f(o.avg_response_ms(), 1),
                o.bots.connected.to_string(),
                o.aggregate.frames.to_string(),
                f(busy * 100.0, 1),
            ]
        })
        .collect();
    rows.push(vec![
        format!("{} 1x{total}", kind_label(par_kind)),
        f(par.response_rate(), 0),
        f(par.avg_response_ms(), 1),
        par.connected.to_string(),
        par.server.frame_count.to_string(),
        String::from("-"),
    ]);
    s.push_str(&numeric_table(
        &[
            "configuration",
            "replies/s",
            "resp-ms",
            "connected",
            "frames",
            "pool-busy%",
        ],
        &rows,
    ));
    s.push('\n');

    // Per-arena detail for the headline split (4 arenas): placement,
    // load and latency per world, plus the aggregate rollup row.
    if let Some((_, o)) = outcomes.iter().find(|(a, _)| *a == 4) {
        s.push_str(&format!(
            "-- per-arena detail, 4x{} (admission: {} routed, {} sticky, \
             {} explicit, {} rejected) --\n",
            total / 4,
            o.directory.admission.routed,
            o.directory.admission.sticky,
            o.directory.admission.explicit_requests,
            o.directory.admission.rejected_full,
        ));
        let mut detail: Vec<Vec<String>> = o
            .per_arena
            .iter()
            .map(|a| {
                vec![
                    format!("arena{}", a.arena),
                    a.admitted.to_string(),
                    f(a.response_rate(o.duration_ns), 0),
                    f(a.avg_response_ms(), 1),
                    a.frames.to_string(),
                    a.requests.to_string(),
                ]
            })
            .collect();
        detail.push(vec![
            "aggregate".into(),
            o.aggregate.admitted.to_string(),
            f(o.response_rate(), 0),
            f(o.avg_response_ms(), 1),
            o.aggregate.frames.to_string(),
            o.aggregate.requests.to_string(),
        ]);
        s.push_str(&numeric_table(
            &[
                "arena",
                "connects",
                "replies/s",
                "resp-ms",
                "frames",
                "requests",
            ],
            &detail,
        ));
        if let Some(p) = &o.directory.pool {
            s.push_str(&format!(
                "pool frames by worker: {:?}; by arena: {:?}\n",
                p.frames_by_worker, p.frames_by_arena
            ));
        }
        s.push('\n');
    }

    let one = &outcomes[0].1;
    let four = outcomes
        .iter()
        .find(|(a, _)| *a == 4)
        .map(|(_, o)| o)
        .unwrap_or(one);
    s.push_str(&format!(
        "4x{} serves {:.1}x the aggregate response rate of 1x{total} on the\n\
         same 4 workers: a single world serializes on its frame loop, while\n\
         small worlds turn the pool's parallelism into throughput with no\n\
         intra-world locking. The par4-opt row shows what intra-world\n\
         parallelism buys instead when the population cannot be split.\n",
        total / 4,
        four.response_rate() / one.response_rate().max(1e-9),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance bar, at CI scale: splitting a saturating
    /// population 4 ways over a 4-worker pool must at least double the
    /// aggregate response rate.
    #[test]
    fn four_arenas_double_one_big_world() {
        let opts = SweepOpts {
            duration_secs: 2.0,
            ..SweepOpts::default()
        };
        // 256 players saturate one sequential frame loop far past the
        // paper's fig. 4 knee; 4 worlds of 64 do not.
        let one = run_split(TOTAL_PLAYERS, 1, WORKERS, &opts);
        let four = run_split(TOTAL_PLAYERS, 4, WORKERS, &opts);
        assert_eq!(four.per_arena.len(), 4);
        assert!(
            four.response_rate() >= 2.0 * one.response_rate(),
            "4x64 = {:.0} replies/s, 1x256 = {:.0} replies/s",
            four.response_rate(),
            one.response_rate()
        );
        // And the split population is actually spread: every arena
        // admitted a fair share and replied.
        for a in &four.per_arena {
            assert!(a.admitted > 0 && a.response.received > 0);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = SweepOpts {
            duration_secs: 1.0,
            ..SweepOpts::default()
        };
        let a = run_split(32, 2, 2, &opts);
        let b = run_split(32, 2, 2, &opts);
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
    }
}
