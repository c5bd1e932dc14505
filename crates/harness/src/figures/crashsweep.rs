//! Crashsweep figure (extension): response-rate retention under an
//! injected per-frame panic lottery.
//!
//! A supervised pooled directory runs the same workload at increasing
//! crash rates. Every injected panic fates only its arena: the
//! supervisor restores the cell from its last checkpoint, replays the
//! ledger, and clients ride through on the rebind grace. The figure
//! reports the aggregate response rate at each crash rate as a
//! fraction of the fault-free supervised run — the cost of crashing is
//! the frames lost between the last checkpoint and the restore, not
//! the session.

use parquake_arena::CHECKPOINT_INTERVAL;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::Nanos;
use parquake_metrics::report::{f, numeric_table};

use crate::arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
use crate::figures::common::SweepOpts;

/// The figure's machine shape: 4 arenas, 8 slots each, a 2-worker
/// pool, 24 players.
pub const ARENAS: u32 = 4;
pub const SLOTS: u16 = 8;
pub const PLAYERS: u32 = 24;
pub const WORKERS: u32 = 2;

/// Per-frame panic probabilities swept (0 = the fault-free baseline,
/// still supervised so the comparison isolates the crashes from the
/// checkpointing overhead).
pub const CRASH_RATES: [f64; 4] = [0.0, 0.0025, 0.005, 0.01];

/// Run one supervised configuration at the given per-frame panic
/// probability.
pub fn run_at(crash_rate: f64, opts: &SweepOpts) -> ArenaOutcome {
    let duration_ns = (opts.duration_secs * 1e9) as Nanos;
    let mut cfg = ArenaExperimentConfig::new(PLAYERS, ARENAS, duration_ns);
    let dir = &mut cfg.directory;
    dir.workers = WORKERS;
    dir.map = MapGenConfig::small_arena(opts.seed);
    dir.areanode_depth = opts.depth;
    dir.slots_per_arena = SLOTS;
    dir.supervision = true;
    dir.frame_faults = (crash_rate > 0.0).then(|| FaultConfig {
        panic_per_frame: crash_rate as f32,
        seed: opts.seed ^ 0xC4A5_5EED,
        ..FaultConfig::none()
    });
    dir.server.checking = false; // measured run: checkers off, like release Quake
    ArenaExperiment::new(cfg).run()
}

/// Run the sweep and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let rows: Vec<(f64, ArenaOutcome)> = CRASH_RATES
        .iter()
        .map(|&rate| (rate, run_at(rate, opts)))
        .collect();
    let baseline = rows[0].1.response_rate();

    let mut s = format!(
        "== Crashsweep (extension): {PLAYERS} players over {ARENAS} supervised \
         arenas, {WORKERS}-worker pool, checkpoint every {CHECKPOINT_INTERVAL} \
         frames ==\n\n"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(rate, o)| {
            let sup = &o.directory.supervisor;
            vec![
                format!("{:.2}%", rate * 100.0),
                f(o.response_rate(), 0),
                if baseline > 0.0 {
                    format!("{:.1}%", o.response_rate() / baseline * 100.0)
                } else {
                    "-".to_string()
                },
                sup.panics_caught.to_string(),
                sup.restarts.to_string(),
                f(sup.avg_recovery_ms(), 2),
                sup.replayed_placements.to_string(),
                o.bots.connected.to_string(),
            ]
        })
        .collect();
    s.push_str(&numeric_table(
        &[
            "crash/frame",
            "replies/s",
            "retention",
            "panics",
            "restores",
            "recover-ms",
            "replayed",
            "connected",
        ],
        &table,
    ));
    s.push('\n');

    for (rate, o) in &rows {
        let adm = &o.directory.admission;
        s.push_str(&format!(
            "crash {:>5.2}%: population identity placed {} == departed {} + \
             resident {} ({}); checkpoints {} ({} KiB)\n",
            rate * 100.0,
            adm.placed,
            adm.departed,
            adm.resident,
            if adm.population_closed() {
                "closed"
            } else {
                "OPEN"
            },
            o.directory.supervisor.checkpoints_taken,
            o.directory.supervisor.checkpoint_bytes / 1024,
        ));
    }

    s.push_str(
        "\nEvery injected panic is fenced to its arena and restored from the\n\
         last checkpoint with the ledger replayed, so the directory never\n\
         crashes and the population identity closes at every crash rate.\n\
         Clients ride through restarts on the rebind grace; the retention\n\
         column shows the response rate as a fraction of the fault-free\n\
         supervised run (acceptance bar: >= 70% at a 1%-per-frame lottery).\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci_opts() -> SweepOpts {
        SweepOpts {
            duration_secs: 4.0,
            ..SweepOpts::default()
        }
    }

    /// The ISSUE's acceptance bar at CI scale: a 1%-per-frame panic
    /// lottery with checkpoint interval 64 retains >= 70% of the
    /// fault-free response rate, no directory-level crash, and the
    /// population identity closes across every restart.
    #[test]
    fn one_percent_lottery_retains_seventy_percent_response_rate() {
        let opts = ci_opts();
        let base = run_at(0.0, &opts);
        let hit = run_at(0.01, &opts);

        // The run completing at all is the zero-directory-crash bar:
        // a leaked panic would abort the whole fabric.
        assert!(
            hit.directory.supervisor.panics_caught >= 1,
            "lottery never fired"
        );
        assert!(
            hit.directory.supervisor.restarts >= hit.directory.supervisor.panics_caught,
            "every crash must be restored: {:?}",
            hit.directory.supervisor
        );
        assert!(
            hit.directory.admission.population_closed(),
            "population identity must close across every restart: {:?}",
            hit.directory.admission
        );
        assert_eq!(hit.bots.connected, PLAYERS, "clients must ride through");

        let retention = hit.response_rate() / base.response_rate();
        assert!(
            retention >= 0.70,
            "response-rate retention {:.1}% < 70% (base {:.0}/s, crashed {:.0}/s)",
            retention * 100.0,
            base.response_rate(),
            hit.response_rate()
        );
    }

    #[test]
    fn fault_free_supervised_baseline_is_quiet() {
        let base = run_at(0.0, &ci_opts());
        assert_eq!(base.directory.supervisor.panics_caught, 0);
        assert_eq!(base.directory.supervisor.restarts, 0);
        assert!(base.directory.supervisor.checkpoints_taken > 0);
        assert_eq!(base.bots.connected, PLAYERS);
        assert!(base.directory.admission.population_closed());
    }

    #[test]
    fn crashsweep_runs_are_deterministic() {
        let opts = ci_opts();
        let a = run_at(0.005, &opts);
        let b = run_at(0.005, &opts);
        assert_eq!(
            a.directory.supervisor.panics_caught,
            b.directory.supervisor.panics_caught
        );
        assert_eq!(
            a.directory.supervisor.restarts,
            b.directory.supervisor.restarts
        );
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
    }
}
