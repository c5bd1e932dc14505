//! Migration figure (extension): live handoffs turn a skewed fleet
//! back into a level one.
//!
//! Every bot explicitly requests arena 0, so a 4-arena fleet boots
//! with the whole population piled into one world while three sit
//! idle — the pathological shape a static placement policy can reach
//! but never leave. With live migration on, the director notices the
//! occupancy spread, fences one hot slot per tick, hands it to the
//! coldest open arena, and re-acks the client into its new home. The
//! figure compares aggregate response rate with migration off
//! (baseline) and on, and checks the handoff invariants: every
//! migrated slot lands world-hash-identical, and the population
//! identity `placed == departed + resident` stays closed across every
//! rebooking.

use parquake_arena::AdmissionPolicy;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::Nanos;
use parquake_metrics::report::{f, numeric_table};

use crate::arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
use crate::figures::common::SweepOpts;

/// The figure's machine shape: 4 static arenas with enough slots that
/// arena 0 can hold the entire skewed population, 2 workers.
///
/// `PLAYERS` is chosen by overload, not by habit: the first count on
/// the 128, 160, 192, … ladder at which the piled-up world answers
/// under [`OVERLOADED_SHARE`] of the moves its clients send (each owes
/// one per 30 ms tick). Levelling the fleet can win back at most
/// offered / answered, so a ≥ 1.5× recovery is only on the table past
/// that point. One `small_arena` world peaks at ≈ 128 players
/// (≈ 4 260 resp/s) and answers 0.77 of 160 players' moves, 0.53 of
/// 192 players' (PR 23; before it, when stacked spawns froze half the
/// crowd and every move cost four slide iterations, 160 was past the
/// mark). A PR that makes moves cheaper again moves the point again:
/// the figure's test checks the premise before the ratio.
pub const ARENAS: u32 = 4;
pub const SLOTS: u16 = 192;
pub const PLAYERS: u32 = 192;
pub const WORKERS: u32 = 2;
/// The baseline counts as overloaded when it answers less than this
/// share of the offered moves (1 / 1.5: room for the 1.5× bar).
pub const OVERLOADED_SHARE: f64 = 2.0 / 3.0;
/// Spread threshold for the migration run: rebalance whenever the
/// hottest arena leads the coldest by at least this many clients.
pub const SPREAD: u32 = 4;

/// Run the skewed fleet at one migration setting. `migrate_spread = 0`
/// is the baseline (migration off): everyone grinds in arena 0.
pub fn run_at(migrate_spread: u32, opts: &SweepOpts) -> ArenaOutcome {
    let duration_ns = (opts.duration_secs * 1e9) as Nanos;
    let mut cfg = ArenaExperimentConfig {
        request_arena: Some(0),
        ..ArenaExperimentConfig::new(PLAYERS, ARENAS, duration_ns)
    };
    let dir = &mut cfg.directory;
    dir.workers = WORKERS;
    dir.policy = AdmissionPolicy::Explicit;
    dir.map = MapGenConfig::small_arena(opts.seed);
    dir.areanode_depth = opts.depth;
    dir.slots_per_arena = SLOTS;
    dir.migrate_spread = migrate_spread;
    dir.server.checking = false; // measured run: checkers off, like release Quake
    ArenaExperiment::new(cfg).run()
}

/// Run baseline and migration configurations and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let base = run_at(0, opts);
    let live = run_at(SPREAD, opts);

    let mut s = format!(
        "== Migration (extension): {PLAYERS} players all requesting arena 0 \
         of {ARENAS}, {SLOTS} slots each ==\n\n"
    );

    let row = |label: &str, o: &ArenaOutcome| {
        let mut r = vec![
            label.to_string(),
            o.aggregate.replies.to_string(),
            f(o.response_rate(), 1),
            o.supervisor.migrations.to_string(),
            o.rehomed.to_string(),
        ];
        r.extend(
            o.per_arena
                .iter()
                .map(|a| a.replies.to_string())
                .collect::<Vec<_>>(),
        );
        r
    };
    let mut headers = vec!["run", "replies", "resp/s", "migrated", "rehomed"];
    let arena_cols: Vec<String> = (0..ARENAS).map(|k| format!("a{k}")).collect();
    headers.extend(arena_cols.iter().map(|c| c.as_str()));
    let rows = vec![row("baseline", &base), row("migrate", &live)];
    s.push_str(&numeric_table(&headers, &rows));
    s.push('\n');

    let ratio = live.response_rate() / base.response_rate().max(1e-9);
    s.push_str(&format!(
        "aggregate response rate: {} -> {} resp/s ({:.2}x)\n",
        f(base.response_rate(), 1),
        f(live.response_rate(), 1),
        ratio,
    ));
    s.push_str(&format!(
        "handoffs: {} migrated ({} by drain), {} aborted, {} hash mismatches; \
         {} clients re-homed\n",
        live.supervisor.migrations,
        live.supervisor.drain_migrations,
        live.supervisor.migrate_aborted,
        live.supervisor.migrate_hash_mismatch,
        live.rehomed,
    ));
    for (tag, o) in [("baseline", &base), ("migrate", &live)] {
        let adm = &o.admission;
        s.push_str(&format!(
            "{tag}: population identity placed {} == departed {} + resident {} ({}); \
             {} migrated notices\n",
            adm.placed,
            adm.departed,
            adm.resident,
            if adm.population_closed() {
                "closed"
            } else {
                "OPEN"
            },
            adm.notice_migrated,
        ));
    }
    s.push_str(&format!(
        "\nThe skewed fleet never recovers on its own: with migration off,\n\
         all {PLAYERS} players share one world's frame while three arenas\n\
         idle. Live handoffs level the fleet a slot at a time — each one\n\
         fenced, transferred hash-identical, rebooked, and re-acked — and\n\
         the aggregate response rate recovers as the population spreads\n\
         across all {ARENAS} worlds.\n"
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance bar at CI scale: migration recovers at
    /// least 1.5x the skewed baseline's aggregate response rate, every
    /// handoff lands hash-identical, and the books stay closed.
    #[test]
    fn migration_recovers_the_skewed_fleet() {
        let opts = SweepOpts {
            duration_secs: 4.0,
            ..SweepOpts::default()
        };
        let base = run_at(0, &opts);
        let live = run_at(SPREAD, &opts);
        // Baseline really is skewed: nothing migrated, nobody re-homed.
        assert_eq!(base.supervisor.migrations, 0, "{:?}", base.supervisor);
        assert_eq!(base.rehomed, 0);
        assert_eq!(base.connected, PLAYERS);
        // Migration run moved slots and the clients followed.
        assert!(live.supervisor.migrations >= 1, "{:?}", live.supervisor);
        assert!(live.rehomed >= 1, "rehomed {}", live.rehomed);
        assert_eq!(
            live.supervisor.migrate_hash_mismatch, 0,
            "{:?}",
            live.supervisor
        );
        assert_eq!(live.connected, PLAYERS);
        // The books close on both sides of every handoff.
        assert!(base.admission.population_closed(), "{:?}", base.admission);
        assert!(live.admission.population_closed(), "{:?}", live.admission);
        // The premise of the bar below: arena 0 alone is overloaded by
        // the rule on `PLAYERS`. If this trips, moves got cheaper —
        // climb the ladder, do not lower the bar.
        let offered = PLAYERS as f64 * 1e9 / 30e6;
        assert!(
            base.response_rate() < offered * OVERLOADED_SHARE,
            "baseline answers {} of {offered:.0} moves/s: {PLAYERS} players no longer overload one world",
            base.response_rate()
        );
        // And the fleet actually recovers throughput.
        let ratio = live.response_rate() / base.response_rate().max(1e-9);
        assert!(
            ratio >= 1.5,
            "response rate only {:.2}x baseline ({} -> {})",
            ratio,
            base.response_rate(),
            live.response_rate()
        );
    }

    #[test]
    fn migration_runs_are_deterministic() {
        let opts = SweepOpts {
            duration_secs: 2.0,
            ..SweepOpts::default()
        };
        let a = run_at(SPREAD, &opts);
        let b = run_at(SPREAD, &opts);
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
        assert_eq!(a.supervisor.migrations, b.supervisor.migrations);
        assert_eq!(a.rehomed, b.rehomed);
    }
}
