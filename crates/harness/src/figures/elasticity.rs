//! Elasticity figure (extension): an arena directory follows a
//! population ramp in both directions.
//!
//! Bots ramp up past the boot fleet's capacity, hold, then drain to
//! zero. With lifecycle-truthful occupancy the director spawns arenas
//! under admission pressure on the way up and reaps them after the
//! linger window on the way down — and because every departure (front
//! door or server-side) reaches the ledger, nobody is rejected while
//! the ceiling has headroom and the population identity
//! `placed == departed + resident` closes over the whole run.

use parquake_arena::AdmissionPolicy;
use parquake_bots::SwarmRamp;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::Nanos;
use parquake_metrics::report::numeric_table;

use crate::arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
use crate::figures::common::SweepOpts;

/// The figure's machine shape: boot 1 arena, ceiling 4, 12 slots each,
/// 40 ramped players on a 2-worker pool.
pub const BOOT_ARENAS: u32 = 1;
pub const MAX_ARENAS: u32 = 4;
pub const SLOTS: u16 = 12;
pub const PLAYERS: u32 = 40;
pub const WORKERS: u32 = 2;

/// Run the ramped elastic configuration. The ramp is proportional to
/// the run length: up over the first 30%, hold 40%, down 20%, with a
/// 10% quiet tail so the last reap lands inside the run.
pub fn run_ramp(opts: &SweepOpts) -> ArenaOutcome {
    let duration_ns = (opts.duration_secs * 1e9) as Nanos;
    let mut cfg = ArenaExperimentConfig {
        ramp: Some(SwarmRamp::UpDown {
            ramp_up_ns: duration_ns * 3 / 10,
            hold_ns: duration_ns * 4 / 10,
            ramp_down_ns: duration_ns * 2 / 10,
        }),
        ..ArenaExperimentConfig::new(PLAYERS, BOOT_ARENAS, duration_ns)
    };
    let dir = &mut cfg.directory;
    dir.workers = WORKERS;
    dir.policy = AdmissionPolicy::FillFirst;
    dir.map = MapGenConfig::small_arena(opts.seed);
    dir.areanode_depth = opts.depth;
    dir.max_arenas = MAX_ARENAS;
    dir.linger_ns = duration_ns / 20;
    dir.slots_per_arena = SLOTS;
    dir.server.checking = false; // measured run: checkers off, like release Quake
    ArenaExperiment::new(cfg).run()
}

/// Run the ramp and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let o = run_ramp(opts);
    let e = &o.directory.elastic;

    let mut s = format!(
        "== Elasticity (extension): {PLAYERS} players ramped over a \
         boot-{BOOT_ARENAS}/max-{MAX_ARENAS} directory, {SLOTS} slots each ==\n\n"
    );

    // Live-arena count sampled over the run: the shape should follow
    // the ramp up and back down.
    let buckets = 10u64;
    let rows: Vec<Vec<String>> = (0..=buckets)
        .map(|b| {
            let at = o.duration_ns * b / buckets;
            vec![format!("{:.1}", at as f64 / 1e9), e.live_at(at).to_string()]
        })
        .collect();
    s.push_str(&numeric_table(&["t (s)", "live arenas"], &rows));
    s.push('\n');

    s.push_str(&format!(
        "spawned {} reaped {} (peak {} live, {} at end); \
         linger {} ms\n",
        e.spawned,
        e.reaped,
        e.peak_live,
        e.live_at_end,
        o.duration_ns / 20 / 1_000_000,
    ));
    for ev in &e.events {
        s.push_str(&format!(
            "  t={:>6.2}s arena{} {:?} -> {} live\n",
            ev.at as f64 / 1e9,
            ev.arena,
            ev.kind,
            ev.live
        ));
    }

    let adm = &o.directory.admission;
    s.push_str(&format!(
        "\npopulation identity: placed {} == departed {} + resident {} ({}); \
         rejected_full {}\n",
        adm.placed,
        adm.departed,
        adm.resident,
        if adm.population_closed() {
            "closed"
        } else {
            "OPEN"
        },
        adm.rejected_full,
    ));
    s.push_str(&format!(
        "lifecycle notices: {} connected, {} disconnected, {} reclaimed, \
         {} stale; book evictions {}\n",
        adm.notice_connected,
        adm.notice_disconnected,
        adm.notice_reclaimed,
        adm.notice_stale,
        adm.book_evicted,
    ));
    s.push_str(&format!(
        "\nThe live-arena count follows the population ramp in both\n\
         directions: admission pressure spawns arenas on the way up, and\n\
         empty arenas are reaped one linger window after the drain. With\n\
         lifecycle notices reconciling the books, no connect was rejected\n\
         while the {MAX_ARENAS}-arena ceiling had headroom.\n"
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance bar at CI scale: the live-arena count
    /// follows the ramp both directions and the identity closes.
    #[test]
    fn live_arena_count_follows_the_ramp() {
        let opts = SweepOpts {
            duration_secs: 4.0,
            ..SweepOpts::default()
        };
        let o = run_ramp(&opts);
        let e = &o.directory.elastic;
        assert!(e.spawned >= 1, "{e:?}");
        assert!(e.reaped >= 1, "{e:?}");
        assert!(e.peak_live >= 2, "{e:?}");
        assert_eq!(e.live_at_end, BOOT_ARENAS, "{e:?}");
        // Up: more arenas live mid-hold than at the start. Down: back
        // to the boot fleet by the end of the run.
        let mid_hold = o.duration_ns / 2;
        assert!(e.live_at(mid_hold) > BOOT_ARENAS, "{e:?}");
        assert!(e.live_at(o.duration_ns) < e.live_at(mid_hold), "{e:?}");
        // Truthful occupancy: nobody rejected below the ceiling, books
        // balanced at the end.
        assert_eq!(
            o.directory.admission.rejected_full, 0,
            "{:?}",
            o.directory.admission
        );
        assert!(
            o.directory.admission.population_closed(),
            "{:?}",
            o.directory.admission
        );
        assert_eq!(o.bots.connected, PLAYERS);
    }

    #[test]
    fn ramp_runs_are_deterministic() {
        let opts = SweepOpts {
            duration_secs: 2.0,
            ..SweepOpts::default()
        };
        let a = run_ramp(&opts);
        let b = run_ramp(&opts);
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
        assert_eq!(
            a.directory.elastic.events.len(),
            b.directory.elastic.events.len()
        );
    }
}
