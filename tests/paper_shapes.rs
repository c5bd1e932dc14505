//! Coarse assertions that the paper's qualitative findings hold on
//! scaled-down configurations (full-size sweeps live in the `repro`
//! binary; these run in CI-sized debug builds).

use parquake::bsp::mapgen::MapGenConfig;
use parquake::harness::experiment::{Experiment, ExperimentConfig, Outcome};
use parquake::metrics::Bucket;
use parquake::server::{LockPolicy, ServerKind};

fn run(players: u32, server: ServerKind) -> Outcome {
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::small_arena(31),
        bot_drivers: 4,
        ..ExperimentConfig::new(players, server, 3_000_000_000)
    };
    cfg.server.checking = false;
    Experiment::new(cfg).run()
}

/// A sequential server counts as saturated when its thread idles for
/// less than this share of the run.
const SATURATED_IDLE: f64 = 0.02;

/// Climb the 128, 160, 192, … ladder of player counts and return the
/// first run whose (single-threaded) server is saturated. The heavy
/// point of a shape test is *found*, not fixed: how many players it
/// takes depends on what a move costs, and that changes — until PR 23
/// stacked spawns froze half the crowd at four slide iterations a move
/// and 96–128 players were enough; a crowd that walks needs ≈ 160.
fn first_saturated(run_at: impl Fn(u32) -> Outcome) -> (u32, Outcome) {
    for players in (128..=256).step_by(32) {
        let out = run_at(players);
        let idle = out.server.merged().breakdown.fraction(Bucket::Idle);
        if idle < SATURATED_IDLE {
            return (players, out);
        }
    }
    panic!("no player count up to 256 saturates the server");
}

#[test]
fn lock_time_grows_with_player_count() {
    // Paper §4.2: lock time grows from ~2% to ~35% as players increase.
    let kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Baseline,
    };
    let lo = run(16, kind);
    let hi = run(48, kind);
    // Contention (time blocked on leaf locks) must grow super-linearly
    // with the player count; compare per-request blocked time.
    let per_req = |o: &Outcome| {
        let m = o.server.merged();
        m.lock.leaf_ns as f64 / m.requests.max(1) as f64
    };
    let (wait_lo, wait_hi) = (per_req(&lo), per_req(&hi));
    assert!(
        wait_hi > wait_lo * 1.5,
        "leaf lock wait per request did not grow: {wait_lo:.0} -> {wait_hi:.0} ns"
    );
}

#[test]
fn optimized_locking_reduces_lock_time() {
    // Paper §4.3: optimized locking cuts lock time by more than half.
    let base = run(
        48,
        ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Baseline,
        },
    );
    let opt = run(
        48,
        ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Optimized,
        },
    );
    let lb = base.server.merged().breakdown.get(Bucket::Lock);
    let lo = opt.server.merged().breakdown.get(Bucket::Lock);
    // At full scale the reduction is >2x (see EXPERIMENTS.md); on this
    // scaled-down CI configuration we require at least 25%.
    assert!(
        (lo as f64) < lb as f64 * 0.75,
        "optimized lock time {lo} not well below baseline {lb}"
    );
}

#[test]
fn reply_phase_dominates_request_phase_sequentially() {
    // Paper §4.1: reply processing is over twice the request phase.
    let out = run(48, ServerKind::Sequential);
    let bd = out.server.merged().breakdown;
    let reply = bd.get(Bucket::Reply);
    let request = bd.request_phase();
    assert!(
        reply > request,
        "reply {reply} did not dominate request {request}"
    );
}

#[test]
fn world_update_is_a_small_fraction_at_saturation() {
    // Paper §3.1: world processing is <5% of sequential execution. The
    // share is only meaningful at saturation and on the paper-scale
    // evaluation map (the cramped small arena triggers far more
    // teleports/respawns per player than the paper's regime).
    //
    // The bar is the paper's own 5 % (it was 10 % while 128 players
    // were the fixed heavy point). Which side of the ratio moved in
    // PR 23: at 128 players the walking crowd leaves the thread 7.5 %
    // idle, so frames stay ≈ 1.7 moves long, the per-frame world phase
    // runs 1 260 times a second and reads 12.8 % of busy time — an
    // unsaturated server, not an expensive world. At saturation (160
    // players, ≈ 100-move frames) world time itself fell, 42.7 → 16.0
    // ms of a 2-s run, and its share 2.1 % → 0.8 %, although teleports,
    // pickups and respawns now actually happen.
    let (players, out) = first_saturated(|players| {
        let mut cfg = ExperimentConfig {
            map: MapGenConfig::eval_arena(31),
            ..ExperimentConfig::new(players, ServerKind::Sequential, 2_000_000_000)
        };
        cfg.server.checking = false;
        Experiment::new(cfg).run()
    });
    let bd = out.server.merged().breakdown;
    let share = bd.fraction_non_idle(Bucket::World);
    assert!(share < 0.05, "world share {share:.3} at {players} players");
}

#[test]
fn parallel_waits_exist_and_interframe_dominates_intraframe() {
    // Paper §4.2: high inter- and intra-frame waits; inter-frame is the
    // more significant component.
    let out = run(
        48,
        ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Baseline,
        },
    );
    let bd = out.server.merged().breakdown;
    assert!(bd.get(Bucket::InterWait) > 0);
    assert!(
        bd.get(Bucket::InterWait) > bd.get(Bucket::IntraWait),
        "inter {} <= intra {}",
        bd.get(Bucket::InterWait),
        bd.get(Bucket::IntraWait)
    );
}

#[test]
fn leaf_locking_dominates_parent_locking() {
    // Paper §5.1 / Fig 7a: leaf locks account for most lock time.
    let out = run(
        48,
        ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Baseline,
        },
    );
    let m = out.server.merged();
    assert!(
        m.lock.leaf_share() > 0.5,
        "leaf share {:.2}",
        m.lock.leaf_share()
    );
}

#[test]
fn deeper_areanode_trees_lock_smaller_world_fractions() {
    // Paper Fig 7b: % of world locked per request drops as the tree
    // grows.
    let kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Baseline,
    };
    let mut prev = f64::INFINITY;
    for depth in [1u32, 3, 5] {
        let mut cfg = ExperimentConfig {
            map: MapGenConfig::small_arena(31),
            areanode_depth: depth,
            bot_drivers: 4,
            ..ExperimentConfig::new(24, kind, 2_000_000_000)
        };
        cfg.server.checking = false;
        let out = Experiment::new(cfg).run();
        let frac = out.server.merged().lock.avg_distinct_leaf_percent();
        assert!(
            frac < prev,
            "depth {depth}: locked fraction {frac:.1}% did not drop (prev {prev:.1}%)"
        );
        prev = frac;
    }
}

#[test]
fn response_time_rises_under_overload() {
    // Paper Fig 4c/5c: response time climbs sharply at saturation —
    // so the heavy point is wherever saturation is (see
    // `first_saturated`), not a player count that once reached it.
    let kind = ServerKind::Sequential;
    let light = run(16, kind);
    let (players, heavy) = first_saturated(|players| run(players, kind));
    assert!(
        heavy.avg_response_ms() > light.avg_response_ms() * 2.0,
        "latency {:.2}ms -> {:.2}ms at {players} players",
        light.avg_response_ms(),
        heavy.avg_response_ms()
    );
}
