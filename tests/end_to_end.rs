//! Full client/server sessions across server kinds and fabrics.

use parquake::bsp::mapgen::MapGenConfig;
use parquake::harness::experiment::{Experiment, ExperimentConfig, DRAIN_NS};
use parquake::metrics::Bucket;
use parquake::server::{LockPolicy, ServerKind};

fn base(players: u32, server: ServerKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::small_arena(11),
        bot_drivers: 4,
        ..ExperimentConfig::new(players, server, 2_500_000_000)
    };
    cfg.server.checking = true; // run the full lock/claim protocol checkers
    cfg
}

#[test]
fn sequential_session_completes_with_protocol_checks() {
    let out = Experiment::new(base(16, ServerKind::Sequential)).run();
    assert_eq!(out.connected, 16);
    assert!(
        out.response.received > 500,
        "{} replies",
        out.response.received
    );
    // Every reply echoes a real request.
    assert!(out.response.received <= out.response.sent);
}

#[test]
fn parallel_baseline_session_checks_clean() {
    let out = Experiment::new(base(
        24,
        ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Baseline,
        },
    ))
    .run();
    assert_eq!(out.connected, 24);
    assert!(out.response.received > 800);
    // The spatial index must audit clean after the run.
    out.world.audit_links().expect("link audit");
    // All four threads did work.
    assert_eq!(out.server.threads.len(), 4);
    for (i, t) in out.server.threads.iter().enumerate() {
        assert!(t.requests > 0, "thread {i} processed nothing");
        assert!(t.replies > 0, "thread {i} replied to nothing");
    }
    // Region locks were actually exercised.
    let m = out.server.merged();
    assert!(m.lock.leaf_ops > 1000, "leaf ops: {}", m.lock.leaf_ops);
    assert!(m.lock.parent_ops > 0);
}

#[test]
fn parallel_optimized_session_checks_clean() {
    let out = Experiment::new(base(
        24,
        ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Optimized,
        },
    ))
    .run();
    assert_eq!(out.connected, 24);
    assert!(out.response.received > 800);
    out.world.audit_links().expect("link audit");
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut cfg = base(
            12,
            ServerKind::Parallel {
                threads: 2,
                locking: LockPolicy::Baseline,
            },
        );
        cfg.seed = seed;
        let out = Experiment::new(cfg).run();
        (
            out.response.sent,
            out.response.received,
            out.response.latency_sum_ns,
            out.world_hash,
            out.server.frame_count,
        )
    };
    assert_eq!(run(1), run(1), "same seed must reproduce bit-for-bit");
    assert_ne!(run(1).3, run(2).3, "different seeds must diverge");
}

#[test]
fn frame_phases_follow_the_paper_invariants() {
    let out = Experiment::new(base(
        24,
        ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Baseline,
        },
    ))
    .run();
    let m = out.server.merged();
    // Exactly one master per frame: the sum of mastered frames equals
    // the frame count.
    let mastered: u64 = out.server.threads.iter().map(|t| t.mastered).sum();
    assert_eq!(mastered, out.server.frame_count);
    // Every bucket the paper defines shows up under load except none.
    for b in [Bucket::Exec, Bucket::Reply, Bucket::World, Bucket::Receive] {
        assert!(m.breakdown.get(b) > 0, "{b:?} never recorded");
    }
    // Participants never exceed thread count.
    let fs = &out.server.frames;
    assert!(fs.participants_sum <= fs.frames * 4);
    assert!(fs.frames > 0);
}

#[test]
fn world_state_advances_and_scores_accumulate() {
    use parquake::sim::entity::EntityClass;
    let mut cfg = base(
        16,
        ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Optimized,
        },
    );
    cfg.server.end_time = 4_000_000_000 + DRAIN_NS;
    let out = Experiment::new(cfg).run();
    // Bots shoot each other: someone must have scored or picked
    // something up after 4 virtual seconds of deathmatch.
    let mut total_score = 0i64;
    for i in 0..16u16 {
        if let EntityClass::Player { score, .. } = out.world.store.snapshot(i).class {
            total_score += score as i64;
        }
    }
    assert!(total_score > 0, "no interactions happened at all");
}
