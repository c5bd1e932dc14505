//! Tests for the implemented future-work extensions (paper §5.1/§5.2):
//! request batching, one-pass locking, dynamic region-affine assignment.

use parquake::bsp::mapgen::MapGenConfig;
use parquake::harness::experiment::{Experiment, ExperimentConfig, DRAIN_NS};
use parquake::server::{Assignment, LockPolicy, ServerKind};

fn cfg(players: u32, threads: u32, locking: LockPolicy) -> ExperimentConfig {
    let kind = ServerKind::Parallel { threads, locking };
    let mut c = ExperimentConfig {
        map: MapGenConfig::small_arena(17),
        bot_drivers: 4,
        ..ExperimentConfig::new(players, kind, 2_500_000_000)
    };
    c.server.checking = true;
    c
}

#[test]
fn one_pass_locking_never_relocks() {
    let out = Experiment::new(cfg(32, 4, LockPolicy::OnePass)).run();
    assert_eq!(out.connected, 32);
    let m = out.server.merged();
    assert!(m.lock.requests > 500);
    assert_eq!(
        m.lock.leaf_lock_events, m.lock.distinct_leaves,
        "one-pass must lock each leaf at most once per request"
    );
    assert_eq!(m.lock.relock_fraction(), 0.0);
    out.world.audit_links().expect("link audit");
}

#[test]
fn batching_raises_frame_participation() {
    let run = |batch_ms: u64| {
        let mut c = cfg(32, 4, LockPolicy::Optimized);
        c.server.frame_batch_ns = batch_ms * 1_000_000;
        let out = Experiment::new(c).run();
        let fs = &out.server.frames;
        (
            out.connected,
            fs.participants_sum as f64 / fs.frames.max(1) as f64,
            out.avg_response_ms(),
        )
    };
    let (c0, parts0, lat0) = run(0);
    let (c8, parts8, lat8) = run(8);
    assert_eq!(c0, 32);
    assert_eq!(c8, 32);
    assert!(
        parts8 > parts0,
        "batching did not raise participation: {parts0:.2} -> {parts8:.2}"
    );
    assert!(
        lat8 > lat0,
        "batching should cost latency: {lat0:.2} -> {lat8:.2} ms"
    );
}

#[test]
fn region_affine_assignment_moves_ownership_and_reduces_sharing() {
    let run = |assignment: Assignment| {
        let mut c = cfg(48, 4, LockPolicy::Optimized);
        c.server.assignment = assignment;
        c.server.end_time = 3_000_000_000 + DRAIN_NS;
        Experiment::new(c).run()
    };
    let stat = run(Assignment::Static);
    let dynamic = run(Assignment::RegionAffine { period_frames: 16 });
    assert_eq!(stat.connected, 48);
    assert_eq!(dynamic.connected, 48);
    // Bots still get served at the same rate under steering.
    let r_static = stat.response.received as f64;
    let r_dyn = dynamic.response.received as f64;
    assert!(
        ((r_dyn - r_static).abs() / r_static) < 0.05,
        "reply counts diverged: {r_static} vs {r_dyn}"
    );
    // Contention drops (or at worst matches): compare per-request leaf
    // lock wait.
    let wait = |o: &parquake::harness::experiment::Outcome| {
        let m = o.server.merged();
        m.lock.leaf_ns as f64 / m.requests.max(1) as f64
    };
    assert!(
        wait(&dynamic) <= wait(&stat) * 1.10,
        "dynamic assignment increased contention: {:.0} vs {:.0} ns/req",
        wait(&dynamic),
        wait(&stat)
    );
    dynamic.world.audit_links().expect("link audit");
}

#[test]
fn static_assignment_keeps_block_ownership() {
    // Under the paper's scheme nothing ever moves: every reply steers
    // the client to its connect-time thread.
    let out = Experiment::new(cfg(16, 4, LockPolicy::Baseline)).run();
    assert_eq!(out.connected, 16);
    // All bots were served through their home threads: per-thread reply
    // counts follow the block partition (4 threads × 4 slots each).
    for (i, t) in out.server.threads.iter().enumerate() {
        assert!(t.replies > 0, "thread {i} sent no replies");
    }
}

#[test]
fn delta_compression_preserves_gameplay_and_shrinks_replies() {
    let run = |delta: bool| {
        let mut c = cfg(32, 2, LockPolicy::Optimized);
        c.server.delta_compression = delta;
        c.server.end_time = 3_000_000_000 + DRAIN_NS;
        Experiment::new(c).run()
    };
    let full = run(false);
    let compressed = run(true);
    assert_eq!(full.connected, 32);
    assert_eq!(compressed.connected, 32);
    // Clients are served equally well (same cadence, same replies).
    let diff = (full.response.received as f64 - compressed.response.received as f64).abs();
    assert!(
        diff / (full.response.received as f64) < 0.05,
        "reply counts diverged: {} vs {}",
        full.response.received,
        compressed.response.received
    );
    // The reply phase gets cheaper.
    use parquake::metrics::Bucket;
    let reply_full = full.server.merged().breakdown.get(Bucket::Reply);
    let reply_delta = compressed.server.merged().breakdown.get(Bucket::Reply);
    assert!(
        reply_delta < reply_full,
        "delta did not shrink reply time: {reply_full} -> {reply_delta}"
    );
    // Gameplay still happens: bots aim from their entity caches.
    use parquake::sim::entity::EntityClass;
    let mut total_score = 0i64;
    for i in 0..32u16 {
        if let EntityClass::Player { score, .. } = compressed.world.store.snapshot(i).class {
            total_score += score as i64;
        }
    }
    assert!(total_score > 0, "no interactions under delta compression");
    compressed.world.audit_links().expect("link audit");
}
