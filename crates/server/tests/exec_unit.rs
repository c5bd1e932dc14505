//! Focused tests of the move executor's locking behaviour.

use std::sync::{Arc, Mutex};

use parquake_areanode::LeafSet;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{Fabric, FabricKind, TaskCtx};
use parquake_math::angles::Angles;
use parquake_math::vec3::vec3;
use parquake_math::{Pcg32, Vec3};
use parquake_metrics::ThreadStats;
use parquake_protocol::{Buttons, MoveCmd};
use parquake_server::exec::{
    action_query, execute_move, ExecEnv, RegionLocks, LOCK_COVERAGE_MARGIN,
};
use parquake_server::{CostModel, LockPolicy};
use parquake_sim::interact::{directional_beam_box, Beam, HITSCAN_RANGE};
use parquake_sim::movement::{max_move_distance, move_bounding_box};
use parquake_sim::{GameWorld, WorkCounters};

fn world(players: u16) -> Arc<GameWorld> {
    let map = Arc::new(MapGenConfig::small_arena(33).generate());
    let w = Arc::new(GameWorld::new(map, 4, players));
    w.links.set_checking(false);
    w.store.set_checking(false);
    let mut rng = Pcg32::seeded(8);
    for i in 0..players {
        w.spawn_player(i, i as u32, &mut rng);
    }
    w
}

/// Execute one command under `policy` and return the merged stats.
fn one_move(policy: LockPolicy, cmd: MoveCmd) -> ThreadStats {
    let w = world(8);
    let fabric: Arc<dyn Fabric> = FabricKind::VirtualSmp(Default::default()).build();
    let locks = RegionLocks::new(&fabric, &w.tree, 8);
    let out = Arc::new(Mutex::new(ThreadStats::new()));
    let o = out.clone();
    fabric.spawn(
        "driver",
        Some(0),
        Box::new(move |ctx: &TaskCtx| {
            let cost = CostModel::default();
            let env = ExecEnv {
                world: &w,
                locks: &locks,
                cost: &cost,
                policy: Some(policy),
                commit_log: None,
            };
            let mut stats = ThreadStats::new();
            let mut mask = 0u64;
            execute_move(&env, ctx, 0, 0, &cmd, &mut stats, &mut mask);
            *o.lock().unwrap() = stats;
        }),
    );
    fabric.run();
    let guard = out.lock().unwrap();
    guard.clone()
}

#[test]
fn baseline_long_range_locks_the_entire_map() {
    let cmd = MoveCmd {
        buttons: Buttons(Buttons::ATTACK),
        forward: 100.0,
        ..MoveCmd::idle(1, 30)
    };
    let stats = one_move(LockPolicy::Baseline, cmd);
    // Phase A locks a few leaves; phase B locks all 16 of the default
    // tree: the distinct set is the full map.
    assert_eq!(stats.lock.distinct_leaves, 16, "{:?}", stats.lock);
    assert!(stats.lock.leaf_lock_events > 16, "no relocking happened");
}

#[test]
fn optimized_directional_locks_a_strict_subset() {
    // Axis-aligned beam: the paper notes directional locking is only
    // effective when the beam's bounding box is narrow — a diagonal
    // shot across the map degenerates to (nearly) the whole world, so
    // this test fires due east.
    let cmd = MoveCmd {
        buttons: Buttons(Buttons::ATTACK),
        forward: 100.0,
        yaw: 0.0,
        ..MoveCmd::idle(1, 30)
    };
    let stats = one_move(LockPolicy::Optimized, cmd);
    assert!(
        stats.lock.distinct_leaves < 16,
        "directional lock covered the whole map: {:?}",
        stats.lock
    );
    assert!(stats.lock.distinct_leaves >= 1);
}

#[test]
fn diagonal_beams_degrade_toward_whole_map_locking() {
    // The paper's caveat, verified: a cross-map diagonal shot locks
    // (almost) everything even under the optimized policy.
    let cmd = MoveCmd {
        buttons: Buttons(Buttons::ATTACK),
        forward: 100.0,
        yaw: 45.0,
        ..MoveCmd::idle(1, 30)
    };
    let stats = one_move(LockPolicy::Optimized, cmd);
    assert!(
        stats.lock.distinct_leaves >= 12,
        "expected near-total coverage, got {}",
        stats.lock.distinct_leaves
    );
}

#[test]
fn short_range_moves_lock_few_leaves_under_any_policy() {
    for policy in [
        LockPolicy::Baseline,
        LockPolicy::Optimized,
        LockPolicy::OnePass,
    ] {
        let cmd = MoveCmd {
            forward: 200.0,
            ..MoveCmd::idle(1, 30)
        };
        let stats = one_move(policy, cmd);
        assert!(
            stats.lock.distinct_leaves <= 4,
            "{policy:?} locked {} leaves for a plain walk",
            stats.lock.distinct_leaves
        );
        assert_eq!(stats.requests, 1);
    }
}

#[test]
fn one_pass_attack_locks_once_but_covers_the_beam() {
    let cmd = MoveCmd {
        buttons: Buttons(Buttons::ATTACK),
        forward: 100.0,
        ..MoveCmd::idle(1, 30)
    };
    let stats = one_move(LockPolicy::OnePass, cmd);
    assert_eq!(stats.lock.leaf_lock_events, stats.lock.distinct_leaves);
    // The beam region is larger than a plain walk's.
    assert!(stats.lock.distinct_leaves >= 2);
}

/// The coverage-margin safety property behind the claim checker: every
/// entity whose box intersects a move's query region must be *fully*
/// covered by the leaves of the (margin-inflated) lock plan, so two
/// threads that can both reach an object always share a leaf lock.
#[test]
fn lock_coverage_margin_fully_covers_every_reachable_entity() {
    let w = world(16);
    let mut plan = LeafSet::new();
    let mut entity_leaves = LeafSet::new();
    let mut rng = Pcg32::seeded(99);
    for _ in 0..500 {
        // Random mover state.
        let idx = rng.below(16) as u16;
        let e = w.store.snapshot(idx);
        let bbox = move_bounding_box(&e.abs_box(), e.vel, 30);
        let covered = bbox.inflated(Vec3::splat(LOCK_COVERAGE_MARGIN));
        w.tree.leaves_overlapping(&covered, &mut plan);
        // Every entity touching the query region…
        for id in 0..w.store.capacity() as u16 {
            let other = w.store.snapshot(id);
            if !other.active || !other.abs_box().intersects(&bbox) {
                continue;
            }
            // …must have all of its own leaves inside the plan.
            w.tree
                .leaves_overlapping(&other.abs_box(), &mut entity_leaves);
            for &leaf in entity_leaves.ids() {
                assert!(
                    plan.contains(leaf),
                    "entity {id} leaf {leaf} outside lock plan (margin too small)"
                );
            }
        }
        // Shuffle the mover around for the next iteration.
        let b = w.map.bounds;
        let p = parquake_math::vec3::vec3(
            rng.range_f32(b.min.x + 64.0, b.max.x - 64.0),
            rng.range_f32(b.min.y + 64.0, b.max.y - 64.0),
            40.0,
        );
        if w.map.player_fits(p) {
            w.store.with_mut(idx, 0, |x| x.pos = p);
            w.relink_unlocked(idx);
        }
    }
}

/// The same property for a hitscan whose shooter moved between the
/// phase-B lock region and the query: a client whose moves run on two
/// threads at once (a dynamic-assignment port switch) can walk and turn
/// the shooter in between. Whatever `action_query` returns, every
/// object it can reach — any box of up to the largest entity's extent
/// touching the query — must lie wholly inside the locked leaves.
#[test]
fn a_moved_shooters_query_stays_inside_its_locked_leaves() {
    let w = world(1);
    // Largest entity extents: 48 across (teleporters), 56 tall (players
    // and items).
    let reach_of_a_candidate = vec3(48.0, 48.0, 56.0);
    let step = max_move_distance(30);
    let b = w.map.bounds;
    let mut rng = Pcg32::seeded(28);
    let (mut plan, mut touched) = (LeafSet::new(), LeafSet::new());
    let (mut line_of_fire, mut off_the_lock_within_margin) = (0, 0);
    for _ in 0..4000 {
        let p = vec3(
            rng.range_f32(b.min.x + 64.0, b.max.x - 64.0),
            rng.range_f32(b.min.y + 64.0, b.max.y - 64.0),
            40.0,
        );
        if !w.map.player_fits(p) {
            continue;
        }
        let (yaw, pitch) = (rng.range_f32(-180.0, 180.0), rng.range_f32(-40.0, 40.0));
        // Phase B's lock region, from where the shooter stood then…
        w.store
            .with_mut(0, 0, |e| (e.pos, e.yaw, e.pitch) = (p, yaw, pitch));
        let me = w.store.snapshot(0);
        let lock = directional_beam_box(me.eye(), Angles::new(pitch, yaw, 0.0), HITSCAN_RANGE);
        w.tree
            .leaves_overlapping(&lock.inflated(Vec3::splat(LOCK_COVERAGE_MARGIN)), &mut plan);
        // …and its line of fire after another thread's move of it.
        let moved = p + vec3(rng.range_f32(-step, step), rng.range_f32(-step, step), 0.0);
        w.store.with_mut(0, 0, |e| {
            e.pos = moved;
            e.yaw = yaw + rng.range_f32(-20.0, 20.0);
            e.pitch = pitch + rng.range_f32(-10.0, 10.0);
        });
        let beam = Beam::trace(&w, &w.store.snapshot(0), &mut WorkCounters::new());
        let reach = beam.reach_box();
        let query = action_query(&lock, Some(&beam));
        if query == reach {
            line_of_fire += 1;
        } else if lock
            .inflated(Vec3::splat(LOCK_COVERAGE_MARGIN))
            .contains(&reach)
        {
            off_the_lock_within_margin += 1;
        }
        w.tree
            .leaves_overlapping(&query.inflated(reach_of_a_candidate), &mut touched);
        for &leaf in touched.ids() {
            assert!(
                plan.contains(leaf),
                "shooter moved {p:?} → {moved:?}: query {query:?} reaches unlocked leaf {leaf}"
            );
        }
    }
    // Both cases occur: the line of fire still inside the lock region,
    // and outside it by less than the margin (where an object the line
    // of fire reaches can overlap a leaf nobody locked).
    assert!(line_of_fire >= 100, "{line_of_fire} lines of fire queried");
    assert!(
        off_the_lock_within_margin >= 100,
        "{off_the_lock_within_margin} lines of fire left the lock region within its margin"
    );
}
