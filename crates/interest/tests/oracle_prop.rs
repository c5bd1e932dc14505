//! Property-based oracle: on random worlds — random room grids and PVS
//! depths (one room that sees everything up to 36 that mostly do not),
//! player positions, view distances and inactive entities — the sweep's
//! interest set must equal the per-client scan *exactly*, including
//! the nearest-first truncation order, and the pair accounting
//! identity must close.

use std::sync::Arc;

use parquake_bsp::mapgen::MapGenConfig;
use parquake_interest::{match_viewers, EntityIndex, InterestStats};
use parquake_math::vec3::vec3;
use parquake_math::Pcg32;
use parquake_sim::visibility::build_reply_entities;
use parquake_sim::{EntityId, GameWorld, WorkCounters};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RandomWorld {
    /// Rooms along X and Y.
    grid: (u16, u16),
    /// Door-graph distance at which rooms still see each other (0: a
    /// room sees only itself).
    vis_depth: u32,
    players: u16,
    /// Per-player (x, y) position as a fraction of the map footprint
    /// (players beyond this list keep their spawn point).
    spots: Vec<(f32, f32)>,
    view_dist: f32,
    /// Player indices to despawn (mod `players`): inactive entities
    /// must be invisible to both matchers.
    gone: Vec<u16>,
}

fn arb_world() -> impl Strategy<Value = RandomWorld> {
    (
        (1u16..=6, 1u16..=6),
        0u32..=3,
        2u16..40,
        prop::collection::vec((0.05f32..0.95, 0.05f32..0.95), 0..40),
        50.0f32..2000.0,
        prop::collection::vec(any::<u16>(), 0..6),
    )
        .prop_map(
            |(grid, vis_depth, players, spots, view_dist, gone)| RandomWorld {
                grid,
                vis_depth,
                players,
                spots,
                view_dist,
                gone,
            },
        )
}

fn build(rw: &RandomWorld) -> GameWorld {
    let cfg = MapGenConfig {
        grid_w: rw.grid.0,
        grid_h: rw.grid.1,
        vis_depth: rw.vis_depth,
        ..MapGenConfig::large_arena(17)
    };
    let (fx, fy) = cfg.footprint();
    let map = Arc::new(cfg.generate());
    let mut w = GameWorld::new(map, 4, rw.players);
    w.max_view_dist = rw.view_dist;
    let mut rng = Pcg32::seeded(rw.players as u64);
    for i in 0..rw.players {
        w.spawn_player(i, i as u32, &mut rng);
    }
    // Teleport players to arbitrary coordinates. Interest matching
    // reads raw positions — it must agree with the scan even for
    // positions movement would never produce (inside walls, etc.).
    for (i, &(px, py)) in rw.spots.iter().enumerate() {
        let idx = (i as u16) % rw.players;
        let z = w.store.snapshot(idx).pos.z;
        w.store.with_mut(idx, 0, |e| {
            e.pos = vec3(px * fx, py * fy, z);
        });
        w.relink_unlocked(idx);
    }
    for &g in &rw.gone {
        w.despawn_player(g % rw.players);
    }
    w
}

fn scan(world: &GameWorld, viewer: EntityId) -> Vec<parquake_protocol::EntityUpdate> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut work = WorkCounters::new();
    build_reply_entities(world, viewer, &mut out, &mut scratch, &mut work);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_equals_scan_on_random_worlds(rw in arb_world()) {
        let w = build(&rw);
        let viewers: Vec<EntityId> = (0..rw.players)
            .filter(|&i| w.store.snapshot(i).active)
            .collect();
        let mut work = WorkCounters::new();
        let mut stats = InterestStats::default();
        let index = EntityIndex::build(&w, &mut work);
        let frame = match_viewers(&w, &index, &viewers, &mut work, &mut stats);
        for &v in &viewers {
            let swept = frame.get(v).expect("every viewer is matched");
            let scanned = scan(&w, v);
            prop_assert_eq!(
                swept,
                scanned.as_slice(),
                "sweep != scan for viewer {} on {:?}",
                v,
                rw
            );
        }
        prop_assert!(stats.pairs_closed(), "pair accounting open: {:?}", stats);
        prop_assert_eq!(stats.viewers, viewers.len() as u64);
    }
}
