//! Property: an index kept up to date by `refresh` is the index a
//! from-scratch `build` makes of the same world — same entities, same
//! buckets, same charge — after every step of a random stream of world
//! edits: spawns, despawns, moves across rooms, projectile launches and
//! retirements, item takes and respawns, checkpoint restores and
//! cross-world player installs. Each kind of edit reaches the store
//! through one of its two writers (`with_mut`, `init`), so a writer that
//! forgets its row stamp, an activity flip patched in place instead of
//! merged, or a room change that skips the bucket recount all fail here.

use std::sync::Arc;

use parquake_bsp::mapgen::MapGenConfig;
use parquake_interest::EntityIndex;
use parquake_math::vec3::vec3;
use parquake_math::Pcg32;
use parquake_sim::interact::launch_projectile;
use parquake_sim::worldphase::run_world_phase;
use parquake_sim::{EntityClass, GameWorld, WorkCounters};
use proptest::prelude::*;

const PLAYERS: u16 = 12;

#[derive(Clone, Debug)]
enum Op {
    Spawn(u16),
    Despawn(u16),
    /// Teleport a player to a fraction of the map footprint.
    Move(u16, f32, f32),
    /// Nudge a player by less than a room.
    Nudge(u16, f32),
    Launch(u16),
    /// One world phase covering this many milliseconds: projectile
    /// flight and retirement, item respawns, player respawns.
    WorldPhase(u64),
    /// Take the n-th item (mod the item count) for this many ms.
    Take(u16, u64),
    Checkpoint,
    Restore,
    /// Install player `a` of a second world into slot `b` of this one.
    Migrate(u16, u16),
    /// Refresh with nothing written.
    Idle,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let p = || 0..PLAYERS;
    // Moves, launches and world phases are listed twice: the edits a
    // frame makes most.
    prop_oneof![
        p().prop_map(Op::Spawn),
        p().prop_map(Op::Despawn),
        (p(), 0.05f32..0.95, 0.05f32..0.95).prop_map(|(i, x, y)| Op::Move(i, x, y)),
        (p(), 0.05f32..0.95, 0.05f32..0.95).prop_map(|(i, x, y)| Op::Move(i, x, y)),
        (p(), -40.0f32..40.0).prop_map(|(i, d)| Op::Nudge(i, d)),
        (p(), -40.0f32..40.0).prop_map(|(i, d)| Op::Nudge(i, d)),
        p().prop_map(Op::Launch),
        p().prop_map(Op::Launch),
        (10u64..2_000).prop_map(Op::WorldPhase),
        (10u64..2_000).prop_map(Op::WorldPhase),
        (any::<u16>(), 10u64..3_000).prop_map(|(n, ms)| Op::Take(n, ms)),
        Just(Op::Checkpoint),
        Just(Op::Restore),
        (p(), p()).prop_map(|(a, b)| Op::Migrate(a, b)),
        Just(Op::Idle),
    ]
}

struct Run {
    world: GameWorld,
    other: GameWorld,
    footprint: (f32, f32),
    rng: Pcg32,
    now: u64,
    checkpoint: Option<Vec<u8>>,
}

impl Run {
    fn new() -> Run {
        let cfg = MapGenConfig {
            grid_w: 4,
            grid_h: 3,
            vis_depth: 1,
            ..MapGenConfig::large_arena(35)
        };
        let footprint = cfg.footprint();
        let map = Arc::new(cfg.generate());
        let world = GameWorld::new(map.clone(), 4, PLAYERS);
        let other = GameWorld::new(map, 4, PLAYERS);
        let mut rng = Pcg32::seeded(35);
        for i in 0..PLAYERS / 2 {
            world.spawn_player(i, i as u32, &mut rng);
        }
        for i in 0..PLAYERS {
            other.spawn_player(i, 100 + i as u32, &mut rng);
        }
        Run {
            world,
            other,
            footprint,
            rng,
            now: 1_000_000,
            checkpoint: None,
        }
    }

    fn apply(&mut self, op: &Op) {
        let w = &self.world;
        let active = |i: u16| w.store.snapshot(w.player_slot(i)).active;
        match *op {
            Op::Spawn(i) => {
                if !active(i) {
                    w.spawn_player(i, i as u32, &mut self.rng);
                }
            }
            Op::Despawn(i) => w.despawn_player(i),
            Op::Move(i, fx, fy) if active(i) => {
                let id = w.player_slot(i);
                let (x, y) = (fx * self.footprint.0, fy * self.footprint.1);
                w.store.with_mut(id, 0, |e| e.pos = vec3(x, y, e.pos.z));
                w.relink_unlocked(id);
            }
            Op::Nudge(i, d) if active(i) => {
                let id = w.player_slot(i);
                w.store.with_mut(id, 0, |e| {
                    e.pos.x += d;
                    e.yaw += d;
                });
                w.relink_unlocked(id);
            }
            Op::Launch(i) => {
                let mut work = WorkCounters::new();
                if let Some(slot) = launch_projectile(w, 0, i, self.now, &mut work) {
                    w.relink_unlocked(slot);
                }
            }
            Op::WorldPhase(ms) => {
                let dt = ms * 1_000_000;
                self.now += dt;
                let mut events = Vec::new();
                let mut work = WorkCounters::new();
                run_world_phase(w, self.now, dt, &mut self.rng, &mut events, &mut work);
            }
            Op::Take(n, ms) => {
                let items = w.item_ids();
                if !items.is_empty() {
                    let id = items.start + n % (items.end - items.start);
                    let at = self.now + ms * 1_000_000;
                    w.store.with_mut(id, 0, |e| {
                        if let EntityClass::Item {
                            taken, respawn_at, ..
                        } = &mut e.class
                        {
                            *taken = true;
                            *respawn_at = at;
                        }
                    });
                }
            }
            Op::Checkpoint => self.checkpoint = Some(w.snapshot_bytes()),
            Op::Restore => {
                if let Some(bytes) = &self.checkpoint {
                    w.restore_bytes(bytes).expect("own checkpoint restores");
                }
            }
            Op::Migrate(a, b) => {
                if !active(b) {
                    let capsule = self
                        .other
                        .snapshot_player_bytes(a)
                        .expect("the second world's players stay spawned");
                    w.restore_player_bytes(b, &capsule)
                        .expect("an inactive slot takes a capsule");
                }
            }
            Op::Move(..) | Op::Nudge(..) | Op::Idle => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 160 }))]

    #[test]
    fn refresh_equals_build_after_every_edit(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut run = Run::new();
        let mut index = EntityIndex::default();
        for (step, op) in ops.iter().enumerate() {
            run.apply(op);
            let mut refreshed = WorkCounters::new();
            index.refresh(&run.world, &mut refreshed);
            let mut built = WorkCounters::new();
            let fresh = EntityIndex::build(&run.world, &mut built);
            prop_assert!(index == fresh, "step {} ({:?}): refresh != build", step, op);
            prop_assert_eq!(refreshed.interest_steps, built.interest_steps, "charge, step {}", step);
        }
    }
}

/// A refresh follows its index to another world of the same capacity:
/// row stamps are per store, so equal stamps there mean nothing.
#[test]
fn refresh_against_another_store_starts_over() {
    let run = Run::new();
    let mut index = EntityIndex::build(&run.world, &mut WorkCounters::new());
    index.refresh(&run.other, &mut WorkCounters::new());
    assert!(index == EntityIndex::build(&run.other, &mut WorkCounters::new()));
    index.refresh(&run.world, &mut WorkCounters::new());
    assert!(index == EntityIndex::build(&run.world, &mut WorkCounters::new()));
}
