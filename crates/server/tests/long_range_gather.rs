//! Equivalence oracle for the long-range gathers.
//!
//! Under every policy, and in the lock-free frame (`policy: None`), an
//! `ATTACK` by a live shooter gathers along its beam box clipped at the
//! wall; what a policy *locks* for it — the whole map under `Baseline`,
//! the directional beam box under `Optimized` / `OnePass` — is its
//! locking rule only. Anything else (a `THROW`, a dead shooter) queries
//! what the policy locks, the expanded box in the lock-free frame. The
//! game must not notice: over seeded worlds the same long-range move
//! runs through `execute_move` on one world and, on an identical twin,
//! through a reference that gathers every entity in the full region
//! (the whole map in the lock-free frame and under `Baseline`, the
//! region the policy locks otherwise) and calls the public
//! `run_hitscan` / `launch_projectile` itself. Events, world hash and
//! every entity must come out identical, and the clipped gather may
//! never examine more link entries than the full one. Each run is the
//! only task of a virtual fabric, so a locking policy takes its locks
//! uncontended.

use std::sync::{Arc, Mutex};

use parquake_bsp::mapgen::MapGenConfig;
use parquake_bsp::BspWorld;
use parquake_fabric::{Fabric, FabricKind, Nanos, TaskCtx};
use parquake_math::angles::Angles;
use parquake_math::vec3::vec3;
use parquake_math::{Aabb, Pcg32, Vec3};
use parquake_metrics::ThreadStats;
use parquake_protocol::{Buttons, GameEvent, GameEventKind, MoveCmd};
use parquake_server::exec::{execute_move, ExecEnv, RegionLocks};
use parquake_server::{CostModel, LockPolicy};
use parquake_sim::entity::{Entity, EntityClass, EntityId};
use parquake_sim::interact::{
    directional_beam_box, launch_projectile, run_hitscan, Beam, EXPANDED_LOCK_MARGIN, HITSCAN_RANGE,
};
use parquake_sim::movement::{PLAYER_MAXS, PLAYER_MINS};
use parquake_sim::{GameWorld, WorkCounters};

const SHOOTER: u16 = 0;

/// Four maps of each of three kinds, generated once.
fn maps() -> Vec<Arc<BspWorld>> {
    (1..=4)
        .flat_map(|seed| {
            [
                MapGenConfig::large_arena(seed),
                MapGenConfig::small_arena(seed),
                MapGenConfig::open_hall(seed),
            ]
        })
        .map(|cfg| Arc::new(cfg.generate()))
        .collect()
}

/// A seeded world: one of `maps`, 6–40 players of whom roughly one in
/// six is dead, a third of the items taken, the shooter aimed at a
/// random other player half of the time (so beams do find victims).
fn seeded_world(seed: u64, maps: &[Arc<BspWorld>]) -> (GameWorld, MoveCmd) {
    let mut rng = Pcg32::seeded(0xB0A7 ^ seed);
    let map = maps[seed as usize % maps.len()].clone();
    let players = 6 + rng.below(35) as u16;
    let w = GameWorld::new(map, 4, players);
    for i in 0..players {
        w.spawn_player(i, i as u32, &mut rng);
        w.store.with_mut(i, 0, |e| {
            e.pitch = rng.range_f32(-30.0, 30.0);
            if i != SHOOTER && rng.below(6) == 0 {
                if let EntityClass::Player { dead, .. } = &mut e.class {
                    *dead = true;
                }
            }
        });
    }
    for item in w.item_ids() {
        if rng.below(3) == 0 {
            w.store.with_mut(item, 0, |e| {
                if let EntityClass::Item { taken, .. } = &mut e.class {
                    *taken = true;
                }
            });
        }
    }
    let me = w.store.snapshot(SHOOTER);
    let (yaw, pitch) = if rng.below(2) == 0 {
        let target = w.store.snapshot(1 + rng.below(players as u32 - 1) as u16);
        let a = Angles::looking_at(me.eye(), target.pos);
        (a.yaw, a.pitch)
    } else {
        (rng.range_f32(-180.0, 180.0), rng.range_f32(-40.0, 40.0))
    };
    let buttons = match rng.below(4) {
        0 | 1 => Buttons::ATTACK,
        2 => Buttons::THROW,
        _ => Buttons::ATTACK | Buttons::THROW,
    };
    let cmd = MoveCmd {
        buttons: Buttons(buttons),
        yaw,
        pitch,
        forward: rng.range_f32(0.0, 300.0),
        ..MoveCmd::idle(1, 30)
    };
    (w, cmd)
}

/// What one long-range move did to a world.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<GameEvent>,
    hash: u64,
    entities: Vec<Entity>,
}

/// Run `body` as the only task of a fresh virtual fabric under
/// `policy`, with a cost model that charges one nanosecond per link
/// entry a gather examines and nothing else: the task's clock then
/// counts `WorkCounters::candidates`. Returns the outcome and that
/// count.
fn on_fabric(
    policy: Option<LockPolicy>,
    w: GameWorld,
    body: impl FnOnce(&ExecEnv<'_>, &TaskCtx) -> Vec<GameEvent> + Send + 'static,
) -> (Outcome, Nanos) {
    let fabric: Arc<dyn Fabric> = FabricKind::VirtualSmp(Default::default()).build();
    let locks = RegionLocks::new(&fabric, &w.tree, w.max_players() as usize);
    let out = Arc::new(Mutex::new(None));
    let o = out.clone();
    fabric.spawn(
        "driver",
        Some(0),
        Box::new(move |ctx: &TaskCtx| {
            let cost = CostModel {
                candidate: 1,
                ..CostModel::default().scaled(0.0)
            };
            let env = ExecEnv {
                world: &w,
                locks: &locks,
                cost: &cost,
                policy,
                commit_log: None,
            };
            let events = body(&env, ctx);
            let entities = (0..w.store.capacity() as EntityId)
                .map(|id| w.store.snapshot(id))
                .collect();
            let outcome = Outcome {
                events,
                hash: w.world_hash(),
                entities,
            };
            *o.lock().unwrap() = Some((outcome, ctx.now()));
        }),
    );
    fabric.run();
    let got = out.lock().unwrap().take();
    got.expect("driver task finished")
}

/// The move as the server runs it.
fn through_execute_move(
    policy: Option<LockPolicy>,
    w: GameWorld,
    cmd: MoveCmd,
) -> (Outcome, Nanos) {
    on_fabric(policy, w, move |env, ctx| {
        let mut stats = ThreadStats::new();
        execute_move(env, ctx, 0, SHOOTER, &cmd, &mut stats, &mut 0).events
    })
}

/// The full region of the reference's gather for `me`, the shooter after
/// its motion: the whole map where that is what the lock-free frame
/// gathered before its gathers were sized, or what `Baseline` locks;
/// otherwise the region `Optimized` and `OnePass` lock for the action
/// at the shooter's post-move position (paper §4.3).
fn full_region(policy: Option<LockPolicy>, w: &GameWorld, me: &Entity, buttons: Buttons) -> Aabb {
    match policy {
        None | Some(LockPolicy::Baseline) => w.map.bounds,
        Some(_) if buttons.has(Buttons::ATTACK) => {
            directional_beam_box(me.eye(), Angles::new(me.pitch, me.yaw, 0.0), HITSCAN_RANGE)
        }
        Some(_) => me.abs_box().inflated(Vec3::splat(EXPANDED_LOCK_MARGIN)),
    }
}

/// The reference: the motion through `execute_move` with the long-range
/// buttons released, then the action over a gather of the full region —
/// every node of the tree it overlaps, every link entry there, as the
/// executor gathered before its queries were sized to the line of fire.
fn through_full_region_gather(
    policy: Option<LockPolicy>,
    w: GameWorld,
    cmd: MoveCmd,
) -> (Outcome, Nanos) {
    on_fabric(policy, w, move |env, ctx| {
        let now = ctx.now();
        let walk = MoveCmd {
            buttons: Buttons(cmd.buttons.0 & !(Buttons::ATTACK | Buttons::THROW)),
            ..cmd
        };
        let mut stats = ThreadStats::new();
        let mut events = execute_move(env, ctx, 0, SHOOTER, &walk, &mut stats, &mut 0).events;

        let w = env.world;
        let buttons = Buttons(cmd.buttons.0);
        let region = full_region(policy, w, &w.store.snapshot(SHOOTER), buttons);
        let mut work = WorkCounters::new();
        let (mut nodes, mut raw, mut everyone) = (Vec::new(), Vec::new(), Vec::new());
        w.tree.nodes_overlapping(&region, &mut nodes);
        for &node in &nodes {
            raw.clear();
            w.links.extend_into(node, 0, &mut raw);
            work.candidates += raw.len() as u64;
            everyone.extend(raw.iter().map(|&id| id as EntityId).filter(|&id| {
                let e = w.store.snapshot(id);
                e.active && e.abs_box().intersects(&region)
            }));
        }
        if buttons.has(Buttons::ATTACK) {
            if let Some(hit) = run_hitscan(w, 0, SHOOTER, &everyone, &mut work) {
                events.push(GameEvent {
                    kind: GameEventKind::Hit,
                    a: SHOOTER,
                    b: hit.victim,
                    pos: hit.pos,
                });
            }
        }
        if buttons.has(Buttons::THROW) {
            if let Some(proj) = launch_projectile(w, 0, SHOOTER, now, &mut work) {
                w.relink_unlocked(proj);
            }
        }
        ctx.charge(env.cost.work_ns(&work));
        events
    })
}

/// Run the 240 seeded worlds under `policy` against the full-region
/// reference. Returns the link entries the sized gathers examined, world
/// by world, and the full region's total.
fn seeded_worlds_match_the_full_region_gather(policy: Option<LockPolicy>) -> (Vec<Nanos>, u64) {
    let (mut hits, mut launches) = (0u32, 0u32);
    let (mut sized_by_world, mut full_total) = (Vec::new(), 0u64);
    let maps = maps();
    for seed in 0..240u64 {
        let (world, cmd) = seeded_world(seed, &maps);
        let (twin, twin_cmd) = seeded_world(seed, &maps);
        assert_eq!(world.world_hash(), twin.world_hash(), "seed {seed}: twins");
        assert_eq!(cmd, twin_cmd);

        let (got, sized) = through_execute_move(policy, world, cmd);
        let (want, full) = through_full_region_gather(policy, twin, cmd);
        let case = format!("{policy:?}, seed {seed}");
        assert_eq!(got.events, want.events, "{case}: events ({cmd:?})");
        assert_eq!(got.hash, want.hash, "{case}: world hash ({cmd:?})");
        assert_eq!(got.entities, want.entities, "{case}: entities");
        assert!(
            sized <= full,
            "{case}: the sized gather examined {sized} link entries, the full region has {full}"
        );
        sized_by_world.push(sized);
        full_total += full;
        hits += got
            .events
            .iter()
            .filter(|e| e.kind == GameEventKind::Hit)
            .count() as u32;
        launches += got
            .entities
            .iter()
            .filter(|e| matches!(e.class, EntityClass::Projectile { live: true, .. }))
            .count() as u32;
    }
    // The worlds must exercise what they compare.
    assert!(hits >= 20, "{policy:?}: only {hits} beams found a victim");
    assert!(
        launches >= 60,
        "{policy:?}: only {launches} projectiles launched"
    );
    (sized_by_world, full_total)
}

#[test]
fn sized_gathers_play_the_same_game_as_the_whole_map_gather() {
    let (sized, whole) = seeded_worlds_match_the_full_region_gather(None);
    let sized: Nanos = sized.iter().sum();
    assert!(
        sized * 2 < whole,
        "sized gathers examined {sized} link entries against {whole}: nothing shrank"
    );
}

/// A locking policy decides what a hitscan locks, not what it queries:
/// under each, the seeded worlds examine fewer link entries than their
/// full lock regions hold — under `Optimized` and `OnePass`, whose
/// throws also query what they lock, exactly the entries the lock-free
/// frame examines, world by world.
#[test]
fn locked_hitscans_query_only_their_line_of_fire() {
    let (lock_free, _) = seeded_worlds_match_the_full_region_gather(None);
    for policy in [
        LockPolicy::Baseline,
        LockPolicy::Optimized,
        LockPolicy::OnePass,
    ] {
        let (sized, full) = seeded_worlds_match_the_full_region_gather(Some(policy));
        if policy != LockPolicy::Baseline {
            assert_eq!(
                sized, lock_free,
                "{policy:?}: the query depends on the policy"
            );
        }
        let sized: Nanos = sized.iter().sum();
        assert!(
            sized < full,
            "{policy:?}: sized gathers examined {sized} link entries against {full}: nothing shrank"
        );
    }
}

/// A hall, the shooter looking due east at its far wall, and one victim
/// whose near face stands `gap` units in front of (positive) or behind
/// (negative) the point where the beam meets the wall.
fn victim_at_the_wall(gap: f32) -> (GameWorld, MoveCmd) {
    let cmd = MoveCmd {
        buttons: Buttons(Buttons::ATTACK),
        yaw: 0.0,
        pitch: 0.0,
        ..MoveCmd::idle(1, 30)
    };
    let build = || {
        let w = GameWorld::new(Arc::new(MapGenConfig::open_hall(11).generate()), 4, 2);
        let mut rng = Pcg32::seeded(5);
        w.spawn_player(0, 0, &mut rng);
        w.spawn_player(1, 1, &mut rng);
        w
    };
    // Where the shooter stands after the command's motion, and where
    // its beam meets the wall from there: a victim at the far wall is
    // no candidate of that motion, so a trial world tells.
    let trial = build();
    let walk = MoveCmd {
        buttons: Buttons(0),
        ..cmd
    };
    let (after, _) = through_execute_move(None, trial, walk);
    let me = after.entities[SHOOTER as usize];
    let scratch = build();
    let beam = Beam::trace(&scratch, &me, &mut WorkCounters::new());
    assert!(beam.wall_frac < 1.0, "the hall has a far wall");
    let wall = beam.eye.mul_add(
        beam.dir,
        parquake_sim::interact::HITSCAN_RANGE * beam.wall_frac,
    );

    let w = build();
    let near_face = wall.x - gap;
    w.store.with_mut(1, 0, |e| {
        e.pos = vec3(near_face - PLAYER_MINS.x, wall.y, wall.z);
    });
    w.relink_unlocked(1);
    let v = w.store.snapshot(1).abs_box();
    assert!(v.min.y < wall.y && wall.y < v.max.y && v.min.z < wall.z && wall.z < v.max.z);
    // The victim is thicker than the gap: part of it is always on the
    // near side of the wall plane.
    const _: () = assert!(PLAYER_MAXS.x - PLAYER_MINS.x > 1.0);
    (w, cmd)
}

#[test]
fn a_victim_one_unit_before_the_wall_is_hit_and_one_just_behind_it_is_not() {
    for (policy, gap, hit) in [None, Some(LockPolicy::Optimized)]
        .into_iter()
        .flat_map(|p| [(p, 1.0, true), (p, -1.0, false)])
    {
        let (world, cmd) = victim_at_the_wall(gap);
        let (twin, _) = victim_at_the_wall(gap);
        let (got, sized) = through_execute_move(policy, world, cmd);
        let (want, full) = through_full_region_gather(policy, twin, cmd);
        assert_eq!(got, want, "{policy:?}, gap {gap}");
        assert!(sized <= full);
        let hits: Vec<_> = got
            .events
            .iter()
            .filter(|e| e.kind == GameEventKind::Hit)
            .collect();
        if hit {
            assert_eq!(
                hits.len(),
                1,
                "{policy:?}, gap {gap}: the victim stands before the wall"
            );
            assert_eq!((hits[0].a, hits[0].b), (0, 1));
        } else {
            assert!(
                hits.is_empty(),
                "{policy:?}, gap {gap}: the wall shields the victim"
            );
        }
    }
}
