//! The crowd moves. A spawn never lands inside a live player, a pair
//! that overlaps anyway can walk apart, a dense scripted deathmatch
//! spends its slide iterations on motion instead of on four
//! fraction-0 bumps, nothing leaves the world, and the packed row the
//! broad phases read never drifts from its entity.

use std::sync::Arc;

use parquake::bots::{BotBehavior, BotMind};
use parquake::bsp::mapgen::MapGenConfig;
use parquake::harness::experiment::{Experiment, ExperimentConfig};
use parquake::math::angles::Angles;
use parquake::math::vec3::vec3;
use parquake::math::{Aabb, Pcg32, Vec3};
use parquake::protocol::{Buttons, MoveCmd};
use parquake::server::ServerKind;
use parquake::sim::interact::{
    directional_beam_box, launch_projectile, run_hitscan, HITSCAN_RANGE,
};
use parquake::sim::movement::{move_bounding_box, run_move, MAX_GROUND_SPEED};
use parquake::sim::worldphase::run_world_phase;
use parquake::sim::{EntityId, GameWorld, WorkCounters};

const TICK_NS: u64 = 30_000_000;

fn spawn_crowd(cfg: MapGenConfig, players: u16, seed: u64) -> GameWorld {
    let world = GameWorld::new(Arc::new(cfg.generate()), 4, players);
    let mut rng = Pcg32::seeded(seed);
    for i in 0..players {
        world.spawn_player(i, i as u32, &mut rng);
    }
    world
}

fn live_players(w: &GameWorld) -> Vec<EntityId> {
    (0..w.max_players())
        .filter(|&p| w.store.row(p).live_player())
        .collect()
}

fn overlapping_pairs(w: &GameWorld) -> Vec<(EntityId, EntityId)> {
    let live = live_players(w);
    let mut pairs = Vec::new();
    for (i, &a) in live.iter().enumerate() {
        for &b in &live[i + 1..] {
            if w.store.row(a).bounds.intersects(&w.store.row(b).bounds) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// A single-threaded frame loop over the simulation's public surface:
/// world phase, then every player's scripted move (gather, `run_move`,
/// relink, hitscan or throw) — what the sequential server does, minus
/// the network.
struct Session {
    world: GameWorld,
    minds: Vec<BotMind>,
    rng: Pcg32,
    now: u64,
    work: WorkCounters,
    moves: u64,
    nodes: Vec<u32>,
    raw: Vec<u32>,
    cands: Vec<EntityId>,
}

impl Session {
    fn new(world: GameWorld, seed: u64) -> Session {
        let minds = (0..world.max_players())
            .map(|p| BotMind::new(p as u32, seed, BotBehavior::deathmatch()))
            .collect();
        Session {
            world,
            minds,
            rng: Pcg32::new(seed, 7),
            now: 0,
            work: WorkCounters::new(),
            moves: 0,
            nodes: Vec::new(),
            raw: Vec::new(),
            cands: Vec::new(),
        }
    }

    fn gather(&mut self, query: &Aabb) {
        self.cands.clear();
        self.world.tree.nodes_overlapping(query, &mut self.nodes);
        for &node in &self.nodes {
            self.raw.clear();
            self.world.links.extend_into(node, 0, &mut self.raw);
            for &id in &self.raw {
                let row = self.world.store.row(id as EntityId);
                if row.active() && row.bounds.intersects(query) {
                    self.cands.push(id as EntityId);
                }
            }
        }
    }

    /// One frame covering `dt_ns` of game time.
    fn frame(&mut self, dt_ns: u64) {
        self.now += dt_ns;
        let mut events = Vec::new();
        run_world_phase(
            &self.world,
            self.now,
            dt_ns.min(250_000_000),
            &mut self.rng,
            &mut events,
            &mut self.work,
        );
        let mut touched = Vec::new();
        for p in 0..self.world.max_players() {
            let cmd = self.minds[p as usize].think(self.now, 30);
            let me = self.world.store.snapshot(p);
            if !me.is_live_player() {
                continue;
            }
            self.gather(&move_bounding_box(&me.abs_box(), me.vel, cmd.msec));
            touched.clear();
            run_move(
                &self.world,
                0,
                p,
                &cmd,
                &self.cands,
                self.now,
                &mut touched,
                &mut self.work,
            );
            self.world.relink_unlocked(p);
            self.moves += 1;
            let buttons = Buttons(cmd.buttons.0);
            if buttons.has(Buttons::ATTACK) {
                let me = self.world.store.snapshot(p);
                let angles = Angles::new(me.pitch, me.yaw, 0.0);
                self.gather(&directional_beam_box(me.eye(), angles, HITSCAN_RANGE));
                run_hitscan(&self.world, 0, p, &self.cands, &mut self.work);
            } else if buttons.has(Buttons::THROW) {
                if let Some(proj) = launch_projectile(&self.world, 0, p, self.now, &mut self.work) {
                    self.world.relink_unlocked(proj);
                }
            }
        }
    }
}

#[test]
fn no_two_live_players_intersect_after_set_up() {
    // 4× and 10× spawn-point occupancy (100 and 25 spawn points).
    for (cfg, players) in [
        (MapGenConfig::large_arena(3), 384u16),
        (MapGenConfig::small_arena(3), 256),
    ] {
        let spawn_points = cfg.generate().spawn_points.len();
        let w = spawn_crowd(cfg.clone(), players, 11);
        assert_eq!(live_players(&w).len(), players as usize);
        assert_eq!(
            overlapping_pairs(&w),
            vec![],
            "{players} players on {spawn_points} spawn points"
        );
        for p in live_players(&w) {
            let e = w.store.snapshot(p);
            assert!(w.map.player_fits(e.pos), "player {p} in a wall");
            assert!(w.map.bounds.contains(&e.abs_box()), "player {p} outside");
        }
        w.audit_links().expect("link audit");
        // Placement is a pure function of the seed.
        let again = spawn_crowd(cfg, players, 11);
        for p in 0..players {
            assert_eq!(w.store.snapshot(p), again.store.snapshot(p));
        }
    }
}

#[test]
fn a_respawn_never_lands_on_a_live_player() {
    // Slot 0's own spawn point is taken by slot 25 (same point, 25
    // spawn points): a respawn must not drop slot 0 onto it.
    let w = spawn_crowd(MapGenConfig::small_arena(3), 26, 5);
    let squatter = w.store.snapshot(0).pos;
    w.despawn_player(0);
    w.store.with_mut(25, 0, |e| e.pos = squatter);
    w.relink_unlocked(25);
    let mut rng = Pcg32::seeded(6);
    w.spawn_player(0, 0, &mut rng);
    assert_eq!(overlapping_pairs(&w), vec![]);
}

#[test]
fn a_dense_crowd_walks() {
    let w = spawn_crowd(MapGenConfig::large_arena(1), 384, 1);
    let spawned: Vec<Vec3> = (0..384).map(|p| w.store.snapshot(p).pos).collect();
    let mut s = Session::new(w, 1);
    for _ in 0..120 {
        s.frame(TICK_NS);
    }
    // Parent: exactly 4.000 — every move of a stacked pair burnt all
    // `MAX_BUMPS` slide iterations at fraction 0.
    let per_move = s.work.substeps as f64 / s.moves as f64;
    assert!(per_move < 2.5, "{per_move:.3} slide iterations per move");
    let live = live_players(&s.world);
    let parked = live
        .iter()
        .filter(|&&p| {
            let d = s.world.store.snapshot(p).pos - spawned[p as usize];
            vec3(d.x, d.y, 0.0).length() < 1.0
        })
        .count();
    assert!(
        parked * 20 < live.len(),
        "{parked} of {} live players still stand where they spawned",
        live.len()
    );
    s.world.audit_links().expect("link audit");
}

#[test]
fn every_active_box_stays_inside_the_world() {
    // 200 seeded frames, every tenth one a stall of 60–250 ms: a long
    // world-phase step is what carried a projectile launched from
    // inside an outer wall out of the map.
    let mut s = Session::new(spawn_crowd(MapGenConfig::small_arena(9), 64, 9), 9);
    let mut stalls = Pcg32::seeded(99);
    for frame in 0..200 {
        let dt = if frame % 10 == 9 {
            stalls.range_f32(60.0, 250.0) as u64 * 1_000_000
        } else {
            TICK_NS
        };
        s.frame(dt);
        for id in 0..s.world.store.capacity() as EntityId {
            let row = s.world.store.row(id);
            assert!(
                !row.active() || s.world.map.bounds.contains(&row.bounds),
                "frame {frame}: entity {id} at {:?} left the world {:?}",
                row.bounds,
                s.world.map.bounds
            );
        }
    }
    s.world.audit_links().expect("link audit");
}

#[test]
fn a_default_virtual_time_session_ends_with_no_overlapping_pair() {
    // The figures' own configuration (bots that observe and react, the
    // sequential server on the virtual fabric). Parent: 56 of 128
    // players ended a run inside another player's box.
    let out = Experiment::new(ExperimentConfig::new(
        128,
        ServerKind::Sequential,
        3_000_000_000,
    ))
    .run();
    assert_eq!(out.connected, 128);
    assert_eq!(overlapping_pairs(&out.world), vec![]);
    out.world.audit_links().expect("link audit");
}

fn walk(yaw: f32) -> MoveCmd {
    MoveCmd {
        yaw,
        forward: MAX_GROUND_SPEED,
        ..MoveCmd::idle(0, 30)
    }
}

#[test]
fn players_sharing_one_box_walk_apart_whatever_they_wish() {
    let yaws = [0.0f32, 90.0, 180.0, -90.0, 45.0];
    for &ya in &yaws {
        for &yb in &yaws {
            let w = spawn_crowd(MapGenConfig::open_hall(7), 2, 3);
            // Two players out of one teleporter: the very same box.
            let shared = w.store.snapshot(0).pos;
            w.store.with_mut(1, 0, |e| e.pos = shared);
            w.relink_unlocked(1);
            let start = [w.store.snapshot(0).pos, w.store.snapshot(1).pos];
            let mut moved = [false; 2];
            let mut touched = Vec::new();
            let mut work = WorkCounters::new();
            for _ in 0..10 {
                for (p, yaw) in [(0u16, ya), (1, yb)] {
                    run_move(&w, 0, p, &walk(yaw), &[1 - p], 0, &mut touched, &mut work);
                    w.relink_unlocked(p);
                    let d = w.store.snapshot(p).pos - start[p as usize];
                    moved[p as usize] |= vec3(d.x, d.y, 0.0).length() > 1.0;
                }
            }
            assert_eq!(moved, [true; 2], "yaws {ya} / {yb}");
        }
    }
}

#[test]
fn pushing_into_an_overlapping_neighbour_is_still_blocked() {
    let w = spawn_crowd(MapGenConfig::open_hall(7), 2, 3);
    let mut touched = Vec::new();
    let mut work = WorkCounters::new();
    // Settle player 0 on the floor, then stand player 1 half a box east.
    for _ in 0..20 {
        run_move(
            &w,
            0,
            0,
            &MoveCmd::idle(0, 30),
            &[],
            0,
            &mut touched,
            &mut work,
        );
    }
    let a = w.store.snapshot(0);
    w.store.with_mut(1, 0, |e| {
        e.pos = a.pos + vec3(16.0, 0.0, 0.0);
        e.on_ground = true;
    });
    w.relink_unlocked(1);
    for _ in 0..10 {
        run_move(&w, 0, 0, &walk(0.0), &[1], 0, &mut touched, &mut work);
    }
    let after = w.store.snapshot(0);
    assert!(
        (after.pos.x - a.pos.x).abs() < 0.5,
        "walked {} units into its neighbour",
        after.pos.x - a.pos.x
    );
    // Away from it, the same player is free.
    for _ in 0..10 {
        run_move(&w, 0, 0, &walk(180.0), &[1], 0, &mut touched, &mut work);
    }
    assert!(w.store.snapshot(0).pos.x < a.pos.x - 16.0);
}

fn assert_rows_match(w: &GameWorld, what: &str) {
    for id in 0..w.store.capacity() as EntityId {
        let (e, row) = (w.store.snapshot(id), w.store.row(id));
        assert_eq!(row.bounds, e.abs_box(), "{what}: entity {id} box");
        assert_eq!(row.active(), e.active, "{what}: entity {id} active");
        assert_eq!(
            row.live_player(),
            e.is_live_player(),
            "{what}: entity {id} live"
        );
    }
    w.audit_links().unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn packed_rows_never_drift_from_their_entities() {
    let cfg = MapGenConfig::small_arena(4);
    let mut s = Session::new(spawn_crowd(cfg.clone(), 48, 4), 4);
    for _ in 0..150 {
        s.frame(TICK_NS);
    }
    assert_rows_match(&s.world, "after a seeded run");
    assert!(
        s.work.interactions > 0,
        "the run exercised pickups, hits or teleports"
    );

    // A checkpoint restored into a fresh world of the same shape.
    let fresh = GameWorld::new(s.world.map.clone(), 4, 48);
    fresh
        .restore_bytes(&s.world.snapshot_bytes())
        .expect("restore");
    assert_rows_match(&fresh, "after snapshot restore");
    assert_eq!(fresh.world_hash(), s.world.world_hash());

    // A migration capsule landing in another slot of another world.
    let target = spawn_crowd(cfg, 8, 5);
    target.despawn_player(3);
    let mover = live_players(&s.world)[0];
    let capsule = s.world.snapshot_player_bytes(mover).expect("capsule");
    target.restore_player_bytes(3, &capsule).expect("land");
    assert_rows_match(&target, "after a migration capsule lands");
    assert_eq!(target.store.row(3).bounds, s.world.store.row(mover).bounds);
}
