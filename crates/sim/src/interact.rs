//! Long-range interactions (paper §4.3's two object classes).
//!
//! * **Hitscan attacks** (`ATTACK`) are *fully simulated during request
//!   processing*: a ray from the shooter's eye to the edge of the world
//!   in the view direction. Under optimized locking the server locks the
//!   *directional* region covering that beam.
//! * **Thrown projectiles** (`THROW`) are *partly simulated during
//!   request processing and completed during the world physics phase*:
//!   the launch happens inline (within an *expanded* lock region), the
//!   flight is integrated by the master thread each frame.

use parquake_math::angles::Angles;
use parquake_math::{Aabb, Vec3};

use crate::entity::{Entity, EntityClass, EntityId};
use crate::world::GameWorld;
use crate::WorkCounters;

/// Hitscan range (beam is clipped to world geometry anyway).
pub const HITSCAN_RANGE: f32 = 4096.0;
/// Hitscan damage per hit.
pub const HITSCAN_DAMAGE: i32 = 15;
/// Projectile damage on impact.
pub const PROJECTILE_DAMAGE: i32 = 40;
/// Projectile muzzle speed (units/second).
pub const PROJECTILE_SPEED: f32 = 600.0;
/// Projectile lifetime.
pub const PROJECTILE_LIFETIME_NS: u64 = 1_500_000_000;
/// Distance from the shooter's eye to where its projectile appears.
pub const MUZZLE_OFFSET: f32 = 24.0;
/// How far beyond its bounding box a thrown object can affect the world
/// while being completed in the world phase — the *expanded* locking
/// margin of paper §4.3 (launch offset + first-frame flight).
pub const EXPANDED_LOCK_MARGIN: f32 = 96.0;

/// Result of a hitscan attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitInfo {
    pub victim: EntityId,
    pub pos: Vec3,
    pub killed: bool,
}

/// The axis-aligned region a directional (beam) lock must cover: from
/// the shooter's eye along the view direction, out to `range`, padded
/// by the victim hull size (paper §4.3 "directional bounding-box
/// locking").
pub fn directional_beam_box(eye: Vec3, angles: Angles, range: f32) -> Aabb {
    beam_box(eye, angles.forward(), range)
}

fn beam_box(eye: Vec3, dir: Vec3, range: f32) -> Aabb {
    Aabb::from_corners(eye, eye.mul_add(dir, range)).inflated(Vec3::splat(32.0))
}

/// A hitscan beam clipped at the wall: from `eye` along `dir`, blocked
/// by world geometry at `wall_frac` × [`HITSCAN_RANGE`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Beam {
    pub eye: Vec3,
    pub dir: Vec3,
    pub wall_frac: f32,
}

impl Beam {
    /// Trace `shooter`'s line of fire against the map — the one BSP
    /// point trace a hitscan costs.
    pub fn trace(world: &GameWorld, shooter: &Entity, work: &mut WorkCounters) -> Beam {
        let eye = shooter.eye();
        let dir = Angles::new(shooter.pitch, shooter.yaw, 0.0).forward();
        let tr = world.map.trace(
            parquake_bsp::Hull::Point,
            eye,
            eye.mul_add(dir, HITSCAN_RANGE),
        );
        work.trace_steps += tr.steps as u64;
        Beam {
            eye,
            dir,
            wall_frac: tr.fraction,
        }
    }

    /// The region holding every object the beam can hit: the
    /// directional box of [`directional_beam_box`], stopped at the
    /// wall. A box the ray enters before the wall contains a point of
    /// the clipped segment, so it intersects this region.
    pub fn reach_box(&self) -> Aabb {
        beam_box(self.eye, self.dir, HITSCAN_RANGE * self.wall_frac)
    }
}

/// Execute a hitscan attack for `shooter`: trace the beam, then
/// [`hitscan_along`] it. `candidates` must cover the beam region
/// (guaranteed by whichever locking policy gathered them). Returns the
/// nearest victim hit, with damage applied.
pub fn run_hitscan(
    world: &GameWorld,
    task: u32,
    shooter: EntityId,
    candidates: &[EntityId],
    work: &mut WorkCounters,
) -> Option<HitInfo> {
    let me = world.store.snapshot(shooter);
    if !me.is_live_player() {
        return None;
    }
    let beam = Beam::trace(world, &me, work);
    hitscan_along(world, task, shooter, &beam, candidates, work)
}

/// Apply a live `shooter`'s already-traced `beam`: damage the nearest
/// candidate player it reaches before the wall. `candidates` must cover
/// [`Beam::reach_box`].
pub fn hitscan_along(
    world: &GameWorld,
    task: u32,
    shooter: EntityId,
    beam: &Beam,
    candidates: &[EntityId],
    work: &mut WorkCounters,
) -> Option<HitInfo> {
    let Beam {
        eye,
        dir,
        wall_frac,
    } = *beam;
    let delta = dir * HITSCAN_RANGE;

    // Nearest candidate player intersecting the beam before the wall.
    let beam_origin = Aabb::point(eye);
    let mut best: Option<(f32, EntityId)> = None;
    for &cand in candidates {
        if cand == shooter {
            continue;
        }
        let other = world.store.row(cand);
        if !other.live_player() {
            continue;
        }
        work.object_tests += 1;
        if let Some(t) = beam_origin.sweep_hit(delta, &other.bounds) {
            if t <= wall_frac && best.map(|(bt, _)| t < bt).unwrap_or(true) {
                best = Some((t, cand));
            }
        }
    }

    let (t, victim) = best?;
    work.interactions += 1;
    let mut killed = false;
    world.store.with_mut(victim, task, |e| {
        if let EntityClass::Player { health, dead, .. } = &mut e.class {
            *health -= HITSCAN_DAMAGE;
            if *health <= 0 && !*dead {
                *dead = true;
                killed = true;
            }
        }
    });
    if killed {
        world.store.with_mut(shooter, task, |e| {
            if let EntityClass::Player { score, .. } = &mut e.class {
                *score += 5;
            }
        });
    }
    Some(HitInfo {
        victim,
        pos: eye.mul_add(dir, HITSCAN_RANGE * t),
        killed,
    })
}

/// Launch the shooter's projectile if its slot is idle and the muzzle
/// has a clear path from the eye. The caller must
/// hold locks covering the expanded region around the shooter and is
/// responsible for linking the returned entity.
pub fn launch_projectile(
    world: &GameWorld,
    task: u32,
    shooter_idx: u16,
    now: u64,
    work: &mut WorkCounters,
) -> Option<EntityId> {
    let shooter = world.player_slot(shooter_idx);
    let me = world.store.snapshot(shooter);
    if !me.is_live_player() {
        return None;
    }
    let slot = world.projectile_slot(shooter_idx);
    let proj = world.store.snapshot(slot);
    if let EntityClass::Projectile { live: true, .. } = proj.class {
        return None; // one in flight at a time
    }
    let angles = Angles::new(me.pitch, me.yaw, 0.0);
    let dir = angles.forward();
    let eye = me.eye();
    let start = eye.mul_add(dir, MUZZLE_OFFSET);
    // A shooter pressed against a wall (the player hull stops 16 units
    // short of it) has its muzzle in or beyond the brush, and a
    // projectile that starts in solid is never stopped by it — on an
    // outer wall it would leave the world. No clear path, no launch.
    let tr = world.map.trace(parquake_bsp::Hull::Projectile, eye, start);
    work.trace_steps += tr.steps as u64;
    if tr.hit() || tr.start_solid {
        return None;
    }
    work.interactions += 1;
    world.store.with_mut(slot, task, |e| {
        e.pos = start;
        e.vel = dir * PROJECTILE_SPEED + Vec3::new(0.0, 0.0, 40.0);
        e.active = true;
        e.class = EntityClass::Projectile {
            owner: shooter,
            expire_at: now + PROJECTILE_LIFETIME_NS,
            live: true,
        };
    });
    Some(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::vec3::vec3;
    use parquake_math::Pcg32;
    use std::sync::Arc;

    fn world() -> GameWorld {
        let map = Arc::new(MapGenConfig::open_hall(11).generate());
        GameWorld::new(map, 4, 8)
    }

    fn face(w: &GameWorld, shooter: EntityId, target: EntityId) {
        let a = w.store.snapshot(shooter);
        let b = w.store.snapshot(target);
        let ang = Angles::looking_at(a.eye(), b.pos);
        w.store.with_mut(shooter, 0, |e| {
            e.yaw = ang.yaw;
            e.pitch = ang.pitch;
        });
    }

    fn spawn_pair(w: &GameWorld) -> (EntityId, EntityId) {
        let mut rng = Pcg32::seeded(5);
        let a = w.spawn_player(0, 0, &mut rng);
        let b = w.spawn_player(1, 1, &mut rng);
        // Place them at a clean separation in open space.
        let center = w.map.spawn_points[0];
        w.store.with_mut(a, 0, |e| e.pos = center);
        w.store
            .with_mut(b, 0, |e| e.pos = center + vec3(300.0, 0.0, 0.0));
        w.relink_unlocked(a);
        w.relink_unlocked(b);
        (a, b)
    }

    #[test]
    fn hitscan_hits_facing_target() {
        let w = world();
        let (a, b) = spawn_pair(&w);
        face(&w, a, b);
        let mut work = WorkCounters::new();
        let hit = run_hitscan(&w, 0, a, &[b], &mut work).expect("must hit");
        assert_eq!(hit.victim, b);
        assert!(!hit.killed);
        match w.store.snapshot(b).class {
            EntityClass::Player { health, .. } => assert_eq!(health, 100 - HITSCAN_DAMAGE),
            _ => unreachable!(),
        }
    }

    #[test]
    fn hitscan_misses_when_facing_away() {
        let w = world();
        let (a, b) = spawn_pair(&w);
        face(&w, a, b);
        w.store.with_mut(a, 0, |e| e.yaw += 180.0);
        let mut work = WorkCounters::new();
        assert!(run_hitscan(&w, 0, a, &[b], &mut work).is_none());
    }

    #[test]
    fn hitscan_kill_awards_score() {
        let w = world();
        let (a, b) = spawn_pair(&w);
        face(&w, a, b);
        w.store.with_mut(b, 0, |e| {
            if let EntityClass::Player { health, .. } = &mut e.class {
                *health = HITSCAN_DAMAGE; // one shot left
            }
        });
        let mut work = WorkCounters::new();
        let hit = run_hitscan(&w, 0, a, &[b], &mut work).unwrap();
        assert!(hit.killed);
        match w.store.snapshot(a).class {
            EntityClass::Player { score, .. } => assert_eq!(score, 5),
            _ => unreachable!(),
        }
        assert!(!w.store.snapshot(b).is_live_player());
    }

    #[test]
    fn hitscan_picks_nearest_victim() {
        let w = world();
        let mut rng = Pcg32::seeded(6);
        let a = w.spawn_player(0, 0, &mut rng);
        let b = w.spawn_player(1, 1, &mut rng);
        let c = w.spawn_player(2, 2, &mut rng);
        let center = w.map.spawn_points[0];
        w.store.with_mut(a, 0, |e| e.pos = center);
        w.store
            .with_mut(b, 0, |e| e.pos = center + vec3(200.0, 0.0, 0.0));
        w.store
            .with_mut(c, 0, |e| e.pos = center + vec3(400.0, 0.0, 0.0));
        face(&w, a, c);
        let mut work = WorkCounters::new();
        let hit = run_hitscan(&w, 0, a, &[c, b], &mut work).unwrap();
        assert_eq!(hit.victim, b, "should hit the nearer player first");
    }

    #[test]
    fn walls_block_hitscan() {
        // Use the maze map: two players in different rooms.
        let map = Arc::new(MapGenConfig::small_arena(21).generate());
        let w = GameWorld::new(map, 4, 8);
        let mut rng = Pcg32::seeded(7);
        let a = w.spawn_player(0, 0, &mut rng);
        let b = w.spawn_player(1, 1, &mut rng);
        // Spawn 0 and spawn 24 are opposite corners; the maze between
        // them blocks a straight shot.
        w.store.with_mut(a, 0, |e| e.pos = w.map.spawn_points[0]);
        w.store
            .with_mut(b, 0, |e| e.pos = *w.map.spawn_points.last().unwrap());
        face(&w, a, b);
        let mut work = WorkCounters::new();
        assert!(run_hitscan(&w, 0, a, &[b], &mut work).is_none());
    }

    #[test]
    fn projectile_launch_occupies_slot() {
        let w = world();
        let (a, _) = spawn_pair(&w);
        let mut work = WorkCounters::new();
        let slot = launch_projectile(&w, 0, 0, 1000, &mut work).expect("launch");
        assert_eq!(slot, w.projectile_slot(0));
        let p = w.store.snapshot(slot);
        assert!(p.active);
        assert!(p.vel.length() > PROJECTILE_SPEED * 0.9);
        match p.class {
            EntityClass::Projectile {
                live,
                owner,
                expire_at,
            } => {
                assert!(live);
                assert_eq!(owner, a);
                assert_eq!(expire_at, 1000 + PROJECTILE_LIFETIME_NS);
            }
            _ => unreachable!(),
        }
        // Second launch while in flight is refused.
        assert!(launch_projectile(&w, 0, 0, 2000, &mut work).is_none());
    }

    #[test]
    fn directional_beam_box_contains_beam() {
        let eye = vec3(100.0, 100.0, 50.0);
        let ang = Angles::yawed(45.0);
        let b = directional_beam_box(eye, ang, 1000.0);
        assert!(b.contains_point(eye));
        assert!(b.contains_point(eye.mul_add(ang.forward(), 999.0)));
        // A beam along +x..+y diagonal: box spans both axes.
        assert!(b.size().x > 600.0 && b.size().y > 600.0);
    }
}
