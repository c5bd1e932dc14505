//! Player motion: the short-range component of move execution
//! (paper §2.3).
//!
//! A Quake-style ground mover: wish velocity from the command's motion
//! impulses and view yaw, ground friction and acceleration, gravity,
//! jumping, and a slide-move integrator that sweeps the player hull
//! against world BSP geometry *and* the candidate objects gathered from
//! the areanode tree, clipping velocity at each impact. After motion,
//! overlap touches trigger interactions (item pickup, teleporter pads).

use parquake_bsp::Anchor;
use parquake_math::angles::Angles;
use parquake_math::{clampf, Aabb, Plane, Vec3};
use parquake_protocol::{Buttons, MoveCmd};

use crate::entity::{EntityClass, EntityId};
use crate::world::GameWorld;
use crate::WorkCounters;

/// Maximum horizontal ground speed (units/second).
pub const MAX_GROUND_SPEED: f32 = 320.0;
/// Ground acceleration factor.
pub const ACCELERATION: f32 = 10.0;
/// Ground friction factor.
pub const FRICTION: f32 = 4.0;
/// Speed below which friction brings players to a stop quickly.
pub const STOP_SPEED: f32 = 100.0;
/// Downward acceleration (units/second²).
pub const GRAVITY: f32 = 800.0;
/// Jump impulse.
pub const JUMP_VELOCITY: f32 = 270.0;
/// Maximum slide-move iterations per command.
pub const MAX_BUMPS: usize = 4;
/// Terminal falling speed.
pub const MAX_FALL_SPEED: f32 = 2000.0;
/// Swim speed as a fraction of ground speed (Quake's water factor).
pub const WATER_SPEED_FACTOR: f32 = 0.7;
/// Water drag.
pub const WATER_FRICTION: f32 = 4.0;
/// Passive sink rate when not swimming.
pub const WATER_SINK_SPEED: f32 = 60.0;
/// Upward impulse when swim-jumping.
pub const WATER_JUMP_VELOCITY: f32 = 100.0;
/// The player collision hull (matches the BSP `Hull::Player`
/// inflation); exported so client-side predictors use the exact box the
/// server spawns players with.
pub const PLAYER_MINS: Vec3 = Vec3::new(-16.0, -16.0, -24.0);
pub const PLAYER_MAXS: Vec3 = Vec3::new(16.0, 16.0, 32.0);

/// A world interaction triggered by motion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TouchEvent {
    /// The mover picked up an item.
    Pickup { item: EntityId },
    /// The mover stepped on a teleporter pad; relocation to `dest` is
    /// deferred to the world phase (see DESIGN.md §4.4).
    Teleport { dest: Vec3 },
    /// The mover bumped into another player.
    PlayerContact { other: EntityId },
}

/// The player-visible motion state the pure kernel advances: exactly
/// the fields a client can predict and the server can authoritatively
/// correct. Everything else a move touches (view angles, scores,
/// pickups) is either derived from the command or server-only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictState {
    pub pos: Vec3,
    pub vel: Vec3,
    pub on_ground: bool,
}

/// What one kernel step did, besides producing the next state. The
/// counters are returned (not accumulated in-place) so the kernel has
/// no side channels — callers that meter work fold them in, callers
/// that don't (the client predictor) ignore them.
#[derive(Clone, Copy, Debug)]
pub struct KernelOutcome {
    pub state: PredictState,
    /// Slide-move iterations executed.
    pub substeps: u64,
    /// BSP trace steps spent by the kernel's own ground probe (the
    /// collide callback accounts for its own).
    pub trace_steps: u64,
}

/// The command's view pitch as committed to entity state (clamped like
/// the original client).
#[inline]
pub fn view_pitch(cmd: &MoveCmd) -> f32 {
    clampf(cmd.pitch, -89.0, 89.0)
}

/// The worst-case distance a single move command can carry a player,
/// used for the *bounding box of the move* (paper §2.3 step 1).
pub fn max_move_distance(msec: u8) -> f32 {
    let dt = msec.min(parquake_protocol::MAX_MOVE_MSEC) as f32 / 1000.0;
    // Horizontal sprint plus slack for collision epsilons.
    MAX_GROUND_SPEED * dt + 33.0
}

/// Bounding box of a move: the mover's current box expanded by the
/// maximum travel distance in every direction (vertical fall included).
pub fn move_bounding_box(ent_box: &Aabb, vel: Vec3, msec: u8) -> Aabb {
    let dt = msec.min(parquake_protocol::MAX_MOVE_MSEC) as f32 / 1000.0;
    let d = max_move_distance(msec);
    let fall = (vel.z.abs().min(MAX_FALL_SPEED) + GRAVITY * dt) * dt + 8.0;
    ent_box.inflated(Vec3::new(d, d, d.max(fall)))
}

/// Execute one move command for `mover`. `candidates` are the entity
/// ids gathered from the areanode traversal (claimed by the caller);
/// touch events are appended to `touched`, work to `work`. Entity state
/// for the mover and touched items is mutated through the store under
/// `task`'s claims. The mover is *not* relinked — the caller owns that.
#[allow(clippy::too_many_arguments)]
pub fn run_move(
    world: &GameWorld,
    task: u32,
    mover: EntityId,
    cmd: &MoveCmd,
    candidates: &[EntityId],
    now: u64,
    touched: &mut Vec<TouchEvent>,
    work: &mut WorkCounters,
) {
    let dt = cmd.duration_secs();
    if dt <= 0.0 {
        return;
    }
    let me = world.store.snapshot(mover);
    if !me.is_live_player() {
        return;
    }

    // Advance the shared kernel, clipping against world geometry plus
    // the gathered candidates. The kernel itself is candidate-agnostic:
    // a client predictor drives the very same float ops with a
    // world-only collide callback and lands bit-identically whenever no
    // object impact wins.
    let out = step_kernel(
        &world.map,
        PredictState {
            pos: me.pos,
            vel: me.vel,
            on_ground: me.on_ground,
        },
        cmd,
        &mut |anchor, pos, delta| {
            nearest_hit(
                world, anchor, mover, pos, me.mins, me.maxs, delta, candidates, work,
            )
        },
    );
    work.substeps += out.substeps;
    work.trace_steps += out.trace_steps;
    let PredictState {
        pos,
        vel,
        on_ground,
    } = out.state;
    let yaw = cmd.yaw;
    let pitch = view_pitch(cmd);

    // Commit motion.
    world.store.with_mut(mover, task, |e| {
        e.pos = pos;
        e.vel = vel;
        e.yaw = yaw;
        e.pitch = pitch;
        e.on_ground = on_ground;
    });

    // Touch interactions at the final position. The probe box is
    // slightly inflated because slide-move backs impacts off by the
    // collision epsilon — a player pressed against another should
    // still register contact.
    let my_box = Aabb::new(pos + me.mins, pos + me.maxs).inflated(Vec3::splat(2.0));
    for &cand in candidates {
        if cand == mover {
            continue;
        }
        let row = world.store.row(cand);
        if !row.active() {
            continue;
        }
        work.object_tests += 1;
        if !my_box.intersects(&row.bounds) {
            continue;
        }
        let other = world.store.snapshot(cand);
        match other.class {
            EntityClass::Item {
                class,
                taken: false,
                ..
            } => {
                work.interactions += 1;
                world.store.with_mut(cand, task, |e| {
                    if let EntityClass::Item {
                        taken, respawn_at, ..
                    } = &mut e.class
                    {
                        *taken = true;
                        *respawn_at = now + class.respawn_ns();
                    }
                });
                world.store.with_mut(mover, task, |e| {
                    if let EntityClass::Player { health, score, .. } = &mut e.class {
                        *score += 1;
                        if class == crate::entity::ItemClass::Health {
                            *health = (*health + 25).min(200);
                        }
                    }
                });
                touched.push(TouchEvent::Pickup { item: cand });
            }
            EntityClass::Teleporter { dest } => {
                work.interactions += 1;
                world.store.with_mut(mover, task, |e| {
                    if let EntityClass::Player {
                        pending_relocation, ..
                    } = &mut e.class
                    {
                        *pending_relocation = Some(dest);
                    }
                });
                touched.push(TouchEvent::Teleport { dest });
            }
            EntityClass::Player { .. } if other.is_live_player() => {
                touched.push(TouchEvent::PlayerContact { other: cand });
            }
            _ => {}
        }
    }
}

/// Advance one move command through the pure movement physics: wish
/// velocity, friction/acceleration (ground, air, water), jumping,
/// gravity, the slide-move integrator, the downward ground probe and
/// the NaN guard. `collide` resolves the earliest impact along a swept
/// segment — the server passes world + claimed candidates
/// ([`nearest_hit`] semantics), while the client predictor and the
/// server's reconciliation shadow pass [`world_only_hit`]. Both paths
/// execute the *same* float operations in the same order, so their
/// results are bit-identical whenever no object impact wins.
///
/// Every trace of the move — one per slide iteration inside `collide`,
/// plus the ground probe — is handed the move's [`Anchor`]: the BSP
/// subtree holding the reach box of the origin, found once.
pub fn step_kernel(
    map: &parquake_bsp::BspWorld,
    state: PredictState,
    cmd: &MoveCmd,
    collide: &mut dyn FnMut(&Anchor, Vec3, Vec3) -> (f32, Vec3),
) -> KernelOutcome {
    let mut out = KernelOutcome {
        state,
        substeps: 0,
        trace_steps: 0,
    };
    let dt = cmd.duration_secs();
    if dt <= 0.0 {
        return out;
    }
    let mut pos = state.pos;
    let mut vel = state.vel;
    let mut on_ground = state.on_ground;
    let yaw = cmd.yaw;
    let pitch = view_pitch(cmd);
    let anchor = map
        .hull_player
        .anchor_for(&move_bounding_box(&Aabb::point(pos), vel, cmd.msec));

    let submerged = map.in_water(pos);

    // Wish velocity: horizontal on land, full 3D while swimming (the
    // view pitch steers vertical motion in water, as in the original).
    let (f, r, _) = if submerged {
        Angles::new(pitch, yaw, 0.0).basis()
    } else {
        Angles::yawed(yaw).basis()
    };
    let mut wish = f * cmd.forward + r * cmd.side;
    if !submerged {
        wish.z = 0.0;
    }
    let wish_speed = wish
        .length()
        .min(MAX_GROUND_SPEED * if submerged { WATER_SPEED_FACTOR } else { 1.0 });
    let wish_dir = wish.normalized();

    if submerged {
        // Water movement: drag in all axes, no gravity, slow sink.
        let speed = vel.length();
        if speed > 0.0 {
            let drop = speed.max(STOP_SPEED * 0.5) * WATER_FRICTION * dt;
            let scale = ((speed - drop).max(0.0)) / speed;
            vel = vel * scale;
        }
        let current = vel.dot(wish_dir);
        let add = (wish_speed - current)
            .max(0.0)
            .min(ACCELERATION * wish_speed * dt);
        vel = vel.mul_add(wish_dir, add);
        if Buttons(cmd.buttons.0).has(Buttons::JUMP) {
            vel.z = WATER_JUMP_VELOCITY;
        } else if wish_speed < 1.0 {
            vel.z -= WATER_SINK_SPEED * dt;
        }
        on_ground = false;
    } else if on_ground {
        // Ground friction.
        let speed = vel.length_xy();
        if speed > 0.0 {
            let control = speed.max(STOP_SPEED);
            let drop = control * FRICTION * dt;
            let scale = ((speed - drop).max(0.0)) / speed;
            vel.x *= scale;
            vel.y *= scale;
        }
        // Ground acceleration towards the wish direction.
        let current = vel.dot(wish_dir);
        let add = (wish_speed - current)
            .max(0.0)
            .min(ACCELERATION * wish_speed * dt);
        vel = vel.mul_add(wish_dir, add);
        // Jump.
        if Buttons(cmd.buttons.0).has(Buttons::JUMP) {
            vel.z = JUMP_VELOCITY;
            on_ground = false;
        }
    } else {
        // Weak air control, full gravity.
        let current = vel.dot(wish_dir);
        let add = (wish_speed - current)
            .max(0.0)
            .min(ACCELERATION * 0.1 * wish_speed * dt);
        vel = vel.mul_add(wish_dir, add);
    }
    if !on_ground && !submerged {
        vel.z = (vel.z - GRAVITY * dt).max(-MAX_FALL_SPEED);
    }

    // Slide move: clip against whatever `collide` reports.
    let mut time_left = dt;
    for _bump in 0..MAX_BUMPS {
        if time_left <= 0.0 || vel.length_sq() < 1e-6 {
            break;
        }
        out.substeps += 1;
        let delta = vel * time_left;
        let (frac, normal) = collide(&anchor, pos, delta);
        pos = pos.mul_add(delta, frac);
        if frac >= 1.0 {
            break;
        }
        // Clip velocity and spend the consumed time.
        time_left *= 1.0 - frac;
        let plane = Plane::new(normal, 0.0);
        vel = plane.clip_velocity(vel, 1.0);
        // (grounding is decided by the probe below, not the bump plane)
    }

    // Ground re-check: a short downward probe. World-only on purpose —
    // standing on another player's head does not count as grounded —
    // which is also what keeps this probe predictable client-side.
    {
        let probe = Vec3::new(0.0, 0.0, -2.0);
        let tr = map.hull_player.trace_from(&anchor, pos, pos + probe);
        out.trace_steps += tr.steps as u64;
        on_ground = tr.hit() && tr.plane.normal.z > 0.7;
        if on_ground && vel.z < 0.0 {
            vel.z = 0.0;
        }
    }

    if !pos.is_finite() || !vel.is_finite() {
        // Defensive: never let NaNs escape into shared state.
        pos = state.pos;
        vel = Vec3::ZERO;
    }

    out.state = PredictState {
        pos,
        vel,
        on_ground,
    };
    out
}

/// [`step_kernel`] against world geometry only — the collide path of
/// the client predictor and the server's reconciliation shadow.
pub fn step_world_only(
    map: &parquake_bsp::BspWorld,
    state: PredictState,
    cmd: &MoveCmd,
) -> PredictState {
    let mut scratch = 0u64;
    step_kernel(map, state, cmd, &mut |anchor, pos, delta| {
        world_only_hit(map, anchor, pos, delta, &mut scratch)
    })
    .state
}

/// Back the raw best-impact fraction off by the collision epsilon, or
/// report a clear path. Shared by every collide implementation so the
/// server and the predictor stay bit-identical.
#[inline]
fn finish_hit(best: f32, normal: Vec3, delta: Vec3) -> (f32, Vec3) {
    if best >= 1.0 {
        return (1.0, Vec3::ZERO); // clear path: no clipping plane
    }
    let len = delta.length();
    (Aabb::backed_off(best, len).min(1.0), normal)
}

/// Earliest impact along `delta` against world geometry alone. Same
/// back-off contract as [`nearest_hit`]; trace steps are accumulated
/// into `trace_steps`.
pub fn world_only_hit(
    map: &parquake_bsp::BspWorld,
    anchor: &Anchor,
    pos: Vec3,
    delta: Vec3,
    trace_steps: &mut u64,
) -> (f32, Vec3) {
    let tr = map.hull_player.trace_from(anchor, pos, pos + delta);
    *trace_steps += tr.steps as u64;
    finish_hit(tr.fraction, tr.plane.normal, delta)
}

/// Earliest impact along `delta`: world geometry vs candidate objects.
/// Returns `(fraction, hit normal)`; fraction 1.0 = clear path.
#[allow(clippy::too_many_arguments)]
fn nearest_hit(
    world: &GameWorld,
    anchor: &Anchor,
    mover: EntityId,
    pos: Vec3,
    mins: Vec3,
    maxs: Vec3,
    delta: Vec3,
    candidates: &[EntityId],
    work: &mut WorkCounters,
) -> (f32, Vec3) {
    // World: swept player hull via the pre-inflated clip hull.
    let tr = world.map.hull_player.trace_from(anchor, pos, pos + delta);
    work.trace_steps += tr.steps as u64;
    let mut best = tr.fraction;
    let mut normal = tr.plane.normal;

    // Objects: swept AABB tests against solid candidates (players).
    let my_box = Aabb::new(pos + mins, pos + maxs);
    for &cand in candidates {
        if cand == mover {
            continue;
        }
        let other = world.store.row(cand);
        if !other.live_player() {
            continue; // items/pads are triggers, not solids
        }
        work.object_tests += 1;
        if let Some((t, n)) = my_box.sweep_hit_with_normal(delta, &other.bounds) {
            if t < best {
                best = t;
                normal = n;
            }
        }
    }
    finish_hit(best, normal, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::vec3::vec3;
    use parquake_math::Pcg32;
    use std::sync::Arc;

    fn world() -> GameWorld {
        let map = Arc::new(MapGenConfig::open_hall(7).generate());
        GameWorld::new(map, 4, 8)
    }

    fn spawn(w: &GameWorld, idx: u16) -> EntityId {
        let mut rng = Pcg32::seeded(idx as u64 + 1);
        w.spawn_player(idx, idx as u32, &mut rng)
    }

    fn walk(w: &GameWorld, id: EntityId, yaw: f32, frames: usize) -> Entity {
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        for i in 0..frames {
            let cmd = MoveCmd {
                seq: i as u32,
                sent_at: 0,
                pitch: 0.0,
                yaw,
                forward: MAX_GROUND_SPEED,
                side: 0.0,
                up: 0.0,
                buttons: Buttons::NONE,
                msec: 30,
                predict_ack: None,
            };
            run_move(w, 0, id, &cmd, &[], 0, &mut touched, &mut work);
            w.relink_unlocked(id);
        }
        w.store.snapshot(id)
    }

    #[test]
    fn player_settles_onto_floor() {
        let w = world();
        let id = spawn(&w, 0);
        let e = walk(&w, id, 0.0, 30);
        assert!(e.on_ground, "not grounded after 30 frames: {:?}", e.pos);
        // Feet (origin - 24) just above the floor plane z = 0.
        assert!(e.pos.z > 23.0 && e.pos.z < 26.0, "z = {}", e.pos.z);
    }

    #[test]
    fn walking_moves_in_yaw_direction() {
        let w = world();
        let id = spawn(&w, 0);
        let before = walk(&w, id, 0.0, 20); // settle + accelerate east
        let after = walk(&w, id, 0.0, 20);
        assert!(after.pos.x > before.pos.x + 50.0, "no eastward progress");
        assert!((after.pos.y - before.pos.y).abs() < 30.0);
    }

    #[test]
    fn speed_is_capped() {
        let w = world();
        let id = spawn(&w, 0);
        let e = walk(&w, id, 90.0, 60);
        assert!(
            e.vel.length_xy() <= MAX_GROUND_SPEED + 1.0,
            "speed {} over cap",
            e.vel.length_xy()
        );
    }

    #[test]
    fn walls_stop_motion() {
        let w = world();
        let id = spawn(&w, 0);
        // Walk east for many frames: must stop at the arena wall, inside
        // bounds, not tunnel through.
        let e = walk(&w, id, 0.0, 400);
        assert!(w.map.bounds.contains_point(e.pos), "escaped: {:?}", e.pos);
        assert!(w.map.player_fits(e.pos), "embedded in wall: {:?}", e.pos);
    }

    #[test]
    fn jump_leaves_ground() {
        let w = world();
        let id = spawn(&w, 0);
        walk(&w, id, 0.0, 30); // settle
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let cmd = MoveCmd {
            buttons: Buttons(Buttons::JUMP),
            ..MoveCmd::idle(0, 30)
        };
        run_move(&w, 0, id, &cmd, &[], 0, &mut touched, &mut work);
        let e = w.store.snapshot(id);
        assert!(!e.on_ground);
        assert!(e.vel.z > 200.0);
    }

    #[test]
    fn friction_stops_player() {
        let w = world();
        let id = spawn(&w, 0);
        walk(&w, id, 0.0, 30); // get moving
                               // Now coast with no input.
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        for i in 0..60 {
            run_move(
                &w,
                0,
                id,
                &MoveCmd::idle(i, 30),
                &[],
                0,
                &mut touched,
                &mut work,
            );
        }
        let e = w.store.snapshot(id);
        assert!(e.vel.length_xy() < 5.0, "still moving at {:?}", e.vel);
    }

    #[test]
    fn players_collide_with_candidates() {
        let w = world();
        let a = spawn(&w, 0);
        let b = spawn(&w, 1);
        walk(&w, a, 0.0, 30);
        // Park B right in front of A.
        let pa = w.store.snapshot(a);
        w.store.with_mut(b, 0, |e| {
            e.pos = pa.pos + vec3(64.0, 0.0, 0.0);
            e.on_ground = true;
        });
        w.relink_unlocked(b);
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let cmd = MoveCmd {
            yaw: 0.0,
            forward: MAX_GROUND_SPEED,
            ..MoveCmd::idle(0, 100)
        };
        for _ in 0..5 {
            run_move(&w, 0, a, &cmd, &[b], 0, &mut touched, &mut work);
        }
        let pa2 = w.store.snapshot(a);
        let pb = w.store.snapshot(b);
        // A cannot pass through B: it stops short (boxes are 32 wide).
        assert!(
            pa2.pos.x <= pb.pos.x - 30.0,
            "A at {:?} overran B at {:?}",
            pa2.pos,
            pb.pos
        );
        assert!(touched.contains(&TouchEvent::PlayerContact { other: b }));
        assert!(work.object_tests > 0);
    }

    #[test]
    fn pickup_marks_item_taken_and_scores() {
        let w = world();
        let id = spawn(&w, 0);
        walk(&w, id, 0.0, 30);
        let item = w.item_ids().next().unwrap();
        let me = w.store.snapshot(id);
        // Drop the item onto the player.
        w.store
            .with_mut(item, 0, |e| e.pos = me.pos + vec3(0.0, 0.0, -20.0));
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        run_move(
            &w,
            0,
            id,
            &MoveCmd::idle(0, 30),
            &[item],
            1000,
            &mut touched,
            &mut work,
        );
        assert!(touched.contains(&TouchEvent::Pickup { item }));
        let it = w.store.snapshot(item);
        match it.class {
            EntityClass::Item {
                taken, respawn_at, ..
            } => {
                assert!(taken);
                assert!(respawn_at > 1000);
            }
            _ => unreachable!(),
        }
        if let EntityClass::Player { score, .. } = w.store.snapshot(id).class {
            assert_eq!(score, 1);
        }
        // A second pass must not pick it up again.
        touched.clear();
        run_move(
            &w,
            0,
            id,
            &MoveCmd::idle(1, 30),
            &[item],
            2000,
            &mut touched,
            &mut work,
        );
        assert!(!touched.contains(&TouchEvent::Pickup { item }));
    }

    #[test]
    fn teleporter_touch_defers_relocation() {
        // open_hall has a single room and therefore no teleporters;
        // use the maze arena.
        let map = Arc::new(MapGenConfig::small_arena(13).generate());
        let w = GameWorld::new(map, 4, 8);
        let id = spawn(&w, 0);
        walk(&w, id, 0.0, 30);
        let tele = (w.item_ids().end..w.store.capacity() as u16)
            .find(|&i| matches!(w.store.snapshot(i).class, EntityClass::Teleporter { .. }))
            .expect("open_hall has teleporters");
        // Stop the player dead on the pad so the idle move stays put.
        w.store.with_mut(id, 0, |e| e.vel = Vec3::ZERO);
        let me = w.store.snapshot(id);
        w.store
            .with_mut(tele, 0, |e| e.pos = me.pos + vec3(0.0, 0.0, -24.0));
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        run_move(
            &w,
            0,
            id,
            &MoveCmd::idle(0, 30),
            &[tele],
            0,
            &mut touched,
            &mut work,
        );
        assert!(touched
            .iter()
            .any(|t| matches!(t, TouchEvent::Teleport { .. })));
        match w.store.snapshot(id).class {
            EntityClass::Player {
                pending_relocation, ..
            } => {
                assert!(pending_relocation.is_some())
            }
            _ => unreachable!(),
        }
        // Position unchanged until the world phase applies it.
        assert_eq!(w.store.snapshot(id).pos, me.pos);
    }

    #[test]
    fn move_bounding_box_covers_actual_motion() {
        let w = world();
        let id = spawn(&w, 0);
        walk(&w, id, 45.0, 30);
        let before = w.store.snapshot(id);
        let bbox = move_bounding_box(&before.abs_box(), before.vel, 30);
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let cmd = MoveCmd {
            yaw: 45.0,
            forward: MAX_GROUND_SPEED,
            side: 0.0,
            ..MoveCmd::idle(0, 30)
        };
        run_move(&w, 0, id, &cmd, &[], 0, &mut touched, &mut work);
        let after = w.store.snapshot(id);
        assert!(
            bbox.contains(&after.abs_box()),
            "motion escaped its bounding box: {:?} not in {:?}",
            after.abs_box(),
            bbox
        );
    }

    #[test]
    fn kernel_matches_run_move_bit_for_bit_without_candidates() {
        // The client predictor replays inputs through step_world_only;
        // reconciliation only converges if that path produces *exactly*
        // the floats run_move commits when no object impact interferes.
        // Drive a varied command stream (walk, turn, jump, coast, fall)
        // through both and require bit equality at every step.
        let w = world();
        let id = spawn(&w, 0);
        let me = w.store.snapshot(id);
        let mut shadow = PredictState {
            pos: me.pos,
            vel: me.vel,
            on_ground: me.on_ground,
        };
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let mut rng = Pcg32::seeded(0xBEEF);
        for i in 0..400u32 {
            let cmd = MoveCmd {
                seq: i,
                sent_at: 0,
                pitch: rng.range_f32(-30.0, 30.0),
                yaw: rng.range_f32(-180.0, 180.0),
                forward: if i % 7 == 3 { 0.0 } else { MAX_GROUND_SPEED },
                side: if i % 5 == 0 { -MAX_GROUND_SPEED } else { 0.0 },
                up: 0.0,
                buttons: if i % 11 == 4 {
                    Buttons(Buttons::JUMP)
                } else {
                    Buttons::NONE
                },
                msec: 15 + (i % 3) as u8 * 15,
                predict_ack: None,
            };
            run_move(&w, 0, id, &cmd, &[], 0, &mut touched, &mut work);
            w.relink_unlocked(id);
            shadow = step_world_only(&w.map, shadow, &cmd);
            let e = w.store.snapshot(id);
            assert_eq!(
                (e.pos, e.vel, e.on_ground),
                (shadow.pos, shadow.vel, shadow.on_ground),
                "kernel diverged from run_move at step {i}"
            );
        }
    }

    #[test]
    fn dead_players_do_not_move() {
        let w = world();
        let id = spawn(&w, 0);
        w.store.with_mut(id, 0, |e| {
            if let EntityClass::Player { dead, .. } = &mut e.class {
                *dead = true;
            }
        });
        let before = w.store.snapshot(id).pos;
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let cmd = MoveCmd {
            forward: MAX_GROUND_SPEED,
            ..MoveCmd::idle(0, 50)
        };
        run_move(&w, 0, id, &cmd, &[], 0, &mut touched, &mut work);
        assert_eq!(w.store.snapshot(id).pos, before);
    }
}
