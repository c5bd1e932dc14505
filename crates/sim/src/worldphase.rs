//! The world-physics phase (the `P` stage of the frame, paper §2.1).
//!
//! Run single-threaded by the frame's master thread before request
//! processing; by the phase invariants it has exclusive access to all
//! global state, so it uses no locks. It completes everything that was
//! deferred from request processing:
//!
//! * projectile flight, impact and expiry,
//! * item respawns,
//! * deferred far relocations (teleports) and player respawns.
//!
//! Every externally visible effect is emitted as a [`GameEvent`] into
//! the caller's buffer — the global state buffer that reply processing
//! broadcasts to all clients.

use parquake_math::{Pcg32, Vec3};
use parquake_protocol::{GameEvent, GameEventKind};

use crate::entity::{EntityClass, EntityId};
use crate::interact::PROJECTILE_DAMAGE;
use crate::world::GameWorld;
use crate::WorkCounters;

/// Run one world-physics update covering `dt_ns` of game time.
/// `events` receives broadcastable effects; `work` the modelled cost.
pub fn run_world_phase(
    world: &GameWorld,
    now: u64,
    dt_ns: u64,
    rng: &mut Pcg32,
    events: &mut Vec<GameEvent>,
    work: &mut WorkCounters,
) {
    let dt = dt_ns as f32 / 1e9;

    // Projectiles in flight. The two gather buffers serve every
    // projectile of the phase.
    let mut nodes = Vec::new();
    let mut cands: Vec<u32> = Vec::new();
    for id in world.projectile_ids() {
        if !world.store.row(id).active() {
            continue;
        }
        let e = world.store.snapshot(id);
        let EntityClass::Projectile {
            owner,
            expire_at,
            live: true,
        } = e.class
        else {
            continue;
        };
        if now >= expire_at {
            retire_projectile(world, id);
            continue;
        }
        // Integrate with gravity-lite and trace against the world.
        let vel = e.vel + Vec3::new(0.0, 0.0, -200.0 * dt);
        let delta = vel * dt;
        let tr = world
            .map
            .trace(parquake_bsp::Hull::Projectile, e.pos, e.pos + delta);
        work.trace_steps += tr.steps as u64;
        let new_pos = tr.end;

        // Check players along the path (gather from the areanode tree).
        let my_box = e.abs_box();
        let sweep = my_box.swept(new_pos - e.pos);
        work.areanode_visits += world.tree.nodes_overlapping(&sweep, &mut nodes) as u64;
        let mut hit_player: Option<EntityId> = None;
        'outer: for &node in &nodes {
            cands.clear();
            world.links.extend_into(node, 0, &mut cands);
            for &cand in &cands {
                let cand = cand as EntityId;
                if cand == owner {
                    continue;
                }
                let other = world.store.row(cand);
                if !other.live_player() {
                    continue;
                }
                work.object_tests += 1;
                if my_box.sweep_hit(new_pos - e.pos, &other.bounds).is_some() {
                    hit_player = Some(cand);
                    break 'outer;
                }
            }
        }

        if let Some(victim) = hit_player {
            work.interactions += 1;
            let mut killed = false;
            world.store.with_mut(victim, 0, |v| {
                if let EntityClass::Player { health, dead, .. } = &mut v.class {
                    *health -= PROJECTILE_DAMAGE;
                    if *health <= 0 && !*dead {
                        *dead = true;
                        killed = true;
                    }
                }
            });
            if killed {
                world.store.with_mut(owner, 0, |s| {
                    if let EntityClass::Player { score, .. } = &mut s.class {
                        *score += 5;
                    }
                });
            }
            events.push(GameEvent {
                kind: GameEventKind::Hit,
                a: owner,
                b: victim,
                pos: new_pos,
            });
            retire_projectile(world, id);
        } else if tr.hit() {
            events.push(GameEvent {
                kind: GameEventKind::Sound,
                a: owner,
                b: id,
                pos: new_pos,
            });
            retire_projectile(world, id);
        } else {
            world.store.with_mut(id, 0, |p| {
                p.pos = new_pos;
                p.vel = vel;
            });
            world.relink_unlocked(id);
        }
    }

    // Item respawns.
    for id in world.item_ids() {
        let e = world.store.snapshot(id);
        if let EntityClass::Item {
            respawn_at,
            taken: true,
            ..
        } = e.class
        {
            if now >= respawn_at {
                work.interactions += 1;
                world.store.with_mut(id, 0, |it| {
                    if let EntityClass::Item { taken, .. } = &mut it.class {
                        *taken = false;
                    }
                });
                events.push(GameEvent {
                    kind: GameEventKind::Spawn,
                    a: id,
                    b: 0,
                    pos: e.pos,
                });
            }
        }
    }

    // Deferred relocations and player respawns.
    for idx in 0..world.max_players() {
        let id = world.player_slot(idx);
        let e = world.store.snapshot(id);
        if !e.active {
            continue;
        }
        let EntityClass::Player {
            dead,
            pending_relocation,
            client_id,
            ..
        } = e.class
        else {
            continue;
        };
        if let Some(dest) = pending_relocation {
            work.interactions += 1;
            world.store.with_mut(id, 0, |p| {
                p.pos = dest;
                p.vel = Vec3::ZERO;
                p.on_ground = false;
                if let EntityClass::Player {
                    pending_relocation, ..
                } = &mut p.class
                {
                    *pending_relocation = None;
                }
            });
            world.relink_unlocked(id);
            events.push(GameEvent {
                kind: GameEventKind::Teleport,
                a: id,
                b: 0,
                pos: dest,
            });
        } else if dead {
            work.interactions += 1;
            world.spawn_player(idx, client_id, rng);
            events.push(GameEvent {
                kind: GameEventKind::Spawn,
                a: id,
                b: 0,
                pos: world.store.snapshot(id).pos,
            });
        }
    }
}

fn retire_projectile(world: &GameWorld, id: EntityId) {
    let e = world.store.snapshot(id);
    if e.linked {
        world.links.remove(e.linked_node, 0, id as u32);
    }
    world.store.with_mut(id, 0, |p| {
        p.active = false;
        p.linked = false;
        if let EntityClass::Projectile { live, .. } = &mut p.class {
            *live = false;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interact::launch_projectile;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::angles::Angles;
    use parquake_math::vec3::vec3;
    use std::sync::Arc;

    fn world() -> GameWorld {
        let map = Arc::new(MapGenConfig::open_hall(31).generate());
        GameWorld::new(map, 4, 8)
    }

    fn settle(w: &GameWorld, id: EntityId) {
        // Put the player firmly on the ground at its spawn.
        let p = w.store.snapshot(id).pos;
        w.store.with_mut(id, 0, |e| {
            e.pos = vec3(p.x, p.y, 25.0);
            e.on_ground = true;
        });
        w.relink_unlocked(id);
    }

    #[test]
    fn projectile_flies_and_expires() {
        let w = world();
        let mut rng = Pcg32::seeded(1);
        w.spawn_player(0, 0, &mut rng);
        settle(&w, 0);
        let mut work = WorkCounters::new();
        let slot = launch_projectile(&w, 0, 0, 0, &mut work).unwrap();
        w.relink_unlocked(slot);
        let start = w.store.snapshot(slot).pos;

        let mut events = Vec::new();
        run_world_phase(&w, 50_000_000, 50_000_000, &mut rng, &mut events, &mut work);
        let p = w.store.snapshot(slot);
        assert!(p.active, "still flying");
        assert!(p.pos.distance(start) > 10.0, "moved");

        // Jump past the lifetime: the projectile retires.
        let mut events = Vec::new();
        run_world_phase(
            &w,
            10_000_000_000,
            50_000_000,
            &mut rng,
            &mut events,
            &mut work,
        );
        assert!(!w.store.snapshot(slot).active);
    }

    #[test]
    fn projectile_hits_wall_and_emits_sound() {
        let w = world();
        let mut rng = Pcg32::seeded(2);
        w.spawn_player(0, 0, &mut rng);
        settle(&w, 0);
        // Aim at the nearest wall.
        w.store.with_mut(0, 0, |e| e.yaw = 180.0);
        let mut work = WorkCounters::new();
        let slot = launch_projectile(&w, 0, 0, 0, &mut work).unwrap();
        w.relink_unlocked(slot);
        let mut events = Vec::new();
        // Enough frames to cross the hall.
        for f in 1..200u64 {
            run_world_phase(
                &w,
                f * 30_000_000,
                30_000_000,
                &mut rng,
                &mut events,
                &mut work,
            );
            if !w.store.snapshot(slot).active {
                break;
            }
        }
        assert!(!w.store.snapshot(slot).active, "projectile never landed");
        assert!(events.iter().any(|e| e.kind == GameEventKind::Sound));
    }

    #[test]
    fn a_shooter_against_the_outer_wall_launches_nothing_out_of_the_world() {
        let w = world();
        let mut rng = Pcg32::seeded(8);
        w.spawn_player(0, 0, &mut rng);
        // Start clear of the central pillar, then walk west until the
        // outer wall stops the hull, 16 units short of the brush — the
        // muzzle, 24 ahead of the eye, is inside it.
        w.store.with_mut(0, 0, |e| e.pos.y += 300.0);
        settle(&w, 0);
        let mut touched = Vec::new();
        let mut work = WorkCounters::new();
        let west = parquake_protocol::MoveCmd {
            yaw: 180.0,
            forward: crate::movement::MAX_GROUND_SPEED,
            ..parquake_protocol::MoveCmd::idle(0, 30)
        };
        for _ in 0..400 {
            crate::movement::run_move(&w, 0, 0, &west, &[], 0, &mut touched, &mut work);
        }
        w.relink_unlocked(0);
        let me = w.store.snapshot(0);
        let wall = w.map.bounds.min.x + 32.0;
        assert!(me.pos.x - wall < 17.0, "not at the wall: {:?}", me.pos);

        // Refused: no path from the eye to the muzzle.
        assert_eq!(launch_projectile(&w, 0, 0, 0, &mut work), None);
        let slot = w.projectile_slot(0);
        assert!(!w.store.snapshot(slot).active);
        // One 100 ms world phase (a stall long enough to carry a
        // projectile that started in the brush through the rest of it).
        let mut events = Vec::new();
        run_world_phase(
            &w,
            100_000_000,
            100_000_000,
            &mut rng,
            &mut events,
            &mut work,
        );
        for id in w.store.active_ids() {
            let b = w.store.row(id).bounds;
            assert!(
                w.map.bounds.contains(&b),
                "entity {id} at {b:?} left the world"
            );
        }
        // Facing back into the hall the same player may throw.
        w.store.with_mut(0, 0, |e| e.yaw = 0.0);
        assert_eq!(launch_projectile(&w, 0, 0, 0, &mut work), Some(slot));
    }

    #[test]
    fn projectile_hits_player_and_damages() {
        let w = world();
        let mut rng = Pcg32::seeded(3);
        w.spawn_player(0, 0, &mut rng);
        w.spawn_player(1, 1, &mut rng);
        settle(&w, 0);
        let me = w.store.snapshot(0);
        w.store.with_mut(1, 0, |e| {
            e.pos = me.pos + vec3(200.0, 0.0, 0.0);
        });
        w.relink_unlocked(1);
        let ang = Angles::looking_at(me.eye(), w.store.snapshot(1).pos);
        w.store.with_mut(0, 0, |e| {
            e.yaw = ang.yaw;
            e.pitch = ang.pitch;
        });
        let mut work = WorkCounters::new();
        let slot = launch_projectile(&w, 0, 0, 0, &mut work).unwrap();
        w.relink_unlocked(slot);
        let mut events = Vec::new();
        for f in 1..40u64 {
            run_world_phase(
                &w,
                f * 30_000_000,
                30_000_000,
                &mut rng,
                &mut events,
                &mut work,
            );
            if !w.store.snapshot(slot).active {
                break;
            }
        }
        let hit = events.iter().find(|e| e.kind == GameEventKind::Hit);
        assert!(hit.is_some(), "no hit event; events: {events:?}");
        match w.store.snapshot(1).class {
            EntityClass::Player { health, .. } => {
                assert_eq!(health, 100 - PROJECTILE_DAMAGE)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn taken_items_respawn_on_schedule() {
        let w = world();
        let mut rng = Pcg32::seeded(4);
        let item = w.item_ids().next().unwrap();
        w.store.with_mut(item, 0, |e| {
            if let EntityClass::Item {
                taken, respawn_at, ..
            } = &mut e.class
            {
                *taken = true;
                *respawn_at = 5_000_000_000;
            }
        });
        let mut events = Vec::new();
        let mut work = WorkCounters::new();
        run_world_phase(
            &w,
            1_000_000_000,
            30_000_000,
            &mut rng,
            &mut events,
            &mut work,
        );
        assert!(matches!(
            w.store.snapshot(item).class,
            EntityClass::Item { taken: true, .. }
        ));
        run_world_phase(
            &w,
            6_000_000_000,
            30_000_000,
            &mut rng,
            &mut events,
            &mut work,
        );
        assert!(matches!(
            w.store.snapshot(item).class,
            EntityClass::Item { taken: false, .. }
        ));
        assert!(events.iter().any(|e| e.kind == GameEventKind::Spawn));
    }

    #[test]
    fn pending_relocation_is_applied_and_relinked() {
        let w = world();
        let mut rng = Pcg32::seeded(5);
        w.spawn_player(0, 0, &mut rng);
        settle(&w, 0);
        let dest = w.map.spawn_points[0] + vec3(400.0, 400.0, 0.0);
        w.store.with_mut(0, 0, |e| {
            if let EntityClass::Player {
                pending_relocation, ..
            } = &mut e.class
            {
                *pending_relocation = Some(dest);
            }
        });
        let mut events = Vec::new();
        let mut work = WorkCounters::new();
        run_world_phase(&w, 0, 30_000_000, &mut rng, &mut events, &mut work);
        let e = w.store.snapshot(0);
        assert_eq!(e.pos, dest);
        assert!(w.tree.node(e.linked_node).bounds.contains(&e.abs_box()));
        assert!(events.iter().any(|ev| ev.kind == GameEventKind::Teleport));
    }

    #[test]
    fn dead_players_respawn_with_full_health() {
        let w = world();
        let mut rng = Pcg32::seeded(6);
        w.spawn_player(0, 77, &mut rng);
        w.store.with_mut(0, 0, |e| {
            if let EntityClass::Player { dead, health, .. } = &mut e.class {
                *dead = true;
                *health = -10;
            }
        });
        let mut events = Vec::new();
        let mut work = WorkCounters::new();
        run_world_phase(&w, 0, 30_000_000, &mut rng, &mut events, &mut work);
        let e = w.store.snapshot(0);
        match e.class {
            EntityClass::Player {
                dead,
                health,
                client_id,
                ..
            } => {
                assert!(!dead);
                assert_eq!(health, 100);
                assert_eq!(client_id, 77);
            }
            _ => unreachable!(),
        }
        assert!(events.iter().any(|ev| ev.kind == GameEventKind::Spawn));
    }
}
