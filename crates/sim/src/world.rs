//! The assembled game world: map + areanode tree + links + entities.

use std::sync::Arc;

use parquake_areanode::{AreanodeTree, LinkTable, NodeId};
use parquake_bsp::BspWorld;
use parquake_math::vec3::vec3;
use parquake_math::{Aabb, Pcg32, Vec3};

use crate::entity::{Entity, EntityClass, EntityId, EntityStore, ItemClass};

/// Default maximum distance at which entities are sent to clients.
pub const DEFAULT_VIEW_DIST: f32 = 1600.0;

/// Everything the servers share: static geometry, the spatial index and
/// the mutable entity state.
pub struct GameWorld {
    pub map: Arc<BspWorld>,
    pub tree: AreanodeTree,
    pub links: LinkTable,
    pub store: EntityStore,
    pub max_view_dist: f32,
    max_players: u16,
    item_base: EntityId,
    tele_base: EntityId,
    proj_base: EntityId,
}

impl GameWorld {
    /// Assemble a world over a compiled map. Creates and links item and
    /// teleporter entities; reserves one projectile slot per player
    /// (a player has at most one projectile in flight, so slots never
    /// contend between threads).
    pub fn new(map: Arc<BspWorld>, areanode_depth: u32, max_players: u16) -> GameWorld {
        let tree = AreanodeTree::new(map.bounds, areanode_depth);
        let n_items = map.item_spawns.len() as u16;
        let n_teles = map.teleporters.len() as u16;
        let item_base = max_players;
        let tele_base = item_base + n_items;
        let proj_base = tele_base + n_teles;
        let capacity = proj_base as usize + max_players as usize;

        let links = LinkTable::new(tree.node_count());
        links.set_checking(false);
        let store = EntityStore::new(capacity);

        let world = GameWorld {
            map,
            tree,
            links,
            store,
            max_view_dist: DEFAULT_VIEW_DIST,
            max_players,
            item_base,
            tele_base,
            proj_base,
        };

        // Items.
        for (i, spawn) in world.map.item_spawns.iter().enumerate() {
            let id = item_base + i as u16;
            let ent = Entity {
                id,
                class: EntityClass::Item {
                    class: ItemClass::from_class_byte(spawn.class),
                    respawn_at: 0,
                    taken: false,
                },
                pos: spawn.pos,
                vel: Vec3::ZERO,
                yaw: 0.0,
                pitch: 0.0,
                on_ground: true,
                mins: vec3(-16.0, -16.0, 0.0),
                maxs: vec3(16.0, 16.0, 56.0),
                linked_node: 0,
                linked: false,
                active: true,
            };
            world.store.init(id, ent);
            world.link_unlocked(id);
        }
        // Teleporter pads.
        for (i, &(pad, dest)) in world.map.teleporters.iter().enumerate() {
            let id = tele_base + i as u16;
            let ent = Entity {
                id,
                class: EntityClass::Teleporter { dest },
                pos: pad,
                vel: Vec3::ZERO,
                yaw: 0.0,
                pitch: 0.0,
                on_ground: true,
                mins: vec3(-24.0, -24.0, 0.0),
                maxs: vec3(24.0, 24.0, 48.0),
                linked_node: 0,
                linked: false,
                active: true,
            };
            world.store.init(id, ent);
            world.link_unlocked(id);
        }
        // Idle projectile slots (one per player).
        for p in 0..max_players {
            let id = proj_base + p;
            let ent = Entity {
                id,
                class: EntityClass::Projectile {
                    owner: p,
                    expire_at: 0,
                    live: false,
                },
                pos: Vec3::ZERO,
                vel: Vec3::ZERO,
                yaw: 0.0,
                pitch: 0.0,
                on_ground: false,
                mins: vec3(-4.0, -4.0, -4.0),
                maxs: vec3(4.0, 4.0, 4.0),
                linked_node: 0,
                linked: false,
                active: false,
            };
            world.store.init(id, ent);
        }
        world
    }

    #[inline]
    pub fn max_players(&self) -> u16 {
        self.max_players
    }

    /// Entity id of player slot `idx`.
    #[inline]
    pub fn player_slot(&self, idx: u16) -> EntityId {
        debug_assert!(idx < self.max_players);
        idx
    }

    /// Projectile slot owned by player `idx`.
    #[inline]
    pub fn projectile_slot(&self, player_idx: u16) -> EntityId {
        self.proj_base + player_idx
    }

    /// All item entity ids.
    pub fn item_ids(&self) -> std::ops::Range<u16> {
        self.item_base..self.tele_base
    }

    /// All projectile slot ids — the only entities of that class.
    pub fn projectile_ids(&self) -> std::ops::Range<u16> {
        self.proj_base..self.proj_base + self.max_players
    }

    /// Spawn (or respawn) a player into the world. Single-threaded
    /// contexts only (setup / world phase). Returns the entity id.
    pub fn spawn_player(&self, idx: u16, client_id: u32, rng: &mut Pcg32) -> EntityId {
        let id = self.player_slot(idx);
        let pos = self.pick_spawn_pos(idx);
        let prev = self.store.snapshot(id);
        let was_linked = prev.linked;
        self.store.init(
            id,
            Entity {
                id,
                class: EntityClass::Player {
                    client_id,
                    health: 100,
                    score: 0,
                    dead: false,
                    pending_relocation: None,
                },
                pos,
                vel: Vec3::ZERO,
                yaw: rng.range_f32(-180.0, 180.0),
                pitch: 0.0,
                on_ground: false,
                mins: crate::movement::PLAYER_MINS,
                maxs: crate::movement::PLAYER_MAXS,
                linked_node: prev.linked_node,
                linked: was_linked,
                active: true,
            },
        );
        if was_linked {
            self.relink_unlocked(id);
        } else {
            self.link_unlocked(id);
        }
        id
    }

    /// Deterministically choose a spawn position that stands free of
    /// world geometry *and* of every live player: the cells of a grid
    /// around the slot's spawn point, nearest ring first, then around
    /// up to 15 more spawn points. Only a map with no free cell left
    /// falls back to the bare spawn point (an overlap the movement code
    /// lets players walk out of).
    fn pick_spawn_pos(&self, idx: u16) -> Vec3 {
        let spawns = &self.map.spawn_points;
        assert!(!spawns.is_empty(), "map has no spawn points");
        let me = self.player_slot(idx);
        let mut nodes = Vec::new();
        for attempt in 0..spawns.len().min(16) {
            let base = spawns[(idx as usize + attempt * 7) % spawns.len()];
            for ring in 0..=SPAWN_RINGS {
                for (i, j) in ring_cells(ring) {
                    let pos = base + vec3(i as f32, j as f32, 0.0) * SPAWN_PITCH;
                    let hull = Aabb::new(
                        pos + crate::movement::PLAYER_MINS,
                        pos + crate::movement::PLAYER_MAXS,
                    );
                    if self.map.bounds.contains(&hull)
                        && self.map.player_fits(pos)
                        && self.no_live_player_in(&hull, me, &mut nodes)
                    {
                        return pos;
                    }
                }
            }
        }
        spawns[idx as usize % spawns.len()]
    }

    /// Does no live player other than `except` intersect `hull`? Asks
    /// the areanode lists the box overlaps, not every slot.
    fn no_live_player_in(&self, hull: &Aabb, except: EntityId, nodes: &mut Vec<NodeId>) -> bool {
        self.tree.nodes_overlapping(hull, nodes);
        nodes.iter().all(|&node| {
            self.links.with_list(node, 0, |list| {
                list.iter().all(|&id| {
                    let row = self.store.row(id as EntityId);
                    id as EntityId == except || !row.live_player() || !row.bounds.intersects(hull)
                })
            })
        })
    }

    /// Link an entity for the first time (no locks; single-threaded).
    fn link_unlocked(&self, id: EntityId) {
        let ent = self.store.snapshot(id);
        debug_assert!(!ent.linked, "entity {id} already linked");
        let node = self.tree.node_for_box(&ent.abs_box());
        self.links.push(node, 0, id as u32);
        self.store.init(
            id,
            Entity {
                linked_node: node,
                linked: true,
                ..ent
            },
        );
    }

    /// Re-link an entity after movement, without lock bookkeeping
    /// (single-threaded contexts: the world phase and the sequential
    /// server). The parallel server uses its own locked relink.
    pub fn relink_unlocked(&self, id: EntityId) {
        let ent = self.store.snapshot(id);
        if !ent.linked {
            self.link_unlocked(id);
            return;
        }
        let new_node = self.tree.node_for_box(&ent.abs_box());
        if new_node != ent.linked_node {
            self.links.remove(ent.linked_node, 0, id as u32);
            self.links.push(new_node, 0, id as u32);
            self.store.init(
                id,
                Entity {
                    linked_node: new_node,
                    ..ent
                },
            );
        }
    }

    /// Deactivate a player (disconnect). Single-threaded contexts.
    pub fn despawn_player(&self, idx: u16) {
        let id = self.player_slot(idx);
        let ent = self.store.snapshot(id);
        if ent.active {
            if ent.linked {
                self.links.remove(ent.linked_node, 0, id as u32);
            }
            self.store.init(
                id,
                Entity {
                    active: false,
                    linked: false,
                    ..ent
                },
            );
        }
    }

    /// Verify spatial-index consistency: every linked entity appears in
    /// exactly the object list its `linked_node` names, the node's
    /// bounds contain the entity, and no stale links remain. Requires
    /// quiescence (post-run / single-threaded).
    pub fn audit_links(&self) -> Result<(), String> {
        let links = self.links.snapshot_links();
        let mut seen = std::collections::HashMap::new();
        for &(node, ent) in &links {
            if seen.insert(ent, node).is_some() {
                return Err(format!("entity {ent} linked to multiple nodes"));
            }
        }
        for (node, ent) in &links {
            let e = self.store.snapshot(*ent as EntityId);
            if !e.linked {
                return Err(format!(
                    "entity {ent} in node {node} list but not flagged linked"
                ));
            }
            if e.linked_node != *node {
                return Err(format!(
                    "entity {ent} thinks it is in node {} but sits in node {node}",
                    e.linked_node
                ));
            }
            if !self.tree.node(*node).bounds.contains(&e.abs_box()) {
                return Err(format!(
                    "entity {ent} at {:?} escapes node {node} bounds",
                    e.pos
                ));
            }
        }
        // The reverse direction: every linked-flagged entity is listed —
        // and every entity's packed row says what the entity says.
        for id in 0..self.store.capacity() as EntityId {
            let e = self.store.snapshot(id);
            if e.linked && !seen.contains_key(&(id as u32)) {
                return Err(format!("entity {id} flagged linked but in no list"));
            }
            let row = self.store.row(id);
            if row.bounds != e.abs_box()
                || row.active() != e.active
                || row.live_player() != e.is_live_player()
            {
                return Err(format!("entity {id}: packed row {row:?} is stale"));
            }
        }
        Ok(())
    }

    /// FNV-1a hash of all active entity state — used by determinism and
    /// sequential-vs-parallel equivalence tests.
    pub fn world_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        for id in 0..self.store.capacity() as EntityId {
            let e = self.store.snapshot(id);
            if !e.active {
                continue;
            }
            mix(e.id as u64);
            mix(quant(e.pos.x));
            mix(quant(e.pos.y));
            mix(quant(e.pos.z));
            mix(e.linked_node as u64);
            match e.class {
                EntityClass::Player {
                    health,
                    score,
                    dead,
                    ..
                } => {
                    mix(health as u64);
                    mix(score as u64);
                    mix(dead as u64);
                }
                EntityClass::Item { taken, .. } => mix(taken as u64),
                EntityClass::Projectile { live, .. } => mix(live as u64),
                EntityClass::Teleporter { .. } => mix(7),
            }
        }
        h
    }
}

/// Grid pitch of spawn cells: a player box (32 wide) plus a clear gap.
const SPAWN_PITCH: f32 = 40.0;
/// Rings of cells tried around one spawn point (a 9 × 9 grid).
const SPAWN_RINGS: i32 = 4;

/// The grid cells at Chebyshev distance `ring` from the centre, in a
/// fixed order.
fn ring_cells(ring: i32) -> impl Iterator<Item = (i32, i32)> {
    (-ring..=ring)
        .flat_map(move |j| (-ring..=ring).map(move |i| (i, j)))
        .filter(move |&(i, j)| i.abs().max(j.abs()) == ring)
}

/// Quantize a coordinate to 1/8 unit for hashing (collision epsilons
/// make exact float equality too brittle across policies).
fn quant(v: f32) -> u64 {
    (v * 8.0).round() as i64 as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_bsp::mapgen::MapGenConfig;

    fn world() -> GameWorld {
        let map = Arc::new(MapGenConfig::small_arena(3).generate());
        GameWorld::new(map, 4, 8)
    }

    #[test]
    fn construction_links_items_and_teleporters() {
        let mut w = world();
        let expected = w.map.item_spawns.len() + w.map.teleporters.len();
        assert_eq!(w.links.total_links(), expected);
        // All item entities active and positioned at their markers.
        for id in w.item_ids() {
            let e = w.store.snapshot(id);
            assert!(e.active);
            assert!(matches!(e.class, EntityClass::Item { taken: false, .. }));
        }
    }

    #[test]
    fn spawned_player_is_linked_and_standing() {
        let w = world();
        let mut rng = Pcg32::seeded(1);
        let id = w.spawn_player(0, 100, &mut rng);
        let e = w.store.snapshot(id);
        assert!(e.is_live_player());
        assert!(
            w.map.player_fits(e.pos),
            "spawned inside wall at {:?}",
            e.pos
        );
        // The linked node's bounds must contain the player's box.
        assert!(w.tree.node(e.linked_node).bounds.contains(&e.abs_box()));
    }

    #[test]
    fn respawn_reuses_slot_and_relinks() {
        let mut w = world();
        let mut rng = Pcg32::seeded(2);
        w.spawn_player(0, 100, &mut rng);
        let links_before = w.links.total_links();
        w.spawn_player(0, 100, &mut rng);
        assert_eq!(w.links.total_links(), links_before, "duplicate link");
    }

    #[test]
    fn despawn_removes_link() {
        let mut w = world();
        let mut rng = Pcg32::seeded(3);
        w.spawn_player(0, 1, &mut rng);
        let n = w.links.total_links();
        w.despawn_player(0);
        assert_eq!(w.links.total_links(), n - 1);
        assert!(!w.store.snapshot(0).active);
    }

    #[test]
    fn relink_moves_between_nodes() {
        let w = world();
        let mut rng = Pcg32::seeded(4);
        let id = w.spawn_player(0, 1, &mut rng);
        let before = w.store.snapshot(id);
        // Move the player to the opposite corner of the map.
        let far = w.map.bounds.max - Vec3::splat(200.0);
        w.store
            .with_mut(id, 0, |e| e.pos = vec3(far.x, far.y, before.pos.z));
        w.relink_unlocked(id);
        let after = w.store.snapshot(id);
        assert!(w
            .tree
            .node(after.linked_node)
            .bounds
            .contains(&after.abs_box()));
    }

    #[test]
    fn world_hash_changes_with_state() {
        let w = world();
        let mut rng = Pcg32::seeded(5);
        let h0 = w.world_hash();
        w.spawn_player(0, 1, &mut rng);
        let h1 = w.world_hash();
        assert_ne!(h0, h1);
        w.store.with_mut(0, 0, |e| e.pos.x += 10.0);
        assert_ne!(w.world_hash(), h1);
    }

    #[test]
    fn world_hash_is_deterministic() {
        let build = || {
            let w = world();
            let mut rng = Pcg32::seeded(9);
            for i in 0..4 {
                w.spawn_player(i, i as u32, &mut rng);
            }
            w.world_hash()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn projectile_slots_are_per_player() {
        let w = world();
        assert_ne!(w.projectile_slot(0), w.projectile_slot(1));
        let p = w.store.snapshot(w.projectile_slot(3));
        assert!(!p.active);
        assert!(matches!(
            p.class,
            EntityClass::Projectile {
                owner: 3,
                live: false,
                ..
            }
        ));
    }
}
