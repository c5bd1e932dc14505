//! World checkpointing: serialize and restore the full mutable entity
//! state of a [`GameWorld`].
//!
//! The arena supervisor (crates/arena) periodically snapshots each
//! world so a panicked or wedged arena can be respawned from its last
//! good frame. The codec is deliberately dumb: a fixed header and then
//! every entity slot in index order, little-endian, no compression.
//! Static state (the compiled map, the areanode tree geometry) is NOT
//! serialized — a restore target must be a world built over the same
//! map with the same capacity, which the header verifies.
//!
//! The contract that matters is **world-hash identity**: for any world
//! `w`, `w.restore_bytes(&w.snapshot_bytes())` leaves `world_hash()`
//! unchanged, and restoring an older snapshot onto a diverged world
//! yields exactly the snapshot-time hash. Links are rebuilt from the
//! serialized `linked`/`linked_node` flags, so `audit_links()` holds
//! after a restore whenever it held at snapshot time.

use parquake_protocol::codec::{
    get_bool, get_f32, get_i32, get_u16, get_u32, get_u64, get_u8, get_vec3, put_bool, put_f32,
    put_i32, put_u16, put_u32, put_u64, put_u8, put_vec3, CodecError,
};

use crate::entity::{Entity, EntityClass, EntityId, ItemClass};
use crate::world::GameWorld;

/// Codec magic ("PQW" + version). Bump the last byte on layout change.
const MAGIC: u32 = 0x50_51_57_01;

/// Magic for a single-player transfer capsule ("PQP" + version) —
/// deliberately distinct from [`MAGIC`] so a whole-world checkpoint can
/// never be mistaken for one migrating player or vice versa.
const PLAYER_MAGIC: u32 = 0x50_51_50_01;

/// A codec failure in this module's words (its errors are `String`s).
fn describe(e: CodecError) -> String {
    match e {
        CodecError::Truncated => "snapshot truncated".into(),
        e => e.to_string(),
    }
}

fn item_class_byte(c: ItemClass) -> u8 {
    // Inverse of ItemClass::from_class_byte's `b % 5` mapping.
    match c {
        ItemClass::Health => 0,
        ItemClass::Armor => 1,
        ItemClass::Ammo => 2,
        ItemClass::Weapon => 3,
        ItemClass::Powerup => 4,
    }
}

fn encode_entity(e: &Entity, out: &mut Vec<u8>) {
    put_u16(out, e.id);
    match e.class {
        EntityClass::Player {
            client_id,
            health,
            score,
            dead,
            pending_relocation,
        } => {
            put_u8(out, 0);
            put_u32(out, client_id);
            put_i32(out, health);
            put_i32(out, score);
            put_bool(out, dead);
            put_bool(out, pending_relocation.is_some());
            if let Some(p) = pending_relocation {
                put_vec3(out, p);
            }
        }
        EntityClass::Item {
            class,
            respawn_at,
            taken,
        } => {
            put_u8(out, 1);
            put_u8(out, item_class_byte(class));
            put_u64(out, respawn_at);
            put_bool(out, taken);
        }
        EntityClass::Projectile {
            owner,
            expire_at,
            live,
        } => {
            put_u8(out, 2);
            put_u16(out, owner);
            put_u64(out, expire_at);
            put_bool(out, live);
        }
        EntityClass::Teleporter { dest } => {
            put_u8(out, 3);
            put_vec3(out, dest);
        }
    }
    put_vec3(out, e.pos);
    put_vec3(out, e.vel);
    put_f32(out, e.yaw);
    put_f32(out, e.pitch);
    put_bool(out, e.on_ground);
    put_vec3(out, e.mins);
    put_vec3(out, e.maxs);
    put_u32(out, e.linked_node);
    put_bool(out, e.linked);
    put_bool(out, e.active);
}

fn decode_entity(buf: &mut &[u8]) -> Result<Entity, CodecError> {
    let id = get_u16(buf)?;
    let class = match get_u8(buf)? {
        0 => EntityClass::Player {
            client_id: get_u32(buf)?,
            health: get_i32(buf)?,
            score: get_i32(buf)?,
            dead: get_bool(buf)?,
            pending_relocation: if get_bool(buf)? {
                Some(get_vec3(buf)?)
            } else {
                None
            },
        },
        1 => EntityClass::Item {
            class: ItemClass::from_class_byte(get_u8(buf)?),
            respawn_at: get_u64(buf)?,
            taken: get_bool(buf)?,
        },
        2 => EntityClass::Projectile {
            owner: get_u16(buf)?,
            expire_at: get_u64(buf)?,
            live: get_bool(buf)?,
        },
        3 => EntityClass::Teleporter {
            dest: get_vec3(buf)?,
        },
        t => return Err(CodecError::BadTag("entity class", t)),
    };
    Ok(Entity {
        id,
        class,
        pos: get_vec3(buf)?,
        vel: get_vec3(buf)?,
        yaw: get_f32(buf)?,
        pitch: get_f32(buf)?,
        on_ground: get_bool(buf)?,
        mins: get_vec3(buf)?,
        maxs: get_vec3(buf)?,
        linked_node: get_u32(buf)?,
        linked: get_bool(buf)?,
        active: get_bool(buf)?,
    })
}

impl GameWorld {
    /// Serialize every entity slot (active or not) into a checkpoint
    /// buffer. Single-threaded contexts only — the caller must hold the
    /// world quiescent (the arena supervisor snapshots between frames,
    /// under the pool claim).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let cap = self.store.capacity();
        // Header + a generous per-entity estimate; avoids regrowth.
        let mut out = Vec::with_capacity(8 + cap * 96);
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, cap as u32);
        for id in 0..cap as EntityId {
            encode_entity(&self.store.snapshot(id), &mut out);
        }
        out
    }

    /// Overwrite this world's entity state from a snapshot taken on a
    /// world of identical capacity, rebuilding the link table to match.
    /// Single-threaded contexts only. On error the world is left
    /// unchanged (all validation happens before any mutation).
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        let mut buf = bytes;
        let magic = get_u32(&mut buf).map_err(describe)?;
        if magic != MAGIC {
            return Err(format!("bad snapshot magic {magic:#010x}"));
        }
        let cap = get_u32(&mut buf).map_err(describe)? as usize;
        if cap != self.store.capacity() {
            return Err(format!(
                "snapshot capacity {cap} != world capacity {}",
                self.store.capacity()
            ));
        }
        // Decode everything first so a truncated buffer cannot leave
        // the world half-restored.
        let mut ents = Vec::with_capacity(cap);
        for id in 0..cap as EntityId {
            let e = decode_entity(&mut buf).map_err(describe)?;
            if e.id != id {
                return Err(format!("snapshot slot {id} holds entity {}", e.id));
            }
            ents.push(e);
        }
        // Unlink the present, install the snapshot, relink its links.
        for id in 0..cap as EntityId {
            let cur = self.store.snapshot(id);
            if cur.linked {
                self.links.remove(cur.linked_node, 0, id as u32);
            }
        }
        for e in ents {
            let id = e.id;
            let linked = e.linked;
            let node = e.linked_node;
            self.store.init(id, e);
            if linked {
                self.links.push(node, 0, id as u32);
            }
        }
        Ok(())
    }

    /// Serialize the single player entity in slot `idx` into a transfer
    /// capsule for cross-arena migration. Single-threaded contexts only
    /// (the migration path holds both arenas' pool claims). The slot
    /// must hold an active player.
    pub fn snapshot_player_bytes(&self, idx: u16) -> Result<Vec<u8>, String> {
        if idx >= self.max_players() {
            return Err(format!("slot {idx} is not a player slot"));
        }
        let e = self.store.snapshot(self.player_slot(idx));
        if !e.active {
            return Err(format!("player slot {idx} is inactive"));
        }
        if !matches!(e.class, EntityClass::Player { .. }) {
            return Err(format!("slot {idx} does not hold a player entity"));
        }
        let mut out = Vec::with_capacity(4 + 96);
        put_u32(&mut out, PLAYER_MAGIC);
        encode_entity(&e, &mut out);
        Ok(out)
    }

    /// Install a migrated player capsule into slot `idx` of this world.
    /// The capsule's entity id is rewritten to the target slot — a
    /// migration may land in a different slot index than it left — and
    /// the entity is linked at its serialized areanode (worlds in one
    /// directory share map and tree shape, exactly the cross-world
    /// restore contract of [`GameWorld::restore_bytes`]). On error the
    /// world is left unchanged (all validation happens before any
    /// mutation, including rejecting an occupied target slot).
    pub fn restore_player_bytes(&self, idx: u16, bytes: &[u8]) -> Result<(), String> {
        let mut buf = bytes;
        let magic = get_u32(&mut buf).map_err(describe)?;
        if magic != PLAYER_MAGIC {
            return Err(format!("bad player capsule magic {magic:#010x}"));
        }
        let e = decode_entity(&mut buf).map_err(describe)?;
        if !buf.is_empty() {
            return Err(format!("player capsule has {} trailing bytes", buf.len()));
        }
        if !matches!(e.class, EntityClass::Player { .. }) {
            return Err("player capsule does not hold a player entity".into());
        }
        if !e.active {
            return Err("player capsule holds an inactive entity".into());
        }
        if idx >= self.max_players() {
            return Err(format!("slot {idx} is not a player slot"));
        }
        let id = self.player_slot(idx);
        let cur = self.store.snapshot(id);
        if cur.active {
            return Err(format!("target player slot {idx} is occupied"));
        }
        if e.linked && e.linked_node >= self.tree.node_count() as u32 {
            return Err(format!(
                "player capsule links node {} beyond this world's tree",
                e.linked_node
            ));
        }
        // Validation done — mutate. The target slot is inactive, and
        // despawn always unlinks, but unlink defensively anyway so a
        // stale link can never be duplicated.
        if cur.linked {
            self.links.remove(cur.linked_node, 0, id as u32);
        }
        let linked = e.linked;
        let node = e.linked_node;
        self.store.init(id, Entity { id, ..e });
        if linked {
            self.links.push(node, 0, id as u32);
        }
        Ok(())
    }

    /// Slot-index-independent hash of one player entity: the FNV mix of
    /// its encoded bytes with the id field zeroed, so a capsule that
    /// lands in a different slot of the target world still proves
    /// byte-identical transfer. Inactive slots hash to 0.
    pub fn player_hash(&self, idx: u16) -> u64 {
        let e = self.store.snapshot(self.player_slot(idx));
        if !e.active {
            return 0;
        }
        let mut bytes = Vec::with_capacity(96);
        encode_entity(&e, &mut bytes);
        bytes[0] = 0;
        bytes[1] = 0;
        let mut h: u64 = 0xcbf29ce484222325;
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::vec3::vec3;
    use parquake_math::Pcg32;

    use super::*;

    fn world(players: u16) -> GameWorld {
        let map = Arc::new(MapGenConfig::small_arena(11).generate());
        GameWorld::new(map, 4, players)
    }

    /// Drive the world through `steps` cheap deterministic mutations so
    /// snapshots cover moved, despawned and respawned entities. Moves
    /// draw from `rng`, so two churn segments over the same ops still
    /// diverge (the stream position differs).
    fn churn(w: &GameWorld, steps: u32, rng: &mut Pcg32) {
        let n = w.max_players() as u32;
        for s in 0..steps {
            // Multiplier coprime to any power-of-two player count, so
            // every op kind reaches every slot as `s` advances.
            let idx = (s.wrapping_mul(7).wrapping_add(s / 4) % n) as u16;
            match s % 4 {
                0 => {
                    w.spawn_player(idx, 100 + idx as u32, rng);
                }
                1 => {
                    for p in 0..n as u16 {
                        if w.store.snapshot(p).active {
                            w.store.with_mut(p, 0, |e| {
                                e.pos.x += rng.range_f32(-40.0, 40.0);
                                e.pos.y += rng.range_f32(-40.0, 40.0);
                            });
                            w.relink_unlocked(p);
                        }
                    }
                }
                2 => {
                    if let Some(item) = w.item_ids().next() {
                        w.store.with_mut(item, 0, |e| {
                            if let EntityClass::Item { taken, .. } = &mut e.class {
                                *taken = !*taken;
                            }
                        });
                    }
                }
                _ => w.despawn_player(idx),
            }
        }
    }

    #[test]
    fn snapshot_restore_is_world_hash_identical() {
        let w = world(8);
        let mut rng = Pcg32::seeded(42);
        churn(&w, 37, &mut rng);
        let hash = w.world_hash();
        let bytes = w.snapshot_bytes();
        w.restore_bytes(&bytes).unwrap();
        assert_eq!(w.world_hash(), hash);
        w.audit_links().unwrap();
    }

    #[test]
    fn restore_rolls_back_a_diverged_world() {
        let w = world(8);
        let mut rng = Pcg32::seeded(43);
        churn(&w, 20, &mut rng);
        let hash_at_f = w.world_hash();
        let bytes = w.snapshot_bytes();
        // Diverge well past the checkpoint.
        churn(&w, 55, &mut rng);
        assert_ne!(w.world_hash(), hash_at_f);
        w.restore_bytes(&bytes).unwrap();
        assert_eq!(w.world_hash(), hash_at_f);
        w.audit_links().unwrap();
    }

    #[test]
    fn restore_rejects_garbage_without_mutating() {
        let w = world(4);
        let mut rng = Pcg32::seeded(44);
        churn(&w, 9, &mut rng);
        let hash = w.world_hash();

        assert!(w.restore_bytes(&[1, 2, 3]).is_err());
        let mut bad_magic = w.snapshot_bytes();
        bad_magic[0] ^= 0xFF;
        assert!(w.restore_bytes(&bad_magic).is_err());
        let mut truncated = w.snapshot_bytes();
        truncated.truncate(truncated.len() - 5);
        assert!(w.restore_bytes(&truncated).is_err());
        let other = world(6); // different capacity
        assert!(w.restore_bytes(&other.snapshot_bytes()).is_err());

        assert_eq!(w.world_hash(), hash, "failed restore mutated the world");
        w.audit_links().unwrap();
    }

    #[test]
    fn restore_crosses_worlds_of_equal_shape() {
        let a = world(8);
        let b = world(8);
        let mut rng = Pcg32::seeded(45);
        churn(&a, 31, &mut rng);
        b.restore_bytes(&a.snapshot_bytes()).unwrap();
        assert_eq!(b.world_hash(), a.world_hash());
        b.audit_links().unwrap();
    }

    #[test]
    fn player_capsule_crosses_worlds_hash_identical() {
        let a = world(8);
        let b = world(8);
        let mut rng = Pcg32::seeded(46);
        churn(&a, 23, &mut rng);
        // Find an active player to migrate.
        let src = (0..8u16)
            .find(|&i| a.store.snapshot(i).active)
            .expect("churn left an active player");
        let pre = a.player_hash(src);
        let capsule = a.snapshot_player_bytes(src).unwrap();
        // Land it in a *different* slot index of the target world.
        let dst = if src == 5 { 6 } else { 5 };
        b.restore_player_bytes(dst, &capsule).unwrap();
        assert_eq!(b.player_hash(dst), pre, "capsule transfer not identical");
        // The source is untouched; despawning it afterwards mirrors the
        // migration handoff order (restore target, then clear source).
        assert_eq!(a.player_hash(src), pre);
        a.despawn_player(src);
        assert_eq!(a.player_hash(src), 0);
        a.audit_links().unwrap();
        b.audit_links().unwrap();
    }

    #[test]
    fn player_capsule_rejects_garbage_without_mutating() {
        let w = world(4);
        let mut rng = Pcg32::seeded(47);
        churn(&w, 9, &mut rng);
        let src = (0..4u16)
            .find(|&i| w.store.snapshot(i).active)
            .expect("active player");
        let dst = (0..4u16)
            .find(|&i| !w.store.snapshot(i).active)
            .expect("empty slot");
        let hash = w.world_hash();
        let capsule = w.snapshot_player_bytes(src).unwrap();

        assert!(w.restore_player_bytes(dst, &[9, 9, 9]).is_err());
        let mut bad_magic = capsule.clone();
        bad_magic[0] ^= 0xFF;
        assert!(w.restore_player_bytes(dst, &bad_magic).is_err());
        let mut truncated = capsule.clone();
        truncated.truncate(truncated.len() - 3);
        assert!(w.restore_player_bytes(dst, &truncated).is_err());
        let mut trailing = capsule.clone();
        trailing.push(0);
        assert!(w.restore_player_bytes(dst, &trailing).is_err());
        // A whole-world checkpoint is not a player capsule.
        assert!(w.restore_player_bytes(dst, &w.snapshot_bytes()).is_err());
        // An occupied target slot refuses the landing.
        assert!(w.restore_player_bytes(src, &capsule).is_err());
        // Snapshotting a non-player or empty slot refuses too.
        assert!(w.snapshot_player_bytes(dst).is_err());
        assert!(w.snapshot_player_bytes(4_000).is_err());

        assert_eq!(w.world_hash(), hash, "failed restore mutated the world");
        w.audit_links().unwrap();
    }

    #[test]
    fn player_hash_ignores_the_slot_index() {
        let w = world(8);
        let mut rng = Pcg32::seeded(48);
        // Two players spawned with the same client id and forced to the
        // same state hash identically despite different slot indices.
        w.spawn_player(1, 500, &mut rng);
        w.spawn_player(6, 500, &mut rng);
        for idx in [1u16, 6] {
            w.store.with_mut(idx, 0, |e| {
                e.pos = vec3(10.0, 20.0, 30.0);
                e.yaw = 90.0;
            });
            w.relink_unlocked(idx);
        }
        assert_eq!(w.player_hash(1), w.player_hash(6));
        assert_ne!(w.player_hash(1), 0);
        // Inactive slots hash to the sentinel.
        assert_eq!(w.player_hash(3), 0);
    }

    #[test]
    fn item_class_byte_roundtrips() {
        for c in [
            ItemClass::Health,
            ItemClass::Armor,
            ItemClass::Ammo,
            ItemClass::Weapon,
            ItemClass::Powerup,
        ] {
            assert_eq!(ItemClass::from_class_byte(item_class_byte(c)), c);
        }
    }
}
