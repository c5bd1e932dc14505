//! The shared per-frame entity index: every active entity snapshotted
//! once, in id order, with its reply payload and room precomputed, plus
//! one bucket of entities per room.
//!
//! Building the index costs one O(capacity) walk and one stable
//! counting pass over the rooms the walk already computed — no
//! comparison sort — paid once per frame and shared by every viewer.
//! A bucket lists its room's entities as ascending positions in the
//! id-ordered `entities` array, so the union of any set of buckets,
//! read in ascending position, is in the order the per-client scan
//! visits entities in: that is what makes the matcher's output
//! (including truncation ties) byte-identical to the scan's.

use parquake_bsp::rooms::RoomId;
use parquake_math::Vec3;
use parquake_protocol::EntityUpdate;
use parquake_sim::{EntityId, GameWorld, WorkCounters};

/// One active entity, snapshotted at index-build time.
#[derive(Clone, Copy, Debug)]
pub struct IndexedEntity {
    pub id: EntityId,
    pub pos: Vec3,
    /// Room the entity stands in (precomputed once; the scan recomputes
    /// it per viewer).
    pub room: RoomId,
    /// The wire payload a reply would carry for this entity.
    pub update: EntityUpdate,
}

/// The per-frame index all viewers match against.
#[derive(Clone, Debug, Default)]
pub struct EntityIndex {
    /// Active entities in ascending id order (the scan's order).
    pub entities: Vec<IndexedEntity>,
    /// CSR room buckets: room `r` owns
    /// `room_slots[room_start[r]..room_start[r + 1]]`.
    room_start: Vec<u32>,
    /// Positions into `entities`, grouped by room, ascending inside a
    /// room.
    room_slots: Vec<u32>,
}

impl EntityIndex {
    /// Snapshot every active entity and bucket the snapshots by room.
    /// Charged to the caller as `interest_steps`: one step per store
    /// slot walked, one per entity bucketed.
    pub fn build(world: &GameWorld, work: &mut WorkCounters) -> EntityIndex {
        let rooms = &world.map.rooms;
        let cap = world.store.capacity();
        let mut entities = Vec::with_capacity(cap);
        let mut room_start = vec![0u32; rooms.room_count() + 1];
        for id in 0..cap as EntityId {
            let e = world.store.snapshot(id);
            if !e.active {
                continue;
            }
            let room = rooms.room_of(e.pos);
            room_start[room as usize + 1] += 1;
            entities.push(IndexedEntity {
                id,
                pos: e.pos,
                room,
                update: EntityUpdate {
                    id: e.id,
                    kind: e.wire_kind(),
                    state: e.wire_state(),
                    pos: e.pos,
                    yaw: e.yaw,
                },
            });
        }
        work.interest_steps += (cap + entities.len()) as u64;
        // Counting sort by room: sizes → bucket starts, then a stable
        // scatter (ascending slots stay ascending inside a bucket).
        for r in 1..room_start.len() {
            room_start[r] += room_start[r - 1];
        }
        let mut next = room_start.clone();
        let mut room_slots = vec![0u32; entities.len()];
        for (slot, e) in entities.iter().enumerate() {
            let at = &mut next[e.room as usize];
            room_slots[*at as usize] = slot as u32;
            *at += 1;
        }
        EntityIndex {
            entities,
            room_start,
            room_slots,
        }
    }

    /// Positions into `entities` of the entities standing in `room`,
    /// ascending.
    #[inline]
    pub fn bucket(&self, room: RoomId) -> &[u32] {
        let r = room as usize;
        &self.room_slots[self.room_start[r] as usize..self.room_start[r + 1] as usize]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

/// Comparison-step estimate for sorting `n` keys: `n · ⌈log₂ n⌉`.
pub(crate) fn sort_steps(n: usize) -> u64 {
    let n = n as u64;
    if n < 2 {
        return n;
    }
    n * (u64::BITS - (n - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::Pcg32;
    use std::sync::Arc;

    #[test]
    fn index_holds_active_entities_in_id_order() {
        let map = Arc::new(MapGenConfig::open_hall(1).generate());
        let w = GameWorld::new(map, 4, 8);
        let mut rng = Pcg32::seeded(1);
        w.spawn_player(0, 0, &mut rng);
        w.spawn_player(3, 3, &mut rng);
        let mut work = WorkCounters::new();
        let idx = EntityIndex::build(&w, &mut work);
        // Players 0 and 3 plus all items and teleporters; idle
        // projectile slots and unspawned players are absent.
        let active: Vec<EntityId> = (0..w.store.capacity() as EntityId)
            .filter(|&id| w.store.snapshot(id).active)
            .collect();
        let indexed: Vec<EntityId> = idx.entities.iter().map(|e| e.id).collect();
        assert_eq!(indexed, active);
        assert!(work.interest_steps > 0, "index build must charge steps");
    }

    #[test]
    fn every_indexed_slot_sits_in_exactly_one_bucket() {
        let map = Arc::new(MapGenConfig::large_arena(2).generate());
        let w = GameWorld::new(map, 4, 32);
        let mut rng = Pcg32::seeded(2);
        for i in 0..32 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let idx = EntityIndex::build(&w, &mut WorkCounters::new());
        let mut seen = vec![0u32; idx.len()];
        for room in 0..w.map.rooms.room_count() as RoomId {
            let bucket = idx.bucket(room);
            assert!(bucket.windows(2).all(|p| p[0] < p[1]), "room {room}");
            for &slot in bucket {
                assert_eq!(idx.entities[slot as usize].room, room);
                seen[slot as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
    }

    #[test]
    fn sort_steps_grows_superlinearly() {
        assert_eq!(sort_steps(0), 0);
        assert_eq!(sort_steps(1), 1);
        assert_eq!(sort_steps(2), 2);
        assert_eq!(sort_steps(1024), 1024 * 10);
    }
}
