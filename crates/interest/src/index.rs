//! The shared entity index: every active entity snapshotted in id
//! order, with its reply payload and room precomputed, plus one bucket
//! of entities per room.
//!
//! The index lives across frames and is brought up to date by
//! [`EntityIndex::refresh`], which walks the store's row stamps and
//! re-snapshots only the entities written since the last refresh: an
//! entity that turned active or inactive is merged into or out of the
//! id-ordered list, and the room buckets are recounted — one stable
//! counting pass, no comparison sort — only when the active set changed
//! or an entity changed room. [`EntityIndex::build`] is a refresh of an
//! empty index, so both share one fill path.
//!
//! A bucket lists its room's entities as ascending positions in the
//! id-ordered `entities` array, so the union of any set of buckets,
//! read in ascending position, is in the order the per-client scan
//! visits entities in: that is what makes the matcher's output
//! (including truncation ties) byte-identical to the scan's.

use parquake_bsp::rooms::RoomId;
use parquake_math::Vec3;
use parquake_protocol::EntityUpdate;
use parquake_sim::{Entity, EntityId, GameWorld, WorkCounters};

/// One active entity, snapshotted when its row stamp last moved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexedEntity {
    pub id: EntityId,
    pub pos: Vec3,
    /// Room the entity stands in (precomputed once; the scan recomputes
    /// it per viewer).
    pub room: RoomId,
    /// The wire payload a reply would carry for this entity.
    pub update: EntityUpdate,
}

impl IndexedEntity {
    fn of(world: &GameWorld, id: EntityId, e: &Entity) -> IndexedEntity {
        IndexedEntity {
            id,
            pos: e.pos,
            room: world.map.rooms.room_of(e.pos),
            update: EntityUpdate {
                id: e.id,
                kind: e.wire_kind(),
                state: e.wire_state(),
                pos: e.pos,
                yaw: e.yaw,
            },
        }
    }
}

/// The index all viewers match against. Two indexes compare equal when
/// they hold the same entities and buckets — what the matcher reads —
/// whatever their refresh history.
#[derive(Clone, Debug, Default)]
pub struct EntityIndex {
    /// Active entities in ascending id order (the scan's order).
    entities: Vec<IndexedEntity>,
    /// CSR room buckets: room `r` owns
    /// `room_slots[room_start[r]..room_start[r + 1]]`.
    room_start: Vec<u32>,
    /// Positions into `entities`, grouped by room, ascending inside a
    /// room.
    room_slots: Vec<u32>,
    /// [`parquake_sim::EntityStore::id`] of the store last read (0 =
    /// none yet), and the stamp each of its rows had then.
    store: u64,
    stamps: Vec<u32>,
    /// Refresh scratch: entities turning active (ascending id),
    /// positions of entities turning inactive (ascending), and the
    /// buffer the merge writes into.
    arriving: Vec<IndexedEntity>,
    leaving: Vec<u32>,
    spare: Vec<IndexedEntity>,
}

impl PartialEq for EntityIndex {
    fn eq(&self, other: &EntityIndex) -> bool {
        self.entities == other.entities
            && self.room_start == other.room_start
            && self.room_slots == other.room_slots
    }
}

impl EntityIndex {
    /// Snapshot every active entity and bucket the snapshots by room:
    /// the refresh of an empty index. Charged as [`EntityIndex::refresh`]
    /// charges.
    pub fn build(world: &GameWorld, work: &mut WorkCounters) -> EntityIndex {
        let mut index = EntityIndex::default();
        index.refresh(world, work);
        index
    }

    /// Bring the index up to date with `world`: re-snapshot every entity
    /// whose row stamp moved since the last refresh (every entity, the
    /// first time a store is read), merge entities that turned active or
    /// inactive into or out of the id-ordered list, and recount the room
    /// buckets if the active set changed or an entity changed room.
    /// Charged to the caller as `interest_steps`: one step per store
    /// slot walked, one per entity indexed — what a from-scratch build
    /// of the same index costs.
    pub fn refresh(&mut self, world: &GameWorld, work: &mut WorkCounters) {
        let store = &world.store;
        let cap = store.capacity();
        let first = self.store != store.id();
        if first {
            self.store = store.id();
            self.entities.clear();
            self.arriving.reserve(cap);
            self.stamps.clear();
            self.stamps.resize(cap, 0);
        }
        let mut regroup = first;
        // Ids ascend here as they do in `entities`, so one cursor finds
        // every changed entity's entry: `entities[..at]` hold lower ids.
        let mut at = 0;
        for id in 0..cap as EntityId {
            let stamp = store.row(id).stamp();
            if !first && stamp == self.stamps[id as usize] {
                continue;
            }
            self.stamps[id as usize] = stamp;
            while self.entities.get(at).is_some_and(|x| x.id < id) {
                at += 1;
            }
            let listed = self.entities.get(at).is_some_and(|x| x.id == id);
            let e = store.snapshot(id);
            match (listed, e.active) {
                (true, true) => {
                    let now = IndexedEntity::of(world, id, &e);
                    regroup |= now.room != self.entities[at].room;
                    self.entities[at] = now;
                }
                (true, false) => self.leaving.push(at as u32),
                (false, true) => self.arriving.push(IndexedEntity::of(world, id, &e)),
                (false, false) => {}
            }
        }
        if !self.arriving.is_empty() || !self.leaving.is_empty() {
            self.merge();
            regroup = true;
        }
        if regroup {
            self.regroup(world.map.rooms.room_count());
        }
        work.interest_steps += (cap + self.entities.len()) as u64;
    }

    /// Merge `arriving` into, and `leaving` out of, the id-ordered
    /// entity list in one pass.
    fn merge(&mut self) {
        let EntityIndex {
            entities,
            arriving,
            leaving,
            spare,
            ..
        } = self;
        if entities.is_empty() {
            // A first fill: the arrivals are the list.
            std::mem::swap(entities, arriving);
            return;
        }
        spare.clear();
        spare.reserve(entities.len() + arriving.len());
        let mut incoming = arriving.iter().peekable();
        let mut outgoing = leaving.iter().peekable();
        for (at, e) in entities.iter().enumerate() {
            if outgoing.next_if_eq(&&(at as u32)).is_some() {
                continue;
            }
            while let Some(a) = incoming.next_if(|a| a.id < e.id) {
                spare.push(*a);
            }
            spare.push(*e);
        }
        spare.extend(incoming);
        std::mem::swap(entities, spare);
        arriving.clear();
        leaving.clear();
    }

    /// Counting sort of the entity positions by room: sizes → bucket
    /// starts, then a stable scatter (ascending positions stay ascending
    /// inside a bucket) that advances each start to its bucket's end,
    /// and a shift that turns the ends back into starts.
    fn regroup(&mut self, rooms: usize) {
        let starts = &mut self.room_start;
        starts.clear();
        starts.resize(rooms + 1, 0);
        for e in &self.entities {
            starts[e.room as usize + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        self.room_slots.clear();
        self.room_slots.resize(self.entities.len(), 0);
        for (slot, e) in self.entities.iter().enumerate() {
            let at = &mut starts[e.room as usize];
            self.room_slots[*at as usize] = slot as u32;
            *at += 1;
        }
        starts.copy_within(0..rooms, 1);
        starts[0] = 0;
    }

    /// Active entities in ascending id order.
    #[inline]
    pub fn entities(&self) -> &[IndexedEntity] {
        &self.entities
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
        let indexed: Vec<EntityId> = idx.entities().iter().map(|e| e.id).collect();
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
                assert_eq!(idx.entities()[slot as usize].room, room);
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
