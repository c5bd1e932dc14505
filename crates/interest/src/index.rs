//! The shared per-frame entity index: every active entity snapshotted
//! once, in id order, with its reply payload and room precomputed, plus
//! one coordinate-sorted view per horizontal axis.
//!
//! Building the index costs one O(capacity) walk and two O(E log E)
//! sorts of 8-byte `(coordinate, slot)` records — paid once per
//! frame, shared by every viewer. The id-ordered
//! `entities` array doubles as the narrow phase's iteration order:
//! candidate indices sorted ascending recover exactly the order the
//! per-client scan visits entities in, which is what makes the sweep's
//! output (including truncation ties) byte-identical to the scan's.

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

/// One axis of the index: entity coordinates in ascending order with
/// two parallel arrays — each entity's coordinate on the *other*
/// horizontal axis and its index into [`EntityIndex::entities`] — so
/// the broad phase tests a viewer's range by reading memory
/// sequentially instead of chasing `slots` into the entity array.
#[derive(Clone, Debug, Default)]
pub struct AxisIndex {
    pub coords: Vec<f32>,
    pub other: Vec<f32>,
    pub slots: Vec<u32>,
}

impl AxisIndex {
    /// Sort the entities by `coord`, ties by slot (what a stable sort
    /// of the id-ordered entities gives), then lay the parallel arrays
    /// out in that order. Each sort record is one integer — the
    /// coordinate's order-preserving bit pattern above the slot — so
    /// the sort compares words, not floats through a closure.
    fn build(
        entities: &[IndexedEntity],
        coord: fn(&Vec3) -> f32,
        other: fn(&Vec3) -> f32,
    ) -> AxisIndex {
        let mut records: Vec<u64> = entities
            .iter()
            .enumerate()
            .map(|(slot, e)| u64::from(total_order_bits(coord(&e.pos))) << 32 | slot as u64)
            .collect();
        records.sort_unstable();
        let mut axis = AxisIndex {
            coords: Vec::with_capacity(records.len()),
            other: Vec::with_capacity(records.len()),
            slots: Vec::with_capacity(records.len()),
        };
        for record in records {
            let slot = record as u32;
            let pos = &entities[slot as usize].pos;
            axis.coords.push(coord(pos));
            axis.other.push(other(pos));
            axis.slots.push(slot);
        }
        axis
    }
}

/// Map a float to an integer that orders like `f32::total_cmp`.
fn total_order_bits(v: f32) -> u32 {
    let bits = v.to_bits();
    // Negative floats order backwards in their bit patterns: flip all
    // their bits; for the rest, only lift them above the negatives.
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// The per-frame index all viewers match against.
#[derive(Clone, Debug, Default)]
pub struct EntityIndex {
    /// Active entities in ascending id order (the scan's order).
    pub entities: Vec<IndexedEntity>,
    pub by_x: AxisIndex,
    pub by_y: AxisIndex,
}

impl EntityIndex {
    /// Snapshot every active entity and sort both axes. Charged to the
    /// caller as `interest_steps` (one step per entity walked, `n log n`
    /// per sort).
    pub fn build(world: &GameWorld, work: &mut WorkCounters) -> EntityIndex {
        let cap = world.store.capacity();
        let mut entities = Vec::with_capacity(cap);
        for id in 0..cap as EntityId {
            let e = world.store.snapshot(id);
            if !e.active {
                continue;
            }
            entities.push(IndexedEntity {
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
            });
        }
        work.interest_steps += cap as u64 + 2 * sort_steps(entities.len());
        let by_x = AxisIndex::build(&entities, |p| p.x, |p| p.y);
        let by_y = AxisIndex::build(&entities, |p| p.y, |p| p.x);
        EntityIndex {
            entities,
            by_x,
            by_y,
        }
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
    fn axis_views_are_sorted_and_complete() {
        let map = Arc::new(MapGenConfig::open_hall(2).generate());
        let w = GameWorld::new(map, 4, 16);
        let mut rng = Pcg32::seeded(2);
        for i in 0..16 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let mut work = WorkCounters::new();
        let idx = EntityIndex::build(&w, &mut work);
        type Pick = fn(&Vec3) -> f32;
        let axes: [(&AxisIndex, Pick, Pick); 2] =
            [(&idx.by_x, |p| p.x, |p| p.y), (&idx.by_y, |p| p.y, |p| p.x)];
        for (axis, coord, other) in axes {
            assert_eq!(axis.coords.len(), idx.len());
            assert_eq!(axis.other.len(), idx.len());
            assert_eq!(axis.slots.len(), idx.len());
            assert!(axis.coords.windows(2).all(|p| p[0] <= p[1]), "unsorted");
            // The parallel arrays describe the entity `slots` names.
            for (k, &slot) in axis.slots.iter().enumerate() {
                let pos = idx.entities[slot as usize].pos;
                assert_eq!(axis.coords[k], coord(&pos));
                assert_eq!(axis.other[k], other(&pos));
            }
            let mut seen: Vec<u32> = axis.slots.clone();
            seen.sort_unstable();
            assert!(seen.iter().enumerate().all(|(i, &s)| i as u32 == s));
        }
    }

    #[test]
    fn total_order_bits_order_like_total_cmp() {
        let samples = [
            f32::NEG_INFINITY,
            -4096.5,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            0.25,
            1.0,
            4096.5,
            f32::INFINITY,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sort_steps_grows_superlinearly() {
        assert_eq!(sort_steps(0), 0);
        assert_eq!(sort_steps(1), 1);
        assert_eq!(sort_steps(2), 2);
        assert_eq!(sort_steps(1024), 1024 * 10);
    }
}
