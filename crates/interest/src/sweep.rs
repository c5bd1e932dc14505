//! The batch matcher: interest matched room-to-room first, entity to
//! entity only inside the hit.
//!
//! Whether a viewer may see an entity at all depends only on the two
//! *rooms* (the map's PVS), and many viewers share few rooms. So the
//! viewers are grouped by room, and once per occupied room the buckets
//! of the rooms its PVS row lists are OR-ed into a bitset over index
//! positions and drained ascending — ascending position is ascending
//! id, the scan's order — into one candidate list that every viewer
//! standing in that room shares. What is left per viewer is the
//! scan's own self-skip, distance cut and stable nearest-first
//! truncation over that list, so the result is byte-identical to
//! `visibility::build_reply_entities`. A viewer's set depends on
//! nothing but the index and its own position: matching any subset of
//! the viewers (one thread's slots, in the parallel server) yields the
//! same sets.

use parquake_bsp::rooms::RoomId;
use parquake_math::Vec3;
use parquake_protocol::{EntityUpdate, MAX_ENTITIES_PER_REPLY};
use parquake_sim::{EntityId, GameWorld, WorkCounters};

use crate::index::{sort_steps, EntityIndex};
use crate::InterestStats;

/// One frame's precomputed interest sets, keyed by viewer entity id.
/// All sets live in one array, in the order they were produced: viewer
/// `ids[i]` owns `updates[windows[i].0..windows[i].1]`.
#[derive(Clone, Debug, Default)]
pub struct InterestFrame {
    ids: Vec<EntityId>,
    windows: Vec<(u32, u32)>,
    updates: Vec<EntityUpdate>,
}

impl InterestFrame {
    /// The precomputed reply set for `viewer`, if it was matched.
    pub fn get(&self, viewer: EntityId) -> Option<&[EntityUpdate]> {
        let i = self.ids.binary_search(&viewer).ok()?;
        let (start, end) = self.windows[i];
        Some(&self.updates[start as usize..end as usize])
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A set of index positions, reused across rooms. Draining it visits
/// positions in ascending order, which is ascending entity id, without
/// sorting anything.
struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    fn new(slots: usize) -> SlotBits {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, slot: u32) {
        self.words[(slot >> 6) as usize] |= 1 << (slot & 63);
    }

    /// Visit every set bit in ascending order, leaving the set empty.
    #[inline]
    fn drain_ascending(&mut self, mut visit: impl FnMut(u32)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                visit((w as u32) << 6 | rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }
}

/// Match `viewers` (ascending entity ids) against the index. Returns
/// one reply set per viewer, byte-identical to what the per-client
/// scan would produce. Work is reported through `work`
/// (`interest_steps` for grouping the viewers and gathering each
/// occupied room's candidates, `visibility_checks` for candidates
/// examined) and the pair accounting through `stats`. Allocates a
/// fixed number of buffers per call, none per viewer.
pub fn match_viewers(
    world: &GameWorld,
    index: &EntityIndex,
    viewers: &[EntityId],
    work: &mut WorkCounters,
    stats: &mut InterestStats,
) -> InterestFrame {
    debug_assert!(viewers.windows(2).all(|p| p[0] < p[1]), "viewers unsorted");
    let rooms = &world.map.rooms;
    let e_n = index.len();
    let v_n = viewers.len();
    stats.viewers += v_n as u64;
    stats.entities += e_n as u64;
    stats.pairs_total += (v_n * e_n) as u64;

    let max_d2 = world.max_view_dist * world.max_view_dist;
    let centers: Vec<Vec3> = viewers
        .iter()
        .map(|&id| world.store.snapshot(id).pos)
        .collect();
    // Group the viewers by room: one word per viewer, its room above
    // its position in `viewers` (ids are 16 bits, so positions are).
    let mut by_room: Vec<u32> = centers
        .iter()
        .enumerate()
        .map(|(vi, &me)| u32::from(rooms.room_of(me)) << 16 | vi as u32)
        .collect();
    by_room.sort_unstable();
    work.interest_steps += sort_steps(v_n);

    // Every buffer is sized once for the worst case (everything
    // visible to everyone); `updates` has room for one viewer's
    // untruncated set on top of the sets it keeps.
    let keep = e_n.min(MAX_ENTITIES_PER_REPLY);
    let mut windows = vec![(0u32, 0u32); v_n];
    let mut updates: Vec<EntityUpdate> = Vec::with_capacity(v_n * keep + e_n);
    let mut bits = SlotBits::new(e_n);
    let mut cand: Vec<u32> = Vec::with_capacity(e_n);
    let mut keys: Vec<u64> = Vec::with_capacity(e_n);
    let mut nearest: Vec<EntityUpdate> = Vec::with_capacity(keep);
    let mut gathered: Option<RoomId> = None;
    for &key in &by_room {
        let (room, vi) = ((key >> 16) as RoomId, (key & 0xffff) as usize);
        if gathered != Some(room) {
            // Region to region, once per occupied room: everything
            // standing in a room this room sees, in id order. The
            // bitset hands the union over already ordered; the
            // modelled machine has no such trick, so the comparison
            // sort it would need to restore id order is still charged
            // — the price of the ordered walk.
            gathered = Some(room);
            for seen in rooms.visible_rooms(room) {
                for &slot in index.bucket(seen) {
                    bits.set(slot);
                }
            }
            cand.clear();
            bits.drain_ascending(|slot| cand.push(slot));
            work.interest_steps += cand.len() as u64 + sort_steps(cand.len());
        }
        let (vid, me) = (viewers[vi], centers[vi]);
        stats.pairs_tested += cand.len() as u64;
        stats.pairs_skipped += (e_n - cand.len()) as u64;

        // Entity to entity, inside the hit only.
        let start = updates.len();
        for &slot in &cand {
            let ent = &index.entities[slot as usize];
            if ent.id == vid {
                continue;
            }
            work.visibility_checks += 1;
            if ent.pos.distance_sq(me) > max_d2 {
                continue;
            }
            updates.push(ent.update);
        }
        if updates.len() - start > MAX_ENTITIES_PER_REPLY {
            // A squared distance is a non-negative float, so its bit
            // pattern orders like its value; the low half breaks ties
            // in id order, which is what the scan's stable sort does.
            // Keys are unique, so the nearest MAX are one definite set
            // in one definite order: select them, then order only them.
            keys.clear();
            keys.extend(
                updates[start..]
                    .iter()
                    .enumerate()
                    .map(|(k, u)| u64::from(u.pos.distance_sq(me).to_bits()) << 32 | k as u64),
            );
            keys.select_nth_unstable(MAX_ENTITIES_PER_REPLY);
            keys.truncate(MAX_ENTITIES_PER_REPLY);
            keys.sort_unstable();
            nearest.clear();
            nearest.extend(keys.iter().map(|&k| updates[start + k as u32 as usize]));
            updates.truncate(start);
            updates.extend_from_slice(&nearest);
        }
        windows[vi] = (start as u32, updates.len() as u32);
    }

    InterestFrame {
        ids: viewers.to_vec(),
        windows,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::vec3::vec3;
    use parquake_math::Pcg32;
    use parquake_sim::visibility::build_reply_entities;
    use std::sync::Arc;

    fn scan(world: &GameWorld, viewer: EntityId) -> Vec<EntityUpdate> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut work = WorkCounters::new();
        build_reply_entities(world, viewer, &mut out, &mut scratch, &mut work);
        out
    }

    fn sweep_all(world: &GameWorld, viewers: &[EntityId]) -> (InterestFrame, InterestStats) {
        let mut work = WorkCounters::new();
        let mut stats = InterestStats::default();
        let index = EntityIndex::build(world, &mut work);
        stats.frames += 1;
        let frame = match_viewers(world, &index, viewers, &mut work, &mut stats);
        (frame, stats)
    }

    /// Sweep output equals the scan for every viewer and the pair
    /// accounting closes — matching all viewers, every third viewer
    /// and none: a viewer's set must not depend on who else is matched
    /// (the parallel server splits the viewers between its threads).
    fn assert_matches_scan(world: &GameWorld, viewers: &[EntityId]) {
        let thirds: Vec<EntityId> = viewers.iter().copied().step_by(3).collect();
        for subset in [viewers, &thirds[..], &[]] {
            let (frame, stats) = sweep_all(world, subset);
            assert_eq!(frame.len(), subset.len());
            for &v in subset {
                assert_eq!(
                    frame.get(v).expect("viewer matched"),
                    scan(world, v).as_slice(),
                    "sweep != scan for viewer {v} among {} matched",
                    subset.len()
                );
            }
            assert!(stats.pairs_closed(), "{stats:?}");
            assert_eq!(stats.viewers, subset.len() as u64);
        }
    }

    #[test]
    fn sweep_equals_scan_in_an_open_hall() {
        let map = Arc::new(MapGenConfig::open_hall(7).generate());
        let w = GameWorld::new(map, 4, 16);
        let mut rng = Pcg32::seeded(7);
        for i in 0..16 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let viewers: Vec<EntityId> = (0..16).collect();
        assert_matches_scan(&w, &viewers);
        // One room sees itself: nothing to prune, every pair examined.
        let (_, stats) = sweep_all(&w, &viewers);
        assert_eq!(stats.pairs_skipped, 0, "{stats:?}");
        assert_eq!(stats.pairs_tested, 16 * stats.entities, "V × E");
    }

    #[test]
    fn sweep_equals_scan_across_a_maze() {
        let map = Arc::new(MapGenConfig::large_arena(9).generate());
        let w = GameWorld::new(map, 4, 32);
        let mut rng = Pcg32::seeded(9);
        for i in 0..32 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        assert_matches_scan(&w, &(0..32).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_equals_scan_with_a_short_view_distance() {
        let map = Arc::new(MapGenConfig::large_arena(11).generate());
        let mut w = GameWorld::new(map, 4, 32);
        w.max_view_dist = 300.0;
        let mut rng = Pcg32::seeded(11);
        for i in 0..32 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        assert_matches_scan(&w, &(0..32).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_equals_scan_for_viewers_in_walls_and_off_the_grid() {
        // `room_of` attributes a position inside a wall to the nearest
        // cell and clamps one outside the grid; the matcher must file
        // such viewers (and such entities) exactly as the scan does.
        let cfg = MapGenConfig::large_arena(15);
        let (fx, fy) = cfg.footprint();
        let pitch = cfg.pitch();
        let map = Arc::new(cfg.generate());
        let w = GameWorld::new(map, 4, 32);
        let mut rng = Pcg32::seeded(15);
        for i in 0..32 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let z = w.store.snapshot(0).pos.z;
        // Inside the wall slab between cells (2,·) and (3,·).
        w.store
            .with_mut(0, 0, |e| e.pos = vec3(3.0 * pitch + 8.0, 2.5 * pitch, z));
        // Beyond the far corner, and before the near one.
        w.store
            .with_mut(1, 0, |e| e.pos = vec3(fx + 300.0, fy + 300.0, z));
        w.store
            .with_mut(2, 0, |e| e.pos = vec3(-200.0, 0.5 * pitch, z));
        assert_matches_scan(&w, &(0..32).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_preserves_truncation_order_in_a_crowd() {
        // 200 players clustered around player 0 (the scan's own cap
        // test): more visible than fits, so nearest-first truncation
        // and its tie-breaking must match exactly.
        let map = Arc::new(MapGenConfig::open_hall(5).generate());
        let w = GameWorld::new(map, 4, 200);
        let mut rng = Pcg32::seeded(5);
        for i in 0..200 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let p0 = w.store.snapshot(0).pos;
        for i in 1..200u16 {
            w.store.with_mut(i, 0, |e| {
                e.pos = p0 + vec3((i as f32) * 3.0, 0.0, 0.0);
            });
        }
        let viewers: Vec<EntityId> = (0..200).collect();
        let (frame, _) = sweep_all(&w, &viewers);
        assert_eq!(frame.get(0).unwrap().len(), MAX_ENTITIES_PER_REPLY);
        assert_matches_scan(&w, &viewers);
    }

    #[test]
    fn sweep_skips_most_pairs_when_views_are_narrow() {
        // With a short view distance in a big maze, the broad phase
        // must dispose of the overwhelming majority of pairs.
        let map = Arc::new(MapGenConfig::large_arena(13).generate());
        let mut w = GameWorld::new(map, 4, 32);
        w.max_view_dist = 250.0;
        let mut rng = Pcg32::seeded(13);
        for i in 0..32 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let (_, stats) = sweep_all(&w, &(0..32).collect::<Vec<_>>());
        assert!(stats.pairs_closed(), "{stats:?}");
        assert!(
            stats.pairs_skipped > stats.pairs_tested,
            "no pruning: {stats:?}"
        );
    }

    #[test]
    fn unmatched_viewers_are_absent_from_the_frame() {
        let map = Arc::new(MapGenConfig::open_hall(3).generate());
        let w = GameWorld::new(map, 4, 8);
        let mut rng = Pcg32::seeded(3);
        for i in 0..4 {
            w.spawn_player(i, i as u32, &mut rng);
        }
        let (frame, _) = sweep_all(&w, &[0, 2]);
        assert!(frame.get(0).is_some());
        assert!(frame.get(1).is_none());
        assert_eq!(frame.len(), 2);
    }

    proptest::proptest! {
        /// Draining the bitset yields what sorting the candidate list
        /// yielded, for any duplicate-free set in any marking order
        /// (empty included), and leaves the set reusable.
        #[test]
        fn bitset_walk_order_equals_sorted_candidates(
            picks in proptest::collection::vec((0u32..700, proptest::prelude::any::<bool>()), 0..300),
        ) {
            let mut bits = SlotBits::new(700);
            let mut cand: Vec<u32> = Vec::new();
            for &(slot, hit) in &picks {
                if hit {
                    bits.set(slot);
                    if !cand.contains(&slot) {
                        cand.push(slot);
                    }
                }
            }
            cand.sort_unstable();
            let mut walked = Vec::new();
            bits.drain_ascending(|slot| walked.push(slot));
            proptest::prop_assert_eq!(&walked, &cand);
            proptest::prop_assert!(bits.words.iter().all(|&w| w == 0), "not drained");
        }
    }
}
