//! The sort-based sweep: match every viewer against the shared
//! [`EntityIndex`] with two linear merges per axis.
//!
//! Entities are points, so a viewer's per-axis candidates — entities
//! whose coordinate falls inside `[center − R, center + R]` — form one
//! contiguous range of the coordinate-sorted array. Viewers all share
//! the radius `R` (the world's view distance), so sorting viewers by
//! center orders their lower *and* upper bounds simultaneously; one
//! monotone two-pointer pass per bound finds every range. The broad
//! phase then walks the smaller of a viewer's two axis ranges, tests
//! the other axis against the range's parallel coordinate array and
//! marks survivors in a bitset over index positions; survivors are
//! exact AABB candidates, a superset of the sphere the scan uses. The
//! narrow phase walks the set bits ascending — ascending index is
//! ascending id, the scan's order — and re-runs the scan's checks
//! verbatim: same distance test, same room gate, same stable
//! nearest-first truncation, so the result is byte-identical to
//! `visibility::build_reply_entities`.

use parquake_protocol::{EntityUpdate, MAX_ENTITIES_PER_REPLY};
use parquake_sim::{EntityId, GameWorld, WorkCounters};

use crate::index::{sort_steps, AxisIndex, EntityIndex};
use crate::InterestStats;

/// One frame's precomputed interest sets, keyed by viewer entity id.
/// All sets live back to back in one array: viewer `ids[i]` owns
/// `updates[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, Default)]
pub struct InterestFrame {
    ids: Vec<EntityId>,
    offsets: Vec<u32>,
    updates: Vec<EntityUpdate>,
}

impl InterestFrame {
    /// The precomputed reply set for `viewer`, if it was matched.
    pub fn get(&self, viewer: EntityId) -> Option<&[EntityUpdate]> {
        let i = self.ids.binary_search(&viewer).ok()?;
        Some(&self.updates[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Broad-phase survivors as a bitset over index positions, reused
/// across viewers. Draining it visits positions in ascending order,
/// which is ascending entity id, without sorting anything.
struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    fn new(slots: usize) -> SlotBits {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Set bit `slot` iff `hit` (branch-free: the broad phase rejects
    /// most of what it walks, unpredictably).
    #[inline]
    fn mark(&mut self, slot: u32, hit: bool) {
        self.words[(slot >> 6) as usize] |= u64::from(hit) << (slot & 63);
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
/// (`interest_steps` for the sweep machinery, `visibility_checks` for
/// narrow-phase examinations) and the pair accounting through `stats`.
/// Allocates a fixed number of buffers per call, none per viewer.
pub fn match_viewers(
    world: &GameWorld,
    index: &EntityIndex,
    viewers: &[EntityId],
    work: &mut WorkCounters,
    stats: &mut InterestStats,
) -> InterestFrame {
    debug_assert!(viewers.windows(2).all(|p| p[0] < p[1]), "viewers unsorted");
    let e_n = index.len();
    let v_n = viewers.len();
    stats.viewers += v_n as u64;
    stats.entities += e_n as u64;
    stats.pairs_total += (v_n * e_n) as u64;

    let r = world.max_view_dist;
    let max_d2 = r * r;
    let centers: Vec<parquake_math::Vec3> = viewers
        .iter()
        .map(|&id| world.store.snapshot(id).pos)
        .collect();

    let cx: Vec<f32> = centers.iter().map(|p| p.x).collect();
    let cy: Vec<f32> = centers.iter().map(|p| p.y).collect();
    let rx = axis_ranges(&index.by_x, &cx, r, work);
    let ry = axis_ranges(&index.by_y, &cy, r, work);

    let mut offsets = Vec::with_capacity(v_n + 1);
    offsets.push(0u32);
    let mut updates: Vec<EntityUpdate> = Vec::with_capacity(v_n * e_n.min(MAX_ENTITIES_PER_REPLY));
    // Per-viewer scratch, sized once for the worst case (everything
    // visible): the viewer's set in id order and, parallel to it,
    // nearest-first sort keys.
    let mut bits = SlotBits::new(e_n);
    let mut near: Vec<EntityUpdate> = Vec::with_capacity(e_n);
    let mut keys: Vec<u64> = Vec::with_capacity(e_n);
    for (vi, &vid) in viewers.iter().enumerate() {
        let me = centers[vi];
        let (sx, ex) = rx[vi];
        let (sy, ey) = ry[vi];
        let nx = (ex - sx) as usize;
        let ny = (ey - sy) as usize;

        // Broad phase: walk the smaller axis range, test the other
        // axis coordinate from the range's parallel array.
        let broad = nx.min(ny);
        let (axis, center, range) = if nx <= ny {
            (&index.by_x, me.y, sx as usize..ex as usize)
        } else {
            (&index.by_y, me.x, sy as usize..ey as usize)
        };
        let mut cand_n = 0usize;
        for (&other, &slot) in axis.other[range.clone()].iter().zip(&axis.slots[range]) {
            let hit = (other - center).abs() <= r;
            bits.mark(slot, hit);
            cand_n += usize::from(hit);
        }
        work.interest_steps += broad as u64;
        // Axis prune: entities outside the walked range were never
        // touched. Other-axis rejects: walked but discarded.
        stats.pairs_skipped += (e_n - broad) as u64;
        stats.pairs_skipped += (broad - cand_n) as u64;

        // Narrow phase in id order. The bitset hands the survivors
        // over already ordered; the modelled machine has no such
        // trick, so the comparison sort it would need to restore id
        // order is still charged — the price of the ordered walk.
        work.interest_steps += sort_steps(cand_n);
        stats.pairs_tested += cand_n as u64;

        let my_room = world.map.rooms.room_of(me);
        near.clear();
        keys.clear();
        bits.drain_ascending(|slot| {
            let ent = &index.entities[slot as usize];
            if ent.id == vid {
                return;
            }
            work.visibility_checks += 1;
            let d2 = ent.pos.distance_sq(me);
            if d2 > max_d2 {
                return;
            }
            if !world.map.rooms.rooms_visible(my_room, ent.room) {
                return;
            }
            // `d2` is a non-negative finite float, so its bit pattern
            // orders like its value; the low half breaks ties in id
            // order, which is what the scan's stable sort does.
            keys.push(u64::from(d2.to_bits()) << 32 | near.len() as u64);
            near.push(ent.update);
        });
        if near.len() > MAX_ENTITIES_PER_REPLY {
            // Keys are unique, so the nearest MAX are one definite set
            // in one definite order: select them, then order only them.
            keys.select_nth_unstable(MAX_ENTITIES_PER_REPLY);
            keys.truncate(MAX_ENTITIES_PER_REPLY);
            keys.sort();
            updates.extend(keys.iter().map(|&k| near[k as u32 as usize]));
        } else {
            updates.extend_from_slice(&near);
        }
        offsets.push(updates.len() as u32);
    }

    InterestFrame {
        ids: viewers.to_vec(),
        offsets,
        updates,
    }
}

/// For every viewer center, the contiguous `[start, end)` range of the
/// axis array whose coordinates fall inside `center ± r`. One sort of
/// the viewers by center plus two monotone merge passes — the DDM
/// sweep's core.
fn axis_ranges(
    axis: &AxisIndex,
    centers: &[f32],
    r: f32,
    work: &mut WorkCounters,
) -> Vec<(u32, u32)> {
    let v_n = centers.len();
    let mut order: Vec<u32> = (0..v_n as u32).collect();
    order.sort_by(|&a, &b| centers[a as usize].total_cmp(&centers[b as usize]));
    work.interest_steps += sort_steps(v_n);

    let coords = &axis.coords;
    let n = coords.len();
    let mut ranges = vec![(0u32, 0u32); v_n];
    let (mut lo, mut hi) = (0usize, 0usize);
    for &vi in &order {
        let c = centers[vi as usize];
        while lo < n && coords[lo] < c - r {
            lo += 1;
            work.interest_steps += 1;
        }
        while hi < n && coords[hi] <= c + r {
            hi += 1;
            work.interest_steps += 1;
        }
        ranges[vi as usize] = (lo as u32, hi as u32);
        work.interest_steps += 1;
    }
    ranges
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

    /// The matcher this module replaced, kept as the oracle for
    /// everything the rewrite must not move: candidates collected into
    /// a `Vec` and re-sorted into id order, one `Vec` per viewer,
    /// stable distance sort on truncation.
    fn match_viewers_reference(
        world: &GameWorld,
        index: &EntityIndex,
        viewers: &[EntityId],
        work: &mut WorkCounters,
        stats: &mut InterestStats,
    ) -> Vec<Vec<EntityUpdate>> {
        let e_n = index.len();
        let v_n = viewers.len();
        stats.viewers += v_n as u64;
        stats.entities += e_n as u64;
        stats.pairs_total += (v_n * e_n) as u64;
        let r = world.max_view_dist;
        let max_d2 = r * r;
        let centers: Vec<parquake_math::Vec3> = viewers
            .iter()
            .map(|&id| world.store.snapshot(id).pos)
            .collect();
        let cx: Vec<f32> = centers.iter().map(|p| p.x).collect();
        let cy: Vec<f32> = centers.iter().map(|p| p.y).collect();
        let rx = axis_ranges(&index.by_x, &cx, r, work);
        let ry = axis_ranges(&index.by_y, &cy, r, work);
        let mut sets = Vec::with_capacity(v_n);
        for (vi, &vid) in viewers.iter().enumerate() {
            let me = centers[vi];
            let (sx, ex) = rx[vi];
            let (sy, ey) = ry[vi];
            let broad = (ex - sx).min(ey - sy) as usize;
            let mut cand: Vec<u32> = Vec::new();
            if ex - sx <= ey - sy {
                for k in sx..ex {
                    let slot = index.by_x.slots[k as usize];
                    if (index.entities[slot as usize].pos.y - me.y).abs() <= r {
                        cand.push(slot);
                    }
                }
            } else {
                for k in sy..ey {
                    let slot = index.by_y.slots[k as usize];
                    if (index.entities[slot as usize].pos.x - me.x).abs() <= r {
                        cand.push(slot);
                    }
                }
            }
            work.interest_steps += broad as u64;
            stats.pairs_skipped += (e_n - broad) as u64;
            stats.pairs_skipped += (broad - cand.len()) as u64;
            cand.sort_unstable();
            work.interest_steps += sort_steps(cand.len());
            stats.pairs_tested += cand.len() as u64;
            let my_room = world.map.rooms.room_of(me);
            let mut scratch: Vec<(f32, EntityUpdate)> = Vec::new();
            for &slot in &cand {
                let ent = &index.entities[slot as usize];
                if ent.id == vid {
                    continue;
                }
                work.visibility_checks += 1;
                let d2 = ent.pos.distance_sq(me);
                if d2 > max_d2 {
                    continue;
                }
                if !world.map.rooms.rooms_visible(my_room, ent.room) {
                    continue;
                }
                scratch.push((d2, ent.update));
            }
            if scratch.len() > MAX_ENTITIES_PER_REPLY {
                scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                scratch.truncate(MAX_ENTITIES_PER_REPLY);
            }
            sets.push(scratch.iter().map(|&(_, u)| u).collect());
        }
        sets
    }

    /// Sweep output equals the scan for every viewer, the pair
    /// accounting closes, and sets, charged work and pair counters all
    /// equal the replaced matcher's — for all viewers and for a subset
    /// (offsets must not depend on who else was matched).
    fn assert_matches_scan(world: &GameWorld, viewers: &[EntityId]) {
        let (frame, stats) = sweep_all(world, viewers);
        for &v in viewers {
            assert_eq!(
                frame.get(v).expect("viewer matched"),
                scan(world, v).as_slice(),
                "sweep != scan for viewer {v}"
            );
        }
        assert!(stats.pairs_closed(), "{stats:?}");

        let index = EntityIndex::build(world, &mut WorkCounters::new());
        let thirds: Vec<EntityId> = viewers.iter().copied().step_by(3).collect();
        for subset in [viewers, &thirds[..], &[]] {
            let (mut work, mut stats) = (WorkCounters::new(), InterestStats::default());
            let frame = match_viewers(world, &index, subset, &mut work, &mut stats);
            let (mut ref_work, mut ref_stats) = (WorkCounters::new(), InterestStats::default());
            let sets =
                match_viewers_reference(world, &index, subset, &mut ref_work, &mut ref_stats);
            assert_eq!(frame.len(), subset.len());
            for (&v, set) in subset.iter().zip(&sets) {
                assert_eq!(frame.get(v).unwrap(), set.as_slice(), "viewer {v}");
            }
            assert_eq!(work, ref_work, "charged work moved");
            assert_eq!(stats, ref_stats, "pair accounting moved");
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
        assert_matches_scan(&w, &(0..16).collect::<Vec<_>>());
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
                bits.mark(slot, hit);
                if hit && !cand.contains(&slot) {
                    cand.push(slot);
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
