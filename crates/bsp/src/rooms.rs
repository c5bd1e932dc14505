//! Room graph and potentially-visible-set (PVS).
//!
//! The original server determines which entities are *of interest* to
//! each client and only sends those (paper §2): entities in leaves
//! visible from the client's leaf. Our procedural maps are room/corridor
//! mazes, so the natural visibility unit is the room: two entities can
//! see each other when their rooms are within a small door-graph
//! distance. The visibility matrix is precomputed at map build time,
//! like a `.bsp` PVS lump.

use parquake_math::{Aabb, Vec3};

/// Index of a room in the grid (row-major).
pub type RoomId = u16;

/// Room connectivity and visibility for a grid-of-rooms map.
pub struct RoomGraph {
    grid_w: u16,
    grid_h: u16,
    /// Minimum corner of cell (0,0)'s interior.
    origin_x: f32,
    origin_y: f32,
    /// Distance between successive cell interiors (room + wall).
    pitch: f32,
    /// Room graph edges: `adj[room]` lists rooms joined by a door.
    adj: Vec<Vec<RoomId>>,
    /// Bit-matrix of room-to-room visibility.
    vis: Vec<u64>,
    words_per_row: usize,
    bounds: Aabb,
}

impl RoomGraph {
    /// Build from grid geometry and the door list. `vis_depth` is the
    /// maximum door-graph distance at which rooms see each other.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid_w: u16,
        grid_h: u16,
        origin_x: f32,
        origin_y: f32,
        pitch: f32,
        doors: &[(RoomId, RoomId)],
        vis_depth: u32,
        bounds: Aabb,
    ) -> RoomGraph {
        let n = grid_w as usize * grid_h as usize;
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in doors {
            assert!(
                (a as usize) < n && (b as usize) < n && a != b,
                "bad door {a}-{b}"
            );
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let words_per_row = n.div_ceil(64);
        let mut g = RoomGraph {
            grid_w,
            grid_h,
            origin_x,
            origin_y,
            pitch,
            adj,
            vis: vec![0; n * words_per_row],
            words_per_row,
            bounds,
        };
        g.compute_vis(vis_depth);
        g
    }

    /// A trivial graph with one room spanning `bounds` (for tests and
    /// single-arena maps): everything sees everything.
    pub fn single_room(bounds: Aabb) -> RoomGraph {
        let size = bounds.size();
        RoomGraph::new(
            1,
            1,
            bounds.min.x,
            bounds.min.y,
            size.x.max(size.y),
            &[],
            0,
            bounds,
        )
    }

    fn compute_vis(&mut self, depth: u32) {
        let n = self.room_count();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            queue.clear();
            dist[start] = 0;
            queue.push_back(start as RoomId);
            self.set_vis(start as RoomId, start as RoomId);
            while let Some(r) = queue.pop_front() {
                let d = dist[r as usize];
                if d >= depth {
                    continue;
                }
                for i in 0..self.adj[r as usize].len() {
                    let nb = self.adj[r as usize][i];
                    if dist[nb as usize] == u32::MAX {
                        dist[nb as usize] = d + 1;
                        self.set_vis(start as RoomId, nb);
                        queue.push_back(nb);
                    }
                }
            }
        }
    }

    fn set_vis(&mut self, a: RoomId, b: RoomId) {
        let row = a as usize * self.words_per_row;
        self.vis[row + b as usize / 64] |= 1u64 << (b as usize % 64);
        let row = b as usize * self.words_per_row;
        self.vis[row + a as usize / 64] |= 1u64 << (a as usize % 64);
    }

    #[inline]
    pub fn room_count(&self) -> usize {
        self.grid_w as usize * self.grid_h as usize
    }

    /// World bounds the graph covers.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Room id at grid cell `(cx, cy)`.
    #[inline]
    pub fn room_at(&self, cx: u16, cy: u16) -> RoomId {
        debug_assert!(cx < self.grid_w && cy < self.grid_h);
        cy * self.grid_w + cx
    }

    /// Grid cell of a room id.
    #[inline]
    pub fn cell_of(&self, room: RoomId) -> (u16, u16) {
        (room % self.grid_w, room / self.grid_w)
    }

    /// The room containing (or nearest to) a world position. Positions
    /// inside walls are attributed to the nearest cell, which is what
    /// reply visibility wants (a player brushing a wall is still "in"
    /// that room).
    pub fn room_of(&self, p: Vec3) -> RoomId {
        let fx = (p.x - self.origin_x) / self.pitch;
        let fy = (p.y - self.origin_y) / self.pitch;
        let cx = (fx.floor() as i64).clamp(0, self.grid_w as i64 - 1) as u16;
        let cy = (fy.floor() as i64).clamp(0, self.grid_h as i64 - 1) as u16;
        self.room_at(cx, cy)
    }

    /// Are two rooms mutually visible?
    #[inline]
    pub fn rooms_visible(&self, a: RoomId, b: RoomId) -> bool {
        let row = a as usize * self.words_per_row;
        self.vis[row + b as usize / 64] & (1u64 << (b as usize % 64)) != 0
    }

    /// Rooms adjacent through doors.
    pub fn neighbors(&self, room: RoomId) -> &[RoomId] {
        &self.adj[room as usize]
    }

    /// `room`'s row of the visibility matrix.
    #[inline]
    fn vis_row(&self, room: RoomId) -> &[u64] {
        let row = room as usize * self.words_per_row;
        &self.vis[row..row + self.words_per_row]
    }

    /// Number of rooms visible from `room` (including itself).
    pub fn visible_count(&self, room: RoomId) -> usize {
        self.vis_row(room)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The rooms visible from `room` (itself included), ascending.
    pub fn visible_rooms(&self, room: RoomId) -> impl Iterator<Item = RoomId> + '_ {
        self.vis_row(room)
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros();
                        rest &= rest - 1;
                        (w as u32 * 64 + bit) as RoomId
                    })
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::vec3::vec3;

    fn line_graph(n: u16) -> RoomGraph {
        // n rooms in a row, each joined to the next.
        let doors: Vec<(RoomId, RoomId)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let bounds = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(n as f32 * 100.0, 100.0, 100.0));
        RoomGraph::new(n, 1, 0.0, 0.0, 100.0, &doors, 2, bounds)
    }

    #[test]
    fn self_visibility_always_holds() {
        let g = line_graph(5);
        for r in 0..5 {
            assert!(g.rooms_visible(r, r));
        }
    }

    #[test]
    fn visibility_respects_depth() {
        let g = line_graph(6);
        assert!(g.rooms_visible(0, 1));
        assert!(g.rooms_visible(0, 2));
        assert!(!g.rooms_visible(0, 3));
        assert!(!g.rooms_visible(0, 5));
    }

    #[test]
    fn visibility_is_symmetric() {
        let g = line_graph(6);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(g.rooms_visible(a, b), g.rooms_visible(b, a));
            }
        }
    }

    #[test]
    fn visible_rooms_lists_the_pvs_row_ascending() {
        // 70 rooms: the row spans two words.
        for g in [line_graph(6), line_graph(70)] {
            let n = g.room_count() as RoomId;
            for a in 0..n {
                let seen: Vec<RoomId> = g.visible_rooms(a).collect();
                assert!(seen.windows(2).all(|p| p[0] < p[1]), "room {a}: {seen:?}");
                assert!(seen.contains(&a), "room {a} does not see itself");
                assert_eq!(seen.len(), g.visible_count(a));
                for b in 0..n {
                    assert_eq!(seen.contains(&b), g.rooms_visible(a, b), "{a} -> {b}");
                    // Symmetric: b lists a exactly when a lists b.
                    assert_eq!(seen.contains(&b), g.visible_rooms(b).any(|r| r == a));
                }
            }
        }
    }

    #[test]
    fn room_of_maps_grid_positions() {
        let g = line_graph(4);
        assert_eq!(g.room_of(vec3(50.0, 50.0, 0.0)), 0);
        assert_eq!(g.room_of(vec3(150.0, 50.0, 0.0)), 1);
        assert_eq!(g.room_of(vec3(399.0, 50.0, 0.0)), 3);
        // Out-of-bounds clamps to the nearest cell.
        assert_eq!(g.room_of(vec3(-10.0, 0.0, 0.0)), 0);
        assert_eq!(g.room_of(vec3(1000.0, 0.0, 0.0)), 3);
    }

    #[test]
    fn single_room_sees_itself_everywhere() {
        let bounds = Aabb::new(vec3(-100.0, -100.0, 0.0), vec3(100.0, 100.0, 100.0));
        let g = RoomGraph::single_room(bounds);
        assert_eq!(g.room_count(), 1);
        let corners = [vec3(-90.0, -90.0, 0.0), vec3(90.0, 90.0, 0.0)].map(|p| g.room_of(p));
        assert_eq!(corners, [0, 0]);
        assert_eq!(g.visible_rooms(0).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn disconnected_rooms_are_invisible() {
        let bounds = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(200.0, 100.0, 100.0));
        let g = RoomGraph::new(2, 1, 0.0, 0.0, 100.0, &[], 2, bounds);
        assert!(!g.rooms_visible(0, 1));
    }

    #[test]
    fn grid_room_ids_roundtrip() {
        let bounds = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(300.0, 200.0, 100.0));
        let g = RoomGraph::new(3, 2, 0.0, 0.0, 100.0, &[], 1, bounds);
        for cy in 0..2 {
            for cx in 0..3 {
                let r = g.room_at(cx, cy);
                assert_eq!(g.cell_of(r), (cx, cy));
            }
        }
    }

    #[test]
    fn visible_count_matches_manual() {
        let g = line_graph(6);
        // Room 2 sees 0,1,2,3,4 (depth 2 both ways).
        assert_eq!(g.visible_count(2), 5);
        // Room 0 sees 0,1,2.
        assert_eq!(g.visible_count(0), 3);
    }
}
