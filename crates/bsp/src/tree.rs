//! BSP compilation and point-contents queries.
//!
//! The compiler recursively partitions the world volume with axis-aligned
//! planes chosen from brush faces until every leaf region is entirely
//! solid or entirely empty. Because brushes are axis-aligned boxes this
//! classification is exact: a region with no brush face strictly inside
//! it is either fully covered by some intersecting brush (solid) or
//! intersects no brush at all (empty).
//!
//! A node scores every candidate face with `3·crossing + |front − back|`
//! over its live brushes and splits on the first lowest score. The scores
//! come from the live brushes' faces sorted once per node and axis, so a
//! node with `n` live brushes costs O(n log n), not the O(6n²) of a pass
//! over every brush per candidate; the test module keeps that pass as
//! the reference the trees must match node for node.
//!
//! One tree is compiled per clip hull (point / player / projectile) from
//! brushes inflated by the hull's Minkowski extents, mirroring Quake's
//! hull scheme so swept-box traces reduce to point traces.

use crate::brush::Brush;
use parquake_math::{Aabb, Axis, AxisPlane, Vec3};

/// Leaf classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contents {
    Empty,
    Solid,
    /// Swimmable liquid (separate water tree; never blocks traces).
    Water,
}

/// Reference to a child: an interior node index or a leaf.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeRef {
    Node(u32),
    Leaf(Contents),
}

/// An interior BSP node: an axis plane and two children.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    pub plane: AxisPlane,
    /// Child for points with `p[axis] >= dist`.
    pub front: NodeRef,
    /// Child for points with `p[axis] < dist`.
    pub back: NodeRef,
}

/// A compiled BSP tree over one clip hull.
pub struct BspTree {
    nodes: Vec<Node>,
    root: NodeRef,
    /// The region the tree was compiled over.
    pub bounds: Aabb,
}

/// Candidate planes closer than this to a region face are ignored, to
/// avoid degenerate slivers from floating-point face alignment.
const FACE_EPS: f32 = 1e-3;

impl BspTree {
    /// Compile a tree for a hull with box extents `[mins, maxs]` relative
    /// to the traced origin (zero for the point hull). Brushes are
    /// inflated by the hull before partitioning.
    pub fn compile(brushes: &[Brush], bounds: Aabb, mins: Vec3, maxs: Vec3) -> BspTree {
        Self::compile_filtered(
            brushes,
            bounds,
            mins,
            maxs,
            |b| b.is_collidable(),
            Contents::Solid,
        )
    }

    /// Compile a tree over the water volumes only: a point query that
    /// answers "is this position submerged?".
    pub fn compile_water(brushes: &[Brush], bounds: Aabb) -> BspTree {
        Self::compile_filtered(
            brushes,
            bounds,
            Vec3::ZERO,
            Vec3::ZERO,
            |b| b.is_water(),
            Contents::Water,
        )
    }

    fn compile_filtered(
        brushes: &[Brush],
        bounds: Aabb,
        mins: Vec3,
        maxs: Vec3,
        keep: impl Fn(&Brush) -> bool,
        fill: Contents,
    ) -> BspTree {
        let inflated: Vec<Aabb> = brushes
            .iter()
            .filter(|b| keep(b))
            .map(|b| b.inflated_for_hull(mins, maxs).bounds)
            .collect();
        // The compile region must cover the inflated brushes so that
        // geometry near the world boundary keeps its outer faces.
        let region = inflated
            .iter()
            .fold(bounds, |acc, b| acc.union(b))
            .inflated(Vec3::splat(1.0));
        let mut nodes = Vec::new();
        let mut faces = Default::default();
        let refs: Vec<usize> = (0..inflated.len()).collect();
        let root = build(&mut nodes, &inflated, &mut faces, refs, region, fill);
        BspTree {
            nodes,
            root,
            bounds,
        }
    }

    /// Number of interior nodes (compiler output size).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub(crate) fn root(&self) -> NodeRef {
        self.root
    }

    #[inline]
    pub(crate) fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    /// Contents of the tree at point `p`, starting from the root.
    #[inline]
    pub fn contents(&self, p: Vec3) -> Contents {
        self.contents_from(self.root, p)
    }

    /// Contents of the tree at point `p`, starting from `start`.
    pub(crate) fn contents_from(&self, start: NodeRef, p: Vec3) -> Contents {
        let mut cur = start;
        loop {
            match cur {
                NodeRef::Leaf(c) => return c,
                NodeRef::Node(idx) => {
                    let n = &self.nodes[idx as usize];
                    cur = if n.plane.point_dist(p) >= 0.0 {
                        n.front
                    } else {
                        n.back
                    };
                }
            }
        }
    }

    /// Maximum leaf depth (diagnostic).
    pub fn depth(&self) -> usize {
        fn rec(t: &BspTree, r: NodeRef) -> usize {
            match r {
                NodeRef::Leaf(_) => 0,
                NodeRef::Node(i) => {
                    let n = t.node(i);
                    1 + rec(t, n.front).max(rec(t, n.back))
                }
            }
        }
        rec(self, self.root)
    }
}

/// Recursively partition `region` over the brushes listed in `live`
/// (indices into `brushes`), appending interior nodes to `nodes`.
/// `faces` is scratch space shared by every node of one compile.
fn build(
    nodes: &mut Vec<Node>,
    brushes: &[Aabb],
    faces: &mut [AxisFaces; 3],
    live: Vec<usize>,
    region: Aabb,
    fill: Contents,
) -> NodeRef {
    // Keep only brushes that strictly overlap the region; touching
    // (zero-volume) overlap cannot make any interior point solid.
    let live: Vec<usize> = live
        .into_iter()
        .filter(|&i| strictly_overlaps(&brushes[i], &region))
        .collect();
    if live.is_empty() {
        return NodeRef::Leaf(Contents::Empty);
    }

    for (ai, f) in faces.iter_mut().enumerate() {
        f.fill(brushes, &live, ai);
    }
    // Candidate split planes: brush faces strictly inside the region,
    // in live order × X, Y, Z × min, max; the first lowest score wins.
    let mut best: Option<(AxisPlane, i64)> = None;
    for &i in &live {
        let b = &brushes[i];
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let ai = axis.index();
            for v in [b.min[ai], b.max[ai]] {
                if v > region.min[ai] + FACE_EPS && v < region.max[ai] - FACE_EPS {
                    let score = faces[ai].score(v);
                    if best.map(|(_, s)| score < s).unwrap_or(true) {
                        best = Some((AxisPlane::new(axis, v), score));
                    }
                }
            }
        }
    }

    let Some((plane, _)) = best else {
        // No face strictly inside: every live brush fully covers the
        // region (see module docs), so the whole region is filled.
        return NodeRef::Leaf(fill);
    };

    let ai = plane.axis.index();
    let mut front_region = region;
    front_region.min[ai] = plane.dist;
    let mut back_region = region;
    back_region.max[ai] = plane.dist;

    // Reserve our slot before recursing so parents precede children.
    let my_idx = nodes.len() as u32;
    nodes.push(Node {
        plane,
        front: NodeRef::Leaf(Contents::Empty),
        back: NodeRef::Leaf(Contents::Empty),
    });
    let front = build(nodes, brushes, faces, live.clone(), front_region, fill);
    let back = build(nodes, brushes, faces, live, back_region, fill);
    nodes[my_idx as usize].front = front;
    nodes[my_idx as usize].back = back;
    NodeRef::Node(my_idx)
}

#[inline]
fn strictly_overlaps(b: &Aabb, r: &Aabb) -> bool {
    (0..3).all(|i| b.min[i] < r.max[i] - FACE_EPS && b.max[i] > r.min[i] + FACE_EPS)
}

/// The live brushes' faces on one axis, each run sorted, so that a
/// candidate plane is scored with binary searches instead of a pass over
/// every brush.
#[derive(Default)]
struct AxisFaces {
    mins: Vec<f32>,
    maxs: Vec<f32>,
    /// The coordinate of each brush that is flat on this axis (min = max).
    flats: Vec<f32>,
}

impl AxisFaces {
    fn fill(&mut self, brushes: &[Aabb], live: &[usize], ai: usize) {
        self.mins.clear();
        self.maxs.clear();
        self.flats.clear();
        for &i in live {
            let (lo, hi) = (brushes[i].min[ai], brushes[i].max[ai]);
            self.mins.push(lo);
            self.maxs.push(hi);
            if lo == hi {
                self.flats.push(lo);
            }
        }
        // `total_cmp` orders -0.0 before 0.0, which `<` and `<=` treat as
        // equal, so both searches below still split each run in two.
        self.mins.sort_unstable_by(f32::total_cmp);
        self.maxs.sort_unstable_by(f32::total_cmp);
        self.flats.sort_unstable_by(f32::total_cmp);
    }

    /// Lower is better: penalize brushes crossing the plane at `v` (they
    /// go to both children) and imbalance between sides. A brush is in
    /// front if `min >= v`, else behind if `max <= v`, else crossing; so,
    /// as `min <= max`, only a brush flat at `v` meets both tests, and it
    /// counts in front.
    fn score(&self, v: f32) -> i64 {
        let below = |run: &[f32]| run.partition_point(|&x| x < v);
        let at_most = |run: &[f32]| run.partition_point(|&x| x <= v);
        let n = self.mins.len();
        let front = n - below(&self.mins);
        let flat_at_v = at_most(&self.flats) - below(&self.flats);
        let back = at_most(&self.maxs) - flat_at_v;
        let cross = (n - front - back) as i64;
        cross * 3 + (front as i64 - back as i64).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapgen::MapGenConfig;
    use crate::BspWorld;
    use parquake_math::vec3::vec3;
    use parquake_math::Pcg32;

    fn world(brushes: &[Brush]) -> BspTree {
        let bounds = Aabb::new(vec3(-100.0, -100.0, -100.0), vec3(100.0, 100.0, 100.0));
        BspTree::compile(brushes, bounds, Vec3::ZERO, Vec3::ZERO)
    }

    #[test]
    fn empty_world_is_all_empty() {
        let t = world(&[]);
        assert_eq!(t.contents(Vec3::ZERO), Contents::Empty);
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn single_brush_classification() {
        let t = world(&[Brush::solid(Aabb::new(
            vec3(-10.0, -10.0, -10.0),
            vec3(10.0, 10.0, 10.0),
        ))]);
        assert_eq!(t.contents(Vec3::ZERO), Contents::Solid);
        assert_eq!(t.contents(vec3(50.0, 0.0, 0.0)), Contents::Empty);
        assert_eq!(t.contents(vec3(0.0, 0.0, 11.0)), Contents::Empty);
        assert_eq!(t.contents(vec3(9.9, 9.9, 9.9)), Contents::Solid);
    }

    #[test]
    fn overlapping_brushes_union() {
        let t = world(&[
            Brush::solid(Aabb::new(vec3(-10.0, -10.0, -10.0), vec3(5.0, 10.0, 10.0))),
            Brush::solid(Aabb::new(vec3(0.0, -10.0, -10.0), vec3(15.0, 10.0, 10.0))),
        ]);
        assert_eq!(t.contents(vec3(2.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(t.contents(vec3(12.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(t.contents(vec3(20.0, 0.0, 0.0)), Contents::Empty);
    }

    #[test]
    fn disjoint_brushes() {
        let t = world(&[
            Brush::solid(Aabb::new(
                vec3(-50.0, -50.0, -50.0),
                vec3(-40.0, 50.0, 50.0),
            )),
            Brush::solid(Aabb::new(vec3(40.0, -50.0, -50.0), vec3(50.0, 50.0, 50.0))),
        ]);
        assert_eq!(t.contents(vec3(-45.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(t.contents(vec3(45.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(t.contents(Vec3::ZERO), Contents::Empty);
    }

    #[test]
    fn hull_inflation_extends_solid_region() {
        let brush = Brush::solid(Aabb::new(vec3(-10.0, -10.0, -10.0), vec3(10.0, 10.0, 10.0)));
        let bounds = Aabb::new(vec3(-100.0, -100.0, -100.0), vec3(100.0, 100.0, 100.0));
        let t = BspTree::compile(
            &[brush],
            bounds,
            vec3(-16.0, -16.0, -24.0),
            vec3(16.0, 16.0, 32.0),
        );
        // A player origin 20 units to the side would overlap the brush.
        assert_eq!(t.contents(vec3(20.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(t.contents(vec3(27.0, 0.0, 0.0)), Contents::Empty);
        // Standing on top: feet extend 24 below the origin.
        assert_eq!(t.contents(vec3(0.0, 0.0, 30.0)), Contents::Solid);
        assert_eq!(t.contents(vec3(0.0, 0.0, 35.0)), Contents::Empty);
    }

    #[test]
    fn brute_force_agreement_on_grid() {
        let brushes = vec![
            Brush::solid(Aabb::new(
                vec3(-30.0, -30.0, -30.0),
                vec3(-10.0, 30.0, 30.0),
            )),
            Brush::solid(Aabb::new(vec3(10.0, -30.0, -5.0), vec3(30.0, 30.0, 30.0))),
            Brush::solid(Aabb::new(
                vec3(-30.0, -30.0, -30.0),
                vec3(30.0, -20.0, 30.0),
            )),
        ];
        let t = world(&brushes);
        let mut checked = 0;
        for xi in -6..=6 {
            for yi in -6..=6 {
                for zi in -6..=6 {
                    let p = vec3(xi as f32 * 7.3, yi as f32 * 7.3, zi as f32 * 7.3);
                    let brute = brushes
                        .iter()
                        .any(|b| b.bounds.contains_point(p) && interior(&b.bounds, p));
                    let got = t.contents(p) == Contents::Solid;
                    // Skip points exactly on faces where both answers are
                    // acceptable.
                    if on_any_face(&brushes, p) {
                        continue;
                    }
                    assert_eq!(got, brute, "at {p:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000);
    }

    fn interior(b: &Aabb, p: Vec3) -> bool {
        (0..3).all(|i| p[i] > b.min[i] && p[i] < b.max[i])
    }

    fn on_any_face(brushes: &[Brush], p: Vec3) -> bool {
        brushes.iter().any(|b| {
            (0..3).any(|i| {
                (p[i] - b.bounds.min[i]).abs() < 1e-3 || (p[i] - b.bounds.max[i]).abs() < 1e-3
            })
        })
    }

    /// The compiler as it was before planes were scored from sorted
    /// faces: every candidate rescored by a pass over every live brush.
    fn reference_build(
        nodes: &mut Vec<Node>,
        brushes: &[Aabb],
        live: Vec<usize>,
        region: Aabb,
    ) -> NodeRef {
        let live: Vec<usize> = live
            .into_iter()
            .filter(|&i| strictly_overlaps(&brushes[i], &region))
            .collect();
        if live.is_empty() {
            return NodeRef::Leaf(Contents::Empty);
        }
        let mut best: Option<(AxisPlane, i64)> = None;
        for &i in &live {
            let b = &brushes[i];
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                let ai = axis.index();
                for v in [b.min[ai], b.max[ai]] {
                    if v > region.min[ai] + FACE_EPS && v < region.max[ai] - FACE_EPS {
                        let plane = AxisPlane::new(axis, v);
                        let score = score_plane(&plane, brushes, &live);
                        if best.map(|(_, s)| score < s).unwrap_or(true) {
                            best = Some((plane, score));
                        }
                    }
                }
            }
        }
        let Some((plane, _)) = best else {
            return NodeRef::Leaf(Contents::Solid);
        };
        let ai = plane.axis.index();
        let mut front_region = region;
        front_region.min[ai] = plane.dist;
        let mut back_region = region;
        back_region.max[ai] = plane.dist;
        let my_idx = nodes.len() as u32;
        nodes.push(Node {
            plane,
            front: NodeRef::Leaf(Contents::Empty),
            back: NodeRef::Leaf(Contents::Empty),
        });
        let front = reference_build(nodes, brushes, live.clone(), front_region);
        let back = reference_build(nodes, brushes, live, back_region);
        nodes[my_idx as usize].front = front;
        nodes[my_idx as usize].back = back;
        NodeRef::Node(my_idx)
    }

    fn score_plane(plane: &AxisPlane, brushes: &[Aabb], live: &[usize]) -> i64 {
        let ai = plane.axis.index();
        let mut front = 0i64;
        let mut back = 0i64;
        let mut cross = 0i64;
        for &i in live {
            let b = &brushes[i];
            if b.min[ai] >= plane.dist {
                front += 1;
            } else if b.max[ai] <= plane.dist {
                back += 1;
            } else {
                cross += 1;
            }
        }
        cross * 3 + (front - back).abs()
    }

    /// Every node as `(axis, dist bits, front, back)`, plus the root.
    fn shape(nodes: &[Node], root: NodeRef) -> (NodeRef, Vec<(usize, u32, NodeRef, NodeRef)>) {
        let rows = nodes
            .iter()
            .map(|n| {
                (
                    n.plane.axis.index(),
                    n.plane.dist.to_bits(),
                    n.front,
                    n.back,
                )
            })
            .collect();
        (root, rows)
    }

    /// A random box soup on a coarse grid, so that faces coincide and
    /// scores tie often, with flat boxes, duplicates and ±0.0 faces.
    fn box_soup(rng: &mut Pcg32) -> Vec<Aabb> {
        let coord = |rng: &mut Pcg32| match rng.below(8) {
            0 => -0.0,
            1 => 0.0,
            _ => (rng.below(9) as f32 - 4.0) * 8.0,
        };
        let mut boxes: Vec<Aabb> = Vec::new();
        for _ in 0..1 + rng.below(200) {
            if !boxes.is_empty() && rng.chance(0.1) {
                boxes.push(*rng.pick(&boxes));
                continue;
            }
            let mut min = Vec3::ZERO;
            let mut max = Vec3::ZERO;
            for ai in 0..3 {
                let (a, b) = (coord(rng), coord(rng));
                let flat = rng.chance(0.15);
                min[ai] = if flat || a <= b { a } else { b };
                max[ai] = if flat {
                    min[ai]
                } else if a <= b {
                    b
                } else {
                    a
                };
            }
            boxes.push(Aabb { min, max });
        }
        boxes
    }

    #[test]
    fn sorted_scoring_builds_the_reference_tree() {
        let mut rng = Pcg32::seeded(0xB5B);
        let cases = if cfg!(debug_assertions) { 300 } else { 3000 };
        for case in 0..cases {
            let boxes = box_soup(&mut rng);
            let region = Aabb::new(Vec3::splat(-40.0), Vec3::splat(40.0));
            let live: Vec<usize> = (0..boxes.len()).collect();
            let mut want = Vec::new();
            let want_root = reference_build(&mut want, &boxes, live.clone(), region);
            let mut got = Vec::new();
            let got_root = build(
                &mut got,
                &boxes,
                &mut Default::default(),
                live,
                region,
                Contents::Solid,
            );
            assert_eq!(
                shape(&got, got_root),
                shape(&want, want_root),
                "case {case}: {} boxes",
                boxes.len()
            );
        }
    }

    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fnv1a_child(hash: &mut u64, r: NodeRef) {
        match r {
            NodeRef::Node(i) => {
                fnv1a(hash, &[0]);
                fnv1a(hash, &i.to_le_bytes());
            }
            NodeRef::Leaf(c) => fnv1a(hash, &[1, c as u8]),
        }
    }

    /// FNV-1a over every node (axis, `dist` bits, children) of the four
    /// hulls.
    fn fingerprint(world: &BspWorld) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for t in [
            &world.hull_point,
            &world.hull_player,
            &world.hull_projectile,
            &world.hull_water,
        ] {
            fnv1a_child(&mut h, t.root);
            for n in &t.nodes {
                fnv1a(&mut h, &[n.plane.axis.index() as u8]);
                fnv1a(&mut h, &n.plane.dist.to_bits().to_le_bytes());
                fnv1a_child(&mut h, n.front);
                fnv1a_child(&mut h, n.back);
            }
        }
        h
    }

    /// The hulls of the maps the figures and the benchmark run on, as
    /// the brush-pass compiler built them.
    #[test]
    fn real_maps_compile_to_the_pinned_trees() {
        const SEED: u64 = 0x6D_6D_31;
        let mut maps = vec![
            (
                MapGenConfig {
                    grid_w: 18,
                    grid_h: 18,
                    items_per_room: 3,
                    teleporter_pairs: 8,
                    ..MapGenConfig::large_arena(SEED)
                },
                0x5087_bfb0_be31_a8d9,
            ),
            (MapGenConfig::large_arena(SEED), 0xf06e_6391_a486_54dd),
            (MapGenConfig::small_arena(SEED), 0xf0dd_d51d_5d86_c5e9),
            (MapGenConfig::flooded_arena(SEED), 0x0be2_d71b_781b_633e),
        ];
        let per_seed: [[u64; 3]; 5] = [
            [
                0x4d83_8c31_8d09_852a,
                0xcf11_073b_be8f_cf52,
                0xe712_0578_288d_73e7,
            ],
            [
                0x4d83_8c31_8d09_852a,
                0x2c2c_0222_d5e3_b739,
                0x624b_9977_c611_0335,
            ],
            [
                0x4d83_8c31_8d09_852a,
                0x2121_f436_6d05_af4f,
                0x4792_318d_40d5_4cd9,
            ],
            [
                0x4d83_8c31_8d09_852a,
                0x5dce_2960_e99a_79b8,
                0x854d_a6ce_8d5d_8fe5,
            ],
            [
                0x4d83_8c31_8d09_852a,
                0x1c20_97da_0341_5b19,
                0xf6e6_4782_d4af_d167,
            ],
        ];
        for (seed, [hall, large, small]) in (0..).zip(per_seed) {
            maps.push((MapGenConfig::open_hall(seed), hall));
            maps.push((MapGenConfig::large_arena(seed), large));
            maps.push((MapGenConfig::small_arena(seed), small));
        }
        for (cfg, want) in maps {
            let world = cfg.generate();
            assert_eq!(fingerprint(&world), want, "{cfg:?}");
        }
    }

    #[test]
    fn depth_is_reasonable() {
        let mut brushes = Vec::new();
        for i in 0..20 {
            let x = -90.0 + i as f32 * 9.0;
            brushes.push(Brush::solid(Aabb::new(
                vec3(x, -90.0, -90.0),
                vec3(x + 4.0, 90.0, 90.0),
            )));
        }
        let t = world(&brushes);
        assert!(t.depth() <= 24, "depth = {}", t.depth());
    }
}
