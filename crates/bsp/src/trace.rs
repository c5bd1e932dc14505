//! Swept traces through a compiled BSP tree.
//!
//! This is a faithful port of the original server's recursive hull check
//! (`SV_RecursiveHullCheck`): walk the segment through the tree near side
//! first, split it at crossed planes (backed off by `DIST_EPSILON`), and
//! record the first transition from empty into solid as the impact.
//! Because each clip hull was compiled from Minkowski-inflated brushes,
//! tracing a *point* through the hull is an exact swept-box query.

use crate::tree::{BspTree, Contents, NodeRef};
use parquake_math::{clampf, Aabb, Plane, Vec3, DIST_EPSILON};

/// Result of a trace through the world.
#[derive(Clone, Copy, Debug)]
pub struct Trace {
    /// Fraction of the motion completed before impact (1.0 = no impact).
    pub fraction: f32,
    /// Final position of the trace origin.
    pub end: Vec3,
    /// Plane that stopped the trace. Only meaningful if `fraction < 1`.
    pub plane: Plane,
    /// The start point was inside solid.
    pub start_solid: bool,
    /// The entire segment was inside solid.
    pub all_solid: bool,
    /// Number of BSP nodes visited (work metric for the cost model).
    pub steps: u32,
}

impl Trace {
    fn fresh(end: Vec3) -> Trace {
        Trace {
            fraction: 1.0,
            end,
            plane: Plane::new(Vec3::UP, 0.0),
            start_solid: false,
            all_solid: true,
            steps: 0,
        }
    }

    /// Did the trace hit anything?
    #[inline]
    pub fn hit(&self) -> bool {
        self.fraction < 1.0
    }
}

/// Where the traces of one move start: the deepest node whose half-space
/// chain holds the whole `reach` box. Every ancestor's plane has the box
/// wholly on one side, so a segment inside the box walks root → `node`
/// without a split and a trace may begin at `node` instead — with
/// `depth` added back to [`Trace::steps`], the walk it skipped.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    reach: Aabb,
    node: NodeRef,
    depth: u32,
}

impl Anchor {
    /// Levels of the tree a trace begun here does not walk.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

impl BspTree {
    /// Descend from the root while `reach` lies wholly on one side.
    pub fn anchor_for(&self, reach: &Aabb) -> Anchor {
        let mut node = self.root();
        let mut depth = 0;
        while let NodeRef::Node(idx) = node {
            let n = self.node(idx);
            // The very comparisons `recursive_check` makes per endpoint.
            node = if n.plane.point_dist(reach.min) >= 0.0 {
                n.front
            } else if n.plane.point_dist(reach.max) < 0.0 {
                n.back
            } else {
                break;
            };
            depth += 1;
        }
        Anchor {
            reach: *reach,
            node,
            depth,
        }
    }

    /// The anchor every segment may start from: the root itself.
    fn root_anchor(&self) -> Anchor {
        Anchor {
            reach: Aabb {
                min: Vec3::splat(f32::NEG_INFINITY),
                max: Vec3::splat(f32::INFINITY),
            },
            node: self.root(),
            depth: 0,
        }
    }

    /// Trace from `start` to `end`; see [`Trace`].
    pub fn trace(&self, start: Vec3, end: Vec3) -> Trace {
        self.trace_under(&self.root_anchor(), start, end)
    }

    /// [`BspTree::trace`], begun at `anchor` when the segment lies in
    /// its reach box and at the root when it does not. Equal to `trace`
    /// field for field, `steps` included.
    pub fn trace_from(&self, anchor: &Anchor, start: Vec3, end: Vec3) -> Trace {
        if anchor.reach.contains_point(start) && anchor.reach.contains_point(end) {
            self.trace_under(anchor, start, end)
        } else {
            self.trace(start, end)
        }
    }

    fn trace_under(&self, top: &Anchor, start: Vec3, end: Vec3) -> Trace {
        let mut tr = Trace::fresh(end);
        if matches!(self.root(), NodeRef::Leaf(Contents::Empty)) {
            tr.all_solid = false;
            return tr;
        }
        self.recursive_check(top, top.node, 0.0, 1.0, start, end, &mut tr);
        tr.steps += top.depth;
        if tr.fraction == 1.0 {
            tr.end = end;
        }
        if tr.all_solid {
            // Entire segment in solid: no progress possible.
            tr.start_solid = true;
            tr.fraction = 0.0;
            tr.end = start;
        }
        tr
    }

    /// Contents at `p`, walked from `top` when `p` is in its reach box
    /// (the walk from the root passes through `top.node` then).
    fn contents_under(&self, top: &Anchor, p: Vec3) -> Contents {
        if top.reach.contains_point(p) {
            self.contents_from(top.node, p)
        } else {
            self.contents(p)
        }
    }

    /// Returns `false` once the trace has been stopped by an impact.
    #[allow(clippy::too_many_arguments)]
    fn recursive_check(
        &self,
        top: &Anchor,
        num: NodeRef,
        p1f: f32,
        p2f: f32,
        p1: Vec3,
        p2: Vec3,
        tr: &mut Trace,
    ) -> bool {
        tr.steps += 1;
        let idx = match num {
            NodeRef::Leaf(Contents::Solid) => {
                tr.start_solid = true;
                return true; // keep scanning; caller detects transition
            }
            // Water volumes live in a separate tree and never appear in
            // clip hulls; treat them as open if they ever do.
            NodeRef::Leaf(Contents::Empty) | NodeRef::Leaf(Contents::Water) => {
                tr.all_solid = false;
                return true;
            }
            NodeRef::Node(i) => i,
        };
        let node = *self.node(idx);
        let t1 = node.plane.point_dist(p1);
        let t2 = node.plane.point_dist(p2);

        if t1 >= 0.0 && t2 >= 0.0 {
            return self.recursive_check(top, node.front, p1f, p2f, p1, p2, tr);
        }
        if t1 < 0.0 && t2 < 0.0 {
            return self.recursive_check(top, node.back, p1f, p2f, p1, p2, tr);
        }

        // The segment crosses the plane; split it, keeping DIST_EPSILON
        // on the near side so the mid point is clearly off the plane.
        let frac = if t1 < 0.0 {
            (t1 + DIST_EPSILON) / (t1 - t2)
        } else {
            (t1 - DIST_EPSILON) / (t1 - t2)
        };
        let frac = clampf(frac, 0.0, 1.0);
        let mut midf = p1f + (p2f - p1f) * frac;
        let mut mid = p1.lerp(p2, frac);
        let (near, far) = if t1 < 0.0 {
            (node.back, node.front)
        } else {
            (node.front, node.back)
        };

        // Move up to the plane.
        if !self.recursive_check(top, near, p1f, midf, p1, mid, tr) {
            return false;
        }

        // If the far side at the crossing point is not solid, continue.
        if self.contents_from(far, mid) != Contents::Solid {
            return self.recursive_check(top, far, midf, p2f, mid, p2, tr);
        }

        if tr.all_solid {
            return false; // never got out of the solid area
        }

        // The far side is solid: this is the impact point.
        tr.plane = if t1 >= 0.0 {
            Plane::from(node.plane)
        } else {
            let p = Plane::from(node.plane);
            Plane {
                normal: -p.normal,
                dist: -p.dist,
            }
        };

        // Occasionally the backed-off mid point is still inside solid
        // due to accumulated error; walk it back further.
        let mut f = frac;
        while self.contents_under(top, mid) == Contents::Solid {
            f -= 0.1;
            if f < 0.0 {
                tr.fraction = midf;
                tr.end = mid;
                return false;
            }
            midf = p1f + (p2f - p1f) * f;
            mid = p1.lerp(p2, f);
        }

        tr.fraction = midf;
        tr.end = mid;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brush::Brush;
    use parquake_math::vec3::vec3;

    fn slab_world() -> BspTree {
        // A floor slab z ∈ [-10, 0] spanning x,y ∈ [-100, 100].
        let brushes = [Brush::solid(Aabb::new(
            vec3(-100.0, -100.0, -10.0),
            vec3(100.0, 100.0, 0.0),
        ))];
        BspTree::compile(
            &brushes,
            Aabb::new(vec3(-100.0, -100.0, -100.0), vec3(100.0, 100.0, 100.0)),
            Vec3::ZERO,
            Vec3::ZERO,
        )
    }

    #[test]
    fn falling_trace_lands_on_slab() {
        let t = slab_world();
        let tr = t.trace(vec3(0.0, 0.0, 50.0), vec3(0.0, 0.0, -50.0));
        assert!(tr.hit());
        assert!((tr.fraction - 0.5).abs() < 0.01, "fraction {}", tr.fraction);
        assert!(tr.end.z >= 0.0 && tr.end.z < 0.5, "end {:?}", tr.end);
        // Hit plane faces up.
        assert!((tr.plane.normal - Vec3::UP).length() < 1e-5);
    }

    #[test]
    fn rising_trace_hits_slab_from_below() {
        let t = slab_world();
        let tr = t.trace(vec3(0.0, 0.0, -50.0), vec3(0.0, 0.0, 30.0));
        assert!(tr.hit());
        assert!(tr.end.z <= -10.0 && tr.end.z > -10.5, "end {:?}", tr.end);
        // Hit plane faces down.
        assert!((tr.plane.normal + Vec3::UP).length() < 1e-5);
    }

    #[test]
    fn horizontal_trace_above_slab_is_clear() {
        let t = slab_world();
        let tr = t.trace(vec3(-50.0, 0.0, 10.0), vec3(50.0, 0.0, 10.0));
        assert!(!tr.hit());
        assert_eq!(tr.fraction, 1.0);
        assert!(!tr.start_solid);
    }

    #[test]
    fn trace_starting_in_solid_flags_start_solid() {
        let t = slab_world();
        let tr = t.trace(vec3(0.0, 0.0, -5.0), vec3(0.0, 0.0, 50.0));
        assert!(tr.start_solid);
    }

    #[test]
    fn all_solid_trace_makes_no_progress() {
        let t = slab_world();
        let tr = t.trace(vec3(0.0, 0.0, -5.0), vec3(10.0, 0.0, -5.0));
        assert!(tr.all_solid);
        assert_eq!(tr.fraction, 0.0);
        assert_eq!(tr.end, vec3(0.0, 0.0, -5.0));
    }

    #[test]
    fn grazing_trace_along_face_does_not_snag() {
        let t = slab_world();
        // Slide exactly DIST_EPSILON above the top face.
        let z = DIST_EPSILON * 2.0;
        let tr = t.trace(vec3(-50.0, 0.0, z), vec3(50.0, 0.0, z));
        assert!(!tr.hit(), "fraction {}", tr.fraction);
    }

    #[test]
    fn end_point_is_never_in_solid() {
        let t = slab_world();
        for i in 0..100 {
            let a = vec3((i as f32) * 1.7 - 80.0, (i as f32) * 0.9 - 40.0, 60.0);
            let b = vec3(-(i as f32) * 1.3 + 60.0, (i as f32) * 1.1 - 50.0, -60.0);
            let tr = t.trace(a, b);
            if !tr.start_solid {
                assert_ne!(
                    t.contents(tr.end),
                    Contents::Solid,
                    "i={i} end={:?}",
                    tr.end
                );
            }
        }
    }

    #[test]
    fn steps_counter_increments() {
        let t = slab_world();
        let tr = t.trace(vec3(0.0, 0.0, 50.0), vec3(0.0, 0.0, -50.0));
        assert!(tr.steps > 0);
    }
}
