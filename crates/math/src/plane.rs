//! Splitting planes.
//!
//! Two flavours are used by the substrates:
//!
//! * [`AxisPlane`] — axis-aligned planes. The areanode tree only ever
//!   splits along X or Y (paper §2.2), and our brush-based BSP compiler
//!   emits axis-aligned planes for all world geometry.
//! * [`Plane`] — general planes kept for hitscan/projectile clipping and
//!   future non-axis-aligned geometry.

use crate::aabb::Aabb;
use crate::vec3::{vec3, Vec3};

/// A coordinate axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    X = 0,
    Y = 1,
    Z = 2,
}

impl Axis {
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The next horizontal axis, alternating X → Y → X, as the areanode
    /// builder does at successive depths.
    #[inline]
    pub fn next_horizontal(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
            Axis::Z => Axis::X,
        }
    }
}

/// Which side of a plane something is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Entirely on the positive (front) side.
    Front,
    /// Entirely on the negative (back) side.
    Back,
    /// Crossing the plane.
    Both,
}

/// An axis-aligned plane `point[axis] == dist`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AxisPlane {
    pub axis: Axis,
    pub dist: f32,
}

impl AxisPlane {
    #[inline]
    pub fn new(axis: Axis, dist: f32) -> Self {
        AxisPlane { axis, dist }
    }

    /// Signed distance of a point from the plane (positive = front).
    #[inline]
    pub fn point_dist(&self, p: Vec3) -> f32 {
        p[self.axis.index()] - self.dist
    }

    /// Classify a box against the plane.
    #[inline]
    pub fn box_side(&self, b: &Aabb) -> Side {
        let i = self.axis.index();
        if b.min[i] > self.dist {
            Side::Front
        } else if b.max[i] < self.dist {
            Side::Back
        } else {
            Side::Both
        }
    }
}

/// A general plane `normal · p == dist` with unit normal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plane {
    pub normal: Vec3,
    pub dist: f32,
}

impl Plane {
    #[inline]
    pub fn new(normal: Vec3, dist: f32) -> Self {
        debug_assert!((normal.length() - 1.0).abs() < 1e-4, "non-unit normal");
        Plane { normal, dist }
    }

    /// Plane with the given axis-aligned normal direction.
    #[inline]
    pub fn axis_aligned(axis: Axis, positive: bool, dist: f32) -> Plane {
        let mut n = Vec3::ZERO;
        n[axis.index()] = if positive { 1.0 } else { -1.0 };
        Plane {
            normal: n,
            dist: if positive { dist } else { -dist },
        }
    }

    /// Plane through a point with the given unit normal.
    #[inline]
    pub fn through(point: Vec3, normal: Vec3) -> Plane {
        Plane::new(normal, normal.dot(point))
    }

    /// Signed distance of a point from the plane.
    #[inline]
    pub fn point_dist(&self, p: Vec3) -> f32 {
        self.normal.dot(p) - self.dist
    }

    /// Classify a box against the plane using the box's projected radius
    /// (the standard `BoxOnPlaneSide` computation).
    pub fn box_side(&self, b: &Aabb) -> Side {
        let c = b.center();
        let h = b.half_extents();
        let r = h.x * self.normal.x.abs() + h.y * self.normal.y.abs() + h.z * self.normal.z.abs();
        let d = self.point_dist(c);
        if d > r {
            Side::Front
        } else if d < -r {
            Side::Back
        } else {
            Side::Both
        }
    }

    /// Reflect (clip) a velocity off the plane with `overbounce` factor
    /// (1.0 = slide, 2.0 = full bounce) — Quake's `ClipVelocity`.
    pub fn clip_velocity(&self, v: Vec3, overbounce: f32) -> Vec3 {
        let backoff = v.dot(self.normal) * overbounce;
        let mut out = v - self.normal * backoff;
        // Kill tiny residuals so sliding along walls doesn't jitter.
        for i in 0..3 {
            if out[i].abs() < 0.1 {
                out[i] = 0.0;
            }
        }
        out
    }
}

impl From<AxisPlane> for Plane {
    fn from(ap: AxisPlane) -> Plane {
        Plane::axis_aligned(ap.axis, true, ap.dist)
    }
}

/// Convenience: the floor plane `z == dist`.
pub fn floor_plane(dist: f32) -> Plane {
    Plane::new(vec3(0.0, 0.0, 1.0), dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_alternation() {
        assert_eq!(Axis::X.next_horizontal(), Axis::Y);
        assert_eq!(Axis::Y.next_horizontal(), Axis::X);
        assert_eq!(Axis::Z.next_horizontal(), Axis::X);
    }

    #[test]
    fn axis_plane_point_distance() {
        let p = AxisPlane::new(Axis::Y, 10.0);
        assert_eq!(p.point_dist(vec3(0.0, 15.0, 0.0)), 5.0);
        assert_eq!(p.point_dist(vec3(0.0, 5.0, 0.0)), -5.0);
    }

    #[test]
    fn axis_plane_box_side() {
        let p = AxisPlane::new(Axis::X, 0.0);
        let front = Aabb::new(vec3(1.0, 0.0, 0.0), vec3(2.0, 1.0, 1.0));
        let back = Aabb::new(vec3(-2.0, 0.0, 0.0), vec3(-1.0, 1.0, 1.0));
        let both = Aabb::new(vec3(-1.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        assert_eq!(p.box_side(&front), Side::Front);
        assert_eq!(p.box_side(&back), Side::Back);
        assert_eq!(p.box_side(&both), Side::Both);
    }

    #[test]
    fn general_plane_box_side_diagonal() {
        let n = vec3(1.0, 1.0, 0.0).normalized();
        let p = Plane::new(n, 0.0);
        let b = Aabb::centered(vec3(10.0, 10.0, 0.0), Vec3::splat(1.0));
        assert_eq!(p.box_side(&b), Side::Front);
        let b2 = Aabb::centered(vec3(-10.0, -10.0, 0.0), Vec3::splat(1.0));
        assert_eq!(p.box_side(&b2), Side::Back);
        let b3 = Aabb::centered(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(p.box_side(&b3), Side::Both);
    }

    #[test]
    fn clip_velocity_slide_removes_normal_component() {
        let p = floor_plane(0.0);
        let v = vec3(10.0, 0.0, -10.0);
        let clipped = p.clip_velocity(v, 1.0);
        assert_eq!(clipped, vec3(10.0, 0.0, 0.0));
    }

    #[test]
    fn clip_velocity_bounce_reverses_normal_component() {
        let p = floor_plane(0.0);
        let v = vec3(0.0, 0.0, -10.0);
        let bounced = p.clip_velocity(v, 2.0);
        assert_eq!(bounced, vec3(0.0, 0.0, 10.0));
    }

    #[test]
    fn through_point() {
        let p = Plane::through(vec3(0.0, 0.0, 5.0), Vec3::UP);
        assert_eq!(p.point_dist(vec3(3.0, 4.0, 5.0)), 0.0);
        assert_eq!(p.point_dist(vec3(0.0, 0.0, 8.0)), 3.0);
    }
}
