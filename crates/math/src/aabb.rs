//! Axis-aligned bounding boxes and swept-box intersection.
//!
//! The reproduced server is built almost entirely on AABB reasoning: the
//! *bounding box of a move* defines which region of the world a request
//! may touch (paper §2.3), the areanode tree stores per-node AABBs, and
//! object/object collision during motion is a swept-AABB test.

use crate::vec3::{vec3, Vec3};
use crate::DIST_EPSILON;

/// An axis-aligned box given by its minimum and maximum corners.
///
/// An `Aabb` is *valid* when `min[i] <= max[i]` on every axis. A
/// degenerate box (`min == max`) is a point and still participates in
/// intersection tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// Construct from corners; debug-asserts validity.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "invalid Aabb: {min:?}..{max:?}"
        );
        Aabb { min, max }
    }

    /// The box covering a single point.
    #[inline]
    pub fn point(p: Vec3) -> Self {
        Aabb { min: p, max: p }
    }

    /// Box centred at `center` with half-extents `half`.
    #[inline]
    pub fn centered(center: Vec3, half: Vec3) -> Self {
        Aabb::new(center - half, center + half)
    }

    /// The smallest box containing both endpoints.
    #[inline]
    pub fn from_corners(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        self.size() * 0.5
    }

    /// Grow outward by `amount` on every axis (may be per-axis).
    #[inline]
    pub fn inflated(&self, amount: Vec3) -> Aabb {
        Aabb {
            min: self.min - amount,
            max: self.max + amount,
        }
    }

    /// Translate by `delta`.
    #[inline]
    pub fn translated(&self, delta: Vec3) -> Aabb {
        Aabb {
            min: self.min + delta,
            max: self.max + delta,
        }
    }

    /// Smallest box containing `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Closed-interval overlap test (touching boxes intersect).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True when `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// The bounding box of this box swept along `delta` — the "bounding
    /// box of a move" from paper §2.3.
    #[inline]
    pub fn swept(&self, delta: Vec3) -> Aabb {
        self.union(&self.translated(delta))
    }

    /// Volume of the box.
    #[inline]
    pub fn volume(&self) -> f32 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Sweep a moving box (`self`, moving by `delta`) against a static
    /// box. Returns the entry fraction `t ∈ [0, 1]` at which they first
    /// touch, or `None` if they never touch during the motion.
    ///
    /// If the boxes already overlap the result is `Some(0.0)`.
    pub fn sweep_hit(&self, delta: Vec3, target: &Aabb) -> Option<f32> {
        if self.intersects(target) {
            return Some(0.0);
        }
        let mut t_enter = 0.0f32;
        let mut t_exit = 1.0f32;
        for axis in 0..3 {
            let v = delta[axis];
            let (self_min, self_max) = (self.min[axis], self.max[axis]);
            let (tgt_min, tgt_max) = (target.min[axis], target.max[axis]);
            if v.abs() < 1e-12 {
                // No motion on this axis: must already overlap on it.
                if self_max < tgt_min || self_min > tgt_max {
                    return None;
                }
            } else {
                let inv = 1.0 / v;
                let mut t0 = (tgt_min - self_max) * inv;
                let mut t1 = (tgt_max - self_min) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_enter = t_enter.max(t0);
                t_exit = t_exit.min(t1);
                if t_enter > t_exit {
                    return None;
                }
            }
        }
        if t_enter > 1.0 {
            None
        } else {
            Some(t_enter.max(0.0))
        }
    }

    /// As [`Aabb::sweep_hit`], but also reports the outward unit normal
    /// of the face that was struck (the axis whose entry time dominated).
    ///
    /// Boxes that already overlap block only motion that deepens the
    /// penetration — towards the target's centre along the axis of
    /// least penetration — so an overlapping pair can always walk apart.
    pub fn sweep_hit_with_normal(&self, delta: Vec3, target: &Aabb) -> Option<(f32, Vec3)> {
        if self.intersects(target) {
            let mut best_axis = 0;
            let mut best_depth = f32::INFINITY;
            for axis in 0..3 {
                let depth = (self.max[axis].min(target.max[axis])
                    - self.min[axis].max(target.min[axis]))
                .abs();
                if depth < best_depth {
                    best_depth = depth;
                    best_axis = axis;
                }
            }
            // Twice the offset of the target's centre from ours.
            let toward = (target.min[best_axis] + target.max[best_axis])
                - (self.min[best_axis] + self.max[best_axis]);
            if delta[best_axis] * toward <= 0.0 {
                // Moving out, sliding along, or dead centre (any way is out).
                return None;
            }
            let mut n = Vec3::ZERO;
            n[best_axis] = if delta[best_axis] > 0.0 { -1.0 } else { 1.0 };
            return Some((0.0, n));
        }
        let mut t_enter = 0.0f32;
        let mut t_exit = 1.0f32;
        let mut enter_axis = 0usize;
        for axis in 0..3 {
            let v = delta[axis];
            let (self_min, self_max) = (self.min[axis], self.max[axis]);
            let (tgt_min, tgt_max) = (target.min[axis], target.max[axis]);
            if v.abs() < 1e-12 {
                if self_max < tgt_min || self_min > tgt_max {
                    return None;
                }
            } else {
                let inv = 1.0 / v;
                let mut t0 = (tgt_min - self_max) * inv;
                let mut t1 = (tgt_max - self_min) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                if t0 > t_enter {
                    t_enter = t0;
                    enter_axis = axis;
                }
                t_exit = t_exit.min(t1);
                if t_enter > t_exit {
                    return None;
                }
            }
        }
        if t_enter > 1.0 {
            return None;
        }
        let mut n = Vec3::ZERO;
        n[enter_axis] = if delta[enter_axis] > 0.0 { -1.0 } else { 1.0 };
        Some((t_enter.max(0.0), n))
    }

    /// Back a hit fraction off by the collision epsilon so the mover does
    /// not end up numerically inside the obstacle (Quake idiom).
    #[inline]
    pub fn backed_off(t: f32, delta_len: f32) -> f32 {
        if delta_len <= 1e-12 {
            return 0.0;
        }
        (t - DIST_EPSILON / delta_len).max(0.0)
    }
}

/// The standard player collision hull used by the simulation
/// (Quake's 32×32×56-unit "human" hull, feet at `-24`, eyes near the top).
pub fn player_hull() -> Aabb {
    Aabb::new(vec3(-16.0, -16.0, -24.0), vec3(16.0, 16.0, 32.0))
}

/// The pickup-item hull (Quake's 32×32×56 trigger volume, simplified).
pub fn item_hull() -> Aabb {
    Aabb::new(vec3(-16.0, -16.0, 0.0), vec3(16.0, 16.0, 56.0))
}

/// Small projectile hull.
pub fn projectile_hull() -> Aabb {
    Aabb::new(vec3(-4.0, -4.0, -4.0), vec3(4.0, 4.0, 4.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_at(p: Vec3) -> Aabb {
        Aabb::centered(p, Vec3::splat(0.5))
    }

    #[test]
    fn construction_and_accessors() {
        let b = Aabb::new(vec3(-1.0, -2.0, -3.0), vec3(1.0, 2.0, 3.0));
        assert_eq!(b.center(), Vec3::ZERO);
        assert_eq!(b.size(), vec3(2.0, 4.0, 6.0));
        assert_eq!(b.half_extents(), vec3(1.0, 2.0, 3.0));
        assert_eq!(b.volume(), 48.0);
    }

    #[test]
    fn from_corners_normalizes_order() {
        let b = Aabb::from_corners(vec3(1.0, -1.0, 5.0), vec3(-1.0, 1.0, 0.0));
        assert_eq!(b.min, vec3(-1.0, -1.0, 0.0));
        assert_eq!(b.max, vec3(1.0, 1.0, 5.0));
    }

    #[test]
    fn intersection_cases() {
        let a = unit_at(Vec3::ZERO);
        assert!(a.intersects(&unit_at(vec3(0.9, 0.0, 0.0))));
        // Touching faces count as intersecting (closed intervals).
        assert!(a.intersects(&unit_at(vec3(1.0, 0.0, 0.0))));
        assert!(!a.intersects(&unit_at(vec3(1.01, 0.0, 0.0))));
        assert!(!a.intersects(&unit_at(vec3(0.0, 0.0, 2.0))));
    }

    #[test]
    fn containment() {
        let big = Aabb::centered(Vec3::ZERO, Vec3::splat(2.0));
        let small = unit_at(vec3(0.5, 0.5, 0.5));
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains_point(vec3(2.0, 2.0, 2.0)));
        assert!(!big.contains_point(vec3(2.1, 0.0, 0.0)));
    }

    #[test]
    fn union_and_swept() {
        let a = unit_at(Vec3::ZERO);
        let sw = a.swept(vec3(10.0, 0.0, 0.0));
        assert_eq!(sw.min, vec3(-0.5, -0.5, -0.5));
        assert_eq!(sw.max, vec3(10.5, 0.5, 0.5));
        assert!(sw.contains(&a));
    }

    #[test]
    fn sweep_hit_head_on() {
        let mover = unit_at(Vec3::ZERO);
        let wall = unit_at(vec3(5.0, 0.0, 0.0));
        let t = mover.sweep_hit(vec3(10.0, 0.0, 0.0), &wall).unwrap();
        // Gap between faces is 4 units, motion is 10 units: t = 0.4.
        assert!((t - 0.4).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn sweep_hit_miss_parallel() {
        let mover = unit_at(Vec3::ZERO);
        let wall = unit_at(vec3(5.0, 3.0, 0.0)); // offset in y, no y motion
        assert!(mover.sweep_hit(vec3(10.0, 0.0, 0.0), &wall).is_none());
    }

    #[test]
    fn sweep_hit_already_overlapping() {
        let mover = unit_at(Vec3::ZERO);
        let other = unit_at(vec3(0.25, 0.0, 0.0));
        assert_eq!(mover.sweep_hit(vec3(1.0, 0.0, 0.0), &other), Some(0.0));
    }

    #[test]
    fn sweep_hit_short_motion_stops_before_target() {
        let mover = unit_at(Vec3::ZERO);
        let wall = unit_at(vec3(5.0, 0.0, 0.0));
        assert!(mover.sweep_hit(vec3(1.0, 0.0, 0.0), &wall).is_none());
    }

    #[test]
    fn sweep_hit_diagonal() {
        let mover = unit_at(Vec3::ZERO);
        let tgt = unit_at(vec3(4.0, 4.0, 0.0));
        let t = mover.sweep_hit(vec3(8.0, 8.0, 0.0), &tgt).unwrap();
        assert!((t - 3.0 / 8.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn sweep_hit_moving_away() {
        let mover = unit_at(Vec3::ZERO);
        let wall = unit_at(vec3(5.0, 0.0, 0.0));
        assert!(mover.sweep_hit(vec3(-10.0, 0.0, 0.0), &wall).is_none());
    }

    #[test]
    fn sweep_hit_with_normal_reports_face() {
        let mover = unit_at(Vec3::ZERO);
        let wall = unit_at(vec3(5.0, 0.0, 0.0));
        let (t, n) = mover
            .sweep_hit_with_normal(vec3(10.0, 0.0, 0.0), &wall)
            .unwrap();
        assert!((t - 0.4).abs() < 1e-6);
        assert_eq!(n, vec3(-1.0, 0.0, 0.0));
        // Falling onto a box from above: normal is up.
        let floor = Aabb::new(vec3(-10.0, -10.0, -2.0), vec3(10.0, 10.0, 0.0));
        let (_, n) = unit_at(vec3(0.0, 0.0, 5.0))
            .sweep_hit_with_normal(vec3(0.0, 0.0, -10.0), &floor)
            .unwrap();
        assert_eq!(n, vec3(0.0, 0.0, 1.0));
    }

    #[test]
    fn sweep_hit_with_normal_overlapping_pushes_back() {
        let mover = unit_at(Vec3::ZERO);
        let other = unit_at(vec3(0.25, 0.0, 0.0));
        let (t, n) = mover
            .sweep_hit_with_normal(vec3(1.0, 0.0, 0.0), &other)
            .unwrap();
        assert_eq!(t, 0.0);
        assert_eq!(n, vec3(-1.0, 0.0, 0.0));
    }

    #[test]
    fn overlapping_boxes_may_separate_or_slide_but_not_close_in() {
        let mover = unit_at(Vec3::ZERO);
        let other = unit_at(vec3(0.25, 0.1, 0.0));
        // Least penetration is on x (0.75 < 0.9 < 1): away is free …
        assert!(mover
            .sweep_hit_with_normal(vec3(-1.0, 0.0, 0.0), &other)
            .is_none());
        // … so is sliding along y or z, either way …
        for d in [
            vec3(0.0, 1.0, 0.0),
            vec3(0.0, -1.0, 0.0),
            vec3(0.0, 0.3, -1.0),
        ] {
            assert!(mover.sweep_hit_with_normal(d, &other).is_none(), "{d:?}");
        }
        // … closing in is not, however slightly.
        let (t, n) = mover
            .sweep_hit_with_normal(vec3(0.01, -1.0, 0.0), &other)
            .unwrap();
        assert_eq!((t, n), (0.0, vec3(-1.0, 0.0, 0.0)));
        // Dead centre: every direction leads out.
        assert!(mover
            .sweep_hit_with_normal(vec3(1.0, 0.0, 0.0), &mover)
            .is_none());
        // Touching faces (closed intervals intersect): pulling away from
        // contact is free, pushing into it is blocked.
        let wall = unit_at(vec3(1.0, 0.0, 0.0));
        assert!(mover
            .sweep_hit_with_normal(vec3(-1.0, 0.0, 0.0), &wall)
            .is_none());
        assert!(mover
            .sweep_hit_with_normal(vec3(1.0, 0.0, 0.0), &wall)
            .is_some());
    }

    #[test]
    fn standard_hulls_sane() {
        assert!(player_hull().contains_point(Vec3::ZERO));
        assert_eq!(player_hull().size(), vec3(32.0, 32.0, 56.0));
        assert!(projectile_hull().volume() < item_hull().volume());
    }

    #[test]
    fn backed_off_never_negative() {
        assert_eq!(Aabb::backed_off(0.0, 10.0), 0.0);
        assert!(Aabb::backed_off(0.5, 10.0) < 0.5);
        assert_eq!(Aabb::backed_off(0.5, 0.0), 0.0);
    }
}
