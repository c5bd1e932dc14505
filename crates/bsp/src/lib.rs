//! BSP world representation for `parquake`.
//!
//! The reproduced server keeps the 3D game world as a binary space
//! partition (paper §2.2): a tree whose leaves are convex regions marked
//! *solid* or *empty*, used for all collision queries during move
//! execution. The original shipped pre-compiled `.bsp` files; we build
//! the equivalent from scratch:
//!
//! * [`brush`] — axis-aligned solid brushes, the source geometry,
//! * [`tree`] — a BSP compiler turning brush soup into a query tree,
//! * [`trace`] — point-contents and swept-box (hull) traces,
//! * [`rooms`] — the room graph and potentially-visible-set used to
//!   scope server replies to what each client can see,
//! * [`mapgen`] — a deterministic procedural deathmatch-arena generator
//!   standing in for the paper's `gmdm10.bsp` map.
//!
//! A [`BspWorld`] bundles the compiled hulls (point, player, projectile —
//! mirroring Quake's fixed clip-hull scheme) with the room graph.

pub mod brush;
pub mod mapgen;
pub mod rooms;
pub mod trace;
pub mod tree;

pub use brush::Brush;
pub use trace::{Anchor, Trace};
pub use tree::{BspTree, Contents};

use parquake_math::{Aabb, Vec3};
use rooms::RoomGraph;

/// Which pre-compiled clip hull a trace should use. Quake compiled one
/// hull per collision-box size; traces then work on points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hull {
    /// Zero-extent hull.
    Point,
    /// The 32×32×56 player hull.
    Player,
    /// Small 8×8×8 projectile hull.
    Projectile,
}

/// A fully compiled world: solid geometry plus visibility structure.
pub struct BspWorld {
    /// World bounds (the volume the areanode tree will subdivide).
    pub bounds: Aabb,
    /// Source brushes (kept for debugging and for re-deriving hulls).
    pub brushes: Vec<Brush>,
    /// Point-sized clip hull.
    pub hull_point: BspTree,
    /// Player-sized clip hull (brushes inflated by the player box).
    pub hull_player: BspTree,
    /// Projectile-sized clip hull.
    pub hull_projectile: BspTree,
    /// Water-volume tree (point queries; water never blocks traces).
    pub hull_water: BspTree,
    /// Room connectivity and visibility.
    pub rooms: RoomGraph,
    /// Player spawn points (guaranteed to be in open space).
    pub spawn_points: Vec<Vec3>,
    /// Item spawn markers: position plus a generator class byte that the
    /// simulation maps onto concrete item kinds.
    pub item_spawns: Vec<ItemSpawn>,
    /// Teleporter pads: entering the pad at `.0` relocates to `.1`.
    pub teleporters: Vec<(Vec3, Vec3)>,
}

/// A generator-placed item marker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ItemSpawn {
    pub pos: Vec3,
    /// Generator class byte; the simulation maps this to an item kind.
    pub class: u8,
}

impl BspWorld {
    /// Compile a world from brush geometry. `bounds` must contain every
    /// brush; spawn/item metadata comes from the generator (or tests).
    pub fn compile(
        bounds: Aabb,
        brushes: Vec<Brush>,
        rooms: RoomGraph,
        spawn_points: Vec<Vec3>,
        item_spawns: Vec<ItemSpawn>,
        teleporters: Vec<(Vec3, Vec3)>,
    ) -> BspWorld {
        let hull_point = BspTree::compile(&brushes, bounds, Vec3::ZERO, Vec3::ZERO);
        let ph = parquake_math::aabb::player_hull();
        let hull_player = BspTree::compile(&brushes, bounds, ph.min, ph.max);
        let jh = parquake_math::aabb::projectile_hull();
        let hull_projectile = BspTree::compile(&brushes, bounds, jh.min, jh.max);
        let hull_water = BspTree::compile_water(&brushes, bounds);
        BspWorld {
            bounds,
            brushes,
            hull_point,
            hull_player,
            hull_projectile,
            hull_water,
            rooms,
            spawn_points,
            item_spawns,
            teleporters,
        }
    }

    /// Select a clip hull.
    #[inline]
    pub fn hull(&self, hull: Hull) -> &BspTree {
        match hull {
            Hull::Point => &self.hull_point,
            Hull::Player => &self.hull_player,
            Hull::Projectile => &self.hull_projectile,
        }
    }

    /// Trace a hull from `start` to `end` against world geometry.
    #[inline]
    pub fn trace(&self, hull: Hull, start: Vec3, end: Vec3) -> Trace {
        self.hull(hull).trace(start, end)
    }

    /// Contents of the world at a point: solid wins over water.
    #[inline]
    pub fn contents(&self, p: Vec3) -> Contents {
        match self.hull_point.contents(p) {
            Contents::Solid => Contents::Solid,
            _ => self.hull_water.contents(p),
        }
    }

    /// Is this point submerged (and not inside a wall)? Water is asked
    /// first: a dry map answers from the water tree's root leaf.
    #[inline]
    pub fn in_water(&self, p: Vec3) -> bool {
        self.hull_water.contents(p) == Contents::Water
            && self.hull_point.contents(p) != Contents::Solid
    }

    /// True when a player-sized box at `p` stands in open space.
    #[inline]
    pub fn player_fits(&self, p: Vec3) -> bool {
        self.hull_player.contents(p) == Contents::Empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::vec3::vec3;

    /// A 1000³ box room with 64-unit-thick walls all around.
    fn box_room() -> BspWorld {
        let bounds = Aabb::new(vec3(-500.0, -500.0, -500.0), vec3(500.0, 500.0, 500.0));
        let t = 64.0;
        let brushes = vec![
            // floor / ceiling
            Brush::solid(Aabb::new(
                vec3(-500.0, -500.0, -500.0),
                vec3(500.0, 500.0, -500.0 + t),
            )),
            Brush::solid(Aabb::new(
                vec3(-500.0, -500.0, 500.0 - t),
                vec3(500.0, 500.0, 500.0),
            )),
            // four walls
            Brush::solid(Aabb::new(
                vec3(-500.0, -500.0, -500.0),
                vec3(-500.0 + t, 500.0, 500.0),
            )),
            Brush::solid(Aabb::new(
                vec3(500.0 - t, -500.0, -500.0),
                vec3(500.0, 500.0, 500.0),
            )),
            Brush::solid(Aabb::new(
                vec3(-500.0, -500.0, -500.0),
                vec3(500.0, -500.0 + t, 500.0),
            )),
            Brush::solid(Aabb::new(
                vec3(-500.0, 500.0 - t, -500.0),
                vec3(500.0, 500.0, 500.0),
            )),
        ];
        BspWorld::compile(
            bounds,
            brushes,
            RoomGraph::single_room(bounds),
            vec![Vec3::ZERO],
            vec![],
            vec![],
        )
    }

    #[test]
    fn center_is_empty_walls_are_solid() {
        let w = box_room();
        assert_eq!(w.contents(Vec3::ZERO), Contents::Empty);
        assert_eq!(w.contents(vec3(480.0, 0.0, 0.0)), Contents::Solid);
        assert_eq!(w.contents(vec3(0.0, 0.0, -480.0)), Contents::Solid);
    }

    #[test]
    fn point_trace_hits_wall() {
        let w = box_room();
        let tr = w.trace(Hull::Point, Vec3::ZERO, vec3(1000.0, 0.0, 0.0));
        assert!(tr.fraction < 1.0);
        // Wall face is at x = 436; allow the trace epsilon.
        assert!((tr.end.x - 436.0).abs() < 0.5, "end = {:?}", tr.end);
        assert!(!tr.start_solid);
    }

    #[test]
    fn player_trace_stops_earlier_than_point_trace() {
        let w = box_room();
        let pt = w.trace(Hull::Point, Vec3::ZERO, vec3(1000.0, 0.0, 0.0));
        let pl = w.trace(Hull::Player, Vec3::ZERO, vec3(1000.0, 0.0, 0.0));
        assert!(pl.fraction < pt.fraction);
        // Player half-width is 16: stops ~16 before the point hull.
        assert!((pt.end.x - pl.end.x - 16.0).abs() < 0.5);
    }

    #[test]
    fn trace_inside_open_space_completes() {
        let w = box_room();
        let tr = w.trace(Hull::Player, Vec3::ZERO, vec3(100.0, 50.0, 0.0));
        assert_eq!(tr.fraction, 1.0);
        assert_eq!(tr.end, vec3(100.0, 50.0, 0.0));
    }

    #[test]
    fn start_solid_is_reported() {
        let w = box_room();
        let tr = w.trace(Hull::Point, vec3(490.0, 0.0, 0.0), vec3(0.0, 0.0, 0.0));
        assert!(tr.start_solid);
    }

    #[test]
    fn player_fits_checks() {
        let w = box_room();
        assert!(w.player_fits(Vec3::ZERO));
        assert!(!w.player_fits(vec3(470.0, 0.0, 0.0)));
    }
}
