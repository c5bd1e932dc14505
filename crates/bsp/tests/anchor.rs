//! The per-move shortcuts are exact: a trace begun at a move's anchor
//! equals the trace from the root field for field (`steps` included, so
//! no virtual-time charge moves), and `in_water` asking the water tree
//! first answers what `contents(p) == Water` answers.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_bsp::tree::Contents;
use parquake_bsp::{BspWorld, Hull, Trace};
use parquake_math::vec3::vec3;
use parquake_math::{Aabb, Pcg32, Vec3};

fn maps() -> [(&'static str, BspWorld); 3] {
    [
        ("large_arena", MapGenConfig::large_arena(3).generate()),
        ("flooded_arena", MapGenConfig::flooded_arena(3).generate()),
        ("open_hall", MapGenConfig::open_hall(3).generate()),
    ]
}

fn point_in(rng: &mut Pcg32, b: &Aabb) -> Vec3 {
    vec3(
        rng.range_f32(b.min.x, b.max.x),
        rng.range_f32(b.min.y, b.max.y),
        rng.range_f32(b.min.z, b.max.z),
    )
}

/// Bit-for-bit: `-0.0 != 0.0` and NaN payloads would matter here.
fn bits(t: &Trace) -> ([u32; 8], bool, bool, u32) {
    (
        [
            t.fraction.to_bits(),
            t.end.x.to_bits(),
            t.end.y.to_bits(),
            t.end.z.to_bits(),
            t.plane.normal.x.to_bits(),
            t.plane.normal.y.to_bits(),
            t.plane.normal.z.to_bits(),
            t.plane.dist.to_bits(),
        ],
        t.start_solid,
        t.all_solid,
        t.steps,
    )
}

#[test]
fn anchored_traces_equal_root_traces_field_for_field() {
    for (name, map) in maps() {
        let mut rng = Pcg32::seeded(0xA2C4);
        let (mut anchored, mut straddling) = (0u32, 0u32);
        for i in 0..10_000u32 {
            // A move-sized reach box somewhere in the world …
            let hull = [Hull::Player, Hull::Projectile, Hull::Point][i as usize % 3];
            let tree = map.hull(hull);
            let origin = point_in(&mut rng, &map.bounds);
            let half = vec3(
                rng.range_f32(8.0, 120.0),
                rng.range_f32(8.0, 120.0),
                rng.range_f32(8.0, 120.0),
            );
            let reach = Aabb::centered(origin, half);
            let anchor = tree.anchor_for(&reach);
            // … and a segment inside it, leaving it, or outside it.
            let wide = reach.inflated(half);
            let (s, e) = match i % 4 {
                0 | 1 => (point_in(&mut rng, &reach), point_in(&mut rng, &reach)),
                2 => (point_in(&mut rng, &reach), point_in(&mut rng, &wide)),
                _ => (point_in(&mut rng, &wide), point_in(&mut rng, &wide)),
            };
            if reach.contains_point(s) && reach.contains_point(e) {
                anchored += 1;
            } else {
                straddling += 1;
            }
            let want = tree.trace(s, e);
            let got = tree.trace_from(&anchor, s, e);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{name} {hull:?} segment {i}: {s:?} -> {e:?} in {reach:?}"
            );
        }
        assert!(
            anchored > 4_000 && straddling > 2_000,
            "{name}: {anchored} / {straddling}"
        );
    }
}

#[test]
fn anchors_of_move_sized_boxes_skip_most_of_the_walk() {
    // Not a correctness property — the reason the anchor exists: a
    // 30 ms move's reach (±43 units) sits many levels below the root.
    let map = MapGenConfig::large_arena(3).generate();
    let tree = map.hull(Hull::Player);
    let mut rng = Pcg32::seeded(7);
    let (mut below_anchor, mut from_root) = (0u64, 0u64);
    for &spawn in &map.spawn_points {
        let reach = Aabb::centered(spawn, Vec3::splat(43.0));
        let anchor = tree.anchor_for(&reach);
        for _ in 0..8 {
            let (s, e) = (point_in(&mut rng, &reach), point_in(&mut rng, &reach));
            let steps = tree.trace_from(&anchor, s, e).steps;
            from_root += steps as u64;
            below_anchor += (steps - anchor.depth()) as u64;
        }
    }
    assert!(
        below_anchor * 2 < from_root,
        "an anchored trace still walks {below_anchor} of {from_root} nodes"
    );
}

#[test]
fn in_water_agrees_with_contents() {
    let map = MapGenConfig::flooded_arena(3).generate();
    let mut rng = Pcg32::seeded(0xF100D);
    let (mut wet, mut dry) = (0u32, 0u32);
    for _ in 0..10_000 {
        // Bias towards pool height so both answers are well sampled.
        let mut p = point_in(&mut rng, &map.bounds);
        if rng.below(2) == 0 {
            p.z = rng.range_f32(-8.0, 60.0);
        }
        let want = map.contents(p) == Contents::Water;
        assert_eq!(map.in_water(p), want, "at {p:?}");
        if want {
            wet += 1;
        } else {
            dry += 1;
        }
    }
    assert!(wet > 200 && dry > 200, "{wet} wet / {dry} dry");
}
