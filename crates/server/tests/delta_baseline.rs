//! Property: the sorted-run delta baseline answers exactly as the
//! `HashMap` baseline it replaced. The old rules are restated here as
//! the reference — look up each visible entity, resend it if changed,
//! admit at most `MAX_ADDITIONS_PER_REPLY` arrivals, then remove the
//! lowest `MAX_REMOVALS_PER_REPLY` ids that left the view — and a random
//! stream of visible sets (arbitrary order, as a truncated nearest-first
//! set arrives; ids drawn from a universe wide enough to overflow both
//! windows) must yield the same `entities`, `removed`, baseline and
//! encode charge after every reply.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parquake_bsp::mapgen::MapGenConfig;
use parquake_math::vec3::vec3;
use parquake_math::Pcg32;
use parquake_protocol::{
    EntityKind, EntityUpdate, ServerMessage, MAX_ADDITIONS_PER_REPLY, MAX_REMOVALS_PER_REPLY,
};
use parquake_server::clients::ClientTable;
use parquake_server::visibility_reply::build_reply;
use parquake_sim::{GameWorld, WorkCounters};
use proptest::prelude::*;

/// The `HashMap` baseline's reply rules, as they stood.
fn reference_reply(
    baseline: &mut HashMap<u16, EntityUpdate>,
    visible: &[EntityUpdate],
) -> (Vec<EntityUpdate>, Vec<u16>) {
    let changed = |prev: &EntityUpdate, cur: &EntityUpdate| {
        prev.state != cur.state
            || prev.kind != cur.kind
            || prev.pos.distance_sq(cur.pos) > 0.0625
            || (prev.yaw - cur.yaw).abs() > 1.0
    };
    let mut out = Vec::new();
    let mut additions = 0usize;
    for u in visible {
        match baseline.get(&u.id) {
            Some(prev) if !changed(prev, u) => {}
            Some(_) => {
                out.push(*u);
                baseline.insert(u.id, *u);
            }
            None => {
                if additions < MAX_ADDITIONS_PER_REPLY {
                    additions += 1;
                    out.push(*u);
                    baseline.insert(u.id, *u);
                }
            }
        }
    }
    let visible_ids: HashSet<u16> = visible.iter().map(|u| u.id).collect();
    let mut removed: Vec<u16> = baseline
        .keys()
        .copied()
        .filter(|id| !visible_ids.contains(id))
        .collect();
    removed.sort_unstable();
    removed.truncate(MAX_REMOVALS_PER_REPLY);
    for id in &removed {
        baseline.remove(id);
    }
    (out, removed)
}

/// One visible set: distinct ids from `0..UNIVERSE`, in the order drawn,
/// each with a position, state and yaw that change only sometimes.
const UNIVERSE: u16 = 160;

fn arb_view() -> impl Strategy<Value = Vec<(u16, u8, u8)>> {
    // (id, position/yaw variant, state variant) — few variants, so an
    // entity often comes back unchanged. Crowded views fill the
    // baseline past the addition window; a near-empty view after them
    // overflows the removal window.
    let entry = || (0..UNIVERSE, 0u8..3, 0u8..2);
    prop_oneof![
        prop::collection::vec(entry(), 0..12),
        prop::collection::vec(entry(), 100..200),
        prop::collection::vec(entry(), 100..200),
    ]
}

fn update(id: u16, variant: u8, state: u8) -> EntityUpdate {
    EntityUpdate {
        id,
        kind: EntityKind::Player,
        state: 50 + state,
        pos: vec3(f32::from(id) * 10.0 + f32::from(variant), 0.0, 0.0),
        yaw: f32::from(variant) * 0.75,
    }
}

fn entities_and_removed(msg: ServerMessage) -> (Vec<EntityUpdate>, Vec<u16>) {
    match msg {
        ServerMessage::Reply {
            entities, removed, ..
        } => (entities, removed),
        _ => unreachable!("build_reply builds replies"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 400 }))]

    #[test]
    fn sorted_baseline_replies_as_the_map_did(views in prop::collection::vec(arb_view(), 1..16)) {
        let map = Arc::new(MapGenConfig::small_arena(2).generate());
        let world = GameWorld::new(map, 4, 2);
        world.spawn_player(0, 7, &mut Pcg32::seeded(1));
        let table = ClientTable::new(2);
        let mut reference: HashMap<u16, EntityUpdate> = HashMap::new();
        for (frame, view) in views.iter().enumerate() {
            let mut seen = HashSet::new();
            let visible: Vec<EntityUpdate> = view
                .iter()
                .filter(|&&(id, ..)| seen.insert(id))
                .map(|&(id, v, s)| update(id, v, s))
                .collect();
            let mut work = WorkCounters::new();
            let (entities, removed) = entities_and_removed(build_reply(
                &world,
                0,
                table.slot(0),
                frame as u32,
                0,
                true,
                Vec::new(),
                Some(&visible),
                &mut work,
            ));
            let (want_entities, want_removed) = reference_reply(&mut reference, &visible);
            prop_assert_eq!(&entities, &want_entities, "entities, frame {}", frame);
            prop_assert_eq!(&removed, &want_removed, "removed, frame {}", frame);
            let mut want_baseline: Vec<EntityUpdate> = reference.values().copied().collect();
            want_baseline.sort_unstable_by_key(|u| u.id);
            prop_assert_eq!(&table.slot(0).baseline, &want_baseline, "baseline, frame {}", frame);
            prop_assert_eq!(
                work.encoded_entities,
                (want_entities.len() + want_removed.len() / 4) as u64,
                "encode charge, frame {}",
                frame
            );
        }
    }
}
