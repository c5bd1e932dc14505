//! Reply construction: visibility-scoped entity updates plus broadcast
//! events, one `Reply` per requesting client per frame (paper §2.1).
//! The server encodes each reply straight into its datagram from a
//! [`reply_view`]; [`build_reply`] makes the same reply as an owned
//! [`ServerMessage`] from the same view.

use parquake_protocol::{
    EntityUpdate, GameEvent, ReplyPredict, ReplyView, ServerMessage, MAX_ADDITIONS_PER_REPLY,
    MAX_REMOVALS_PER_REPLY,
};
use parquake_sim::visibility::build_reply_entities;
use parquake_sim::{GameWorld, WorkCounters};

use crate::clients::Slot;

/// Has the entity changed enough since `prev` to resend it?
fn changed(prev: &EntityUpdate, cur: &EntityUpdate) -> bool {
    prev.state != cur.state
        || prev.kind != cur.kind
        || prev.pos.distance_sq(cur.pos) > 0.0625 // > 1/4 unit
        || (prev.yaw - cur.yaw).abs() > 1.0
}

/// Buffers [`reply_view`] reuses from one reply to the next.
#[derive(Default)]
pub struct ReplyScratch {
    /// The scanned visible set, when no interest set was precomputed.
    visible: Vec<EntityUpdate>,
    dist: Vec<(f32, EntityUpdate)>,
    /// A delta reply's changed and added entities, and its removals.
    entities: Vec<EntityUpdate>,
    removed: Vec<u16>,
}

/// The reply for `slot_idx`'s client, carrying `events` (whole events
/// in wire form, see [`GameEvent::wire`]), as a view over `precomputed`
/// or `scratch`: the core both the reply phase, which encodes the view
/// straight into its datagram, and [`build_reply`] use.
/// `assigned_thread` tells the client which server thread (port) to
/// address next. When `delta` is set, only entities that changed since
/// the client's baseline are included, plus removal notices —
/// QuakeWorld-style delta compression (the slot's baseline is updated
/// in place). Newly appearing entities are windowed at
/// [`MAX_ADDITIONS_PER_REPLY`]; the overflow stays out of the baseline
/// and is re-offered in the next reply, mirroring the removal window.
///
/// `precomputed` is the viewer's interest set from the batch DDM
/// sweep, byte-identical to what the per-client scan would produce;
/// `None` runs the scan here (the paper's behaviour).
#[allow(clippy::too_many_arguments)]
pub fn reply_view<'a>(
    world: &GameWorld,
    slot_idx: u16,
    slot: &mut Slot,
    frame: u32,
    assigned_thread: u8,
    delta: bool,
    events: &'a [u8],
    precomputed: Option<&'a [EntityUpdate]>,
    scratch: &'a mut ReplyScratch,
    work: &mut WorkCounters,
) -> ReplyView<'a> {
    let ReplyScratch {
        visible: scanned,
        dist,
        entities: out,
        removed,
    } = scratch;
    let visible: &[EntityUpdate] = match precomputed {
        Some(set) => {
            // The sweep already paid the matching cost in bulk; the
            // per-reply encode charge stays identical to the scan's.
            work.encoded_entities += set.len() as u64;
            set
        }
        None => {
            build_reply_entities(world, slot_idx, scanned, dist, work);
            scanned
        }
    };

    let (entities, removed): (&[EntityUpdate], &[u16]) = if delta {
        let Slot {
            baseline, in_view, ..
        } = slot;
        in_view.clear();
        in_view.resize(baseline.len(), false);
        // Changed and added entities, in visible order, marking every
        // baseline entry still in view.
        out.clear();
        let mut additions = 0usize;
        for u in visible {
            match baseline.binary_search_by_key(&u.id, |b| b.id) {
                Ok(at) => {
                    in_view[at] = true;
                    if changed(&baseline[at], u) {
                        out.push(*u);
                        baseline[at] = *u;
                    }
                }
                // A fresh arrival: windowed. Overflow additions are NOT
                // baselined, so the next reply re-offers them.
                Err(_) if additions < MAX_ADDITIONS_PER_REPLY => {
                    additions += 1;
                    out.push(*u);
                }
                Err(_) => {}
            }
        }
        // Entities that left the view, lowest ids first — the
        // baseline's own order — windowed: the overflow stays baselined
        // and is removed by a later reply.
        removed.clear();
        let mut at = 0;
        baseline.retain(|b| {
            let keep = in_view[at] || removed.len() == MAX_REMOVALS_PER_REPLY;
            at += 1;
            if !keep {
                removed.push(b.id);
            }
            keep
        });
        // Baseline the admitted arrivals: the updates not found there.
        for u in out.iter() {
            if let Err(at) = baseline.binary_search_by_key(&u.id, |b| b.id) {
                baseline.insert(at, *u);
            }
        }
        // Only the actually-encoded updates cost reply time.
        work.encoded_entities = work.encoded_entities - visible.len() as u64
            + out.len() as u64
            + removed.len() as u64 / 4;
        (out, removed)
    } else {
        (visible, &[])
    };

    let me = world.store.snapshot(slot_idx);
    let predict = if slot.predicts {
        // Reconciliation check: the shadow is what the pure movement
        // kernel produced from the applied inputs alone. Any bit-level
        // difference from authoritative state means something the
        // client cannot replay happened (player collision, knockback,
        // teleport, respawn) — bump the perturbation epoch so its
        // divergence oracle stands down, and re-adopt reality.
        let actual = (me.pos, me.vel, me.on_ground);
        if let Some(shadow) = slot.predict_shadow {
            if shadow != actual {
                slot.input_perturb = slot.input_perturb.wrapping_add(1);
            }
        }
        slot.predict_shadow = Some(actual);
        Some(ReplyPredict {
            input_ack: slot.input_ack,
            perturb: slot.input_perturb,
            vel: me.vel,
            on_ground: me.on_ground,
        })
    } else {
        None
    };
    ReplyView {
        client_id: slot.client_id,
        seq: slot.last_seq,
        sent_at_echo: slot.last_sent_at,
        frame,
        assigned_thread,
        origin: me.pos,
        delta,
        entities,
        removed,
        events,
        predict,
    }
}

/// Build the reply for `slot_idx`'s client as an owned message: the
/// reply [`reply_view`] makes, with `events` as its events.
#[allow(clippy::too_many_arguments)]
pub fn build_reply(
    world: &GameWorld,
    slot_idx: u16,
    slot: &mut Slot,
    frame: u32,
    assigned_thread: u8,
    delta: bool,
    events: Vec<GameEvent>,
    precomputed: Option<&[EntityUpdate]>,
    work: &mut WorkCounters,
) -> ServerMessage {
    let mut scratch = ReplyScratch::default();
    let view = reply_view(
        world,
        slot_idx,
        slot,
        frame,
        assigned_thread,
        delta,
        &[],
        precomputed,
        &mut scratch,
        work,
    );
    ServerMessage::Reply {
        client_id: view.client_id,
        seq: view.seq,
        sent_at_echo: view.sent_at_echo,
        frame,
        assigned_thread,
        origin: view.origin,
        delta,
        entities: view.entities.to_vec(),
        removed: view.removed.to_vec(),
        events,
        predict: view.predict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::ClientTable;
    use parquake_bsp::mapgen::MapGenConfig;
    use parquake_math::Pcg32;
    use parquake_protocol::{Encode, EntityKind, MAX_EVENTS_PER_REPLY};
    use std::sync::Arc;

    #[test]
    fn reply_carries_echo_and_origin() {
        let map = Arc::new(MapGenConfig::small_arena(2).generate());
        let world = GameWorld::new(map, 4, 4);
        let mut rng = Pcg32::seeded(1);
        world.spawn_player(0, 7, &mut rng);
        let table = ClientTable::new(4);
        let slot = table.slot(0);
        slot.client_id = 7;
        slot.last_seq = 42;
        slot.last_sent_at = 1234;
        let mut work = WorkCounters::new();
        let msg = build_reply(&world, 0, slot, 9, 2, false, Vec::new(), None, &mut work);
        match msg {
            ServerMessage::Reply {
                client_id,
                seq,
                sent_at_echo,
                frame,
                assigned_thread,
                origin,
                ..
            } => {
                assert_eq!(client_id, 7);
                assert_eq!(seq, 42);
                assert_eq!(sent_at_echo, 1234);
                assert_eq!(frame, 9);
                assert_eq!(assigned_thread, 2);
                assert_eq!(origin, world.store.snapshot(0).pos);
            }
            _ => unreachable!(),
        }
        assert!(work.visibility_checks > 0);
    }

    fn delta_world() -> (GameWorld, ClientTable) {
        let map = Arc::new(MapGenConfig::small_arena(2).generate());
        let world = GameWorld::new(map, 4, 4);
        let mut rng = Pcg32::seeded(1);
        world.spawn_player(0, 7, &mut rng);
        let table = ClientTable::new(4);
        table.slot(0).client_id = 7;
        (world, table)
    }

    fn reply_parts(msg: ServerMessage) -> (Vec<EntityUpdate>, Vec<u16>) {
        match msg {
            ServerMessage::Reply {
                entities, removed, ..
            } => (entities, removed),
            _ => unreachable!(),
        }
    }

    /// A ghost baseline entry: an entity the client once saw that no
    /// longer exists in the world, so every delta reply wants to remove
    /// it. Ids start high enough never to collide with real entities.
    fn ghost(id: u16) -> EntityUpdate {
        EntityUpdate {
            id,
            kind: EntityKind::Item,
            state: 1,
            pos: parquake_math::Vec3::new(0.0, 0.0, 0.0),
            yaw: 0.0,
        }
    }

    /// The removal list is capped at [`MAX_REMOVALS_PER_REPLY`]; the
    /// overflow must stay in the baseline and go out in the *next*
    /// reply, never be dropped. Two consecutive replies must partition
    /// the ghost set: disjoint, and their union is everything.
    #[test]
    fn removal_truncation_carries_leftovers_to_the_next_reply() {
        use std::collections::HashSet;
        let (world, table) = delta_world();
        let slot = table.slot(0);
        let ghosts: HashSet<u16> = (1000..1000 + MAX_REMOVALS_PER_REPLY as u16 + 40).collect();
        slot.baseline = (1000..1000 + MAX_REMOVALS_PER_REPLY as u16 + 40)
            .map(ghost)
            .collect();
        let mut work = WorkCounters::new();

        let (_, removed1) = reply_parts(build_reply(
            &world,
            0,
            slot,
            1,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert_eq!(removed1.len(), MAX_REMOVALS_PER_REPLY);
        // The leftovers are still tracked, so the client will hear
        // about them: nothing silently vanished from the baseline.
        let (_, removed2) = reply_parts(build_reply(
            &world,
            0,
            slot,
            2,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert_eq!(removed2.len(), 40);

        let first: HashSet<u16> = removed1.iter().copied().collect();
        let second: HashSet<u16> = removed2.iter().copied().collect();
        assert!(first.is_disjoint(&second), "a ghost was removed twice");
        let union: HashSet<u16> = first.union(&second).copied().collect();
        assert_eq!(union, ghosts, "removals must cover every ghost exactly");
        // And the ghosts are gone from the baseline for good: a third
        // reply removes nothing.
        let (_, removed3) = reply_parts(build_reply(
            &world,
            0,
            slot,
            3,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert!(removed3.is_empty());
    }

    /// Which removals go first is a function of the baseline's
    /// *contents*: a client holding 100 departed entities hears about
    /// the lowest 64 ids first and the other 36 next.
    #[test]
    fn removal_window_is_the_lowest_ids() {
        let (world, table) = delta_world();
        let ghosts: Vec<u16> = (1000..1100).collect();
        table.slot(0).baseline = ghosts.iter().map(|&id| ghost(id)).collect();
        let mut work = WorkCounters::new();
        let mut reply = |frame: u32| {
            reply_parts(build_reply(
                &world,
                0,
                table.slot(0),
                frame,
                0,
                true,
                Vec::new(),
                None,
                &mut work,
            ))
            .1
        };
        assert_eq!(reply(1), ghosts[..MAX_REMOVALS_PER_REPLY]);
        assert_eq!(reply(2), ghosts[MAX_REMOVALS_PER_REPLY..]);
    }

    /// A crowd world where far more entities are visible than the
    /// addition window admits: player 0 sees a full reply's worth.
    fn crowd_world() -> (GameWorld, ClientTable) {
        let map = Arc::new(MapGenConfig::open_hall(5).generate());
        let world = GameWorld::new(map, 4, 200);
        let mut rng = Pcg32::seeded(5);
        for i in 0..200 {
            world.spawn_player(i, i as u32, &mut rng);
        }
        let p0 = world.store.snapshot(0).pos;
        for i in 1..200u16 {
            world.store.with_mut(i, 0, |e| {
                e.pos = p0 + parquake_math::vec3::vec3((i as f32) * 3.0, 0.0, 0.0);
            });
        }
        let table = ClientTable::new(200);
        table.slot(0).client_id = 1;
        (world, table)
    }

    /// The addition list is windowed at [`MAX_ADDITIONS_PER_REPLY`];
    /// the overflow must stay *out* of the baseline and go out in the
    /// next reply, never be dropped. Consecutive replies must
    /// partition the arrivals: disjoint, and their union is the whole
    /// visible set. Mirrors the removal-window test.
    #[test]
    fn addition_truncation_carries_leftovers_to_the_next_reply() {
        use std::collections::HashSet;
        let (world, table) = crowd_world();
        let slot = table.slot(0);
        let mut work = WorkCounters::new();

        let full: HashSet<u16> = {
            let mut v = Vec::new();
            let mut s = Vec::new();
            build_reply_entities(&world, 0, &mut v, &mut s, &mut WorkCounters::new());
            v.iter().map(|u| u.id).collect()
        };
        assert!(full.len() > MAX_ADDITIONS_PER_REPLY, "crowd too small");

        let (sent1, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            1,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert_eq!(sent1.len(), MAX_ADDITIONS_PER_REPLY);
        let (sent2, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            2,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        let first: HashSet<u16> = sent1.iter().map(|u| u.id).collect();
        let second: HashSet<u16> = sent2.iter().map(|u| u.id).collect();
        assert!(first.is_disjoint(&second), "an arrival was sent twice");
        let union: HashSet<u16> = first.union(&second).copied().collect();
        assert_eq!(union, full, "additions must cover every arrival exactly");
        // Once everything is baselined, a quiet world sends nothing.
        let (sent3, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            3,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert!(sent3.is_empty());
    }

    /// Entities already in the baseline that *changed* are never held
    /// back by the addition window: a full window of arrivals plus one
    /// moved entity yields window + 1 updates.
    #[test]
    fn changed_baseline_entities_bypass_the_addition_window() {
        let (world, table) = crowd_world();
        let slot = table.slot(0);
        let mut work = WorkCounters::new();

        let (sent1, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            1,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        let moved = sent1[0].id;
        world.store.with_mut(moved, 0, |e| e.pos.x += 2.0);

        let (sent2, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            2,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert!(
            sent2.iter().any(|u| u.id == moved),
            "moved entity suppressed by the addition window"
        );
        assert_eq!(sent2.len(), MAX_ADDITIONS_PER_REPLY + 1);
    }

    /// A precomputed interest set (the sweep's output) must produce a
    /// byte-identical reply and identical encode accounting.
    #[test]
    fn precomputed_interest_sets_build_identical_replies() {
        let (world, table) = delta_world();
        for idx in [0usize, 1] {
            let s = table.slot(idx);
            s.client_id = 7;
            s.last_seq = 42;
            s.last_sent_at = 1234;
        }
        let set = {
            let mut v = Vec::new();
            let mut s = Vec::new();
            build_reply_entities(&world, 0, &mut v, &mut s, &mut WorkCounters::new());
            v
        };
        let mut w_scan = WorkCounters::new();
        let mut w_pre = WorkCounters::new();
        for delta in [false, true] {
            let scan_msg = build_reply(
                &world,
                0,
                table.slot(0),
                1,
                0,
                delta,
                Vec::new(),
                None,
                &mut w_scan,
            );
            let pre_msg = build_reply(
                &world,
                0,
                table.slot(1),
                1,
                0,
                delta,
                Vec::new(),
                Some(&set),
                &mut w_pre,
            );
            assert_eq!(scan_msg.to_bytes(), pre_msg.to_bytes());
        }
        assert_eq!(w_scan.encoded_entities, w_pre.encoded_entities);
        assert_eq!(table.slot(0).baseline, table.slot(1).baseline);
    }

    /// The view the server encodes straight into its datagram writes the
    /// `build_reply` message's bytes, reply after reply: with the scan
    /// and with a precomputed set, delta off and on (arrivals windowed,
    /// an entity moving, then leaving), with and without the prediction
    /// trailer, carrying 0–32 events. Both leave the slot and the
    /// encode accounting alike.
    #[test]
    fn encoded_replies_are_the_built_replies_bytes() {
        use parquake_protocol::{Decode, GameEventKind};
        let events: Vec<GameEvent> = (0..MAX_EVENTS_PER_REPLY as u16)
            .map(|a| GameEvent {
                kind: GameEventKind::Hit,
                a,
                b: a + 1,
                pos: parquake_math::Vec3::new(1.0, 2.0, a as f32),
            })
            .collect();
        let mut scratch = ReplyScratch::default();
        for delta in [false, true] {
            for predicts in [false, true] {
                for precompute in [false, true] {
                    let (world, built) = crowd_world();
                    let (_, encoded) = crowd_world();
                    for table in [&built, &encoded] {
                        let s = table.slot(0);
                        (s.last_seq, s.last_sent_at, s.predicts) = (42, 1234, predicts);
                        s.input_ack = 41;
                    }
                    let (mut w_built, mut w_encoded) = (WorkCounters::new(), WorkCounters::new());
                    for frame in 1..=4u32 {
                        // The nearest neighbour moves, then leaves.
                        match frame {
                            3 => world.store.with_mut(1, 0, |e| e.pos.x += 2.0),
                            4 => world.store.with_mut(1, 0, |e| e.active = false),
                            _ => {}
                        }
                        let set = precompute.then(|| {
                            let (mut v, mut d) = (Vec::new(), Vec::new());
                            build_reply_entities(
                                &world,
                                0,
                                &mut v,
                                &mut d,
                                &mut WorkCounters::new(),
                            );
                            v
                        });
                        let events = &events[..(frame as usize * 11).min(events.len())];
                        let run: Vec<u8> = events.iter().flat_map(GameEvent::wire).collect();
                        let msg = build_reply(
                            &world,
                            0,
                            built.slot(0),
                            frame,
                            3,
                            delta,
                            events.to_vec(),
                            set.as_deref(),
                            &mut w_built,
                        );
                        let view = reply_view(
                            &world,
                            0,
                            encoded.slot(0),
                            frame,
                            3,
                            delta,
                            &run,
                            set.as_deref(),
                            &mut scratch,
                            &mut w_encoded,
                        );
                        let (bytes, n) = (view.to_bytes(), view.entities.len());
                        assert_eq!(
                            bytes,
                            msg.to_bytes(),
                            "delta {delta} predicts {predicts} frame {frame}"
                        );
                        assert_eq!(bytes.capacity(), bytes.len());
                        assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), msg);
                        assert_eq!(n, reply_parts(msg).0.len());
                    }
                    assert_eq!(w_built.encoded_entities, w_encoded.encoded_entities);
                    assert_eq!(built.slot(0).baseline, encoded.slot(0).baseline);
                    assert_eq!(built.slot(0).input_perturb, encoded.slot(0).input_perturb);
                }
            }
        }
    }

    /// An unchanged entity is sent once and then suppressed: the first
    /// delta reply installs the baseline, repeats ride on it.
    #[test]
    fn baseline_is_updated_exactly_once_per_entity() {
        let (world, table) = delta_world();
        let slot = table.slot(0);
        let mut work = WorkCounters::new();

        let (sent1, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            1,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert!(!sent1.is_empty(), "first delta reply seeds the baseline");
        assert_eq!(slot.baseline, sent1, "baseline == what was sent");
        let baseline_after_first = slot.baseline.clone();

        // Nothing moved: the second reply must resend nothing and the
        // baseline must be byte-identical (no redundant re-insertions).
        let (sent2, _) = reply_parts(build_reply(
            &world,
            0,
            slot,
            2,
            0,
            true,
            Vec::new(),
            None,
            &mut work,
        ));
        assert!(sent2.is_empty(), "unchanged entities must be suppressed");
        assert_eq!(slot.baseline, baseline_after_first);
    }
}
