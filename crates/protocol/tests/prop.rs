//! Property-based tests: codec round-trips and fuzz-style decoding.

use parquake_math::vec3::vec3;
use parquake_protocol::{
    Buttons, ClientMessage, Decode, Encode, EntityKind, EntityUpdate, GameEvent, GameEventKind,
    MoveCmd, ReplyPredict, ReplyView, ServerMessage, MAX_ENTITIES_PER_REPLY, MAX_EVENTS_PER_REPLY,
    MAX_REMOVALS_PER_REPLY, MOVE_PREDICT_EXT_WIRE_BYTES, PREDICT_EXT_TAG,
    REPLY_PREDICT_EXT_WIRE_BYTES,
};
use proptest::prelude::*;

/// The encoder the exact-size one replaced, field by field through the
/// `put_*` primitives into a buffer that grows as it goes. It is the
/// oracle for "same bytes on the wire": it shares no code with
/// `Encode::encode` beyond the primitives and the tag registry.
mod field_by_field {
    use parquake_protocol::codec::{put_f32, put_u16, put_u32, put_u64, put_u8};
    use parquake_protocol::tags::{
        TAG_ACK, TAG_BYE, TAG_CONNECT, TAG_DISCONNECT, TAG_MOVE, TAG_REPLY,
    };
    use parquake_protocol::{
        ClientMessage, EntityKind, EntityUpdate, GameEvent, GameEventKind, ServerMessage,
        PREDICT_EXT_TAG,
    };

    fn put_entity(out: &mut Vec<u8>, e: &EntityUpdate) {
        put_u16(out, e.id);
        put_u8(
            out,
            match e.kind {
                EntityKind::Player => 0,
                EntityKind::Item => 1,
                EntityKind::Projectile => 2,
                EntityKind::Teleporter => 3,
            },
        );
        put_u8(out, e.state);
        put_f32(out, e.pos.x);
        put_f32(out, e.pos.y);
        put_f32(out, e.pos.z);
        put_f32(out, e.yaw);
    }

    fn put_event(out: &mut Vec<u8>, e: &GameEvent) {
        put_u8(
            out,
            match e.kind {
                GameEventKind::Pickup => 0,
                GameEventKind::Teleport => 1,
                GameEventKind::Hit => 2,
                GameEventKind::Spawn => 3,
                GameEventKind::Sound => 4,
            },
        );
        put_u16(out, e.a);
        put_u16(out, e.b);
        put_f32(out, e.pos.x);
        put_f32(out, e.pos.y);
        put_f32(out, e.pos.z);
    }

    pub fn client(msg: &ClientMessage) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        let out = &mut v;
        match msg {
            ClientMessage::Connect { client_id, arena } => {
                put_u8(out, TAG_CONNECT);
                put_u32(out, *client_id);
                put_u16(out, *arena);
            }
            ClientMessage::Move { client_id, cmd } => {
                put_u8(out, TAG_MOVE);
                put_u32(out, *client_id);
                put_u32(out, cmd.seq);
                put_u64(out, cmd.sent_at);
                put_f32(out, cmd.pitch);
                put_f32(out, cmd.yaw);
                put_f32(out, cmd.forward);
                put_f32(out, cmd.side);
                put_f32(out, cmd.up);
                put_u8(out, cmd.buttons.0);
                put_u8(out, cmd.msec);
                if let Some(ack) = cmd.predict_ack {
                    put_u8(out, PREDICT_EXT_TAG);
                    put_u32(out, ack);
                }
            }
            ClientMessage::Disconnect { client_id } => {
                put_u8(out, TAG_DISCONNECT);
                put_u32(out, *client_id);
            }
        }
        v
    }

    pub fn server(msg: &ServerMessage) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        let out = &mut v;
        match msg {
            ServerMessage::ConnectAck {
                client_id,
                spawn,
                arena,
            } => {
                put_u8(out, TAG_ACK);
                put_u32(out, *client_id);
                put_f32(out, spawn.x);
                put_f32(out, spawn.y);
                put_f32(out, spawn.z);
                put_u16(out, *arena);
            }
            ServerMessage::Reply {
                client_id,
                seq,
                sent_at_echo,
                frame,
                assigned_thread,
                origin,
                delta,
                entities,
                removed,
                events,
                predict,
            } => {
                put_u8(out, TAG_REPLY);
                put_u32(out, *client_id);
                put_u32(out, *seq);
                put_u64(out, *sent_at_echo);
                put_u32(out, *frame);
                put_u8(out, *assigned_thread);
                put_f32(out, origin.x);
                put_f32(out, origin.y);
                put_f32(out, origin.z);
                put_u8(out, u8::from(*delta));
                put_u8(out, entities.len() as u8);
                for e in entities {
                    put_entity(out, e);
                }
                put_u8(out, removed.len() as u8);
                for r in removed {
                    put_u16(out, *r);
                }
                put_u8(out, events.len() as u8);
                for e in events {
                    put_event(out, e);
                }
                if let Some(p) = predict {
                    put_u8(out, PREDICT_EXT_TAG);
                    put_u32(out, p.input_ack);
                    put_u32(out, p.perturb);
                    put_f32(out, p.vel.x);
                    put_f32(out, p.vel.y);
                    put_f32(out, p.vel.z);
                    put_u8(out, u8::from(p.on_ground));
                }
            }
            ServerMessage::Bye { client_id } => {
                put_u8(out, TAG_BYE);
                put_u32(out, *client_id);
            }
        }
        v
    }
}

/// Is this trailer exactly one well-formed `Move` prediction extension?
/// Appended to a legacy `Move` it forms a valid predicting-client
/// message rather than trailing garbage.
fn is_move_predict_ext(trailer: &[u8]) -> bool {
    trailer.len() == MOVE_PREDICT_EXT_WIRE_BYTES && trailer[0] == PREDICT_EXT_TAG
}

/// Is this trailer exactly one well-formed `Reply` prediction
/// extension? (Any payload bytes qualify — the fields are unvalidated
/// integers/floats/flag.)
fn is_reply_predict_ext(trailer: &[u8]) -> bool {
    trailer.len() == REPLY_PREDICT_EXT_WIRE_BYTES && trailer[0] == PREDICT_EXT_TAG
}

/// Prediction acks, with `None` (the canonical legacy encoding) always
/// in the mix.
fn arb_predict_ack() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some)]
}

fn arb_reply_predict() -> impl Strategy<Value = Option<ReplyPredict>> {
    prop_oneof![
        Just(None),
        (
            any::<u32>(),
            any::<u32>(),
            -1000.0f32..1000.0,
            -1000.0f32..1000.0,
            any::<bool>(),
        )
            .prop_map(
                |(input_ack, perturb, vx, vz, on_ground)| Some(ReplyPredict {
                    input_ack,
                    perturb,
                    vel: vec3(vx, 0.0, vz),
                    on_ground,
                })
            ),
    ]
}

fn arb_move() -> impl Strategy<Value = MoveCmd> {
    (
        any::<u32>(),
        any::<u64>(),
        -90.0f32..90.0,
        -180.0f32..180.0,
        -400.0f32..400.0,
        -400.0f32..400.0,
        -400.0f32..400.0,
        any::<u8>(),
        any::<u8>(),
        arb_predict_ack(),
    )
        .prop_map(
            |(seq, sent_at, pitch, yaw, forward, side, up, buttons, msec, predict_ack)| MoveCmd {
                seq,
                sent_at,
                pitch,
                yaw,
                forward,
                side,
                up,
                buttons: Buttons(buttons),
                msec,
                predict_ack,
            },
        )
}

/// Arena ids, with both ends of the range always in the mix.
fn arb_arena() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), Just(u16::MAX), any::<u16>()]
}

fn arb_client_msg() -> impl Strategy<Value = ClientMessage> {
    prop_oneof![
        (any::<u32>(), arb_arena())
            .prop_map(|(client_id, arena)| ClientMessage::Connect { client_id, arena }),
        (any::<u32>(), arb_move())
            .prop_map(|(client_id, cmd)| ClientMessage::Move { client_id, cmd }),
        any::<u32>().prop_map(|client_id| ClientMessage::Disconnect { client_id }),
    ]
}

fn arb_entity() -> impl Strategy<Value = EntityUpdate> {
    (
        any::<u16>(),
        0u8..4,
        any::<u8>(),
        -4096.0f32..4096.0,
        -4096.0f32..4096.0,
        -4096.0f32..4096.0,
        -180.0f32..180.0,
    )
        .prop_map(|(id, kind, state, x, y, z, yaw)| EntityUpdate {
            id,
            kind: match kind {
                0 => EntityKind::Player,
                1 => EntityKind::Item,
                2 => EntityKind::Projectile,
                _ => EntityKind::Teleporter,
            },
            state,
            pos: vec3(x, y, z),
            yaw,
        })
}

fn arb_event() -> impl Strategy<Value = GameEvent> {
    (
        0u8..5,
        any::<u16>(),
        any::<u16>(),
        -4096.0f32..4096.0,
        -4096.0f32..4096.0,
    )
        .prop_map(|(k, a, b, x, y)| GameEvent {
            kind: match k {
                0 => GameEventKind::Pickup,
                1 => GameEventKind::Teleport,
                2 => GameEventKind::Hit,
                3 => GameEventKind::Spawn,
                _ => GameEventKind::Sound,
            },
            a,
            b,
            pos: vec3(x, y, 0.0),
        })
}

/// A `Reply` with every list anywhere from empty to its cap, delta on
/// or off, with or without the prediction trailer.
fn arb_reply() -> impl Strategy<Value = ServerMessage> {
    (
        (
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<u8>(),
        ),
        (-4096.0f32..4096.0, any::<bool>()),
        prop::collection::vec(arb_entity(), 0..=MAX_ENTITIES_PER_REPLY),
        prop::collection::vec(any::<u16>(), 0..=MAX_REMOVALS_PER_REPLY),
        prop::collection::vec(arb_event(), 0..=MAX_EVENTS_PER_REPLY),
        arb_reply_predict(),
    )
        .prop_map(
            |(
                (client_id, seq, sent_at_echo, frame, assigned_thread),
                (x, delta),
                entities,
                removed,
                events,
                predict,
            )| ServerMessage::Reply {
                client_id,
                seq,
                sent_at_echo,
                frame,
                assigned_thread,
                origin: vec3(x, -x, 3.0),
                delta,
                entities,
                removed,
                events,
                predict,
            },
        )
}

fn arb_server_msg() -> impl Strategy<Value = ServerMessage> {
    prop_oneof![
        (any::<u32>(), -100.0f32..100.0, arb_arena()).prop_map(|(client_id, x, arena)| {
            ServerMessage::ConnectAck {
                client_id,
                spawn: vec3(x, x, x),
                arena,
            }
        }),
        arb_reply(),
        any::<u32>().prop_map(|client_id| ServerMessage::Bye { client_id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]

    /// The borrowed view, its events handed over as one run of wire
    /// bytes as the server's event log holds them, writes exactly the
    /// bytes the owned message wrote before the two shared an encoder,
    /// announces their number, allocates no more, and decodes to the
    /// message it was lent from.
    #[test]
    fn a_reply_view_writes_the_owned_replys_bytes(msg in arb_reply()) {
        let ServerMessage::Reply {
            client_id,
            seq,
            sent_at_echo,
            frame,
            assigned_thread,
            origin,
            delta,
            ref entities,
            ref removed,
            ref events,
            predict,
        } = msg
        else {
            unreachable!("arb_reply makes replies")
        };
        let run: Vec<u8> = events.iter().flat_map(GameEvent::wire).collect();
        let view = ReplyView {
            client_id,
            seq,
            sent_at_echo,
            frame,
            assigned_thread,
            origin,
            delta,
            entities,
            removed,
            events: &run,
            predict,
        };
        let bytes = view.to_bytes();
        prop_assert_eq!(&bytes, &field_by_field::server(&msg));
        prop_assert_eq!(bytes.len(), view.wire_len());
        prop_assert_eq!(bytes.capacity(), bytes.len());
        prop_assert_eq!(&bytes, &msg.to_bytes());
        prop_assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), msg);
    }
}

proptest! {
    #[test]
    fn client_messages_roundtrip(msg in arb_client_msg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(ClientMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn server_messages_roundtrip(msg in arb_server_msg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), msg);
    }

    /// The exact-size encoder writes the bytes the field-by-field one
    /// wrote, announces their number beforehand, and (from an empty
    /// buffer) allocates exactly that many — no slack rides along in
    /// the payload a fabric `Message` owns.
    #[test]
    fn client_encoding_is_exact_size_and_unchanged(msg in arb_client_msg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        prop_assert_eq!(&bytes, &field_by_field::client(&msg));
        prop_assert!(bytes.capacity() == bytes.len() || bytes.len() < 8);
    }

    #[test]
    fn server_encoding_is_exact_size_and_unchanged(msg in arb_server_msg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        prop_assert_eq!(&bytes, &field_by_field::server(&msg));
        prop_assert!(bytes.capacity() == bytes.len() || bytes.len() < 8);
        // Appending to a buffer in use reserves too: one growth at most.
        let mut shared = vec![0xEE; 3];
        msg.encode(&mut shared);
        prop_assert_eq!(&shared[3..], &bytes[..]);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary garbage must return an error or a message,
        // never panic.
        let _ = ClientMessage::from_bytes(&bytes);
        let _ = ServerMessage::from_bytes(&bytes);
    }

    #[test]
    fn truncations_never_panic(msg in arb_server_msg(), frac in 0.0f64..1.0) {
        let bytes = msg.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = ServerMessage::from_bytes(&bytes[..cut]);
    }

    #[test]
    fn client_truncations_never_panic(msg in arb_client_msg(), frac in 0.0f64..1.0) {
        let bytes = msg.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let decoded = ClientMessage::from_bytes(&bytes[..cut]);
        // A strict prefix can never decode as the whole message.
        if cut < bytes.len() {
            prop_assert!(decoded != Ok(msg));
        }
    }

    /// The arena id is a plain field: every strict prefix of a
    /// `Connect` or `ConnectAck`, down to the tag, fails to decode.
    #[test]
    fn truncated_connects_are_rejected(
        client_id in any::<u32>(),
        arena in arb_arena(),
        x in -4096.0f32..4096.0,
    ) {
        let connect = ClientMessage::Connect { client_id, arena }.to_bytes();
        for cut in 0..connect.len() {
            prop_assert!(ClientMessage::from_bytes(&connect[..cut]).is_err());
        }
        let spawn = vec3(x, -x, x);
        let ack = ServerMessage::ConnectAck { client_id, spawn, arena }.to_bytes();
        for cut in 0..ack.len() {
            prop_assert!(ServerMessage::from_bytes(&ack[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(
        msg in arb_client_msg(),
        trailer in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // The wire format is length-exact: any trailing garbage after a
        // valid message must fail decode, never be silently ignored.
        // The exception is the optional prediction extension itself: a
        // trailer that *is* a well-formed one on a legacy `Move` is by
        // definition a valid predicting-client message.
        let mut bytes = msg.to_bytes();
        bytes.extend_from_slice(&trailer);
        let completes_ext = matches!(
            msg,
            ClientMessage::Move {
                cmd: MoveCmd { predict_ack: None, .. },
                ..
            }
        ) && is_move_predict_ext(&trailer);
        if completes_ext {
            prop_assert!(ClientMessage::from_bytes(&bytes).is_ok());
        } else {
            prop_assert!(ClientMessage::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn server_trailing_bytes_are_rejected(
        msg in arb_server_msg(),
        // Long enough to sometimes form a whole 22-byte reply
        // prediction extension, so the exception path is exercised.
        trailer in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut bytes = msg.to_bytes();
        bytes.extend_from_slice(&trailer);
        let completes_ext = matches!(msg, ServerMessage::Reply { predict: None, .. })
            && is_reply_predict_ext(&trailer);
        if completes_ext {
            prop_assert!(ServerMessage::from_bytes(&bytes).is_ok());
        } else {
            prop_assert!(ServerMessage::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn decoded_garbage_reencodes_identically(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Anything that *does* decode — even from random bytes — must
        // re-encode to a decodable equal message (codec is a bijection
        // on its valid range).
        if let Ok(msg) = ClientMessage::from_bytes(&bytes) {
            let re = msg.to_bytes();
            prop_assert_eq!(ClientMessage::from_bytes(&re).unwrap(), msg);
        }
        if let Ok(msg) = ServerMessage::from_bytes(&bytes) {
            let re = msg.to_bytes();
            prop_assert_eq!(ServerMessage::from_bytes(&re).unwrap(), msg);
        }
    }
}
