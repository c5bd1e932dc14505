//! Client/server wire protocol.
//!
//! A compact, hand-rolled datagram codec in the spirit of the original
//! QuakeWorld protocol: clients send *connect / move / disconnect*
//! messages; the server answers explicit requests with per-client
//! replies carrying visible-entity updates plus broadcast game events
//! (the global state buffer of paper §3.3). The *move* command carries
//! exactly the fields the paper enumerates in §2.3: view angles, motion
//! impulses, action flags and the duration in milliseconds.
//!
//! All integers are little-endian; floats are IEEE-754 bits. Decoding
//! is total: malformed or truncated datagrams yield [`CodecError`],
//! never panics — the server drops bad packets like the original does.

pub mod codec;
pub mod tags;
pub mod types;

pub use codec::{CodecError, Decode, Encode};
pub use tags::PREDICT_EXT_TAG;
pub use types::{
    Buttons, ClientMessage, EntityKind, EntityUpdate, GameEvent, GameEventKind, MoveCmd,
    ReplyPredict, ReplyView, ServerHeader, ServerMessage,
};

/// Wire size of the `Move` prediction extension when present:
/// tag + ack (see [`tags::PREDICT_EXT_TAG`]).
pub const MOVE_PREDICT_EXT_WIRE_BYTES: usize = 1 + 4;

/// Wire size of the `Reply` prediction extension when present:
/// tag + input_ack + perturb + vel + flags.
pub const REPLY_PREDICT_EXT_WIRE_BYTES: usize = 1 + 4 + 4 + 12 + 1;

/// Maximum duration a single move command may apply, in milliseconds
/// (Quake clamps client msec to 250).
pub const MAX_MOVE_MSEC: u8 = 250;

/// Maximum entity updates in one reply datagram (keeps replies within
/// a conventional MTU-ish budget; the server truncates by distance).
pub const MAX_ENTITIES_PER_REPLY: usize = 64;

/// Maximum broadcast events in one reply datagram.
pub const MAX_EVENTS_PER_REPLY: usize = 32;

/// Maximum removal notices in one delta-compressed reply.
pub const MAX_REMOVALS_PER_REPLY: usize = 64;

/// Maximum *newly appearing* entities in one delta-compressed reply.
/// Entities already in the client's baseline that changed are always
/// sent; a burst of fresh arrivals (connect, teleport, arena restore)
/// is windowed across consecutive replies instead, with the leftovers
/// carried over — the same smoothing removals get.
pub const MAX_ADDITIONS_PER_REPLY: usize = 32;

/// Upper bound on any encoded protocol datagram, in bytes. Every recv
/// buffer on the real-UDP path must be at least this large, and the
/// reply limits above are sized so that even a worst-case crowded-leaf
/// `Reply` fits (checked at compile time below).
pub const MAX_DATAGRAM: usize = 2048;

/// Encoded size of one [`EntityUpdate`]: id + kind + state + pos + yaw.
pub const ENTITY_UPDATE_WIRE_BYTES: usize = 2 + 1 + 1 + 12 + 4;
/// Encoded size of one [`GameEvent`]: kind + a + b + pos.
pub const GAME_EVENT_WIRE_BYTES: usize = 1 + 2 + 2 + 12;
/// Fixed part of a `Reply`: tag + client_id + seq + sent_at_echo +
/// frame + assigned_thread + origin + delta flag.
const REPLY_HEADER_WIRE_BYTES: usize = 1 + 4 + 4 + 8 + 4 + 1 + 12 + 1;
/// Encoded size of a `Disconnect` or `Bye`: tag + client_id.
const ID_ONLY_WIRE_BYTES: usize = 1 + 4;
/// Encoded size of a `Connect`: tag + client_id + arena.
const CONNECT_WIRE_BYTES: usize = 1 + 4 + 2;
/// Encoded size of a legacy `Move`: tag + client_id + seq + sent_at +
/// two angles + three impulses + buttons + msec.
const MOVE_WIRE_BYTES: usize = 1 + 4 + 4 + 8 + 2 * 4 + 3 * 4 + 1 + 1;
/// Encoded size of a `ConnectAck`: tag + client_id + spawn + arena.
const CONNECT_ACK_WIRE_BYTES: usize = 1 + 4 + 12 + 2;

/// Worst-case encoded *legacy* `Reply`: header plus the three
/// length-prefixed lists at their caps (no prediction trailer).
pub const MAX_REPLY_WIRE_BYTES: usize = REPLY_HEADER_WIRE_BYTES
    + (1 + MAX_ENTITIES_PER_REPLY * ENTITY_UPDATE_WIRE_BYTES)
    + (1 + MAX_REMOVALS_PER_REPLY * 2)
    + (1 + MAX_EVENTS_PER_REPLY * GAME_EVENT_WIRE_BYTES);

/// Worst-case encoded `Reply` toward a predicting client: the legacy
/// worst case plus the reconciliation trailer.
pub const MAX_PREDICT_REPLY_WIRE_BYTES: usize = MAX_REPLY_WIRE_BYTES + REPLY_PREDICT_EXT_WIRE_BYTES;

// Compile-time sanity on protocol limits.
const _: () = assert!(MAX_MOVE_MSEC >= 100);
const _: () = assert!(MAX_ENTITIES_PER_REPLY >= 32);
// Addition windowing narrows the entity list, never widens it, so the
// wire-size bound above is unaffected.
const _: () = assert!(MAX_ADDITIONS_PER_REPLY <= MAX_ENTITIES_PER_REPLY);
const _: () = assert!(MAX_EVENTS_PER_REPLY >= 16);
// The reply caps must keep every datagram within MAX_DATAGRAM, or the
// fixed-size recv buffers on the UDP path would truncate replies —
// including toward predicting clients, whose replies carry the trailer.
const _: () = assert!(MAX_REPLY_WIRE_BYTES <= MAX_DATAGRAM);
const _: () = assert!(MAX_PREDICT_REPLY_WIRE_BYTES <= MAX_DATAGRAM);
