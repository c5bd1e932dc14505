//! The wire-tag registry: every tag byte on any parquake wire, in one
//! place.
//!
//! A tag byte is the first thing a decoder reads, and two messages
//! sharing a byte silently alias each other — the decode succeeds and
//! hands back a *plausible* wrong message, which is far worse than a
//! `BadTag` error. Scattered `const TAG_*` declarations made that
//! collision a cross-crate diff-review problem; this module makes it a
//! lint problem instead. `parquake-lockcheck`'s wire-tag-registry pass
//! rejects any `TAG`-named `u8` constant declared in
//! `protocol`/`server`/`arena` outside this file, and rejects value
//! collisions inside it (the unit test below double-checks at test
//! time).
//!
//! Layout of the byte space:
//!
//! * **1–3** — client → server game messages.
//! * **100–102** — server → client game messages.
//! * **200–204** — arena → directory lifecycle notices
//!   ([`crate::types::ClientMessage`] tags live far from these so a
//!   misdelivered datagram decodes to a clean `BadTag` instead of a
//!   plausible message).
//! * **0xA8** — the prediction extension trailer, deliberately distinct
//!   from every message tag so a stray extension can never be mistaken
//!   for a message.

/// Client `Connect` (join the session).
pub const TAG_CONNECT: u8 = 1;
/// Client `Move` (one §2.3 move command).
pub const TAG_MOVE: u8 = 2;
/// Client `Disconnect` (leave the session).
pub const TAG_DISCONNECT: u8 = 3;

/// Server `ConnectAck` (join accepted, spawn position follows).
pub const TAG_ACK: u8 = 100;
/// Server `Reply` (per-client world update).
pub const TAG_REPLY: u8 = 101;
/// Server `Bye` (kick / shutdown notice).
pub const TAG_BYE: u8 = 102;

/// Lifecycle: a `Connect` claimed a fresh slot.
pub const TAG_CONNECTED: u8 = 200;
/// Lifecycle: a client's `Disconnect` was honoured.
pub const TAG_DISCONNECTED: u8 = 201;
/// Lifecycle: the inactivity timeout evicted a silent client.
pub const TAG_RECLAIMED: u8 = 202;
/// Lifecycle: a `Connect` found the home block full.
pub const TAG_REJECTED: u8 = 203;
/// Lifecycle: the director moved a live slot to another arena.
pub const TAG_MIGRATED: u8 = 204;

/// Tag byte opening the optional prediction extension that may trail a
/// `Move` or `Reply`. On a `Move` it is `[PREDICT_EXT_TAG, ack: u32
/// LE]` (the highest reply input-ack the client has consumed) and marks
/// the client as predicting; on a `Reply` it is `[PREDICT_EXT_TAG,
/// input_ack: u32, perturb: u32, vel: 3×f32, flags: u8]` — the
/// last-applied input seq, the server's perturbation counter, and the
/// authoritative velocity/ground state the client rolls back to. Absent
/// ⇒ legacy traffic, byte-identical to the pre-extension format.
pub const PREDICT_EXT_TAG: u8 = 0xA8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tags_are_distinct() {
        let tags = [
            ("TAG_CONNECT", TAG_CONNECT),
            ("TAG_MOVE", TAG_MOVE),
            ("TAG_DISCONNECT", TAG_DISCONNECT),
            ("TAG_ACK", TAG_ACK),
            ("TAG_REPLY", TAG_REPLY),
            ("TAG_BYE", TAG_BYE),
            ("TAG_CONNECTED", TAG_CONNECTED),
            ("TAG_DISCONNECTED", TAG_DISCONNECTED),
            ("TAG_RECLAIMED", TAG_RECLAIMED),
            ("TAG_REJECTED", TAG_REJECTED),
            ("TAG_MIGRATED", TAG_MIGRATED),
            ("PREDICT_EXT_TAG", PREDICT_EXT_TAG),
        ];
        for (i, (na, a)) in tags.iter().enumerate() {
            for (nb, b) in &tags[i + 1..] {
                assert_ne!(a, b, "wire tags {na} and {nb} collide on {a:#04x}");
            }
        }
    }

    #[test]
    fn tag_families_keep_their_distance() {
        // Client, server and lifecycle families live in separated bands
        // so a misrouted datagram fails decoding instead of aliasing.
        for client in [TAG_CONNECT, TAG_MOVE, TAG_DISCONNECT] {
            assert!(client < 100);
        }
        for server in [TAG_ACK, TAG_REPLY, TAG_BYE] {
            assert!((100..200).contains(&server));
        }
        for lifecycle in [
            TAG_CONNECTED,
            TAG_DISCONNECTED,
            TAG_RECLAIMED,
            TAG_REJECTED,
            TAG_MIGRATED,
        ] {
            assert!(lifecycle >= 200);
        }
    }
}
