//! Lifecycle notifications from an arena runtime to its directory.
//!
//! A multi-arena director places clients but, until this protocol, never
//! learned when a placement *ended* anywhere but its own front door: the
//! server-side inactivity reclaim and at-arena `Disconnect`s were
//! invisible, so the director's occupancy ledger drifted full. Each
//! server thread now reports the four population-changing events on a
//! best-effort control port ([`crate::ServerConfig::lifecycle_port`]):
//!
//! * [`LifecycleEvent::Connected`] — a `Connect` claimed a fresh slot
//!   (carries the owning thread so out-of-band traffic can be routed to
//!   the slot's home block).
//! * [`LifecycleEvent::Disconnected`] — a client's `Disconnect` was
//!   honoured and its player despawned.
//! * [`LifecycleEvent::Reclaimed`] — the inactivity timeout evicted a
//!   silent client (a `Bye` was sent).
//! * [`LifecycleEvent::Rejected`] — a `Connect` found the thread's home
//!   block full and was turned away.
//! * [`LifecycleEvent::Migrated`] — the director moved a live slot to
//!   another arena (emitted by the directory itself, not a server
//!   thread, so downstream listeners — the UDP gateway's placement
//!   book, tests — learn about rehoming through the same channel).
//!
//! Notices are fire-and-forget and cost-free (they model an in-process
//! queue, not network traffic), so enabling them cannot perturb the
//! simulated timing of the game path; a standalone server simply leaves
//! `lifecycle_port` unset.

use parquake_fabric::Nanos;
use parquake_protocol::codec::{
    get_u16, get_u32, get_u64, get_u8, put_u16, put_u32, put_u64, put_u8,
};
use parquake_protocol::tags::{
    TAG_CONNECTED, TAG_DISCONNECTED, TAG_MIGRATED, TAG_RECLAIMED, TAG_REJECTED,
};
use parquake_protocol::{CodecError, Decode, Encode};

/// One population-changing event inside an arena runtime.
///
/// Tags 200–204 (declared in the central wire-tag registry,
/// [`parquake_protocol::tags`]) live far from the client (1–3) and
/// server (100–102) message tags, so a misdelivered datagram decodes
/// to a clean `BadTag` instead of a plausible message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// A `Connect` claimed a fresh slot on `thread`'s home block.
    Connected {
        arena: u16,
        client_id: u32,
        /// Server thread owning the claimed slot (static assignment).
        thread: u16,
    },
    /// A front-of-house `Disconnect` reached the arena and despawned
    /// the player.
    Disconnected { arena: u16, client_id: u32 },
    /// The inactivity timeout reclaimed the slot at fabric time `at`.
    Reclaimed {
        arena: u16,
        client_id: u32,
        /// When the reclaim ran (directory linger clocks key off this).
        at: Nanos,
    },
    /// A `Connect` was refused because the home block was full.
    Rejected { arena: u16, client_id: u32 },
    /// The director rehomed a live slot from `from_arena` to
    /// `to_arena` (cross-arena live migration).
    Migrated {
        from_arena: u16,
        to_arena: u16,
        client_id: u32,
        /// Server thread owning the slot at the destination.
        thread: u16,
    },
}

impl LifecycleEvent {
    /// The arena the event happened in — for a migration, the arena
    /// the client now lives in (the destination).
    pub fn arena(&self) -> u16 {
        match self {
            LifecycleEvent::Connected { arena, .. }
            | LifecycleEvent::Disconnected { arena, .. }
            | LifecycleEvent::Reclaimed { arena, .. }
            | LifecycleEvent::Rejected { arena, .. } => *arena,
            LifecycleEvent::Migrated { to_arena, .. } => *to_arena,
        }
    }

    /// The client the event is about.
    pub fn client_id(&self) -> u32 {
        match self {
            LifecycleEvent::Connected { client_id, .. }
            | LifecycleEvent::Disconnected { client_id, .. }
            | LifecycleEvent::Reclaimed { client_id, .. }
            | LifecycleEvent::Rejected { client_id, .. }
            | LifecycleEvent::Migrated { client_id, .. } => *client_id,
        }
    }
}

impl Encode for LifecycleEvent {
    fn wire_len(&self) -> usize {
        let own_fields = match self {
            LifecycleEvent::Disconnected { .. } | LifecycleEvent::Rejected { .. } => 0,
            LifecycleEvent::Connected { .. } => 2,
            LifecycleEvent::Reclaimed { .. } => 8,
            LifecycleEvent::Migrated { .. } => 2 + 2,
        };
        // tag + arena + client_id, then the variant's own fields.
        1 + 2 + 4 + own_fields
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        match self {
            LifecycleEvent::Connected {
                arena,
                client_id,
                thread,
            } => {
                put_u8(out, TAG_CONNECTED);
                put_u16(out, *arena);
                put_u32(out, *client_id);
                put_u16(out, *thread);
            }
            LifecycleEvent::Disconnected { arena, client_id } => {
                put_u8(out, TAG_DISCONNECTED);
                put_u16(out, *arena);
                put_u32(out, *client_id);
            }
            LifecycleEvent::Reclaimed {
                arena,
                client_id,
                at,
            } => {
                put_u8(out, TAG_RECLAIMED);
                put_u16(out, *arena);
                put_u32(out, *client_id);
                put_u64(out, *at);
            }
            LifecycleEvent::Rejected { arena, client_id } => {
                put_u8(out, TAG_REJECTED);
                put_u16(out, *arena);
                put_u32(out, *client_id);
            }
            LifecycleEvent::Migrated {
                from_arena,
                to_arena,
                client_id,
                thread,
            } => {
                put_u8(out, TAG_MIGRATED);
                put_u16(out, *from_arena);
                put_u16(out, *to_arena);
                put_u32(out, *client_id);
                put_u16(out, *thread);
            }
        }
    }
}

impl Decode for LifecycleEvent {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            TAG_CONNECTED => Ok(LifecycleEvent::Connected {
                arena: get_u16(buf)?,
                client_id: get_u32(buf)?,
                thread: get_u16(buf)?,
            }),
            TAG_DISCONNECTED => Ok(LifecycleEvent::Disconnected {
                arena: get_u16(buf)?,
                client_id: get_u32(buf)?,
            }),
            TAG_RECLAIMED => Ok(LifecycleEvent::Reclaimed {
                arena: get_u16(buf)?,
                client_id: get_u32(buf)?,
                at: get_u64(buf)?,
            }),
            TAG_REJECTED => Ok(LifecycleEvent::Rejected {
                arena: get_u16(buf)?,
                client_id: get_u32(buf)?,
            }),
            TAG_MIGRATED => Ok(LifecycleEvent::Migrated {
                from_arena: get_u16(buf)?,
                to_arena: get_u16(buf)?,
                client_id: get_u32(buf)?,
                thread: get_u16(buf)?,
            }),
            t => Err(CodecError::BadTag("lifecycle event", t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_roundtrips() {
        let events = [
            LifecycleEvent::Connected {
                arena: 3,
                client_id: 0xDEAD_BEEF,
                thread: 2,
            },
            LifecycleEvent::Disconnected {
                arena: 0,
                client_id: 7,
            },
            LifecycleEvent::Reclaimed {
                arena: 65535,
                client_id: u32::MAX,
                at: 123_456_789_000,
            },
            LifecycleEvent::Rejected {
                arena: 1,
                client_id: 42,
            },
            LifecycleEvent::Migrated {
                from_arena: 2,
                to_arena: 0,
                client_id: 9_001,
                thread: 1,
            },
        ];
        for ev in events {
            let bytes = ev.to_bytes();
            let back = LifecycleEvent::from_bytes(&bytes).unwrap();
            assert_eq!(ev, back);
            assert_eq!(ev.arena(), back.arena());
            assert_eq!(ev.client_id(), back.client_id());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = LifecycleEvent::Rejected {
            arena: 1,
            client_id: 42,
        }
        .to_bytes();
        bytes.push(0);
        assert!(matches!(
            LifecycleEvent::from_bytes(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn game_tags_do_not_decode_as_lifecycle() {
        // A stray client Connect (tag 1) must not alias a lifecycle event.
        for tag in [1u8, 2, 3, 100, 101, 102] {
            let bytes = [tag, 0, 0, 0, 0, 0, 0];
            assert!(matches!(
                LifecycleEvent::from_bytes(&bytes),
                Err(CodecError::BadTag("lifecycle event", t)) if t == tag
            ));
        }
    }
}
