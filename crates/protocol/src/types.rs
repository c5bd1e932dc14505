//! Protocol message types.

use crate::codec::{
    get_f32, get_u16, get_u32, get_u64, get_u8, get_vec3, CodecError, Decode, Encode, Fixed,
};
use crate::{
    CONNECT_ACK_WIRE_BYTES, CONNECT_WIRE_BYTES, ENTITY_UPDATE_WIRE_BYTES, GAME_EVENT_WIRE_BYTES,
    ID_ONLY_WIRE_BYTES, MAX_ENTITIES_PER_REPLY, MAX_EVENTS_PER_REPLY, MAX_MOVE_MSEC,
    MAX_REMOVALS_PER_REPLY, MOVE_PREDICT_EXT_WIRE_BYTES, MOVE_WIRE_BYTES, REPLY_HEADER_WIRE_BYTES,
    REPLY_PREDICT_EXT_WIRE_BYTES,
};
use parquake_math::Vec3;

/// Action-flag bits carried by a move command (paper §2.3 item iii).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Buttons(pub u8);

impl Buttons {
    pub const NONE: Buttons = Buttons(0);
    /// Fire the current weapon (long-range interaction).
    pub const ATTACK: u8 = 1 << 0;
    /// Jump.
    pub const JUMP: u8 = 1 << 1;
    /// Use / activate (switch backpack items etc.).
    pub const USE: u8 = 1 << 2;
    /// Throw an item at a distant target (long-range interaction of the
    /// "fully simulated" kind).
    pub const THROW: u8 = 1 << 3;

    #[inline]
    pub fn has(self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    #[inline]
    pub fn with(self, bit: u8) -> Buttons {
        Buttons(self.0 | bit)
    }

    /// Any long-range interaction requested?
    #[inline]
    pub fn long_range(self) -> bool {
        self.has(Buttons::ATTACK) || self.has(Buttons::THROW)
    }
}

/// The move command: the only request type that affects gameplay
/// (paper §2.3). One is sent per client frame (~30 ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveCmd {
    /// Client sequence number, echoed in the reply.
    pub seq: u32,
    /// Client clock when the command was sent (for response-time
    /// measurement; the original benchmarking harness did the same).
    pub sent_at: u64,
    /// View angles: pitch then yaw, degrees.
    pub pitch: f32,
    pub yaw: f32,
    /// Forward/side/up motion impulses in units/second (±320 walking).
    pub forward: f32,
    pub side: f32,
    pub up: f32,
    /// Action flags.
    pub buttons: Buttons,
    /// Milliseconds this command applies for (clamped to
    /// [`MAX_MOVE_MSEC`]).
    pub msec: u8,
    /// Client-side-prediction opt-in: the highest reply `input_ack`
    /// this client has consumed. `Some` rides in an optional trailing
    /// extension (see [`crate::PREDICT_EXT_TAG`]) and asks the server
    /// to echo per-slot input acks; `None` is a legacy client and
    /// encodes byte-identically to the pre-extension format.
    pub predict_ack: Option<u32>,
}

impl MoveCmd {
    /// A do-nothing move of `msec` milliseconds.
    pub fn idle(seq: u32, msec: u8) -> MoveCmd {
        MoveCmd {
            seq,
            sent_at: 0,
            pitch: 0.0,
            yaw: 0.0,
            forward: 0.0,
            side: 0.0,
            up: 0.0,
            buttons: Buttons::NONE,
            msec,
            predict_ack: None,
        }
    }

    /// Command duration in seconds, clamped like the original server.
    #[inline]
    pub fn duration_secs(&self) -> f32 {
        self.msec.min(MAX_MOVE_MSEC) as f32 / 1000.0
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMessage {
    /// Join the session. `arena` selects a world instance on multi-arena
    /// servers (0 lets a fill-first admission policy choose).
    Connect { client_id: u32, arena: u16 },
    /// A move command from `client_id`.
    Move { client_id: u32, cmd: MoveCmd },
    /// Leave the session.
    Disconnect { client_id: u32 },
}

use crate::tags::{TAG_CONNECT, TAG_DISCONNECT, TAG_MOVE};

/// Authoritative reconciliation state a predicting client rolls back
/// to; rides the optional [`crate::PREDICT_EXT_TAG`] trailer of a
/// `Reply`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplyPredict {
    /// Sequence number of the last move the server actually applied
    /// for this slot (dedup'd and in arrival order).
    pub input_ack: u32,
    /// Perturbation epoch: bumped whenever the slot's state changed in
    /// a way pure input replay cannot reproduce (input gaps, external
    /// pushes, checkpoint restore). The client's divergence oracle only
    /// fires when its recorded epoch matches.
    pub perturb: u32,
    /// Authoritative velocity after the acked move.
    pub vel: Vec3,
    /// Authoritative ground-contact flag after the acked move.
    pub on_ground: bool,
}

/// Append the optional prediction trailer of a `Move`. Canonical form:
/// a legacy (non-predicting) client encodes *nothing*, so old traffic
/// stays byte-identical; a predicting client always emits the trailer,
/// even at ack 0.
fn put_move_predict_ext(out: &mut Vec<u8>, ack: Option<u32>) {
    if let Some(ack) = ack {
        Fixed::<MOVE_PREDICT_EXT_WIRE_BYTES>::new()
            .u8(crate::PREDICT_EXT_TAG)
            .u32(ack)
            .finish(out);
    }
}

/// Consume the optional `Move` prediction trailer iff the next byte is
/// [`crate::PREDICT_EXT_TAG`]: absent ⇒ legacy (`None`), truncated ⇒
/// error, and any other leftover is not consumed, so `from_bytes`
/// reports it as [`CodecError::TrailingBytes`].
fn get_move_predict_ext(buf: &mut &[u8]) -> Result<Option<u32>, CodecError> {
    if buf.first() == Some(&crate::PREDICT_EXT_TAG) {
        let _ = get_u8(buf)?;
        Ok(Some(get_u32(buf)?))
    } else {
        Ok(None)
    }
}

/// Append the optional prediction trailer of a `Reply` (emitted only
/// toward predicting clients).
fn put_reply_predict_ext(out: &mut Vec<u8>, p: &Option<ReplyPredict>) {
    if let Some(p) = p {
        Fixed::<REPLY_PREDICT_EXT_WIRE_BYTES>::new()
            .u8(crate::PREDICT_EXT_TAG)
            .u32(p.input_ack)
            .u32(p.perturb)
            .vec3(p.vel)
            .u8(u8::from(p.on_ground))
            .finish(out);
    }
}

/// Consume the optional `Reply` prediction trailer (see
/// [`get_move_predict_ext`] for the compat contract).
fn get_reply_predict_ext(buf: &mut &[u8]) -> Result<Option<ReplyPredict>, CodecError> {
    if buf.first() == Some(&crate::PREDICT_EXT_TAG) {
        let _ = get_u8(buf)?;
        Ok(Some(ReplyPredict {
            input_ack: get_u32(buf)?,
            perturb: get_u32(buf)?,
            vel: get_vec3(buf)?,
            on_ground: get_u8(buf)? != 0,
        }))
    } else {
        Ok(None)
    }
}

impl Encode for ClientMessage {
    fn wire_len(&self) -> usize {
        match self {
            ClientMessage::Connect { .. } => CONNECT_WIRE_BYTES,
            ClientMessage::Move { cmd, .. } => {
                MOVE_WIRE_BYTES + cmd.predict_ack.map_or(0, |_| MOVE_PREDICT_EXT_WIRE_BYTES)
            }
            ClientMessage::Disconnect { .. } => ID_ONLY_WIRE_BYTES,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        match self {
            ClientMessage::Connect { client_id, arena } => {
                Fixed::<CONNECT_WIRE_BYTES>::new()
                    .u8(TAG_CONNECT)
                    .u32(*client_id)
                    .u16(*arena)
                    .finish(out);
            }
            ClientMessage::Move { client_id, cmd } => {
                Fixed::<MOVE_WIRE_BYTES>::new()
                    .u8(TAG_MOVE)
                    .u32(*client_id)
                    .u32(cmd.seq)
                    .u64(cmd.sent_at)
                    .f32(cmd.pitch)
                    .f32(cmd.yaw)
                    .f32(cmd.forward)
                    .f32(cmd.side)
                    .f32(cmd.up)
                    .u8(cmd.buttons.0)
                    .u8(cmd.msec)
                    .finish(out);
                put_move_predict_ext(out, cmd.predict_ack);
            }
            ClientMessage::Disconnect { client_id } => {
                put_id_only(out, TAG_DISCONNECT, *client_id);
            }
        }
    }
}

/// The messages that are a tag and a client id and nothing else.
fn put_id_only(out: &mut Vec<u8>, tag: u8, client_id: u32) {
    Fixed::<ID_ONLY_WIRE_BYTES>::new()
        .u8(tag)
        .u32(client_id)
        .finish(out);
}

impl Decode for ClientMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            TAG_CONNECT => Ok(ClientMessage::Connect {
                client_id: get_u32(buf)?,
                arena: get_u16(buf)?,
            }),
            TAG_MOVE => Ok(ClientMessage::Move {
                client_id: get_u32(buf)?,
                cmd: MoveCmd {
                    seq: get_u32(buf)?,
                    sent_at: get_u64(buf)?,
                    pitch: get_f32(buf)?,
                    yaw: get_f32(buf)?,
                    forward: get_f32(buf)?,
                    side: get_f32(buf)?,
                    up: get_f32(buf)?,
                    buttons: Buttons(get_u8(buf)?),
                    msec: get_u8(buf)?,
                    predict_ack: get_move_predict_ext(buf)?,
                },
            }),
            TAG_DISCONNECT => Ok(ClientMessage::Disconnect {
                client_id: get_u32(buf)?,
            }),
            t => Err(CodecError::BadTag("client message", t)),
        }
    }
}

/// What kind of thing an entity update describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityKind {
    Player,
    Item,
    Projectile,
    Teleporter,
}

impl EntityKind {
    fn to_u8(self) -> u8 {
        match self {
            EntityKind::Player => 0,
            EntityKind::Item => 1,
            EntityKind::Projectile => 2,
            EntityKind::Teleporter => 3,
        }
    }

    fn from_u8(v: u8) -> Result<EntityKind, CodecError> {
        Ok(match v {
            0 => EntityKind::Player,
            1 => EntityKind::Item,
            2 => EntityKind::Projectile,
            3 => EntityKind::Teleporter,
            t => return Err(CodecError::BadTag("entity kind", t)),
        })
    }
}

/// One visible entity's state in a reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntityUpdate {
    pub id: u16,
    pub kind: EntityKind,
    /// Generic state byte (alive/taken/in-flight…; kind-specific).
    pub state: u8,
    pub pos: Vec3,
    pub yaw: f32,
}

impl Encode for EntityUpdate {
    fn wire_len(&self) -> usize {
        ENTITY_UPDATE_WIRE_BYTES
    }

    fn encode(&self, out: &mut Vec<u8>) {
        Fixed::<ENTITY_UPDATE_WIRE_BYTES>::new()
            .u16(self.id)
            .u8(self.kind.to_u8())
            .u8(self.state)
            .vec3(self.pos)
            .f32(self.yaw)
            .finish(out);
    }
}

impl Decode for EntityUpdate {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EntityUpdate {
            id: get_u16(buf)?,
            kind: EntityKind::from_u8(get_u8(buf)?)?,
            state: get_u8(buf)?,
            pos: get_vec3(buf)?,
            yaw: get_f32(buf)?,
        })
    }
}

/// Broadcast event kinds (contents of the global state buffer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GameEventKind {
    Pickup,
    Teleport,
    Hit,
    Spawn,
    Sound,
}

impl GameEventKind {
    fn to_u8(self) -> u8 {
        match self {
            GameEventKind::Pickup => 0,
            GameEventKind::Teleport => 1,
            GameEventKind::Hit => 2,
            GameEventKind::Spawn => 3,
            GameEventKind::Sound => 4,
        }
    }

    fn from_u8(v: u8) -> Result<GameEventKind, CodecError> {
        Ok(match v {
            0 => GameEventKind::Pickup,
            1 => GameEventKind::Teleport,
            2 => GameEventKind::Hit,
            3 => GameEventKind::Spawn,
            4 => GameEventKind::Sound,
            t => return Err(CodecError::BadTag("event kind", t)),
        })
    }
}

/// A broadcast game event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GameEvent {
    pub kind: GameEventKind,
    /// Primary entity (e.g. the player who picked something up).
    pub a: u16,
    /// Secondary entity (e.g. the item).
    pub b: u16,
    pub pos: Vec3,
}

impl GameEvent {
    /// The event's wire bytes. A run of these, back to back, is what a
    /// [`ReplyView`] carries as its events.
    pub fn wire(&self) -> [u8; GAME_EVENT_WIRE_BYTES] {
        Fixed::<GAME_EVENT_WIRE_BYTES>::new()
            .u8(self.kind.to_u8())
            .u16(self.a)
            .u16(self.b)
            .vec3(self.pos)
            .bytes()
    }
}

impl Encode for GameEvent {
    fn wire_len(&self) -> usize {
        GAME_EVENT_WIRE_BYTES
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.wire());
    }
}

impl Decode for GameEvent {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(GameEvent {
            kind: GameEventKind::from_u8(get_u8(buf)?)?,
            a: get_u16(buf)?,
            b: get_u16(buf)?,
            pos: get_vec3(buf)?,
        })
    }
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMessage {
    /// Connection accepted; here is your spawn position. `arena` names
    /// the world instance the admission policy placed the client in.
    ConnectAck {
        client_id: u32,
        spawn: Vec3,
        arena: u16,
    },
    /// Reply to the client's latest move (one per server frame).
    Reply {
        client_id: u32,
        /// Echo of the last processed move's sequence number.
        seq: u32,
        /// Echo of that move's `sent_at` (response-time measurement).
        sent_at_echo: u64,
        /// Server frame number.
        frame: u32,
        /// Server thread index the client should address next (used by
        /// the dynamic region-affine assignment extension; static
        /// servers echo the handling thread).
        assigned_thread: u8,
        /// The client's own position after the move (authoritative).
        origin: Vec3,
        /// Whether `entities` is a delta against the previous reply
        /// (QuakeWorld-style compression) or the full visible set.
        delta: bool,
        /// Visible entities (changed-only when `delta`).
        entities: Vec<EntityUpdate>,
        /// Entities no longer visible (delta mode only).
        removed: Vec<u16>,
        /// Broadcast events since the last reply.
        events: Vec<GameEvent>,
        /// Reconciliation trailer for predicting clients (the optional
        /// [`crate::PREDICT_EXT_TAG`] extension; `None` for legacy
        /// clients keeps the wire byte-identical).
        predict: Option<ReplyPredict>,
    },
    /// The server is shutting down or kicked this client.
    Bye { client_id: u32 },
}

use crate::tags::{TAG_ACK, TAG_BYE, TAG_REPLY};

/// A `Reply` whose lists are borrowed and whose events arrive already
/// encoded: the one encoder of a `Reply`. The server writes each reply
/// straight from its interest set, delta output and event log through
/// this view; [`ServerMessage::Reply`] encodes by lending its fields to
/// one. Lists longer than their caps are cut to them, as the owned
/// message always was.
#[derive(Clone, Copy, Debug)]
pub struct ReplyView<'a> {
    pub client_id: u32,
    pub seq: u32,
    pub sent_at_echo: u64,
    pub frame: u32,
    pub assigned_thread: u8,
    pub origin: Vec3,
    pub delta: bool,
    pub entities: &'a [EntityUpdate],
    pub removed: &'a [u16],
    /// Whole events in wire form ([`GameEvent::wire`]), back to back.
    pub events: &'a [u8],
    pub predict: Option<ReplyPredict>,
}

/// Wire bytes of the most events one reply carries.
const MAX_EVENT_RUN_BYTES: usize = MAX_EVENTS_PER_REPLY * GAME_EVENT_WIRE_BYTES;

/// Wire length of a `Reply` with lists of these lengths (before the
/// caps cut them) and, if `predict`, the trailer.
fn reply_wire_len(entities: usize, removed: usize, events: usize, predict: bool) -> usize {
    REPLY_HEADER_WIRE_BYTES
        + (1 + entities.min(MAX_ENTITIES_PER_REPLY) * ENTITY_UPDATE_WIRE_BYTES)
        + (1 + removed.min(MAX_REMOVALS_PER_REPLY) * 2)
        + (1 + events.min(MAX_EVENTS_PER_REPLY) * GAME_EVENT_WIRE_BYTES)
        + usize::from(predict) * REPLY_PREDICT_EXT_WIRE_BYTES
}

impl Encode for ReplyView<'_> {
    fn wire_len(&self) -> usize {
        reply_wire_len(
            self.entities.len(),
            self.removed.len(),
            self.events.len() / GAME_EVENT_WIRE_BYTES,
            self.predict.is_some(),
        )
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        let start = out.len();
        debug_assert!(self.entities.len() <= MAX_ENTITIES_PER_REPLY);
        let entities = &self.entities[..self.entities.len().min(MAX_ENTITIES_PER_REPLY)];
        // The header and the first list's length prefix.
        Fixed::<{ REPLY_HEADER_WIRE_BYTES + 1 }>::new()
            .u8(TAG_REPLY)
            .u32(self.client_id)
            .u32(self.seq)
            .u64(self.sent_at_echo)
            .u32(self.frame)
            .u8(self.assigned_thread)
            .vec3(self.origin)
            .u8(u8::from(self.delta))
            .u8(entities.len() as u8)
            .finish(out);
        for e in entities {
            e.encode(out);
        }
        debug_assert!(self.removed.len() <= MAX_REMOVALS_PER_REPLY);
        let removed = &self.removed[..self.removed.len().min(MAX_REMOVALS_PER_REPLY)];
        out.push(removed.len() as u8);
        for r in removed {
            out.extend_from_slice(&r.to_le_bytes());
        }
        debug_assert!(self.events.len() <= MAX_EVENT_RUN_BYTES);
        debug_assert_eq!(self.events.len() % GAME_EVENT_WIRE_BYTES, 0);
        let events = &self.events[..self.events.len().min(MAX_EVENT_RUN_BYTES)];
        out.push((events.len() / GAME_EVENT_WIRE_BYTES) as u8);
        out.extend_from_slice(events);
        put_reply_predict_ext(out, &self.predict);
        debug_assert!(
            out.len() - start <= crate::MAX_DATAGRAM,
            "encoded Reply exceeds MAX_DATAGRAM ({} bytes)",
            out.len() - start
        );
    }
}

impl Encode for ServerMessage {
    fn wire_len(&self) -> usize {
        match self {
            ServerMessage::ConnectAck { .. } => CONNECT_ACK_WIRE_BYTES,
            ServerMessage::Reply {
                entities,
                removed,
                events,
                predict,
                ..
            } => reply_wire_len(
                entities.len(),
                removed.len(),
                events.len(),
                predict.is_some(),
            ),
            ServerMessage::Bye { .. } => ID_ONLY_WIRE_BYTES,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        match self {
            ServerMessage::ConnectAck {
                client_id,
                spawn,
                arena,
            } => {
                Fixed::<CONNECT_ACK_WIRE_BYTES>::new()
                    .u8(TAG_ACK)
                    .u32(*client_id)
                    .vec3(*spawn)
                    .u16(*arena)
                    .finish(out);
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
                // Lend the fields to the one encoder, the events
                // encoded into a stack buffer first.
                debug_assert!(events.len() <= MAX_EVENTS_PER_REPLY);
                let events = &events[..events.len().min(MAX_EVENTS_PER_REPLY)];
                let mut run = [0u8; MAX_EVENT_RUN_BYTES];
                for (at, e) in run.chunks_exact_mut(GAME_EVENT_WIRE_BYTES).zip(events) {
                    at.copy_from_slice(&e.wire());
                }
                ReplyView {
                    client_id: *client_id,
                    seq: *seq,
                    sent_at_echo: *sent_at_echo,
                    frame: *frame,
                    assigned_thread: *assigned_thread,
                    origin: *origin,
                    delta: *delta,
                    entities,
                    removed,
                    events: &run[..events.len() * GAME_EVENT_WIRE_BYTES],
                    predict: *predict,
                }
                .encode(out);
            }
            ServerMessage::Bye { client_id } => put_id_only(out, TAG_BYE, *client_id),
        }
    }
}

impl Decode for ServerMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            TAG_ACK => Ok(ServerMessage::ConnectAck {
                client_id: get_u32(buf)?,
                spawn: get_vec3(buf)?,
                arena: get_u16(buf)?,
            }),
            TAG_REPLY => {
                let client_id = get_u32(buf)?;
                let seq = get_u32(buf)?;
                let sent_at_echo = get_u64(buf)?;
                let frame = get_u32(buf)?;
                let assigned_thread = get_u8(buf)?;
                let origin = get_vec3(buf)?;
                let delta = get_u8(buf)? != 0;
                let n_ent = get_u8(buf)? as usize;
                if n_ent > MAX_ENTITIES_PER_REPLY {
                    return Err(CodecError::BadLength("entities", n_ent));
                }
                let mut entities = Vec::with_capacity(n_ent);
                for _ in 0..n_ent {
                    entities.push(EntityUpdate::decode(buf)?);
                }
                let n_rm = get_u8(buf)? as usize;
                if n_rm > MAX_REMOVALS_PER_REPLY {
                    return Err(CodecError::BadLength("removals", n_rm));
                }
                let mut removed = Vec::with_capacity(n_rm);
                for _ in 0..n_rm {
                    removed.push(get_u16(buf)?);
                }
                let n_ev = get_u8(buf)? as usize;
                if n_ev > MAX_EVENTS_PER_REPLY {
                    return Err(CodecError::BadLength("events", n_ev));
                }
                let mut events = Vec::with_capacity(n_ev);
                for _ in 0..n_ev {
                    events.push(GameEvent::decode(buf)?);
                }
                let predict = get_reply_predict_ext(buf)?;
                Ok(ServerMessage::Reply {
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
                })
            }
            TAG_BYE => Ok(ServerMessage::Bye {
                client_id: get_u32(buf)?,
            }),
            t => Err(CodecError::BadTag("server message", t)),
        }
    }
}

/// What a server message's header says: its variant and client id, and
/// a `ConnectAck`'s arena. Read by a router that forwards the payload
/// without needing its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerHeader {
    ConnectAck { client_id: u32, arena: u16 },
    Reply { client_id: u32 },
    Bye { client_id: u32 },
}

impl ServerHeader {
    /// Read `payload`'s header. A `ConnectAck` or `Bye` must be exactly
    /// its wire size, as `ServerMessage::from_bytes` demands. A `Reply`
    /// must hold its fixed part (header and the three list counts);
    /// its lists and trailer are not read, so a `Reply` cut inside them
    /// passes here though it would fail a full decode.
    pub fn peek(payload: &[u8]) -> Result<ServerHeader, CodecError> {
        let mut buf = payload;
        let tag = get_u8(&mut buf)?;
        let (len, exact) = match tag {
            TAG_ACK => (CONNECT_ACK_WIRE_BYTES, true),
            TAG_REPLY => (REPLY_HEADER_WIRE_BYTES + 3, false),
            TAG_BYE => (ID_ONLY_WIRE_BYTES, true),
            t => return Err(CodecError::BadTag("server message", t)),
        };
        if payload.len() < len {
            return Err(CodecError::Truncated);
        }
        if exact && payload.len() > len {
            return Err(CodecError::TrailingBytes(payload.len() - len));
        }
        let client_id = get_u32(&mut buf)?;
        Ok(match tag {
            TAG_ACK => ServerHeader::ConnectAck {
                client_id,
                arena: u16::from_le_bytes([payload[len - 2], payload[len - 1]]),
            },
            TAG_REPLY => ServerHeader::Reply { client_id },
            _ => ServerHeader::Bye { client_id },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::vec3::vec3;

    fn sample_move() -> ClientMessage {
        ClientMessage::Move {
            client_id: 7,
            cmd: MoveCmd {
                seq: 99,
                sent_at: 123_456_789,
                pitch: -10.0,
                yaw: 135.5,
                forward: 320.0,
                side: -320.0,
                up: 0.0,
                buttons: Buttons(Buttons::ATTACK | Buttons::JUMP),
                msec: 30,
                predict_ack: None,
            },
        }
    }

    #[test]
    fn client_message_roundtrips() {
        for msg in [
            ClientMessage::Connect {
                client_id: 1,
                arena: 0,
            },
            ClientMessage::Connect {
                client_id: 1,
                arena: 3,
            },
            sample_move(),
            ClientMessage::Disconnect { client_id: 2 },
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(ClientMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn server_message_roundtrips() {
        let reply = ServerMessage::Reply {
            client_id: 7,
            seq: 99,
            sent_at_echo: 123,
            frame: 42,
            assigned_thread: 3,
            origin: vec3(1.0, 2.0, 3.0),
            delta: true,
            removed: vec![9, 10],
            entities: vec![
                EntityUpdate {
                    id: 5,
                    kind: EntityKind::Player,
                    state: 1,
                    pos: vec3(10.0, 20.0, 30.0),
                    yaw: 90.0,
                },
                EntityUpdate {
                    id: 6,
                    kind: EntityKind::Item,
                    state: 0,
                    pos: vec3(-1.0, -2.0, -3.0),
                    yaw: 0.0,
                },
            ],
            events: vec![GameEvent {
                kind: GameEventKind::Pickup,
                a: 5,
                b: 6,
                pos: vec3(0.0, 0.0, 0.0),
            }],
            predict: None,
        };
        let bytes = reply.to_bytes();
        assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), reply);

        // With the reconciliation trailer attached.
        let predicted = match reply {
            ServerMessage::Reply { .. } => {
                let mut r = reply.clone();
                if let ServerMessage::Reply { predict, .. } = &mut r {
                    *predict = Some(ReplyPredict {
                        input_ack: 99,
                        perturb: 3,
                        vel: vec3(120.0, -40.0, -800.0),
                        on_ground: true,
                    });
                }
                r
            }
            _ => unreachable!(),
        };
        let bytes = predicted.to_bytes();
        assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), predicted);

        for msg in [
            ServerMessage::ConnectAck {
                client_id: 3,
                spawn: vec3(5.0, 6.0, 7.0),
                arena: 0,
            },
            ServerMessage::ConnectAck {
                client_id: 3,
                spawn: vec3(5.0, 6.0, 7.0),
                arena: 2,
            },
            ServerMessage::Bye { client_id: 4 },
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert_eq!(
            ClientMessage::from_bytes(&[250, 0, 0, 0, 0]),
            Err(CodecError::BadTag("client message", 250))
        );
        assert_eq!(
            ServerMessage::from_bytes(&[7]),
            Err(CodecError::BadTag("server message", 7))
        );
    }

    #[test]
    fn truncated_message_is_rejected() {
        let bytes = sample_move().to_bytes();
        for cut in 1..bytes.len() {
            assert!(
                ClientMessage::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ClientMessage::Connect {
            client_id: 1,
            arena: 0,
        }
        .to_bytes();
        bytes.push(0);
        assert_eq!(
            ClientMessage::from_bytes(&bytes),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn predict_extension_is_canonical_and_backward_compatible() {
        // A legacy (None) move encodes to exactly the pre-extension
        // bytes; round-trip of that wire stays None.
        let legacy = sample_move();
        let old_wire = legacy.to_bytes();
        assert_eq!(ClientMessage::from_bytes(&old_wire).unwrap(), legacy);
        // A predicting client appends exactly tag + u32 — ack 0 too,
        // because presence is the opt-in signal.
        for ack in [0u32, 98] {
            let predicting = match legacy.clone() {
                ClientMessage::Move { client_id, mut cmd } => {
                    cmd.predict_ack = Some(ack);
                    ClientMessage::Move { client_id, cmd }
                }
                _ => unreachable!(),
            };
            let wire = predicting.to_bytes();
            assert_eq!(
                wire.len(),
                old_wire.len() + crate::MOVE_PREDICT_EXT_WIRE_BYTES
            );
            assert_eq!(&wire[..old_wire.len()], &old_wire[..]);
            assert_eq!(wire[old_wire.len()], crate::PREDICT_EXT_TAG);
            assert_eq!(ClientMessage::from_bytes(&wire).unwrap(), predicting);
            // Truncated trailer: rejected, not silently legacy.
            for cut in old_wire.len() + 1..wire.len() {
                assert!(
                    ClientMessage::from_bytes(&wire[..cut]).is_err(),
                    "cut at {cut} decoded"
                );
            }
            // Bytes after a complete trailer are trailing garbage.
            let mut over = wire.clone();
            over.push(7);
            assert_eq!(
                ClientMessage::from_bytes(&over),
                Err(CodecError::TrailingBytes(1))
            );
        }
    }

    #[test]
    fn reply_predict_extension_roundtrips_and_rejects_truncation() {
        let bare = ServerMessage::Reply {
            client_id: 1,
            seq: 5,
            sent_at_echo: 0,
            frame: 2,
            assigned_thread: 0,
            origin: vec3(0.0, 0.0, 0.0),
            delta: false,
            entities: vec![],
            removed: vec![],
            events: vec![],
            predict: None,
        };
        let old_wire = bare.to_bytes();
        let mut trailered = bare.clone();
        if let ServerMessage::Reply { predict, .. } = &mut trailered {
            *predict = Some(ReplyPredict {
                input_ack: 5,
                perturb: 0,
                vel: vec3(0.0, 0.0, -800.0),
                on_ground: false,
            });
        }
        let wire = trailered.to_bytes();
        assert_eq!(
            wire.len(),
            old_wire.len() + crate::REPLY_PREDICT_EXT_WIRE_BYTES
        );
        assert_eq!(&wire[..old_wire.len()], &old_wire[..]);
        assert_eq!(ServerMessage::from_bytes(&wire).unwrap(), trailered);
        for cut in old_wire.len() + 1..wire.len() {
            assert!(
                ServerMessage::from_bytes(&wire[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn oversized_entity_count_is_rejected() {
        use crate::codec::{put_f32, put_u32, put_u64, put_u8};
        // Hand-craft a reply header claiming 200 entities.
        let mut bytes = Vec::new();
        put_u8(&mut bytes, 101);
        put_u32(&mut bytes, 1); // client
        put_u32(&mut bytes, 1); // seq
        put_u64(&mut bytes, 0); // echo
        put_u32(&mut bytes, 0); // frame
        put_u8(&mut bytes, 0); // assigned thread
        put_f32(&mut bytes, 0.0);
        put_f32(&mut bytes, 0.0);
        put_f32(&mut bytes, 0.0);
        put_u8(&mut bytes, 0); // delta flag
        put_u8(&mut bytes, 200); // entity count over limit
        assert_eq!(
            ServerMessage::from_bytes(&bytes),
            Err(CodecError::BadLength("entities", 200))
        );
    }

    #[test]
    fn worst_case_reply_fits_max_datagram() {
        // A crowded-leaf reply with every list at its cap must stay
        // within MAX_DATAGRAM — the recv buffers on the UDP path are
        // sized from it.
        let reply = ServerMessage::Reply {
            client_id: u32::MAX,
            seq: u32::MAX,
            sent_at_echo: u64::MAX,
            frame: u32::MAX,
            assigned_thread: u8::MAX,
            origin: vec3(1.0e9, -1.0e9, 1.0e9),
            delta: true,
            entities: (0..MAX_ENTITIES_PER_REPLY)
                .map(|i| EntityUpdate {
                    id: i as u16,
                    kind: EntityKind::Projectile,
                    state: 255,
                    pos: vec3(1.0, 2.0, 3.0),
                    yaw: 180.0,
                })
                .collect(),
            removed: (0..MAX_REMOVALS_PER_REPLY).map(|i| i as u16).collect(),
            events: (0..MAX_EVENTS_PER_REPLY)
                .map(|i| GameEvent {
                    kind: GameEventKind::Hit,
                    a: i as u16,
                    b: i as u16,
                    pos: vec3(4.0, 5.0, 6.0),
                })
                .collect(),
            predict: None,
        };
        let bytes = reply.to_bytes();
        assert_eq!(bytes.len(), crate::MAX_REPLY_WIRE_BYTES);
        assert!(bytes.len() <= crate::MAX_DATAGRAM);
        assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), reply);

        // Toward a predicting client the same worst case gains exactly
        // the trailer and must still fit the recv buffers.
        let mut trailered = reply.clone();
        if let ServerMessage::Reply { predict, .. } = &mut trailered {
            *predict = Some(ReplyPredict {
                input_ack: u32::MAX,
                perturb: u32::MAX,
                vel: vec3(1.0e9, -1.0e9, 1.0e9),
                on_ground: true,
            });
        }
        let bytes = trailered.to_bytes();
        assert_eq!(bytes.len(), crate::MAX_PREDICT_REPLY_WIRE_BYTES);
        assert!(bytes.len() <= crate::MAX_DATAGRAM);
        assert_eq!(ServerMessage::from_bytes(&bytes).unwrap(), trailered);
    }

    #[test]
    fn buttons_flag_logic() {
        let b = Buttons::NONE.with(Buttons::ATTACK);
        assert!(b.has(Buttons::ATTACK));
        assert!(!b.has(Buttons::JUMP));
        assert!(b.long_range());
        assert!(Buttons(Buttons::THROW).long_range());
        assert!(!Buttons(Buttons::JUMP).long_range());
    }

    #[test]
    fn move_duration_clamps() {
        let mut cmd = MoveCmd::idle(0, 30);
        assert!((cmd.duration_secs() - 0.030).abs() < 1e-6);
        cmd.msec = 255;
        assert!((cmd.duration_secs() - 0.250).abs() < 1e-6);
    }
}
