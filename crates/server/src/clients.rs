//! The client/slot table.
//!
//! One slot per player. Slots are written by different threads at
//! different points of the frame, but never concurrently:
//!
//! * the owning thread (static block assignment) writes during *its*
//!   request and reply phases,
//! * the frame master transitions `Pending → Active` and applies
//!   disconnects during the world phase, when every other thread is
//!   barred from the slot by the phase invariants.
//!
//! A slot's broadcast events are not copied into the slot: every slot
//! reads the server's one [`EventLog`] through its own cursor.
//!
//! As elsewhere, this protocol is invisible to the borrow checker, so
//! slots live in `UnsafeCell`s behind a minimal API.

use std::cell::UnsafeCell;

use parquake_fabric::{Nanos, PortId};
use parquake_protocol::{EntityUpdate, GameEvent, GAME_EVENT_WIRE_BYTES, MAX_EVENTS_PER_REPLY};

/// Cap on a client's unsent broadcast events (oldest dropped first),
/// mirroring the original's bounded reliable-message buffers.
pub const MAX_PENDING_EVENTS: usize = 128;

/// The server's broadcast events, oldest first: the current frame's
/// global state buffer (paper §3.3) and as many events of earlier
/// frames as a client's window can still reach. Each event is kept
/// decoded and as its wire bytes, encoded once when appended, so a
/// reply copies its events as one run of bytes.
///
/// Positions are sequence numbers counted from the first event ever
/// appended. A slot's cursor is the position of the first event it has
/// not been sent. The window rule ([`EventLog::window`]) makes the log
/// read exactly like a per-slot queue capped at
/// [`MAX_PENDING_EVENTS`] that drops its oldest event on overflow.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    /// Position of `events[0]`.
    base: u64,
    /// Position of the current frame's first event.
    frame_start: u64,
    events: Vec<GameEvent>,
    /// `events` in wire form, [`GAME_EVENT_WIRE_BYTES`] each.
    wire: Vec<u8>,
}

impl EventLog {
    /// Position one past the newest event.
    pub fn head(&self) -> u64 {
        self.base + self.events.len() as u64
    }

    /// Position of the current frame's first event: the cursor of a
    /// session that joins the frame, which owes it every event of the
    /// frame, those appended before it joined included.
    pub fn frame_start(&self) -> u64 {
        self.frame_start
    }

    /// Append events to the current frame.
    pub fn append(&mut self, batch: &[GameEvent]) {
        self.events.extend_from_slice(batch);
        self.wire.extend(batch.iter().flat_map(|e| e.wire()));
    }

    /// The current frame's events.
    pub fn frame(&self) -> &[GameEvent] {
        &self.events[(self.frame_start - self.base) as usize..]
    }

    /// End the frame: the next event opens the next frame. Events no
    /// window can reach any more are dropped; the newest
    /// [`MAX_PENDING_EVENTS`] stay.
    pub fn end_frame(&mut self) {
        self.frame_start = self.head();
        let stale = self.events.len().saturating_sub(MAX_PENDING_EVENTS);
        self.events.drain(..stale);
        self.wire.drain(..stale * GAME_EVENT_WIRE_BYTES);
        self.base += stale as u64;
    }

    /// The events a reply to a slot at `cursor` carries, in wire form,
    /// and the slot's cursor after it. The window starts at the cursor,
    /// or at the oldest of the newest [`MAX_PENDING_EVENTS`] if the
    /// cursor fell further behind, and holds at most
    /// [`MAX_EVENTS_PER_REPLY`] events.
    pub fn window(&self, cursor: u64) -> (&[u8], u64) {
        let head = self.head();
        let start = cursor.max(head.saturating_sub(MAX_PENDING_EVENTS as u64));
        let end = (start + MAX_EVENTS_PER_REPLY as u64).min(head);
        let byte = |at: u64| (at - self.base) as usize * GAME_EVENT_WIRE_BYTES;
        (&self.wire[byte(start)..byte(end)], end)
    }
}

/// Connection state of a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    Empty,
    /// Connect received; the next world phase will spawn the player.
    Pending,
    /// In the game.
    Active,
}

/// One player slot.
#[derive(Debug)]
pub struct Slot {
    pub state: SlotState,
    pub client_id: u32,
    /// Where replies go.
    pub reply_port: PortId,
    /// Thread currently responsible for this slot's replies: under
    /// static assignment the connect-time thread forever; under the
    /// dynamic region-affine extension, the thread that most recently
    /// processed a request for the slot.
    pub owner: u32,
    /// Thread the client is being steered to (sent in replies).
    pub desired_thread: u32,
    /// Send a ConnectAck in the next reply phase.
    pub needs_ack: bool,
    /// Disconnect requested; the next world phase clears the slot.
    pub leaving: bool,
    /// Move requests processed for this slot in the current frame.
    pub requests_this_frame: u32,
    /// Sequence number of the most recent processed move.
    pub last_seq: u32,
    /// `sent_at` echo of the most recent processed move.
    pub last_sent_at: u64,
    /// Fabric time of the last datagram accepted from this client
    /// (Connect or Move); drives the inactivity timeout.
    pub last_active: Nanos,
    /// [`EventLog`] position of the first broadcast event this client
    /// has not been sent (owner-thread access only, reply phase; set
    /// when the session becomes Active or is reinstated).
    pub event_cursor: u64,
    /// Last entity state acked to this client, sorted by id (delta
    /// compression baseline; owner-thread access only, reply phase).
    pub baseline: Vec<EntityUpdate>,
    /// Reply scratch: which `baseline` entries the reply being built
    /// still sees.
    pub(crate) in_view: Vec<bool>,
    /// Whether this client opted into prediction (its `Move`s carry the
    /// input-seq trailer). Sticky once seen; replies to the slot then
    /// carry the reconciliation trailer.
    pub predicts: bool,
    /// Sequence number of the last *applied* move from a predicting
    /// client (0 = none yet). Lower-or-equal seqs are dropped as
    /// duplicates, jumps count as gaps.
    pub input_ack: u32,
    /// Perturbation epoch echoed to the client: bumped whenever this
    /// slot's state changed in a way pure input replay cannot reproduce
    /// (input gaps, external displacement caught by the shadow,
    /// checkpoint restores).
    pub input_perturb: u32,
    /// Reconciliation shadow: the pure movement kernel's (pos, vel,
    /// on_ground) after the applied inputs. Compared to authoritative
    /// state at reply time — any difference is a perturbation. `None`
    /// until the first trailered move (and after restores).
    pub predict_shadow: Option<(parquake_math::Vec3, parquake_math::Vec3, bool)>,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            state: SlotState::Empty,
            client_id: 0,
            reply_port: 0,
            owner: 0,
            desired_thread: 0,
            needs_ack: false,
            leaving: false,
            requests_this_frame: 0,
            last_seq: 0,
            last_sent_at: 0,
            last_active: 0,
            event_cursor: 0,
            baseline: Vec::new(),
            in_view: Vec::new(),
            predicts: false,
            input_ack: 0,
            input_perturb: 0,
            predict_shadow: None,
        }
    }

    /// Empty the slot: every field goes back to [`Slot::empty`]'s
    /// value, so the next client installed here inherits nothing from
    /// the last one — no delta baseline, prediction opt-in, input ack
    /// or sequence echo. The baseline keeps its allocation.
    pub fn vacate(&mut self) {
        let mut baseline = std::mem::take(&mut self.baseline);
        let in_view = std::mem::take(&mut self.in_view);
        baseline.clear();
        *self = Slot {
            baseline,
            in_view,
            ..Slot::empty()
        };
    }
}

/// The table of all player slots.
pub struct ClientTable {
    slots: Vec<UnsafeCell<Slot>>,
}

// SAFETY: access is serialized by the frame-phase protocol described
// in the module docs.
unsafe impl Sync for ClientTable {}
unsafe impl Send for ClientTable {}

impl ClientTable {
    pub fn new(capacity: usize) -> ClientTable {
        ClientTable {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Slot::empty()))
                .collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether any slot still holds a session (is not `Empty`).
    pub fn occupied(&self) -> bool {
        (0..self.capacity()).any(|i| self.slot(i).state != SlotState::Empty)
    }

    /// The slot holding `client_id`'s session (Pending or Active). A
    /// client holds at most one: a `Connect` re-acks the slot this
    /// finds instead of claiming another.
    pub fn find(&self, client_id: u32) -> Option<usize> {
        (0..self.capacity()).find(|&i| {
            let slot = self.slot(i);
            slot.state != SlotState::Empty && slot.client_id == client_id
        })
    }

    /// The first `Empty` slot in `range`.
    pub fn first_empty(&self, range: std::ops::Range<usize>) -> Option<usize> {
        range
            .into_iter()
            .find(|&i| self.slot(i).state == SlotState::Empty)
    }

    /// Access a slot. The caller must hold the right to access it under
    /// the phase protocol (owning thread in its phases, master during
    /// the world phase).
    #[allow(clippy::mut_from_ref)]
    pub fn slot(&self, idx: usize) -> &mut Slot {
        // SAFETY: protocol — see module docs.
        unsafe { &mut *self.slots[idx].get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::Vec3;
    use parquake_protocol::GameEventKind;

    fn ev(a: u16) -> GameEvent {
        GameEvent {
            kind: GameEventKind::Sound,
            a,
            b: 0,
            pos: Vec3::ZERO,
        }
    }

    #[test]
    fn slots_start_empty() {
        let t = ClientTable::new(4);
        assert_eq!(t.capacity(), 4);
        for i in 0..4 {
            assert_eq!(t.slot(i).state, SlotState::Empty);
        }
    }

    #[test]
    fn slot_transitions() {
        let t = ClientTable::new(2);
        let s = t.slot(0);
        s.state = SlotState::Pending;
        s.client_id = 42;
        s.reply_port = 9;
        assert_eq!(t.slot(0).client_id, 42);
        t.slot(0).state = SlotState::Active;
        assert_eq!(t.slot(0).state, SlotState::Active);
        assert_eq!(t.slot(1).state, SlotState::Empty);
    }

    /// Wire bytes of `events`, back to back.
    fn wire(events: &[GameEvent]) -> Vec<u8> {
        events.iter().flat_map(GameEvent::wire).collect()
    }

    #[test]
    fn a_lagging_cursor_reads_the_newest_events_only() {
        let mut log = EventLog::default();
        let batch: Vec<GameEvent> = (0..MAX_PENDING_EVENTS + 10).map(|i| ev(i as u16)).collect();
        log.append(&batch);
        let (run, next) = log.window(0);
        // The first ten were dropped.
        assert_eq!(run, wire(&batch[10..10 + MAX_EVENTS_PER_REPLY]));
        assert_eq!(next, 10 + MAX_EVENTS_PER_REPLY as u64);
        log.end_frame();
        assert_eq!(log.frame(), &[] as &[GameEvent]);
        assert_eq!(log.window(next).0, wire(&batch[next as usize..][..32]));
    }

    /// The per-slot queue the log replaced: one frame's batch pushed
    /// one event at a time, shifting the whole queue down to drop the
    /// oldest.
    fn push_one_by_one(queue: &mut Vec<GameEvent>, batch: &[GameEvent]) {
        for &ev in batch {
            if queue.len() >= MAX_PENDING_EVENTS {
                queue.remove(0);
            }
            queue.push(ev);
        }
    }

    /// A reply reads from the log what it took from the front of the
    /// bounded queue, for queues below, at and above the point where
    /// the cap bites, for batches smaller and larger than the cap, and
    /// across consecutive frames with a reply in between.
    #[test]
    fn the_window_reads_what_the_bounded_queue_held() {
        let cap = MAX_PENDING_EVENTS;
        for queued in [0, 1, cap - 67, cap - 1, cap] {
            for batch_len in [0, 1, 66, 67, 68, cap - 1, cap, cap + 1, 3 * cap] {
                let mut log = EventLog::default();
                let mut cursor = log.frame_start();
                let mut reference = Vec::new();
                let mut next = 0u16;
                for n in [queued, batch_len, 5, batch_len] {
                    let b: Vec<GameEvent> = (0..n)
                        .map(|_| {
                            next += 1;
                            ev(next)
                        })
                        .collect();
                    log.append(&b);
                    push_one_by_one(&mut reference, &b);
                    let take = reference.len().min(MAX_EVENTS_PER_REPLY);
                    let (run, after) = log.window(cursor);
                    let taken: Vec<GameEvent> = reference.drain(..take).collect();
                    assert_eq!(run, wire(&taken), "queued {queued}, batch {batch_len}");
                    cursor = after;
                    log.end_frame();
                }
            }
        }
    }
}
