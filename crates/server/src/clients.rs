//! The client/slot table.
//!
//! One slot per player. Slots are written by different threads at
//! different points of the frame, but never concurrently:
//!
//! * the owning thread (static block assignment) writes during *its*
//!   request and reply phases,
//! * the frame master transitions `Pending → Active` and applies
//!   disconnects during the world phase, when every other thread is
//!   barred from the slot by the phase invariants,
//! * the broadcast-event queue (`events`) is additionally protected by
//!   a per-slot fabric lock, because the master may append to slots of
//!   non-participating threads during the reply phase (paper §3.3).
//!
//! As elsewhere, this protocol is invisible to the borrow checker, so
//! slots live in `UnsafeCell`s behind a minimal API.

use std::cell::UnsafeCell;

use std::collections::{HashMap, VecDeque};

use parquake_fabric::{Nanos, PortId};
use parquake_protocol::{EntityUpdate, GameEvent};

/// Cap on queued broadcast events per client (oldest dropped first),
/// mirroring the original's bounded reliable-message buffers.
pub const MAX_PENDING_EVENTS: usize = 128;

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
    /// Queued broadcast events, oldest first (guarded by the slot's
    /// fabric lock). A ring: the reply phase appends a frame's batch at
    /// the back and each reply takes from the front, neither shifting
    /// what stays queued.
    pub events: VecDeque<GameEvent>,
    /// Last entity state acked to this client (delta compression
    /// baseline; owner-thread access only, reply phase).
    pub baseline: HashMap<u16, EntityUpdate>,
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
            events: VecDeque::new(),
            baseline: HashMap::new(),
            predicts: false,
            input_ack: 0,
            input_perturb: 0,
            predict_shadow: None,
        }
    }

    /// Queue one frame's broadcast events, dropping the oldest on
    /// overflow: the queue ends up holding what pushing `batch` one
    /// event at a time against the cap would leave, but the front is
    /// trimmed once and the batch copied once.
    pub fn push_events(&mut self, batch: &[GameEvent]) {
        // Only the newest MAX_PENDING_EVENTS of the batch can survive.
        let batch = &batch[batch.len().saturating_sub(MAX_PENDING_EVENTS)..];
        let overflow = (self.events.len() + batch.len()).saturating_sub(MAX_PENDING_EVENTS);
        self.events.drain(..overflow);
        // Grow like a `Vec` would, but never past the cap: doubling
        // towards it overshoots (a ring of 120 asked for 128 becomes
        // 240), on every slot of a full server.
        let needed = self.events.len() + batch.len();
        if self.events.capacity() < needed {
            let target = needed
                .max(2 * self.events.capacity())
                .min(MAX_PENDING_EVENTS);
            self.events.reserve_exact(target - self.events.len());
        }
        self.events.extend(batch);
    }
}

/// The table of all player slots.
pub struct ClientTable {
    slots: Vec<UnsafeCell<Slot>>,
}

// SAFETY: access is serialized by the frame-phase protocol and the
// per-slot fabric locks described in the module docs.
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

    /// Access a slot. The caller must hold the right to access it under
    /// the phase protocol (owning thread in its phases, master during
    /// the world phase, or the slot's fabric lock for `events`).
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

    #[test]
    fn event_queue_caps_and_drops_oldest() {
        let t = ClientTable::new(1);
        let s = t.slot(0);
        for i in 0..(MAX_PENDING_EVENTS + 10) {
            s.push_events(&[ev(i as u16)]);
        }
        assert_eq!(s.events.len(), MAX_PENDING_EVENTS);
        // The first ten were dropped.
        assert_eq!(s.events[0].a, 10);
    }

    /// The queue discipline `push_events` replaced: one event at a
    /// time, shifting the whole queue down to drop the oldest.
    fn push_one_by_one(queue: &mut Vec<GameEvent>, batch: &[GameEvent]) {
        for &ev in batch {
            if queue.len() >= MAX_PENDING_EVENTS {
                queue.remove(0);
            }
            queue.push(ev);
        }
    }

    /// A batch leaves the queue exactly as the same events pushed one
    /// by one would, for queues below, at and above the point where
    /// the cap bites, for batches smaller and larger than the cap, and
    /// across consecutive batches with replies draining in between.
    #[test]
    fn batched_push_equals_one_by_one() {
        let cap = MAX_PENDING_EVENTS;
        for queued in [0, 1, cap - 67, cap - 1, cap] {
            for batch_len in [0, 1, 66, 67, 68, cap - 1, cap, cap + 1, 3 * cap] {
                let t = ClientTable::new(1);
                let slot = t.slot(0);
                let mut reference = Vec::new();
                let mut next = 0u16;
                let mut batch = |n: usize| -> Vec<GameEvent> {
                    (0..n)
                        .map(|_| {
                            next += 1;
                            ev(next)
                        })
                        .collect()
                };
                for n in [queued, batch_len, 5, batch_len] {
                    let b = batch(n);
                    slot.push_events(&b);
                    push_one_by_one(&mut reference, &b);
                    assert!(
                        slot.events.iter().eq(reference.iter()),
                        "queued {queued}, batch {batch_len}"
                    );
                    assert!(slot.events.len() <= cap);
                    // A reply takes some from the front.
                    let take = slot.events.len().min(32);
                    assert!(slot.events.drain(..take).eq(reference.drain(..take)));
                }
            }
        }
    }
}
