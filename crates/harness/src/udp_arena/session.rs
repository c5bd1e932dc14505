//! The gateway's session book: everything it knows of each client, and
//! the only code that changes it.
//!
//! A [`Session`] is born when an admitted `Connect` opens it and dies
//! when a sweep evicts it; in between its fields move only through the
//! transitions below.
//!
//! | transition | caused by | effect |
//! |---|---|---|
//! | open | admitted `Connect`, unknown id | bound to the sender, no placement |
//! | admit | any datagram of a known id | address and arrival refreshed, or refused |
//! | book | `ConnectAck`, `Connected`, `Migrated` | placement set |
//! | bye | `Bye` | placement cleared, address kept |
//! | end-at(arena) | `Disconnected`, `Reclaimed` | placement cleared if it names that arena |
//! | refuse | `Rejected` | nothing |
//! | evict | a sweep | session removed if placement-less and silent for one grace |
//!
//! A session with a placement is never evicted, and every admitted
//! datagram refreshes `last_seen`, so a client that is playing or still
//! sending keeps its session. A stripe is swept only by a `Connect` that
//! opens a new session there, under the same stripe lock, and only once
//! the stripe has doubled since its last sweep: the sweep's cost is
//! amortised O(1) per open, and the book holds at most about twice the
//! placed sessions plus the Connects admitted within one grace.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::GwPlacement;

/// No stripe is swept below this many sessions.
const SWEEP_FLOOR: usize = 64;

/// Stripes of the book (a power of two).
const STRIPES: usize = 4;

/// Everything the gateway knows of one client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Session {
    /// The bound endpoint: replies go here, requests must come from
    /// here.
    addr: SocketAddr,
    /// Last admitted arrival — what the rebind grace and eviction are
    /// measured from.
    last_seen: Instant,
    /// Where `Move`/`Disconnect` datagrams go; `None` until the first
    /// ack (or lifecycle notice) books it, and again after a `Bye`.
    placement: Option<GwPlacement>,
}

/// What one outbound payload does to its client's session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// `ConnectAck`, `Connected` or `Migrated`: the client is served
    /// at this placement.
    Book(GwPlacement),
    /// `Bye`: the session is over server-side; its address stays, so a
    /// late reply still finds the client.
    Bye,
    /// `Disconnected` / `Reclaimed` from this arena: cleared only if the
    /// placement names it — a late notice from an old placement must
    /// not end a newer one elsewhere.
    EndAt(u16),
    /// `Rejected`: the director turned the client away; nothing changes.
    Refuse,
}

impl Session {
    /// Open: an admitted `Connect` for an unknown id.
    fn open(from: SocketAddr, now: Instant) -> Session {
        Session {
            addr: from,
            last_seen: now,
            placement: None,
        }
    }

    /// Admit: may a datagram from `from` pass as this session's? If so
    /// the bound address and arrival time are brought up to date.
    ///
    /// * `Connect` from the bound address refreshes it (handshake
    ///   retry); from a *different* address it rebinds only once the
    ///   bound endpoint has been silent for `grace` (NAT rebinding),
    ///   else it is refused — a live session cannot be hijacked by
    ///   guessing its client id. A rebind keeps the placement.
    /// * `Move`/`Disconnect` must come from the bound address.
    fn admit(&mut self, is_connect: bool, from: SocketAddr, now: Instant, grace: Duration) -> bool {
        let rebind = is_connect && now.duration_since(self.last_seen) >= grace;
        if self.addr != from && !rebind {
            return false;
        }
        self.addr = from;
        self.last_seen = now;
        true
    }

    /// Book, bye, end-at or refuse, as an outbound payload says (a
    /// `Reply`, `None`, changes nothing either).
    fn step(&mut self, t: Option<Transition>) {
        match t {
            Some(Transition::Book(p)) => self.placement = Some(p),
            Some(Transition::Bye) => self.placement = None,
            Some(Transition::EndAt(a)) => self.placement = self.placement.filter(|p| p.arena != a),
            Some(Transition::Refuse) | None => {}
        }
    }

    /// The eviction rule: no placement, and silent for one grace.
    fn evictable(&self, now: Instant, grace: Duration) -> bool {
        self.placement.is_none() && now.duration_since(self.last_seen) >= grace
    }
}

/// One stripe of the book.
#[derive(Default)]
struct Stripe {
    sessions: HashMap<u32, Session>,
    /// How many sessions the last sweep left.
    swept: usize,
}

impl Stripe {
    /// Evict: drop every evictable session, once the stripe has
    /// doubled since its last sweep (and holds at least the floor).
    fn evict(&mut self, now: Instant, grace: Duration) {
        if self.sessions.len() >= (2 * self.swept).max(SWEEP_FLOOR) {
            self.sessions.retain(|_, s| !s.evictable(now, grace));
            self.swept = self.sessions.len();
        }
    }
}

/// The client-keyed session book, split over [`STRIPES`] stripes so the
/// inbound pump and the threads sending replies through the sink seldom
/// contend on one lock. Each method takes one stripe lock.
pub(crate) struct SessionBook {
    stripes: [Mutex<Stripe>; STRIPES],
    /// The rebind grace, which is also how long a placement-less
    /// session may stay silent before a sweep may evict it.
    grace: Duration,
}

impl SessionBook {
    pub(crate) fn new(grace: Duration) -> SessionBook {
        SessionBook {
            stripes: std::array::from_fn(|_| Mutex::default()),
            grace,
        }
    }

    /// Run `f` under the client's stripe lock (Fibonacci-hashed onto a
    /// power-of-two stripe count).
    fn with<R>(&self, cid: u32, f: impl FnOnce(&mut Stripe) -> R) -> R {
        let h = (cid.wrapping_mul(0x9E37_79B9) >> 16) as usize;
        let stripe = &self.stripes[h & (STRIPES - 1)];
        let mut stripe = stripe.lock().expect("a pump panicked holding this stripe"); // lockcheck: allow(raw-sync: striped gateway book shared with the OS-thread pump outside the fabric)
        f(&mut stripe)
    }

    /// Admit one inbound datagram of client `cid`; a `Connect` for an
    /// unknown id opens its session, sweeping the stripe first. `None`
    /// if refused, else the placement to route by.
    pub(crate) fn admit(
        &self,
        cid: u32,
        is_connect: bool,
        from: SocketAddr,
        now: Instant,
    ) -> Option<Option<GwPlacement>> {
        self.with(cid, |stripe| {
            if let Some(s) = stripe.sessions.get_mut(&cid) {
                return s
                    .admit(is_connect, from, now, self.grace)
                    .then_some(s.placement);
            }
            if !is_connect {
                return None;
            }
            stripe.evict(now, self.grace);
            stripe.sessions.insert(cid, Session::open(from, now));
            Some(None)
        })
    }

    /// Apply what an outbound payload does to client `cid`'s session
    /// and return the client's address; `None` if it has no session.
    pub(crate) fn outbound(&self, cid: u32, t: Option<Transition>) -> Option<SocketAddr> {
        self.with(cid, |stripe| {
            let s = stripe.sessions.get_mut(&cid)?;
            s.step(t);
            Some(s.addr)
        })
    }
}

#[cfg(test)]
impl Session {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn last_seen(&self) -> Instant {
        self.last_seen
    }

    pub(crate) fn placement(&self) -> Option<GwPlacement> {
        self.placement
    }
}

#[cfg(test)]
impl SessionBook {
    pub(crate) fn get(&self, cid: u32) -> Option<Session> {
        self.with(cid, |stripe| stripe.sessions.get(&cid).copied())
    }

    /// Sessions held, over every stripe.
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap().sessions.len()) // lockcheck: allow(raw-sync: single-threaded test inspection of the session book)
            .sum()
    }

    /// Stripes holding at least one session.
    pub(crate) fn stripes_used(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| !s.lock().unwrap().sessions.is_empty()) // lockcheck: allow(raw-sync: single-threaded test inspection of the session book)
            .count()
    }
}
