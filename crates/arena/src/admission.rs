//! Admission control: which arena does a connecting client join?
//!
//! The directory's front door decodes each `Connect`, consults the
//! policy with the client's requested arena (0 when the wire carried no
//! extension) and the current occupancy estimate, and forwards the
//! connect to the chosen arena's runtime. Placement is *sticky*: a
//! retried `Connect` from a client the directory has already placed
//! goes back to the same arena, so lost acks never split a session
//! across worlds.

/// How the directory places new clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Pack arenas in index order: the first arena with a free slot
    /// wins. Produces full arenas and empty tails (good for reaping
    /// idle worlds).
    FillFirst,
    /// Honour the client's explicitly requested arena when it is in
    /// range and has room; otherwise fall back to fill-first.
    Explicit,
}

impl AdmissionPolicy {
    /// Choose an arena for a client requesting `requested`, given the
    /// per-arena occupancy estimates, the common per-arena capacity,
    /// and the live mask (an elastic directory keeps cold/reaped cells
    /// in its tables; only `live[k]` arenas accept placements). An arena
    /// being `draining` for reaping is closed too: placing into it would
    /// undo the drain. `None` means every open arena is full and the
    /// connect is refused — an elastic director treats that as spawn
    /// pressure.
    pub fn place(
        &self,
        requested: u16,
        occupancy: &[u32],
        capacity: u32,
        live: &[bool],
        draining: Option<usize>,
    ) -> Option<usize> {
        let open = |k: usize| {
            draining != Some(k) && live.get(k).copied().unwrap_or(false) && occupancy[k] < capacity
        };
        let fill_first = || (0..occupancy.len()).find(|&k| open(k));
        match self {
            AdmissionPolicy::FillFirst => fill_first(),
            AdmissionPolicy::Explicit => {
                let req = requested as usize;
                if req < occupancy.len() && open(req) {
                    Some(req)
                } else {
                    fill_first()
                }
            }
        }
    }
}

/// Routing counters published by the directory's front door when the
/// run ends.
// lockcheck: identity(placed == departed + resident)
#[derive(Clone, Debug, Default)]
pub struct AdmissionStats {
    /// Connects forwarded to an arena (fresh placements + sticky
    /// repeats).
    pub routed: u64,
    /// Of `routed`, connects forwarded per arena.
    pub per_arena: Vec<u64>,
    /// Every datagram the director handed to arena `k`'s port —
    /// connect routes plus stray forwards. This is the director's leg
    /// of each arena's accounting identity (what landed on arena `k`'s
    /// queue that did not come straight from a client).
    pub forwarded_per_arena: Vec<u64>,
    /// Of `routed`, repeats sent back to an existing placement.
    pub sticky: u64,
    /// Connects that carried a non-zero explicit arena request.
    pub explicit_requests: u64,
    /// Connects refused because every arena was full.
    pub rejected_full: u64,
    /// Non-connect messages at the front door forwarded to the
    /// sender's placed arena (strays from clients that ignore the
    /// ack's arena id).
    pub forwarded_other: u64,
    /// Non-connect messages from clients the directory never placed —
    /// dropped.
    pub dropped_unknown: u64,
    /// Datagrams that failed to decode — dropped, counted, exactly like
    /// a server thread's `decode_rejected`.
    pub decode_rejected: u64,
    /// Clients ever placed into an arena (fresh placements plus
    /// `Connected` notices for clients that joined at an arena
    /// directly, bypassing the front door).
    pub placed: u64,
    /// Clients whose placement ended, however it ended: front-door
    /// `Disconnect`, a `Disconnected`/`Reclaimed`/`Rejected` lifecycle
    /// notice, or an LRU book eviction. The population identity
    /// `placed == departed + resident` holds by construction.
    pub departed: u64,
    /// Clients still booked when the run ended (`book.len()`).
    pub resident: u64,
    /// `Connected` lifecycle notices drained.
    pub notice_connected: u64,
    /// `Disconnected` lifecycle notices drained.
    pub notice_disconnected: u64,
    /// `Reclaimed` lifecycle notices drained.
    pub notice_reclaimed: u64,
    /// `Rejected` lifecycle notices drained.
    pub notice_rejected: u64,
    /// `Migrated` lifecycle notices drained from the control port
    /// (the director's own handoffs rebook the ledger directly and do
    /// not pass through here).
    pub notice_migrated: u64,
    /// Notices about clients the book no longer holds (e.g. a
    /// front-door Disconnect already evicted the entry before the
    /// arena's own `Disconnected` notice arrived) — no-ops.
    pub notice_stale: u64,
    /// Book entries evicted by the LRU capacity bound (memory-pressure
    /// safety valve; counts toward `departed`).
    pub book_evicted: u64,
}

impl AdmissionStats {
    /// Datagrams the director drained from the front door. Every
    /// drained datagram lands in exactly one of these counters, so a
    /// gateway can close its front-door accounting identity against
    /// this sum.
    pub fn drained(&self) -> u64 {
        self.decode_rejected
            + self.routed
            + self.rejected_full
            + self.forwarded_other
            + self.dropped_unknown
    }

    /// The population accounting identity: every client ever placed
    /// either departed (disconnect, reclaim, reject notice, eviction)
    /// or is still resident. A directory whose ledger drifts (the
    /// pre-lifecycle bug) cannot close this.
    pub fn population_closed(&self) -> bool {
        self.placed == self.departed + self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIVE3: &[bool] = &[true, true, true];

    #[test]
    fn fill_first_packs_in_index_order() {
        let p = AdmissionPolicy::FillFirst;
        assert_eq!(p.place(0, &[3, 0, 0], 4, LIVE3, None), Some(0));
        assert_eq!(p.place(0, &[4, 0, 0], 4, LIVE3, None), Some(1));
        // An explicit request is ignored by this policy.
        assert_eq!(p.place(2, &[0, 0, 0], 4, LIVE3, None), Some(0));
        assert_eq!(p.place(0, &[4, 4, 4], 4, LIVE3, None), None);
    }

    #[test]
    fn explicit_honours_in_range_requests_with_room() {
        let p = AdmissionPolicy::Explicit;
        assert_eq!(p.place(2, &[0, 0, 1], 4, LIVE3, None), Some(2));
        // No extension on the wire ⇒ requested 0 ⇒ arena 0: old
        // clients land where the pre-arena server would put them.
        assert_eq!(p.place(0, &[1, 0, 0], 4, LIVE3, None), Some(0));
        // Full or out-of-range requests fall back to fill-first.
        assert_eq!(p.place(2, &[1, 0, 4], 4, LIVE3, None), Some(0));
        assert_eq!(p.place(9, &[4, 1, 0], 4, LIVE3, None), Some(1));
        assert_eq!(p.place(1, &[4, 4, 4], 4, LIVE3, None), None);
    }

    #[test]
    fn dead_arenas_are_never_placed_into() {
        // An elastic directory's cold and reaped cells are present in
        // the occupancy table but masked out of placement.
        let live = &[true, false, true];
        assert_eq!(
            AdmissionPolicy::FillFirst.place(0, &[4, 0, 1], 4, live, None),
            Some(2)
        );
        // An explicit request for a dead arena falls back to fill-first.
        assert_eq!(
            AdmissionPolicy::Explicit.place(1, &[1, 0, 0], 4, live, None),
            Some(0)
        );
        // Every live arena full ⇒ refusal, even with empty dead cells.
        assert_eq!(
            AdmissionPolicy::FillFirst.place(0, &[4, 0, 4], 4, live, None),
            None
        );
    }

    #[test]
    fn a_draining_arena_is_closed_to_admission() {
        // Arena 1 is the emptiest, but it is being drained for reaping:
        // every policy must refuse to refill it.
        for p in [AdmissionPolicy::FillFirst, AdmissionPolicy::Explicit] {
            let k = p.place(1, &[4, 1, 6], 8, LIVE3, Some(1));
            assert_ne!(k, Some(1), "{p:?} refilled the draining arena");
        }
        // Drain everywhere-full still refuses rather than reopening
        // the source.
        assert_eq!(
            AdmissionPolicy::FillFirst.place(0, &[8, 1, 8], 8, LIVE3, Some(1)),
            None
        );
    }

    #[test]
    fn population_identity_closes_by_construction() {
        let stats = AdmissionStats {
            placed: 10,
            departed: 7,
            resident: 3,
            ..AdmissionStats::default()
        };
        assert!(stats.population_closed());
        let drifted = AdmissionStats {
            placed: 10,
            departed: 5,
            resident: 3,
            ..AdmissionStats::default()
        };
        assert!(!drifted.population_closed());
    }
}
