//! Per-shard gateway accounting.
//!
//! The sharded UDP gateway runs one inbound pump per shard socket;
//! every datagram a pump reads must be attributed to exactly one fate
//! so that losing a datagram inside the gateway is impossible without
//! the books refusing to close. Each pump owns a [`GatewayLane`]
//! (no sharing, no locks); the run report keeps the per-shard lanes
//! *and* their sum, and both levels must close.

/// Fate accounting for one gateway shard's inbound pump.
///
/// Closing identity: everything read off the socket is rejected,
/// dropped by fault injection, or forwarded into the fabric — and
/// fault duplication only ever adds to `forwarded`, never to
/// `datagrams_in`.
// lockcheck: identity(datagrams_in + fault_duplicated == decode_rejected + spoof_rejected + arena_unknown + fault_dropped + forwarded)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayLane {
    /// Which shard socket this lane counts (0-based).
    pub shard: usize,
    /// Datagrams read off this shard's socket.
    pub datagrams_in: u64,
    /// Datagrams that failed protocol decode.
    pub decode_rejected: u64,
    /// Datagrams whose source address failed admission.
    pub spoof_rejected: u64,
    /// Decoded requests whose placement named a missing arena.
    pub arena_unknown: u64,
    /// Datagrams the fault lottery swallowed.
    pub fault_dropped: u64,
    /// Extra fabric deliveries minted by fault duplication.
    pub fault_duplicated: u64,
    /// Datagrams forwarded into the fabric (front + arena ports),
    /// including duplicated copies.
    pub forwarded: u64,
    /// Subset of `forwarded` that went to the directory front port.
    pub to_front: u64,
    /// Datagrams received via a batched `recvmmsg` (beyond the one
    /// blocking read that triggered the batch).
    pub batched_recvs: u64,
    /// Datagrams sent via a batched `sendmmsg`.
    pub batched_sends: u64,
    /// Replies written back to client sockets by this shard's
    /// outbound pump.
    pub datagrams_out: u64,
    /// Client-bound payloads whose client has no session in the
    /// gateway's book (nothing is retained: counted when drained).
    pub replies_unroutable: u64,
}

impl GatewayLane {
    /// A fresh lane for shard `shard`.
    pub fn new(shard: usize) -> GatewayLane {
        GatewayLane {
            shard,
            ..GatewayLane::default()
        }
    }

    /// Prove the shard's fate identity: every datagram read (plus each
    /// duplicate the fault lottery minted) is accounted for by exactly
    /// one rejection, drop, or forward.
    pub fn accounting_closed(&self) -> bool {
        self.datagrams_in + self.fault_duplicated
            == self.decode_rejected
                + self.spoof_rejected
                + self.arena_unknown
                + self.fault_dropped
                + self.forwarded
            && self.to_front <= self.forwarded
    }

    /// Fold another lane's counters into this one (shard index of the
    /// receiver is kept — used to build the aggregate lane).
    pub fn absorb(&mut self, other: &GatewayLane) {
        self.datagrams_in += other.datagrams_in;
        self.decode_rejected += other.decode_rejected;
        self.spoof_rejected += other.spoof_rejected;
        self.arena_unknown += other.arena_unknown;
        self.fault_dropped += other.fault_dropped;
        self.fault_duplicated += other.fault_duplicated;
        self.forwarded += other.forwarded;
        self.to_front += other.to_front;
        self.batched_recvs += other.batched_recvs;
        self.batched_sends += other.batched_sends;
        self.datagrams_out += other.datagrams_out;
        self.replies_unroutable += other.replies_unroutable;
    }

    /// Sum a set of shard lanes into one aggregate lane (shard index
    /// `usize::MAX` marks it as the aggregate, not a real socket).
    pub fn aggregate<'a>(lanes: impl IntoIterator<Item = &'a GatewayLane>) -> GatewayLane {
        let mut total = GatewayLane::new(usize::MAX);
        for lane in lanes {
            total.absorb(lane);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_lane(shard: usize) -> GatewayLane {
        GatewayLane {
            shard,
            datagrams_in: 100,
            decode_rejected: 3,
            spoof_rejected: 2,
            arena_unknown: 1,
            fault_dropped: 4,
            fault_duplicated: 5,
            forwarded: 95,
            to_front: 10,
            batched_recvs: 40,
            batched_sends: 20,
            datagrams_out: 80,
            replies_unroutable: 2,
        }
    }

    #[test]
    fn lane_identity_closes_on_consistent_counts() {
        assert!(closed_lane(0).accounting_closed());
    }

    #[test]
    fn lane_identity_refuses_a_lost_datagram() {
        let mut lane = closed_lane(0);
        lane.forwarded -= 1; // one datagram vanished inside the pump
        assert!(!lane.accounting_closed());
    }

    #[test]
    fn lane_identity_refuses_front_exceeding_forwarded() {
        let mut lane = closed_lane(0);
        lane.to_front = lane.forwarded + 1;
        assert!(!lane.accounting_closed());
    }

    #[test]
    fn aggregate_of_closed_lanes_is_closed() {
        let lanes = vec![closed_lane(0), closed_lane(1), closed_lane(2)];
        let total = GatewayLane::aggregate(&lanes);
        assert!(total.accounting_closed());
        assert_eq!(total.shard, usize::MAX);
        assert_eq!(
            total.datagrams_in,
            lanes.iter().map(|l| l.datagrams_in).sum::<u64>()
        );
        assert_eq!(
            total.forwarded,
            lanes.iter().map(|l| l.forwarded).sum::<u64>()
        );
    }

    #[test]
    fn aggregate_surfaces_any_open_shard() {
        let mut bad = closed_lane(1);
        bad.fault_dropped += 7; // drops recorded but reads missing
        let lanes = vec![closed_lane(0), bad];
        let total = GatewayLane::aggregate(&lanes);
        assert!(!total.accounting_closed());
    }
}
