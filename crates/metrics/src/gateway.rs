//! Gateway accounting.
//!
//! The UDP gateway runs one inbound pump on its socket; every datagram
//! the pump reads must be attributed to exactly one fate so that losing
//! a datagram inside the gateway is impossible without the books
//! refusing to close. The pump owns a [`GatewayLane`] (no sharing, no
//! locks), and the run report keeps it beside the totals it must equal.

/// Fate accounting for the gateway's inbound pump.
///
/// Closing identity: everything read off the socket is rejected,
/// dropped by fault injection, or forwarded into the fabric — and
/// fault duplication only ever adds to `forwarded`, never to
/// `datagrams_in`.
// lockcheck: identity(datagrams_in + fault_duplicated == decode_rejected + spoof_rejected + arena_unknown + fault_dropped + forwarded)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayLane {
    /// Datagrams read off the socket.
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
    /// Datagrams sent via a batched `sendmmsg`. Reads 0: a reply
    /// leaves with one `send_to` from the thread that built it. Kept
    /// for the readers that compute datagrams per send call.
    pub batched_sends: u64,
    /// Replies written back to client sockets through the gateway's
    /// socket, by whichever thread sent them.
    pub datagrams_out: u64,
    /// Client-bound payloads whose client has no session in the
    /// gateway's book (nothing is retained: counted when drained).
    pub replies_unroutable: u64,
}

impl GatewayLane {
    /// Prove the lane's fate identity: every datagram read (plus each
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_lane() -> GatewayLane {
        GatewayLane {
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
        assert!(closed_lane().accounting_closed());
    }

    #[test]
    fn lane_identity_refuses_a_lost_datagram() {
        let mut lane = closed_lane();
        lane.forwarded -= 1; // one datagram vanished inside the pump
        assert!(!lane.accounting_closed());
    }

    #[test]
    fn lane_identity_refuses_front_exceeding_forwarded() {
        let mut lane = closed_lane();
        lane.to_front = lane.forwarded + 1;
        assert!(!lane.accounting_closed());
    }
}
