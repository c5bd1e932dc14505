//! Server- and client-side statistics accumulators.

use crate::breakdown::Breakdown;
use crate::Nanos;

/// Everything one server thread records over a run.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    pub breakdown: Breakdown,
    /// Client requests processed (moves executed).
    pub requests: u64,
    /// Replies formed and sent.
    pub replies: u64,
    /// Frames this thread participated in.
    pub frames: u64,
    /// Frames this thread mastered (ran the world update).
    pub mastered: u64,
    /// Datagrams drained from this thread's request port.
    pub datagrams: u64,
    /// Datagrams that failed protocol decoding and were dropped.
    pub decode_rejected: u64,
    /// Connects refused by handshake validation (client-id already
    /// bound to a different reply port that is still fresh).
    pub connect_rejected: u64,
    /// Datagrams the bounded request queue discarded before this
    /// thread could drain them (read back from the fabric at exit).
    pub queue_dropped: u64,
    /// Client slots reclaimed by the inactivity timeout.
    pub timeouts: u64,
    /// Moves discarded as duplicates of an already-applied input
    /// sequence (predicting clients only; WAN duplication/reordering).
    pub inputs_deduped: u64,
    /// Input-sequence gaps observed from predicting clients (lost or
    /// late moves) — each bumps the slot's perturbation epoch.
    pub input_gaps: u64,
    /// Distribution of entity-update counts per reply sent.
    pub reply_sizes: SizeHist,
    pub lock: LockStats,
}

impl ThreadStats {
    pub fn new() -> ThreadStats {
        ThreadStats::default()
    }

    pub fn merge(&mut self, other: &ThreadStats) {
        self.breakdown.merge(&other.breakdown);
        self.requests += other.requests;
        self.replies += other.replies;
        self.frames += other.frames;
        self.mastered += other.mastered;
        self.datagrams += other.datagrams;
        self.decode_rejected += other.decode_rejected;
        self.connect_rejected += other.connect_rejected;
        self.queue_dropped += other.queue_dropped;
        self.timeouts += other.timeouts;
        self.inputs_deduped += other.inputs_deduped;
        self.input_gaps += other.input_gaps;
        self.reply_sizes.merge(&other.reply_sizes);
        self.lock.merge(&other.lock);
    }
}

/// Exact histogram of small counts (0..=64): reply entity-list sizes
/// are protocol-capped, so direct per-value buckets give exact
/// percentiles where `ResponseStats`' log₂ octaves would blur them.
#[derive(Clone, Debug)]
pub struct SizeHist {
    /// `counts[n]` = samples of value `n`; the last bucket absorbs
    /// anything larger.
    pub counts: [u64; 65],
}

impl Default for SizeHist {
    fn default() -> Self {
        SizeHist { counts: [0; 65] }
    }
}

impl SizeHist {
    pub fn new() -> SizeHist {
        SizeHist::default()
    }

    pub fn note(&mut self, n: usize) {
        self.counts[n.min(self.counts.len() - 1)] += 1;
    }

    pub fn merge(&mut self, o: &SizeHist) {
        for i in 0..self.counts.len() {
            self.counts[i] += o.counts[i];
        }
    }

    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact percentile (`p` in [0, 1]) of the recorded values.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.samples();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return value as u64;
            }
        }
        (self.counts.len() - 1) as u64
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|v| v as u64)
            .unwrap_or(0)
    }
}

/// Client-side prediction/reconciliation accounting (one per bot
/// driver; mergeable across a swarm). The accounting identity — every
/// locally predicted input is eventually *judged* against an
/// authoritative ack, *dropped* by a ring overflow, or still *in
/// flight* when the run ends — is checked by [`Self::closed`].
#[derive(Clone, Debug, Default)]
pub struct PredictionStats {
    /// Inputs predicted locally (sent with the prediction trailer and
    /// entered into the input ring).
    pub predicted: u64,
    /// Reconciliation passes: trailered replies consumed.
    pub reconciled: u64,
    /// Ring entries retired by an authoritative ack and compared
    /// against the server's state for that seq.
    pub judged: u64,
    /// Judged entries whose predicted state differed from the server's
    /// (rollback + replay corrected the client).
    pub mispredictions: u64,
    /// Ring entries discarded because the ring overflowed (server
    /// starved long enough that unacked inputs exceeded capacity).
    pub dropped: u64,
    /// Inputs re-simulated during rollback replays.
    pub replayed: u64,
    /// Divergence-oracle evaluations: reconciliations with *no* inputs
    /// in flight and an unperturbed slot, where prediction must equal
    /// the server bit-for-bit.
    pub oracle_checks: u64,
    /// Oracle evaluations that failed — any nonzero value is a
    /// prediction-kernel bug, not a tuning matter.
    pub oracle_mismatches: u64,
    /// Times the input ring wrapped (drives `dropped`).
    pub ring_overflows: u64,
    /// Distribution of reconciliation depth: unacked inputs replayed
    /// per trailered reply.
    pub depth: SizeHist,
}

impl PredictionStats {
    pub fn new() -> PredictionStats {
        PredictionStats::default()
    }

    pub fn merge(&mut self, o: &PredictionStats) {
        self.predicted += o.predicted;
        self.reconciled += o.reconciled;
        self.judged += o.judged;
        self.mispredictions += o.mispredictions;
        self.dropped += o.dropped;
        self.replayed += o.replayed;
        self.oracle_checks += o.oracle_checks;
        self.oracle_mismatches += o.oracle_mismatches;
        self.ring_overflows += o.ring_overflows;
        self.depth.merge(&o.depth);
    }

    /// Does the prediction ledger close? `in_flight` is the number of
    /// ring entries still awaiting an ack at shutdown.
    pub fn closed(&self, in_flight: u64) -> bool {
        self.predicted == self.judged + self.dropped + in_flight
    }

    /// Fraction of judged inputs the client mispredicted.
    pub fn misprediction_rate(&self) -> f64 {
        if self.judged == 0 {
            return 0.0;
        }
        self.mispredictions as f64 / self.judged as f64
    }

    /// Inputs that were predicted and *not* later invalidated — the
    /// "effective responses" a predicting client acted on instantly.
    pub fn effective_inputs(&self) -> u64 {
        self.predicted.saturating_sub(self.mispredictions)
    }
}

/// Areanode locking statistics (paper §5.1 / Figure 7).
#[derive(Clone, Debug, Default)]
pub struct LockStats {
    /// Time blocked acquiring leaf locks.
    pub leaf_ns: Nanos,
    /// Time blocked acquiring parent (object-list) locks.
    pub parent_ns: Nanos,
    /// Leaf lock acquisitions.
    pub leaf_ops: u64,
    /// Parent lock acquisitions.
    pub parent_ops: u64,
    /// Requests that acquired at least one region lock.
    pub requests: u64,
    /// Σ over requests of the number of *distinct* leaves locked.
    pub distinct_leaves: u64,
    /// Σ over requests of *total* leaf lock operations (≥ distinct;
    /// the surplus is the paper's "relocked" count).
    pub leaf_lock_events: u64,
    /// Σ over requests of the leaf count of the tree at the time
    /// (denominator for "% of world locked per request").
    pub leaf_capacity: u64,
    /// Time blocked on the global state buffer lock.
    pub global_buffer_ns: Nanos,
    /// Time blocked on per-player reply buffer locks.
    pub reply_buffer_ns: Nanos,
}

impl LockStats {
    pub fn merge(&mut self, o: &LockStats) {
        self.leaf_ns += o.leaf_ns;
        self.parent_ns += o.parent_ns;
        self.leaf_ops += o.leaf_ops;
        self.parent_ops += o.parent_ops;
        self.requests += o.requests;
        self.distinct_leaves += o.distinct_leaves;
        self.leaf_lock_events += o.leaf_lock_events;
        self.leaf_capacity += o.leaf_capacity;
        self.global_buffer_ns += o.global_buffer_ns;
        self.reply_buffer_ns += o.reply_buffer_ns;
    }

    /// Total object-lock wait time.
    pub fn total_ns(&self) -> Nanos {
        self.leaf_ns + self.parent_ns
    }

    /// Fraction of lock time spent on leaves (Fig 7a).
    pub fn leaf_share(&self) -> f64 {
        let t = self.total_ns();
        if t == 0 {
            0.0
        } else {
            self.leaf_ns as f64 / t as f64
        }
    }

    /// Average % of the world's leaves locked per request (Fig 7b).
    pub fn avg_distinct_leaf_percent(&self) -> f64 {
        if self.leaf_capacity == 0 {
            0.0
        } else {
            100.0 * self.distinct_leaves as f64 / self.leaf_capacity as f64
        }
    }

    /// Fraction of leaf lock events that re-locked an already-locked
    /// leaf within the same request (paper: 40% at 31 nodes, 30% at 63).
    pub fn relock_fraction(&self) -> f64 {
        if self.leaf_lock_events == 0 {
            0.0
        } else {
            (self.leaf_lock_events - self.distinct_leaves) as f64 / self.leaf_lock_events as f64
        }
    }

    /// Average distinct leaves locked per request.
    pub fn avg_distinct_leaves(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.distinct_leaves as f64 / self.requests as f64
        }
    }
}

/// Client-side response statistics (response rate / response time).
#[derive(Clone, Debug)]
pub struct ResponseStats {
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub received: u64,
    /// Σ response time.
    pub latency_sum_ns: Nanos,
    pub latency_min_ns: Nanos,
    pub latency_max_ns: Nanos,
    /// Log₂ histogram of response times: bucket i counts responses in
    /// `[2^i, 2^(i+1))` microseconds.
    pub histogram: [u64; 24],
}

impl Default for ResponseStats {
    fn default() -> Self {
        ResponseStats {
            sent: 0,
            received: 0,
            latency_sum_ns: 0,
            latency_min_ns: Nanos::MAX,
            latency_max_ns: 0,
            histogram: [0; 24],
        }
    }
}

impl ResponseStats {
    pub fn new() -> ResponseStats {
        ResponseStats::default()
    }

    pub fn note_sent(&mut self) {
        self.sent += 1;
    }

    pub fn note_reply(&mut self, latency_ns: Nanos) {
        self.received += 1;
        self.latency_sum_ns += latency_ns;
        self.latency_min_ns = self.latency_min_ns.min(latency_ns);
        self.latency_max_ns = self.latency_max_ns.max(latency_ns);
        let us = (latency_ns / 1000).max(1);
        let bucket = (63 - us.leading_zeros()) as usize;
        self.histogram[bucket.min(23)] += 1;
    }

    /// Average response time in milliseconds.
    pub fn avg_latency_ms(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            crate::ns_to_ms(self.latency_sum_ns) / self.received as f64
        }
    }

    /// Response rate in replies/second over a run of `duration_ns`.
    pub fn response_rate(&self, duration_ns: Nanos) -> f64 {
        if duration_ns == 0 {
            0.0
        } else {
            self.received as f64 / crate::ns_to_secs(duration_ns)
        }
    }

    /// Approximate response-time percentile (from the log2 histogram;
    /// resolution is one octave). `p` in [0, 1]. Returns milliseconds.
    pub fn approx_percentile_ms(&self, p: f64) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        let target = (self.received as f64 * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.histogram.iter().enumerate() {
            seen += count;
            if seen >= target {
                // Bucket spans [2^b, 2^(b+1)) microseconds; report the
                // geometric midpoint.
                let lo = (1u64 << bucket) as f64;
                return lo * 1.5 / 1000.0;
            }
        }
        crate::ns_to_ms(self.latency_max_ns)
    }

    pub fn merge(&mut self, o: &ResponseStats) {
        self.sent += o.sent;
        self.received += o.received;
        self.latency_sum_ns += o.latency_sum_ns;
        self.latency_min_ns = self.latency_min_ns.min(o.latency_min_ns);
        self.latency_max_ns = self.latency_max_ns.max(o.latency_max_ns);
        for i in 0..self.histogram.len() {
            self.histogram[i] += o.histogram[i];
        }
    }
}

/// Per-frame, whole-server statistics recorded by the frame master
/// (imbalance and overlap analysis, paper §4.2/§5).
#[derive(Clone, Debug, Default)]
pub struct FrameStats {
    /// Frames completed.
    pub frames: u64,
    /// Σ frame wall duration.
    pub frame_ns_sum: Nanos,
    /// Σ requests processed per frame.
    pub requests_sum: u64,
    /// Σ over frames of (max requests on a thread − min requests on a
    /// thread): the per-frame imbalance the paper measures at 2T/128p.
    pub imbalance_sum: u64,
    /// Σ of squared imbalance (for the standard deviation).
    pub imbalance_sq_sum: u64,
    /// Σ over frames of the number of distinct leaves locked by ≥ 1
    /// thread (map coverage per frame).
    pub leaves_touched_sum: u64,
    /// Σ over frames of the number of leaves locked by ≥ 2 distinct
    /// threads (Fig 7c numerator).
    pub leaves_shared_sum: u64,
    /// Leaf count of the tree (Fig 7c denominator, per frame).
    pub leaf_count: u64,
    /// Frames in which at least one thread waited for the world update.
    pub frames_waited_on_world: u64,
    /// Inter-frame wait attributable to the world update phase.
    pub interwait_world_ns: Nanos,
    /// Inter-frame wait attributable to waiting for the previous frame
    /// to complete.
    pub interwait_frame_ns: Nanos,
    /// Threads participating, summed over frames (avg participation).
    pub participants_sum: u64,
}

impl FrameStats {
    pub fn new() -> FrameStats {
        FrameStats::default()
    }

    /// Record one frame's imbalance sample from per-thread request
    /// counts (only threads that participated).
    pub fn note_frame_requests(&mut self, per_thread: &[u32]) {
        if per_thread.is_empty() {
            return;
        }
        let max = *per_thread.iter().max().unwrap() as u64;
        let min = *per_thread.iter().min().unwrap() as u64;
        let d = max - min;
        self.imbalance_sum += d;
        self.imbalance_sq_sum += d * d;
        self.requests_sum += per_thread.iter().map(|&r| r as u64).sum::<u64>();
        self.participants_sum += per_thread.len() as u64;
    }

    /// Record which leaves each participating thread locked this frame.
    /// `usage[t]` is a bitmask over leaf indices (tree ≤ 64 leaves).
    pub fn note_frame_leaf_usage(&mut self, usage: &[u64], leaf_count: u64) {
        let mut once = 0u64;
        let mut twice = 0u64;
        for &mask in usage {
            twice |= once & mask;
            once |= mask;
        }
        self.leaves_touched_sum += once.count_ones() as u64;
        self.leaves_shared_sum += twice.count_ones() as u64;
        self.leaf_count = leaf_count;
    }

    /// Mean per-frame thread request-count difference (paper: 3.3).
    pub fn mean_imbalance(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.imbalance_sum as f64 / self.frames as f64
        }
    }

    /// Standard deviation of the per-frame difference (paper: 2.5).
    pub fn stddev_imbalance(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        let mean = self.mean_imbalance();
        let var = self.imbalance_sq_sum as f64 / self.frames as f64 - mean * mean;
        var.max(0.0).sqrt()
    }

    /// Average % of leaves locked by ≥2 threads per frame (Fig 7c).
    pub fn avg_shared_leaf_percent(&self) -> f64 {
        if self.frames == 0 || self.leaf_count == 0 {
            0.0
        } else {
            100.0 * self.leaves_shared_sum as f64 / (self.frames * self.leaf_count) as f64
        }
    }

    /// Average % of the map's leaves accessed per frame (§5.1 text).
    pub fn avg_touched_leaf_percent(&self) -> f64 {
        if self.frames == 0 || self.leaf_count == 0 {
            0.0
        } else {
            100.0 * self.leaves_touched_sum as f64 / (self.frames * self.leaf_count) as f64
        }
    }

    /// Average requests per frame across all threads.
    pub fn avg_requests_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.requests_sum as f64 / self.frames as f64
        }
    }

    /// Share of inter-frame wait due to the world update (paper §5.2:
    /// ~25% world vs ~75% previous-frame completion).
    pub fn interwait_world_share(&self) -> f64 {
        let t = self.interwait_world_ns + self.interwait_frame_ns;
        if t == 0 {
            0.0
        } else {
            self.interwait_world_ns as f64 / t as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::breakdown::Bucket;

    #[test]
    fn thread_stats_merge() {
        let mut a = ThreadStats::new();
        a.requests = 10;
        a.breakdown.add(Bucket::Exec, 100);
        let mut b = ThreadStats::new();
        b.requests = 5;
        b.replies = 3;
        b.breakdown.add(Bucket::Exec, 50);
        b.datagrams = 20;
        b.decode_rejected = 2;
        b.connect_rejected = 1;
        b.queue_dropped = 4;
        b.timeouts = 1;
        b.inputs_deduped = 7;
        b.input_gaps = 3;
        a.merge(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.replies, 3);
        assert_eq!(a.breakdown.get(Bucket::Exec), 150);
        assert_eq!(a.datagrams, 20);
        assert_eq!(a.decode_rejected, 2);
        assert_eq!(a.connect_rejected, 1);
        assert_eq!(a.queue_dropped, 4);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.inputs_deduped, 7);
        assert_eq!(a.input_gaps, 3);
    }

    #[test]
    fn prediction_stats_ledger_closes_and_merges() {
        let mut a = PredictionStats::new();
        a.predicted = 100;
        a.judged = 90;
        a.mispredictions = 9;
        a.dropped = 4;
        a.replayed = 200;
        a.reconciled = 80;
        a.oracle_checks = 30;
        a.depth.note(2);
        a.depth.note(5);
        // 100 predicted = 90 judged + 4 dropped + 6 in flight.
        assert!(a.closed(6));
        assert!(!a.closed(5));
        assert!((a.misprediction_rate() - 0.1).abs() < 1e-9);
        assert_eq!(a.effective_inputs(), 91);

        let mut b = PredictionStats::new();
        b.predicted = 50;
        b.judged = 50;
        b.depth.note(5);
        a.merge(&b);
        assert_eq!(a.predicted, 150);
        assert_eq!(a.judged, 140);
        assert_eq!(a.depth.samples(), 3);
        assert_eq!(a.depth.percentile(1.0), 5);
        assert!(a.closed(6));
        // Zero-judged corner: rate is defined as 0.
        assert_eq!(PredictionStats::new().misprediction_rate(), 0.0);
    }

    #[test]
    fn lock_stats_shares() {
        let mut l = LockStats::default();
        l.leaf_ns = 750;
        l.parent_ns = 250;
        assert_eq!(l.leaf_share(), 0.75);
        assert_eq!(l.total_ns(), 1000);
        assert_eq!(LockStats::default().leaf_share(), 0.0);
    }

    #[test]
    fn lock_stats_relock_fraction() {
        let mut l = LockStats::default();
        l.requests = 10;
        l.distinct_leaves = 60; // 6 distinct per request
        l.leaf_lock_events = 100; // 10 lock events per request
        assert!((l.relock_fraction() - 0.4).abs() < 1e-9);
        assert_eq!(l.avg_distinct_leaves(), 6.0);
    }

    #[test]
    fn lock_stats_world_percent() {
        let mut l = LockStats::default();
        l.requests = 4;
        l.distinct_leaves = 16;
        l.leaf_capacity = 64; // 16-leaf tree, 4 requests
        assert_eq!(l.avg_distinct_leaf_percent(), 25.0);
    }

    #[test]
    fn response_stats_latency_accounting() {
        let mut r = ResponseStats::new();
        r.note_sent();
        r.note_sent();
        r.note_reply(2_000_000); // 2 ms
        r.note_reply(4_000_000); // 4 ms
        assert_eq!(r.sent, 2);
        assert_eq!(r.received, 2);
        assert_eq!(r.avg_latency_ms(), 3.0);
        assert_eq!(r.latency_min_ns, 2_000_000);
        assert_eq!(r.latency_max_ns, 4_000_000);
        // 2 s run: 1 reply per second.
        assert_eq!(r.response_rate(2_000_000_000), 1.0);
    }

    #[test]
    fn response_histogram_buckets() {
        let mut r = ResponseStats::new();
        r.note_reply(1_000); // 1 us → bucket 0
        r.note_reply(3_000); // 3 us → bucket 1
        r.note_reply(1_000_000); // 1000 us → bucket 9 (512..1024)
        assert_eq!(r.histogram[0], 1);
        assert_eq!(r.histogram[1], 1);
        assert_eq!(r.histogram[9], 1);
    }

    #[test]
    fn percentiles_from_histogram() {
        let mut r = ResponseStats::new();
        for _ in 0..90 {
            r.note_reply(1_000_000); // 1 ms → bucket 9
        }
        for _ in 0..10 {
            r.note_reply(64_000_000); // 64 ms → bucket 15
        }
        let p50 = r.approx_percentile_ms(0.5);
        assert!((0.5..3.0).contains(&p50), "p50 = {p50}");
        let p99 = r.approx_percentile_ms(0.99);
        assert!(p99 > 40.0, "p99 = {p99}");
        assert_eq!(ResponseStats::new().approx_percentile_ms(0.5), 0.0);
    }

    #[test]
    fn response_merge() {
        let mut a = ResponseStats::new();
        a.note_reply(1000);
        let mut b = ResponseStats::new();
        b.note_reply(9000);
        b.note_sent();
        a.merge(&b);
        assert_eq!(a.received, 2);
        assert_eq!(a.sent, 1);
        assert_eq!(a.latency_min_ns, 1000);
        assert_eq!(a.latency_max_ns, 9000);
    }

    #[test]
    fn frame_stats_imbalance() {
        let mut f = FrameStats::new();
        f.note_frame_requests(&[5, 2, 3]);
        f.note_frame_requests(&[4, 4, 4]);
        f.frames = 2;
        assert_eq!(f.mean_imbalance(), 1.5);
        assert_eq!(f.avg_requests_per_frame(), 11.0);
        // imbalances are 3 and 0: variance = (9+0)/2 - 2.25 = 2.25
        assert!((f.stddev_imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn frame_stats_leaf_overlap() {
        let mut f = FrameStats::new();
        // Thread 0 locks leaves {0,1,2}; thread 1 locks {2,3}.
        f.note_frame_leaf_usage(&[0b0111, 0b1100], 16);
        f.frames = 1;
        assert_eq!(f.leaves_touched_sum, 4);
        assert_eq!(f.leaves_shared_sum, 1);
        assert_eq!(f.avg_shared_leaf_percent(), 100.0 / 16.0);
        assert_eq!(f.avg_touched_leaf_percent(), 25.0);
    }

    #[test]
    fn frame_stats_interwait_split() {
        let mut f = FrameStats::new();
        f.interwait_world_ns = 25;
        f.interwait_frame_ns = 75;
        assert_eq!(f.interwait_world_share(), 0.25);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let f = FrameStats::new();
        assert_eq!(f.mean_imbalance(), 0.0);
        assert_eq!(f.stddev_imbalance(), 0.0);
        assert_eq!(f.avg_shared_leaf_percent(), 0.0);
        let r = ResponseStats::new();
        assert_eq!(r.avg_latency_ms(), 0.0);
        assert_eq!(r.response_rate(0), 0.0);
    }
}
