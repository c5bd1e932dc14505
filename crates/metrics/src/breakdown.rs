//! Execution-time breakdown accumulators (the paper's Figure 4/5/6
//! stacked bars).

use crate::Nanos;

/// Where a server thread's time goes. The taxonomy and definitions are
/// exactly the paper's (§4, "Our execution time breakdowns…"):
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Time processing requests (move execution), *excluding* lock
    /// overhead.
    Exec,
    /// Lock synchronization on game objects (areanode locking) during
    /// request processing: the sum of what the lock sections' charges
    /// and acquires report, never a clock difference. On the virtual
    /// fabric that is the paper's definition, the walk that plans the
    /// regions plus the waits for held locks; on the real fabric, where
    /// charges return 0, it is the time blocked on locks.
    Lock,
    /// Receiving and parsing requests.
    Receive,
    /// Forming and sending replies (the entire reply phase).
    Reply,
    /// World physics update (master thread only; <5% sequentially).
    World,
    /// Waiting at the barrier before the reply phase for other threads
    /// to drain their request queues.
    IntraWait,
    /// Waiting between frames: for the world update to finish, or for
    /// the current frame to end after missing it.
    InterWait,
    /// Blocked in `select` with nothing to do.
    Idle,
}

impl Bucket {
    /// All buckets, in display order.
    pub const ALL: [Bucket; 8] = [
        Bucket::Exec,
        Bucket::Lock,
        Bucket::Receive,
        Bucket::Reply,
        Bucket::World,
        Bucket::IntraWait,
        Bucket::InterWait,
        Bucket::Idle,
    ];

    /// Short column label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Exec => "exec",
            Bucket::Lock => "lock",
            Bucket::Receive => "recv",
            Bucket::Reply => "reply",
            Bucket::World => "world",
            Bucket::IntraWait => "intra-wait",
            Bucket::InterWait => "inter-wait",
            Bucket::Idle => "idle",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Bucket::Exec => 0,
            Bucket::Lock => 1,
            Bucket::Receive => 2,
            Bucket::Reply => 3,
            Bucket::World => 4,
            Bucket::IntraWait => 5,
            Bucket::InterWait => 6,
            Bucket::Idle => 7,
        }
    }
}

/// Accumulated time per bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    ns: [Nanos; 8],
}

impl Breakdown {
    pub fn new() -> Breakdown {
        Breakdown::default()
    }

    /// Attribute `ns` nanoseconds to `bucket`.
    #[inline]
    pub fn add(&mut self, bucket: Bucket, ns: Nanos) {
        self.ns[bucket.index()] += ns;
    }

    /// Time accumulated in one bucket.
    #[inline]
    pub fn get(&self, bucket: Bucket) -> Nanos {
        self.ns[bucket.index()]
    }

    /// Total accounted time.
    pub fn total(&self) -> Nanos {
        self.ns.iter().sum()
    }

    /// Total excluding idle and waits — the paper's "workload" measure
    /// used to assess macro-scale balance (§4.2).
    pub fn workload(&self) -> Nanos {
        self.total()
            - self.get(Bucket::Idle)
            - self.get(Bucket::IntraWait)
            - self.get(Bucket::InterWait)
    }

    /// Fraction of total time in `bucket` (0 when nothing recorded).
    pub fn fraction(&self, bucket: Bucket) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }

    /// Percentage of total time in `bucket`.
    pub fn percent(&self, bucket: Bucket) -> f64 {
        self.fraction(bucket) * 100.0
    }

    /// Fraction of *non-idle* time in `bucket` (the paper reports wait
    /// time as a share of non-idle time in §5.2).
    pub fn fraction_non_idle(&self, bucket: Bucket) -> f64 {
        let non_idle = self.total() - self.get(Bucket::Idle);
        if non_idle == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / non_idle as f64
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for i in 0..8 {
            self.ns[i] += other.ns[i];
        }
    }

    /// Average of several breakdowns (for "average execution time
    /// breakdown" figures). Empty input yields an empty breakdown.
    pub fn average<'a>(items: impl IntoIterator<Item = &'a Breakdown>) -> Breakdown {
        let mut sum = Breakdown::new();
        let mut n = 0u64;
        for b in items {
            sum.merge(b);
            n += 1;
        }
        if n > 1 {
            for v in &mut sum.ns {
                *v /= n;
            }
        }
        sum
    }

    /// Request-processing time: exec + lock + receive (the paper's
    /// "request (receive + exec + lock)" grouping in §4.1).
    pub fn request_phase(&self) -> Nanos {
        self.get(Bucket::Exec) + self.get(Bucket::Lock) + self.get(Bucket::Receive)
    }

    /// Total wait time (intra + inter).
    pub fn wait(&self) -> Nanos {
        self.get(Bucket::IntraWait) + self.get(Bucket::InterWait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut b = Breakdown::new();
        b.add(Bucket::Exec, 100);
        b.add(Bucket::Exec, 50);
        b.add(Bucket::Lock, 25);
        assert_eq!(b.get(Bucket::Exec), 150);
        assert_eq!(b.get(Bucket::Lock), 25);
        assert_eq!(b.total(), 175);
    }

    #[test]
    fn fractions_and_percent() {
        let mut b = Breakdown::new();
        b.add(Bucket::Exec, 75);
        b.add(Bucket::Idle, 25);
        assert_eq!(b.fraction(Bucket::Exec), 0.75);
        assert_eq!(b.percent(Bucket::Idle), 25.0);
        assert_eq!(Breakdown::new().fraction(Bucket::Exec), 0.0);
    }

    #[test]
    fn fraction_non_idle_excludes_idle() {
        let mut b = Breakdown::new();
        b.add(Bucket::InterWait, 40);
        b.add(Bucket::Exec, 60);
        b.add(Bucket::Idle, 100);
        assert_eq!(b.fraction_non_idle(Bucket::InterWait), 0.4);
    }

    #[test]
    fn workload_excludes_waits_and_idle() {
        let mut b = Breakdown::new();
        b.add(Bucket::Exec, 10);
        b.add(Bucket::Reply, 20);
        b.add(Bucket::IntraWait, 5);
        b.add(Bucket::InterWait, 7);
        b.add(Bucket::Idle, 100);
        assert_eq!(b.workload(), 30);
    }

    #[test]
    fn merge_and_average() {
        let mut a = Breakdown::new();
        a.add(Bucket::Exec, 100);
        let mut b = Breakdown::new();
        b.add(Bucket::Exec, 300);
        b.add(Bucket::Lock, 50);
        let avg = Breakdown::average([&a, &b]);
        assert_eq!(avg.get(Bucket::Exec), 200);
        assert_eq!(avg.get(Bucket::Lock), 25);
    }

    #[test]
    fn request_phase_grouping() {
        let mut b = Breakdown::new();
        b.add(Bucket::Exec, 10);
        b.add(Bucket::Lock, 20);
        b.add(Bucket::Receive, 30);
        b.add(Bucket::Reply, 99);
        assert_eq!(b.request_phase(), 60);
        assert_eq!(b.wait(), 0);
    }

    #[test]
    fn all_buckets_have_unique_indices() {
        let mut b = Breakdown::new();
        for (i, bucket) in Bucket::ALL.iter().enumerate() {
            b.add(*bucket, (i + 1) as u64);
        }
        for (i, bucket) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.get(*bucket), (i + 1) as u64, "{bucket:?}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Bucket::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 8);
    }
}
