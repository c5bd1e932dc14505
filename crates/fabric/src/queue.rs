//! The port queue both fabrics deliver through.
//!
//! The paper's server drains a frame's requests from a bounded request
//! queue where newest data wins (§2.1). A port here is that queue: it
//! holds copies by due time, and ties keep the order the copies were
//! handed in. A copy due later than it was handed in (link latency, a
//! fault delay) overtakes nothing: later traffic due sooner is received
//! first, which is how a delay reorders. The fabrics differ only in
//! whose clock a copy is due by — the receiving task's virtual clock on
//! [`crate::virt::VirtualSmp`], the wall clock on
//! [`crate::real::RealFabric`] — and in how a blocked reader wakes.
//!
//! One cap rule: a port never holds more than its capacity, counting
//! every copy it holds, due or not, and a push that finds it full first
//! drops the earliest-due copy. So `len() <= cap` always.
//!
//! While a port holds no copy due later than it was handed in, every
//! copy it holds is due already: a push onto it is an append and a pop
//! reads no clock.

use std::collections::VecDeque;

use crate::{Message, Nanos};

/// One port's copies, each with its due time.
pub(crate) struct PortQueue {
    /// Sorted by due time; ties in push order.
    copies: VecDeque<(Nanos, Message)>,
    /// Maximum copies held (`usize::MAX` = unbounded).
    cap: usize,
    /// Copies discarded by the cap rule.
    dropped: u64,
    /// Copies held that were due later than they were handed in.
    delayed: usize,
}

/// Whether a copy handed in at `msg.sent_at` and due at `due` was
/// delayed.
fn is_delayed(due: Nanos, msg: &Message) -> bool {
    due > msg.sent_at
}

impl PortQueue {
    pub(crate) fn new(cap: usize) -> PortQueue {
        assert!(cap > 0, "bounded port needs capacity >= 1");
        PortQueue {
            copies: VecDeque::new(),
            cap,
            dropped: 0,
            delayed: 0,
        }
    }

    /// Hold `msg` until `due`, after dropping the earliest-due copy if
    /// the port is full.
    pub(crate) fn push(&mut self, due: Nanos, msg: Message) {
        if self.copies.len() >= self.cap {
            self.pop_front();
            self.dropped += 1;
        }
        self.delayed += is_delayed(due, &msg) as usize;
        match self.copies.back() {
            Some(&(last, _)) if last > due => self.insert_sorted(due, msg),
            _ => self.copies.push_back((due, msg)),
        }
    }

    /// The reordering half of [`PortQueue::push`], kept out of line so
    /// an append compiles to the comparison alone.
    #[cold]
    #[inline(never)]
    fn insert_sorted(&mut self, due: Nanos, msg: Message) {
        let at = self.copies.partition_point(|&(d, _)| d <= due);
        self.copies.insert(at, (due, msg));
    }

    /// Whether the front copy is due by the time `now` returns. `now`
    /// is called only while a delayed copy is held.
    #[inline]
    pub(crate) fn ready(&self, now: impl FnOnce() -> Nanos) -> bool {
        match self.copies.front() {
            None => false,
            Some(_) if self.delayed == 0 => true,
            Some(&(due, _)) => due <= now(),
        }
    }

    /// The front copy, if it is due by the time `now` returns (called
    /// only while a delayed copy is held).
    #[inline]
    pub(crate) fn pop(&mut self, now: impl FnOnce() -> Nanos) -> Option<Message> {
        if self.ready(now) {
            self.pop_front()
        } else {
            None
        }
    }

    fn pop_front(&mut self) -> Option<Message> {
        let (due, msg) = self.copies.pop_front()?;
        self.delayed -= is_delayed(due, &msg) as usize;
        Some(msg)
    }

    /// The earliest due time held, or `None` when the port is empty.
    pub(crate) fn next_due(&self) -> Option<Nanos> {
        self.copies.front().map(|&(due, _)| due)
    }

    /// Copies held, due or not: never more than the cap.
    pub(crate) fn len(&self) -> usize {
        self.copies.len()
    }

    /// Copies discarded by the cap rule.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::Pcg32;

    /// The queue restated as plainly as possible: a vector sorted by
    /// (due, send sequence), with the cap applied to its length.
    struct Model {
        copies: Vec<(Nanos, u64, Message)>,
        cap: usize,
        dropped: u64,
    }

    impl Model {
        fn push(&mut self, due: Nanos, seq: u64, msg: Message) {
            if self.copies.len() >= self.cap {
                self.copies.remove(0);
                self.dropped += 1;
            }
            self.copies.push((due, seq, msg));
            self.copies.sort_by_key(|&(due, seq, _)| (due, seq));
        }

        fn pop(&mut self, now: Nanos) -> Option<Message> {
            match self.copies.first() {
                Some(&(due, _, _)) if due <= now => Some(self.copies.remove(0).2),
                _ => None,
            }
        }
    }

    /// Random pushes (delays 0–3 ns, so due times tie often) and pops
    /// at a non-decreasing `now`, on caps 1–4 and unbounded: the queue
    /// pops what the model pops and agrees on `dropped`, `len` and
    /// `next_due` after every step. A case that hands in only
    /// undelayed copies pops with a clock that panics when read.
    #[test]
    fn the_queue_follows_a_sorted_vector_model() {
        let mut rng = Pcg32::seeded(0x9E0E);
        let cases = if cfg!(debug_assertions) { 300 } else { 3000 };
        for case in 0..cases {
            let cap = match rng.below(5) {
                0 => usize::MAX,
                c => c as usize,
            };
            let undelayed_only = rng.chance(0.25);
            let mut q = PortQueue::new(cap);
            let mut model = Model {
                copies: Vec::new(),
                cap,
                dropped: 0,
            };
            let mut now: Nanos = 0;
            for seq in 0..1 + rng.below(60) as u64 {
                now += rng.below(3) as Nanos;
                if rng.chance(0.55) {
                    let delay = if undelayed_only { 0 } else { rng.below(4) };
                    let due = now + delay as Nanos;
                    let msg = Message {
                        from: 0,
                        sent_at: now,
                        payload: seq.to_le_bytes().to_vec(),
                    };
                    q.push(due, msg.clone());
                    model.push(due, seq, msg);
                } else {
                    let want = model.pop(now);
                    let got = if undelayed_only {
                        q.pop(|| panic!("case {case}: an undelayed queue read its clock"))
                    } else {
                        q.pop(|| now)
                    };
                    assert_eq!(got, want, "case {case}, step {seq}: pop at {now}");
                }
                assert_eq!(q.dropped(), model.dropped, "case {case}, step {seq}");
                assert_eq!(q.len(), model.copies.len(), "case {case}, step {seq}");
                assert!(q.len() <= cap, "case {case}, step {seq}: over the cap");
                let front = model.copies.first().map(|&(due, _, _)| due);
                assert_eq!(q.next_due(), front, "case {case}, step {seq}");
            }
        }
    }
}
