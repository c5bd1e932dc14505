//! Open-loop accounting shared by the in-process and UDP generators.
//!
//! Every player owes one `Move` per 30 ms client tick, sent on a fixed
//! schedule whether or not earlier replies arrived. Move `seq` is the
//! tick index plus one, so a move's due time is a pure function of
//! `(player, seq)`: `t0 + (seq - 1) * TICK + offset(player)`. A reply's
//! RTT is timed from that due instant, which charges generator
//! lateness and server stalls to the moves they delay.

use std::time::Duration;

use parquake_protocol::{Decode, ServerMessage};

use crate::estimator::{median, percentile, quiet_level};
use crate::trace::{Span, SpanKind};

/// One client tick (the paper's always-active bot: one move per 30 ms).
pub const TICK_NS: u64 = 30_000_000;
/// A reply later than this after its move's due time counts as failed.
pub const LATENCY_LIMIT_NS: u64 = TICK_NS;
/// The measured window is cut into slices of this many ticks: one
/// tick, 30 ms. Short slices, many of them: when the host preempts the
/// guest a few dozen times a second, one 150 ms slice in ten is still
/// undisturbed at best, but every second or third 30 ms slice is, and
/// the quiet level across slices (`estimator::quiet_level`) is read
/// from those. (With 150 ms slices ten runs of `sparse_stagger_160p`
/// spread 100 % on RTT p99 in an hour with 4–8 % steal.)
pub const SLICE_TICKS: u32 = 1;
/// Ticks sent after the window so its last replies land before teardown.
const COOL_TICKS: u32 = 5;

/// Warm-up, measured window and cool-down, in client ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub warm_ticks: u32,
    pub window_ticks: u32,
}

impl Window {
    /// Round the window down to a whole number of slices.
    pub fn from_secs(warm_s: f64, window_s: f64) -> Window {
        let ticks = |s: f64| (s * 1e9 / TICK_NS as f64).round() as u32;
        Window {
            warm_ticks: ticks(warm_s),
            window_ticks: (ticks(window_s) / SLICE_TICKS).max(1) * SLICE_TICKS,
        }
    }

    pub fn slices(&self) -> usize {
        (self.window_ticks / SLICE_TICKS) as usize
    }

    /// Does a slice start (or the window end) at `tick`? The sender
    /// marks CPU time at these ticks.
    pub fn slice_boundary(&self, tick: u32) -> bool {
        tick.checked_sub(self.warm_ticks)
            .is_some_and(|rel| rel <= self.window_ticks && rel % SLICE_TICKS == 0)
    }

    pub fn total_ticks(&self) -> u32 {
        self.warm_ticks + self.window_ticks + COOL_TICKS
    }

    pub fn window_secs(&self) -> f64 {
        self.window_ticks as f64 * TICK_NS as f64 / 1e9
    }

    /// Which slice of the measured window `tick` falls in.
    pub fn slice_of(&self, tick: u32) -> Option<usize> {
        let rel = tick.checked_sub(self.warm_ticks)?;
        (rel < self.window_ticks).then_some((rel / SLICE_TICKS) as usize)
    }
}

/// A move no reply has acknowledged (yet).
const UNACKED: u32 = u32::MAX;

/// Receiver-side record: which (player, tick) moves were acknowledged
/// and how long after their due time.
///
/// The server answers a client once per frame, echoing the `seq` of
/// the last move it executed for it (the Quake protocol's cumulative
/// acknowledgement). When a stall merges two ticks into one frame, both
/// moves are executed and one reply comes back; the earlier move is
/// acknowledged by that reply, at that reply's time. So a move is
/// *answered* by the first reply for its client whose `seq` is at least
/// its own, and its RTT runs from its own due time to that reply.
pub struct Ledger {
    window: Window,
    t0_ns: u64,
    offsets_ns: Vec<u64>,
    threads: u8,
    /// Per (player, tick): due time to acknowledging reply, or `UNACKED`.
    ack_rtt_ns: Vec<u32>,
    /// Per (player, tick): a reply echoed exactly this move's `seq`.
    echoed: Vec<bool>,
    /// Per player: every tick below this one is acknowledged.
    acked_upto: Vec<u32>,
    reply_bytes: Vec<u32>,
    /// Record benchmark-boundary spans (a move's due time to its
    /// reply) for window moves when the tally is taken.
    pub boundary_spans: bool,
    pub replies: u64,
    /// Replies that acknowledged nothing new: a second copy, or one
    /// overtaken on the way by a later reply.
    pub duplicates: u64,
    /// Correctness violations (undecodable reply, unknown client, seq
    /// never sent, bad thread); any entry fails the run.
    pub violations: Vec<String>,
}

impl Ledger {
    /// `offsets_ns[p]` is player `p`'s due offset inside each tick;
    /// `threads` bounds a valid `assigned_thread`.
    pub fn new(window: Window, t0_ns: u64, offsets_ns: Vec<u64>, threads: u8) -> Ledger {
        let cells = offsets_ns.len() * window.total_ticks() as usize;
        Ledger {
            ack_rtt_ns: vec![UNACKED; cells],
            echoed: vec![false; cells],
            acked_upto: vec![0; offsets_ns.len()],
            reply_bytes: Vec::new(),
            boundary_spans: false,
            window,
            t0_ns,
            offsets_ns,
            threads,
            replies: 0,
            duplicates: 0,
            violations: Vec::new(),
        }
    }

    pub fn due_ns(&self, player: u32, tick: u32) -> u64 {
        self.t0_ns + tick as u64 * TICK_NS + self.offsets_ns[player as usize]
    }

    fn violation(&mut self, msg: String) {
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }

    /// Account one datagram from the server, received (or, in process,
    /// sent by the server) at `at_ns` on the generator's clock. Returns
    /// the decoded message so the caller can act on acks.
    pub fn on_datagram(&mut self, payload: &[u8], at_ns: u64) -> Option<ServerMessage> {
        let msg = match ServerMessage::from_bytes(payload) {
            Ok(m) => m,
            Err(e) => {
                self.violation(format!("undecodable server datagram: {e}"));
                return None;
            }
        };
        match &msg {
            ServerMessage::Reply {
                client_id,
                seq,
                assigned_thread,
                ..
            } => {
                if *assigned_thread >= self.threads {
                    self.violation(format!("reply names thread {assigned_thread}"));
                }
                self.on_reply(*client_id, *seq, at_ns);
                if self.window.slice_of(seq.wrapping_sub(1)).is_some() {
                    self.reply_bytes.push(payload.len() as u32);
                }
            }
            ServerMessage::Bye { client_id } => {
                self.violation(format!("server dropped client {client_id}"));
            }
            ServerMessage::ConnectAck { .. } => {}
        }
        Some(msg)
    }

    /// Account a reply echoing `seq` for `player`: it acknowledges
    /// every move of that player up to `seq` not acknowledged before.
    pub fn on_reply(&mut self, player: u32, seq: u32, at_ns: u64) {
        self.replies += 1;
        let ticks = self.window.total_ticks();
        if player as usize >= self.offsets_ns.len() || seq == 0 || seq > ticks {
            self.violation(format!("reply for client {player} echoes unsent seq {seq}"));
            return;
        }
        let row = player as usize * ticks as usize;
        self.echoed[row + seq as usize - 1] = true;
        let from = self.acked_upto[player as usize];
        if seq <= from {
            self.duplicates += 1;
            return;
        }
        self.acked_upto[player as usize] = seq;
        for tick in from..seq {
            let rtt = at_ns.saturating_sub(self.due_ns(player, tick));
            self.ack_rtt_ns[row + tick as usize] = rtt.min(UNACKED as u64 - 1) as u32;
        }
    }

    /// Median reply datagram size over the window.
    pub fn reply_bytes_p50(&self) -> Option<u32> {
        percentile(&self.reply_bytes, 0.5)
    }
}

/// Sender-side record: which moves were sent and how late each group
/// left. Owned by the sender thread.
pub struct SentLog {
    window: Window,
    sent: Vec<bool>,
    late_ns: Vec<u32>,
}

impl SentLog {
    pub fn new(window: Window, players: usize) -> SentLog {
        SentLog {
            sent: vec![false; players * window.total_ticks() as usize],
            late_ns: Vec::new(),
            window,
        }
    }

    pub fn note_sent(&mut self, player: u32, tick: u32) {
        self.sent[player as usize * self.window.total_ticks() as usize + tick as usize] = true;
    }

    /// A group due at `due_ns` actually left at `sent_ns`.
    pub fn note_group(&mut self, tick: u32, due_ns: u64, sent_ns: u64) {
        if self.window.slice_of(tick).is_some() {
            self.late_ns
                .push(sent_ns.saturating_sub(due_ns).min(u32::MAX as u64) as u32);
        }
    }

    pub fn late_max_us(&self) -> f64 {
        self.late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }

    /// p99 of generator lateness over the window, microseconds.
    pub fn late_p99_us(&self) -> f64 {
        percentile(&self.late_ns, 0.99).unwrap_or(0) as f64 / 1e3
    }
}

/// Operation counts and RTT samples over the measured window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Moves sent in the window.
    pub attempted: u64,
    /// Acknowledged within the latency limit.
    pub on_time: u64,
    /// Acknowledged, but after the limit.
    pub late: u64,
    /// Never acknowledged by any reply: the failed moves.
    pub unanswered: u64,
    /// `(attempted, on_time)` per slice of the window.
    pub slices: Vec<(u64, u64)>,
    /// RTTs of the acknowledged moves, per slice.
    pub rtt_ns: Vec<Vec<u32>>,
}

impl Tally {
    /// A move fails when no reply ever acknowledges it. A late
    /// acknowledgement misses the latency limit (`answered_share`),
    /// but the server did the work.
    pub fn failed(&self) -> u64 {
        self.unanswered
    }

    /// Percentile `p` of each slice's RTTs, microseconds: the values
    /// the quiet level is taken over. Empty slices are left out.
    pub fn slice_rtt_us(&self, p: f64) -> Vec<f64> {
        self.rtt_ns
            .iter()
            .filter_map(|s| percentile(s, p).map(|ns| ns as f64 / 1e3))
            .collect()
    }

    /// Quiet level across slices of the per-slice RTT percentile `p`,
    /// microseconds.
    pub fn rtt_us(&self, p: f64) -> Option<f64> {
        quiet_level(&self.slice_rtt_us(p))
    }

    pub fn rtt_samples(&self) -> usize {
        self.rtt_ns.iter().map(Vec::len).sum()
    }

    /// Slice-median of moves answered on time per second. A host stall
    /// that delays a few ticks past the limit moves one slice, not the
    /// metric; the raw totals stay in `on_time` / `late`.
    pub fn moves_per_s(&self, window_secs: f64) -> Option<f64> {
        let slice_secs = window_secs / self.slices.len().max(1) as f64;
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|&(_, on_time)| on_time as f64 / slice_secs)
            .collect();
        median(&rates)
    }

    /// Server CPU seconds per million moves answered on time, per
    /// slice; `server_cpu_ns[i]` is the server's CPU over slice `i`.
    pub fn slice_cpu_s_per_mmoves(&self, server_cpu_ns: &[u64]) -> Vec<f64> {
        self.slices
            .iter()
            .zip(server_cpu_ns)
            .filter(|&(&(_, on_time), _)| on_time > 0)
            .map(|(&(_, on_time), &ns)| ns as f64 / 1e9 / (on_time as f64 / 1e6))
            .collect()
    }

    /// Quiet level across slices of the CPU per million moves.
    pub fn cpu_s_per_mmoves(&self, server_cpu_ns: &[u64]) -> Option<f64> {
        quiet_level(&self.slice_cpu_s_per_mmoves(server_cpu_ns))
    }

    /// Slice-median of the share of moves answered on time.
    pub fn answered_share(&self) -> Option<f64> {
        let shares: Vec<f64> = self
            .slices
            .iter()
            .filter(|&&(attempted, _)| attempted > 0)
            .map(|&(attempted, on_time)| on_time as f64 / attempted as f64)
            .collect();
        median(&shares)
    }
}

/// Join both sides after the run. A reply echoing a move that was
/// never sent is a correctness violation, pushed onto the ledger.
/// Boundary spans of the window's moves go to `spans` when the ledger
/// was asked to record them.
pub fn tally(ledger: &mut Ledger, sent: &SentLog, spans: &mut Vec<Span>) -> Tally {
    let ticks = ledger.window.total_ticks();
    let slices = ledger.window.slices();
    let mut t = Tally {
        slices: vec![(0, 0); slices],
        rtt_ns: vec![Vec::new(); slices],
        ..Tally::default()
    };
    let phantom = ledger
        .echoed
        .iter()
        .zip(&sent.sent)
        .filter(|&(&echoed, &was_sent)| echoed && !was_sent)
        .count();
    if phantom > 0 {
        ledger.violation(format!("{phantom} replies echo moves that were never sent"));
    }
    for (cell, (&rtt, &was_sent)) in ledger.ack_rtt_ns.iter().zip(&sent.sent).enumerate() {
        let tick = cell as u32 % ticks;
        let Some(slice) = ledger.window.slice_of(tick) else {
            continue;
        };
        if !was_sent {
            continue;
        }
        t.attempted += 1;
        t.slices[slice].0 += 1;
        if rtt == UNACKED {
            t.unanswered += 1;
            continue;
        }
        t.rtt_ns[slice].push(rtt);
        if rtt as u64 <= LATENCY_LIMIT_NS {
            t.on_time += 1;
            t.slices[slice].1 += 1;
        } else {
            t.late += 1;
        }
        if ledger.boundary_spans {
            let due = ledger.due_ns(cell as u32 / ticks, tick);
            spans.push(Span {
                kind: SpanKind::MoveRtt,
                id: tick + 1,
                start_ns: due,
                end_ns: due + rtt as u64,
            });
        }
    }
    t
}

/// What a generator's receiver thread hands back when it is joined.
pub struct Received {
    pub ledger: Ledger,
    pub spans: Vec<Span>,
    pub recv_decode_us: Vec<f64>,
}

/// What a load generator (in-process or UDP) measured in one run.
pub struct Generated {
    pub window: Window,
    /// Seconds each set-up took (the last one is the run's own).
    pub setup_s: Vec<f64>,
    /// Connect operations (initial and churn) and how many stayed
    /// un-acked past the connect budget.
    pub connects_attempted: u64,
    pub connects_failed: u64,
    pub ledger: Ledger,
    pub sent: SentLog,
    pub tally: Tally,
    /// Server threads' CPU (process minus generator) per slice.
    pub server_cpu_ns: Vec<u64>,
    /// Generator threads' CPU over the window.
    pub gen_cpu_s: f64,
    /// Share of CPU time the host stole during the window.
    pub steal_share: f64,
    /// Generator and boundary spans (empty unless traced).
    pub spans: Vec<Span>,
    /// Generator cost per move, microseconds (traced runs only).
    pub think_encode_us: Vec<f64>,
    pub recv_decode_us: Vec<f64>,
}

/// Sleep (never spin) until `now()` reaches `at_ns`; returns at once
/// when that is already past.
pub fn sleep_until(now: impl Fn() -> u64, at_ns: u64) {
    let t = now();
    if t < at_ns {
        std::thread::sleep(Duration::from_nanos(at_ns - t));
    }
}

/// Block until `now()` reaches `due_ns`: sleep the bulk, spin the last
/// stretch (timer slack would otherwise show up as generator lateness).
pub fn wait_until(now: impl Fn() -> u64, due_ns: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let t = now();
        if t >= due_ns {
            return;
        }
        if due_ns - t > SPIN_NS + 50_000 {
            std::thread::sleep(Duration::from_nanos(due_ns - t - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::Vec3;
    use parquake_protocol::Encode;

    fn window() -> Window {
        Window {
            warm_ticks: 2,
            window_ticks: 10,
        }
    }

    fn ledger(players: usize) -> Ledger {
        Ledger::new(window(), 1_000, vec![0; players], 1)
    }

    #[test]
    fn window_slices_cover_exactly_the_measured_ticks() {
        let w = Window::from_secs(1.0, 2.0);
        assert_eq!(w.warm_ticks, 33);
        assert_eq!(w.window_ticks, 67);
        assert_eq!(w.slices(), 67);
        assert_eq!(w.slice_of(32), None);
        assert_eq!(w.slice_of(33), Some(0));
        assert_eq!(w.slice_of(33 + 66), Some(66));
        assert_eq!(w.slice_of(33 + 67), None);
        assert!((w.window_secs() - 2.01).abs() < 1e-9);
        let marks = (0..w.total_ticks())
            .filter(|&t| w.slice_boundary(t))
            .count();
        assert_eq!(marks, w.slices() + 1, "one CPU mark per slice edge");
    }

    fn tally_of(l: &mut Ledger, s: &SentLog) -> Tally {
        tally(l, s, &mut Vec::new())
    }

    #[test]
    fn late_reply_misses_the_limit_and_duplicate_counts_once() {
        let mut l = ledger(2);
        let mut s = SentLog::new(window(), 2);
        for tick in 0..4 {
            s.note_sent(0, tick);
            s.note_sent(1, tick);
        }
        // Warm-up ticks 0 and 1, then player 0, tick 2 (seq 3): on
        // time, then a second copy.
        for p in 0..2 {
            l.on_reply(p, 2, l.due_ns(p, 1) + 1_000);
        }
        let due = l.due_ns(0, 2);
        l.on_reply(0, 3, due + 500_000);
        l.on_reply(0, 3, due + 900_000);
        // Player 1, tick 2: one nanosecond past the limit. Tick 3 of
        // both players is never acknowledged.
        l.on_reply(1, 3, l.due_ns(1, 2) + LATENCY_LIMIT_NS + 1);
        let t = tally_of(&mut l, &s);
        assert_eq!(t.attempted, 4);
        assert_eq!((t.on_time, t.late, t.unanswered), (1, 1, 2));
        assert_eq!(t.failed(), 2, "late is not failed; unanswered is");
        assert_eq!(l.duplicates, 1);
        assert_eq!(t.rtt_samples(), 2, "the duplicate adds no RTT sample");
        assert!(l.violations.is_empty());
    }

    #[test]
    fn a_later_reply_acknowledges_the_moves_it_supersedes() {
        // A stall merges ticks 4, 5 and 6 into one frame: the server
        // executes all three moves and answers once, echoing seq 7.
        let mut l = ledger(1);
        let mut s = SentLog::new(window(), 1);
        for tick in 0..window().total_ticks() {
            s.note_sent(0, tick);
            if !(4..6).contains(&tick) {
                l.on_reply(0, tick + 1, l.due_ns(0, tick) + 2_000_000);
            }
        }
        // A reply overtaken on the way acknowledges nothing new.
        l.on_reply(0, 5, l.due_ns(0, 6) + 3_000_000);
        let t = tally_of(&mut l, &s);
        assert_eq!(t.attempted, 10);
        assert_eq!((t.on_time, t.late, t.unanswered), (8, 2, 0));
        assert_eq!(l.duplicates, 1);
        // Each superseded move is timed from its own due time (window
        // slices start at tick 2).
        assert_eq!(t.rtt_ns[2], [2 * TICK_NS as u32 + 2_000_000]);
        assert_eq!(t.rtt_ns[3], [TICK_NS as u32 + 2_000_000]);
        assert_eq!(t.rtt_ns[4], [2_000_000]);
        assert!(l.violations.is_empty(), "{:?}", l.violations);
    }

    #[test]
    fn stalled_slices_do_not_move_rate_or_answered_share() {
        let w = Window {
            warm_ticks: 0,
            window_ticks: 20,
        };
        let mut l = Ledger::new(w, 0, vec![0; 4], 1);
        let mut s = SentLog::new(w, 4);
        for tick in 0..20 {
            for p in 0..4 {
                s.note_sent(p, tick);
                // Ticks 5..10 are held up by a stall and acknowledged
                // only by tick 10's reply.
                if !(5..10).contains(&tick) {
                    l.on_reply(p, tick + 1, l.due_ns(p, tick) + 1_000);
                }
            }
        }
        let t = tally_of(&mut l, &s);
        assert_eq!((t.attempted, t.on_time, t.late), (80, 60, 20));
        assert_eq!(t.failed(), 0);
        assert_eq!(t.slices[4], (4, 4));
        assert_eq!(t.slices[5], (4, 0));
        assert_eq!(t.answered_share(), Some(1.0));
        // 4 moves per 30 ms slice.
        let rate = t.moves_per_s(w.window_secs()).unwrap();
        assert!((rate - 4.0 / 0.03).abs() < 1e-9, "{rate}");
        // 2 µs of server CPU per move in every slice answered on time;
        // the stalled slices answered nothing on time and are left out.
        let mut cpu_ns = [8_000u64; 20];
        cpu_ns[5..10].fill(999_999);
        let cpu = t.cpu_s_per_mmoves(&cpu_ns).unwrap();
        assert!((cpu - 2.0).abs() < 1e-9, "{cpu}");
        // The stall shows in its own slices' RTT, not in the level.
        assert_eq!(t.rtt_us(0.5), Some(1.0));
        assert!(t.slice_rtt_us(0.5)[5] > 30_000.0);
    }

    #[test]
    fn a_stalled_generator_charges_the_stall_to_the_delayed_moves() {
        // The generator stalls for one tick: tick 5's group leaves
        // 30 ms late and the server answers 1 ms after receiving it.
        let mut l = ledger(1);
        let mut s = SentLog::new(window(), 1);
        for tick in 0..12 {
            let due = l.due_ns(0, tick);
            let stall = if tick == 5 { TICK_NS } else { 0 };
            s.note_sent(0, tick);
            s.note_group(tick, due, due + stall);
            l.on_reply(0, tick + 1, due + stall + 1_000_000);
        }
        let t = tally_of(&mut l, &s);
        // RTT runs from the due time, so the stalled move is late.
        assert_eq!((t.on_time, t.late), (9, 1));
        assert_eq!(s.late_p99_us(), TICK_NS as f64 / 1e3);
        assert_eq!(t.rtt_us(0.5), Some(1_000.0));
    }

    #[test]
    fn boundary_spans_run_from_due_time_to_reply() {
        let mut l = ledger(1);
        l.boundary_spans = true;
        let mut s = SentLog::new(window(), 1);
        for tick in 0..3 {
            s.note_sent(0, tick);
            l.on_reply(0, tick + 1, l.due_ns(0, tick) + 700);
        }
        let mut spans = Vec::new();
        tally(&mut l, &s, &mut spans);
        // Only tick 2 is inside the window.
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::MoveRtt);
        assert_eq!((spans[0].id, spans[0].dur_ns()), (3, 700));
        assert_eq!(spans[0].start_ns, l.due_ns(0, 2));
    }

    #[test]
    fn corrupted_and_phantom_replies_are_violations() {
        let mut l = ledger(1);
        let s = SentLog::new(window(), 1);
        let good = ServerMessage::Reply {
            client_id: 0,
            seq: 3,
            sent_at_echo: 0,
            frame: 1,
            assigned_thread: 0,
            origin: Vec3::ZERO,
            delta: false,
            entities: Vec::new(),
            removed: Vec::new(),
            events: Vec::new(),
            predict: None,
        }
        .to_bytes();
        let mut corrupt = good.clone();
        corrupt.truncate(good.len() - 2);
        assert!(l.on_datagram(&corrupt, 0).is_none());
        assert_eq!(l.violations.len(), 1);
        // A well-formed reply for a move nobody sent.
        assert!(l.on_datagram(&good, 2_000).is_some());
        tally_of(&mut l, &s);
        assert_eq!(l.violations.len(), 2, "{:?}", l.violations);
        // Out-of-range seq and thread.
        l.on_reply(0, 0, 0);
        l.on_reply(7, 1, 0);
        assert_eq!(l.violations.len(), 4);
    }
}
