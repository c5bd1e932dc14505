//! Spans recorded by the benchmark's own files around calls into each
//! layer. Spans stay in memory and are summarised (and optionally
//! written as Chrome-trace JSON) when the run ends.

use crate::estimator::{median, percentile_sorted};

/// What a span covers. The first six are the server frame phases the
/// mirror driver records; the last three belong to the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Blocked in select before the frame (no parent).
    SelectWait,
    /// The whole frame; parent of every phase below.
    Frame,
    WorldUpdate,
    DrainRequests,
    /// The reply phase; parent of the two interest spans.
    Reply,
    InterestIndex,
    InterestMatch,
    LoadgenThinkEncode,
    LoadgenRecvDecode,
    /// Benchmark-boundary span: a move's due time to its reply.
    MoveRtt,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SelectWait => "select_wait",
            SpanKind::Frame => "frame",
            SpanKind::WorldUpdate => "world_update",
            SpanKind::DrainRequests => "drain_requests",
            SpanKind::Reply => "reply",
            SpanKind::InterestIndex => "interest_index",
            SpanKind::InterestMatch => "interest_match",
            SpanKind::LoadgenThinkEncode => "loadgen_think_encode",
            SpanKind::LoadgenRecvDecode => "loadgen_recv_decode",
            SpanKind::MoveRtt => "move_rtt",
        }
    }

    /// The span that caused this one.
    pub fn parent(self) -> Option<SpanKind> {
        match self {
            SpanKind::WorldUpdate | SpanKind::DrainRequests | SpanKind::Reply => {
                Some(SpanKind::Frame)
            }
            SpanKind::InterestIndex | SpanKind::InterestMatch => Some(SpanKind::Reply),
            _ => None,
        }
    }

    /// Which trace thread row the span is drawn on.
    fn tid(self) -> u32 {
        match self {
            SpanKind::LoadgenThinkEncode => 2,
            SpanKind::LoadgenRecvDecode | SpanKind::MoveRtt => 3,
            _ => 1,
        }
    }
}

/// One recorded span. Spans of one server frame (or one generator
/// tick) share `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of `kind` inside `[from_ns, to_ns)`: its
/// duration minus the part its direct children cover. Children are
/// matched by shared `id`.
pub fn self_times_ns(spans: &[Span], kind: SpanKind, from_ns: u64, to_ns: u64) -> Vec<u64> {
    let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.kind.parent() == Some(kind)) {
        *child_ns.entry(s.id).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.kind == kind && s.start_ns >= from_ns && s.start_ns < to_ns)
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Median and p99 of a kind's self time, in microseconds, with the
/// sample count. Zeroes when no span of that kind was recorded.
pub fn self_time_us(spans: &[Span], kind: SpanKind, from_ns: u64, to_ns: u64) -> (f64, f64, usize) {
    let mut v = self_times_ns(spans, kind, from_ns, to_ns);
    v.sort_unstable();
    let f: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
    (
        median(&f).unwrap_or(0.0),
        percentile_sorted(&f, 0.99).unwrap_or(0.0),
        v.len(),
    )
}

/// Chrome-trace ("Trace Event Format") JSON: load it in
/// `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            s.kind.name(),
            s.kind.tid(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.kind.parent().map(SpanKind::name).unwrap_or("")
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(SpanKind::Frame, 1, 0, 100),
            span(SpanKind::WorldUpdate, 1, 0, 10),
            span(SpanKind::DrainRequests, 1, 10, 40),
            span(SpanKind::Reply, 1, 40, 95),
            span(SpanKind::InterestIndex, 1, 40, 50),
            span(SpanKind::InterestMatch, 1, 50, 70),
            // Another frame's children must not leak in.
            span(SpanKind::Frame, 2, 200, 230),
            span(SpanKind::Reply, 2, 205, 225),
        ];
        assert_eq!(self_times_ns(&spans, SpanKind::Frame, 0, 1_000), [5, 10]);
        assert_eq!(self_times_ns(&spans, SpanKind::Reply, 0, 1_000), [25, 20]);
        assert_eq!(
            self_times_ns(&spans, SpanKind::InterestMatch, 0, 1_000),
            [20]
        );
        // The window filters by start time.
        assert_eq!(self_times_ns(&spans, SpanKind::Frame, 150, 1_000), [10]);
    }

    #[test]
    fn chrome_trace_lists_every_span_once() {
        let spans = [
            span(SpanKind::Frame, 7, 1_000, 3_500),
            span(SpanKind::Reply, 7, 2_000, 3_000),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"reply\""));
        assert!(json.contains("\"ts\":2.000,\"dur\":1.000"));
        assert!(json.contains("\"parent\":\"frame\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
