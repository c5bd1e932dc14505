//! Per-arena load summaries and their aggregate rollup.
//!
//! A multi-arena directory runs N independent worlds; observability has
//! to answer both "how is arena k doing?" and "how is the machine
//! doing?". [`ArenaLoad`] is one arena's server- and client-side view
//! for a run; [`rollup`] folds a set of them into the aggregate the
//! `arenasweep` figure reports.

use crate::{ns_to_secs, Nanos, ResponseStats};

/// One arena's load summary over a measured window.
#[derive(Clone, Debug, Default)]
pub struct ArenaLoad {
    /// Arena id (the aggregate from [`rollup`] uses `u16::MAX`).
    pub arena: u16,
    /// Server frames this arena executed.
    pub frames: u64,
    /// Replies the arena's runtime sent.
    pub replies: u64,
    /// Move commands the arena executed.
    pub requests: u64,
    /// Datagrams drained from the arena's request ports.
    pub datagrams: u64,
    /// Clients the admission policy routed here.
    pub admitted: u64,
    /// Client-side response statistics attributed to this arena.
    pub response: ResponseStats,
}

impl ArenaLoad {
    /// Replies per second observed by this arena's clients.
    pub fn response_rate(&self, duration_ns: Nanos) -> f64 {
        if duration_ns == 0 {
            return 0.0;
        }
        self.response.received as f64 / ns_to_secs(duration_ns)
    }

    /// Average client-observed response time in milliseconds.
    pub fn avg_response_ms(&self) -> f64 {
        self.response.avg_latency_ms()
    }
}

/// What an elastic-directory event did to the live-arena set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticEventKind {
    /// An arena was brought live under admission pressure.
    Spawned,
    /// An idle arena was drained and reaped after its linger window.
    Reaped,
}

/// One spawn/reap transition of an elastic directory.
#[derive(Clone, Copy, Debug)]
pub struct ElasticEvent {
    /// Fabric time of the transition.
    pub at: Nanos,
    /// The arena that changed state.
    pub arena: u16,
    pub kind: ElasticEventKind,
    /// Live arenas immediately after the transition.
    pub live: u32,
}

/// Spawn/reap counters published by an elastic arena directory when
/// the run ends (the `repro elasticity` figure plots `events`).
#[derive(Clone, Debug, Default)]
pub struct ElasticStats {
    /// Arenas live at boot (never reaped).
    pub boot: u32,
    /// Upper bound on live arenas (the elasticity ceiling).
    pub max_arenas: u32,
    /// Arenas brought live under admission pressure.
    pub spawned: u64,
    /// Arenas drained and reaped after their linger window.
    pub reaped: u64,
    /// Peak live-arena count over the run.
    pub peak_live: u32,
    /// Live arenas when the run ended.
    pub live_at_end: u32,
    /// Every spawn/reap transition in order.
    pub events: Vec<ElasticEvent>,
}

impl ElasticStats {
    /// Live-arena count at fabric time `at` (from the event timeline).
    pub fn live_at(&self, at: Nanos) -> u32 {
        let mut live = self.boot;
        for ev in &self.events {
            if ev.at > at {
                break;
            }
            live = ev.live;
        }
        live
    }
}

/// Fold per-arena loads into the machine-level aggregate. Counters sum;
/// response statistics merge (so latency averages weight by replies).
pub fn rollup(per: &[ArenaLoad]) -> ArenaLoad {
    let mut agg = ArenaLoad {
        arena: u16::MAX,
        ..ArenaLoad::default()
    };
    for a in per {
        agg.frames += a.frames;
        agg.replies += a.replies;
        agg.requests += a.requests;
        agg.datagrams += a.datagrams;
        agg.admitted += a.admitted;
        agg.response.merge(&a.response);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(arena: u16, replies: u64, latency_ms: u64) -> ArenaLoad {
        let mut response = ResponseStats::new();
        for _ in 0..replies {
            response.note_sent();
            response.note_reply(latency_ms * 1_000_000);
        }
        ArenaLoad {
            arena,
            frames: 100,
            replies,
            requests: replies,
            datagrams: replies + 5,
            admitted: 4,
            response,
        }
    }

    #[test]
    fn rollup_sums_counters_and_merges_latency() {
        let per = [load(0, 100, 2), load(1, 300, 4)];
        let agg = rollup(&per);
        assert_eq!(agg.arena, u16::MAX);
        assert_eq!(agg.frames, 200);
        assert_eq!(agg.replies, 400);
        assert_eq!(agg.datagrams, 410);
        assert_eq!(agg.admitted, 8);
        assert_eq!(agg.response.received, 400);
        // Weighted mean: (100·2 + 300·4) / 400 = 3.5 ms.
        assert!((agg.avg_response_ms() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn elastic_live_count_follows_the_event_timeline() {
        let stats = ElasticStats {
            boot: 1,
            max_arenas: 4,
            spawned: 2,
            reaped: 1,
            peak_live: 3,
            live_at_end: 2,
            events: vec![
                ElasticEvent {
                    at: 100,
                    arena: 1,
                    kind: ElasticEventKind::Spawned,
                    live: 2,
                },
                ElasticEvent {
                    at: 200,
                    arena: 2,
                    kind: ElasticEventKind::Spawned,
                    live: 3,
                },
                ElasticEvent {
                    at: 300,
                    arena: 2,
                    kind: ElasticEventKind::Reaped,
                    live: 2,
                },
            ],
        };
        assert_eq!(stats.live_at(0), 1);
        assert_eq!(stats.live_at(150), 2);
        assert_eq!(stats.live_at(250), 3);
        assert_eq!(stats.live_at(1000), 2);
    }

    #[test]
    fn rates_divide_by_the_window() {
        let a = load(0, 500, 1);
        assert!((a.response_rate(10_000_000_000) - 50.0).abs() < 1e-9);
        assert_eq!(a.response_rate(0), 0.0);
    }
}
