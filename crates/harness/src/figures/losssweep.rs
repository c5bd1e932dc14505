//! Response rate vs injected datagram loss — an extension beyond the
//! paper's lossless-LAN evaluation.
//!
//! The fault-injection stage ([`parquake_fabric::fault`]) drops a
//! seeded fraction of every datagram in both directions (requests and
//! replies), so a nominal loss rate `p` costs about `1 - (1-p)²` of
//! the response rate before any recovery behaviour. The sweep shows
//! how much of the zero-loss response rate the sequential and parallel
//! servers retain as loss grows, with the client lifecycle (Connect
//! retry/backoff, inactivity reclaim, reply dedup) keeping every bot
//! in the game.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::{FabricKind, VirtualSmpConfig};
use parquake_metrics::report::{f, numeric_table};
use parquake_server::{LockPolicy, ServerKind};

use crate::experiment::{Experiment, ExperimentConfig, Outcome};
use crate::figures::common::{kind_label, SweepOpts};

/// Loss rates swept (percent).
pub const LOSS_PERCENTS: [u32; 5] = [0, 5, 10, 15, 20];

/// Lottery seed used by the sweep (and the regression test).
pub const LOSS_SEED: u64 = 0x1055_5EED;

/// Run one configuration under seeded loss `p` (0.0–1.0).
pub fn run_loss_config(players: u32, kind: ServerKind, loss: f32, opts: &SweepOpts) -> Outcome {
    let fault = if loss > 0.0 {
        Some(FaultConfig::loss(loss, LOSS_SEED))
    } else {
        None
    };
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::eval_arena(opts.seed),
        areanode_depth: opts.depth,
        fabric: FabricKind::VirtualSmp(VirtualSmpConfig {
            fault,
            ..Default::default()
        }),
        ..ExperimentConfig::new(players, kind, (opts.duration_secs * 1e9) as u64)
    };
    cfg.server.checking = false;
    // Loss runs exercise the server-side lifecycle too: silent slots
    // are reclaimed after 2 virtual seconds.
    cfg.server.client_timeout_ns = 2_000_000_000;
    Experiment::new(cfg).run()
}

/// Run the loss sweep.
pub fn run(opts: &SweepOpts) -> String {
    let players = *opts.players.first().unwrap_or(&64);
    let kinds = [
        ServerKind::Sequential,
        ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Optimized,
        },
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let mut baseline = 0.0f64;
        for pct in LOSS_PERCENTS {
            let out = run_loss_config(players, kind, pct as f32 / 100.0, opts);
            let rate = out.response_rate();
            if pct == 0 {
                baseline = rate;
            }
            let retained = if baseline > 0.0 {
                rate / baseline * 100.0
            } else {
                0.0
            };
            rows.push(vec![
                format!("{} @ {pct}% loss", kind_label(kind)),
                f(rate, 0),
                f(retained, 1),
                f(out.avg_response_ms(), 1),
                out.connected.to_string(),
                out.server.merged().timeouts.to_string(),
            ]);
        }
    }
    let mut s = format!(
        "== Response rate vs injected loss ({players} players, seed {LOSS_SEED:#x}) ==\n\n"
    );
    s.push_str(&numeric_table(
        &[
            "configuration",
            "replies/s",
            "of zero-loss %",
            "resp-ms",
            "connected",
            "timeouts",
        ],
        &rows,
    ));
    s.push_str(
        "\nLoss applies per datagram in both directions, so p%% nominal\n\
         loss bounds the reply stream at about (1-p)^2 of zero-loss.\n\
         Retention above that floor comes from the lifecycle machinery:\n\
         bots retry lost ConnectAcks with backoff, reply sequence\n\
         numbers dedup fault-duplicated datagrams, and the server\n\
         reclaims slots of clients that fall silent, so no player ever\n\
         wedges. Equal seeds replay the sweep bit-identically.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepOpts {
        SweepOpts {
            duration_secs: 3.0,
            players: vec![16],
            ..SweepOpts::default()
        }
    }

    #[test]
    fn loss_run_replays_deterministically() {
        // The whole lossy experiment — drops included — must replay
        // bit-identically from the seed.
        let run = || {
            let out = run_loss_config(
                12,
                ServerKind::Parallel {
                    threads: 4,
                    locking: LockPolicy::Optimized,
                },
                0.10,
                &quick(),
            );
            (out.response.sent, out.response.received, out.world_hash)
        };
        let a = run();
        assert!(a.1 > 0, "no replies under 10% loss: {a:?}");
        assert!(
            a.1 < a.0,
            "loss injected nothing: {} replies for {} moves",
            a.1,
            a.0
        );
        assert_eq!(a, run());
    }

    #[test]
    fn parallel_keeps_80pct_response_rate_at_10pct_loss() {
        // The headline resilience number: at 10% seeded loss with 64
        // players, the parallel server keeps >= 80% of its zero-loss
        // response rate (the no-recovery floor is (0.9)^2 = 81%).
        let opts = SweepOpts {
            duration_secs: 4.0,
            players: vec![64],
            ..SweepOpts::default()
        };
        let kind = ServerKind::Parallel {
            threads: 4,
            locking: LockPolicy::Optimized,
        };
        let base = run_loss_config(64, kind, 0.0, &opts);
        let lossy = run_loss_config(64, kind, 0.10, &opts);
        assert_eq!(lossy.connected, 64, "bots wedged under loss");
        let retention = lossy.response_rate() / base.response_rate();
        assert!(
            retention >= 0.80,
            "kept only {:.1}% of zero-loss response rate ({:.0} vs {:.0} replies/s)",
            retention * 100.0,
            lossy.response_rate(),
            base.response_rate()
        );
    }

    #[test]
    fn no_bot_wedges_under_loss() {
        // Every bot completes the handshake eventually, even when
        // Connect/ConnectAck datagrams are being dropped.
        let out = run_loss_config(
            16,
            ServerKind::Parallel {
                threads: 4,
                locking: LockPolicy::Optimized,
            },
            0.15,
            &quick(),
        );
        assert_eq!(out.connected, 16, "bots wedged in the handshake");
        assert!(out.response.received > 0);
    }
}
