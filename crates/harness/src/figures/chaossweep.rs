//! Chaossweep figure (extension): client-side prediction under
//! combined WAN fault profiles.
//!
//! Every other fault figure turns one knob; real WANs turn them all at
//! once. This sweep composes the full fault vocabulary — Gilbert–
//! Elliott bursty loss, bounded per-copy jitter (which reorders),
//! floored delay, one-way asymmetric downlink lag, a 1%-per-frame
//! supervised crash lottery, and an elastic population ramp — and runs
//! each profile twice: once with legacy clients and once with
//! predicting clients (input ring + server reconciliation).
//!
//! The comparison metric is the *effective response rate*: how many
//! inputs per second a client acted on. A legacy client acts when the
//! server's reply survives the round trip, so its effective rate is
//! the received-reply rate. A predicting client acts instantly on
//! every input and only loses the ones reconciliation later
//! invalidates, so its effective rate is
//! [`parquake_metrics::PredictionStats::effective_inputs`] per second.
//! The divergence oracle must stay at zero throughout: under every
//! profile, whenever a client has nothing in flight and the slot is
//! unperturbed, its predicted state equals the server's bit for bit.
//!
//! Faults are scoped to the WAN edge ([`VirtualSmpConfig::
//! fault_wan_only`]): bot sockets are marked, directory control and
//! migration capsules stay lossless — mirroring where a real gateway
//! injects.

use parquake_bots::SwarmRamp;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FaultDir};
use parquake_fabric::{FabricKind, Nanos, VirtualSmpConfig};
use parquake_metrics::report::{f, numeric_table};

use crate::arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
use crate::figures::common::SweepOpts;

/// The figure's machine shape: 4 supervised arenas, 8 slots each, a
/// 2-worker pool, 24 players (the crashsweep shape, so the crash
/// lottery's cost is comparable).
pub const ARENAS: u32 = 4;
pub const SLOTS: u16 = 8;
pub const PLAYERS: u32 = 24;
pub const WORKERS: u32 = 2;

/// Network lottery seed (decorrelated from the crash lottery's).
pub const CHAOS_SEED: u64 = 0xC4A0_55EE;

/// One combined WAN profile.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    pub name: &'static str,
    /// Gilbert–Elliott bursty loss rate (0 = off) and mean burst
    /// length in datagrams.
    pub burst_loss: f32,
    pub burst_len: f32,
    /// Per-copy jitter bound in ms (0 = off); jitter reorders.
    pub jitter_ms: u64,
    /// Delay lottery: probability and floored bounds in ms.
    pub delay: f32,
    pub min_delay_ms: u64,
    pub max_delay_ms: u64,
    /// Extra one-way (server→client) lag in ms — asymmetric downlink.
    pub oneway_ms: u64,
    /// Supervised per-frame panic lottery (0 = no crashes).
    pub crash_rate: f32,
    /// Run the elastic population ramp (join/leave churn).
    pub ramp: bool,
}

/// The swept profiles, mildest to harshest. The last entry is "the
/// internet on a bad day": every knob at once.
pub const PROFILES: [ChaosProfile; 4] = [
    ChaosProfile {
        name: "clean",
        burst_loss: 0.0,
        burst_len: 1.0,
        jitter_ms: 0,
        delay: 0.0,
        min_delay_ms: 0,
        max_delay_ms: 0,
        oneway_ms: 0,
        crash_rate: 0.0,
        ramp: false,
    },
    ChaosProfile {
        name: "bursty-loss",
        burst_loss: 0.05,
        burst_len: 4.0,
        jitter_ms: 0,
        delay: 0.0,
        min_delay_ms: 0,
        max_delay_ms: 0,
        oneway_ms: 0,
        crash_rate: 0.0,
        ramp: false,
    },
    ChaosProfile {
        name: "jitter-delay",
        burst_loss: 0.0,
        burst_len: 1.0,
        jitter_ms: 20,
        delay: 1.0,
        min_delay_ms: 20,
        max_delay_ms: 60,
        oneway_ms: 30,
        crash_rate: 0.0,
        ramp: false,
    },
    ChaosProfile {
        name: "full-wan",
        burst_loss: 0.12,
        burst_len: 4.0,
        jitter_ms: 20,
        delay: 1.0,
        min_delay_ms: 20,
        max_delay_ms: 60,
        oneway_ms: 30,
        crash_rate: 0.01,
        ramp: true,
    },
];

/// The harshest profile (the acceptance bar's subject).
pub fn harshest() -> ChaosProfile {
    PROFILES[PROFILES.len() - 1]
}

impl ChaosProfile {
    /// The WAN-edge datagram lottery for this profile (`None` = clean
    /// network).
    pub fn net_fault(&self, seed: u64) -> Option<FaultConfig> {
        let quiet = self.burst_loss == 0.0
            && self.jitter_ms == 0
            && self.delay == 0.0
            && self.oneway_ms == 0;
        (!quiet).then(|| FaultConfig {
            burst_loss: self.burst_loss,
            burst_len: self.burst_len,
            jitter_ns: self.jitter_ms * 1_000_000,
            delay: self.delay,
            min_delay_ns: self.min_delay_ms * 1_000_000,
            max_delay_ns: self.max_delay_ms * 1_000_000,
            oneway_delay_ns: self.oneway_ms * 1_000_000,
            oneway_dir: FaultDir::ServerToClient,
            seed: seed ^ CHAOS_SEED,
            ..FaultConfig::none()
        })
    }
}

/// Run one profile with prediction on or off.
pub fn run_at(profile: &ChaosProfile, predict: bool, opts: &SweepOpts) -> ArenaOutcome {
    let duration_ns = (opts.duration_secs * 1e9) as Nanos;
    let mut cfg = ArenaExperimentConfig {
        fabric: FabricKind::VirtualSmp(VirtualSmpConfig {
            fault: profile.net_fault(opts.seed),
            fault_wan_only: true,
            ..Default::default()
        }),
        // The elastic ramp: join staggered over the first 30%, hold,
        // drain over the next 20% — churn on top of the chaos, with
        // headroom for the director to spawn under pressure.
        ramp: profile.ramp.then_some(SwarmRamp::UpDown {
            ramp_up_ns: duration_ns * 3 / 10,
            hold_ns: duration_ns * 4 / 10,
            ramp_down_ns: duration_ns * 2 / 10,
        }),
        predict,
        ..ArenaExperimentConfig::new(PLAYERS, ARENAS, duration_ns)
    };
    let dir = &mut cfg.directory;
    dir.workers = WORKERS;
    dir.map = MapGenConfig::small_arena(opts.seed);
    dir.areanode_depth = opts.depth;
    dir.slots_per_arena = SLOTS;
    dir.supervision = true;
    dir.frame_faults = (profile.crash_rate > 0.0).then(|| FaultConfig {
        panic_per_frame: profile.crash_rate,
        seed: opts.seed ^ 0xC4A5_5EED,
        ..FaultConfig::none()
    });
    dir.max_arenas = if profile.ramp { ARENAS + 2 } else { 0 };
    dir.linger_ns = duration_ns / 20;
    // Lossy runs exercise the server lifecycle too: silent slots are
    // reclaimed after 2 virtual seconds.
    dir.server.client_timeout_ns = 2_000_000_000;
    dir.server.checking = false; // measured run: checkers off, like release Quake
    ArenaExperiment::new(cfg).run()
}

/// Inputs per second the clients acted on: received replies for legacy
/// clients, never-invalidated predictions for predicting ones.
pub fn effective_response_rate(o: &ArenaOutcome, predict: bool) -> f64 {
    if predict {
        o.prediction.effective_inputs() as f64 / (o.duration_ns as f64 / 1e9)
    } else {
        o.response_rate()
    }
}

/// Run the sweep and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let mut s = format!(
        "== Chaossweep (extension): {PLAYERS} players over {ARENAS} supervised \
         arenas, {WORKERS}-worker pool, combined WAN profiles, prediction \
         off vs on ==\n\n"
    );

    let mut rows = Vec::new();
    let mut harsh_rates = (0.0f64, 0.0f64);
    for profile in &PROFILES {
        for predict in [false, true] {
            let o = run_at(profile, predict, opts);
            let eff = effective_response_rate(&o, predict);
            if profile.name == harshest().name {
                if predict {
                    harsh_rates.1 = eff;
                } else {
                    harsh_rates.0 = eff;
                }
            }
            let p = &o.prediction;
            rows.push(vec![
                profile.name.to_string(),
                if predict { "on" } else { "off" }.to_string(),
                f(o.response_rate(), 0),
                f(eff, 0),
                if predict {
                    format!("{:.2}%", p.misprediction_rate() * 100.0)
                } else {
                    "-".into()
                },
                if predict {
                    format!("{}/{}", p.depth.percentile(0.50), p.depth.percentile(0.95))
                } else {
                    "-".into()
                },
                if predict {
                    format!("{}/{}", p.oracle_checks, p.oracle_mismatches)
                } else {
                    "-".into()
                },
                o.supervisor.panics_caught.to_string(),
                o.connected.to_string(),
            ]);
        }
    }
    s.push_str(&numeric_table(
        &[
            "profile",
            "predict",
            "replies/s",
            "effective/s",
            "mispred",
            "depth p50/p95",
            "oracle ok/bad",
            "panics",
            "connected",
        ],
        &rows,
    ));
    s.push('\n');

    if harsh_rates.0 > 0.0 {
        s.push_str(&format!(
            "harshest profile ({}): prediction-on effective rate {:.0}/s vs \
             prediction-off {:.0}/s — {:.2}x (acceptance bar: >= 1.2x)\n",
            harshest().name,
            harsh_rates.1,
            harsh_rates.0,
            harsh_rates.1 / harsh_rates.0
        ));
    }
    s.push_str(
        "\nA legacy client acts on an input only when the server's reply\n\
         survives bursty loss, jitter, asymmetric delay, and crash-shed\n\
         frames; a predicting client acts instantly and loses only the\n\
         inputs reconciliation later invalidates. The oracle column is a\n\
         correctness gate, not a tuning metric: with nothing in flight and\n\
         an unperturbed slot, prediction must equal the server bit for bit\n\
         under every profile.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci_opts() -> SweepOpts {
        SweepOpts {
            duration_secs: 4.0,
            ..SweepOpts::default()
        }
    }

    /// The ISSUE's acceptance bar: under the harshest combined profile
    /// (bursty loss + jitter + floored delay + one-way lag + 1%/frame
    /// crash lottery + elastic ramp), prediction-on retains at least
    /// 1.2x the effective-response rate of prediction-off, with zero
    /// divergence-oracle mismatches.
    #[test]
    fn prediction_retains_effective_rate_under_harshest_profile() {
        let opts = ci_opts();
        let profile = harshest();
        let off = run_at(&profile, false, &opts);
        let on = run_at(&profile, true, &opts);

        assert!(off.supervisor.panics_caught >= 1, "lottery never fired");
        assert!(on.supervisor.panics_caught >= 1, "lottery never fired");
        assert!(
            on.prediction.oracle_checks > 0,
            "oracle never armed: {:?}",
            on.prediction
        );
        assert_eq!(
            on.prediction.oracle_mismatches, 0,
            "prediction diverged from the server: {:?}",
            on.prediction
        );
        assert!(
            on.prediction.closed(on.predict_in_flight),
            "prediction ledger must close: {:?} + in flight {}",
            on.prediction,
            on.predict_in_flight
        );

        let rate_off = effective_response_rate(&off, false);
        let rate_on = effective_response_rate(&on, true);
        assert!(rate_off > 0.0, "legacy clients starved entirely");
        assert!(
            rate_on >= 1.2 * rate_off,
            "prediction-on effective rate {:.0}/s < 1.2x prediction-off {:.0}/s ({:.2}x)",
            rate_on,
            rate_off,
            rate_on / rate_off
        );
    }

    /// Under the clean profile both rows behave: the oracle is armed
    /// and silent, and prediction costs nothing measurable in replies.
    #[test]
    fn clean_profile_oracle_is_armed_and_silent() {
        let o = run_at(&PROFILES[0], true, &ci_opts());
        assert_eq!(o.connected, PLAYERS);
        assert!(o.prediction.oracle_checks > 0, "{:?}", o.prediction);
        assert_eq!(o.prediction.oracle_mismatches, 0, "{:?}", o.prediction);
        assert!(o.prediction.closed(o.predict_in_flight));
        assert!(o.supervisor.panics_caught == 0);
    }

    /// The whole stack — bursty loss, jitter, delay floor, one-way
    /// lag, crash lottery, elastic ramp, prediction — replays
    /// identically from its seeds.
    #[test]
    fn chaossweep_runs_are_deterministic() {
        let opts = ci_opts();
        let profile = harshest();
        let a = run_at(&profile, true, &opts);
        let b = run_at(&profile, true, &opts);
        assert_eq!(a.world_hashes, b.world_hashes);
        assert_eq!(a.aggregate.replies, b.aggregate.replies);
        assert_eq!(a.supervisor.panics_caught, b.supervisor.panics_caught);
        assert_eq!(a.prediction.predicted, b.prediction.predicted);
        assert_eq!(a.prediction.mispredictions, b.prediction.mispredictions);
        assert_eq!(a.prediction.oracle_checks, b.prediction.oracle_checks);
        assert_eq!(a.prediction.depth.counts, b.prediction.depth.counts);
        assert_eq!(a.predict_in_flight, b.predict_in_flight);
    }
}
