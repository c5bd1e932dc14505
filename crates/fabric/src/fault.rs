//! Deterministic datagram fault injection.
//!
//! Real game UDP traffic is lossy — QuakeWorld's netchan exists because
//! of it — but the paper's evaluation assumed a lossless LAN. This
//! module provides a seeded lottery that decides, per datagram, whether
//! it is dropped, duplicated, delayed (and therefore possibly
//! reordered), or passed through untouched. The same lottery drives
//! both fabrics:
//!
//! * the virtual-SMP simulator applies it inside [`Fabric::send`], so
//!   whole lossy-network experiments replay bit-identically from a
//!   seed ([`crate::VirtualSmpConfig::fault`]);
//! * the real UDP gateway gives each inbound socket pump a
//!   [`FaultLottery`] of its own.
//!
//! [`Fabric::send`]: crate::Fabric::send

use parquake_math::Pcg32;

use crate::Nanos;

/// Which way a datagram is travelling, for the asymmetric one-way
/// knobs. The virtual fabric classifies a send by its WAN-marked
/// endpoints; the real gateway's inbound pumps are client→server by
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultDir {
    /// Requests: client → server (gateway inbound).
    #[default]
    ClientToServer,
    /// Replies: server → client (gateway outbound).
    ServerToClient,
}

/// Fault probabilities and the seed that makes them reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability a datagram is dropped outright.
    pub drop: f32,
    /// Probability a delivered datagram is duplicated (one extra copy).
    pub duplicate: f32,
    /// Probability a delivered copy is delayed by a uniform extra
    /// latency in `(min_delay_ns, max_delay_ns]` — delayed copies
    /// overtake or are overtaken by later traffic, so this is also a
    /// reorder knob.
    pub delay: f32,
    /// Lower bound (floor) of the injected extra delay. Must be
    /// `<= max_delay_ns`; 0 reproduces the historical `(0, max]` draw
    /// byte-identically.
    pub min_delay_ns: Nanos,
    /// Upper bound of the injected extra delay.
    pub max_delay_ns: Nanos,
    /// Average datagram loss contributed by the two-state
    /// Gilbert–Elliott burst process (0 = off). Unlike `drop`, losses
    /// cluster: the lottery walks a Good/Bad Markov chain and the Bad
    /// state swallows every datagram it sees.
    pub burst_loss: f32,
    /// Mean burst length in datagrams (the expected Bad-state dwell
    /// time). Must be `>= 1` when `burst_loss > 0`.
    pub burst_len: f32,
    /// Bounded per-copy jitter: every delivered copy gains a uniform
    /// extra delay in `[0, jitter_ns]`. Independent draws per copy make
    /// adjacent datagrams overtake each other — sustained reordering,
    /// where `delay` models occasional spikes.
    pub jitter_ns: Nanos,
    /// Fixed one-way extra delay applied to every copy travelling in
    /// [`Self::oneway_dir`] — the asymmetric-path WAN case. Consumes no
    /// lottery draws, so enabling it never perturbs the fate stream.
    pub oneway_delay_ns: Nanos,
    /// Direction the one-way delay applies to.
    pub oneway_dir: FaultDir,
    /// Probability an *arena frame* panics mid-execution (drawn by the
    /// per-arena [`FrameLottery`], not the datagram path). Exercises
    /// the supervisor's catch/restore machinery.
    pub panic_per_frame: f32,
    /// Probability an arena frame wedges for [`Self::stuck_ns`] of
    /// modelled time instead of finishing promptly — exercises the
    /// watchdog's deadline-overrun detection.
    pub stuck_per_frame: f32,
    /// How long a stuck frame stalls.
    pub stuck_ns: Nanos,
    /// Lottery seed; equal seeds draw identical fates.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (every datagram passes untouched).
    pub const fn none() -> FaultConfig {
        FaultConfig {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            min_delay_ns: 0,
            max_delay_ns: 0,
            burst_loss: 0.0,
            burst_len: 0.0,
            jitter_ns: 0,
            oneway_delay_ns: 0,
            oneway_dir: FaultDir::ClientToServer,
            panic_per_frame: 0.0,
            stuck_per_frame: 0.0,
            stuck_ns: 0,
            seed: 0,
        }
    }

    /// Pure seeded loss at probability `p`, no duplication or delay.
    pub const fn loss(p: f32, seed: u64) -> FaultConfig {
        FaultConfig {
            drop: p,
            seed,
            ..FaultConfig::none()
        }
    }

    /// Clustered loss: average rate `p`, mean burst length `burst_len`
    /// datagrams (Gilbert–Elliott), no other faults.
    pub const fn bursty(p: f32, burst_len: f32, seed: u64) -> FaultConfig {
        FaultConfig {
            burst_loss: p,
            burst_len,
            seed,
            ..FaultConfig::none()
        }
    }

    /// The [`NAMED`] profile called `name`.
    pub fn named(name: &str) -> Option<FaultConfig> {
        NAMED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f.clone())
    }

    /// Does this config never alter a datagram? (Deliberately ignores
    /// the frame faults: those fire inside arena frames, not on the
    /// datagram path, and are gated by [`Self::frame_faults_enabled`].)
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && (self.delay <= 0.0 || self.max_delay_ns == 0)
            && self.burst_loss <= 0.0
            && self.jitter_ns == 0
            && self.oneway_delay_ns == 0
    }

    /// Can the frame lottery ever injure a frame?
    pub fn frame_faults_enabled(&self) -> bool {
        self.panic_per_frame > 0.0 || (self.stuck_per_frame > 0.0 && self.stuck_ns > 0)
    }

    /// Reject configs with a probability outside `0.0..=1.0` (NaN
    /// included) or knobs that contradict each other. Called by
    /// [`FaultLottery::new`] (and therefore by both fabrics) so a bad
    /// profile fails loudly at build time instead of silently skewing a
    /// sweep.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
            ("burst_loss", self.burst_loss),
            ("panic_per_frame", self.panic_per_frame),
            ("stuck_per_frame", self.stuck_per_frame),
        ] {
            // A NaN is in no range.
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "invalid fault profile: {name} ({p}) must be a probability in 0.0..=1.0"
                ));
            }
        }
        if !self.burst_len.is_finite() {
            return Err(format!(
                "invalid fault profile: burst_len ({}) must be finite",
                self.burst_len
            ));
        }
        if self.min_delay_ns > self.max_delay_ns {
            return Err(format!(
                "invalid fault profile: min_delay_ns ({}) > max_delay_ns ({})",
                self.min_delay_ns, self.max_delay_ns
            ));
        }
        if self.burst_loss > 0.0 {
            if self.burst_loss >= 1.0 {
                return Err(format!(
                    "invalid fault profile: burst_loss ({}) must be < 1.0",
                    self.burst_loss
                ));
            }
            if self.burst_len < 1.0 {
                return Err(format!(
                    "invalid fault profile: burst_len ({}) must be >= 1 when burst_loss > 0",
                    self.burst_len
                ));
            }
        }
        Ok(())
    }
}

/// Named network profiles (`udpd --fault NAME`), seed included, so a
/// run's faults are one word: `lossy` is independent drop, duplicate
/// and delay; `wan` is Gilbert–Elliott bursty loss with per-copy
/// jitter.
pub const NAMED: [(&str, FaultConfig); 2] = [
    (
        "lossy",
        FaultConfig {
            duplicate: 0.04,
            delay: 0.04,
            max_delay_ns: 20_000_000,
            ..FaultConfig::loss(0.08, 7)
        },
    ),
    (
        "wan",
        FaultConfig {
            jitter_ns: 20_000_000,
            ..FaultConfig::bursty(0.05, 4.0, 7)
        },
    ),
];

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the lottery did, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams delivered (at least one copy).
    pub passed: u64,
    /// Datagrams dropped (no copy delivered).
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Copies delivered late.
    pub delayed: u64,
    /// Datagrams swallowed by the Gilbert–Elliott Bad state (counted
    /// separately from `dropped` so a sweep can attribute loss to the
    /// burst process vs the independent knob).
    pub burst_dropped: u64,
    /// Copies that gained nonzero jitter.
    pub jittered: u64,
}

/// The seeded per-datagram lottery. Single-owner: the virtual fabric
/// holds one, and so does each of the real gateway's inbound pumps (so
/// cross-run determinism holds on the virtual fabric only — on real
/// sockets the order datagrams reach a pump is the kernel's).
#[derive(Clone, Debug)]
pub struct FaultLottery {
    cfg: FaultConfig,
    rng: Pcg32,
    stats: FaultStats,
    /// Gilbert–Elliott chain state (true = Bad, swallowing traffic).
    ge_bad: bool,
    /// Precomputed transition probabilities so `draw` stays branch-light.
    ge_good_to_bad: f32,
    ge_bad_to_good: f32,
}

impl FaultLottery {
    /// Panics on a contradictory config ([`FaultConfig::validate`]) —
    /// fault profiles are experiment inputs, so a bad one is a bug at
    /// the call site, not a runtime condition to limp through.
    pub fn new(cfg: FaultConfig) -> FaultLottery {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        // Choose GE transitions so the stationary Bad probability is
        // exactly `burst_loss` and the mean Bad dwell is `burst_len`
        // datagrams: r = 1/B, p = r·L/(1−L) gives π_bad = p/(p+r) = L.
        let (ge_good_to_bad, ge_bad_to_good) = if cfg.burst_loss > 0.0 {
            let r = 1.0 / cfg.burst_len;
            (r * cfg.burst_loss / (1.0 - cfg.burst_loss), r)
        } else {
            (0.0, 0.0)
        };
        FaultLottery {
            rng: Pcg32::seeded(cfg.seed),
            cfg,
            stats: FaultStats::default(),
            ge_bad: false,
            ge_good_to_bad,
            ge_bad_to_good,
        }
    }

    /// Decide the fate of one datagram. Each element of the returned
    /// vector is one copy to deliver, valued with its extra delay in
    /// nanoseconds (0 = on time); an empty vector means the datagram is
    /// dropped. A duplicated datagram yields two entries.
    ///
    /// Direction-blind shorthand for [`Self::draw_dir`] with
    /// [`FaultDir::ClientToServer`] — the right call for gateway inbound
    /// pumps and for callers that never enable the one-way knob.
    pub fn draw(&mut self) -> Vec<Nanos> {
        self.draw_dir(FaultDir::ClientToServer)
    }

    /// [`Self::draw`], but telling the lottery which way the datagram
    /// travels so the asymmetric one-way delay can apply. Every knob
    /// that is disabled consumes zero RNG draws, so enabling a new knob
    /// never perturbs the fate stream of the old ones — legacy seeds
    /// replay byte-identically.
    pub fn draw_dir(&mut self, dir: FaultDir) -> Vec<Nanos> {
        if self.cfg.is_noop() {
            self.stats.passed += 1;
            return vec![0];
        }
        // Gilbert–Elliott first: one transition draw per datagram keeps
        // the chain's clock tied to traffic, not to the other knobs.
        if self.cfg.burst_loss > 0.0 {
            let flip = if self.ge_bad {
                self.ge_bad_to_good
            } else {
                self.ge_good_to_bad
            };
            if self.rng.chance(flip) {
                self.ge_bad = !self.ge_bad;
            }
            if self.ge_bad {
                self.stats.burst_dropped += 1;
                return Vec::new();
            }
        }
        if self.rng.chance(self.cfg.drop) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        self.stats.passed += 1;
        let copies = if self.rng.chance(self.cfg.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let oneway = if self.cfg.oneway_delay_ns > 0 && dir == self.cfg.oneway_dir {
            self.cfg.oneway_delay_ns
        } else {
            0
        };
        let mut fates = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut extra = if self.cfg.max_delay_ns > 0 && self.rng.chance(self.cfg.delay) {
                self.stats.delayed += 1;
                let span = self.cfg.max_delay_ns - self.cfg.min_delay_ns;
                if span > 0 {
                    // min = 0 reproduces the historical `1 + u % max`
                    // draw bit-for-bit.
                    self.cfg.min_delay_ns + 1 + self.rng.next_u64() % span
                } else {
                    self.cfg.min_delay_ns
                }
            } else {
                0
            };
            if self.cfg.jitter_ns > 0 {
                let j = self.rng.next_u64() % (self.cfg.jitter_ns + 1);
                if j > 0 {
                    self.stats.jittered += 1;
                }
                extra += j;
            }
            fates.push(extra + oneway);
        }
        fates
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// The fate the frame lottery deals one arena frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Frame runs normally.
    None,
    /// Frame panics (the supervisor must catch and recover).
    Panic,
    /// Frame stalls for the given extra modelled time before running
    /// (long stalls trip the directory watchdog). Injected as
    /// `ctx.charge(ns)`, so it exists on the virtual fabric only.
    Stuck(Nanos),
}

/// Seeded per-arena-frame fault lottery. One per arena, salted with the
/// arena id, so an arena's fate sequence is independent of how pool
/// workers interleave frames across arenas — crash runs replay
/// bit-identically on the virtual fabric.
#[derive(Clone, Debug)]
pub struct FrameLottery {
    panic_per_frame: f32,
    stuck_per_frame: f32,
    stuck_ns: Nanos,
    rng: Pcg32,
}

impl FrameLottery {
    /// Build from a config, salted (usually with the arena id).
    pub fn new(cfg: &FaultConfig, salt: u64) -> FrameLottery {
        FrameLottery {
            panic_per_frame: cfg.panic_per_frame,
            stuck_per_frame: cfg.stuck_per_frame,
            stuck_ns: cfg.stuck_ns,
            rng: Pcg32::seeded(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Decide the fate of one frame.
    pub fn draw(&mut self) -> FrameFault {
        if self.panic_per_frame > 0.0 && self.rng.chance(self.panic_per_frame) {
            return FrameFault::Panic;
        }
        if self.stuck_per_frame > 0.0 && self.stuck_ns > 0 && self.rng.chance(self.stuck_per_frame)
        {
            return FrameFault::Stuck(self.stuck_ns);
        }
        FrameFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fates(cfg: FaultConfig, n: usize) -> Vec<Vec<Nanos>> {
        let mut l = FaultLottery::new(cfg);
        (0..n).map(|_| l.draw()).collect()
    }

    #[test]
    fn noop_config_passes_everything() {
        let all = fates(FaultConfig::none(), 1000);
        assert!(all.iter().all(|f| f == &vec![0]));
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let all = fates(FaultConfig::loss(0.25, 42), 10_000);
        let dropped = all.iter().filter(|f| f.is_empty()).count();
        // Binomial(10000, 0.25): ±5σ ≈ ±217.
        assert!(
            (2_250..=2_750).contains(&dropped),
            "dropped = {dropped} of 10000 at p=0.25"
        );
    }

    #[test]
    fn duplicates_and_delays_appear() {
        let cfg = FaultConfig {
            drop: 0.1,
            duplicate: 0.2,
            delay: 0.3,
            max_delay_ns: 5_000_000,
            seed: 7,
            ..FaultConfig::none()
        };
        let all = fates(cfg.clone(), 5_000);
        let dup = all.iter().filter(|f| f.len() == 2).count();
        let delayed = all.iter().flatten().filter(|&&d| d > 0).count();
        assert!(dup > 500, "dup = {dup}");
        assert!(delayed > 500, "delayed = {delayed}");
        assert!(all.iter().flatten().all(|&d| d <= cfg.max_delay_ns));
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = FaultConfig {
            drop: 0.15,
            duplicate: 0.05,
            delay: 0.1,
            max_delay_ns: 1_000_000,
            seed: 99,
            ..FaultConfig::none()
        };
        assert_eq!(fates(cfg.clone(), 2_000), fates(cfg, 2_000));
    }

    #[test]
    fn stats_account_for_every_draw() {
        let cfg = FaultConfig {
            drop: 0.2,
            duplicate: 0.1,
            delay: 0.2,
            max_delay_ns: 1_000,
            seed: 3,
            ..FaultConfig::none()
        };
        let mut l = FaultLottery::new(cfg);
        let n = 3_000u64;
        for _ in 0..n {
            l.draw();
        }
        let s = l.stats();
        assert_eq!(s.passed + s.dropped, n);
        assert!(s.duplicated > 0 && s.delayed > 0);
    }

    #[test]
    fn legacy_profiles_replay_byte_identically_with_new_knobs_present() {
        // The WAN knobs default to off and must consume zero RNG draws,
        // so a config written before they existed deals the exact same
        // fate stream today. Golden check: replay a legacy profile and
        // confirm disabling-by-default equals an explicit all-off build.
        let legacy = FaultConfig {
            drop: 0.15,
            duplicate: 0.05,
            delay: 0.1,
            max_delay_ns: 1_000_000,
            seed: 99,
            ..FaultConfig::none()
        };
        let explicit = FaultConfig {
            min_delay_ns: 0,
            burst_loss: 0.0,
            burst_len: 0.0,
            jitter_ns: 0,
            oneway_delay_ns: 0,
            ..legacy.clone()
        };
        assert_eq!(fates(legacy, 4_000), fates(explicit, 4_000));
    }

    #[test]
    fn delay_floor_bounds_are_honoured() {
        let cfg = FaultConfig {
            delay: 1.0,
            min_delay_ns: 2_000,
            max_delay_ns: 5_000,
            seed: 21,
            ..FaultConfig::none()
        };
        let all = fates(cfg, 3_000);
        assert!(all.iter().flatten().all(|&d| (2_001..=5_000).contains(&d)));
        // Degenerate span pins the delay exactly.
        let cfg = FaultConfig {
            delay: 1.0,
            min_delay_ns: 7_000,
            max_delay_ns: 7_000,
            seed: 21,
            ..FaultConfig::none()
        };
        assert!(fates(cfg, 500).iter().flatten().all(|&d| d == 7_000));
    }

    #[test]
    fn invalid_configs_are_rejected_at_build_time() {
        let floor_above_ceiling = FaultConfig {
            delay: 0.5,
            min_delay_ns: 10,
            max_delay_ns: 5,
            ..FaultConfig::none()
        };
        assert!(floor_above_ceiling.validate().is_err());
        let sub_datagram_burst = FaultConfig {
            burst_loss: 0.1,
            burst_len: 0.5,
            ..FaultConfig::none()
        };
        assert!(sub_datagram_burst.validate().is_err());
        let total_burst = FaultConfig {
            burst_loss: 1.0,
            burst_len: 4.0,
            ..FaultConfig::none()
        };
        assert!(total_burst.validate().is_err());
        assert!(FaultConfig::none().validate().is_ok());
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        type Set = fn(&mut FaultConfig);
        let bad: [(&str, Set); 8] = [
            ("drop", |c| c.drop = 1.5),
            ("duplicate", |c| c.duplicate = -0.2),
            ("delay", |c| c.delay = f32::NAN),
            ("burst_loss", |c| c.burst_loss = -0.1),
            ("burst_loss", |c| c.burst_loss = f32::NAN),
            ("panic_per_frame", |c| c.panic_per_frame = 7.0),
            ("stuck_per_frame", |c| c.stuck_per_frame = f32::INFINITY),
            ("burst_len", |c| c.burst_len = f32::NAN),
        ];
        for (field, set) in bad {
            let mut cfg = FaultConfig::none();
            set(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
        // The ends of the range are legal (certain loss is a test tool).
        let mut edges = FaultConfig::loss(1.0, 0);
        edges.duplicate = 1.0;
        edges.panic_per_frame = 1.0;
        assert!(edges.validate().is_ok());
    }

    #[test]
    fn named_profiles_are_the_smoke_mixes() {
        // `lossy` = `--loss 0.08 --dup 0.04 --delay 0.04 --delay-ms 20
        // --fault-seed 7`; `wan` = `--burst-loss 0.05 --burst-len 4
        // --jitter-ms 20 --fault-seed 7`.
        let lossy = FaultConfig {
            drop: 0.08,
            duplicate: 0.04,
            delay: 0.04,
            max_delay_ns: 20_000_000,
            seed: 7,
            ..FaultConfig::none()
        };
        let wan = FaultConfig {
            burst_loss: 0.05,
            burst_len: 4.0,
            jitter_ns: 20_000_000,
            seed: 7,
            ..FaultConfig::none()
        };
        assert_eq!(FaultConfig::named("lossy"), Some(lossy));
        assert_eq!(FaultConfig::named("wan"), Some(wan));
        assert_eq!(FaultConfig::named("nosuch"), None);
        for (name, f) in &NAMED {
            assert_eq!(f.validate(), Ok(()), "{name}");
            assert!(!f.is_noop(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "min_delay_ns")]
    fn lottery_panics_on_invalid_config() {
        FaultLottery::new(FaultConfig {
            delay: 0.5,
            min_delay_ns: 10,
            max_delay_ns: 5,
            ..FaultConfig::none()
        });
    }

    #[test]
    fn burst_loss_rate_is_roughly_honoured_and_clusters() {
        let all = fates(FaultConfig::bursty(0.25, 8.0, 1234), 40_000);
        let lost = all.iter().filter(|f| f.is_empty()).count();
        // Bursty losses are correlated, so the variance is far above
        // binomial — allow a generous ±40% band around the mean.
        assert!(
            (6_000..=14_000).contains(&lost),
            "burst-lost = {lost} of 40000 at L=0.25"
        );
        // Clustering: mean run length of consecutive losses should be
        // well above the ≈1.33 an independent 25% drop would produce.
        let mut runs = 0usize;
        let mut in_run = false;
        for f in &all {
            if f.is_empty() {
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        let mean_run = lost as f64 / runs.max(1) as f64;
        assert!(mean_run > 3.0, "mean loss-run length = {mean_run:.2}");
    }

    #[test]
    fn combined_wan_profile_replays_identically() {
        let cfg = FaultConfig {
            drop: 0.05,
            duplicate: 0.02,
            delay: 0.1,
            min_delay_ns: 1_000_000,
            max_delay_ns: 8_000_000,
            burst_loss: 0.1,
            burst_len: 4.0,
            jitter_ns: 2_000_000,
            oneway_delay_ns: 15_000_000,
            oneway_dir: FaultDir::ServerToClient,
            seed: 77,
            ..FaultConfig::none()
        };
        let run = |cfg: FaultConfig| {
            let mut l = FaultLottery::new(cfg);
            let fates: Vec<Vec<Nanos>> = (0..5_000)
                .map(|i| {
                    l.draw_dir(if i % 3 == 0 {
                        FaultDir::ServerToClient
                    } else {
                        FaultDir::ClientToServer
                    })
                })
                .collect();
            (fates, l.stats())
        };
        assert_eq!(run(cfg.clone()), run(cfg));
    }

    #[test]
    fn jitter_applies_per_copy_and_is_bounded() {
        let cfg = FaultConfig {
            duplicate: 1.0,
            jitter_ns: 3_000,
            seed: 5,
            ..FaultConfig::none()
        };
        let all = fates(cfg, 2_000);
        assert!(all.iter().all(|f| f.len() == 2));
        assert!(all.iter().flatten().all(|&d| d <= 3_000));
        // Independent per-copy draws: the two copies of one datagram
        // must sometimes disagree (that is the reorder mechanism).
        assert!(all.iter().any(|f| f[0] != f[1]));
    }

    #[test]
    fn oneway_delay_is_asymmetric_and_draw_free() {
        let cfg = FaultConfig {
            oneway_delay_ns: 40_000_000,
            oneway_dir: FaultDir::ServerToClient,
            seed: 11,
            ..FaultConfig::none()
        };
        let mut l = FaultLottery::new(cfg.clone());
        for _ in 0..100 {
            assert_eq!(l.draw_dir(FaultDir::ClientToServer), vec![0]);
            assert_eq!(l.draw_dir(FaultDir::ServerToClient), vec![40_000_000]);
        }
        // Draw-free: interleaving directions differently cannot change
        // any other knob's fates, because the one-way path never touches
        // the RNG. Pair it with loss and check the drop pattern is
        // independent of direction labels.
        let lossy = FaultConfig { drop: 0.3, ..cfg };
        let pattern = |dirs: &[FaultDir]| {
            let mut l = FaultLottery::new(lossy.clone());
            dirs.iter()
                .map(|&d| l.draw_dir(d).is_empty())
                .collect::<Vec<_>>()
        };
        let c2s = pattern(&[FaultDir::ClientToServer; 64]);
        let s2c = pattern(&[FaultDir::ServerToClient; 64]);
        assert_eq!(c2s, s2c);
    }

    #[test]
    fn stats_account_for_burst_and_jitter() {
        let cfg = FaultConfig {
            drop: 0.1,
            burst_loss: 0.1,
            burst_len: 4.0,
            jitter_ns: 1_000,
            seed: 8,
            ..FaultConfig::none()
        };
        let mut l = FaultLottery::new(cfg);
        let n = 5_000u64;
        for _ in 0..n {
            l.draw();
        }
        let s = l.stats();
        assert_eq!(s.passed + s.dropped + s.burst_dropped, n);
        assert!(s.burst_dropped > 0 && s.dropped > 0 && s.jittered > 0);
    }

    #[test]
    fn frame_lottery_is_quiet_when_disabled() {
        assert!(!FaultConfig::none().frame_faults_enabled());
        let mut l = FrameLottery::new(&FaultConfig::none(), 3);
        assert!((0..1000).all(|_| l.draw() == FrameFault::None));
        // stuck_per_frame without a stall length is inert too.
        let cfg = FaultConfig {
            stuck_per_frame: 1.0,
            ..FaultConfig::none()
        };
        assert!(!cfg.frame_faults_enabled());
        let mut l = FrameLottery::new(&cfg, 3);
        assert_eq!(l.draw(), FrameFault::None);
    }

    #[test]
    fn frame_lottery_rates_are_roughly_honoured() {
        let cfg = FaultConfig {
            panic_per_frame: 0.1,
            stuck_per_frame: 0.2,
            stuck_ns: 5_000_000,
            seed: 17,
            ..FaultConfig::none()
        };
        assert!(cfg.frame_faults_enabled());
        let mut l = FrameLottery::new(&cfg, 0);
        let fates: Vec<FrameFault> = (0..10_000).map(|_| l.draw()).collect();
        let panics = fates.iter().filter(|f| **f == FrameFault::Panic).count();
        let stuck = fates
            .iter()
            .filter(|f| matches!(f, FrameFault::Stuck(_)))
            .count();
        assert!((700..=1_300).contains(&panics), "panics = {panics}");
        // Stuck draws only on non-panicking frames: ≈ 0.9 * 0.2.
        assert!((1_400..=2_200).contains(&stuck), "stuck = {stuck}");
        assert!(fates
            .iter()
            .all(|f| !matches!(f, FrameFault::Stuck(ns) if *ns != cfg.stuck_ns)));
    }

    #[test]
    fn frame_lottery_salt_decorrelates_arenas_but_replays() {
        let cfg = FaultConfig {
            panic_per_frame: 0.3,
            seed: 9,
            ..FaultConfig::none()
        };
        let draw = |salt: u64| {
            let mut l = FrameLottery::new(&cfg, salt);
            (0..256).map(|_| l.draw()).collect::<Vec<_>>()
        };
        // Same salt replays identically; different salts disagree.
        assert_eq!(draw(0), draw(0));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(0), draw(1));
    }
}
