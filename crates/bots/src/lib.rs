//! Synthetic automatic players ("bots").
//!
//! The paper replaces humans with automatic players to make the
//! benchmark repeatable (§4, citing the authors' ISPASS'01
//! methodology). This crate reproduces that workload generator:
//!
//! * every bot sends exactly one *move* command per client frame
//!   (~30 ms) — the always-active worst case the paper measures,
//! * bots are multiplexed onto *driver* tasks, like the multi-player
//!   client machines of the original testbed; drivers live off the
//!   modelled server CPUs,
//! * behaviour is deterministic per seed: wander with drift, react to
//!   walls, jump, and aim long-range attacks at players seen in the
//!   most recent server reply,
//! * every reply is matched against its echoed send timestamp to
//!   produce the response-rate and response-time metrics of §4.

pub mod behavior;
pub mod driver;
pub mod predict;

pub use behavior::{BotBehavior, BotMind};
pub use driver::{
    spawn_swarm, spawn_swarm_multi, BotSwarm, BotSwarmConfig, PredictMap, SwarmRamp, SwarmReport,
    SwarmTopology,
};
pub use predict::{Predictor, PREDICT_RING_CAP};
