//! # parquake
//!
//! A from-scratch Rust reproduction of *“Parallelization and Performance
//! of Interactive Multiplayer Game Servers”* (Abdelkhalek & Bilas,
//! IPDPS 2004): a Quake-class interactive game server, its sequential
//! and multithreaded variants, the region-locking schemes the paper
//! introduces, synthetic bot players, and a harness that regenerates
//! every table and figure of the paper's evaluation.
//!
//! This façade crate re-exports the public API of every workspace member
//! so downstream users can depend on `parquake` alone.
//!
//! ## Quick start
//!
//! ```no_run
//! use parquake::prelude::*;
//!
//! // A deterministic arena map and a 4-thread parallel server with 64
//! // bots sending for 10 virtual seconds on the virtual SMP fabric.
//! let kind = ServerKind::Parallel {
//!     threads: 4,
//!     locking: LockPolicy::Optimized,
//! };
//! let exp = Experiment::new(ExperimentConfig {
//!     map: MapGenConfig::large_arena(0xC0FFEE),
//!     ..ExperimentConfig::new(64, kind, 10_000_000_000)
//! });
//! let outcome = exp.run();
//! println!("{} replies/s", outcome.response_rate());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/harness` for the
//! paper-figure reproduction binary (`repro`).

pub use parquake_areanode as areanode;
pub use parquake_bots as bots;
pub use parquake_bsp as bsp;
pub use parquake_fabric as fabric;
pub use parquake_harness as harness;
pub use parquake_math as math;
pub use parquake_metrics as metrics;
pub use parquake_protocol as protocol;
pub use parquake_server as server;
pub use parquake_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use parquake_areanode::{AreanodeTree, LeafSet};
    pub use parquake_bots::{BotBehavior, BotSwarmConfig};
    pub use parquake_bsp::mapgen::MapGenConfig;
    pub use parquake_bsp::{BspWorld, Trace};
    pub use parquake_fabric::{FabricKind, VirtualSmpConfig};
    pub use parquake_harness::experiment::{Experiment, ExperimentConfig, Outcome};
    pub use parquake_math::{Aabb, Vec3};
    pub use parquake_metrics::{Breakdown, Bucket};
    pub use parquake_protocol::{MoveCmd, ServerMessage};
    pub use parquake_server::{Assignment, LockPolicy, ServerConfig, ServerKind};
}
