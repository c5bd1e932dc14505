//! Multi-arena layer: many small worlds multiplexed on one machine.
//!
//! The paper parallelizes *one* world across the machine's processors.
//! Production deployments of the original server ran the dual: many
//! independent game worlds ("arenas") packed onto one machine, each
//! world small enough that its frame is cheap, with the machine's
//! parallelism spent *across* worlds instead of *within* one. This
//! crate adds that deployment shape on top of the existing runtime
//! without touching the per-world frame protocol:
//!
//! * [`directory::spawn_directory`] builds an **arena directory**: N
//!   independent [`parquake_sim::GameWorld`]s plus server runtimes, and
//!   either
//!   * schedules their frames as tasks on one **shared worker pool**
//!     (a `Sequential` server template) — 4 workers serve 4×64 players
//!     in 4 arenas where the paper's parallel server serves 1×256 — or
//!   * gives each arena its own full parallel runtime (a `Parallel`
//!     template), assignment schemes and region locking intact inside
//!     each arena.
//! * [`admission::AdmissionPolicy`] routes `Connect`s arriving at the
//!   directory's **front door** to an arena: fill-first, or
//!   honouring the arena id every `Connect` carries.
//! * Per-arena observability: every arena publishes its own
//!   [`parquake_server::ServerResults`]; the pool publishes frame and
//!   idle accounting per worker and per arena; admission publishes
//!   routing counters. The host reads all of it once, after the run,
//!   as one [`directory::DirectoryReport`] from
//!   [`directory::ArenaHandle::report`]; `parquake_metrics::arena`
//!   rolls the per-arena rows up.
//! * **Truthful occupancy** ([`ledger::Ledger`]): arena runtimes report
//!   lifecycle events (connect accepted / disconnect / inactivity
//!   reclaim / reject) to the director over a control port, so the
//!   director's population ledger tracks server-side slot churn and
//!   closes the identity `placed == departed + resident`.
//! * **Elasticity**: with `max_arenas > arenas` the pooled directory
//!   pre-provisions cold arena cells and brings one live when every
//!   live arena is full (spawn under admission pressure); an arena
//!   whose occupancy stays zero past a linger window is drained and
//!   reaped (its `ServerResults` published, its cell cold again).
//!   Spawn/reap transitions land in `parquake_metrics::ElasticStats`.
//! * **One schedule record per pooled arena** (`pool`, private): its
//!   life (cold, live, crashed, condemned), who holds its claim (a
//!   worker or the director), a pending migration fence and its
//!   pacing. Workers, the director, the supervisor and migration change
//!   it only through named transitions under the pool lock; DESIGN.md
//!   §8 tabulates them with the record's five invariants.
//! * **Supervision** (opt-in): pooled frames run behind `catch_unwind`
//!   so a panic fates only its arena; workers checkpoint each arena's
//!   world + slot table ([`checkpoint::CheckpointRing`]); the
//!   director's watchdog condemns stuck frames; and
//!   [`supervisor`] restores fated arenas from their last checkpoint,
//!   replaying the [`ledger::Ledger`] so the population identity
//!   survives restarts. Sustained overload degrades gracefully
//!   (stretched frame intervals + per-client move coalescing) instead
//!   of dropping input. Accounting lands in
//!   `parquake_metrics::SupervisorStats`.
//! * **Live migration** ([`migrate`], opt-in): the director fences a
//!   hot arena's slot with the same claim the supervisor takes,
//!   carries the player across in a validated `sim::snapshot` image and
//!   the session in the slot capsule a checkpoint restore installs
//!   (`ServerShared::reinstate`),
//!   rebooks the [`ledger::Ledger`] in place (the population identity
//!   never opens), emits a `Migrated` lifecycle notice, and lets the
//!   destination re-ack unprompted so the client rides rebind grace
//!   exactly as crash recovery does. Spread rebalance keeps live
//!   populations level; drain-before-reap empties lingering elastic
//!   arenas instead of waiting their clients out.
//!
//! The layer is strictly additive: every pooled arena frame is the
//! sequential server's frame body (`ServerShared::run_single_frame`),
//! and arena 0 traffic is byte-identical to the pre-arena wire format.

pub mod admission;
pub mod checkpoint;
pub mod directory;
pub mod ledger;
pub mod migrate;
mod pool;
pub mod supervisor;

pub use admission::{AdmissionPolicy, AdmissionStats};
pub use checkpoint::{Checkpoint, CheckpointRing};
pub use directory::{
    spawn_directory, ArenaDirectoryConfig, ArenaHandle, DirectoryReport, InjectedPanic, PoolReport,
    CHECKPOINT_INTERVAL,
};
pub use ledger::{Departure, Ledger, Placement};
