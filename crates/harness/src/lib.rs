//! Experiment harness: everything needed to regenerate the paper's
//! evaluation (Figures 4–7, Table 1, and the §4.2/§5.2 statistics).
//!
//! [`experiment`] assembles a world, a server, and a bot swarm on a
//! fabric and runs one measured configuration; [`figures`] sweeps
//! configurations and prints the tables corresponding to each figure;
//! the `repro` binary exposes one subcommand per figure.

pub mod arena_experiment;
pub mod cli;
pub mod experiment;
pub mod figures;
pub mod mmsg;
pub mod udp_arena;

pub use arena_experiment::{ArenaExperiment, ArenaExperimentConfig, ArenaOutcome};
pub use experiment::{Experiment, ExperimentConfig, Outcome};
