//! One module per table/figure of the paper's evaluation.

pub mod arenasweep;
pub mod batching;
pub mod chaossweep;
pub mod common;
pub mod crashsweep;
pub mod delta;
pub mod dynassign;
pub mod elasticity;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod interestsweep;
pub mod losssweep;
pub mod migratesweep;
pub mod onepass;
pub mod table1;
pub mod waitstats;

pub use common::SweepOpts;
