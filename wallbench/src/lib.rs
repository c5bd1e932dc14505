//! Wall-clock benchmark of the `parquake` servers.
//!
//! Everything here measures the program from outside: it times calls
//! into the crates' public functions and reads the result structs the
//! program already publishes. See `README.md` for the command, every
//! workload and metric name, and the noise rules.

pub mod alloc_count;
pub mod calibrate;
pub mod cli;
pub mod estimator;
pub mod inproc;
pub mod layers;
pub mod measure;
pub mod mirror;
pub mod openloop;
pub mod procstat;
pub mod report;
pub mod spec;
pub mod trace;
pub mod udp;
pub mod workloads;
