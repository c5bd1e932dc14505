//! Run the same parallel server on REAL OS threads instead of the
//! virtual-time SMP: identical code path, true preemption, wall-clock
//! measurements. On a multicore host this measures genuine scaling; on
//! any host it demonstrates the locking protocol is correct under real
//! concurrency (run a debug build to enable the dynamic protocol
//! checkers).
//!
//! ```sh
//! cargo run --release --example real_threads
//! ```

use parquake::fabric::FabricKind;
use parquake::prelude::*;

fn main() {
    let threads = 2;
    let players = 16;
    println!(
        "real-thread fabric: {threads} server threads, {players} bots, 2 wall seconds \
         (host has {} CPUs)\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let kind = ServerKind::Parallel {
        threads,
        locking: LockPolicy::Optimized,
    };
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::small_arena(99),
        fabric: FabricKind::Real,
        ..ExperimentConfig::new(players, kind, 2_000_000_000)
    };
    // Enable the lock/claim protocol checkers even in release: this
    // example exists to exercise the protocol under real preemption.
    cfg.server.checking = true;
    let exp = Experiment::new(cfg);
    let out = exp.run();
    println!("connected      : {}/{players}", out.connected);
    println!("replies        : {}", out.response.received);
    println!("response rate  : {:.0} replies/s", out.response_rate());
    println!("response time  : {:.2} ms avg", out.avg_response_ms());
    let bd = out.breakdown();
    println!(
        "lock {:.1}%  waits {:.1}%  idle {:.1}%",
        bd.percent(Bucket::Lock),
        bd.percent(Bucket::IntraWait) + bd.percent(Bucket::InterWait),
        bd.percent(Bucket::Idle),
    );
    println!("\nNo protocol violations were detected by the dynamic checkers.");
}
