//! Quickstart: generate a world, run a parallel game server with a bot
//! swarm on the deterministic virtual SMP, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parquake::prelude::*;

fn main() {
    // A deterministic maze arena (the paper's evaluation-map stand-in).
    let map = MapGenConfig::eval_arena(0xC0FFEE);
    println!(
        "map: {}x{} rooms (compiles to a few hundred brushes)",
        map.grid_w, map.grid_h
    );

    // 64 deathmatch bots against a 4-thread parallel server with the
    // paper's optimized (expanded/directional) locking.
    let kind = ServerKind::Parallel {
        threads: 4,
        locking: LockPolicy::Optimized,
    };
    let exp = Experiment::new(ExperimentConfig {
        map,
        ..ExperimentConfig::new(64, kind, 5_000_000_000) // 5 virtual seconds
    });
    let out = exp.run();

    println!("connected bots : {}", out.connected);
    println!("server frames  : {}", out.server.frame_count);
    println!("response rate  : {:.0} replies/s", out.response_rate());
    println!("response time  : {:.2} ms avg", out.avg_response_ms());

    let bd = out.breakdown();
    println!("\nwhere server threads spent their time:");
    for bucket in Bucket::ALL {
        println!("  {:>10}: {:5.1}%", bucket.label(), bd.percent(bucket));
    }

    let merged = out.server.merged();
    println!(
        "\nlocking: {} leaf acquisitions, {} parent list locks",
        merged.lock.leaf_ops, merged.lock.parent_ops
    );
    println!(
        "         {:.1}% of the world locked per request on average",
        merged.lock.avg_distinct_leaf_percent()
    );
    println!("\nThe same seed always reproduces exactly this run.");
}
