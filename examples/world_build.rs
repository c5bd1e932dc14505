//! World build cost: the best-of-3 compile time of the four clip hulls
//! (point, player, projectile, water) for square maze worlds of 10², 18²,
//! 26² and 36² rooms. The 18×18 world is the one `sparse_stagger_160p`
//! and `repro interestsweep` run on; the larger ones are the sizes a map
//! for thousands of players needs. Room graph and spawn metadata are
//! generated once per world and not timed.
//!
//! ```sh
//! cargo run --release --example world_build
//! ```

use parquake::bsp::rooms::RoomGraph;
use parquake::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    println!(
        "{:>6} {:>8} {:>8} {:>11}",
        "rooms", "brushes", "nodes", "compile ms"
    );
    for side in [10u16, 18, 26, 36] {
        let world = MapGenConfig {
            grid_w: side,
            grid_h: side,
            items_per_room: 3,
            teleporter_pairs: 8,
            ..MapGenConfig::large_arena(0x6D_6D_31)
        }
        .generate();
        let nodes = world.hull_point.node_count()
            + world.hull_player.node_count()
            + world.hull_projectile.node_count()
            + world.hull_water.node_count();
        let best = (0..3).map(|_| time_compile(&world)).min().unwrap();
        println!(
            "{:>6} {:>8} {:>8} {:>11.1}",
            format!("{side}²"),
            world.brushes.len(),
            nodes,
            best.as_secs_f64() * 1e3
        );
    }
}

/// Recompile `world`'s four hulls from its brushes.
fn time_compile(world: &BspWorld) -> Duration {
    let brushes = world.brushes.clone();
    let rooms = RoomGraph::single_room(world.bounds);
    let start = Instant::now();
    let rebuilt = BspWorld::compile(world.bounds, brushes, rooms, vec![], vec![], vec![]);
    let took = start.elapsed();
    std::hint::black_box(rebuilt);
    took
}
