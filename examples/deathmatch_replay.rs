//! A deathmatch session viewed from the game side rather than the
//! systems side: run a short match and report what the *simulation* did
//! — scores, deaths, item pickups — demonstrating that the benchmark
//! workload is a real game, not a synthetic load loop.
//!
//! ```sh
//! cargo run --release --example deathmatch_replay
//! ```

use parquake::bots::BotBehavior;
use parquake::prelude::*;
use parquake::sim::entity::EntityClass;

fn main() {
    let map_cfg = MapGenConfig::small_arena(0xDEAD);
    let players = 24u32;
    let kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Optimized,
    };
    let mut cfg = ExperimentConfig {
        map: map_cfg.clone(),
        behavior: BotBehavior {
            attack_chance: 0.20, // trigger-happy bots for a lively match
            ..BotBehavior::deathmatch()
        },
        ..ExperimentConfig::new(players, kind, 8_000_000_000)
    };
    cfg.server.checking = false;
    let exp = Experiment::new(cfg);
    let out = exp.run();

    println!(
        "== match report ({} players, 8 virtual seconds) ==\n",
        out.connected
    );
    println!("moves answered : {}", out.response.received);
    println!("server frames  : {}", out.server.frame_count);
    println!(
        "arena          : {}x{} rooms, {} items, {} teleporters",
        map_cfg.grid_w,
        map_cfg.grid_h,
        out.world.item_ids().len(),
        out.world.map.teleporters.len(),
    );

    // Scoreboard straight out of the final world state.
    let mut scores: Vec<(u32, i32, i32)> = Vec::new();
    for i in 0..players as u16 {
        if let EntityClass::Player {
            client_id,
            health,
            score,
            ..
        } = out.world.store.snapshot(i).class
        {
            scores.push((client_id, score, health));
        }
    }
    scores.sort_by_key(|&(_, s, _)| -s);
    println!("\ntop fraggers:");
    for (cid, score, health) in scores.iter().take(8) {
        println!("  bot {cid:>3}: score {score:>4}  health {health:>3}");
    }

    // Items currently waiting to respawn = recently contested pickups.
    let taken = out
        .world
        .item_ids()
        .filter(|&i| {
            matches!(
                out.world.store.snapshot(i).class,
                EntityClass::Item { taken: true, .. }
            )
        })
        .count();
    println!("\nitems awaiting respawn at match end: {taken}");
    println!(
        "world hash: {:#018x} (same seed => same match, bit for bit)",
        out.world_hash
    );
}
