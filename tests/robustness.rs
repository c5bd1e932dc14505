//! Failure injection: the server must shrug off hostile or broken
//! clients the way the original dropped malformed datagrams.

use std::sync::Arc;

use parquake::bots::{spawn_swarm, BotSwarmConfig};
use parquake::bsp::mapgen::MapGenConfig;
use parquake::fabric::{Fabric, FabricKind};
use parquake::math::Pcg32;
use parquake::protocol::{ClientMessage, Encode};
use parquake::server::{spawn_server, LockPolicy, ServerConfig, ServerKind};
use parquake::sim::GameWorld;

fn setup(
    players: u16,
    threads: u32,
) -> (
    Arc<dyn Fabric>,
    parquake::server::ServerHandle,
    Arc<GameWorld>,
) {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let map = Arc::new(MapGenConfig::small_arena(5).generate());
    let world = Arc::new(GameWorld::new(map, 4, players));
    let cfg = ServerConfig {
        checking: true,
        ..ServerConfig::new(
            ServerKind::Parallel {
                threads,
                locking: LockPolicy::Baseline,
            },
            2_000_000_000,
        )
    };
    let handle = spawn_server(&fabric, cfg, world.clone());
    (fabric, handle, world)
}

#[test]
fn garbage_datagrams_are_dropped_not_fatal() {
    // 16 slots for 8 honest bots: short random datagrams occasionally
    // decode as valid Connects (tag 1 + 4 id bytes) and claim a slot —
    // exactly what an unauthenticated 2004 game server would allow —
    // so the server needs headroom for the honest players.
    let (fabric, server, _world) = setup(24, 2);
    // Real bots plus an attacker spraying junk at both server ports.
    let swarm_cfg = BotSwarmConfig::new(8, 1_800_000_000);
    let ports = server.ports.clone();
    let spt = server.slots_per_thread;
    let swarm = spawn_swarm(&fabric, &swarm_cfg, &ports, move |c| (c / spt) as usize);
    let attacker_port = fabric.alloc_port();
    fabric.spawn(
        "attacker",
        None,
        Box::new(move |ctx| {
            let mut rng = Pcg32::seeded(666);
            for i in 0..400u64 {
                ctx.sleep_until(i * 4_000_000);
                let n = rng.below(64) as usize;
                let junk: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
                ctx.send(
                    attacker_port,
                    ports[(i % ports.len() as u64) as usize],
                    junk,
                );
            }
        }),
    );
    fabric.run();
    // Every honest bot still connected and got replies.
    let bots = swarm.report();
    assert_eq!(bots.connected, 8);
    assert!(bots.stats.received > 200);
}

#[test]
fn truncated_and_mutated_real_messages_are_survivable() {
    let (fabric, server, _world) = setup(4, 2);
    let swarm_cfg = BotSwarmConfig::new(4, 1_800_000_000);
    let ports = server.ports.clone();
    let spt = server.slots_per_thread;
    let swarm = spawn_swarm(&fabric, &swarm_cfg, &ports, move |c| (c / spt) as usize);
    // An attacker sending structurally valid prefixes of real messages.
    let attacker_port = fabric.alloc_port();
    fabric.spawn(
        "mutator",
        None,
        Box::new(move |ctx| {
            let real = ClientMessage::Move {
                client_id: 2,
                cmd: parquake::protocol::MoveCmd::idle(1, 30),
            }
            .to_bytes();
            for i in 0..real.len() as u64 {
                ctx.sleep_until(i * 10_000_000);
                ctx.send(attacker_port, ports[0], real[..i as usize].to_vec());
            }
        }),
    );
    fabric.run();
    assert_eq!(swarm.report().connected, 4);
}

#[test]
fn disconnects_free_slots_for_new_players() {
    let (fabric, server, world) = setup(4, 1);
    let port = server.ports[0];
    let client = fabric.alloc_port();
    fabric.spawn(
        "churner",
        None,
        Box::new(move |ctx| {
            // Connect, play a little, disconnect, reconnect.
            for round in 0..3u64 {
                let cid = 100 + round as u32;
                let mut acked = false;
                for attempt in 0..20u64 {
                    ctx.send(
                        client,
                        port,
                        ClientMessage::Connect {
                            client_id: cid,
                            arena: 0,
                        }
                        .to_bytes(),
                    );
                    let deadline = ctx.now() + 50_000_000;
                    while ctx.wait_readable(client, Some(deadline)) {
                        let m = ctx.try_recv(client).unwrap();
                        if let Ok(parquake::protocol::ServerMessage::ConnectAck {
                            client_id, ..
                        }) = parquake::protocol::Decode::from_bytes(&m.payload)
                        {
                            let _: u32 = client_id;
                            acked = true;
                        }
                    }
                    if acked {
                        break;
                    }
                    let _ = attempt;
                }
                assert!(acked, "round {round}: never acked");
                ctx.send(
                    client,
                    port,
                    ClientMessage::Disconnect { client_id: cid }.to_bytes(),
                );
                // Nudge the server so the disconnect frame runs.
                ctx.sleep_until(ctx.now() + 60_000_000);
                ctx.send(
                    client,
                    port,
                    ClientMessage::Move {
                        client_id: cid,
                        cmd: parquake::protocol::MoveCmd::idle(9, 30),
                    }
                    .to_bytes(),
                );
                ctx.sleep_until(ctx.now() + 60_000_000);
            }
        }),
    );
    fabric.run();
    // After three connect/disconnect rounds only one slot may remain
    // in use (the final churner connection at most).
    let active = (0..4u16)
        .filter(|&i| world.store.snapshot(i).active)
        .count();
    assert!(active <= 1, "{active} slots still active");
}

#[test]
fn server_idles_gracefully_with_no_clients_at_all() {
    let (fabric, _server, _world) = setup(4, 2);
    fabric.run(); // nothing to do; must terminate at end_time
}
