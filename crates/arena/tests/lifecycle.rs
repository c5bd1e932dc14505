//! Lifecycle-notification reconciliation: the director's occupancy
//! must converge to the truth under server-side slot churn the front
//! door never sees (at-arena disconnects, inactivity reclaims), and
//! the population identity `placed == departed + resident` must hold
//! under any interleaving.

use std::sync::{Arc, Mutex};

use parquake_arena::{spawn_directory, ArenaDirectoryConfig, Departure, Ledger};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{FabricKind, Nanos, PortId, TaskCtx};
use parquake_protocol::{ClientMessage, Decode, Encode, ServerMessage};
use parquake_server::{ServerConfig, ServerKind};
use proptest::prelude::*;

/// Drain the client port until `until`, collecting acked client ids.
fn drain_acks_until(ctx: &TaskCtx, port: PortId, until: Nanos, out: &Mutex<Vec<u32>>) {
    loop {
        if ctx.now() >= until {
            break;
        }
        if !ctx.wait_readable(port, Some(until)) {
            break;
        }
        while let Some(raw) = ctx.try_recv(port) {
            if let Ok(ServerMessage::ConnectAck { client_id, .. }) =
                ServerMessage::from_bytes(&raw.payload)
            {
                out.lock().unwrap().push(client_id);
            }
        }
    }
}

fn connect(ctx: &TaskCtx, port: PortId, to: PortId, client_id: u32) {
    let msg = ClientMessage::Connect {
        client_id,
        arena: 0,
    };
    ctx.send(port, to, msg.to_bytes());
}

/// Connect → at-arena disconnect → reconnect: the disconnect bypasses
/// the front door entirely, so only the lifecycle notice can free the
/// director's occupancy. The reconnect must land in the freed slot
/// with zero `rejected_full`.
#[test]
fn occupancy_converges_after_at_arena_disconnect() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, 4_000_000_000);
    server.checking = true;
    let mut cfg = ArenaDirectoryConfig::new(1, 2, server);
    cfg.workers = 1;
    cfg.map = MapGenConfig::small_arena(11);
    // Leave-despawns and their notices run on maintenance frames, not
    // on the next datagram that happens by.
    cfg.maintenance_ns = 20_000_000;
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena0 = handle.arena_ports[0][0];
    let port = fabric.alloc_port();
    let acked = Arc::new(Mutex::new(Vec::new()));
    let acked_task = acked.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            // Fill the 2-slot arena.
            connect(ctx, port, front, 1);
            connect(ctx, port, front, 2);
            drain_acks_until(ctx, port, 800_000_000, &acked_task);
            // Client 1 leaves *at the arena* — the front door never
            // hears about it.
            let bye = ClientMessage::Disconnect { client_id: 1 };
            ctx.send(port, arena0, bye.to_bytes());
            drain_acks_until(ctx, port, 1_800_000_000, &acked_task);
            // A third client must fit into the freed slot.
            connect(ctx, port, front, 3);
            drain_acks_until(ctx, port, 2_800_000_000, &acked_task);
        }),
    );
    fabric.run();

    let acks = acked.lock().unwrap().clone();
    assert!(
        acks.contains(&1) && acks.contains(&2),
        "setup acks: {acks:?}"
    );
    assert!(
        acks.contains(&3),
        "reconnect should land in the freed slot, acks: {acks:?}"
    );
    let adm = handle.report().admission;
    assert_eq!(adm.rejected_full, 0, "occupancy drifted: {adm:?}");
    assert!(
        adm.notice_disconnected >= 1,
        "no Disconnected notice: {adm:?}"
    );
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.placed, 3);
    assert_eq!(adm.resident, 2, "clients 2 and 3 remain: {adm:?}");
}

/// Inactivity reclaim must evict the sticky book entry: with a
/// 1-slot arena, a new client can only ever be admitted if the
/// reclaimed one's booking is gone.
#[test]
fn reclaim_notice_evicts_the_book_entry() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, 5_000_000_000);
    server.checking = true;
    server.client_timeout_ns = 250_000_000;
    let mut cfg = ArenaDirectoryConfig::new(1, 1, server);
    cfg.workers = 1;
    cfg.map = MapGenConfig::small_arena(11);
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let port = fabric.alloc_port();
    let acked = Arc::new(Mutex::new(Vec::new()));
    let acked_task = acked.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            connect(ctx, port, front, 1);
            drain_acks_until(ctx, port, 500_000_000, &acked_task);
            // Client 1 goes silent; the server reclaims its slot after
            // 250 ms and the Reclaimed notice must free the booking.
            drain_acks_until(ctx, port, 2_000_000_000, &acked_task);
            connect(ctx, port, front, 2);
            drain_acks_until(ctx, port, 3_000_000_000, &acked_task);
        }),
    );
    fabric.run();

    let acks = acked.lock().unwrap().clone();
    assert!(acks.contains(&1), "setup ack missing: {acks:?}");
    assert!(
        acks.contains(&2),
        "sticky book leak: the reclaimed client still occupies the only slot, acks: {acks:?}"
    );
    let adm = handle.report().admission;
    assert_eq!(adm.rejected_full, 0, "{adm:?}");
    assert!(adm.notice_reclaimed >= 1, "no Reclaimed notice: {adm:?}");
    assert!(adm.population_closed(), "identity open: {adm:?}");
}

proptest! {
    /// Any interleaving of front-door connects/disconnects with
    /// arena-side connect/reclaim/migrate notices keeps the ledger's
    /// identity closed and its occupancy equal to its book — including
    /// under LRU eviction pressure (cap 8 over 24 client ids).
    #[test]
    fn interleaved_streams_keep_the_population_identity(
        ops in prop::collection::vec((0u8..5, 0u32..24, 0u16..4), 0..200)
    ) {
        let mut l = Ledger::new(4, 8);
        for (op, id, arena) in ops {
            match op {
                // Front-door connect: sticky if booked, else place.
                0 => {
                    if l.touch(id).is_none() {
                        l.place(id, arena, 0);
                    }
                }
                // Front-door disconnect.
                1 => {
                    l.remove(id, Departure::FrontDoor);
                }
                // Reclaimed/Disconnected notice: evict only a booking
                // at the reporting arena.
                2 => match l.touch(id) {
                    Some(p) if p.arena == arena => {
                        l.remove(id, Departure::Notice);
                    }
                    _ => {}
                },
                // Connected notice: the arena is authoritative.
                3 => {
                    l.place(id, arena, 0);
                }
                // Migrated handoff: rebook in place — neither placed
                // nor departed may move; unknown clients are a no-op.
                4 => {
                    l.migrate(id, arena, 0);
                }
                _ => unreachable!(),
            }
            prop_assert!(
                l.population_closed(),
                "placed {} != departed {} + resident {}",
                l.placed, l.departed, l.resident()
            );
            prop_assert_eq!(l.occupancy().iter().sum::<u32>() as u64, l.resident());
        }
    }
}
