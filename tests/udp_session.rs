//! Real-socket end-to-end session: the `udpd` gateway serving one
//! arena on two dedicated server threads (the paper's configuration:
//! a private request queue per thread, region locking between them) +
//! UDP clients over loopback. Skips silently when the environment
//! forbids binding.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::thread::JoinHandle;
use std::time::Duration;

use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_harness::udp_arena::{
    run_udp_arena_server, run_udp_clients, ClientOutcome, UdpArenaOpts, UdpArenaReport,
};
use parquake_server::InterestMode;

/// Boot the gateway on a free loopback port: bind `:0` to learn one,
/// release it, and start over with another if the gateway loses the
/// race for it (`AddrInUse`) — parallel test runs cannot collide.
/// `None` when loopback UDP is not permitted here at all.
fn serve(opts: UdpArenaOpts) -> Option<(SocketAddr, JoinHandle<io::Result<UdpArenaReport>>)> {
    for _ in 0..8 {
        let Ok(probe) = UdpSocket::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback UDP not permitted in this environment");
            return None;
        };
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let opts = UdpArenaOpts {
            port: addr.port(),
            ..opts.clone()
        };
        let server = std::thread::spawn(move || run_udp_arena_server(&opts));
        std::thread::sleep(Duration::from_millis(300));
        if !server.is_finished() {
            return Some((addr, server));
        }
        match server.join().unwrap() {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => continue,
            other => panic!("gateway exited during start-up: {other:?}"),
        }
    }
    panic!("no free loopback port after 8 tries");
}

/// One 4 s session of 6 bots against 1 arena × 2 dedicated threads.
fn session(fault: FaultConfig, interest: InterestMode) -> Option<(ClientOutcome, UdpArenaReport)> {
    let (addr, server) = serve(UdpArenaOpts {
        arenas: 1,
        threads: 2,
        slots_per_arena: 16,
        map: MapGenConfig::small_arena(3),
        duration: Duration::from_secs(4),
        fault,
        interest,
        ..UdpArenaOpts::default()
    })?;
    let out =
        run_udp_clients(addr, 1, 6, Duration::from_secs(3), None, 1, None).expect("client run");
    let report = server.join().unwrap().expect("server run");
    Some((out, report))
}

#[test]
fn udp_gateway_serves_real_sockets() {
    // The sweep matcher runs with the scan as its shadow oracle, so
    // this session also proves the two agree on a threaded arena.
    let Some((out, report)) = session(FaultConfig::none(), InterestMode::SweepOracle) else {
        return;
    };
    let (sent, received) = (out.sent, out.received);
    assert!(sent > 100, "sent only {sent}");
    assert!(
        received as f64 > sent as f64 * 0.5,
        "too few replies: {received}/{sent}"
    );
    assert!(out.avg_ms < 500.0, "avg response {} ms", out.avg_ms);
    let lane = &report.lanes[0];
    assert!(lane.replies > 0);
    assert!(lane.frames > 0);
    assert_eq!(report.datagrams_in, sent);
    // Every move found its client's dealt thread: the gateway learned
    // each placement from the ack before the client could move.
    assert_eq!(report.arena_unknown, 0, "{report:?}");
    assert!(
        report.accounting_closed(),
        "datagram accounting does not close: {report:?}"
    );
    let ist = &report.interest;
    assert!(ist.oracle_checked > 0, "oracle never ran: {ist:?}");
    assert_eq!(
        ist.oracle_mismatches, 0,
        "sweep diverged from scan: {ist:?}"
    );
    assert!(ist.pairs_closed(), "pair accounting open: {ist:?}");
}

#[test]
fn udp_gateway_accounts_for_faulted_datagrams() {
    let fault = FaultConfig {
        drop: 0.10,
        duplicate: 0.05,
        delay: 0.05,
        max_delay_ns: 20_000_000,
        seed: 0xFA_17,
        ..FaultConfig::none()
    };
    let Some((out, report)) = session(fault, InterestMode::Scan) else {
        return;
    };
    // The fault stage visibly dropped and duplicated traffic…
    assert!(report.fault_dropped > 0, "no drops injected: {report:?}");
    assert!(report.fault_duplicated > 0, "no dups injected: {report:?}");
    // …the clients still played through it…
    assert!(out.sent > 100, "sent only {}", out.sent);
    assert!(out.received > 0, "no replies under fault injection");
    assert!(report.lanes[0].replies > 0);
    // …and every inbound datagram has exactly one fate.
    assert_eq!(report.datagrams_in, out.sent);
    assert!(
        report.accounting_closed(),
        "datagram accounting does not close: {report:?}"
    );
}
