//! End-to-end loopback checks for the sharded arena gateway:
//! a 1-shard gateway must report exactly what the classic
//! single-pump gateway reported (one lane that *is* the totals), and
//! a multi-shard gateway must keep every book closed at every width.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::thread::JoinHandle;
use std::time::Duration;

use parquake_fabric::fault::FaultConfig;
use parquake_harness::udp_arena::{
    run_udp_arena_server, run_udp_clients, UdpArenaOpts, UdpArenaReport,
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
        std::thread::sleep(Duration::from_millis(120));
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

/// 2 pooled arenas × 16 slots on 2 workers for `duration`.
fn two_arenas(duration: Duration) -> UdpArenaOpts {
    UdpArenaOpts {
        arenas: 2,
        workers: 2,
        slots_per_arena: 16,
        duration,
        ..UdpArenaOpts::default()
    }
}

/// Serve 2 pooled arenas and drive them with 12 bots.
fn drive(
    shards: u32,
    client_sockets: u32,
    fault: FaultConfig,
    interest: InterestMode,
) -> Option<UdpArenaReport> {
    let (addr, server) = serve(UdpArenaOpts {
        gateway_shards: shards,
        fault,
        interest,
        ..two_arenas(Duration::from_millis(1200))
    })?;
    let out = run_udp_clients(
        addr,
        2,
        12,
        Duration::from_millis(900),
        None,
        client_sockets,
        None,
    )
    .expect("client run");
    let report = server.join().expect("server thread").expect("server run");
    assert!(out.sent > 0, "clients sent nothing");
    assert!(
        out.received > 0,
        "clients heard nothing back (sent {}): {report:?}",
        out.sent
    );
    Some(report)
}

#[test]
fn an_impossible_network_profile_is_invalid_input() {
    // Pre-fix: the gateway bound its socket and spawned the directory,
    // then panicked in `FaultLottery::new`.
    let mut opts = two_arenas(Duration::from_millis(200));
    opts.port = 0;
    opts.fault.drop = 1.5;
    let err = run_udp_arena_server(&opts).expect_err("drop 1.5 served");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("drop"), "{err}");
}

#[test]
fn one_shard_gateway_reports_one_lane_that_is_the_totals() {
    let fault = FaultConfig {
        drop: 0.05,
        duplicate: 0.05,
        seed: 0x5EED_0001,
        ..FaultConfig::none()
    };
    let Some(report) = drive(1, 1, fault, InterestMode::Scan) else {
        return;
    };
    assert!(report.accounting_closed(), "books open: {report:?}");
    assert!(report.datagrams_in > 0);
    // One shard: the shard lane IS the report — every top-level
    // gateway field must equal the lone lane's field exactly, which
    // pins the sharded code path to the classic single-pump numbers.
    assert_eq!(report.shards.len(), 1);
    let lane = &report.shards[0];
    assert_eq!(lane.shard, 0);
    assert_eq!(lane.datagrams_in, report.datagrams_in);
    assert_eq!(lane.decode_rejected, report.decode_rejected);
    assert_eq!(lane.spoof_rejected, report.spoof_rejected);
    assert_eq!(lane.arena_unknown, report.arena_unknown);
    assert_eq!(lane.fault_dropped, report.fault_dropped);
    assert_eq!(lane.fault_duplicated, report.fault_duplicated);
    assert_eq!(lane.forwarded, report.forwarded);
    assert_eq!(lane.to_front, report.to_front);
    assert_eq!(lane.datagrams_out, report.datagrams_out);
    assert_eq!(lane.replies_unroutable, report.replies_unroutable);
    // The faults actually fired (seeded, so deterministic per lottery).
    assert!(
        report.fault_dropped + report.fault_duplicated > 0,
        "fault lottery never fired: {report:?}"
    );
}

#[test]
fn two_shard_gateway_closes_every_book() {
    let Some(report) = drive(2, 4, FaultConfig::none(), InterestMode::Scan) else {
        return;
    };
    assert!(report.accounting_closed(), "books open: {report:?}");
    assert_eq!(report.shards.len(), 2);
    assert!(report.datagrams_in > 0);
    assert!(report.datagrams_out > 0);
    // Whether both shards saw traffic depends on the kernel's 4-tuple
    // spread (and is moot on the shared-socket fallback), so assert
    // only what must hold: the shard lanes close individually and sum
    // to the totals — that is accounting_closed() above — and every
    // datagram the clients were answered with left through some shard.
    let busy = report.shards.iter().filter(|l| l.datagrams_in > 0).count();
    assert!(busy >= 1);
    eprintln!(
        "two-shard spread: {:?}",
        report
            .shards
            .iter()
            .map(|l| (l.shard, l.datagrams_in, l.datagrams_out))
            .collect::<Vec<_>>()
    );
}

/// Regression: the arena gateway used to build its server template
/// without the interest mode, so `udpd --arenas N --interest sweep*`
/// silently ran the scan and reported nothing.
#[test]
fn pooled_arenas_run_the_requested_interest_mode() {
    let Some(report) = drive(1, 1, FaultConfig::none(), InterestMode::SweepOracle) else {
        return;
    };
    assert!(report.accounting_closed(), "books open: {report:?}");
    let ist = &report.interest;
    assert!(ist.oracle_checked > 0, "sweep never ran: {ist:?}");
    assert_eq!(
        ist.oracle_mismatches, 0,
        "sweep diverged from scan: {ist:?}"
    );
    assert!(ist.pairs_closed(), "pair accounting open: {ist:?}");
}

/// The `migrate-smoke` shape: every client requests arena 0 of a
/// 2-arena gateway that levels the skew by live migration, so the
/// destination re-acks sessions from an arena the client never named.
/// A client bridge whose arena table is sized by its own `arenas`
/// argument (1 here) cannot follow those acks and books them as
/// restarts.
#[test]
fn migrated_sessions_are_rehomed_whatever_arenas_the_client_asked_for() {
    let Some((addr, server)) = serve(UdpArenaOpts {
        migrate_spread: 4,
        ..two_arenas(Duration::from_millis(2500))
    }) else {
        return;
    };
    let out = run_udp_clients(addr, 1, 12, Duration::from_millis(2000), None, 1, None)
        .expect("client run");
    let report = server.join().expect("server thread").expect("server run");
    let migrations = report.supervisor.migrations;
    assert!(migrations >= 1, "nothing migrated: {report:?}");
    assert!(
        (1..=migrations).contains(&out.rehomed_observed),
        "{} rehomings observed for {migrations} migrations",
        out.rehomed_observed
    );
    assert_eq!(
        out.restarts_observed, 0,
        "migration re-acks read as restarts"
    );
    assert!(report.accounting_closed(), "books open: {report:?}");
}

/// Every inbound copy is held 20–25 ms (delay on every datagram, no
/// loss), so no reply can come back sooner than 20 ms after the move it
/// echoes: the clients' mean round trip is at least that. Copies still
/// held at shutdown are pending on their ports, so the books close.
#[test]
fn delayed_copies_arrive_no_earlier_than_their_delay() {
    let fault = FaultConfig {
        delay: 1.0,
        min_delay_ns: 20_000_000,
        max_delay_ns: 25_000_000,
        seed: 0x5EED_0002,
        ..FaultConfig::none()
    };
    let Some((addr, server)) = serve(UdpArenaOpts {
        fault,
        ..two_arenas(Duration::from_millis(1200))
    }) else {
        return;
    };
    let out = run_udp_clients(addr, 2, 12, Duration::from_millis(900), None, 1, None)
        .expect("client run");
    let report = server.join().expect("server thread").expect("server run");
    assert!(report.accounting_closed(), "books open: {report:?}");
    assert!(out.received > 0, "clients heard nothing back: {out:?}");
    assert!(
        out.avg_ms >= 20.0,
        "mean round trip {:.2} ms under the 20 ms delay floor",
        out.avg_ms
    );
}

/// Fewer bots than sockets spawn fewer drivers than sockets were asked
/// for — none at all for zero bots — and the bridge must not reach
/// past the ones that exist.
#[test]
fn more_sockets_than_players_is_fine() {
    let Some((addr, server)) = serve(two_arenas(Duration::from_millis(1200))) else {
        return;
    };
    let few = run_udp_clients(addr, 2, 3, Duration::from_millis(700), None, 4, None)
        .expect("3 players on 4 sockets");
    assert!(few.received > 0, "3 players heard nothing: {few:?}");
    let none = run_udp_clients(addr, 2, 0, Duration::from_millis(100), None, 4, None)
        .expect("0 players on 4 sockets");
    assert_eq!((none.sent, none.received), (0, 0));
    let report = server.join().expect("server thread").expect("server run");
    assert!(report.accounting_closed(), "books open: {report:?}");
}
