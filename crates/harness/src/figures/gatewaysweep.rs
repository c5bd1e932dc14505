//! Gateway shard sweep (extension): one real UDP port, the same
//! multi-arena fleet, served by 1/2/4 `SO_REUSEPORT` shards.
//!
//! The paper scales the world *inside* the server; this figure scales
//! the front door. A single inbound pump is one thread doing one
//! `recvfrom` and one book-lock acquisition per datagram —
//! at high fan-in it saturates before the arenas do. Sharding the
//! gateway binds N sockets to the one port (the kernel's 4-tuple hash
//! spreads client flows across them), gives every shard its own
//! fault lottery and [`parquake_metrics::GatewayLane`], stripes the
//! session book so shards almost never contend, and drains
//! datagram bursts with `recvmmsg` where the kernel offers it (replies
//! leave one `send_to` each, from the thread that built them). At `--gateway-shards 1` the gateway is the classic
//! single-pump build, byte-identical lottery included — the sweep's
//! baseline row is exactly the pre-shard gateway.
//!
//! Scaling expectation: shard speedup needs cores for the pumps to
//! run on. On a multi-core host the 4-shard row should clear 1.3× the
//! single-pump throughput at saturating fan-in; on a single-core host
//! the pumps time-slice one processor and the sweep degenerates to a
//! (cheap) correctness exercise — the printed report says which case
//! the numbers describe.

use std::net::SocketAddr;
use std::time::Duration;

use parquake_metrics::report::{f, numeric_table};

use crate::figures::common::SweepOpts;
use crate::udp_arena::{run_udp_arena_server, run_udp_clients, UdpArenaOpts, UdpArenaReport};

/// Shard counts swept over the fixed fleet.
pub const SHARDS: [u32; 3] = [1, 2, 4];

/// The sweep's fleet shape: 8 arenas × 32 slots on a 4-worker pool.
pub const ARENAS: u32 = 8;
pub const SLOTS: u16 = 32;
pub const WORKERS: u32 = 4;

/// Loopback ports for the sweep, one per shard point so a lingering
/// socket from the previous point can never cross-talk.
const BASE_PORT: u16 = 28500;

/// One sweep point: serve the fleet behind `shards` shards and
/// drive it with `players` bots spread over `max(shards, 2) * 2`
/// client sockets (reuseport balances flows, not datagrams, so the
/// driver must offer at least as many 4-tuples as there are shards).
pub fn run_point(
    port: u16,
    shards: u32,
    players: u32,
    duration: Duration,
) -> std::io::Result<(UdpArenaReport, u64, u64, f64)> {
    let opts = UdpArenaOpts {
        port,
        gateway_shards: shards,
        arenas: ARENAS,
        workers: WORKERS,
        slots_per_arena: SLOTS,
        duration: duration + Duration::from_millis(400),
        ..UdpArenaOpts::default()
    };
    let server = std::thread::spawn(move || run_udp_arena_server(&opts));
    std::thread::sleep(Duration::from_millis(150));
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let sockets = shards.max(2) * 2;
    let out = run_udp_clients(addr, ARENAS, players, duration, None, sockets, None)?;
    let report = server.join().expect("gateway server thread")?;
    Ok((report, out.sent, out.received, out.avg_ms))
}

/// Run the shard sweep and render the report.
pub fn run(opts: &SweepOpts) -> String {
    let players = ARENAS * SLOTS as u32;
    let duration = Duration::from_secs_f64(opts.duration_secs.max(1.0));
    let cap = crate::mmsg::capability();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut s = format!(
        "== Gateway shard sweep: {ARENAS} arenas x {SLOTS} slots, {players} bots, \
         {}-worker pool, {:.0}s per point ==\n\n",
        WORKERS,
        duration.as_secs_f64()
    );
    s.push_str(&format!(
        "host: {cores} core(s); kernel capabilities: {}, {}\n\n",
        if cap.reuseport {
            "SO_REUSEPORT"
        } else {
            "no SO_REUSEPORT (shared-socket fallback)"
        },
        if cap.mmsg {
            "recvmmsg/sendmmsg"
        } else {
            "one-datagram syscalls"
        },
    ));

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut baseline = 0.0f64;
    let mut speedup4 = 0.0f64;
    for (i, &shards) in SHARDS.iter().enumerate() {
        let port = BASE_PORT + i as u16;
        match run_point(port, shards, players, duration) {
            Ok((report, sent, received, avg_ms)) => {
                let rate = received as f64 / duration.as_secs_f64();
                if shards == 1 {
                    baseline = rate;
                }
                if shards == 4 && baseline > 0.0 {
                    speedup4 = rate / baseline;
                }
                let busy = report.shards.iter().filter(|l| l.datagrams_in > 0).count();
                let batched = report.shards.iter().map(|l| l.batched_recvs).sum::<u64>();
                rows.push(vec![
                    format!("shards{shards}"),
                    sent.to_string(),
                    f(rate, 0),
                    if baseline > 0.0 {
                        f(rate / baseline, 2)
                    } else {
                        "-".into()
                    },
                    f(avg_ms, 2),
                    format!("{busy}/{shards}"),
                    batched.to_string(),
                    if report.accounting_closed() {
                        "closes".into()
                    } else {
                        "OPEN".into()
                    },
                ]);
            }
            Err(e) => {
                rows.push(vec![
                    format!("shards{shards}"),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    s.push_str(&numeric_table(
        &[
            "configuration",
            "sent",
            "replies/s",
            "vs 1 shard",
            "resp-ms",
            "busy-shards",
            "batched-ops",
            "books",
        ],
        &rows,
    ));
    s.push('\n');
    if cores >= 4 {
        s.push_str(&format!(
            "4 shards serve {speedup4:.2}x the single-pump reply rate. Each shard\n\
             owns a reuseport socket, a striped slice of the books, and a\n\
             batched receive path, so the front door scales with cores until\n\
             the arenas saturate.\n"
        ));
    } else {
        s.push_str(&format!(
            "HARDWARE CAVEAT: this host has {cores} core(s); the {} pump threads,\n\
             {WORKERS} pool workers and the bot driver time-slice the same\n\
             processor, so shard speedup ({speedup4:.2}x at 4 shards) measures\n\
             scheduler interleaving, not parallel syscall capacity. The sweep\n\
             still proves the sharded books close at every width; rerun on a\n\
             >=4-core host for the throughput claim.\n",
            SHARDS[SHARDS.len() - 1]
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cheap sweep point end-to-end: the sharded gateway under the
    /// figure's fleet shape must answer bots and close every book. No
    /// throughput assertion — scaling needs cores this runner may not
    /// have.
    #[test]
    fn sweep_point_closes_books_at_two_shards() {
        let port = 28520;
        if std::net::UdpSocket::bind(("127.0.0.1", port)).is_err() {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        }
        let (report, sent, received, _avg) =
            run_point(port, 2, 32, Duration::from_millis(900)).expect("sweep point");
        assert!(sent > 0 && received > 0, "no traffic: {report:?}");
        assert_eq!(report.shards.len(), 2);
        assert!(report.accounting_closed(), "books open: {report:?}");
    }
}
