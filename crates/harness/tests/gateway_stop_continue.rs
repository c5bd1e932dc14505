//! Ctrl-Z and `fg` on a running gateway. signal(7): on Linux a
//! receive on a socket with `SO_RCVTIMEO` set fails with `EINTR` after
//! the process is stopped and continued, even with no signal handler
//! installed. The gateway's inbound pumps block in exactly such a
//! receive, so a stop and continue must not end them.
//!
//! This file is a test binary of its own because its test stops the
//! whole process: a test running beside it that blocks in a receive
//! with a timeout would see `EINTR` too.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use parquake_harness::udp_arena::{run_udp_arena_server, UdpArenaOpts};
use parquake_protocol::{ClientMessage, Decode, Encode, ServerMessage};

/// Send `Connect`s for `cid` until the gateway acks one (true) or two
/// seconds pass (false).
fn handshake(sock: &UdpSocket, server: SocketAddr, cid: u32) -> bool {
    let connect = ClientMessage::Connect {
        client_id: cid,
        arena: 0,
    }
    .to_bytes();
    let mut buf = [0u8; 2048];
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(2) {
        sock.send_to(&connect, server).unwrap();
        if let Ok((n, _)) = sock.recv_from(&mut buf) {
            if let Ok(ServerMessage::ConnectAck { client_id, .. }) =
                ServerMessage::from_bytes(&buf[..n])
            {
                if client_id == cid {
                    return true;
                }
            }
        }
    }
    false
}

/// Stop this process and continue it 50 ms later, from a child shell.
/// `false` when no shell could do it.
fn stop_and_continue() -> bool {
    let pid = std::process::id().to_string();
    std::process::Command::new("sh")
        .args([
            "-c",
            "kill -STOP \"$1\"; sleep 0.05; kill -CONT \"$1\"",
            "sh",
            &pid,
        ])
        .status()
        .is_ok_and(|s| s.success())
}

#[test]
fn a_gateway_still_admits_clients_after_a_stop_and_continue() {
    let (Ok(probe), Ok(client)) = (
        UdpSocket::bind("127.0.0.1:0"),
        UdpSocket::bind("127.0.0.1:0"),
    ) else {
        eprintln!("skipping: loopback UDP not permitted");
        return;
    };
    let addr = probe.local_addr().unwrap();
    drop(probe);
    client
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let opts = UdpArenaOpts {
        port: addr.port(),
        arenas: 1,
        workers: 1,
        slots_per_arena: 4,
        duration: Duration::from_secs(2),
        ..UdpArenaOpts::default()
    };
    let server = std::thread::spawn(move || run_udp_arena_server(&opts));
    if !handshake(&client, addr, 1) {
        match server.join().unwrap() {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                eprintln!("skipping: lost the loopback port to another process");
                return;
            }
            other => panic!("the gateway never acked a Connect: {other:?}"),
        }
    }
    // Every pump is up and idle, blocked in its receive.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(20));
        if !stop_and_continue() {
            eprintln!("skipping: cannot stop and continue this process");
            server.join().unwrap().unwrap();
            return;
        }
    }
    assert!(
        handshake(&client, addr, 2),
        "no Connect acked after a stop and continue: the inbound pump ended"
    );
    let report = server.join().unwrap().unwrap();
    assert!(report.accounting_closed(), "books open: {report:?}");
}
