//! Satellite regression: the real-UDP client's reply-seq
//! duplicate-suppression window must restart on a watchdog re-Connect.
//!
//! A supervised restart restores an arena from its last checkpoint, so
//! the server's per-slot reply sequence counter *rewinds*: replies of
//! the revived session carry sequence numbers far below what the client
//! saw before the crash. Pre-fix, `run_udp_clients` kept its highest
//! reply seq across the watchdog re-handshake, so every post-restart
//! reply was swallowed as a stale duplicate and the session starved
//! forever even though the server had fully recovered.
//!
//! This test stands in a deterministic fake server that produces
//! exactly that observable: eight replies at high sequence numbers,
//! a silent window long enough to trip the client's 1 s starvation
//! watchdog, then a revived session whose reply seqs restart at 1.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use parquake_harness::udp_arena::run_udp_clients;
use parquake_math::Vec3;
use parquake_protocol::{ClientMessage, Decode, Encode, ServerMessage, MAX_DATAGRAM};

const CLIENT_RUN: Duration = Duration::from_secs(4);
const SERVER_RUN: Duration = Duration::from_millis(4300);
/// Replies sent before the "crash".
const PRE_CRASH_REPLIES: u64 = 8;
/// Longer than the client's 1 s starvation watchdog.
const SILENCE: Duration = Duration::from_millis(1300);

#[test]
fn post_restart_replies_survive_the_dedup_window() {
    let Ok(server_sock) = UdpSocket::bind("127.0.0.1:0") else {
        eprintln!("skipping: loopback UDP not permitted");
        return;
    };
    server_sock
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let addr = server_sock.local_addr().unwrap();

    let server = std::thread::spawn(move || {
        let start = Instant::now();
        let mut pre_crash = 0u64;
        let mut post_crash = 0u64;
        let mut crashed_at: Option<Instant> = None;
        let mut buf = [0u8; MAX_DATAGRAM];
        while start.elapsed() < SERVER_RUN {
            let Ok((len, from)) = server_sock.recv_from(&mut buf) else {
                continue;
            };
            let Ok(msg) = ClientMessage::from_bytes(&buf[..len]) else {
                continue;
            };
            // The "crash": total silence until the restore completes.
            if let Some(t) = crashed_at {
                if t.elapsed() < SILENCE {
                    continue;
                }
            }
            match msg {
                ClientMessage::Connect { client_id, .. } => {
                    let ack = ServerMessage::ConnectAck {
                        client_id,
                        spawn: Vec3::ZERO,
                        arena: 0,
                    };
                    let _ = server_sock.send_to(&ack.to_bytes(), from);
                }
                ClientMessage::Move { client_id, cmd } => {
                    // Pre-crash replies run high; the restored session
                    // rewinds to 1 — the checkpoint's counter.
                    let seq = match crashed_at {
                        None => 1000 + pre_crash + 1,
                        Some(_) => post_crash + 1,
                    };
                    let reply = ServerMessage::Reply {
                        client_id,
                        seq: seq as u32,
                        sent_at_echo: cmd.sent_at,
                        frame: seq as u32,
                        assigned_thread: 0,
                        origin: Vec3::ZERO,
                        delta: false,
                        entities: Vec::new(),
                        removed: Vec::new(),
                        events: Vec::new(),
                        predict: None,
                    };
                    if server_sock.send_to(&reply.to_bytes(), from).is_ok() {
                        match crashed_at {
                            None => {
                                pre_crash += 1;
                                if pre_crash == PRE_CRASH_REPLIES {
                                    crashed_at = Some(Instant::now());
                                }
                            }
                            Some(_) => post_crash += 1,
                        }
                    }
                }
                _ => {}
            }
        }
        (pre_crash, post_crash)
    });

    let out = run_udp_clients(addr, 1, 1, CLIENT_RUN, None, 1, None).expect("client loop failed");
    let (sent, received) = (out.sent, out.received);
    let (pre_crash, post_crash) = server.join().unwrap();

    assert_eq!(pre_crash, PRE_CRASH_REPLIES, "pre-crash phase never ran");
    assert!(
        post_crash > 5,
        "restored session never served replies (watchdog re-Connect failed?): \
         post_crash {post_crash}, sent {sent}"
    );
    // The regression: pre-fix, every post-restart reply was deduped
    // against the pre-crash window and `received` stalled at exactly
    // `pre_crash`.
    assert!(
        received > pre_crash,
        "post-restart replies swallowed as duplicates: received {received}, \
         pre-crash {pre_crash}, post-crash served {post_crash}"
    );
    assert!(
        received <= pre_crash + post_crash,
        "counted more replies than the server ever sent: {received} > {} + {}",
        pre_crash,
        post_crash
    );
}
