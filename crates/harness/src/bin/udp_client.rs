//! `udp_client` — drive real-UDP bots against a `udpd` gateway.
//!
//! ```text
//! udp_client [--server 127.0.0.1:27500] [--players 8] [--secs 5]
//!            [--arenas 1] [--ramp] [--predict]
//! ```
//!
//! The bots are the swarm of the virtual-time figures — `BotMind`
//! deathmatch players, one jittered move per 30 ms client frame,
//! arriving asynchronously — behind a socket bridge (see
//! `run_udp_clients`). Client `i` requests arena `i % N` (`--arenas N`)
//! on connect and reply traffic is tallied per arena. `--ramp` staggers
//! joins over the first 30% of the run, holds, then drains everyone
//! (with `Disconnect`s) over the next 20% — leaving a quiet tail that
//! lets an elastic gateway reap its spawned arenas. Every bot sends and
//! receives through one client socket.
//! `--predict` turns on client-side prediction: every bot runs the
//! movement kernel locally against the default `udpd` map, opts into
//! the Move/Reply prediction trailer, and reconciles against each
//! authoritative reply; the run prints the full prediction ledger
//! including the divergence oracle (only valid against a `udpd` run
//! with the default map).

use std::sync::Arc;
use std::time::Duration;

use parquake_harness::cli::Args;
use parquake_harness::udp_arena::{run_udp_clients, UdpArenaOpts};
use parquake_metrics::PredictionStats;

fn print_prediction(p: &PredictionStats, in_flight: u64) {
    println!(
        "udp_client: prediction — {} predicted, {} reconciles, {} judged, {} replayed, \
         {} mispredicted ({:.2}%), {} ring overflows",
        p.predicted,
        p.reconciled,
        p.judged,
        p.replayed,
        p.mispredictions,
        p.misprediction_rate() * 100.0,
        p.ring_overflows
    );
    println!(
        "udp_client: prediction depth — p50 {} p95 {} max {} over {} reconciles",
        p.depth.percentile(0.50),
        p.depth.percentile(0.95),
        p.depth.max(),
        p.depth.samples()
    );
    println!(
        "udp_client: prediction oracle — {} checks, {} divergence",
        p.oracle_checks, p.oracle_mismatches
    );
    println!(
        "udp_client: prediction ledger — {} predicted == {} judged + {} dropped \
         + {} in flight — accounting {}",
        p.predicted,
        p.judged,
        p.dropped,
        in_flight,
        if p.closed(in_flight) {
            "closes"
        } else {
            "DOES NOT CLOSE"
        }
    );
}

fn main() {
    let mut server: std::net::SocketAddr = "127.0.0.1:27500".parse().unwrap();
    let mut players = 8u32;
    let mut secs = 5u64;
    let mut arenas = 1u32;
    let mut ramp = false;
    let mut predict = false;
    let mut args = Args::from_env("udp_client");
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--server" => server = args.value("addr:port"),
            "--players" => players = args.value("a number"),
            "--secs" => secs = args.value("a number"),
            "--arenas" => arenas = args.value("a number"),
            "--ramp" => ramp = true,
            "--predict" => predict = true,
            other => args.die(&format!("unknown option {other}")),
        }
    }
    // Prediction needs the *same compiled map* as the server; `udpd`
    // has no map flag, so both sides share the `UdpArenaOpts` default
    // generator.
    let map = predict.then(|| Arc::new(UdpArenaOpts::default().map.generate()));
    let duration = Duration::from_secs(secs);
    // 30% up, 30% hold, 20% down, 20% quiet tail for reaps.
    let windows = ramp.then(|| {
        (
            duration.mul_f64(0.3),
            duration.mul_f64(0.3),
            duration.mul_f64(0.2),
        )
    });
    match run_udp_clients(server, arenas, players, duration, windows, map) {
        Ok(out) => {
            println!(
                "udp_client: sent {}, received {}, avg response {:.2} ms",
                out.sent, out.received, out.avg_ms
            );
            for (k, n) in out.per_arena.iter().enumerate() {
                println!("udp_client: arena{k} — {n} replies");
            }
            println!("udp_client: restarts observed — {}", out.restarts_observed);
            println!("udp_client: rehomings observed — {}", out.rehomed_observed);
            if predict {
                print_prediction(&out.prediction, out.predict_in_flight);
            }
        }
        Err(e) => {
            eprintln!("udp_client: {e}");
            std::process::exit(1);
        }
    }
}
