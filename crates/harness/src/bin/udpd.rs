//! `udpd` — serve parquake over one real UDP socket.
//!
//! ```text
//! udpd [--port 27500] [--players 32] [--secs 5]
//!      [--arenas 1] [--threads 1] [--workers 2]
//!      [--fault lossy|wan] [--timeout-secs S]
//!      [--interest scan|sweep|sweep-oracle]
//!      [--max-arenas M] [--linger-ms MS]
//!      [--crash-rate P] [--crash-seed N]
//!      [--migrate-spread N] [--migrate-drain]
//!      [--gateway-shards S]
//! ```
//!
//! `--arenas N` worlds of `--players` slots each are served behind ONE
//! socket on `--port`; pair with the `udp_client` binary or any
//! protocol-speaking client. `--threads 1` (the default) schedules the
//! arenas' frames on a shared pool of `--workers` tasks. `--threads T`
//! (T > 1) instead gives every arena the paper's region-locked
//! parallel server on T dedicated threads: each thread keeps its
//! private request queue (a fabric port where the paper binds a UDP
//! port per thread) and the gateway routes every move to the thread its
//! client was dealt to (there is no pool then: `--workers` is unused,
//! and the banner says so). Elasticity, supervision and live migration are
//! pool features, so `--threads T` combined with `--max-arenas`,
//! `--crash-rate` or `--migrate-*` is refused (exit 2).
//!
//! `--fault NAME` turns on seeded fault injection on the inbound path
//! with a named profile from `parquake_fabric::fault::NAMED` (seed 7):
//! `lossy` drops 8 %, duplicates 4 % and delays 4 % of datagrams by up
//! to 20 ms; `wan` adds Gilbert–Elliott bursty loss (5 %, mean burst 4
//! datagrams) and up to 20 ms of per-copy jitter, which reorders.
//! `--timeout-secs` sets the server-side inactivity reclaim (0
//! disables it).
//! `--interest sweep` (the default) computes visible-entity sets with
//! the batch DDM sweep and prints its pair-accounting identity; `scan`
//! selects the paper's per-client scans, and `sweep-oracle` shadows
//! every reply with the scan and every index refresh with a
//! from-scratch build, and prints both mismatch counts.
//! `--max-arenas M` (M > N) makes the directory elastic: it spawns
//! arenas under admission pressure up to M and reaps arenas whose
//! occupancy stays zero past `--linger-ms` (default 500).
//! `--crash-rate P` turns supervision on and injects a per-frame panic
//! lottery (seeded by `--crash-seed`) with probability P per arena
//! frame; every crash is caught, the arena restored from its last
//! checkpoint, and the supervisor's accounting printed at shutdown.
//! `--migrate-spread N` turns on cross-arena live migration: whenever
//! the hottest live arena holds at least N more clients than the
//! coldest open one, the director hands one slot off per tick.
//! `--migrate-drain` additionally empties lingering elastic arenas
//! slot by slot so the reaper finds them empty.
//! `--gateway-shards S` runs S shards, each a socket and its inbound
//! pump, on the one UDP port via `SO_REUSEPORT` (kernel 4-tuple hash
//! spreads client flows across the shard sockets; the report prints
//! whether batched receives and reuseport are live). Replies leave
//! from the thread that built them, one `send_to` each. `S = 1` is the classic
//! single-pump gateway, fault lottery included.
//!
//! Exit status: 0 when every accounting identity closed and the
//! interest oracle (if armed) stayed silent, 1 when one did not or the
//! socket could not be had, 2 on a usage error.

use std::time::Duration;

use parquake_fabric::fault::{FaultConfig, NAMED};
use parquake_harness::cli::Args;
use parquake_harness::udp_arena::{run_udp_arena_server, UdpArenaOpts};
use parquake_server::InterestMode;

fn closes(ok: bool) -> &'static str {
    if ok {
        "closes"
    } else {
        "DOES NOT CLOSE"
    }
}

fn main() {
    let mut opts = UdpArenaOpts {
        arenas: 1,
        ..UdpArenaOpts::default()
    };
    let mut args = Args::from_env("udpd");
    let profiles = NAMED.map(|(name, _)| name).join("|");
    let (mut crash_rate, mut crash_seed) = (0.0f32, 0xC4A5_5EED);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--port" => opts.port = args.value("a number"),
            "--threads" => opts.threads = args.value("a number"),
            "--players" => opts.slots_per_arena = args.value("a number"),
            "--secs" => opts.duration = Duration::from_secs(args.value("a number")),
            "--fault" => {
                let name: String = args.value(&profiles);
                opts.fault = FaultConfig::named(&name)
                    .unwrap_or_else(|| args.die(&format!("--fault needs {profiles}")));
            }
            "--timeout-secs" => opts.client_timeout = Duration::from_secs(args.value("a number")),
            "--interest" => {
                let mode: String = args.value("scan|sweep|sweep-oracle");
                opts.interest = InterestMode::from_flag(&mode)
                    .unwrap_or_else(|| args.die("--interest needs scan|sweep|sweep-oracle"));
            }
            "--arenas" => opts.arenas = args.value("a number"),
            "--workers" => opts.workers = args.value("a number"),
            "--max-arenas" => opts.max_arenas = args.value("a number"),
            "--linger-ms" => opts.linger = Duration::from_millis(args.value("a number")),
            "--crash-rate" => crash_rate = args.value("0.0-1.0"),
            "--crash-seed" => crash_seed = args.value("a number"),
            "--migrate-spread" => opts.migrate_spread = args.value("a number"),
            "--migrate-drain" => opts.migrate_drain = true,
            "--gateway-shards" => opts.gateway_shards = args.value("a number"),
            other => args.die(&format!("unknown option {other}")),
        }
    }
    opts.arenas = opts.arenas.max(1);
    opts.workers = opts.workers.max(1);
    // Any crash rate but 0 supervises; one outside 0..=1 (NaN
    // included) is refused with the rest of the options, before any
    // socket is bound.
    opts.supervision = (crash_rate != 0.0).then(|| FaultConfig {
        panic_per_frame: crash_rate,
        seed: crash_seed,
        ..FaultConfig::none()
    });
    println!(
        "udpd: {} arenas x {} slots on 127.0.0.1:{} (one socket), {}, {}s",
        opts.arenas,
        opts.slots_per_arena,
        opts.port,
        if opts.threads > 1 {
            format!(
                "{} dedicated threads per arena (no pool: --workers is unused)",
                opts.threads
            )
        } else {
            format!("{}-worker pool", opts.workers)
        },
        opts.duration.as_secs()
    );
    if opts.interest.uses_sweep() {
        println!(
            "udpd: interest matching — {}{}",
            opts.interest.label(),
            if opts.interest.oracle() {
                " (per-reply scan shadow oracle)"
            } else {
                ""
            }
        );
    }
    if opts.gateway_shards > 1 {
        let cap = parquake_harness::mmsg::capability();
        println!(
            "udpd: gateway sharding — {} shards ({}, {})",
            opts.gateway_shards,
            if cap.reuseport {
                "SO_REUSEPORT"
            } else {
                "shared-socket fallback"
            },
            if cap.mmsg {
                "batched recvmmsg"
            } else {
                "one-datagram syscalls"
            }
        );
    }
    if opts.max_arenas > opts.arenas {
        println!(
            "udpd: elastic — up to {} arenas, {} ms linger before reap",
            opts.max_arenas,
            opts.linger.as_millis()
        );
    }
    if let Some(f) = &opts.supervision {
        println!(
            "udpd: supervision on — crash lottery {:.2}%/frame, seed {:#x}",
            f.panic_per_frame * 100.0,
            f.seed
        );
    }
    if opts.migrate_spread > 0 || opts.migrate_drain {
        println!(
            "udpd: live migration on — spread threshold {}, drain-before-reap {}",
            opts.migrate_spread,
            if opts.migrate_drain { "on" } else { "off" }
        );
    }
    if !opts.fault.is_noop() {
        println!(
            "udpd: fault injection — drop {:.1}%, burst {:.1}% (mean len {:.1}), dup {:.1}%, \
             delay {:.1}% in {}..{} ms, jitter up to {} ms, seed {:#x}",
            opts.fault.drop * 100.0,
            opts.fault.burst_loss * 100.0,
            opts.fault.burst_len,
            opts.fault.duplicate * 100.0,
            opts.fault.delay * 100.0,
            opts.fault.min_delay_ns / 1_000_000,
            opts.fault.max_delay_ns / 1_000_000,
            opts.fault.jitter_ns / 1_000_000,
            opts.fault.seed
        );
    }
    let report = match run_udp_arena_server(&opts) {
        Ok(report) => report,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => args.die(&e.to_string()),
        Err(e) => {
            eprintln!("udpd: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "udpd: done — {} datagrams in, {} out, {} routed connects \
         ({} sticky, {} rejected-full)",
        report.datagrams_in,
        report.datagrams_out,
        report.admission.routed,
        report.admission.sticky,
        report.admission.rejected_full
    );
    println!(
        "udpd: gateway fates — {} to front door, {} straight to arenas, \
         {} fault-dropped ({} dup copies), {} decode-rejected, \
         {} spoof-rejected, {} arena-unknown",
        report.to_front,
        report.forwarded - report.to_front,
        report.fault_dropped,
        report.fault_duplicated,
        report.decode_rejected,
        report.spoof_rejected,
        report.arena_unknown
    );
    for lane in &report.shards {
        println!(
            "udpd: shard{} — {} in, {} out ({} batched recvs), \
             {} forwarded ({} to front), {} fault-dropped ({} dup copies), \
             {} decode-rejected, {} spoof-rejected, {} arena-unknown, \
             {} replies unroutable — identity {}",
            lane.shard,
            lane.datagrams_in,
            lane.datagrams_out,
            lane.batched_recvs,
            lane.forwarded,
            lane.to_front,
            lane.fault_dropped,
            lane.fault_duplicated,
            lane.decode_rejected,
            lane.spoof_rejected,
            lane.arena_unknown,
            lane.replies_unroutable,
            closes(lane.accounting_closed())
        );
    }
    for (k, lane) in report.lanes.iter().enumerate() {
        println!(
            "udpd: arena{} — {} admitted, {} replies over {} frames; \
             {} pump + {} director forwarded = {} processed + {} dropped \
             + {} pending — accounting {}",
            k,
            lane.admitted,
            lane.replies,
            lane.frames,
            lane.pump_forwarded,
            lane.director_forwarded,
            lane.processed,
            lane.queue_dropped,
            lane.pending_at_shutdown,
            closes(lane.accounting_closed())
        );
    }
    let e = &report.elastic;
    println!(
        "udpd: elastic — {} spawned, {} reaped (peak {} live, {} at end)",
        e.spawned, e.reaped, e.peak_live, e.live_at_end
    );
    for ev in &e.events {
        println!(
            "udpd: elastic t={:.2}s arena{} {:?} -> {} live",
            ev.at as f64 / 1e9,
            ev.arena,
            ev.kind,
            ev.live
        );
    }
    if opts.supervision.is_some() {
        let s = &report.supervisor;
        println!(
            "udpd: supervisor — caught {} panics, condemned {} stuck, \
             restored {} arenas (avg recovery {:.2} ms, {} placements replayed)",
            s.panics_caught,
            s.stuck_detected,
            s.restarts,
            s.avg_recovery_ms(),
            s.replayed_placements
        );
        println!(
            "udpd: supervisor — {} checkpoints ({} KiB), {} shed frames, \
             {} moves coalesced",
            s.checkpoints_taken,
            s.checkpoint_bytes / 1024,
            s.shed_frames,
            s.coalesced_moves
        );
        for ev in &s.events {
            println!(
                "udpd: supervisor t={:.2}s arena{} {:?}",
                ev.at as f64 / 1e9,
                ev.arena,
                ev.kind
            );
        }
    }
    if opts.migrate_spread > 0 || opts.migrate_drain {
        let s = &report.supervisor;
        println!(
            "udpd: migration — migrated {} slots ({} by drain), {} aborted, \
             {} hash mismatches",
            s.migrations, s.drain_migrations, s.migrate_aborted, s.migrate_hash_mismatch
        );
    }
    if !report.lanes_missing_counters.is_empty() {
        println!(
            "udpd: WARNING — lanes with absent director counters: {:?}",
            report.lanes_missing_counters
        );
    }
    let ist = &report.interest;
    if opts.interest.uses_sweep() {
        println!(
            "udpd: interest — {} frames indexed, {} viewer-entity pairs \
             ({} tested + {} skipped) — pair accounting {}",
            ist.frames,
            ist.pairs_total,
            ist.pairs_tested,
            ist.pairs_skipped,
            closes(ist.pairs_closed())
        );
    }
    if opts.interest.oracle() {
        println!(
            "udpd: interest oracle — {} replies checked, {} mismatches{}",
            ist.oracle_checked,
            ist.oracle_mismatches,
            if ist.oracle_mismatches == 0 {
                " — sweep == scan"
            } else {
                " — SWEEP DIVERGED FROM SCAN"
            }
        );
        println!(
            "udpd: index oracle — {} refreshes rebuilt, {} index mismatches{}",
            ist.frames,
            ist.index_mismatches,
            if ist.index_mismatches == 0 {
                " — refresh == build"
            } else {
                " — REFRESH DIVERGED FROM BUILD"
            }
        );
    }
    let adm = &report.admission;
    let population_closes = adm.placed == adm.departed + adm.resident;
    println!(
        "udpd: population identity — placed {} == departed {} + resident {} — \
         accounting {} ({} connected, {} disconnected, {} reclaimed, \
         {} rejected, {} migrated notices)",
        adm.placed,
        adm.departed,
        adm.resident,
        closes(population_closes),
        adm.notice_connected,
        adm.notice_disconnected,
        adm.notice_reclaimed,
        adm.notice_rejected,
        adm.notice_migrated
    );
    let all_closed = report.accounting_closed() && population_closes && ist.pairs_closed();
    println!("udpd: overall accounting {}", closes(all_closed));
    if !all_closed || ist.oracle_mismatches > 0 || ist.index_mismatches > 0 {
        std::process::exit(1);
    }
}
