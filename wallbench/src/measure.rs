//! Turn what a run produced into the two reports: the end-to-end
//! metrics (always from untraced runs on the program's own drivers)
//! and the per-layer metrics (traced run, `ServerResults` shares,
//! kernel pass), each with the correctness gate applied.

use std::path::PathBuf;

use parquake_metrics::Bucket;
use parquake_server::{CostModel, ServerKind, ServerResults};

use crate::calibrate;
use crate::estimator::{median, quiet_level};
use crate::inproc::{self, Driver, InprocOutcome, RunOpts, Timing};
use crate::layers::{run_kernels, KernelInputs, KernelResult};
use crate::openloop::{Generated, TICK_NS};
use crate::procstat::vm_hwm_mb;
use crate::report::Report;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::{self, Span, SpanKind};
use crate::udp::{self, UdpOutcome};
use crate::workloads;

/// A run fails when more than this share of its operations failed
/// (the issue's 0.01): moves no reply ever acknowledged, clients never
/// acked. Lateness is not failure: a move answered after the latency
/// limit lowers `answered_share`, and the server still did the work.
const MAX_FAILED_SHARE: f64 = 0.01;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub timing: Timing,
    pub opts: RunOpts,
    /// Where to write the Chrome trace of a per-layer run, if anywhere.
    pub trace_out: Option<PathBuf>,
}

fn report_for(name: &str) -> Report {
    Report {
        workload: name.into(),
        ..Report::default()
    }
}

/// Count the run's operations and apply the generator's half of the
/// correctness gate: every client acked, every reply well-formed and
/// echoing a sent move, no bulk loss.
fn count_and_gate(r: &mut Report, g: &Generated) {
    let attempted = g.tally.attempted + g.connects_attempted;
    let failed = g.tally.failed() + g.connects_failed;
    r.attempted += attempted;
    r.failed += failed;
    r.require(g.connects_failed == 0, || {
        format!("{} clients were never acked", g.connects_failed)
    });
    r.gate.extend(g.ledger.violations.iter().cloned());
    let share = failed as f64 / attempted.max(1) as f64;
    r.require(share <= MAX_FAILED_SHARE, || {
        format!("failed_share {share:.4} exceeds {MAX_FAILED_SHARE}")
    });
}

/// The in-process half of the gate.
fn gate_inproc(r: &mut Report, o: &InprocOutcome) {
    count_and_gate(r, &o.gen);
    let merged = o.results.merged();
    r.require(merged.decode_rejected == 0, || {
        format!("server rejected {} datagrams", merged.decode_rejected)
    });
    r.require(o.results.interest.pairs_closed(), || {
        format!("interest pair accounting open: {:?}", o.results.interest)
    });
    if let Err(e) = &o.audit {
        r.gate.push(format!("audit_links: {e}"));
    }
}

/// The UDP half of the gate.
fn gate_udp(r: &mut Report, o: &UdpOutcome) {
    count_and_gate(r, &o.gen);
    r.require(o.report.decode_rejected == 0, || {
        format!("gateway rejected {} datagrams", o.report.decode_rejected)
    });
    r.require(o.report.accounting_closed(), || {
        "UdpArenaReport accounting does not close".into()
    });
}

fn udp_unavailable(r: &mut Report, e: &std::io::Error) {
    r.gate.push(format!("loopback gateway unavailable: {e}"));
}

// ---- end-to-end ------------------------------------------------------

fn end_to_end_metrics(r: &mut Report, g: &Generated) {
    let nan = f64::NAN;
    let n = g.tally.rtt_samples() as u64;
    r.push("rtt_p50_us", g.tally.rtt_us(0.50).unwrap_or(nan), n);
    r.push("rtt_p99_us", g.tally.rtt_us(0.99).unwrap_or(nan), n);
    let window_s = g.window.window_secs();
    r.push(
        "moves_per_s",
        g.tally.moves_per_s(window_s).unwrap_or(nan),
        g.tally.on_time,
    );
    r.push(
        "answered_share",
        g.tally.answered_share().unwrap_or(nan),
        g.tally.attempted,
    );
    r.push(
        "cpu_s_per_mmoves",
        g.tally.cpu_s_per_mmoves(&g.server_cpu_ns).unwrap_or(nan),
        g.tally.on_time,
    );
    r.push(
        "setup_s",
        quiet_level(&g.setup_s).unwrap_or(nan),
        g.setup_s.len() as u64,
    );
    r.push("rss_peak_mb", vm_hwm_mb(), 0);
    r.notes.push(format!(
        "moves: attempted {} on-time {} late {} unanswered {}; connects: attempted {} failed {}; \
         replies {} duplicates {}",
        g.tally.attempted,
        g.tally.on_time,
        g.tally.late,
        g.tally.unanswered,
        g.connects_attempted,
        g.connects_failed,
        g.ledger.replies,
        g.ledger.duplicates
    ));
    r.notes.push(format!(
        "generator lateness: p99 {:.1} us, max {:.1} us; host steal {:.2} % of the window",
        g.sent.late_p99_us(),
        g.sent.late_max_us(),
        100.0 * g.steal_share
    ));
    let list = |values: &[f64], digits: usize| {
        let v: Vec<String> = values.iter().map(|x| format!("{x:.digits$}")).collect();
        format!("[{}]", v.join(", "))
    };
    r.detail.push(format!(
        "\"slices\": {{\"rtt_p50_us\": {}, \"rtt_p99_us\": {}, \"cpu_s_per_mmoves\": {}}}",
        list(&g.tally.slice_rtt_us(0.50), 1),
        list(&g.tally.slice_rtt_us(0.99), 1),
        list(&g.tally.slice_cpu_s_per_mmoves(&g.server_cpu_ns), 3),
    ));
}

/// One untraced run on the program's own driver.
pub fn end_to_end_run(name: &str, args: &RunArgs) -> Report {
    let mut r = report_for(name);
    match workloads::inproc_by_name(name) {
        Some(spec) => {
            let o = inproc::run(&spec, args.seed, args.timing, Driver::Program, args.opts);
            end_to_end_metrics(&mut r, &o.gen);
            gate_inproc(&mut r, &o);
        }
        None => match udp::run(args.seed, args.timing, args.opts) {
            Ok(o) => {
                end_to_end_metrics(&mut r, &o.gen);
                gate_udp(&mut r, &o);
            }
            Err(e) => udp_unavailable(&mut r, &e),
        },
    }
    r.complete(END_TO_END);
    r
}

// ---- per-layer -------------------------------------------------------

/// Shares and rates the program publishes in `ServerResults`.
fn server_metrics(r: &mut Report, o: &InprocOutcome) {
    let results: &ServerResults = &o.results;
    let b = results.average_breakdown();
    for (name, bucket) in [
        ("server.exec_share", Bucket::Exec),
        ("server.lock_share", Bucket::Lock),
        ("server.receive_share", Bucket::Receive),
        ("server.reply_share", Bucket::Reply),
        ("server.world_share", Bucket::World),
        ("server.intrawait_share", Bucket::IntraWait),
        ("server.interwait_share", Bucket::InterWait),
        ("server.idle_share", Bucket::Idle),
    ] {
        r.push(name, b.fraction(bucket), 0);
    }
    let merged = results.merged();
    let f = &results.frames;
    let serving_s = o.gen.window.total_ticks() as f64 * TICK_NS as f64 / 1e9;
    r.push("server.frames_per_s", f.frames as f64 / serving_s, f.frames);
    r.push(
        "server.moves_per_frame",
        f.requests_sum as f64 / f.participants_sum.max(1) as f64,
        f.participants_sum,
    );
    r.push(
        "server.lock_wait_ns_per_move",
        merged.lock.total_ns() as f64 / merged.requests.max(1) as f64,
        merged.requests,
    );
    r.push("server.queue_dropped", merged.queue_dropped as f64, 0);
    let i = &results.interest;
    r.push(
        "interest.pairs_pruned_share",
        i.pairs_skipped as f64 / i.pairs_total.max(1) as f64,
        i.pairs_total,
    );
    r.push(
        "interest.index_builds_per_move",
        i.frames as f64 / merged.requests.max(1) as f64,
        merged.requests,
    );
}

/// The generator's own cost and lateness, and the reply size it saw.
fn generator_metrics(r: &mut Report, g: &Generated) {
    let late_p99_us = g.sent.late_p99_us();
    let cpu_share = g.gen_cpu_s / g.window.window_secs();
    r.push("loadgen.late_p99_us", late_p99_us, 0);
    r.push("loadgen.cpu_share", cpu_share, 0);
    if late_p99_us > 1_000.0 || cpu_share > 0.5 {
        r.notes
            .push("WARNING: generator-bound run (late_p99 > 1 ms or cpu_share > 0.5)".into());
    }
    r.push(
        "trace.loadgen_think_encode_us",
        median(&g.think_encode_us).unwrap_or(0.0),
        g.think_encode_us.len() as u64,
    );
    r.push(
        "trace.loadgen_recv_decode_us",
        median(&g.recv_decode_us).unwrap_or(0.0),
        g.recv_decode_us.len() as u64,
    );
    r.push(
        "protocol.reply_bytes_p50",
        g.ledger.reply_bytes_p50().unwrap_or(0) as f64,
        0,
    );
}

/// Self-time metrics of the mirror's frame phases over the window, and
/// how much of `ServerResults`' frame time the phase spans cover.
fn frame_span_metrics(r: &mut Report, o: &InprocOutcome) {
    let (from, to) = o.window_ns;
    for (p50, p99, kind) in [
        (
            "trace.select_wait_us_p50",
            "trace.select_wait_us_p99",
            SpanKind::SelectWait,
        ),
        (
            "trace.world_update_us_p50",
            "trace.world_update_us_p99",
            SpanKind::WorldUpdate,
        ),
        (
            "trace.drain_requests_us_p50",
            "trace.drain_requests_us_p99",
            SpanKind::DrainRequests,
        ),
        (
            "trace.interest_index_us_p50",
            "trace.interest_index_us_p99",
            SpanKind::InterestIndex,
        ),
        (
            "trace.interest_match_us_p50",
            "trace.interest_match_us_p99",
            SpanKind::InterestMatch,
        ),
        ("trace.reply_us_p50", "trace.reply_us_p99", SpanKind::Reply),
    ] {
        let (med, hi, n) = trace::self_time_us(&o.gen.spans, kind, from, to);
        r.push(p50, med, n as u64);
        r.push(p99, hi, n as u64);
    }
    let phases: u64 = o
        .gen
        .spans
        .iter()
        .filter(|s| s.kind.parent() == Some(SpanKind::Frame))
        .map(Span::dur_ns)
        .sum();
    let coverage = phases as f64 / o.results.frames.frame_ns_sum.max(1) as f64;
    r.push("trace.span_coverage", coverage, o.results.frames.frames);
    r.require((0.9..=1.1).contains(&coverage), || {
        format!("phase spans cover {coverage:.3} of ServerResults frame time")
    });
}

/// Run the kernel table on the world `o` left behind and report it,
/// with MADs and the `CostModel` calibration table as detail.
fn kernel_metrics(r: &mut Report, o: &InprocOutcome, seed: u64) {
    let spec = &o.spec;
    let kernels: Vec<KernelResult> = run_kernels(&KernelInputs {
        world: &o.world,
        cmds: &o.last_cmds,
        frame_viewers: (spec.players / spec.groups / spec.threads()) as usize,
        delta: spec.delta_compression,
        now_ns: o.window_ns.1,
        seed,
    });
    let mut timings = Vec::new();
    for k in &kernels {
        // Batch-1 mmsg timings are detail, not declared metrics.
        if PER_LAYER.iter().any(|d| d.name == k.name) {
            r.push(k.name, k.ns_per_op, k.batches as u64);
        }
        timings.push(format!(
            "\"{}\": {{\"median\": {:.2}, \"mad\": {:.2}, \"batches\": {}, \"ops_per_batch\": {}}}",
            k.name, k.ns_per_op, k.mad_ns, k.batches, k.ops_per_batch
        ));
    }
    r.detail
        .push(format!("\"kernels\": {{{}}}", timings.join(", ")));
    let rows = calibrate::table(&kernels);
    r.detail.push(format!(
        "\"model_vs_measured\": {}",
        calibrate::to_json(&rows)
    ));
    r.notes
        .push("CostModel calibration (charged / measured):".into());
    for row in &rows {
        r.notes.push(format!(
            "  {:<32} charged {:>10.0} ns  measured {:>10.0} ns  ratio {:>7.2}{}",
            row.kernel,
            row.charged_ns,
            row.measured_ns,
            row.ratio,
            if row.flagged { "  (off by > 2x)" } else { "" }
        ));
    }
}

fn write_trace(args: &RunArgs, spans: &[Span], r: &mut Report) {
    if let Some(path) = &args.trace_out {
        match std::fs::write(path, trace::chrome_trace_json(spans)) {
            Ok(()) => r.notes.push(format!(
                "chrome trace: {} spans -> {}",
                spans.len(),
                path.display()
            )),
            Err(e) => r.gate.push(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// Gateway and directory metrics read from `UdpArenaReport`.
fn arena_metrics(r: &mut Report, o: &UdpOutcome) {
    let rep = &o.report;
    let frames: u64 = rep.lanes.iter().map(|l| l.frames).sum();
    r.push("arena.frames_per_s", frames as f64 / o.server_secs, frames);
    r.push("arena.connects_routed", rep.admission.routed as f64, 0);
    r.push("arena.rejected_full", rep.admission.rejected_full as f64, 0);
    r.push(
        "arena.churn_ack_p50_us",
        median(&o.churn_ack_us).unwrap_or(0.0),
        o.churn_ack_us.len() as u64,
    );
    let (recv_batched, send_batched): (u64, u64) = rep.shards.iter().fold((0, 0), |(a, b), s| {
        (a + s.batched_recvs, b + s.batched_sends)
    });
    // One pump wake-up is one blocking read plus the recvmmsg drain
    // behind it; sendmmsg calls are assumed full (an upper bound).
    r.push(
        "harness.dgrams_per_recv_syscall",
        rep.datagrams_in as f64 / (rep.datagrams_in - recv_batched).max(1) as f64,
        rep.datagrams_in,
    );
    let send_calls = (rep.datagrams_out - send_batched) as f64
        + send_batched as f64 / parquake_harness::mmsg::BATCH as f64;
    r.push(
        "harness.dgrams_per_send_syscall",
        rep.datagrams_out as f64 / send_calls.max(1.0),
        rep.datagrams_out,
    );
    r.push(
        "harness.replies_unroutable",
        rep.replies_unroutable as f64,
        0,
    );
    // Lower bound on model spin: the fixed per-datagram, per-reply and
    // per-frame charges times the report's counters, over the server's
    // CPU (work_ns terms are not recoverable from the report).
    let cost = CostModel::default();
    let (processed, replies) = rep
        .lanes
        .iter()
        .fold((0u64, 0u64), |(p, q), l| (p + l.processed, q + l.replies));
    let spin_ns = processed * (cost.recv + cost.move_base)
        + replies * cost.reply_base
        + frames * (cost.world_base + cost.select_op);
    // Counters cover the whole gateway lifetime; scale the window's
    // server CPU up to it.
    let window_cpu_s = o.gen.server_cpu_ns.iter().sum::<u64>() as f64 / 1e9;
    let server_cpu_s = window_cpu_s * o.server_secs / o.gen.window.window_secs();
    r.push(
        "harness.model_spin_share",
        spin_ns as f64 / 1e9 / server_cpu_s.max(f64::MIN_POSITIVE),
        0,
    );
}

/// One per-layer run: traced where the benchmark can trace, then the
/// kernel pass on the world the run left behind.
pub fn per_layer_run(name: &str, args: &RunArgs) -> Report {
    let mut r = report_for(name);
    let timing = Timing {
        setups: 1,
        ..args.timing
    };
    match workloads::inproc_by_name(name) {
        Some(spec) if spec.kind == ServerKind::Sequential => {
            // Half the window on the program's driver (untraced: the
            // shares and the overhead baseline), half on the mirror.
            let half = Timing {
                window_s: timing.window_s / 2.0,
                ..timing
            };
            let untraced = RunOpts {
                trace: false,
                ..args.opts
            };
            let plain = inproc::run(&spec, args.seed, half, Driver::Program, untraced);
            let traced = inproc::run(&spec, args.seed, half, Driver::Mirror, args.opts);
            gate_inproc(&mut r, &plain);
            gate_inproc(&mut r, &traced);
            server_metrics(&mut r, &plain);
            generator_metrics(&mut r, &traced.gen);
            frame_span_metrics(&mut r, &traced);
            let base = plain.gen.tally.rtt_us(0.5).unwrap_or(f64::NAN);
            let with = traced.gen.tally.rtt_us(0.5).unwrap_or(f64::NAN);
            let overhead = (with - base) / base;
            r.push("trace.overhead_share", overhead, 0);
            r.notes.push(format!(
                "rtt_p50_us untraced {base:.1} traced {with:.1}{}",
                if overhead >= 0.05 {
                    "  WARNING: tracing overhead >= 0.05"
                } else {
                    ""
                }
            ));
            kernel_metrics(&mut r, &traced, args.seed);
            write_trace(args, &traced.gen.spans, &mut r);
        }
        Some(spec) => {
            // Parallel server: boundary spans only, with the program's
            // own breakdown (ServerResults) attached.
            let o = inproc::run(&spec, args.seed, timing, Driver::Program, args.opts);
            gate_inproc(&mut r, &o);
            server_metrics(&mut r, &o);
            generator_metrics(&mut r, &o.gen);
            kernel_metrics(&mut r, &o, args.seed);
            write_trace(args, &o.gen.spans, &mut r);
        }
        None => match udp::run(args.seed, timing, args.opts) {
            Ok(o) => {
                gate_udp(&mut r, &o);
                arena_metrics(&mut r, &o);
                generator_metrics(&mut r, &o.gen);
                // Kernel inputs come from an in-process stand-in for
                // one arena: the gateway keeps its worlds to itself.
                let standin = inproc::run(
                    &workloads::udp_arena_standin(),
                    args.seed,
                    Timing {
                        warm_s: 1.0,
                        window_s: 1.0,
                        setups: 1,
                    },
                    Driver::Program,
                    RunOpts::default(),
                );
                kernel_metrics(&mut r, &standin, args.seed);
                write_trace(args, &o.gen.spans, &mut r);
            }
            Err(e) => udp_unavailable(&mut r, &e),
        },
    }
    r.complete(PER_LAYER);
    r
}
