//! The benchmark's declared surface: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! is `bench manifest` printed from these tables; a test keeps the two
//! in step.

/// A named workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// A declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen (per-layer metrics carry none).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

pub const DENSE: &str = "dense_burst_384p";
pub const SPARSE: &str = "sparse_stagger_160p";
pub const LOCKS: &str = "locks_2t_256p";
pub const UDP: &str = "udp_arena_64p";

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: DENSE,
        why: "one 384-move frame per tick on the sequential server: per-move and per-reply work dominates, per-frame fixed cost is amortised away",
    },
    WorkloadDef {
        name: SPARSE,
        why: "160 players in 20 staggered groups on a big delta-compressed world: ~8-move frames, so per-frame fixed cost (world phase, index re-sort, wake-up) dominates",
    },
    WorkloadDef {
        name: LOCKS,
        why: "two parallel threads sharing every frame on a crowded small map: the only workload that runs region locking, the intra-frame barrier and inter-frame waits",
    },
    WorkloadDef {
        name: UDP,
        why: "udpd --arenas 2 --workers 2 as shipped over loopback UDP with 8 churning clients: the only workload crossing sockets, gateway pumps, books, director and the spinning cost model",
    },
];

/// How long the driver measures per run (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u32 = 25;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the server sees. `answered_share` is the never-zero
/// form of the issue's `failed_share`: the share of moves answered
/// within the latency limit; a relative bound on a value near 1 is an
/// absolute bound on the share. Timing and cost metrics are read at the
/// quiet level across slices (`estimator::QUIET_QUANTILE`). Bounds are
/// the issue's, widened to the contract's 25 % where this 2-core shared
/// box moves the same binary by more than a third of them between its
/// quiet and its noisy phases (README, "Noise rules").
pub const END_TO_END: &[MetricDef] = &[
    e2e("rtt_p50_us", "us", "lower", 0.25),
    e2e("rtt_p99_us", "us", "lower", 0.25),
    e2e("moves_per_s", "1/s", "higher", 0.02),
    e2e("answered_share", "ratio", "higher", 0.01),
    e2e("cpu_s_per_mmoves", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.25),
];

/// Single-layer metrics, named `<crate>.<metric>`. A metric that does
/// not apply to a workload (e.g. `arena.*` on an in-process workload)
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bsp.trace_player_ns", "ns", "lower"),
    layer("bsp.trace_point_long_ns", "ns", "lower"),
    layer("areanode.lock_plan_ns", "ns", "lower"),
    layer("areanode.gather_ns", "ns", "lower"),
    layer("areanode.relink_ns", "ns", "lower"),
    layer("sim.run_move_ns", "ns", "lower"),
    layer("sim.world_phase_ns", "ns", "lower"),
    layer("sim.visibility_scan_ns", "ns", "lower"),
    layer("sim.snapshot_encode_ns", "ns", "lower"),
    layer("sim.snapshot_restore_ns", "ns", "lower"),
    layer("interest.index_build_ns", "ns", "lower"),
    layer("interest.match_ns_per_viewer", "ns", "lower"),
    layer("interest.pairs_pruned_share", "ratio", "higher"),
    layer("interest.index_builds_per_move", "ratio", "lower"),
    layer("protocol.decode_move_ns", "ns", "lower"),
    layer("protocol.encode_move_ns", "ns", "lower"),
    layer("protocol.encode_reply_ns", "ns", "lower"),
    layer("protocol.decode_reply_ns", "ns", "lower"),
    layer("protocol.reply_bytes_p50", "bytes", "lower"),
    layer("protocol.reply_allocs", "count", "lower"),
    layer("fabric.port_handoff_ns", "ns", "lower"),
    layer("fabric.lock_pair_ns", "ns", "lower"),
    layer("fabric.cond_handoff_ns", "ns", "lower"),
    layer("server.build_reply_ns", "ns", "lower"),
    layer("server.execute_move_ns", "ns", "lower"),
    layer("server.exec_share", "ratio", "lower"),
    layer("server.lock_share", "ratio", "lower"),
    layer("server.receive_share", "ratio", "lower"),
    layer("server.reply_share", "ratio", "lower"),
    layer("server.world_share", "ratio", "lower"),
    layer("server.intrawait_share", "ratio", "lower"),
    layer("server.interwait_share", "ratio", "lower"),
    layer("server.idle_share", "ratio", "higher"),
    layer("server.frames_per_s", "1/s", "lower"),
    layer("server.moves_per_frame", "count", "higher"),
    layer("server.lock_wait_ns_per_move", "ns", "lower"),
    layer("server.queue_dropped", "count", "lower"),
    layer("arena.frames_per_s", "1/s", "lower"),
    layer("arena.connects_routed", "count", "higher"),
    layer("arena.rejected_full", "count", "lower"),
    layer("arena.churn_ack_p50_us", "us", "lower"),
    layer("harness.dgrams_per_recv_syscall", "ratio", "higher"),
    layer("harness.dgrams_per_send_syscall", "ratio", "higher"),
    layer("harness.mmsg_send_ns_per_dgram", "ns", "lower"),
    layer("harness.mmsg_recv_ns_per_dgram", "ns", "lower"),
    layer("harness.classify_outbound_ns", "ns", "lower"),
    layer("harness.replies_unroutable", "count", "lower"),
    layer("harness.model_spin_share", "ratio", "lower"),
    layer("bots.think_ns", "ns", "lower"),
    layer("bots.predict_ns", "ns", "lower"),
    layer("bots.reconcile_ns", "ns", "lower"),
    layer("loadgen.late_p99_us", "us", "lower"),
    layer("loadgen.cpu_share", "ratio", "lower"),
    layer("trace.select_wait_us_p50", "us", "higher"),
    layer("trace.select_wait_us_p99", "us", "higher"),
    layer("trace.world_update_us_p50", "us", "lower"),
    layer("trace.world_update_us_p99", "us", "lower"),
    layer("trace.drain_requests_us_p50", "us", "lower"),
    layer("trace.drain_requests_us_p99", "us", "lower"),
    layer("trace.interest_index_us_p50", "us", "lower"),
    layer("trace.interest_index_us_p99", "us", "lower"),
    layer("trace.interest_match_us_p50", "us", "lower"),
    layer("trace.interest_match_us_p99", "us", "lower"),
    layer("trace.reply_us_p50", "us", "lower"),
    layer("trace.reply_us_p99", "us", "lower"),
    layer("trace.loadgen_think_encode_us", "us", "lower"),
    layer("trace.loadgen_recv_decode_us", "us", "lower"),
    layer("trace.span_coverage", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map(|b| format!(", \"bound\": {b}"))
            .unwrap_or_default();
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        )
    };
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"wallbench/run.sh\"],\n  \"paths\": [\"wallbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn bounds_and_setup_metric_meet_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }
}
