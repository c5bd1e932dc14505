//! `--smoke` runs of the real binaries: 1 s warm-up / 2 s window, same
//! code paths and the same correctness gate as a full run, no bounds
//! asserted. One test, so the runs never compete for the two cores.

use std::process::Command;

use parquake_wallbench::spec::{DENSE, END_TO_END, LOCKS, PER_LAYER, SPARSE, UDP};

struct Outcome {
    code: Option<i32>,
    stdout: String,
}

fn bench(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs");
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// The last stdout line must be the result object with every declared
/// metric of the pass.
fn assert_result(o: &Outcome, declared: &[parquake_wallbench::spec::MetricDef]) {
    assert_eq!(o.code, Some(0), "{}", o.stdout);
    let last = o.stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for d in declared {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", d.name)),
            "{}",
            d.name
        );
    }
}

#[test]
fn smoke_runs_pass_the_gate_and_a_corrupted_reply_trips_it() {
    for name in [DENSE, SPARSE, LOCKS] {
        let o = bench(&["--workload", name, "--seed", "3", "--trace", "0", "--smoke"]);
        assert_result(&o, END_TO_END);
    }

    let o = bench(&["--workload", UDP, "--seed", "3", "--trace", "0", "--smoke"]);
    if o.stdout.contains("loopback gateway unavailable") {
        eprintln!("skipping {UDP}: loopback bind is not permitted here");
    } else {
        assert_result(&o, END_TO_END);
    }

    // The per-layer pass: mirror driver, kernel table, calibration.
    let o = bench(&[
        "--workload",
        SPARSE,
        "--seed",
        "3",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert_result(&o, PER_LAYER);
    assert!(
        o.stdout.contains("\"model_vs_measured\": [{"),
        "{}",
        o.stdout
    );

    // A benchmark that is fast because it dropped or mangled work must
    // fail, not win: one truncated reply trips the gate.
    let o = bench(&[
        "--workload",
        DENSE,
        "--seed",
        "3",
        "--trace",
        "0",
        "--smoke",
        "--corrupt-reply",
    ]);
    assert_eq!(o.code, Some(1), "{}", o.stdout);
    assert!(o
        .stdout
        .contains("GATE FAILED: undecodable server datagram"));
    assert!(!o.stdout.lines().last().unwrap_or_default().starts_with('{'));
}
