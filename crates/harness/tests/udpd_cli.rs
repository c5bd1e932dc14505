//! `udpd` and `repro` must turn every usage error into a message and
//! exit status 2 — never a panic, and never a run that silently
//! ignores a flag.

use std::process::Command;

fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    run_bin(env!("CARGO_BIN_EXE_udpd"), args)
}

fn client(args: &[&str]) -> (Option<i32>, String) {
    run_bin(env!("CARGO_BIN_EXE_udp_client"), args)
}

fn repro(args: &[&str]) -> (Option<i32>, String) {
    run_bin(env!("CARGO_BIN_EXE_repro"), args)
}

#[test]
fn value_flag_given_last_is_a_usage_error() {
    // Pre-fix: `args[i]` indexed out of bounds and panicked (exit 101).
    let (code, stderr) = run(&["--port"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--port needs a number"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn threads_with_pool_only_features_is_refused() {
    // Pre-fix: `--threads` next to `--arenas` was silently ignored.
    // Dedicated threads cannot supervise, grow or migrate arenas, so
    // the combination is refused before any socket is bound.
    for extra in [
        &["--crash-rate", "0.01"][..],
        &["--arenas", "1", "--max-arenas", "4"],
        &["--arenas", "2", "--migrate-spread", "4"],
        &["--migrate-drain"],
    ] {
        let mut args = vec!["--threads", "2", "--secs", "1"];
        args.extend_from_slice(extra);
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("threads > 1"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn more_threads_than_the_participant_mask_holds_is_a_usage_error() {
    // Pre-fix: nothing checked the count before `spawn_parallel`
    // asserted `1..=64`, so the process panicked (exit 101).
    let (code, stderr) = run(&["--threads", "65", "--secs", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("threads must be 1..=64"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn out_of_range_fault_probabilities_are_refused() {
    // Pre-fix: these started a server (`"nan".parse::<f32>()` is `Ok`,
    // and a NaN or negative rate silently turned the lottery off).
    for value in ["7", "-0.2", "nan"] {
        let (code, stderr) = run(&["--secs", "1", "--crash-rate", value]);
        assert_eq!(code, Some(2), "{value}: {stderr}");
        assert!(stderr.contains("invalid fault profile"), "{stderr}");
        assert!(stderr.contains("panic_per_frame"), "{value}: {stderr}");
    }
}

#[test]
fn faults_are_named_profiles_not_knobs() {
    let (code, stderr) = run(&["--secs", "1", "--fault", "nosuch"]);
    assert_eq!(code, Some(2), "{stderr}");
    for name in ["lossy", "wan"] {
        assert!(stderr.contains(name), "usage omits {name}: {stderr}");
    }
    let (code, stderr) = run(&["--secs", "1", "--loss", "0.1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --loss"), "{stderr}");
}

#[test]
fn the_gateway_and_the_client_have_one_socket_each() {
    // The gateway is one socket and the client one: neither takes a
    // width, so asking for one is an unknown option, refused before any
    // socket is bound.
    let (code, stderr) = run(&["--secs", "1", "--gateway-shards", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown option --gateway-shards"),
        "{stderr}"
    );
    let (code, stderr) = client(&["--secs", "1", "--sockets", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --sockets"), "{stderr}");
}

#[test]
fn repro_unknown_subcommand_is_a_usage_error() {
    let (code, stderr) = repro(&["fig99"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown subcommand fig99"), "{stderr}");
    // No subcommand at all lists every figure, `timeline` included
    // (it was dispatched and documented but missing from the usage
    // line while the names were kept in four places).
    let (code, stderr) = repro(&[]);
    assert_eq!(code, Some(2), "{stderr}");
    for name in ["table1", "fig7c", "interestsweep", "timeline", "all"] {
        assert!(stderr.contains(name), "usage omits {name}: {stderr}");
    }
}

#[test]
fn repro_value_flag_given_last_is_a_usage_error() {
    let (code, stderr) = repro(&["table1", "--duration"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--duration needs a number"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn repro_quick_is_a_preset_the_explicit_flags_override() {
    // Pre-fix: `--quick` replaced the whole option set, so a `--seed`,
    // `--duration` or `--players` given before it was silently lost.
    let stdout = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let flags = ["--seed", "5", "--duration", "0.3", "--players", "16"];
    let mut before = vec!["timeline"];
    before.extend_from_slice(&flags);
    before.push("--quick");
    let mut after = vec!["timeline", "--quick"];
    after.extend_from_slice(&flags);
    assert_eq!(stdout(&before), stdout(&after));
}
