//! The `bench` command line.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! bench run [--seed N] [--seconds S] [--smoke] [--trace] [--out FILE]
//!                                                           every workload, one JSON row
//! bench manifest                                            print BENCHMARK.json
//! ```
//!
//! One run prints every metric by name with its unit and sample count
//! and, as the last line of stdout, the result object. With `--trace 0`
//! the metrics are the end-to-end set, measured untraced on the
//! program's own drivers; with `--trace 1` they are the per-layer set
//! (traced run, `ServerResults` shares, kernel pass). A run whose
//! correctness gate trips prints why, prints no result, and exits 1.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::alloc_count;
use crate::inproc::{RunOpts, Timing};
use crate::measure::{end_to_end_run, per_layer_run, RunArgs};
use crate::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Warm-up before the measured window (connects done, positions mix,
/// caches fill). The issue's 3 s, shortened with the window to fit the
/// driver's time budget.
const WARM_S: f64 = 2.0;
/// Set-ups per end-to-end run; `setup_s` is their quiet level.
const SETUPS: u32 = 9;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    corrupt_reply: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        corrupt_reply: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => a.out = Some(value("a path")?.into()),
            "--trace-out" => a.trace_out = Some(value("a path")?.into()),
            "--smoke" => a.smoke = true,
            "--corrupt-reply" => a.corrupt_reply = true,
            // The driver's form is `--trace 0|1`; `bench run --trace`
            // takes no value.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

impl Args {
    fn timing(&self) -> Timing {
        if self.smoke {
            Timing {
                warm_s: 1.0,
                window_s: 2.0,
                setups: 1,
            }
        } else {
            Timing {
                warm_s: WARM_S,
                window_s: self.seconds,
                setups: SETUPS,
            }
        }
    }

    fn run_args(&self) -> RunArgs {
        RunArgs {
            seed: self.seed,
            timing: self.timing(),
            opts: RunOpts {
                trace: self.trace,
                corrupt_reply: self.corrupt_reply,
            },
            trace_out: self.trace_out.clone(),
        }
    }
}

/// Entry point shared by the `bench` and `bench-traced` binaries.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("manifest") => ("manifest", &argv[1..]),
        _ => ("one", &argv[..]),
    };
    if sub == "manifest" {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if sub == "run" {
        return run_all(&args);
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("bench: --workload NAME is required (or use `bench run`)");
        return ExitCode::from(2);
    };
    if !WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!("bench: unknown workload {name}");
        return ExitCode::from(2);
    }
    // Per-layer runs count allocations, which needs the counting
    // allocator: hand over to the sibling binary that installs it.
    if args.trace && !alloc_count::installed() {
        return match Command::new(sibling("bench-traced")).args(&argv).status() {
            Ok(s) => ExitCode::from(s.code().unwrap_or(1) as u8),
            Err(e) => {
                eprintln!("bench: cannot run bench-traced: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (report, declared) = if args.trace {
        (per_layer_run(&name, &args.run_args()), PER_LAYER)
    } else {
        (end_to_end_run(&name, &args.run_args()), END_TO_END)
    };
    report.print(declared);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn sibling(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.with_file_name(name)
}

// ---- bench run ---------------------------------------------------------

fn env_json() -> String {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"transport\": \"in-process fabric ports and loopback UDP; never a real link\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        kernel,
        cmd("rustc", &["-V"]),
        cmd("git", &["rev-parse", "HEAD"])
    )
}

/// Run one child and pass its output through. Returns its result and
/// detail JSON when it exited 0.
fn child(exe: &str, name: &str, args: &Args, trace: bool) -> Option<(String, String)> {
    let mut cmd = Command::new(sibling(exe));
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, true, Some(out)) = (trace, args.trace, &args.out) {
        cmd.arg("--trace-out")
            .arg(out.with_extension(format!("{name}.trace.json")));
    }
    let output = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return None;
    }
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("DETAIL "))?
        .to_string();
    Some((stdout.lines().last()?.to_string(), detail))
}

/// `bench run`: every workload (or the one named), each run a fresh
/// child process, end-to-end then per-layer; one JSON row to `--out`.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        if args.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let e2e = child("bench", w.name, args, false);
        let layers = child("bench-traced", w.name, args, true);
        ok &= e2e.is_some() && layers.is_some();
        let (e2e, e2e_detail) = e2e.unwrap_or(("null".into(), "null".into()));
        let (layers, layers_detail) = layers.unwrap_or(("null".into(), "null".into()));
        rows.push(format!(
            "    \"{}\": {{\n      \"end_to_end\": {e2e},\n      \"end_to_end_detail\": {e2e_detail},\n      \
             \"per_layer\": {layers},\n      \"per_layer_detail\": {layers_detail}\n    }}",
            w.name
        ));
    }
    let row = format!(
        "{{\n  \"bench\": \"parquake-wallbench\",\n  \"env\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"smoke\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        env_json(),
        args.seed,
        args.timing().window_s,
        args.smoke,
        rows.join(",\n")
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &row) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: at least one workload failed its correctness gate");
        ExitCode::FAILURE
    }
}
