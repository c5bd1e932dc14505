//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <figure>|all [options]
//!
//! options:
//!   --quick           short runs, fewer player counts
//!   --duration SECS   measured virtual seconds per configuration
//!   --players LIST    comma-separated player counts (e.g. 64,128,160)
//!   --seed N          map/workload seed
//! ```
//!
//! `repro` with no argument lists the figures ([`FIGURES`] is the one
//! table usage, dispatch and `all` read).

use parquake_harness::cli::Args;
use parquake_harness::figures::{
    arenasweep, batching, chaossweep, common::SweepOpts, crashsweep, delta, dynassign, elasticity,
    fig4, fig5, fig6, fig7, gatewaysweep, interestsweep, losssweep, migratesweep, onepass, table1,
    waitstats,
};

/// A subcommand: name, what it regenerates, how.
type Figure = (&'static str, &'static str, fn(&SweepOpts) -> String);

#[rustfmt::skip] // a table: one row per figure
const FIGURES: &[Figure] = &[
    ("table1", "system configuration table", |_| table1::run()),
    ("fig4", "sequential vs 1-thread parallel overhead", fig4::run),
    ("fig5", "parallel performance, baseline locking", fig5::run),
    ("fig6", "parallel performance, optimized locking", fig6::run),
    ("fig7a", "locking overhead: leaf vs parent", fig7::run_a),
    ("fig7b", "locking overhead: areanode tree size", fig7::run_b),
    ("fig7c", "locking overhead: inter-thread overlap", fig7::run_c),
    ("waitstats", "§4.2/§5.2 imbalance and wait decomposition", waitstats::run),
    ("batching", "request batching study (paper future work)", batching::run),
    ("onepass", "one-pass locking study (paper future work)", onepass::run),
    ("dynassign", "dynamic region-affine assignment (paper future work)", dynassign::run),
    ("delta", "QuakeWorld-style delta-compressed replies (extension)", delta::run),
    ("losssweep", "response rate vs injected datagram loss (extension)", losssweep::run),
    ("arenasweep", "multi-arena shared-pool multiplexing (extension)", arenasweep::run),
    ("elasticity", "elastic arena spawn/reap under a population ramp (extension)", elasticity::run),
    ("crashsweep", "response-rate retention vs injected crash rate (extension)", crashsweep::run),
    ("chaossweep", "client prediction under combined WAN fault profiles (extension)", chaossweep::run),
    ("migratesweep", "live migration recovering a skewed fleet (extension)", migratesweep::run),
    ("interestsweep", "batch DDM interest matching vs per-client scans (extension)", interestsweep::run),
    ("gatewaysweep", "sharded UDP gateway over loopback sockets (extension)", gatewaysweep::run),
    (TIMELINE, "per-frame CSV dump for one configuration", timeline),
];

/// The one subcommand that is a dump, not a figure: its stdout is the
/// bare CSV (no trailing blank line) and `all` leaves it out.
const TIMELINE: &str = "timeline";

/// Per-frame CSV for one configuration (8 threads, optimized, last
/// player count of the sweep); the summary goes to stderr.
fn timeline(opts: &SweepOpts) -> String {
    use parquake_harness::figures::common::run_config;
    use parquake_server::{LockPolicy, ServerKind};
    let players = *opts.players.last().unwrap_or(&128);
    let out = run_config(
        players,
        ServerKind::Parallel {
            threads: 8,
            locking: LockPolicy::Optimized,
        },
        opts,
    );
    eprintln!(
        "[repro] {} frames recorded, duration p50 {:.2} ms / p95 {:.2} ms",
        out.server.timeline.len(),
        out.server.timeline.duration_percentile(0.5) as f64 / 1e6,
        out.server.timeline.duration_percentile(0.95) as f64 / 1e6,
    );
    out.server.timeline.to_csv()
}

fn usage() -> ! {
    eprintln!("usage: repro <figure>|all [--quick] [--duration SECS] [--players LIST] [--seed N]");
    for (name, what, _) in FIGURES {
        eprintln!("  {name:<14} {what}");
    }
    eprintln!("  {:<14} every figure above except {TIMELINE}", "all");
    std::process::exit(2);
}

fn main() {
    let mut args = Args::from_env("repro");
    let Some(cmd) = args.next_flag() else {
        usage();
    };
    let picked: Vec<_> = FIGURES
        .iter()
        .filter(|(name, ..)| *name == cmd || (cmd == "all" && *name != TIMELINE))
        .collect();
    if picked.is_empty() {
        args.die(&format!("unknown subcommand {cmd}"));
    }

    let mut opts = SweepOpts::default();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" => opts = SweepOpts::quick(),
            "--duration" => opts.duration_secs = args.value("a number"),
            "--players" => {
                opts.players = args
                    .value::<String>("a list")
                    .split(',')
                    .map(|p| p.parse().unwrap_or_else(|_| args.die("bad player count")))
                    .collect();
            }
            "--seed" => opts.seed = args.value("a number"),
            other => args.die(&format!("unknown option {other}")),
        }
    }

    let t0 = std::time::Instant::now();
    for (name, _, run) in picked {
        let out = run(&opts);
        if *name == TIMELINE {
            print!("{out}");
        } else {
            println!("{out}");
        }
    }
    eprintln!("[repro] completed in {:.1}s", t0.elapsed().as_secs_f64());
}
