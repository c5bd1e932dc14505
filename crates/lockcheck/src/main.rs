//! parquake-lockcheck — the multi-pass workspace verifier.
//!
//! Enforces the static half of the region-locking verification layer
//! (the dynamic half is the runtime witness in `parquake-fabric`).
//! Nine passes run over every production source file in the workspace:
//!
//! * **raw-sync** — no raw `std::sync::Mutex`/`parking_lot` lock
//!   acquisition outside `crates/fabric`. Game-state synchronization
//!   must go through the fabric so it is simulated, witnessed, and
//!   deterministic. Host-side bookkeeping (result collection, stat
//!   sinks) may opt out per line with a *reasoned* waiver pragma (see
//!   waiver-audit below).
//! * **ordered-acquire** — inside `crates/server`, the fabric lock API
//!   (`ctx.lock`/`ctx.unlock`) may only be called from functions marked
//!   `// lockcheck: acquire-site` (the `RegionLocks` methods and
//!   `Ctrl::enter`/`exit`). Everything else must use those methods, so
//!   every protocol acquisition funnels through witnessed, ordered
//!   sites.
//! * **guard-across-wait** — no raw mutex guard may be live across a
//!   fabric barrier/phase-transition call (`cond_wait`,
//!   `cond_wait_until`, `sleep_until`, `wait_readable`).
//! * **sim-lock-free** — `crates/sim` (the world-phase code, which the
//!   frame protocol runs under master exclusivity) takes no object
//!   locks at all: no fabric lock calls, no raw mutexes.
//! * **unwind-safety** — no raw mutex guard and no fabric lock may be
//!   live at a `catch_unwind` boundary (a panic caught with a lock
//!   still held wedges every task that needs it — since the arena
//!   supervisor fences and restores crashed arenas, a wedged fabric
//!   lock silently stalls the whole pool the supervisor is meant to
//!   save). In frame-path code (`crates/sim`, the server frame
//!   modules, the arena claim/supervisor path) `unwrap()`/`expect()`/
//!   `panic!` are only legal at lines annotated
//!   `lockcheck: panic-site(<why this cannot fire / is safe to>)`.
//! * **waiver-audit** — every raw-sync waiver must carry a reason
//!   (`lockcheck: allow(raw-sync: <why>)`), must actually suppress
//!   something, and the per-crate totals must match the committed
//!   `lockcheck.budget` file exactly, so the waiver list can neither
//!   grow nor rot silently.
//! * **wire-tag-registry** — every wire-tag constant (`const *TAG*:
//!   u8`) in `protocol`/`server`/`arena` must be declared exactly once,
//!   in the central registry `crates/protocol/src/tags.rs`, with no
//!   value collisions — a duplicated tag byte silently aliases two
//!   message kinds.
//! * **identity-closure** — every stats struct annotated
//!   `lockcheck: identity(<equation>)` must expose a `*_closed()`
//!   method proving the equation and be exercised from at least one
//!   test.
//! * **surface** — the committed `surface.budget` counts what a user or
//!   a caller can set: CLI flags per binary, `pub` fields per budgeted
//!   `*Config`/`*Opts` struct, variants per mode enum, workspace
//!   packages and examples. A count that drifts in EITHER direction
//!   fails, so a new flag, field, mode or package is paid for in the
//!   budget's diff and a removed one is ratcheted down. A budgeted
//!   field that nothing outside its defining file sets has no consumer:
//!   it is deleted, or waived in the budget with a reason.
//!
//! The scanner is a hand-rolled token-level pass: it strips comments,
//! strings and char literals (so quoted or commented `ctx.lock(` never
//! trips a rule), honours `#[cfg(test)]` tails (test modules at the end
//! of a source file are exempt — the discipline governs production
//! code; integration tests under `tests/` are only read as the test
//! corpus for identity-closure), and tracks brace depth to delimit
//! `acquire-site` functions. A `syn`-based AST pass was considered and
//! rejected to keep the checker dependency-free and offline-buildable.
//!
//! Usage: `cargo run -p parquake-lockcheck` from the workspace root
//! (CI does exactly this); `--root <dir>` to point elsewhere;
//! `--format=json|github|text` to select output (GitHub error
//! annotations for CI, JSON for tooling); `--self-test` to run the
//! embedded violation fixtures for every rule.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, PartialEq, Eq)]
struct Violation {
    file: String,
    /// 1-based.
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

const RULE_RAW_SYNC: &str = "raw-sync";
const RULE_ORDERED: &str = "ordered-acquire";
const RULE_GUARD: &str = "guard-across-wait";
const RULE_SIM: &str = "sim-lock-free";
const RULE_UNWIND: &str = "unwind-safety";
const RULE_WAIVER: &str = "waiver-audit";
const RULE_TAGS: &str = "wire-tag-registry";
const RULE_IDENTITY: &str = "identity-closure";
const RULE_SURFACE: &str = "surface";

/// Every pass, for reports.
const PASSES: [&str; 9] = [
    RULE_RAW_SYNC,
    RULE_ORDERED,
    RULE_GUARD,
    RULE_SIM,
    RULE_UNWIND,
    RULE_WAIVER,
    RULE_TAGS,
    RULE_IDENTITY,
    RULE_SURFACE,
];

/// The one module allowed to declare wire-tag constants.
const REGISTRY_PATH: &str = "crates/protocol/src/tags.rs";
/// Committed per-crate waiver budget, workspace-relative.
const BUDGET_PATH: &str = "lockcheck.budget";
/// Committed surface budget, workspace-relative.
const SURFACE_PATH: &str = "surface.budget";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let root = match args.iter().position(|a| a == "--root") {
        Some(i) => PathBuf::from(args.get(i + 1).map(String::as_str).unwrap_or(".")),
        None => PathBuf::from("."),
    };
    let mut format = Format::Text;
    for a in &args {
        match a.as_str() {
            "--format=json" => format = Format::Json,
            "--format=github" => format = Format::Github,
            "--format=text" => format = Format::Text,
            _ => {}
        }
    }
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "lockcheck: no Cargo.toml under {} (run from the workspace root)",
            root.display()
        );
        return ExitCode::FAILURE;
    }

    let mut src_paths = Vec::new();
    collect_rs(&root.join("src"), &mut src_paths);
    let mut test_paths = Vec::new();
    collect_rs(&root.join("tests"), &mut test_paths);
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            collect_rs(&e.path().join("src"), &mut src_paths);
            collect_rs(&e.path().join("tests"), &mut test_paths);
        }
    }
    let mut examples = Vec::new();
    collect_rs(&root.join("examples"), &mut examples);
    // Every dependency is a path dependency, so the lock file's
    // packages are exactly the workspace's: root, `crates/*`, `vendor/*`.
    let lock = fs::read_to_string(root.join("Cargo.lock")).unwrap_or_default();
    let members = lock.matches("[[package]]").count();
    src_paths.sort();
    test_paths.sort();

    let read_all = |paths: &[PathBuf]| -> Result<Vec<(String, String)>, ExitCode> {
        let mut out = Vec::new();
        for f in paths {
            let text = match fs::read_to_string(f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("lockcheck: cannot read {}: {e}", f.display());
                    return Err(ExitCode::FAILURE);
                }
            };
            let rel = f
                .strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, text));
        }
        Ok(out)
    };
    let files = match read_all(&src_paths) {
        Ok(f) => f,
        Err(c) => return c,
    };
    let test_files = match read_all(&test_paths) {
        Ok(f) => f,
        Err(c) => return c,
    };
    let budget = fs::read_to_string(root.join(BUDGET_PATH)).ok();
    let mut violations = check_workspace(&files, &test_files, budget.as_deref());
    let budget = fs::read_to_string(root.join(SURFACE_PATH)).ok();
    let counts = [("members", members), ("examples", examples.len())];
    violations.extend(check_surface(&files, &counts, budget.as_deref()));
    let scanned = files.len();

    match format {
        Format::Text => {
            for v in &violations {
                eprintln!("{v}");
            }
        }
        Format::Github => {
            // GitHub Actions workflow commands: each line becomes an
            // inline error annotation on the PR diff.
            for v in &violations {
                println!(
                    "::error file={},line={},title=lockcheck [{}]::{}",
                    v.file,
                    v.line.max(1),
                    v.rule,
                    v.msg.replace('\n', " ")
                );
            }
        }
        Format::Json => {
            println!("{}", json_report(&violations, scanned));
        }
    }
    if violations.is_empty() {
        if format != Format::Json {
            println!(
                "lockcheck: {scanned} files clean across {} passes ({})",
                PASSES.len(),
                PASSES.join(", ")
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lockcheck: {} violation(s) in {scanned} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Serialize the run as a stable JSON document (hand-rolled — the
/// checker stays dependency-free).
fn json_report(violations: &[Violation], scanned: usize) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut s = String::from("{");
    s.push_str(&format!("\"files_scanned\":{scanned},\"passes\":["));
    for (i, p) in PASSES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{p}\""));
    }
    s.push_str("],\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            esc(&v.file),
            v.line,
            v.rule,
            esc(&v.msg)
        ));
    }
    s.push_str("]}");
    s
}

/// Recursively gather `.rs` files under `dir`. Callers only pass `src/`
/// and `tests/` roots, so `vendor/`, `target/` and `benches/` are never
/// visited.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…` →
/// `<name>`; the root package maps to `root`).
fn crate_of(path: &str) -> &str {
    let Some(rest) = path.strip_prefix("crates/") else {
        return "root";
    };
    rest.split('/').next().unwrap_or("root")
}

/// Is this file part of the frame path, where a stray panic unwinds
/// into a `catch_unwind` fate boundary and must therefore be declared?
/// `crates/sim` entirely (world-phase code), the server frame modules,
/// and the arena claim/supervisor path.
fn frame_path(path: &str) -> bool {
    let krate = crate_of(path);
    let file = path.rsplit('/').next().unwrap_or(path);
    match krate {
        "sim" => true,
        "server" => matches!(file, "exec.rs" | "par.rs" | "seq.rs" | "runtime.rs"),
        "arena" => matches!(file, "directory.rs" | "pool.rs" | "supervisor.rs"),
        _ => false,
    }
}

/// Replace comments, string literals and char literals with spaces,
/// preserving line structure so diagnostics keep their line numbers.
fn strip_source(text: &str) -> String {
    let b: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('"') || next == Some('#')) && !prev_is_ident(&b, i) {
            // Raw string r"…" / r#"…"#.
            let mut j = i + 1;
            let mut hashes = 0usize;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                while i < b.len() {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    // The escaped character may be a newline (a
                    // `\`-continued literal): keep it, or every line
                    // below reports one too low.
                    out.push(' ');
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal vs lifetime: '\n' / 'x' are literals; 'a and
            // 'static (no nearby closing quote) are lifetimes.
            if next == Some('\\') {
                out.push_str("  ");
                i += 2;
                // The escaped character is consumed unconditionally —
                // in '\'' it IS a quote and must not close the scan.
                if i < b.len() {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                while i < b.len() && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                out.push(' ');
                i += 1;
            } else if b.get(i + 2) == Some(&'\'') && next != Some('\n') {
                out.push_str("   ");
                i += 3;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// A raw-mutex guard binding live in some scope.
struct Guard {
    name: String,
    depth: i32,
}

/// One raw-sync waiver pragma found in production code.
struct Waiver {
    /// 1-based line the pragma sits on.
    line: usize,
    /// The `: <why>` payload, if present and non-empty.
    reason: Option<String>,
    /// Did the pragma actually suppress a finding?
    used: bool,
}

/// One wire-tag constant declaration.
struct TagDecl {
    name: String,
    /// Parsed byte value; `None` when the initializer is not a literal.
    value: Option<u32>,
    line: usize,
}

/// One `lockcheck: identity(<equation>)` annotation, resolved as far as
/// single-file scanning can take it.
struct IdentitySite {
    line: usize,
    equation: String,
    struct_name: Option<String>,
    closed_method: Option<String>,
}

/// Everything a single file contributes to the workspace-level passes.
#[derive(Default)]
struct FileFacts {
    waivers: Vec<Waiver>,
    tags: Vec<TagDecl>,
    identities: Vec<IdentitySite>,
    /// Stripped `#[cfg(test)]` tail, fed to the test corpus for
    /// identity-closure.
    test_tail: String,
}

/// Does `line` carry the pragma `lockcheck: allow(<what>)` — with or
/// without a `: reason` payload?
fn has_allow(line: &str, what: &str) -> bool {
    let open = format!("lockcheck: allow({what}");
    line.find(&open).is_some_and(|p| {
        let rest = &line[p + open.len()..];
        rest.starts_with(')') || rest.starts_with(':')
    })
}

/// Does `line` (or its predecessor) carry a reasoned
/// `lockcheck: panic-site(<why>)` annotation?
fn has_panic_site(line: &str) -> bool {
    let open = "lockcheck: panic-site(";
    line.find(open).is_some_and(|p| {
        let rest = &line[p + open.len()..];
        rest.find(')')
            .is_some_and(|close| !rest[..close].trim().is_empty())
    })
}

/// Parse a wire-tag constant declaration off a stripped line:
/// `[pub] const <NAME>: u8 = <literal>;` where NAME contains `TAG`.
fn tag_decl(line: &str) -> Option<(String, Option<u32>)> {
    let t = line.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let rest = t.strip_prefix("const ")?;
    let (name, after) = rest.split_once(':')?;
    let name = name.trim();
    if !name.contains("TAG") || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let (ty, init) = after.split_once('=')?;
    if ty.trim() != "u8" {
        return None;
    }
    let lit = init.trim().trim_end_matches(';').trim();
    let value = if let Some(hex) = lit.strip_prefix("0x") {
        u32::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        lit.replace('_', "").parse().ok()
    };
    Some((name.to_string(), value))
}

/// First identifier following `needle` on `line`.
fn ident_after<'a>(line: &'a str, needle: &str) -> Option<&'a str> {
    let p = line.find(needle)? + needle.len();
    let rest = &line[p..];
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Run every per-file rule over one file and collect its facts for the
/// workspace passes. `path` is workspace-relative with forward slashes.
fn check_source(path: &str, text: &str) -> (Vec<Violation>, FileFacts) {
    let krate = crate_of(path);
    let raw_lines: Vec<&str> = text.lines().collect();
    let stripped = strip_source(text);
    let lines: Vec<&str> = stripped.lines().collect();

    // Production-code cutoff: everything from a `#[cfg(test)]` item to
    // EOF is the file's test-module tail and is exempt.
    let cutoff = lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());

    let allow_on = |idx: usize, what: &str| -> bool {
        raw_lines.get(idx).is_some_and(|l| has_allow(l, what))
            || (idx > 0 && has_allow(raw_lines[idx - 1], what))
    };
    let panic_site_on = |idx: usize| -> bool {
        raw_lines.get(idx).is_some_and(|l| has_panic_site(l))
            || (idx > 0 && has_panic_site(raw_lines[idx - 1]))
    };

    let mut facts = FileFacts {
        test_tail: lines[cutoff.min(lines.len())..].join("\n"),
        ..FileFacts::default()
    };

    // The lint's own sources quote every pragma verbatim (rule docs,
    // self-test fixtures), so raw-line pragma collection over this
    // crate would audit its own documentation. Skip it — the crate has
    // no locks to waive and no stats identities.
    let audit_pragmas = krate != "lockcheck";
    if audit_pragmas {
        for (idx, l) in raw_lines.iter().enumerate().take(cutoff) {
            if let Some(p) = l.find("lockcheck: allow(raw-sync") {
                let rest = &l[p + "lockcheck: allow(raw-sync".len()..];
                let reason = rest
                    .strip_prefix(':')
                    .and_then(|r| r.split(')').next())
                    .map(str::trim)
                    .filter(|r| !r.is_empty())
                    .map(str::to_string);
                facts.waivers.push(Waiver {
                    line: idx + 1,
                    reason,
                    used: false,
                });
            }
        }
    }

    let mut out = Vec::new();
    let mut depth: i32 = 0;
    let mut site_armed = false;
    let mut in_site = false;
    let mut site_depth: i32 = 0;
    let mut site_opened = false;
    let mut guards: Vec<Guard> = Vec::new();
    // Source-order balance of fabric lock acquisitions within the
    // current function, for the unwind-safety pass.
    let mut fabric_balance: i32 = 0;

    for (idx, &line) in lines.iter().enumerate().take(cutoff) {
        if raw_lines[idx].contains("lockcheck: acquire-site") {
            site_armed = true;
        }
        if line.contains("fn ") {
            fabric_balance = 0;
            if site_armed && !in_site {
                in_site = true;
                site_armed = false;
                site_depth = depth;
                site_opened = false;
            }
        }

        // Marks the waiver that suppressed a finding on line `idx`.
        let mark_waiver_used = |facts: &mut FileFacts| {
            for cand in [idx + 1, idx] {
                if let Some(w) = facts.waivers.iter_mut().find(|w| w.line == cand) {
                    w.used = true;
                    return;
                }
            }
        };

        // ---- raw-sync ------------------------------------------------
        if krate != "fabric" {
            if line.contains("parking_lot") {
                if allow_on(idx, "raw-sync") {
                    mark_waiver_used(&mut facts);
                } else {
                    out.push(Violation {
                        file: path.into(),
                        line: idx + 1,
                        rule: RULE_RAW_SYNC,
                        msg: "parking_lot is reserved for crates/fabric".into(),
                    });
                }
            }
            if line.contains(".lock()") {
                if allow_on(idx, "raw-sync") {
                    mark_waiver_used(&mut facts);
                } else {
                    out.push(Violation {
                        file: path.into(),
                        line: idx + 1,
                        rule: RULE_RAW_SYNC,
                        msg: "raw mutex acquisition outside crates/fabric (use the \
                              fabric lock API, or annotate host-side bookkeeping \
                              with a reasoned raw-sync waiver)"
                            .into(),
                    });
                }
            }
        }

        // ---- ordered-acquire ----------------------------------------
        if (krate == "server" || krate == "arena")
            && (line.contains("ctx.lock(") || line.contains("ctx.unlock("))
            && !in_site
        {
            out.push(Violation {
                file: path.into(),
                line: idx + 1,
                rule: RULE_ORDERED,
                msg: "fabric lock call outside an `// lockcheck: acquire-site` \
                      function (go through RegionLocks / Ctrl::enter/exit, or \
                      the arena Pool::enter/exit)"
                    .into(),
            });
        }

        // ---- sim-lock-free ------------------------------------------
        if krate == "sim"
            && ["ctx.lock(", "ctx.unlock(", ".lock()", "Mutex", "RwLock"]
                .iter()
                .any(|p| line.contains(p))
        {
            out.push(Violation {
                file: path.into(),
                line: idx + 1,
                rule: RULE_SIM,
                msg: "world-phase code must take no object locks (phase \
                      exclusivity belongs to the frame protocol)"
                    .into(),
            });
        }

        // ---- guard-across-wait --------------------------------------
        if krate != "fabric" {
            let barrier = [
                "ctx.cond_wait(",
                "ctx.cond_wait_until(",
                "ctx.sleep_until(",
                "ctx.wait_readable(",
            ]
            .iter()
            .find(|p| line.contains(*p));
            if let Some(b) = barrier {
                if let Some(g) = guards.first() {
                    if !allow_on(idx, "guard-across-wait") {
                        out.push(Violation {
                            file: path.into(),
                            line: idx + 1,
                            rule: RULE_GUARD,
                            msg: format!(
                                "`{}` called while raw guard `{}` is live",
                                b.trim_end_matches('('),
                                g.name
                            ),
                        });
                    }
                }
            }
        }

        // ---- unwind-safety ------------------------------------------
        // The fabric owns the task-boundary catch_unwind (and reports
        // leaked locks to the witness at runtime); everywhere else a
        // fate boundary must be entered lock-free.
        if krate != "fabric" && line.contains("catch_unwind") && !allow_on(idx, "unwind-safety") {
            if let Some(g) = guards.first() {
                out.push(Violation {
                    file: path.into(),
                    line: idx + 1,
                    rule: RULE_UNWIND,
                    msg: format!(
                        "raw guard `{}` is live at a catch_unwind boundary (a \
                         caught panic would leave it poisoned/held)",
                        g.name
                    ),
                });
            }
            if fabric_balance > 0 {
                out.push(Violation {
                    file: path.into(),
                    line: idx + 1,
                    rule: RULE_UNWIND,
                    msg: "fabric lock held at a catch_unwind boundary (a caught \
                          panic would wedge every task queued on it)"
                        .into(),
                });
            }
        }
        if krate != "fabric" {
            for pat in ["ctx.lock(", ".enter(ctx)"] {
                fabric_balance += line.matches(pat).count() as i32;
            }
            for pat in ["ctx.unlock(", ".exit(ctx)"] {
                fabric_balance -= line.matches(pat).count() as i32;
            }
        }

        // ---- unwind-safety: frame-path panic sites ------------------
        if frame_path(path) {
            if let Some(pat) = [".unwrap()", ".expect(", "panic!"]
                .iter()
                .find(|p| line.contains(*p))
            {
                if !panic_site_on(idx) {
                    out.push(Violation {
                        file: path.into(),
                        line: idx + 1,
                        rule: RULE_UNWIND,
                        msg: format!(
                            "`{}` in frame-path code without a `lockcheck: \
                             panic-site(<reason>)` annotation (frame panics \
                             unwind into the supervisor's fate boundary)",
                            pat.trim_start_matches('.')
                        ),
                    });
                }
            }
        }

        // ---- wire-tag collection ------------------------------------
        if matches!(krate, "protocol" | "server" | "arena") {
            if let Some((name, value)) = tag_decl(line) {
                facts.tags.push(TagDecl {
                    name,
                    value,
                    line: idx + 1,
                });
            }
        }

        // ---- identity collection ------------------------------------
        if audit_pragmas && raw_lines[idx].contains("lockcheck: identity(") {
            let equation = raw_lines[idx]
                .split("lockcheck: identity(")
                .nth(1)
                .and_then(|r| r.split(')').next())
                .unwrap_or("")
                .trim()
                .to_string();
            // The annotated struct follows within a few lines (derive
            // attributes and doc comments in between are fine).
            let struct_name = (idx..lines.len().min(idx + 8))
                .find_map(|j| ident_after(lines[j], "struct "))
                .map(str::to_string);
            let closed_method = struct_name.as_deref().and_then(|name| {
                // Inside the struct's impl block (approximated as: from
                // `impl <name>` until the next impl/struct item), find a
                // `fn *_closed`.
                let impl_at = lines
                    .iter()
                    .position(|l| ident_after(l, "impl ") == Some(name))?;
                lines[impl_at + 1..]
                    .iter()
                    .take_while(|l| !l.contains("impl ") && !l.contains("struct "))
                    .find_map(|l| ident_after(l, "fn ").filter(|f| f.ends_with("_closed")))
                    .map(str::to_string)
            });
            if struct_name.is_none() {
                out.push(Violation {
                    file: path.into(),
                    line: idx + 1,
                    rule: RULE_IDENTITY,
                    msg: "identity annotation is not followed by a struct \
                          declaration"
                        .into(),
                });
            } else if closed_method.is_none() {
                out.push(Violation {
                    file: path.into(),
                    line: idx + 1,
                    rule: RULE_IDENTITY,
                    msg: format!(
                        "struct `{}` declares identity `{}` but exposes no \
                         `*_closed()` method proving it",
                        struct_name.as_deref().unwrap_or("?"),
                        equation
                    ),
                });
            }
            facts.identities.push(IdentitySite {
                line: idx + 1,
                equation,
                struct_name,
                closed_method,
            });
        }

        // ---- brace tracking -----------------------------------------
        if krate != "fabric" {
            if let Some(name) = guard_binding(line) {
                guards.push(Guard { name, depth });
            }
            if line.contains("drop(") {
                guards.retain(|g| !line.contains(&format!("drop({})", g.name)));
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if in_site && depth > site_depth {
                        site_opened = true;
                    }
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|g| depth >= g.depth);
        if in_site && site_opened && depth <= site_depth {
            in_site = false;
        }
    }

    // ---- waiver-audit: per-file checks ------------------------------
    for w in &facts.waivers {
        if w.reason.is_none() {
            out.push(Violation {
                file: path.into(),
                line: w.line,
                rule: RULE_WAIVER,
                msg: "raw-sync waiver carries no reason — write \
                      `lockcheck: allow(raw-sync: <why this cannot go \
                      through the fabric>)`"
                    .into(),
            });
        }
        if !w.used {
            out.push(Violation {
                file: path.into(),
                line: w.line,
                rule: RULE_WAIVER,
                msg: "raw-sync waiver suppresses nothing on this or the next \
                      line — delete it (stale waivers hide real debt)"
                    .into(),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (out, facts)
}

/// Run the eight source passes over a whole workspace: per-file rules
/// plus the cross-file audits (waiver budget, wire-tag registry,
/// identity closure); [`check_surface`] is the ninth. `budget` is the
/// content of `lockcheck.budget` (`None` = the file is missing, which
/// is itself a violation).
fn check_workspace(
    files: &[(String, String)],
    test_files: &[(String, String)],
    budget: Option<&str>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut facts = Vec::new();
    for (path, text) in files {
        let (v, f) = check_source(path, text);
        out.extend(v);
        facts.push((path.as_str(), f));
    }

    // ---- waiver-audit: committed budget -----------------------------
    let mut waived: HashMap<&str, usize> = HashMap::new();
    for (path, f) in &facts {
        if !f.waivers.is_empty() {
            *waived.entry(crate_of(path)).or_default() += f.waivers.len();
        }
    }
    match budget {
        None => out.push(Violation {
            file: BUDGET_PATH.into(),
            line: 1,
            rule: RULE_WAIVER,
            msg: "waiver budget file is missing — commit one line per crate: \
                  `<crate> <waiver-count>`"
                .into(),
        }),
        Some(src) => {
            let mut budgeted: HashMap<&str, (usize, usize)> = HashMap::new();
            for (lineno, l) in src.lines().enumerate() {
                let l = l.split('#').next().unwrap_or("").trim();
                if l.is_empty() {
                    continue;
                }
                let mut it = l.split_whitespace();
                if let (Some(name), Some(n)) = (it.next(), it.next()) {
                    if let Ok(n) = n.parse::<usize>() {
                        budgeted.insert(name, (n, lineno + 1));
                    }
                }
            }
            let mut crates: Vec<&str> = waived
                .keys()
                .chain(budgeted.keys())
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            crates.sort();
            for name in crates {
                let actual = waived.get(name).copied().unwrap_or(0);
                match budgeted.get(name) {
                    None => out.push(Violation {
                        file: BUDGET_PATH.into(),
                        line: 1,
                        rule: RULE_WAIVER,
                        msg: format!(
                            "crate `{name}` has {actual} raw-sync waiver(s) but \
                             no budget entry — add `{name} {actual}` (and \
                             justify the growth in the PR)"
                        ),
                    }),
                    Some((max, lineno)) if actual > *max => out.push(Violation {
                        file: BUDGET_PATH.into(),
                        line: *lineno,
                        rule: RULE_WAIVER,
                        msg: format!(
                            "crate `{name}` has {actual} raw-sync waiver(s), \
                             over its budget of {max} — funnel the new sync \
                             through the fabric or raise the budget explicitly"
                        ),
                    }),
                    Some((max, lineno)) if actual < *max => out.push(Violation {
                        file: BUDGET_PATH.into(),
                        line: *lineno,
                        rule: RULE_WAIVER,
                        msg: format!(
                            "crate `{name}` has only {actual} raw-sync \
                             waiver(s) but budgets {max} — ratchet the budget \
                             down so the headroom cannot be spent silently"
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }

    // ---- wire-tag-registry ------------------------------------------
    let mut by_name: HashMap<&str, Vec<(&str, usize)>> = HashMap::new();
    let mut registry_by_value: HashMap<u32, Vec<(&str, usize)>> = HashMap::new();
    for (path, f) in &facts {
        for t in &f.tags {
            if *path != REGISTRY_PATH {
                out.push(Violation {
                    file: (*path).into(),
                    line: t.line,
                    rule: RULE_TAGS,
                    msg: format!(
                        "wire-tag constant `{}` declared outside the registry \
                         — declare it once in {REGISTRY_PATH} and import it",
                        t.name
                    ),
                });
            } else if let Some(v) = t.value {
                registry_by_value
                    .entry(v)
                    .or_default()
                    .push((&t.name, t.line));
            }
            by_name.entry(&t.name).or_default().push((path, t.line));
        }
    }
    for (name, sites) in &by_name {
        if sites.len() > 1 {
            for (path, line) in &sites[1..] {
                out.push(Violation {
                    file: (*path).into(),
                    line: *line,
                    rule: RULE_TAGS,
                    msg: format!(
                        "wire-tag constant `{name}` is declared more than once \
                         (first at {}:{})",
                        sites[0].0, sites[0].1
                    ),
                });
            }
        }
    }
    for (value, sites) in &registry_by_value {
        if sites.len() > 1 {
            for (name, line) in &sites[1..] {
                out.push(Violation {
                    file: REGISTRY_PATH.into(),
                    line: *line,
                    rule: RULE_TAGS,
                    msg: format!(
                        "wire-tag value {value} collides: `{name}` aliases \
                         `{}` (declared at line {})",
                        sites[0].0, sites[0].1
                    ),
                });
            }
        }
    }

    // ---- identity-closure: test-corpus reference --------------------
    let mut corpus = String::new();
    for (_, f) in &facts {
        corpus.push_str(&f.test_tail);
        corpus.push('\n');
    }
    for (_, text) in test_files {
        corpus.push_str(&strip_source(text));
        corpus.push('\n');
    }
    for (path, f) in &facts {
        for site in &f.identities {
            let (Some(name), Some(method)) = (&site.struct_name, &site.closed_method) else {
                continue; // already flagged per-file
            };
            let called = corpus.contains(&format!(".{method}("));
            let named = corpus.contains(name.as_str());
            if !called && !named {
                out.push(Violation {
                    file: (*path).into(),
                    line: site.line,
                    rule: RULE_IDENTITY,
                    msg: format!(
                        "identity `{}` of `{name}` is never exercised: no test \
                         references `{name}` or calls `.{method}()`",
                        site.equation
                    ),
                });
            }
        }
    }

    out
}

// ---------------------------------------------------------------------
// surface: the ratcheted count of flags, fields, modes and packages
// ---------------------------------------------------------------------

/// How many names budget item `kind name` is made of, `None` when the
/// tree has no such item: `flags <bin>` counts the `"--flag"` patterns
/// of the match arms of `crates/harness/src/bin/<bin>.rs` (each side of
/// a `|` is a flag), `fields <Struct>` the `pub` fields and
/// `variants <Enum>` the variants of that `pub` type. The type kinds
/// lean on the layout `cargo fmt --check` enforces: the members of a
/// top-level type sit at one indent and its closing brace at none.
fn surface_count(kind: &str, name: &str, files: &[(String, String)]) -> Option<usize> {
    if kind == "flags" {
        let path = format!("crates/harness/src/bin/{name}.rs");
        let (_, text) = files.iter().find(|(p, _)| *p == path)?;
        let patterns = text.match_indices("\"--").filter(|(at, _)| {
            let rest = &text[at + 1..];
            rest.find('"').is_some_and(|end| {
                let after = rest[end + 1..].trim_start();
                after.starts_with("=>") || after.starts_with('|')
            })
        });
        return Some(patterns.count());
    }
    let (header, member): (_, fn(&str) -> bool) = match kind {
        "fields" => (format!("pub struct {name} {{"), |m| m.starts_with("pub ")),
        "variants" => (format!("pub enum {name} {{"), |m| {
            m.starts_with(char::is_uppercase)
        }),
        _ => return None,
    };
    files.iter().find_map(|(_, text)| {
        let start = text.lines().position(|l| l == header)? + 1;
        let body = text.lines().skip(start).take_while(|l| *l != "}");
        Some(
            body.filter(|l| l.strip_prefix("    ").is_some_and(member))
                .count(),
        )
    })
}

/// The surface pass: every `<kind> <name> <count>` line of `budget`
/// (the content of `surface.budget`; `#` starts a comment) must match
/// the tree exactly. `counts` carries the kinds not read from `files`:
/// `members`, the workspace's packages, and `examples`.
fn check_surface(
    files: &[(String, String)],
    counts: &[(&str, usize)],
    budget: Option<&str>,
) -> Vec<Violation> {
    let at_budget = |line: usize, msg: String| Violation {
        file: SURFACE_PATH.into(),
        line,
        rule: RULE_SURFACE,
        msg,
    };
    let Some(budget) = budget else {
        let msg = "surface budget file is missing — commit one line per item: \
                   `<flags|fields|variants|members|examples> <name> <count>`";
        return vec![at_budget(1, msg.into())];
    };
    let mut out = Vec::new();
    for (i, l) in budget.lines().enumerate() {
        let mut words = l.split('#').next().unwrap_or("").split_whitespace();
        let Some(kind) = words.next() else { continue };
        let (name, count) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        let actual = match counts.iter().find(|c| c.0 == kind) {
            Some(c) => Some(c.1),
            None => surface_count(kind, name, files),
        };
        if actual.is_none() || count.parse().ok() != actual {
            let found = actual.map_or("not in the tree".into(), |n| format!("{n} in the tree"));
            out.push(at_budget(
                i + 1,
                format!(
                    "`{kind} {name}` budgets {count} but is {found} — a count changes \
                     only together with its budget line, up or down"
                ),
            ));
        }
    }
    out
}

/// Detect `let [mut] NAME = <expr>.lock()[.unwrap()|.expect(…)];` — a
/// raw guard binding that stays live to the end of its scope. (Operates
/// on stripped lines, so `expect("…")` has become `expect(   )`.)
fn guard_binding(line: &str) -> Option<String> {
    let t = line.trim();
    let rest = t.strip_prefix("let ")?;
    let (name_part, expr) = rest.split_once('=')?;
    let expr: String = expr
        .trim()
        .trim_end_matches(';')
        .trim_end()
        .chars()
        .filter(|c| *c != ' ')
        .collect();
    let held = expr.ends_with(".lock()")
        || expr.ends_with(".lock().unwrap()")
        || expr.ends_with(".lock().expect()");
    if !held {
        return None;
    }
    let name = name_part
        .trim()
        .trim_start_matches("mut ")
        .split(':')
        .next()?
        .trim()
        .to_string();
    (!name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')).then_some(name)
}

// ---------------------------------------------------------------------
// Self-test fixtures: seeded violations the lint must catch, plus
// compliant twins it must pass.
// ---------------------------------------------------------------------

struct Fixture {
    path: &'static str,
    source: &'static str,
    expect: &'static [(&'static str, usize)],
}

const FIXTURES: &[Fixture] = &[
    // Raw std::sync::Mutex acquisition outside fabric: rejected.
    Fixture {
        path: "crates/bots/src/bad_mutex.rs",
        source: "fn f(m: &std::sync::Mutex<u32>) {\n    let mut g = m.lock().unwrap();\n    *g += 1;\n}\n",
        expect: &[(RULE_RAW_SYNC, 2)],
    },
    // Same with a reasoned escape pragma: accepted.
    Fixture {
        path: "crates/bots/src/allowed_mutex.rs",
        source: "fn f(m: &std::sync::Mutex<u32>) {\n    // lockcheck: allow(raw-sync: fixture bookkeeping)\n    let mut g = m.lock().unwrap();\n    *g += 1;\n}\n",
        expect: &[],
    },
    // A reasonless waiver still suppresses, but is itself flagged.
    Fixture {
        path: "crates/bots/src/reasonless.rs",
        source: "fn f(m: &std::sync::Mutex<u32>) {\n    // lockcheck: allow(raw-sync)\n    let mut g = m.lock().unwrap();\n    *g += 1;\n}\n",
        expect: &[(RULE_WAIVER, 2)],
    },
    // A waiver that suppresses nothing is dead weight: flagged.
    Fixture {
        path: "crates/bots/src/stale_waiver.rs",
        source: "fn f() {\n    // lockcheck: allow(raw-sync: left behind by a refactor)\n    let x = 1;\n    let _ = x;\n}\n",
        expect: &[(RULE_WAIVER, 2)],
    },
    // parking_lot anywhere outside fabric: rejected.
    Fixture {
        path: "crates/harness/src/parking.rs",
        source: "use parking_lot::Mutex;\n",
        expect: &[(RULE_RAW_SYNC, 1)],
    },
    // Fabric lock API in server code outside an acquire-site: rejected.
    Fixture {
        path: "crates/server/src/rogue_lock.rs",
        source: "fn f(ctx: &TaskCtx) {\n    ctx.lock(3);\n    ctx.unlock(3);\n}\n",
        expect: &[(RULE_ORDERED, 2), (RULE_ORDERED, 3)],
    },
    // The pragma blesses exactly one function; the next is still rogue.
    Fixture {
        path: "crates/server/src/blessed_lock.rs",
        source: "// lockcheck: acquire-site\nfn acquire(ctx: &TaskCtx) {\n    ctx.lock(3);\n}\nfn other(ctx: &TaskCtx) {\n    ctx.unlock(3);\n}\n",
        expect: &[(RULE_ORDERED, 6)],
    },
    // Raw guard live across a fabric barrier: rejected.
    Fixture {
        path: "crates/server/src/guard_across.rs",
        source: "fn f(ctx: &TaskCtx, m: &std::sync::Mutex<u32>) {\n    // lockcheck: allow(raw-sync: fixture)\n    let g = m.lock().unwrap();\n    ctx.cond_wait(0, 1);\n}\n",
        expect: &[(RULE_GUARD, 4)],
    },
    // Guard scoped out (or dropped) before the barrier: accepted.
    Fixture {
        path: "crates/server/src/guard_dropped.rs",
        source: "fn f(ctx: &TaskCtx, m: &std::sync::Mutex<u32>) {\n    {\n        // lockcheck: allow(raw-sync: fixture)\n        let g = m.lock().unwrap();\n        let _ = *g;\n    }\n    ctx.cond_wait(0, 1);\n}\n",
        expect: &[],
    },
    // World-phase code taking any lock: rejected.
    Fixture {
        path: "crates/sim/src/world_phase.rs",
        source: "fn step(ctx: &TaskCtx) {\n    ctx.lock(0);\n}\n",
        expect: &[(RULE_SIM, 2)],
    },
    // Lock tokens inside strings/comments never trip a rule.
    Fixture {
        path: "crates/bots/src/quoted.rs",
        source: "fn f() {\n    let s = \"m.lock() inside a string\";\n    // m.lock() inside a comment\n    let _ = s;\n}\n",
        expect: &[],
    },
    // In-file #[cfg(test)] tails are exempt.
    Fixture {
        path: "crates/bots/src/test_tail.rs",
        source: "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u32>) {\n        let _g = m.lock().unwrap();\n    }\n}\n",
        expect: &[],
    },
    // Fabric itself may use parking_lot freely.
    Fixture {
        path: "crates/fabric/src/internals.rs",
        source: "use parking_lot::Mutex;\nfn f(m: &Mutex<u32>) {\n    let _g = m.lock();\n}\n",
        expect: &[],
    },
    // unwind-safety: raw guard live at a catch_unwind boundary.
    Fixture {
        path: "crates/harness/src/unwind_guard.rs",
        source: "fn f(m: &std::sync::Mutex<u32>) {\n    // lockcheck: allow(raw-sync: fixture)\n    let g = m.lock().unwrap();\n    let _ = std::panic::catch_unwind(|| 1);\n    let _ = *g;\n}\n",
        expect: &[(RULE_UNWIND, 4)],
    },
    // unwind-safety: fabric lock held at a catch_unwind boundary.
    Fixture {
        path: "crates/bots/src/unwind_lock.rs",
        source: "fn f(ctx: &TaskCtx) {\n    ctx.lock(1);\n    let _ = std::panic::catch_unwind(|| 1);\n    ctx.unlock(1);\n}\n",
        expect: &[(RULE_UNWIND, 3)],
    },
    // unwind-safety: boundary entered lock-free is clean.
    Fixture {
        path: "crates/bots/src/unwind_clean.rs",
        source: "fn f(ctx: &TaskCtx) {\n    ctx.lock(1);\n    ctx.unlock(1);\n    let _ = std::panic::catch_unwind(|| 1);\n}\n",
        expect: &[],
    },
    // unwind-safety: undeclared panic site in frame-path code.
    Fixture {
        path: "crates/sim/src/panicky.rs",
        source: "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        expect: &[(RULE_UNWIND, 2)],
    },
    // unwind-safety: a reasoned panic-site annotation blesses the line.
    Fixture {
        path: "crates/sim/src/declared_panic.rs",
        source: "fn f(x: Option<u32>) -> u32 {\n    // lockcheck: panic-site(x is Some by construction in the caller)\n    x.unwrap()\n}\n",
        expect: &[],
    },
    // unwind-safety: frame-path scoping — the same unwrap outside the
    // frame path is nobody's business.
    Fixture {
        path: "crates/harness/src/host_side.rs",
        source: "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        expect: &[],
    },
    // identity-closure: annotation without a closing method.
    Fixture {
        path: "crates/metrics/src/unproved.rs",
        source: "// lockcheck: identity(a == b + c)\npub struct S {\n    pub a: u64,\n}\nimpl S {\n    pub fn total(&self) -> u64 {\n        self.a\n    }\n}\n",
        expect: &[(RULE_IDENTITY, 1)],
    },
];

/// Workspace-level fixtures: multiple files, a budget, and a test
/// corpus, exercising the cross-file passes.
struct WsFixture {
    name: &'static str,
    files: &'static [(&'static str, &'static str)],
    tests: &'static str,
    budget: Option<&'static str>,
    expect: &'static [(&'static str, &'static str, usize)],
}

const WAIVED_ONCE: &str = "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap(); // lockcheck: allow(raw-sync: fixture)\n    let _ = *g;\n}\n";

const WS_FIXTURES: &[WsFixture] = &[
    WsFixture {
        name: "budget-balanced",
        files: &[("crates/bots/src/a.rs", WAIVED_ONCE)],
        tests: "",
        budget: Some("# comment\nbots 1\n"),
        expect: &[],
    },
    WsFixture {
        name: "budget-missing-file",
        files: &[("crates/bots/src/a.rs", WAIVED_ONCE)],
        tests: "",
        budget: None,
        expect: &[(RULE_WAIVER, "lockcheck.budget", 1)],
    },
    WsFixture {
        // `bots` has a waiver but no entry; `server` budgets headroom
        // it does not use. Both directions are drift and both fire.
        name: "budget-missing-crate",
        files: &[("crates/bots/src/a.rs", WAIVED_ONCE)],
        tests: "",
        budget: Some("server 2\n"),
        expect: &[
            (RULE_WAIVER, "lockcheck.budget", 1),
            (RULE_WAIVER, "lockcheck.budget", 1),
        ],
    },
    WsFixture {
        name: "budget-overrun",
        files: &[
            ("crates/bots/src/a.rs", WAIVED_ONCE),
            ("crates/bots/src/b.rs", WAIVED_ONCE),
        ],
        tests: "",
        budget: Some("bots 1\n"),
        expect: &[(RULE_WAIVER, "lockcheck.budget", 1)],
    },
    WsFixture {
        name: "budget-stale-headroom",
        files: &[("crates/bots/src/a.rs", WAIVED_ONCE)],
        tests: "",
        budget: Some("bots 3\n"),
        expect: &[(RULE_WAIVER, "lockcheck.budget", 1)],
    },
    WsFixture {
        name: "tag-outside-registry",
        files: &[(
            "crates/server/src/rogue_tag.rs",
            "const TAG_ROGUE: u8 = 9;\n",
        )],
        tests: "",
        budget: Some(""),
        expect: &[(RULE_TAGS, "crates/server/src/rogue_tag.rs", 1)],
    },
    WsFixture {
        name: "tag-collision-in-registry",
        files: &[(
            "crates/protocol/src/tags.rs",
            "pub const TAG_A: u8 = 7;\npub const TAG_B: u8 = 0x07;\n",
        )],
        tests: "",
        budget: Some(""),
        expect: &[(RULE_TAGS, "crates/protocol/src/tags.rs", 2)],
    },
    WsFixture {
        name: "tag-duplicate-declaration",
        files: &[
            (
                "crates/protocol/src/tags.rs",
                "pub const TAG_A: u8 = 7;\n",
            ),
            ("crates/arena/src/shadow.rs", "const TAG_A: u8 = 8;\n"),
        ],
        tests: "",
        budget: Some(""),
        expect: &[
            (RULE_TAGS, "crates/arena/src/shadow.rs", 1),
            (RULE_TAGS, "crates/arena/src/shadow.rs", 1),
        ],
    },
    WsFixture {
        name: "tags-distinct-are-clean",
        files: &[(
            "crates/protocol/src/tags.rs",
            "pub const TAG_A: u8 = 7;\npub const TAG_B: u8 = 8;\npub const ARENA_EXT_TAG: u8 = 0xA7;\n",
        )],
        tests: "",
        budget: Some(""),
        expect: &[],
    },
    WsFixture {
        name: "identity-proved-and-tested",
        files: &[(
            "crates/metrics/src/proved.rs",
            "// lockcheck: identity(placed == departed + resident)\npub struct Book {\n    pub placed: u64,\n    pub departed: u64,\n    pub resident: u64,\n}\nimpl Book {\n    pub fn population_closed(&self) -> bool {\n        self.placed == self.departed + self.resident\n    }\n}\n",
        )],
        tests: "fn t(b: Book) { assert!(b.population_closed()); }\n",
        budget: Some(""),
        expect: &[],
    },
    WsFixture {
        name: "identity-untested",
        files: &[(
            "crates/metrics/src/proved.rs",
            "// lockcheck: identity(placed == departed + resident)\npub struct Book {\n    pub placed: u64,\n}\nimpl Book {\n    pub fn population_closed(&self) -> bool {\n        true\n    }\n}\n",
        )],
        tests: "fn unrelated() {}\n",
        budget: Some(""),
        expect: &[(RULE_IDENTITY, "crates/metrics/src/proved.rs", 1)],
    },
];

/// The tree every surface fixture measures: a binary with three flags
/// (two share an arm), a two-field options struct and a two-variant
/// mode enum; with it go three packages and one example.
const SURFACE_TREE: &[(&str, &str)] = &[
    (
        "crates/harness/src/bin/udpd.rs",
        "fn main() {\n    match flag {\n        \"--port\" => a(),\n        \"--secs\" | \"--seconds\" => b(),\n        _ => die(\"--port needs a number\"),\n    }\n}\n",
    ),
    (
        "crates/demo/src/lib.rs",
        "pub struct DemoOpts {\n    pub port: u16,\n    pub secs: u64,\n}\npub enum DemoMode {\n    Scan,\n    Sweep { depth: u32 },\n}\n",
    ),
];

/// Surface fixtures over [`SURFACE_TREE`]: name, budget, and the
/// `surface.budget` line of every violation it must draw, in order.
#[rustfmt::skip] // a table: one row per fixture
const SURFACE_FIXTURES: &[(&str, Option<&str>, &[usize])] = &[
    ("balanced", Some("# comment\nflags udpd 3\nfields DemoOpts 2 # why\n\nvariants DemoMode 2\nmembers workspace 3\nexamples root 1\n"), &[]),
    ("budget-missing", None, &[1]),
    ("flag-added-without-a-bump", Some("flags udpd 2\n"), &[1]),
    ("field-removed-without-a-ratchet", Some("flags udpd 3\nfields DemoOpts 3\n"), &[2]),
    ("unknown-struct", Some("fields GhostOpts 1\n"), &[1]),
    ("packages-and-examples-drift", Some("members workspace 2\nexamples root 2\n"), &[1, 2]),
    ("unknown-kind-or-no-count", Some("waive DemoOpts.port 1\nvariants DemoMode\n"), &[1, 2]),
];

fn self_test() -> ExitCode {
    let mut failed = 0usize;
    for fx in FIXTURES {
        let got = check_source(fx.path, fx.source).0;
        let got_pairs: Vec<(&str, usize)> = got.iter().map(|v| (v.rule, v.line)).collect();
        if got_pairs != fx.expect {
            failed += 1;
            eprintln!("self-test FAIL {}:", fx.path);
            eprintln!("  expected {:?}", fx.expect);
            eprintln!("  got      {got_pairs:?}");
            for v in &got {
                eprintln!("    {v}");
            }
        }
    }
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    };
    for fx in WS_FIXTURES {
        let tests = own(&[("tests/fixture.rs", fx.tests)]);
        let got = check_workspace(&own(fx.files), &tests, fx.budget);
        let got_tuples: Vec<(&str, &str, usize)> = got
            .iter()
            .map(|v| (v.rule, v.file.as_str(), v.line))
            .collect();
        if got_tuples != fx.expect {
            failed += 1;
            eprintln!("self-test FAIL workspace fixture `{}`:", fx.name);
            eprintln!("  expected {:?}", fx.expect);
            eprintln!("  got      {got_tuples:?}");
            for v in &got {
                eprintln!("    {v}");
            }
        }
    }
    let tree = own(SURFACE_TREE);
    for &(name, budget, expect) in SURFACE_FIXTURES {
        let got = check_surface(&tree, &[("members", 3), ("examples", 1)], budget);
        let lines: Vec<usize> = got.iter().map(|v| v.line).collect();
        if lines != expect || got.iter().any(|v| v.file != SURFACE_PATH) {
            failed += 1;
            eprintln!("self-test FAIL surface fixture `{name}`:");
            eprintln!("  expected {SURFACE_PATH} lines {expect:?}");
            for v in &got {
                eprintln!("    {v}");
            }
        }
    }
    if failed == 0 {
        println!(
            "lockcheck self-test: {} file fixtures + {} workspace fixtures + {} surface fixtures ok",
            FIXTURES.len(),
            WS_FIXTURES.len(),
            SURFACE_FIXTURES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lockcheck self-test: {failed} fixture(s) failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn self_test_fixtures_pass() {
        assert_eq!(self_test(), ExitCode::SUCCESS);
    }

    #[test]
    fn json_report_is_escaped_and_parsable_shape() {
        let v = vec![Violation {
            file: "a \"b\"\\c.rs".into(),
            line: 3,
            rule: RULE_RAW_SYNC,
            msg: "line1\nline2".into(),
        }];
        let s = json_report(&v, 7);
        assert!(s.contains("\"files_scanned\":7"), "{s}");
        assert!(s.contains("\\\"b\\\"\\\\c.rs"), "{s}");
        assert!(s.contains("line1\\nline2"), "{s}");
        assert!(s.starts_with('{') && s.ends_with('}'), "{s}");
    }

    #[test]
    fn tag_decl_parses_literals() {
        assert_eq!(
            tag_decl("pub const ARENA_EXT_TAG: u8 = 0xA7;"),
            Some(("ARENA_EXT_TAG".into(), Some(0xA7)))
        );
        assert_eq!(
            tag_decl("const TAG_MOVE: u8 = 2;"),
            Some(("TAG_MOVE".into(), Some(2)))
        );
        assert_eq!(tag_decl("const MAX_DATAGRAM: usize = 2048;"), None);
        assert_eq!(tag_decl("const TAG_WIDE: u16 = 2;"), None);
        assert_eq!(tag_decl("let tag = 2;"), None);
    }

    // Source-shaped fragment pool for the strip_source properties:
    // raw strings, nested block comments, char literals, lifetimes,
    // escapes — the constructs the scanner must not mangle.
    const FRAGMENTS: &[&str] = &[
        "fn f() {",
        "}",
        "let x = m.lock();",
        "\"string with } brace and ctx.lock( inside\"",
        "\"escaped \\\" quote\"",
        "\"continued \\\n  literal\"",
        "r\"raw string\"",
        "r#\"raw with \" quote\"#",
        "r##\"nested \"# almost\"##",
        "/* block comment */",
        "/* nested /* block */ comment */",
        "// line comment with \" quote",
        "'x'",
        "'\\n'",
        "'\\''",
        "&'a str",
        "'static",
        "r#raw_ident",
        "/* unterminated-on-this-line",
        "*/",
        "",
    ];

    proptest! {
        #[test]
        fn strip_source_preserves_line_count(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
        ) {
            let src: String = picks
                .iter()
                .map(|&i| FRAGMENTS[i])
                .collect::<Vec<_>>()
                .join("\n");
            let stripped = strip_source(&src);
            prop_assert_eq!(
                src.lines().count(),
                stripped.lines().count(),
                "line count changed for source:\n{}",
                src
            );
        }

        #[test]
        fn strip_source_is_idempotent(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
        ) {
            let src: String = picks
                .iter()
                .map(|&i| FRAGMENTS[i])
                .collect::<Vec<_>>()
                .join("\n");
            let once = strip_source(&src);
            let twice = strip_source(&once);
            prop_assert_eq!(&once, &twice, "not idempotent for source:\n{}", src);
        }
    }
}
