//! `BENCHMARK.json` at the repo root is `bench manifest`: every
//! workload and metric name the binary prints is declared there, and
//! vice versa, because both come from `spec.rs`.

use parquake_wallbench::spec::{manifest_json, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn benchmark_json_matches_the_declared_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with: bench manifest > BENCHMARK.json"
    );
    // Belt and braces: every declared name appears as a JSON string.
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(on_disk.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    assert!(on_disk.len() <= 64 * 1024);
}
