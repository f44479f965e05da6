//! `BENCHMARK.json` must say what the harness does: the same workloads (and
//! why), the same end-to-end metrics with their bounds, the same per-layer
//! metrics, all by the same names and units.

use jsonlite::Value;
use ldplfs_benchmark::e2e::E2E_METRICS;
use ldplfs_benchmark::layers::PER_LAYER;
use ldplfs_benchmark::workloads::WORKLOADS;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    jsonlite::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {v:?}"))
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no array {key}"))
}

#[test]
fn workloads_match_the_generators() {
    let doc = manifest();
    let listed: Vec<_> = list(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    assert!(ours
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

#[test]
fn end_to_end_metrics_match_the_report_table() {
    let doc = manifest();
    let listed: Vec<_> = list(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let ours: Vec<_> = E2E_METRICS
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(listed, ours);
    assert!(ours.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    assert!(ours.contains(&("setup_s", "s", "lower", 0.25)));
}

#[test]
fn per_layer_metrics_match_the_traced_pass() {
    let doc = manifest();
    let listed: Vec<_> = list(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    assert_eq!(listed, PER_LAYER.to_vec());
    assert!(listed.len() <= 128);
}

#[test]
fn the_command_names_only_the_benchmark_directory() {
    let doc = manifest();
    let paths: Vec<_> = list(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<_> = list(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
}
