//! The shapes in which results leave the harness: lines for people, one JSON
//! object per run for the driver, one JSON file per full run for `compare`.

use crate::e2e::{median, quartiles, E2e, E2E_METRICS};
use crate::layers::Traced;
use jsonlite::Value;

fn num(value: f64, unit: &str) -> Value {
    Value::object().with("value", value).with("unit", unit)
}

/// Human-readable lines: every end-to-end metric by name with its unit.
pub fn print_e2e(r: &E2e, fs_type: &str) {
    println!(
        "== {} (seed {}, {} reps + warm-up, flat arm x{} passes, scratch on {fs_type}: \
         page-cache numbers, not a device's) ==",
        r.workload, r.seed, r.reps, r.flat_passes
    );
    for (name, value, unit) in r.metrics() {
        let s = r.samples(name);
        if s.len() >= 2 {
            let (q1, q3) = quartiles(&s);
            println!(
                "{:<32} {value:>14.6} {unit}   (q1 {q1:.6}, q3 {q3:.6}, n {})",
                name,
                s.len()
            );
        } else {
            println!("{name:<32} {value:>14.6} {unit}");
        }
    }
    println!(
        "{:<32} {:>14.6} ratio   ({} of {} operations)",
        "failed_ops_share",
        r.failed_ops_share(),
        r.failed,
        r.attempted
    );
    let mbps = r.logical_bytes as f64 / 1e6 / median(&r.plfs_wall_s);
    println!(
        "{:<32} {mbps:>14.1} MB/s   (info: logical bytes over wall_s)",
        "throughput"
    );
}

pub fn print_layers(workload: &str, t: &Traced) {
    println!("-- {workload}: per-layer metrics (traced pass) --");
    for (name, value, unit) in &t.metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!(
        "{:<36} {:>16} of {} operations",
        "failed (traced pass)", t.failed, t.attempted
    );
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut m = Value::object();
    for (name, value, unit) in metrics {
        m.set(name.as_str(), num(*value, unit));
    }
    Value::object()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", m)
        .to_json()
}

/// One workload's entry in the full-run results file.
pub fn workload_json(r: &E2e, t: &Traced) -> Value {
    let mut e2e = Value::object();
    for (def, (name, value, unit)) in E2E_METRICS.iter().zip(r.metrics()) {
        let s = r.samples(name);
        let (q1, q3) = if s.len() >= 2 {
            quartiles(&s)
        } else {
            (value, value)
        };
        let entry = num(value, unit)
            .with("q1", q1)
            .with("q3", q3)
            .with("n", s.len().max(1) as u64)
            .with("better", def.better)
            .with("bound", def.bound);
        e2e.set(name, entry);
    }
    let mut layers = Value::object();
    for (name, value, unit) in &t.metrics {
        layers.set(name.as_str(), num(*value, unit));
    }
    Value::object()
        .with("reps", r.reps as u64)
        .with("flat_passes", r.flat_passes as u64)
        .with("attempted", r.attempted + t.attempted)
        .with("failed", r.failed + t.failed)
        .with(
            "failed_ops_share",
            (r.failed + t.failed) as f64 / (r.attempted + t.attempted).max(1) as f64,
        )
        .with("end_to_end", e2e)
        .with("per_layer", layers)
}
