//! `paperbench check` and `paperbench gate`: the one reader of the
//! `BENCH_*.json` schema that [`crate::figures::Emitter`] writes.
//!
//! `check` validates an emitted file's shape; `gate` compares a fresh file
//! against the committed baseline on the gated metrics its registry row
//! declares, and fails on any that regressed by more than the threshold
//! or broke its absolute ceiling.

use crate::figures::{figure_of, Figure, Kind};
use jsonlite::Value;
use std::fmt::Write as _;

/// The relative regression the gate tolerates by default.
pub const THRESHOLD: f64 = 0.30;

/// Which way a gated metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A drop is a regression.
    Higher,
    /// A rise is a regression.
    Lower,
}

/// One gated metric of an emitted figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, e.g. `ops_reduction[reopen]`.
    pub name: String,
    /// Value in this file.
    pub value: f64,
    /// Direction of improvement.
    pub better: Better,
    /// Absolute bar held instead of the baseline-relative threshold.
    pub ceiling: Option<f64>,
}

impl Metric {
    /// A higher-is-better metric.
    pub fn higher(name: String, value: f64) -> Metric {
        Metric {
            name,
            value,
            better: Better::Higher,
            ceiling: None,
        }
    }

    /// A lower-is-better metric.
    pub fn lower(name: String, value: f64) -> Metric {
        Metric {
            name,
            value,
            better: Better::Lower,
            ceiling: None,
        }
    }

    /// Hold the metric to `bar` whatever the baseline says.
    pub fn ceiling(self, bar: f64) -> Metric {
        Metric {
            ceiling: Some(bar),
            ..self
        }
    }
}

/// Why a `check` or `gate` failed.
#[derive(Debug)]
pub enum BenchError {
    /// The file is not a well-formed `BENCH_*.json`, or the pair does not
    /// belong together.
    Invalid(String),
    /// A gated metric regressed; carries the verdict table.
    Regressed(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Invalid(m) => write!(f, "{m}"),
            BenchError::Regressed(m) => write!(f, "bench gate: {m}"),
        }
    }
}

/// A parsed, shape-checked `BENCH_*.json`.
struct Doc {
    figure: String,
    row: &'static Figure,
    kind: Kind,
    data: Value,
    trace: Value,
}

impl Doc {
    fn parse(text: &str, name: &str) -> Result<Doc, BenchError> {
        let bad = |m: String| BenchError::Invalid(format!("{name}: {m}"));
        let doc = jsonlite::parse(text).map_err(|e| bad(format!("not valid JSON: {e:?}")))?;
        let figure = doc
            .get("figure")
            .and_then(|f| f.as_str())
            .ok_or_else(|| bad("missing \"figure\"".to_string()))?
            .to_string();
        let row = figure_of(&figure).ok_or_else(|| bad(format!("unknown figure {figure}")))?;
        let kind = match doc.get("kind").and_then(|k| k.as_str()) {
            None => return Err(bad("missing \"kind\"".to_string())),
            Some(k) => Kind::parse(k).ok_or_else(|| bad(format!("unknown kind {k}")))?,
        };
        if kind != row.kind {
            return Err(bad(format!(
                "kind {} but figure {figure} is {}",
                kind.as_str(),
                row.kind.as_str()
            )));
        }
        let data = doc
            .get("data")
            .ok_or_else(|| bad("missing \"data\"".to_string()))?
            .clone();
        let trace = doc.get("trace").cloned().unwrap_or(Value::Null);
        Ok(Doc {
            figure,
            row,
            kind,
            data,
            trace,
        })
    }

    fn metrics(&self) -> Vec<Metric> {
        self.row
            .gate
            .as_ref()
            .map_or(Vec::new(), |g| (g.metrics)(&self.data))
    }
}

/// `check`: parse one emitted `BENCH_*.json` and verify its shape — a
/// `figure` of the registry, its `kind`, a `data` payload — and report its
/// trace rows and gated metrics.
pub fn check(text: &str, name: &str) -> Result<String, BenchError> {
    let doc = Doc::parse(text, name)?;
    let trace_rows = doc
        .trace
        .get("layers")
        .and_then(|l| l.as_object())
        .map(|layers| {
            layers
                .iter()
                .filter_map(|(_, v)| v.get("per_op").and_then(|p| p.as_object()))
                .map(<[(String, Value)]>::len)
                .sum::<usize>()
        });
    Ok(format!(
        "ok: {name}: figure {}, {}, {} trace op rows, {} gated metric(s)\n",
        doc.figure,
        doc.kind.as_str(),
        trace_rows.map_or("no".to_string(), |n| n.to_string()),
        doc.metrics().len(),
    ))
}

/// `gate`: compare a fresh `BENCH_*.json` against the committed baseline
/// and fail if any gated metric is missing, regressed by more than
/// `threshold` (a fraction, e.g. 0.30), or broke its ceiling. Figures
/// with no gated metrics pass trivially.
pub fn gate(baseline: &str, fresh: &str, threshold: f64) -> Result<String, BenchError> {
    let base = Doc::parse(baseline, "baseline")?;
    let new = Doc::parse(fresh, "fresh")?;
    if base.figure != new.figure {
        return Err(BenchError::Invalid(format!(
            "figure mismatch: baseline {}, fresh {}",
            base.figure, new.figure
        )));
    }
    let base_metrics = base.metrics();
    let new_metrics = new.metrics();
    let mut out = String::new();
    let mut regressions = Vec::new();
    for m in &base_metrics {
        let Some(fresh) = new_metrics.iter().find(|n| n.name == m.name) else {
            regressions.push(format!("{}: missing from fresh snapshot", m.name));
            continue;
        };
        let (old, fresh_v) = (m.value, fresh.value);
        let regressed = match (m.ceiling, m.better) {
            (Some(ceiling), _) => fresh_v > ceiling,
            (None, Better::Higher) => fresh_v < old * (1.0 - threshold),
            (None, Better::Lower) => fresh_v > old * (1.0 + threshold),
        };
        let _ = writeln!(
            out,
            "{:<34} baseline {:>8.3}  fresh {:>8.3}  {}",
            m.name,
            old,
            fresh_v,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(format!(
                "{}: baseline {old:.3}, fresh {fresh_v:.3} (>{:.0}% worse)",
                m.name,
                threshold * 100.0
            ));
        }
    }
    let _ = writeln!(
        out,
        "{} gated metric(s), {} regression(s)",
        base_metrics.len(),
        regressions.len()
    );
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(BenchError::Regressed(format!(
            "{}\n{}",
            out.trim_end(),
            regressions.join("\n")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_metadata_gates_ratios() {
        let cycle = |reduction: f64, secs: f64, cached_ops: u64| {
            format!(
                "{{\"figure\":\"metadata\",\"kind\":\"measured\",\"data\":{{\
                 \"measured\":[{{\"phase\":\"reopen\",\"eager_us\":1.5,\
                 \"ops_reduction\":{reduction}}},\
                 {{\"phase\":\"open+write+close\",\"cached_ops\":{cached_ops}}}],\
                 \"storm\":[{{\"procs\":1024,\"secs\":{secs}}}]}},\
                 \"trace\":{{}}}}"
            )
        };
        let doc = |reduction: f64, secs: f64| cycle(reduction, secs, 28);
        let out = check(&doc(4.0, 2.0), "BENCH_metadata.json").unwrap();
        assert!(out.contains("3 gated metric"), "{out}");
        // The cycle's op count is held to its absolute ceiling, whatever
        // the baseline says.
        assert!(gate(&cycle(4.0, 2.0, 40), &doc(4.0, 2.0), 0.30).is_ok());
        let err = gate(&doc(4.0, 2.0), &cycle(4.0, 2.0, 29), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("cached_ops[open+write+close]")),
            "{err:?}"
        );
        // Ratios within threshold pass; a collapsed ops_reduction fails.
        assert!(gate(&doc(4.0, 2.0), &doc(3.5, 2.2), 0.30).is_ok());
        let err = gate(&doc(4.0, 2.0), &doc(1.0, 2.2), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("ops_reduction[reopen]")),
            "{err:?}"
        );
        // So is the small-file cycle's, and its modeled storm gates too.
        let small = |ops: u64, secs: f64| {
            let tail = format!(
                ",\"small_file\":{{\"total_ops\":{ops},\
                 \"storm\":[{{\"procs\":256,\"secs\":{secs}}}]}}}},\"trace\":{{}}}}"
            );
            doc(4.0, 2.0).replace("},\"trace\":{}}", &tail)
        };
        let out = check(&small(13, 9.0), "BENCH_metadata.json").unwrap();
        assert!(out.contains("5 gated metric"), "{out}");
        assert!(gate(&small(24, 9.0), &small(13, 9.0), 0.30).is_ok());
        let err = gate(&small(13, 9.0), &small(14, 9.0), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("small_file_cycle_ops")),
            "{err:?}"
        );
        let err = gate(&small(13, 9.0), &small(13, 12.0), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("small_file_storm_secs[256 procs]")),
            "{err:?}"
        );
        // The projected storm gates on its seconds: lower is better.
        assert!(gate(&doc(4.0, 2.0), &doc(4.0, 1.0), 0.30).is_ok());
        let err = gate(&doc(4.0, 2.0), &doc(4.0, 3.0), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("storm_secs[1024 procs]")),
            "{err:?}"
        );
    }

    #[test]
    fn check_validates_shape() {
        let doc = "{\"figure\":\"writepath\",\"kind\":\"measured\",\
                   \"data\":{\"refresh_growth\":1.5},\
                   \"trace\":{\"layers\":{\"plfs\":{\"per_op\":{\"open\":{},\"read\":{}}}}}}";
        let out = check(doc, "BENCH_writepath.json").unwrap();
        assert!(out.contains("figure writepath"), "{out}");
        assert!(out.contains("measured"), "{out}");
        assert!(out.contains("2 trace op rows"), "{out}");
        assert!(out.contains("1 gated metric"), "{out}");
        assert!(check("not json", "x").is_err());
        assert!(check("{\"data\":1}", "x").is_err(), "missing figure");
        assert!(
            check("{\"figure\":\"writepath\",\"kind\":\"measured\"}", "x").is_err(),
            "missing data"
        );
    }

    #[test]
    fn check_fails_on_a_missing_unknown_or_wrong_kind() {
        let doc = |kind: &str| format!("{{\"figure\":\"fig3\",{kind}\"data\":[],\"trace\":{{}}}}");
        assert!(check(&doc("\"kind\":\"modeled\","), "x").is_ok());
        for (kind, why) in [
            ("", "missing \"kind\""),
            ("\"kind\":\"simulated\",", "unknown kind simulated"),
            ("\"kind\":3,", "missing \"kind\""),
            (
                "\"kind\":\"measured\",",
                "kind measured but figure fig3 is modeled",
            ),
        ] {
            let err = check(&doc(kind), "x").unwrap_err();
            assert!(
                matches!(err, BenchError::Invalid(ref m) if m.contains(why)),
                "{kind}: {err:?}"
            );
            // The gate reads both files through the same check.
            let ok = doc("\"kind\":\"modeled\",");
            assert!(gate(&ok, &doc(kind), 0.30).is_err(), "{kind}");
            assert!(gate(&doc(kind), &ok, 0.30).is_err(), "{kind}");
        }
        let unknown = "{\"figure\":\"fig9\",\"kind\":\"modeled\",\"data\":[]}";
        assert!(
            matches!(check(unknown, "x"), Err(BenchError::Invalid(ref m)) if m.contains("unknown figure fig9"))
        );
        // Every emitted output name maps back to its row.
        for (output, row) in [
            ("fig4C", "fig4"),
            ("crossover_Sierra (Lustre, dedicated MDS)", "crossover"),
            ("table2", "table2"),
        ] {
            assert_eq!(figure_of(output).map(|f| f.name), Some(row));
        }
    }

    #[test]
    fn gate_fails_on_a_gated_metric_missing_from_the_fresh_file() {
        let base = "{\"figure\":\"noncontig\",\"kind\":\"modeled\",\"data\":\
                    {\"listio_vs_sieving\":3.0,\"listio_vs_per_extent\":1.5}}";
        let fresh = "{\"figure\":\"noncontig\",\"kind\":\"modeled\",\"data\":\
                     {\"listio_vs_sieving\":3.0}}";
        let err = gate(base, fresh, 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m)
                if m.contains("listio_vs_per_extent: missing from fresh snapshot")),
            "{err:?}"
        );
        // A fresh file may carry more than its baseline.
        assert!(gate(fresh, base, 0.30).is_ok());
    }

    #[test]
    fn gate_writepath_gates_refresh_growth() {
        let doc = |growth: f64| {
            format!(
                "{{\"figure\":\"writepath\",\"kind\":\"measured\",\"data\":{{\"rows\":[\
                 {{\"writers\":8,\"mbps\":200.0}}],\
                 \"refresh_sweep\":[],\"refresh_growth\":{growth}}},\
                 \"trace\":{{}}}}"
            )
        };
        let out = check(&doc(1.5), "BENCH_writepath.json").unwrap();
        assert!(out.contains("1 gated metric"), "{out}");
        // Growth is held to its absolute 4x bar, whatever the baseline:
        // noise around 1-2x passes, anything near linear fails.
        assert!(gate(&doc(1.0), &doc(2.5), 0.30).is_ok());
        let err = gate(&doc(3.9), &doc(4.1), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("refresh_growth")),
            "{err:?}"
        );
    }

    #[test]
    fn gate_table2_overhead_is_lower_is_better() {
        let doc = |plfs: f64| {
            format!(
                "{{\"figure\":\"table2\",\"kind\":\"modeled\",\"data\":[\
                 {{\"tool\":\"cat\",\"plfs_secs\":{plfs},\"standard_secs\":10.0}}],\
                 \"trace\":{{}}}}"
            )
        };
        assert!(gate(&doc(10.0), &doc(11.0), 0.30).is_ok());
        let err = gate(&doc(10.0), &doc(14.0), 0.30).unwrap_err();
        assert!(matches!(err, BenchError::Regressed(_)), "{err:?}");
    }

    #[test]
    fn gate_noncontig_gates_listio_ratios() {
        let doc = |sieve: f64, per_ext: f64| {
            format!(
                "{{\"figure\":\"noncontig\",\"kind\":\"modeled\",\"data\":{{\"rows\":[],\
                 \"listio_vs_sieving\":{sieve},\"listio_vs_per_extent\":{per_ext}}},\
                 \"trace\":{{}}}}"
            )
        };
        let out = check(&doc(3.0, 1.5), "BENCH_noncontig.json").unwrap();
        assert!(out.contains("2 gated metric"), "{out}");
        // Higher is better: a small dip passes, a collapse of either ratio
        // fails on that metric.
        assert!(gate(&doc(3.0, 1.5), &doc(2.5, 1.4), 0.30).is_ok());
        let err = gate(&doc(3.0, 1.5), &doc(1.5, 1.4), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("listio_vs_sieving")),
            "{err:?}"
        );
        let err = gate(&doc(3.0, 1.5), &doc(3.0, 0.5), 0.30).unwrap_err();
        assert!(
            matches!(err, BenchError::Regressed(ref m) if m.contains("listio_vs_per_extent")),
            "{err:?}"
        );
    }

    #[test]
    fn gate_rejects_figure_mismatch_and_unknown_passes() {
        let a = "{\"figure\":\"fig3\",\"kind\":\"modeled\",\"data\":[],\"trace\":{}}";
        let b = "{\"figure\":\"fig5\",\"kind\":\"modeled\",\"data\":[],\"trace\":{}}";
        assert!(matches!(
            gate(a, b, 0.3).unwrap_err(),
            BenchError::Invalid(ref m) if m.contains("figure mismatch")
        ));
        // Ungated figures compare trivially clean.
        let out = gate(a, a, 0.3).unwrap();
        assert!(out.contains("0 gated metric(s), 0 regression(s)"), "{out}");
    }

    /// Every committed baseline is a well-formed `BENCH_*.json` of a
    /// registry row, and gates clean against itself.
    #[test]
    fn committed_baselines_check_and_gate_clean() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            check(&text, &name).unwrap_or_else(|e| panic!("{e}"));
            let out = gate(&text, &text, THRESHOLD).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.ends_with(" 0 regression(s)\n"), "{name}: {out}");
            seen += 1;
        }
        assert!(seen >= 12, "only {seen} baselines under {}", dir.display());
        // Every gated figure has its baseline, with metrics to gate.
        for f in crate::figures::FIGURES.iter().filter(|f| f.gate.is_some()) {
            let text = std::fs::read_to_string(dir.join(format!("BENCH_{}.json", f.name))).unwrap();
            assert!(
                !check(&text, f.name).unwrap().contains(" 0 gated metric"),
                "{}",
                f.name
            );
        }
    }
}
