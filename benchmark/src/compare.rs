//! `benchmark compare A.json B.json`: the local pre-flight for a perf PR and
//! the two-runs-agree check. A is the baseline, B the candidate; each
//! (metric, workload) pair gets one verdict under the metric's own bound.

use jsonlite::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// A run's own quartile spread is wider than the bound, so a move of
    /// the bound's size could not be told from noise.
    Unresolved,
}

pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.value.abs()
    }
}

/// Judge candidate `b` against baseline `a`. `bound` is a share of `a`.
pub fn judge(a: &Sample, b: &Sample, lower_is_better: bool, bound: f64) -> Verdict {
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = if lower_is_better { change } else { -change };
    // Every quartile of one side beyond every quartile of the other still
    // resolves, however wide the spreads.
    let apart = b.q1 > a.q3 || b.q3 < a.q1;
    if !apart && (a.spread() > bound || b.spread() > bound) {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn sample(metric: &Value) -> Option<Sample> {
    let get = |k| metric.get(k).and_then(Value::as_f64);
    Some(Sample {
        value: get("value")?,
        q1: get("q1")?,
        q3: get("q3")?,
    })
}

/// Compare two full-run result files; prints one line per pair. Returns
/// the number of `worse` verdicts.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    let workloads = |v: &Value| -> Result<Vec<(String, Value)>, String> {
        let w = v.get("workloads").and_then(Value::as_object);
        Ok(w.ok_or("no \"workloads\" object: not a results file")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut counts = [0usize; 4];
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let e2e = |r: &Value| {
            r.get("end_to_end")
                .and_then(Value::as_object)
                .map(<[_]>::to_vec)
        };
        let (ma, mb) = (
            e2e(ra).ok_or("no end_to_end")?,
            e2e(rb).ok_or("no end_to_end")?,
        );
        for (metric, va) in &ma {
            let vb = mb.iter().find(|(n, _)| n == metric).map(|(_, v)| v);
            let (Some(sa), Some(sb)) = (sample(va), vb.and_then(sample)) else {
                return Err(format!("{name}/{metric}: missing or malformed in one file"));
            };
            let bound = va
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = va.get("better").and_then(Value::as_str) != Some("higher");
            let verdict = judge(&sa, &sb, lower, bound);
            counts[verdict as usize] += 1;
            println!(
                "{:<10} {name:<13} {metric:<14} {:>12.6} -> {:>12.6}  ({:+.1} %, bound {:.0} %, spreads {:.1} % / {:.1} %)",
                format!("{verdict:?}").to_lowercase(),
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value.abs(),
                100.0 * bound,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
            );
        }
        // Any increase in the share of failed operations is a regression.
        let share = |r: &Value| {
            r.get("failed_ops_share")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (share(ra), share(rb));
        let verdict = if fb > fa || fb.is_nan() {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        counts[verdict as usize] += 1;
        println!(
            "{:<10} {name:<13} failed_ops_share {fa} -> {fb}",
            format!("{verdict:?}").to_lowercase()
        );
    }
    println!(
        "{} same, {} worse, {} better, {} unresolved",
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Sample {
        Sample { value, q1, q3 }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = s(1.0, 0.99, 1.01);
        assert_eq!(
            judge(&base, &s(1.05, 1.04, 1.06), true, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&base, &s(1.2, 1.19, 1.21), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &s(0.8, 0.79, 0.81), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &s(1.2, 1.19, 1.21), false, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_lie_apart() {
        let noisy = s(1.0, 0.9, 1.1);
        assert_eq!(
            judge(&noisy, &s(1.05, 1.0, 1.1), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &s(2.0, 1.8, 2.2), true, 0.10), Verdict::Worse);
    }
}
