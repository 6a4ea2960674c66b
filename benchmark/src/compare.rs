//! `compare <a.json> <b.json>`: one row per workload × end-to-end metric,
//! judged by the rule of choosing-metrics §6–§8.
//!
//! Both files are `results.json` documents this binary wrote, each with
//! several runs per workload. `b` (the change) is *worse* when its median
//! is worse than `a`'s (the parent) by more than the metric's bound;
//! *unresolved* when either side's run-to-run interquartile range is wider
//! than the bound, so the comparison cannot tell; *better* when it wins at
//! least nine tenths of the paired runs (ties count for neither) and the
//! medians differ by more than the parent's interquartile range;
//! otherwise *same*.

use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use rain_serve::json::{parse, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge the change's runs `b` against the parent's runs `a`.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if spread(a) > m.bound || spread(b) > m.bound {
        return Verdict::Unresolved;
    }
    // Positive = the change is worse, as a share of the parent's median.
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > m.bound {
        return Verdict::Worse;
    }
    let wins = |x: f64, y: f64| match m.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|(x, y)| wins(**x, **y)).count();
    let parent_iqr = quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    if pairs > 0 && won * 10 >= pairs * 9 && (ma - mb).abs() > parent_iqr && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Print the comparison table; `Ok(true)` when no row is worse or
/// unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a_median", "b_median", "change%", "a_iqr%", "b_iqr%", "bound%"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {} is missing from one side", w.name, m.name));
            }
            let verdict = judge(m, &va, &vb);
            clean &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<20} {:>12.5} {:>12.5} {:>+8.2} {:>7.2} {:>7.2} {:>6.1}  {:?}",
                w.name,
                m.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * m.bound,
                verdict
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "t_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01];
        let scaled = |f: f64| parent.iter().map(|x| x * f).collect::<Vec<_>>();
        assert_eq!(judge(&LOWER, &parent, &parent), Verdict::Same);
        assert_eq!(judge(&LOWER, &parent, &scaled(1.05)), Verdict::Same);
        assert_eq!(judge(&LOWER, &parent, &scaled(1.2)), Verdict::Worse);
        assert_eq!(judge(&LOWER, &parent, &scaled(0.8)), Verdict::Better);
        // A spread wider than the bound cannot resolve anything.
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0];
        assert_eq!(judge(&LOWER, &noisy, &scaled(1.2)), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        let higher = Metric {
            better: Better::Higher,
            ..LOWER
        };
        assert_eq!(judge(&higher, &parent, &scaled(0.8)), Verdict::Worse);
        assert_eq!(judge(&higher, &parent, &scaled(1.2)), Verdict::Better);
    }
}
