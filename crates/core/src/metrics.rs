//! Evaluation metrics: recall@k curves and AUCCR (paper §6.1.5).

use std::collections::HashSet;

/// Recall curve `r_k` for `k = 1..=K` where `K = truth.len()`:
/// the fraction of ground-truth corrupted ids found in the first `k`
/// returned records. If fewer than `K` records were returned, the curve
/// plateaus at its final value.
pub fn recall_curve(returned: &[usize], truth: &[usize]) -> Vec<f64> {
    let truth_set: HashSet<usize> = truth.iter().copied().collect();
    let k_max = truth.len();
    if k_max == 0 {
        return Vec::new();
    }
    let mut curve = Vec::with_capacity(k_max);
    let mut hits = 0usize;
    for k in 0..k_max {
        if let Some(id) = returned.get(k) {
            if truth_set.contains(id) {
                hits += 1;
            }
        }
        curve.push(hits as f64 / k_max as f64);
    }
    curve
}

/// AUCCR: the normalized area under the corruption-recall curve,
/// `AUC = (2/K) Σ_{k=1..K} r_k` (§6.1.5). A method that recovers every
/// corruption immediately scores `(K + 1) / K` — `auccr(truth, truth)`,
/// 1.2 at K = 5 — not 1; random performance scores ≈ the corruption base
/// rate.
pub fn auccr(returned: &[usize], truth: &[usize]) -> f64 {
    let curve = recall_curve(returned, truth);
    if curve.is_empty() {
        return 0.0;
    }
    2.0 * curve.iter().sum::<f64>() / curve.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_has_unit_auc() {
        let truth = vec![5, 6, 7, 8];
        let curve = recall_curve(&[5, 6, 7, 8, 1, 2], &truth);
        assert_eq!(curve, vec![0.25, 0.5, 0.75, 1.0]);
        let auc = auccr(&[5, 6, 7, 8], &truth);
        // (2/4)(0.25+0.5+0.75+1.0) = 1.25 — slightly above 1 by the
        // paper's normalization; perfect is the max achievable.
        assert!((auc - 1.25).abs() < 1e-12);
    }

    #[test]
    fn worst_ranking_is_zero() {
        let truth = vec![1, 2];
        assert_eq!(recall_curve(&[9, 8], &truth), vec![0.0, 0.0]);
        assert_eq!(auccr(&[9, 8], &truth), 0.0);
    }

    #[test]
    fn short_returned_list_plateaus() {
        let truth = vec![1, 2, 3, 4];
        let curve = recall_curve(&[1], &truth);
        assert_eq!(curve, vec![0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn interleaved_ranking() {
        let truth = vec![1, 2];
        let curve = recall_curve(&[1, 9, 2], &truth);
        assert_eq!(curve, vec![0.5, 0.5]);
    }

    #[test]
    fn empty_truth_is_empty_curve() {
        assert!(recall_curve(&[1, 2], &[]).is_empty());
        assert_eq!(auccr(&[1, 2], &[]), 0.0);
    }
}
