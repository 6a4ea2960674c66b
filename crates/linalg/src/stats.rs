//! Small statistics helpers used by metrics and workload generators.

/// Arithmetic mean (0 for the empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (0 for slices shorter than 2).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Compensated (Kahan) summation; keeps error O(1) regardless of length.
pub fn kahan_sum(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut c = 0.0;
    for &x in xs {
        let y = x - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

/// Numerically-stable log-sum-exp.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, stable for large |x|.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Softmax of a slice into a fresh vector (stable; sums to 1).
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] overwriting its input — for kernels that reuse one logits
/// buffer across rows.
pub fn softmax_in_place(xs: &mut [f64]) {
    let lse = log_sum_exp(xs);
    for x in xs {
        *x = (*x - lse).exp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kahan_beats_naive_on_cancellation() {
        // 1 + 1e-16 repeated: naive sum loses the small terms.
        let mut xs = vec![1.0];
        xs.extend(std::iter::repeat_n(1e-16, 10_000));
        let k = kahan_sum(&xs);
        assert!((k - (1.0 + 1e-12)).abs() < 1e-13, "kahan {k}");
    }

    #[test]
    fn log_sum_exp_is_stable() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn sigmoid_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(60.0) > 1.0 - 1e-12);
        assert!(sigmoid(-60.0) < 1e-12);
        // symmetry
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // stability under huge inputs
        let q = softmax(&[1e4, 1e4]);
        assert!((q[0] - 0.5).abs() < 1e-12);
    }
}
