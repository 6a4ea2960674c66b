//! Vector kernels over `&[f64]` slices.
//!
//! These are the inner loops of training, Hessian-vector products and
//! conjugate gradient. They assert matching lengths (a programming error,
//! not a recoverable condition) and then iterate with `zip` so release
//! builds vectorize without bounds checks.

/// Independent partial sums [`dot`] keeps. A single running sum is one
/// dependent chain of float adds (the compiler may not reassociate it), so
/// it runs at add latency; four chains vectorize as two SSE2 pairs and
/// measured fastest at every length from 8 to 784 (eight were a third
/// slower on the baseline x86-64 target).
const DOT_LANES: usize = 4;

/// Dot product `xᵀy`.
///
/// Accumulates `DOT_LANES` interleaved partial sums and combines them in
/// a fixed order, so the result is deterministic — but it is *not* the
/// left-to-right sum (it differs from it by rounding).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let (xc, yc) = (x.chunks_exact(DOT_LANES), y.chunks_exact(DOT_LANES));
    let tail: f64 = xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let mut acc = [0.0; DOT_LANES];
    for (a, b) in xc.zip(yc) {
        for l in 0..DOT_LANES {
            acc[l] += a[l] * b[l];
        }
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// `y += alpha * x` (the BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise sum `x + y` into a new vector.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x - y` into a new vector.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Infinity norm `max |xᵢ|` (0 for the empty vector).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Fill `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    for xi in x {
        *xi = 0.0;
    }
}

/// Copy `src` into `dst`.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Linear combination `a*x + b*y` into a new vector.
#[inline]
pub fn lincomb(a: f64, x: &[f64], b: f64, y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "lincomb: length mismatch");
    x.iter().zip(y).map(|(xi, yi)| a * xi + b * yi).collect()
}

/// Index of the maximum element (first one on ties).
///
/// Returns `None` for an empty slice. NaN entries never win.
#[inline]
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, b)) if v <= b => {}
            _ if v.is_nan() => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// True when `x` and `y` agree element-wise within absolute tolerance `tol`.
#[inline]
pub fn approx_eq(x: &[f64], y: &[f64], tol: f64) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_sequential_sum_at_every_remainder() {
        // Lengths around the lane width: whole chunks, a tail, both.
        for n in 0..40usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() + 0.5).collect();
            let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!(
                (dot(&x, &y) - seq).abs() <= 1e-13 * (1.0 + seq.abs()),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, -0.5);
        assert_eq!(x, vec![-0.5, 1.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.0, 2.0, 3.0];
        let y = [0.5, -0.5, 1.5];
        assert_eq!(sub(&add(&x, &y), &y), x.to_vec());
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn argmax_handles_ties_and_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn lincomb_matches_manual() {
        assert_eq!(
            lincomb(2.0, &[1.0, 0.0], -1.0, &[0.0, 3.0]),
            vec![2.0, -3.0]
        );
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(&[1.0], &[1.0 + 1e-12], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1.0));
    }
}
