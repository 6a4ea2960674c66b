//! The batched kernels against their per-example definitions.
//!
//! `loss_grad`, `hvp_op`, `hessian`, `grad_proba_weighted`, `grad_dots_into`
//! and the batched predict paths are what train and rank run; the per-example
//! trait methods (`example_loss`, `example_grad_into`, `grad_proba`,
//! per-row `predict`) are what they are defined by. Every model must agree
//! with its own definition on seeded random data and on the shapes that
//! break hand-unrolled loops.

use rain_linalg::{vecops, Matrix, RainRng};
use rain_model::model::check;
use rain_model::{Classifier, Dataset, LogisticRegression, Mlp, SoftmaxRegression};

/// `n` rows of dimension `d` with labels below `classes`; every fifth row
/// is all zeros.
fn random_data(n: usize, d: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = RainRng::seed_from_u64(seed);
    let mut x = Matrix::from_vec(n, d, rng.normal_vec(n * d, 1.0));
    for i in (0..n).step_by(5) {
        vecops::zero(x.row_mut(i));
    }
    let labels = (0..n).map(|_| rng.below(classes)).collect();
    Dataset::new(x, labels, classes)
}

/// The four model kinds at dimension `d`, with seeded non-trivial
/// parameters of magnitude `scale`.
fn models(d: usize, scale: f64, seed: u64) -> Vec<Box<dyn Classifier>> {
    let mut rng = RainRng::seed_from_u64(seed);
    let mut out: Vec<Box<dyn Classifier>> = vec![
        Box::new(LogisticRegression::new(d, 0.01)),
        Box::new(LogisticRegression::without_bias(d, 0.01)),
        Box::new(SoftmaxRegression::new(d, 3, 0.01)),
        Box::new(Mlp::new(d, 6, 3, 0.01, seed)),
    ];
    for m in &mut out {
        m.set_params(&rng.normal_vec(m.n_params(), scale));
    }
    out
}

/// Shapes: empty, single row, and dimensions on both sides of the dot
/// kernel's accumulator width (4) and of a whole number of chunks.
const SHAPES: [(usize, usize); 8] = [
    (0, 5),
    (1, 5),
    (2, 1),
    (37, 3),
    (37, 4),
    (37, 7),
    (64, 9),
    (50, 13),
];

fn assert_close(got: &[f64], want: &[f64], rel: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = 1.0 + vecops::norm_inf(want);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= rel * scale,
            "{what}: element {i}: {g} vs {w}"
        );
    }
}

#[test]
fn loss_grad_matches_the_per_example_definition() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        for m in models(d, 0.5, si as u64) {
            let data = random_data(n, d, m.n_classes(), 100 + si as u64);
            let what = format!("{} n={n} d={d}", m.name());
            let (loss, grad) = m.loss_grad(&data);
            let (ref_loss, ref_grad) = check::per_example_loss_grad(m.as_ref(), &data);
            assert_close(&[loss], &[ref_loss], 1e-12, &format!("{what}: loss"));
            assert_close(&grad, &ref_grad, 1e-12, &format!("{what}: grad"));
            // The halves are the fused pass, exactly.
            assert_eq!(m.loss(&data), loss, "{what}: loss()");
            assert_eq!(m.grad(&data), grad, "{what}: grad()");
        }
    }
}

#[test]
fn loss_grad_stays_finite_and_exact_at_saturated_logits() {
    // One feature, weights of ±700: margins/logits of ±700 saturate the
    // sigmoid and softmax to exactly 0 and 1, where the loss clamps.
    let data = Dataset::new(
        Matrix::from_rows(&[&[1.0], &[-1.0], &[1.0], &[0.0]]),
        vec![1, 1, 0, 0],
        2,
    );
    let mut lr = LogisticRegression::new(1, 0.0);
    lr.set_params(&[700.0, 0.0]);
    let mut sm = SoftmaxRegression::new(1, 2, 0.0);
    // Flat layout (dim+1) × C: feature row [-700, 700], bias row [0, 0].
    sm.set_params(&[-700.0, 700.0, 0.0, 0.0]);
    for m in [&lr as &dyn Classifier, &sm] {
        let (loss, grad) = m.loss_grad(&data);
        let (ref_loss, ref_grad) = check::per_example_loss_grad(m, &data);
        assert!(
            loss.is_finite() && grad.iter().all(|g| g.is_finite()),
            "{}",
            m.name()
        );
        assert_close(&[loss], &[ref_loss], 1e-12, m.name());
        assert_close(&grad, &ref_grad, 1e-12, m.name());
        // Two of four records are confidently wrong: clamped at -ln 1e-12.
        assert!(loss > 0.4 * -(1e-12f64.ln()), "{}: loss {loss}", m.name());
        let hv = m.hvp(&data, &vec![1.0; m.n_params()]);
        assert!(hv.iter().all(|h| h.is_finite()), "{}: hvp", m.name());
    }
}

#[test]
fn hvp_op_matches_finite_differences_and_is_symmetric() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        for m in models(d, 0.3, 10 + si as u64) {
            let data = random_data(n, d, m.n_classes(), 200 + si as u64);
            let what = format!("{} n={n} d={d}", m.name());
            let mut rng = RainRng::seed_from_u64(300 + si as u64);
            // Small directions stay clear of the MLP's ReLU kinks.
            let v = rng.normal_vec(m.n_params(), 0.1);
            let w = rng.normal_vec(m.n_params(), 0.1);
            let op = m.hvp_op(&data);
            let (hv, hw) = (op(&v), op(&w));
            // One operator, many applications: `hvp` is one of them.
            assert_eq!(m.hvp(&data, &v), hv, "{what}: hvp == hvp_op");
            assert_eq!(op(&v), hv, "{what}: repeatable");
            let fd = check::fd_hvp(m.as_ref(), &data, &v, 1e-6);
            let tol = if m.name() == "mlp" { 1e-3 } else { 1e-6 };
            assert_close(&hv, &fd, tol, &format!("{what}: fd"));
            let (vhw, whv) = (vecops::dot(&v, &hw), vecops::dot(&w, &hv));
            assert!(
                (vhw - whv).abs() <= 1e-10 * (1.0 + vhw.abs()),
                "{what}: symmetry {vhw} vs {whv}"
            );
        }
    }
}

#[test]
fn logistic_hessian_is_its_hvp_columns_and_finite_differences() {
    // The closed form runs rows in blocks: 300 rows cross two block
    // boundaries and end on a partial block.
    let shapes = SHAPES.iter().copied().chain([(300, 6), (300, 17)]);
    for (si, (n, d)) in shapes.enumerate() {
        let mut rng = RainRng::seed_from_u64(700 + si as u64);
        let models = [
            ("bias", LogisticRegression::new(d, 0.01)),
            ("no bias", LogisticRegression::without_bias(d, 0.01)),
        ];
        for (bias, mut m) in models {
            m.set_params(&rng.normal_vec(m.n_params(), 0.5));
            let data = random_data(n, d, 2, 800 + si as u64);
            let what = format!("logistic ({bias}) n={n} d={d}");
            let h = m.hessian(&data);
            let reference = check::hessian_from_hvp(&m, &data);
            assert_eq!((h.rows(), h.cols()), (m.n_params(), m.n_params()));
            assert_close(h.as_slice(), reference.as_slice(), 1e-12, &what);
            for j in 0..m.n_params() {
                let fd = check::fd_hvp(&m, &data, &unit(m.n_params(), j), 1e-5);
                let col: Vec<f64> = (0..m.n_params()).map(|i| h.get(i, j)).collect();
                assert_close(&col, &fd, 1e-4, &format!("{what}: column {j} vs fd"));
            }
        }
    }
}

#[test]
fn default_hessian_is_symmetric() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        let mut m = SoftmaxRegression::new(d, 3, 0.01);
        m.set_params(&RainRng::seed_from_u64(900 + si as u64).normal_vec(m.n_params(), 0.5));
        let data = random_data(n, d, 3, 950 + si as u64);
        let h = m.hessian(&data);
        let scale = 1.0 + vecops::norm_inf(h.as_slice());
        for i in 0..m.n_params() {
            for j in 0..i {
                assert!(
                    (h.get(i, j) - h.get(j, i)).abs() <= 1e-12 * scale,
                    "softmax n={n} d={d}: H[{i}][{j}] {} vs H[{j}][{i}] {}",
                    h.get(i, j),
                    h.get(j, i)
                );
            }
        }
    }
}

/// The `j`-th unit vector of length `n`.
fn unit(n: usize, j: usize) -> Vec<f64> {
    let mut e = vec![0.0; n];
    e[j] = 1.0;
    e
}

#[test]
fn batched_predict_equals_per_row_predict() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        for m in models(d, 2.0, 20 + si as u64) {
            let data = random_data(n, d, m.n_classes(), 400 + si as u64);
            let x = data.features();
            let per_row: Vec<usize> = (0..n).map(|i| m.predict(x.row(i))).collect();
            assert_eq!(m.predict_batch(x), per_row, "{} n={n} d={d}", m.name());
            for chunk in [1usize, 7, 64] {
                let mut out = vec![0usize; n];
                for start in (0..n).step_by(chunk) {
                    let end = (start + chunk).min(n);
                    m.predict_range_into(x, start, &mut out[start..end]);
                }
                assert_eq!(out, per_row, "{} chunk={chunk}", m.name());
            }
        }
    }
}

#[test]
fn predict_proba_into_overwrites_and_equals_predict_proba() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        for m in models(d, 2.0, 50 + si as u64) {
            let data = random_data(n, d, m.n_classes(), 700 + si as u64);
            // A dirty buffer, reused across rows: the output is
            // overwritten, never accumulated into.
            let mut out = vec![f64::NAN; m.n_classes()];
            for i in 0..n {
                m.predict_proba_into(data.x(i), &mut out);
                let want = m.predict_proba(data.x(i));
                assert_eq!(
                    out.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    "{} n={n} d={d} row {i}",
                    m.name()
                );
                assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn grad_dots_match_materialized_example_grads() {
    for (si, &(n, d)) in SHAPES.iter().enumerate() {
        for m in models(d, 0.5, 30 + si as u64) {
            let data = random_data(n, d, m.n_classes(), 500 + si as u64);
            let mut rng = RainRng::seed_from_u64(600 + si as u64);
            let v = rng.normal_vec(m.n_params(), 1.0);
            let want: Vec<f64> = (0..n)
                .map(|i| vecops::dot(&m.example_grad(data.x(i), data.y(i)), &v))
                .collect();
            let mut got = vec![0.0; n];
            m.grad_dots_into(&data, 0, &v, &mut got);
            assert_close(&got, &want, 1e-12, m.name());
            // A range in the middle lands on the same values.
            if n >= 10 {
                let mut mid = vec![0.0; 5];
                m.grad_dots_into(&data, 3, &v, &mut mid);
                assert_eq!(mid, got[3..8], "{}", m.name());
            }
        }
    }
}

#[test]
fn weighted_grad_proba_is_the_weighted_sum_of_grad_probas() {
    for m in models(7, 0.5, 40) {
        let mut rng = RainRng::seed_from_u64(41);
        let x = rng.normal_vec(7, 1.0);
        let weights = rng.normal_vec(m.n_classes(), 1.0);
        let mut want = vec![0.0; m.n_params()];
        for (c, &w) in weights.iter().enumerate() {
            let g = m.grad_proba(&x, c);
            let fd = check::fd_grad_proba(m.as_ref(), &x, c, 1e-6);
            assert_close(&g, &fd, 1e-5, &format!("{} class {c}", m.name()));
            vecops::axpy(w, &g, &mut want);
        }
        // Accumulates: start from a non-zero buffer.
        let base = rng.normal_vec(m.n_params(), 1.0);
        let mut got = base.clone();
        m.grad_proba_weighted(&x, &weights, &mut got);
        assert_close(&vecops::sub(&got, &base), &want, 1e-12, m.name());
    }
}
