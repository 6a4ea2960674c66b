//! Influence scoring of training records.
//!
//! The pipeline is: (1) a debugger encodes its complaint as a gradient
//! `∇q(θ*)` in parameter space; (2) [`inverse_hvp`] solves the damped system
//! `(H + δI) s = ∇q` via conjugate gradient — or, for a narrow model whose
//! dense Hessian the caller already holds, [`inverse_hvp_with`] solves it
//! by one Cholesky factorization; (3) [`score_records`] computes
//! `score(zᵢ) = -∇ℓ(zᵢ, θ*)·s` for every training record, fanning out only
//! over full shares of work ([`rain_model::par`]); (4) [`rank_top`] picks
//! the `k` highest-scoring records in `O(n)` and orders those alone.

use crate::cg::{cg_solve, CgConfig, CgOutcome};
use rain_linalg::{vecops, Matrix};
use rain_model::{Classifier, Dataset, HvpOp};

/// Parameters of the influence engine.
#[derive(Debug, Clone)]
pub struct InfluenceConfig {
    /// Damping δ added to the Hessian diagonal. Keeps CG well-posed on
    /// non-convex models; 0 is fine for L2-regularized convex models.
    pub damping: f64,
    /// Conjugate-gradient settings.
    pub cg: CgConfig,
    /// Worker budget (`0` = the machine's parallelism) for per-record
    /// scoring and InfLoss's solves. Defaults to 1: a library call stays on
    /// its caller's thread unless told otherwise. The debug driver sets it
    /// to the run's resolved budget (its skeleton cache's, which a server
    /// sets to the session's).
    pub threads: usize,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        InfluenceConfig {
            damping: 0.0,
            cg: CgConfig::default(),
            threads: 1,
        }
    }
}

impl InfluenceConfig {
    /// Settings for non-convex models: damping on, slightly looser CG.
    pub fn for_nonconvex() -> Self {
        InfluenceConfig {
            damping: 0.01,
            cg: CgConfig {
                max_iters: 100,
                rel_tol: 1e-4,
            },
            threads: 1,
        }
    }
}

/// A `(record id, influence score)` pair, sorted descending by score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedRecord {
    /// Stable record id (from [`Dataset::ids`]).
    pub id: usize,
    /// Influence score; larger means "removal helps the complaint more".
    pub score: f64,
}

/// Solve `(H + δI) s = g` where `H` is the Hessian of the model's full
/// training objective on `data`.
///
/// The Hessian operator is built once ([`Classifier::hvp_op`]: whatever
/// depends on the parameters alone is computed here, not per CG iteration).
pub fn inverse_hvp(
    model: &dyn Classifier,
    data: &Dataset,
    g: &[f64],
    cfg: &InfluenceConfig,
) -> CgOutcome {
    inverse_hvp_with(model, data, None, g, cfg)
}

/// [`inverse_hvp`], directly when the caller holds the dense Hessian
/// ([`Classifier::hessian`] of the model on `data`): `(H + δI) s = g` by
/// one Cholesky factorization ([`Matrix::solve_spd`]). The outcome then
/// has `iters` = 0 and the relative residual of one explicit product
/// `(H + δI)·s`. Without a Hessian, or when `H + δI` is not positive
/// definite, it is [`inverse_hvp`]'s conjugate-gradient solve.
///
/// One `inverse_hvp` span either way; the direct solve sets its
/// `dense` counter to 1 and `cg_iters` to 0.
pub fn inverse_hvp_with(
    model: &dyn Classifier,
    data: &Dataset,
    hessian: Option<&Matrix>,
    g: &[f64],
    cfg: &InfluenceConfig,
) -> CgOutcome {
    assert_eq!(
        g.len(),
        model.n_params(),
        "inverse_hvp: gradient length mismatch"
    );
    let mut span = rain_obs::Span::enter("inverse_hvp");
    if let Some(solved) = hessian.and_then(|h| solve_dense(h, g, cfg.damping)) {
        span.add("cg_iters", 0);
        span.add("dense", 1);
        span.add("rel_residual_e9", (solved.rel_residual * 1e9) as u64);
        return solved;
    }
    let hessian = model.hvp_op(data);
    let (solved, hvp_calls) = solve_damped(&hessian, g, cfg);
    span.add("cg_iters", solved.iters as u64);
    span.add("rel_residual_e9", (solved.rel_residual * 1e9) as u64);
    span.add("hvp_calls", hvp_calls);
    solved
}

/// Cholesky on `(H + δI) s = g`; `None` when the matrix is not positive
/// definite.
fn solve_dense(hessian: &Matrix, g: &[f64], damping: f64) -> Option<CgOutcome> {
    let mut damped = hessian.clone();
    for j in 0..damped.rows() {
        damped.set(j, j, damped.get(j, j) + damping);
    }
    let x = damped.solve_spd(g)?;
    let bnorm = vecops::norm2(g);
    let residual = vecops::sub(&damped.matvec(&x), g);
    let rel_residual = if bnorm == 0.0 {
        0.0
    } else {
        vecops::norm2(&residual) / bnorm
    };
    Some(CgOutcome {
        x,
        iters: 0,
        rel_residual,
        converged: true,
    })
}

/// CG on `(H + δI) s = g` for an already-built Hessian operator; also
/// returns how many times the operator was applied.
fn solve_damped(hessian: &HvpOp<'_>, g: &[f64], cfg: &InfluenceConfig) -> (CgOutcome, u64) {
    let calls = std::cell::Cell::new(0u64);
    let solved = cg_solve(
        |v| {
            calls.set(calls.get() + 1);
            let mut hv = hessian(v);
            if cfg.damping != 0.0 {
                vecops::axpy(cfg.damping, v, &mut hv);
            }
            hv
        },
        g,
        &cfg.cg,
    );
    (solved, calls.get())
}

/// Score every training record against a solved direction `s = H⁻¹∇q`:
/// `score(zᵢ) = -∇ℓ(zᵢ)·s`. Returns scores aligned with `data` rows.
///
/// One batched [`Classifier::grad_dots_into`] pass under a `threads`
/// budget (`0` = the machine's parallelism), fanned out only over full
/// shares of `rows × n_params` work ([`rain_model::par::shard_rows`]).
/// Shares own disjoint slices of the output, so scores are identical at
/// every budget.
pub fn score_records(
    model: &dyn Classifier,
    data: &Dataset,
    s: &[f64],
    threads: usize,
) -> Vec<f64> {
    let mut span = rain_obs::Span::enter("score_records");
    span.add("rows", data.len() as u64);
    let mut scores = vec![0.0; data.len()];
    let pass = |start, out: &mut [f64]| model.grad_dots_into(data, start, s, out);
    rain_model::par::shard_rows(&mut span, &mut scores, model.n_params(), threads, pass);
    for score in &mut scores {
        *score = -*score;
    }
    scores
}

/// Self-influence scores (the `InfLoss` baseline, §6.1.1):
/// `score(zᵢ) = -∇ℓ(zᵢ)ᵀ H⁻¹ ∇ℓ(zᵢ)`, one CG solve per record.
///
/// This is deliberately expensive — the paper reports it as the slowest
/// method by far — so the records are distributed over a shared work queue
/// (uneven CG convergence makes static chunking unbalanced), one worker
/// per record up to the resolved `cfg.threads` budget (`0` = the
/// machine's parallelism). All `n` solves share one Hessian operator.
pub fn self_influence_scores(
    model: &dyn Classifier,
    data: &Dataset,
    cfg: &InfluenceConfig,
) -> Vec<f64> {
    let n = data.len();
    let hessian = model.hvp_op(data);
    let scores: Vec<std::sync::Mutex<f64>> = (0..n).map(|_| std::sync::Mutex::new(0.0)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = rain_model::par::resolve_threads(cfg.threads).clamp(1, n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let g = model.example_grad(data.x(i), data.y(i));
                let (solved, _) = solve_damped(&hessian, &g, cfg);
                *scores[i].lock().expect("score slot poisoned") = -vecops::dot(&g, &solved.x);
            });
        }
    });
    scores
        .into_iter()
        .map(|m| m.into_inner().expect("score slot poisoned"))
        .collect()
}

/// Every record, in [`rank_top`]'s order.
pub fn rank_descending(data: &Dataset, scores: &[f64]) -> Vec<RankedRecord> {
    rank_top(data, scores, data.len())
}

/// The `k` top-ranked records (all of them when `k` ≥ `data.len()`),
/// descending by score, ties broken by id for determinism. A NaN score (a
/// diverged model or solve) ranks as -∞: a record whose influence could
/// not be computed is never proposed ahead of one whose could. One `O(n)`
/// selection of the top `k`, then a sort of those `k` alone.
pub fn rank_top(data: &Dataset, scores: &[f64], k: usize) -> Vec<RankedRecord> {
    assert_eq!(scores.len(), data.len());
    let mut ranked: Vec<RankedRecord> = scores
        .iter()
        .enumerate()
        .map(|(i, &score)| RankedRecord {
            id: data.id(i),
            score,
        })
        .collect();
    // (key desc, id asc) is a total order over distinct ids, so the
    // unstable selection and sort have exactly one answer. `+ 0.0` folds
    // -0.0 into +0.0: the two compare equal as numbers and must tie (then
    // order by id), which `total_cmp` alone would not do — and it would
    // put a positive NaN first, so NaN sorts as -∞.
    let key = |score: f64| {
        if score.is_nan() {
            f64::NEG_INFINITY
        } else {
            score + 0.0
        }
    };
    let order = |a: &RankedRecord, b: &RankedRecord| {
        key(b.score).total_cmp(&key(a.score)).then(a.id.cmp(&b.id))
    };
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_linalg::{Matrix, RainRng};
    use rain_model::{train_lbfgs, LbfgsConfig, LogisticRegression};

    /// Two Gaussian blobs plus a handful of deliberately flipped labels.
    fn blobs_with_flips(n: usize, flips: usize, seed: u64) -> (Dataset, Vec<usize>) {
        let mut rng = RainRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.bernoulli(0.5) as usize;
            let shift = if y == 1 { 1.5 } else { -1.5 };
            rows.push(vec![rng.normal() + shift, rng.normal() + shift]);
            labels.push(y);
        }
        let mut flipped = Vec::new();
        for i in 0..flips {
            let idx = i * (n / flips.max(1));
            labels[idx] = 1 - labels[idx];
            flipped.push(idx);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Dataset::new(Matrix::from_rows(&refs), labels, 2), flipped)
    }

    fn fitted(data: &Dataset) -> LogisticRegression {
        let mut m = LogisticRegression::new(data.dim(), 0.05);
        train_lbfgs(&mut m, data, &LbfgsConfig::default());
        m
    }

    #[test]
    fn inverse_hvp_satisfies_the_system() {
        let (data, _) = blobs_with_flips(120, 0, 1);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(2);
        let g = rng.normal_vec(m.n_params(), 1.0);
        let cfg = InfluenceConfig::default();
        let out = inverse_hvp(&m, &data, &g, &cfg);
        assert!(out.converged);
        let back = m.hvp(&data, &out.x);
        assert!(vecops::approx_eq(&back, &g, 1e-4), "{back:?} vs {g:?}");
    }

    #[test]
    fn a_dense_solve_needs_a_positive_definite_hessian() {
        let (data, _) = blobs_with_flips(120, 4, 5);
        let m = fitted(&data);
        let g = vec![1.0; m.n_params()];
        let cfg = InfluenceConfig::default();
        let dense = inverse_hvp_with(&m, &data, Some(&m.hessian(&data)), &g, &cfg);
        assert_eq!(dense.iters, 0);
        assert!(dense.converged && dense.rel_residual < 1e-12);
        // Not positive definite: the conjugate-gradient solve instead.
        let mut negated = m.hessian(&data);
        vecops::scale(negated.as_mut_slice(), -1.0);
        let fallback = inverse_hvp_with(&m, &data, Some(&negated), &g, &cfg);
        let cg = inverse_hvp(&m, &data, &g, &cfg);
        assert!(fallback.iters >= 1);
        assert_eq!(fallback.x, cg.x);
    }

    #[test]
    fn damping_changes_the_solution_consistently() {
        let (data, _) = blobs_with_flips(80, 0, 3);
        let m = fitted(&data);
        let g = vec![1.0; m.n_params()];
        let plain = inverse_hvp(&m, &data, &g, &InfluenceConfig::default());
        let damped = inverse_hvp(
            &m,
            &data,
            &g,
            &InfluenceConfig {
                damping: 10.0,
                ..Default::default()
            },
        );
        // Heavier damping shrinks the solution norm.
        assert!(vecops::norm2(&damped.x) < vecops::norm2(&plain.x));
    }

    #[test]
    fn parallel_scoring_matches_serial() {
        // Wide enough (rows × n_params) to give several workers a full
        // share; the small blobs elsewhere in this file score serially.
        let mut rng = RainRng::seed_from_u64(4);
        let (n, dim, classes) = (6400, 249, 8);
        let x = Matrix::from_vec(n, dim, rng.normal_vec(n * dim, 1.0));
        let labels = (0..n).map(|_| rng.below(classes)).collect();
        let data = Dataset::new(x, labels, classes);
        let mut m = rain_model::SoftmaxRegression::new(dim, classes, 0.01);
        let shares = n * m.n_params() / rain_model::par::MIN_WORK_PER_WORKER;
        assert_eq!(shares, 3);
        m.set_params(&rng.normal_vec(m.n_params(), 0.1));
        let s = rng.normal_vec(m.n_params(), 1.0);
        let serial = score_records(&m, &data, &s, 1);
        // The budget is a ceiling, the input decides below it: never more
        // workers than asked, never more than have a full share of work.
        // `0` is the machine's parallelism, like every budget.
        let machine = rain_model::par::resolve_threads(0).min(shares);
        for (threads, workers) in [(0, machine), (2, 2), (64, shares)] {
            let trace = rain_obs::Trace::start("budget");
            assert_eq!(score_records(&m, &data, &s, threads), serial, "{threads}");
            let tree = trace.finish();
            let span = tree.find("score_records").expect("score_records span");
            assert_eq!(
                span.counters,
                [("rows", n as u64), ("workers", workers as u64)]
            );
        }
    }

    #[test]
    fn small_inputs_score_on_the_callers_thread() {
        // 120 rows × 3 parameters: not one worker's share, whatever the budget.
        let (data, _) = blobs_with_flips(120, 0, 5);
        let m = fitted(&data);
        let s = vec![1.0; m.n_params()];
        let trace = rain_obs::Trace::start("budget");
        score_records(&m, &data, &s, 8);
        let tree = trace.finish();
        let span = tree.find("score_records").expect("score_records span");
        assert_eq!(span.counters, [("rows", 120), ("workers", 1)]);
    }

    #[test]
    fn influence_matches_leave_one_out_direction() {
        // The influence approximation of removing record z should correlate
        // with the true leave-one-out change in a probe function. Use
        // q(θ) = mean predicted P(class 1) over a probe set.
        let (data, _) = blobs_with_flips(60, 6, 6);
        let m = fitted(&data);
        let probe: Vec<usize> = (0..10).collect();
        // ∇q = (1/|probe|) Σ ∇p₁(xᵢ)
        let mut gq = vec![0.0; m.n_params()];
        for &i in &probe {
            vecops::axpy(0.1, &m.grad_proba(data.x(i), 1), &mut gq);
        }
        let cfg = InfluenceConfig::default();
        let s = inverse_hvp(&m, &data, &gq, &cfg).x;
        let scores = score_records(&m, &data, &s, 1);
        let q_of = |model: &LogisticRegression| -> f64 {
            probe
                .iter()
                .map(|&i| model.predict_proba(data.x(i))[1])
                .sum::<f64>()
                / 10.0
        };
        let q0 = q_of(&m);
        // Spot-check a few leave-one-out retrainings.
        let mut agree = 0;
        let mut total = 0;
        for i in (10..60).step_by(10) {
            let reduced = data.select(&(0..data.len()).filter(|&j| j != i).collect::<Vec<_>>());
            let mut m2 = m.clone();
            train_lbfgs(&mut m2, &reduced, &LbfgsConfig::default());
            let dq = q_of(&m2) - q0;
            // score(z) = -∇q H⁻¹ ∇ℓ ≈ n·(q(θ₋z) - q(θ)) up to sign conv:
            // removal Δθ ≈ (1/n)H⁻¹∇ℓ ⇒ Δq ≈ (1/n)∇qᵀH⁻¹∇ℓ = -(1/n)score.
            let predicted = -scores[i] / data.len() as f64;
            total += 1;
            if (dq > 0.0) == (predicted > 0.0) || dq.abs() < 1e-6 {
                agree += 1;
            }
        }
        assert!(agree >= total - 1, "sign agreement {agree}/{total}");
    }

    #[test]
    fn self_influence_ranks_isolated_flips_high() {
        // With few corruptions the model does NOT overfit them, so
        // self-influence should place flipped records near the top
        // (this is the regime where InfLoss works, per §6.2).
        let (data, flipped) = blobs_with_flips(100, 4, 7);
        let m = fitted(&data);
        let cfg = InfluenceConfig {
            threads: 2,
            ..Default::default()
        };
        let scores = self_influence_scores(&m, &data, &cfg);
        // InfLoss ranks most-negative first.
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
        let top20: std::collections::HashSet<usize> = order[..20].iter().copied().collect();
        let hit = flipped.iter().filter(|i| top20.contains(i)).count();
        assert!(hit >= 3, "found {hit}/4 flips in top 20");
    }

    #[test]
    fn rank_descending_ties_signed_zeros_and_orders_by_id() {
        let data = Dataset::new(
            Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]),
            vec![0, 1, 1],
            2,
        );
        let ids: Vec<usize> = rank_descending(&data, &[-0.0, 1.0, 0.0])
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![1, 0, 2]);
    }

    #[test]
    fn rank_descending_puts_nan_last() {
        let data = Dataset::new(
            Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]),
            vec![0, 1, 1, 0],
            2,
        );
        let scores = [f64::NAN, -5.0, -f64::NAN, 2.0];
        let ids: Vec<usize> = rank_descending(&data, &scores)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![3, 1, 0, 2]);
    }

    #[test]
    fn rank_top_is_the_prefix_of_the_full_order() {
        // The reference order, written out: score descending with -0.0 and
        // +0.0 equal and every NaN equal to -∞, then id ascending.
        fn reference(data: &Dataset, scores: &[f64]) -> Vec<(usize, u64)> {
            let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| {
                let (ka, kb) = (key(scores[a]), key(scores[b]));
                kb.partial_cmp(&ka)
                    .unwrap()
                    .then(data.id(a).cmp(&data.id(b)))
            });
            order
                .iter()
                .map(|&i| (data.id(i), scores[i].to_bits()))
                .collect()
        }
        let bits = |r: Vec<RankedRecord>| -> Vec<(usize, u64)> {
            r.iter().map(|r| (r.id, r.score.to_bits())).collect()
        };
        let mut rng = RainRng::seed_from_u64(17);
        let pool = [
            1.0,
            -1.0,
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for n in [0, 1, 2, 7, 64, 300] {
            let x = Matrix::zeros(n, 1);
            let mut ids: Vec<usize> = (0..n).map(|i| 5 * i + 2).collect();
            rng.shuffle(&mut ids);
            let data = Dataset::with_ids(x, vec![0; n], ids, 2);
            // Heavy ties from the pool, plus distinct draws.
            let scores: Vec<f64> = (0..n)
                .map(|_| match rng.below(3) {
                    0 => rng.normal(),
                    _ => pool[rng.below(pool.len())],
                })
                .collect();
            let full = reference(&data, &scores);
            assert_eq!(bits(rank_descending(&data, &scores)), full, "n {n}");
            for k in [0, 1, n / 2, n, n + 5] {
                let top = bits(rank_top(&data, &scores, k));
                assert_eq!(top, full[..k.min(n)], "n {n}, k {k}");
            }
        }
    }

    #[test]
    fn rank_descending_is_deterministic_under_ties() {
        let data = {
            let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
            Dataset::new(m, vec![0, 1, 1], 2)
        };
        let ranked = rank_descending(&data, &[1.0, 1.0, 0.5]);
        assert_eq!(ranked[0].id, 0);
        assert_eq!(ranked[1].id, 1);
        assert_eq!(ranked[2].id, 2);
    }
}
