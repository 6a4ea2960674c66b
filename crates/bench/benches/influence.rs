//! Influence-engine benches: Hessian-vector products, the conjugate-
//! gradient inverse-HVP (the paper's "Rank" phase dominator), and
//! per-record scoring at several training-set sizes.

use rain_bench::BenchGroup;
use rain_influence::{inverse_hvp, score_records, InfluenceConfig};
use rain_linalg::RainRng;
use rain_model::{train_lbfgs, Classifier, Dataset, LogisticRegression};

fn blobs(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = RainRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let y = rng.bernoulli(0.5) as usize;
        let mut x = rng.normal_vec(dim, 1.0);
        x[0] += if y == 1 { 1.5 } else { -1.5 };
        rows.push(x);
        labels.push(y);
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(rain_linalg::Matrix::from_rows(&refs), labels, 2)
}

fn bench_influence() {
    let mut g = BenchGroup::new("influence", 20);
    for &n in &[500usize, 2000, 8000] {
        let data = blobs(n, 20, 42);
        let mut model = LogisticRegression::new(20, 0.01);
        train_lbfgs(&mut model, &data, &Default::default());
        let mut rng = RainRng::seed_from_u64(7);
        let v = rng.normal_vec(model.n_params(), 1.0);
        g.bench(&format!("hvp_{}", n), || model.hvp(&data, &v));
        let cfg = InfluenceConfig::default();
        g.bench(&format!("inverse_hvp_cg_{}", n), || {
            inverse_hvp(&model, &data, &v, &cfg)
        });
        let s = inverse_hvp(&model, &data, &v, &cfg).x;
        // A budget of 4; the input decides how much of it is used.
        g.bench(&format!("score_records_{}", n), || {
            score_records(&model, &data, &s, 4)
        });
    }
    g.finish();
}

fn main() {
    bench_influence();
}
