//! Relaxed-provenance benches: evaluating and differentiating the
//! polynomials Holistic builds, at COUNT-over-join scale.

use rain_bench::BenchGroup;
use rain_linalg::RainRng;
use rain_sql::{AggSum, AggTerm, BoolProv, CellProv, Probs};

/// A COUNT cell over an `n_left × n_right` prediction join.
fn join_count_cell(n_left: usize, n_right: usize) -> (CellProv, Probs) {
    let mut terms = Vec::with_capacity(n_left * n_right);
    for l in 0..n_left {
        for r in 0..n_right {
            terms.push((
                BoolProv::PredEq {
                    left: l as u32,
                    right: (n_left + r) as u32,
                },
                AggTerm::One,
            ));
        }
    }
    let mut rng = RainRng::seed_from_u64(42);
    let p = (0..n_left + n_right)
        .flat_map(|_| {
            let hot = rng.below(10);
            (0..10).map(move |c| if c == hot { 0.82 } else { 0.02 })
        })
        .collect();
    (
        CellProv::Sum(std::sync::Arc::new(AggSum { terms })),
        Probs::new(10, p),
    )
}

fn bench_relax() {
    let mut g = BenchGroup::new("relax", 15);
    for &side in &[30usize, 100, 250] {
        let (cell, probs) = join_count_cell(side, side);
        g.bench(&format!("eval_relaxed_{}", side * side), || {
            cell.eval_relaxed(&probs)
        });
        g.bench(&format!("grad_{}", side * side), || cell.grad(&probs));
    }
    g.finish();
}

fn main() {
    bench_relax();
}
