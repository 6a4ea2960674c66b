//! Linearity guard for the wire ingest path: registering 4n rows must
//! cost well under the 16× a quadratic pays — for `json::parse` alone,
//! for `table_from_json`, and for `Table::push_row` with features. The
//! checks are ratios of min-of-3 timings at a size scaled to the build's
//! speed, so they hold in debug builds and on a noisy host; CI also runs
//! this file once in `--release`, the code that ships.

use rain_linalg::Matrix;
use rain_serve::json::{self, Json};
use rain_serve::protocol::table_from_json;
use rain_sql::table::{ColType, Schema, Table};
use rain_sql::Value;
use std::hint::black_box;
use std::time::Instant;

/// Quadratic reads 16×, linear 4×.
const MAX_RATIO: f64 = 8.0;
const BASE_ROWS: usize = 1000;

/// An Adult-shaped upload — id, three categorical string columns, an age
/// decade and 18 one-hot features per row.
fn adult_body(n: usize) -> Json {
    let column = |name: &str, ty: &str, values: Vec<Json>| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("type", Json::str(ty)),
            ("values", Json::Arr(values)),
        ])
    };
    let pick = |words: &[&str], i: usize| Json::str(words[i % words.len()]);
    let genders = ["male", "female"];
    let work = ["private", "self-emp-not-inc", "local-gov", "état"];
    let jobs = ["exec-managerial", "craft-repair", "prof-specialty"];
    Json::obj(vec![
        ("name", Json::str("adult")),
        (
            "columns",
            Json::Arr(vec![
                column("id", "int", (0..n).map(|i| Json::Num(i as f64)).collect()),
                column("gender", "str", (0..n).map(|i| pick(&genders, i)).collect()),
                column("workclass", "str", (0..n).map(|i| pick(&work, i)).collect()),
                column(
                    "occupation",
                    "str",
                    (0..n).map(|i| pick(&jobs, i)).collect(),
                ),
                column(
                    "agedecade",
                    "int",
                    (0..n)
                        .map(|i| Json::Num((20 + 10 * (i % 5)) as f64))
                        .collect(),
                ),
            ]),
        ),
        (
            "features",
            Json::Arr(
                (0..n)
                    .map(|i| {
                        Json::Arr(
                            (0..18)
                                .map(|j| Json::Num(((i + j) % 3 == 0) as u8 as f64))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn min_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Compare `cost(n)` with `cost(4n)`, at an `n` grown until the smaller
/// run is long enough (2 ms) for the clock and the scheduler not to
/// decide the ratio — a release build is ~20× faster than a debug one.
fn assert_linear(what: &str, cost: impl Fn(usize) -> f64) {
    let mut n = BASE_ROWS;
    let mut small = cost(n);
    while small < 2e-3 && n < 1 << 20 {
        n *= 2;
        small = cost(n);
    }
    let large = cost(4 * n);
    let ratio = large / small;
    assert!(
        ratio < MAX_RATIO,
        "{what}: {} rows took {large:.4} s, {n} rows {small:.4} s — {ratio:.1}× for 4× the rows",
        4 * n
    );
}

#[test]
fn json_parse_is_linear_in_body_size() {
    assert_linear("json::parse", |n| {
        let text = adult_body(n).to_string();
        min_of_3(|| {
            black_box(json::parse(&text).unwrap());
        })
    });
}

#[test]
fn table_decode_is_linear_in_rows() {
    assert_linear("table_from_json", |n| {
        let body = adult_body(n);
        min_of_3(|| {
            black_box(table_from_json(&body).unwrap());
        })
    });
}

#[test]
fn push_row_with_features_is_linear_in_rows() {
    assert_linear("Table::push_row", |n| {
        min_of_3(|| {
            let schema = Schema::new(&[("id", ColType::Int), ("tag", ColType::Str)]);
            let mut t = Table::empty(schema).with_features(Matrix::zeros(0, 18));
            let feat = [0.5; 18];
            for i in 0..n {
                t.push_row(
                    vec![Value::Int(i as i64), Value::Str("x".into())],
                    Some(&feat),
                );
            }
            black_box(t.n_rows());
        })
    });
}
