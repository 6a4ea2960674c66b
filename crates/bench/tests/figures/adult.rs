//! Adult multi-query experiment: Figure 8 (§6.5).

use super::setups::{budget, run, Row, SEED};
use rain_core::prelude::*;
use rain_data::adult::{AdultConfig, N_FEATURES};
use rain_data::flip_labels_where;
use rain_model::LogisticRegression;
use rain_sql::{run_query, Database, ExecOptions, QueryOutput, Value};

const Q6: &str = "SELECT AVG(predict(*)) FROM adult GROUP BY gender";
const Q7: &str = "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade";

/// Figure 8: complaints over Q6 (gender groups) and Q7 (age-decade
/// groups), individually and combined. Corruption flips `a` of the
/// (low-income ∧ male ∧ 40–50) training records to high income. A row's
/// setting is `"{rate} {gender|age|both}"`.
pub fn fig8(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let rates: &[f64] = if quick { &[0.5] } else { &[0.3, 0.5] };
    for &rate in rates {
        let cfg = if quick {
            AdultConfig::small()
        } else {
            AdultConfig::default()
        };
        let w = cfg.generate(SEED);
        let mut train = w.train.clone();
        let pred = w.corruption_predicate();
        let truth = flip_labels_where(&mut train, |id, x, y| pred(id, x, y), rate, |_| 1, SEED);
        drop(pred);
        let mut db = Database::new();
        db.register("adult", w.query_table());

        // Locate the complained-about groups and their ground-truth
        // values. "Ground truth" for a monitoring complaint is the value
        // the query produces *without* the corruption — the customer is
        // comparing against last month's chart (§2.1), not against labels
        // a hard-thresholded classifier never reproduces exactly.
        let mut clean_model = LogisticRegression::new(N_FEATURES, 0.01);
        rain_model::train_lbfgs(&mut clean_model, &w.train, &Default::default());
        let out6 = run_query(&db, &clean_model, Q6, ExecOptions::default()).expect("Q6");
        let male_row = find_group_row(&out6, &Value::Str("male".into())).expect("male group");
        let male_avg = match out6.table.value(male_row, 1) {
            Value::Float(v) => v,
            other => panic!("unexpected {other:?}"),
        };
        let out7 = run_query(&db, &clean_model, Q7, ExecOptions::default()).expect("Q7");
        let forties_row = find_group_row(&out7, &Value::Int(40)).expect("40s group");
        let forties_avg = match out7.table.value(forties_row, 1) {
            Value::Float(v) => v,
            other => panic!("unexpected {other:?}"),
        };

        let gender_query =
            QuerySpec::new(Q6).with_complaint(Complaint::value_eq(male_row, 0, male_avg));
        let age_query =
            QuerySpec::new(Q7).with_complaint(Complaint::value_eq(forties_row, 0, forties_avg));

        let variants: Vec<(&str, Vec<QuerySpec>)> = vec![
            ("gender", vec![gender_query.clone()]),
            ("age", vec![age_query.clone()]),
            ("both", vec![gender_query, age_query]),
        ];
        let budget = budget(&truth, quick, 20);
        let model = Box::new(LogisticRegression::new(N_FEATURES, 0.01));
        let mut sess = DebugSession::new(db, train, model);
        for (label, queries) in variants {
            sess.queries = queries;
            for method in [Method::Loss, Method::TwoStep, Method::Holistic] {
                let setting = format!("{rate} {label}");
                rows.push(run(&sess, setting, method, &truth, budget));
            }
        }
    }
    rows
}

/// Find the output row whose first column equals `key`.
fn find_group_row(out: &QueryOutput, key: &Value) -> Option<usize> {
    (0..out.table.n_rows()).find(|&r| out.table.value(r, 0) == *key)
}
