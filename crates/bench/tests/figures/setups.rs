//! The row every figure is made of, and the workload → session builders
//! the experiments share.

use rain_core::prelude::*;
use rain_data::dblp::DblpConfig;
use rain_data::digits::{DigitsConfig, DigitsWorkload, N_CLASSES, N_PIXELS};
use rain_data::enron::{EnronConfig, EnronWorkload};
use rain_data::flip_labels_where;
use rain_model::{LogisticRegression, SoftmaxRegression};
use rain_sql::Database;
use std::fmt;

/// The seed of every workload, corruption and model initialisation (the
/// theorem settings draw their own).
pub const SEED: u64 = 42;

/// One method's run in one setting of a figure.
#[derive(Debug)]
pub struct Row {
    /// The figure's x value or workload, as the paper labels it
    /// (`"0.5"`, `"ENRON '%http%'"`, `"0.5 gender"`).
    pub setting: String,
    /// The ranking method, or the figure's name for its line.
    pub method: &'static str,
    pub auccr: f64,
    /// `auccr(&truth, &truth)`: what a perfect ranking scores at this
    /// run's K — (K + 1) / K, not 1.
    pub perfect: f64,
    /// recall@K: the share of the K corrupted records among the first K
    /// removed.
    pub recall: f64,
    /// Mean per-iteration `(train, encode, rank)` seconds.
    pub timings: (f64, f64, f64),
    /// Why the method gave up, if it did (e.g. TwoStep's ILP budget).
    pub failure: Option<String>,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\tauccr {:.3} of {:.3}\trecall@K {:.3}",
            self.setting, self.method, self.auccr, self.perfect, self.recall
        )?;
        match &self.failure {
            Some(why) => write!(f, "\t{why}"),
            None => Ok(()),
        }
    }
}

/// Run `method` on `sess` with a removal budget of `budget` and record it
/// as a row of `setting`.
pub fn run(
    sess: &DebugSession,
    setting: impl ToString,
    method: Method,
    truth: &[usize],
    budget: usize,
) -> Row {
    let report = sess
        .run(method, &RunConfig::paper(budget))
        .expect("query execution failed");
    Row {
        setting: setting.to_string(),
        method: method.name(),
        auccr: report.auccr(truth),
        perfect: rain_core::auccr(truth, truth),
        recall: report.recall_curve(truth).last().copied().unwrap_or(0.0),
        timings: report.mean_timings(),
        failure: report.failure,
    }
}

/// The removal budget: every corrupted record at full size, at most
/// `quick_cap` of them at quick size.
pub fn budget(truth: &[usize], quick: bool, quick_cap: usize) -> usize {
    if quick {
        truth.len().min(quick_cap)
    } else {
        truth.len()
    }
}

/// The DBLP Q1 session: COUNT of predicted matches with the ground-truth
/// equality complaint; `rate` of the match labels are flipped.
pub fn dblp(rate: f64, quick: bool) -> (DebugSession, Vec<usize>) {
    let cfg = if quick {
        DblpConfig::small()
    } else {
        DblpConfig::default()
    };
    let w = cfg.generate(SEED);
    let mut train = w.train.clone();
    let truth = flip_labels_where(&mut train, |_, _, y| y == 1, rate, |_| 0, SEED);
    let mut db = Database::new();
    db.register("dblp", w.query_table());
    let sess = DebugSession::new(db, train, Box::new(LogisticRegression::new(17, 0.01)))
        .with_query(
            QuerySpec::new("SELECT COUNT(*) FROM dblp WHERE predict(*) = 1")
                .with_complaint(Complaint::scalar_eq(w.true_match_count() as f64)),
        );
    (sess, truth)
}

/// The Enron Q2 session for one rule word (`HTTP` or `DEAL`): everything
/// containing the word is (mis)labeled spam, and the complaint pins the
/// filtered count to its ground-truth value.
pub fn enron(word: usize, quick: bool) -> (DebugSession, Vec<usize>) {
    let cfg = if quick {
        EnronConfig::small()
    } else {
        EnronConfig::default()
    };
    let w = cfg.generate(SEED);
    let mut train = w.train.clone();
    let truth = rain_data::relabel_where(&mut train, |_, x, _| x[word] != 0.0, 1);
    let mut db = Database::new();
    db.register("enron", w.query_table());
    let token = EnronWorkload::token(word);
    let sql = format!("SELECT COUNT(*) FROM enron WHERE predict(*) = 1 AND text LIKE '%{token}%'");
    let target = w.true_spam_count_with(word) as f64;
    let sess = DebugSession::new(db, train, Box::new(LogisticRegression::new(w.vocab, 0.01)))
        .with_query(QuerySpec::new(sql).with_complaint(Complaint::scalar_eq(target)));
    (sess, truth)
}

/// Digit workload with `rate` of the training 1s flipped to 7s.
pub fn corrupted_digits(
    rate: f64,
    quick: bool,
) -> (DigitsWorkload, rain_model::Dataset, Vec<usize>) {
    let cfg = if quick {
        DigitsConfig {
            n_train: 300,
            n_query: 200,
        }
    } else {
        DigitsConfig::default()
    };
    let w = cfg.generate(SEED);
    let mut train = w.train.clone();
    let truth = flip_labels_where(&mut train, |_, _, y| y == 1, rate, |_| 7, SEED);
    (w, train, truth)
}

/// Fresh softmax model for digit workloads.
pub fn digit_model() -> Box<SoftmaxRegression> {
    Box::new(SoftmaxRegression::new(N_PIXELS, N_CLASSES, 0.01))
}

/// The MNIST Q5 session: COUNT of predicted 1s over the full query set,
/// complaining that it should be the true number of 1s (returned with
/// the workload and the ground truth).
pub fn digits_q5(rate: f64, quick: bool) -> (DebugSession, Vec<usize>, f64, DigitsWorkload) {
    let (w, train, truth) = corrupted_digits(rate, quick);
    let all: Vec<usize> = (0..10).collect();
    let mut db = Database::new();
    db.register("mnist", w.query_table_for(&all, w.query.len()));
    let true_ones = w.query_rows_with_digits(&[1]).len() as f64;
    let sess = DebugSession::new(db, train, digit_model()).with_query(
        QuerySpec::new("SELECT COUNT(*) FROM mnist WHERE predict(*) = 1")
            .with_complaint(Complaint::scalar_eq(true_ones)),
    );
    (sess, truth, true_ones, w)
}
