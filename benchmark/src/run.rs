//! One workload, one pass: the end-to-end pass over the wire (recorder
//! off, phases time-boxed by `--seconds`), or the traced pass (a short
//! fixed-count wire run for what only the wire can give, then the
//! in-process replay under the recorder).

use crate::inputs::{self, Inputs};
use crate::layers::{self, WireSide};
use crate::spec::{catalogue, Workload};
use crate::stats::{median, quantile};
use crate::trace;
use crate::wire::{self, Booted, Checks, RunSample, SetupTimes, Stop};
use rain_serve::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced pass, per `RUN_SECONDS` of `--seconds`: cached queries per
/// client, and debug-run rounds (each one Holistic, one TwoStep, one
/// profiled Holistic). Counts, not durations, so they repeat exactly.
const TRACED_QUERIES: f64 = 500.0;
const TRACED_ROUNDS: f64 = 2.0;

pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
}

/// Set up `reps` times, each on a fresh server and directory; keep the
/// last one running.
fn boot(
    inputs: &Inputs,
    reference: &[Vec<Json>],
    root: &Path,
    reps: usize,
    checks: &mut Checks,
) -> io::Result<(Booted, Vec<SetupTimes>)> {
    let mut kept: Option<Booted> = None;
    let mut times = Vec::new();
    for rep in 0..reps {
        if let Some(prev) = kept.take() {
            prev.shutdown();
        }
        let (booted, t) = wire::setup(inputs, reference, &root.join(format!("rep{rep}")), checks)?;
        kept = Some(booted);
        times.push(t);
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn of_method<'a>(runs: &'a [RunSample], method: &'a str) -> impl Iterator<Item = &'a RunSample> {
    runs.iter()
        .filter(move |r| r.method == method && !r.profiled)
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

fn end_to_end(
    w: &Workload,
    inputs: &Inputs,
    reference: &[Vec<Json>],
    root: &Path,
    seconds: f64,
    checks: &mut Checks,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let (mut booted, setups) = boot(inputs, reference, root, SETUP_REPS, checks)?;
    let share = |i: usize, min: usize| Stop::After {
        seconds: seconds * w.shares[i],
        min,
    };
    let queries = wire::query_phase(
        &mut booted.clients,
        inputs,
        reference,
        share(0, 100),
        checks,
    )?;
    let runs = wire::debug_phase(&mut booted.clients[0], inputs, share(1, 2), checks)?;
    let ingest = wire::ingest_phase(&mut booted, inputs, share(2, 3), checks)?;
    booted.shutdown();

    let mut m = BTreeMap::new();
    m.insert("setup_s", med(setups.iter().map(|t| t.setup_s)));
    m.insert(
        "holistic_run_s",
        med(of_method(&runs, "holistic").map(|r| r.run_s)),
    );
    m.insert(
        "twostep_run_s",
        med(of_method(&runs, "twostep").map(|r| r.run_s)),
    );
    m.insert(
        "query_rps",
        queries.latency_ms.len() as f64 / queries.wall_s,
    );
    m.insert("query_p50_ms", median(&queries.latency_ms));
    // Rows per append ÷ the median append latency: one stalled fsync in
    // a run must not move the rate.
    let rows_per_append = ingest.rows_acked as f64 / ingest.append_ms.len() as f64;
    m.insert(
        "append_rows_per_s",
        rows_per_append / (median(&ingest.append_ms) / 1e3),
    );
    m.insert("append_to_query_ms", median(&ingest.append_to_query_ms));
    m.insert("recovery_s", median(&ingest.recovery_s));
    m.insert("storage_amp", median(&ingest.storage_amp));
    m.insert("peak_rss_mb", wire::peak_rss_mb());
    Ok(m)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    reference: &[Vec<Json>],
    root: &Path,
    out_dir: &Path,
    seconds: f64,
    datagen_s: f64,
    checks: &mut Checks,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let scaled = |per_run: f64| ((per_run * seconds / crate::RUN_SECONDS).ceil() as usize).max(1);
    let (mut booted, setups) = boot(inputs, reference, root, 1, checks)?;
    let queries = wire::query_phase(
        &mut booted.clients,
        inputs,
        reference,
        Stop::Count(scaled(TRACED_QUERIES)),
        checks,
    )?;
    let mut runs = Vec::new();
    for _ in 0..scaled(TRACED_ROUNDS) {
        for (method, profiled) in [("holistic", false), ("twostep", false), ("holistic", true)] {
            let c = &mut booted.clients[0];
            runs.push(wire::debug_run(c, inputs, method, profiled, checks)?);
        }
    }
    let ingest = wire::ingest_phase(&mut booted, inputs, Stop::Count(1), checks)?;
    let counters = wire::scrape(&mut booted.clients[0])?;
    booted.shutdown();

    let query_p50_ms = median(&queries.latency_ms);
    let replayed = layers::replay(
        inputs,
        &WireSide {
            query_p50_ms,
            runs: &runs,
            shares: w.shares,
        },
        root,
    );
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.json", w.name)),
        trace::to_json(w.name, seed, &replayed.spans),
    )?;

    let mut m = replayed.metrics;
    let holistic = || of_method(&runs, "holistic");
    let plain = || runs.iter().filter(|r| !r.profiled);
    m.insert(
        "serve.query_p99_ms",
        quantile(&queries.latency_ms, 0.99).unwrap_or(0.0),
    );
    m.insert("serve.lock_wait_s", counters.lock_wait_s);
    m.insert("serve.job_queue_wait_ms", counters.job_queue_wait_ms);
    m.insert(
        "serve.register_table_ms",
        med(setups
            .iter()
            .flat_map(|t| t.register_table_ms.iter().copied())),
    );
    m.insert(
        "serve.upload_train_ms",
        med(setups
            .iter()
            .flat_map(|t| t.upload_train_ms.iter().copied())),
    );
    m.insert(
        "serve.job_overhead_ms",
        med(plain().map(|r| (r.run_s - r.train_s - r.encode_s - r.rank_s) * 1e3)),
    );
    m.insert("serve.polls_per_run", med(plain().map(|r| r.polls as f64)));
    m.insert("sql.cache_hits", counters.cache_hits);
    m.insert("sql.cache_misses", counters.cache_misses);
    m.insert("sql.cache_invalidations", counters.cache_invalidations);
    m.insert("core.report_train_s", med(holistic().map(|r| r.train_s)));
    m.insert("core.report_encode_s", med(holistic().map(|r| r.encode_s)));
    m.insert("core.report_rank_s", med(holistic().map(|r| r.rank_s)));
    m.insert(
        "core.iterations",
        med(holistic().map(|r| r.iterations as f64)),
    );
    m.insert("core.memo_hits", med(holistic().map(|r| r.memo_hits)));
    m.insert("core.memo_misses", med(holistic().map(|r| r.memo_misses)));
    m.insert("core.holistic_auccr", med(holistic().map(|r| r.auccr)));
    m.insert(
        "core.twostep_auccr",
        med(of_method(&runs, "twostep").map(|r| r.auccr)),
    );
    let profiled = med(runs.iter().filter(|r| r.profiled).map(|r| r.run_s));
    m.insert(
        "obs.profile_overhead_ratio",
        profiled / med(holistic().map(|r| r.run_s)),
    );
    // One fdatasync per committed record, a file and a directory fsync per
    // snapshot: computed from the session's own counters, not observed.
    m.insert(
        "storage.fsyncs",
        ingest.log_records + 2.0 * ingest.snapshots,
    );
    m.insert("storage.log_bytes", ingest.log_bytes);
    m.insert("storage.snapshots", ingest.snapshots);
    m.insert("bench.datagen_s", datagen_s);
    Ok(m)
}

/// Where a run keeps its servers' data: under the benchmark's own `out/`.
fn data_root(out_dir: &Path, w: &Workload) -> PathBuf {
    out_dir
        .join("data")
        .join(format!("{}-{}", w.name, std::process::id()))
}

/// Run one pass of `w` on the inputs `seed` makes. Every declared metric
/// of the pass must come out finite, or that is a failure too.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let t = Instant::now();
    let inputs = inputs::generate(w, seed);
    let datagen_s = t.elapsed().as_secs_f64();
    let reference = layers::reference_rows(&inputs);
    let root = data_root(out_dir, w);
    let mut checks = Checks::default();
    let result = if trace {
        traced(
            w,
            seed,
            &inputs,
            &reference,
            &root,
            out_dir,
            seconds,
            datagen_s,
            &mut checks,
        )
    } else {
        end_to_end(w, &inputs, &reference, &root, seconds, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&root);
    let metrics = result?;
    let declared = catalogue(trace);
    checks.check(
        metrics.len() == declared.len()
            && declared
                .iter()
                .all(|d| metrics.get(d.name).is_some_and(|v| v.is_finite())),
        || format!("metrics do not match the catalogue: {metrics:?}"),
    );
    Ok(Outcome { metrics, checks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};

    /// A miniature of each workload passes every correctness check and
    /// emits exactly the declared metric names, on both passes.
    #[test]
    fn miniatures_pass_their_checks_and_emit_the_declared_names() {
        let out = crate::out_dir().join(format!("test-{}", std::process::id()));
        for w in &WORKLOADS {
            let mini = w.miniature();
            for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
                let o = run(&mini, 7, 0.3, trace, &out).unwrap();
                assert_eq!(
                    o.checks.failed, 0,
                    "{}: {:?}",
                    w.name, o.checks.first_failure
                );
                assert!(o.checks.attempted > 10, "{}", w.name);
                let names: Vec<&str> = o.metrics.keys().copied().collect();
                let mut want: Vec<&str> = declared.iter().map(|m| m.name).collect();
                want.sort_unstable();
                assert_eq!(names, want, "{} trace={trace}", w.name);
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
