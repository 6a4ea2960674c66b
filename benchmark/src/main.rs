//! The repo's benchmark: the paper's complaint-driven debug loop and
//! cached queries as a client sees them over the wire, with a per-layer
//! replay. See `benchmark/README.md`.
//!
//! ```text
//! rain-benchmark --workload W --seed N --seconds S --trace 0|1   one pass, in this process
//! rain-benchmark [--seed N] [--seconds S] [--runs R]             every workload, both passes,
//!                                                                each in a child process
//! rain-benchmark compare a.json b.json                           judge two result files
//! rain-benchmark describe                                        print BENCHMARK.json from the catalogue
//! ```

mod compare;
mod inputs;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use rain_serve::json::{parse, Json};
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seconds one run measures; `BENCHMARK.json` declares the same.
pub const RUN_SECONDS: f64 = 15.0;

/// The benchmark's scratch and results directory, inside its own package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--runs" => out.runs = value.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) || out.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(out)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass of one workload in this process. Prints every metric as
/// `workload metric value unit`, then the result object as the last line.
fn run_one(w: &Workload, a: &Args) -> ExitCode {
    let outcome = match run::run(w, a.seed, a.seconds, a.trace, &out_dir()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = Vec::new();
    for m in spec::catalogue(a.trace) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        println!("{} {} {} {}", w.name, m.name, value, m.unit);
        metrics.push((
            m.name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    let c = &outcome.checks;
    if let Some(why) = &c.first_failure {
        eprintln!(
            "{}: {} of {} operations failed; first: {why}",
            w.name, c.failed, c.attempted
        );
    }
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(c.failed == 0)),
            ("attempted", Json::Num(c.attempted as f64)),
            ("failed", Json::Num(c.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    exit_code(c.failed == 0)
}

fn first_line_of(program: &str, arg: &str) -> String {
    Command::new(program)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository: "unknown" there).
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Every workload, `runs` end-to-end passes and one traced pass, each in
/// a fresh child process of this binary (clean RSS, clean server state).
/// Writes `out/results.json`, the input of `compare`.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        eprintln!("{}: {}", w.name, w.why);
        let mut values: Vec<(&str, &str, Vec<Json>)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| (m.name, m.unit, Vec::new()))
            .collect();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let passes = (0..a.runs).map(|_| false).chain([true]);
        for trace in passes {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .expect("spawn a workload process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let Some(result) = stdout.lines().last().and_then(|l| parse(l).ok()) else {
                eprintln!("{}: no result (exit {:?})", w.name, out.status.code());
                return ExitCode::FAILURE;
            };
            for line in stdout.lines().filter(|l| l.starts_with(w.name)) {
                println!("{line}");
            }
            all_correct &= out.status.success();
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, _, vs) in &mut values {
                let v = result.get("metrics").and_then(|m| m.get(name));
                if let Some(v) = v.and_then(|v| v.get("value")) {
                    vs.push(v.clone());
                }
            }
        }
        let metrics = values
            .into_iter()
            .map(|(name, unit, vs)| {
                let body = Json::obj(vec![("unit", Json::str(unit)), ("values", Json::Arr(vs))]);
                (name, body)
            })
            .collect();
        workloads.push((
            w.name,
            Json::obj(vec![
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::obj(vec![
        ("host_cores", Json::Num(cores as f64)),
        ("commit", Json::str(commit())),
        ("rustc", Json::str(first_line_of("rustc", "--version"))),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("runs", Json::Num(a.runs as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_string()))
    {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", path.display());
    exit_code(all_correct)
}

/// `BENCHMARK.json` as the catalogue in `spec.rs` declares it.
fn describe() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &Metric, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    // One entry per line, so a diff of the file reads metric by metric.
    let lines = |items: Vec<Json>| {
        let rows: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        strs(&command),
        strs(&["benchmark"]),
        Json::Num(RUN_SECONDS),
        lines(workloads),
        lines(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        lines(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare(a, b) {
                Ok(clean) => exit_code(clean),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: rain-benchmark compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        None => run_all(&a),
        Some(name) => match Workload::by_name(name) {
            Some(w) => run_one(w, &a),
            None => {
                eprintln!("unknown workload {name:?}");
                ExitCode::from(2)
            }
        },
    }
}
