//! The repo's single benchmark: five workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See `README.md` beside
//! this package for every name used here.
//!
//! ```text
//! agossip-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! agossip-benchmark compare <BENCHMARK.json> <first-dir> <second-dir>
//! ```
//!
//! A run sets up, measures for `--seconds` seconds, verifies every trial,
//! prints every metric by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod compare;
mod env;
mod json;
mod metrics;
mod probes;
mod stats;
mod timed;
mod trace;
mod workloads;

#[cfg(test)]
mod transparency;

use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use metrics::Metric;
use trace::Tracer;
use workloads::{ops_per_trial, run_trial, Counts, Size, Trial, Workload};

/// Times the set-up is repeated in a run; `setup_s` is their median.
const SETUP_REPS: u64 = 7;

/// The seed `expected.json` pins the full-size counts for.
const PINNED_SEED: u64 = 2008;

/// The committed count fingerprints.
const EXPECTED: &str = include_str!("../expected.json");

/// Where a traced run writes its spans and every run its full report,
/// relative to the directory the benchmark is started from (the repo root).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: agossip-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke]\n       agossip-benchmark compare <BENCHMARK.json> <first-dir> <second-dir>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?,
        seed,
        seconds,
        trace,
        size,
    })
}

fn counts_json(counts: &Counts) -> Value {
    Value::obj([
        ("messages", Value::uint(counts.messages)),
        ("volume", Value::uint(counts.volume)),
        ("time", Value::uint(counts.time)),
        ("epochs", Value::uint(counts.epochs)),
        ("max_open", Value::uint(counts.max_open)),
        ("settle_sum", Value::uint(counts.settle_sum)),
        (
            "instances",
            Value::Arr(counts.instances.iter().map(|&m| Value::uint(m)).collect()),
        ),
    ])
}

/// The pinned counts of `workload` from `expected.json`.
fn expected_counts(workload: Workload) -> Result<Counts, String> {
    let doc = json::parse(EXPECTED)?;
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .ok_or_else(|| format!("expected.json has no entry for {}", workload.name()))?;
    let field = |key: &str| {
        entry
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("expected.json: {}.{key} is not a count", workload.name()))
    };
    Ok(Counts {
        messages: field("messages")?,
        volume: field("volume")?,
        time: field("time")?,
        epochs: field("epochs")?,
        max_open: field("max_open")?,
        settle_sum: field("settle_sum")?,
        instances: entry
            .get("instances")
            .and_then(Value::as_arr)
            .ok_or("expected.json: instances is not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or("expected.json: instance is not a count"))
            .collect::<Result<_, _>>()?,
    })
}

/// Every trial must report the same counts (same seed, lockstep), and at the
/// pinned seed and full size they must equal the committed fingerprint.
fn verify_counts(args: &Args, trials: &[&Trial]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(first) = trials.first() else {
        return vec!["no trial completed".into()];
    };
    for (i, trial) in trials.iter().enumerate().skip(1) {
        if trial.counts != first.counts {
            problems.push(format!(
                "trial {i} counts differ from trial 0: {} vs {}",
                counts_json(&trial.counts).to_json(),
                counts_json(&first.counts).to_json()
            ));
        }
    }
    if args.seed == PINNED_SEED && args.size == Size::Full {
        match expected_counts(args.workload) {
            Ok(expected) if expected == first.counts => {}
            Ok(expected) => problems.push(format!(
                "counts differ from expected.json: got {}, expected {}",
                counts_json(&first.counts).to_json(),
                counts_json(&expected).to_json()
            )),
            Err(e) => problems.push(e),
        }
    }
    problems
}

fn print_metric(workload: Workload, metric: &Metric) {
    let spread = match metric.spread {
        Some((q1, q3, samples)) => format!("  (q1 {q1:.6}  q3 {q3:.6}  n={samples})"),
        None => String::new(),
    };
    println!(
        "{:<20} {:<42} {:>18.6} {:<6}{spread}",
        workload.name(),
        metric.name,
        metric.value,
        metric.unit
    );
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

fn run(args: &Args) -> Result<bool, String> {
    args.workload.check_box()?;
    let environment = env::capture();
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.begin("run", None, None);

    // Set-up: generate the workload's inputs and run it once at reduced size,
    // checker on. Repeated, each pass on its own seed derived from `--seed`,
    // so that the reported median is steady and does not hang on how much
    // work one seed happens to draw; nothing here is part of a timed trial.
    let setup_span = tracer.begin("setup", Some(root), None);
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let span = tracer.begin("warm-up", Some(setup_span), None);
        let seed = args.seed.wrapping_add(rep);
        let warm = run_trial(args.workload, Size::Warm, seed, false, &mut tracer, span)?;
        tracer.end(span);
        if warm.ops_failed > 0 {
            return Err(format!(
                "set-up warm-up failed its check ({} of {} operations)",
                warm.ops_failed,
                warm.ops()
            ));
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    tracer.end(setup_span);

    // Measure: whole trials until the time is used up (a further trial is
    // started only while at least half of one still fits). A traced run
    // alternates plain and traced trials, so tracing overhead is measured
    // within one process.
    let mut plain: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    let mut error = None;
    let measuring = Instant::now();
    let mut next_trial = 0u64;
    loop {
        for with_wrappers in [false, true] {
            if with_wrappers && !args.trace {
                continue;
            }
            let span = tracer.begin(
                if with_wrappers {
                    "trial.traced"
                } else {
                    "trial"
                },
                Some(root),
                Some(next_trial),
            );
            next_trial += 1;
            let result = run_trial(
                args.workload,
                args.size,
                args.seed,
                with_wrappers,
                &mut tracer,
                span,
            );
            tracer.end(span);
            match result {
                Ok(trial) if with_wrappers => traced.push(trial),
                Ok(trial) => plain.push(trial),
                Err(e) => error = Some(e),
            }
        }
        let elapsed = measuring.elapsed().as_secs_f64();
        let per_round = elapsed / plain.len().max(1) as f64;
        if error.is_some() || elapsed + per_round / 2.0 > args.seconds {
            break;
        }
    }
    tracer.end(root);
    let peak_rss_mib = env::peak_rss_mib().unwrap_or(0.0);

    // Verify.
    let all: Vec<&Trial> = plain.iter().chain(&traced).collect();
    let mut problems = verify_counts(args, &all);
    let mut attempted: u64 = all.iter().map(|t| t.ops()).sum();
    let mut failed: u64 = all.iter().map(|t| t.ops_failed).sum();
    if let Some(e) = &error {
        // A trial that ended in a typed error fails every operation in it.
        let ops = ops_per_trial(args.workload, args.size);
        attempted += ops;
        failed += ops;
        problems.push(format!("a trial ended in an error: {e}"));
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let correct = problems.is_empty();

    // Report.
    let metrics = if args.trace {
        metrics::per_layer(&traced, &plain, args.workload.threads())
    } else {
        metrics::end_to_end(&setup_s, &plain, peak_rss_mib)
    };
    println!(
        "# {} seed {} size {:?} trace {} — {} plain + {} traced trial(s) in {:.1} s",
        args.workload.name(),
        args.seed,
        args.size,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        measuring.elapsed().as_secs_f64()
    );
    println!("# environment {}", environment.to_json());
    if let Some(first) = all.first() {
        println!("# counts {}", counts_json(&first.counts).to_json());
    }
    for metric in &metrics {
        print_metric(args.workload, metric);
    }
    println!(
        "{:<20} {:<42} {:>18.6} {:<6}  ({failed} failed of {attempted} operations)",
        args.workload.name(),
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac"
    );
    for problem in &problems {
        println!("# INCORRECT: {problem}");
    }

    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::uint(attempted.max(1))),
        ("failed", Value::uint(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    write_outputs(args, &tracer, &environment, &result, &problems);
    println!("{}", result.to_json());
    Ok(correct)
}

/// Keeps the full report (and, traced, the spans) under `benchmark/out/`.
/// Best effort: the result line on stdout is what the driver reads.
fn write_outputs(
    args: &Args,
    tracer: &Tracer,
    environment: &Value,
    result: &Value,
    problems: &[String],
) {
    if std::fs::create_dir_all(OUT_DIR).is_err() {
        eprintln!("warning: cannot create {OUT_DIR}; reports are not kept");
        return;
    }
    let name = args.workload.name();
    let report = Value::obj([
        ("workload", Value::str(name)),
        ("seed", Value::uint(args.seed)),
        ("size", Value::str(format!("{:?}", args.size))),
        ("trace", Value::Bool(args.trace)),
        ("environment", environment.clone()),
        ("result", result.clone()),
        (
            "problems",
            Value::Arr(problems.iter().map(Value::str).collect()),
        ),
    ]);
    let report_path = format!("{OUT_DIR}/result-{name}-trace{}.json", u8::from(args.trace));
    if let Err(e) = std::fs::write(&report_path, report.to_json() + "\n") {
        eprintln!("warning: cannot write {report_path}: {e}");
    }
    if args.trace {
        let trace_path = format!("{OUT_DIR}/trace-{name}.jsonl");
        if let Err(e) = std::fs::write(&trace_path, tracer.to_jsonl()) {
            eprintln!("warning: cannot write {trace_path}: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_args(&args).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
