//! POSET-RL benchmark: DDQN training on the paper's schedule, and serving
//! of fresh and repeated modules, measured end to end (`--trace 0`) or
//! layer by layer through a traced replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve_fresh|serve_repeat --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod replay;
mod serve;
mod trace;
mod train;
mod util;

use serve::Mix;
use std::path::PathBuf;

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one run reports.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Reads the JSON line `main` prints.
    fn from_json(line: &str) -> Option<Outcome> {
        let v: serde_json::Value = serde_json::from_str(line).ok()?;
        let mut metrics = Vec::new();
        for (name, m) in v["metrics"].as_object()? {
            metrics.push(Metric {
                name: name.clone(),
                value: m["value"].as_f64()?,
                unit: m["unit"].as_str()?.to_string(),
            });
        }
        Some(Outcome {
            correct: v["correct"].as_bool()?,
            attempted: v["attempted"].as_u64()?,
            failed: v["failed"].as_u64()?,
            metrics,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    train_child: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload train|serve_fresh|serve_repeat --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut train_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage(&bad))),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = Some(s),
                _ => usage(&bad),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage(&bad),
            },
            // internal: the measured half of `train` (see `train::run`)
            "--train-child" => train_child = value == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        train_child,
    }
}

/// Where a traced run writes its spans: the working directory, one file
/// per workload, replaced by the next traced run.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(format!(".perfbench-spans-{}.jsonl", args.workload))
}

fn main() {
    let args = parse_args();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("train", false) if args.train_child => train::run_child(args.seed),
        ("train", false) => train::run(args.seed),
        ("train", true) => train::run_traced(args.seed, &spans_path(&args)),
        ("serve_fresh", false) => serve::run(Mix::Fresh, args.seed, args.seconds),
        ("serve_fresh", true) => serve::run_traced(Mix::Fresh, args.seed, &spans_path(&args)),
        ("serve_repeat", false) => serve::run(Mix::Repeat, args.seed, args.seconds),
        ("serve_repeat", true) => serve::run_traced(Mix::Repeat, args.seed, &spans_path(&args)),
        (other, _) => usage(&format!("unknown workload {other}")),
    };
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        // the parent of a training child prints the child's metrics itself
        if !args.train_child {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        metrics.push((
            m.name.clone(),
            serde_json::json!({ "value": m.value, "unit": m.unit }),
        ));
    }
    let result = serde_json::json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{result}");
}
