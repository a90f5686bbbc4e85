//! The benchmark command.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out RECORD.json] [--spans SPANS.jsonl]
//! benchmark compare PARENT_DIR/*.json CHANGE_DIR/*.json
//! ```
//!
//! A run prints a summary and, as its last line, the result object. It
//! exits nonzero when a correctness gate fails.

use sefi_benchmark::report::{RunDir, Spec};
use sefi_benchmark::{campaign, compare, serving, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out FILE] [--spans FILE]\n       benchmark compare A/*.json B/*.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn parse(args: &[String], spec: &Spec) -> Result<(Options, Option<PathBuf>), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        smoke: false,
        spans: None,
        root: root.clone(),
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => out = Some(root.join(value()?)),
            "--spans" => opts.spans = Some(root.join(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec.workloads.iter().any(|w| w.name == opts.workload) {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok((opts, out))
}

fn run(args: &[String]) -> i32 {
    let spec = Spec::load();
    let (opts, out) = match parse(args, &spec) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = RunDir::create(&opts.root, &opts.workload, opts.seed).and_then(|dir| {
        match opts.workload.as_str() {
            "resume-train" => campaign::run(&campaign::RESUME_TRAIN, &opts, &dir),
            "collapse-inject" => campaign::run(&campaign::COLLAPSE_INJECT, &opts, &dir),
            "serve-steady" => serving::run(&serving::STEADY, &opts, &dir),
            "serve-sdc" => serving::run(&serving::SDC, &opts, &dir),
            other => Err(format!("no runner for workload {other:?}")),
        }
    });
    let mut record = match result {
        Ok(record) => record,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", opts.workload);
            return 1;
        }
    };
    if record.trace {
        record.zero_other_family(&spec, opts.workload.starts_with("serve"));
    }
    if let Err(e) = record.check_catalogue(&spec) {
        record.correct = false;
        record.notes.push(format!("FAILED: {e}"));
    }

    println!(
        "{} seed={} trace={} smoke={} digest={} attempted={} failed={} correct={}",
        record.workload,
        record.seed,
        record.trace,
        record.smoke,
        record.digest,
        record.attempted,
        record.failed,
        record.correct
    );
    for note in &record.notes {
        println!("  {note}");
    }
    for m in spec.metrics(record.trace) {
        if let Some(v) = record.metrics.get(&m.name) {
            println!("  {:<40} {v:>14.4} {}", m.name, m.unit);
        }
    }
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&record).expect("records serialize");
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("benchmark: writing {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", record.result_line(&spec));
    if record.correct {
        0
    } else {
        1
    }
}
