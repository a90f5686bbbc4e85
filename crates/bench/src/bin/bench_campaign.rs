//! Campaign scheduler benchmark: per-cell barrier fan-out vs the
//! campaign-wide work-stealing pool, written to `BENCH_campaign.json` at
//! the repo root.
//!
//! The workload models a real campaign phase: many cells with
//! *heterogeneous* trial counts and per-trial latencies (deterministic
//! sleeps derived from each trial's seed, so every mode and thread count
//! runs the exact same work). The "barrier" baseline dispatches one cell
//! at a time and joins between cells — the shape every table builder had
//! before the plan API. The "pool" run submits all cells as one
//! [`sefi_experiments::CellPlan`] slice, so workers that finish a short
//! cell immediately steal trials from a long one.
//!
//! Sleeps (not spins) carry the latency so the measured speedup is pure
//! scheduling overlap — it holds even on a single-core host, where idle
//! threads cost nothing. Alongside the wall clocks, the benchmark renders
//! the phase's outcome table once per configuration and asserts all
//! renderings are byte-identical: determinism is part of the contract
//! being benchmarked.
//!
//! Two adaptive-campaign sections ride along:
//!
//! - **adaptive vs fixed**: the real (smoke-budget) Figure 2 sweep run
//!   fixed-budget and under the sequential stopping rule, comparing trial
//!   counts and checking the per-range collapse verdicts agree
//!   (`--assert-trial-savings FRACTION` gates the saving in CI);
//! - **sharded scaling**: 1/2/4 `sefi-campaign-worker` processes over one
//!   results directory each regenerate the adaptive sweep; the resulting
//!   CSVs must be byte-identical at every process count.
//!
//! Last comes the telemetry-overhead bound, a built-in check: one trial's
//! campaign bookkeeping (two event emits and one flushed manifest append)
//! must cost under 1% of one real micro-scale Table IV trial (corrupt +
//! resume). Real budgets train far longer per trial, so the production
//! ratio is smaller still.

use sefi_bench::harness::{host_threads, paired_min_ns, write_json, Cli, Gates};
use sefi_core::CorrupterConfig;
use sefi_experiments::{exp_bitranges, Budget, CellPlan, Prebaked, StoppingRule, TrialOutcome};
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_models::ModelKind;
use sefi_telemetry::{digest64, Event, JsonlSink, Manifest, TrialRecord};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "bench_campaign [--out PATH] [--smoke] [--assert-speedup FACTOR] \
                     [--assert-trial-savings FRACTION] [--worker-bin PATH]";

/// One pool measurement at a fixed worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PoolEntry {
    /// Worker threads (`RAYON_NUM_THREADS`).
    threads: usize,
    /// Wall-clock for the whole phase as one pool.
    wall_ms: f64,
    /// Barrier wall / this wall.
    speedup_vs_barrier: f64,
}

/// The on-disk result file.
#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    /// File format version.
    schema: u32,
    /// What produced the numbers.
    note: String,
    /// Hardware threads visible during the run.
    host_threads: usize,
    /// Cells in the synthetic phase.
    cells: usize,
    /// Total `(cell, trial)` pairs dispatched.
    total_trials: usize,
    /// Per-cell-barrier wall-clock at the max worker count.
    barrier_wall_ms: f64,
    /// Pool wall-clock at 1/2/4/8 workers.
    pool: Vec<PoolEntry>,
    /// Barrier wall / pool wall at the max worker count.
    speedup: f64,
    /// Whether every rendered table matched the single-threaded rendering.
    tables_identical: bool,
    /// Adaptive-vs-fixed comparison on the smoke Figure 2 sweep.
    adaptive: AdaptiveEntry,
    /// Sharded worker-process scaling (empty when the worker binary was
    /// not found next to this benchmark).
    sharded: Vec<ShardedEntry>,
    /// Whether every sharded CSV matched the 1-process CSV byte for byte.
    sharded_identical: bool,
}

/// Adaptive sequential stopping vs the fixed budget on the same sweep.
#[derive(Debug, Serialize, Deserialize)]
struct AdaptiveEntry {
    /// Trials the fixed-budget sweep dispatched.
    fixed_trials: usize,
    /// Trials the adaptive sweep consumed.
    adaptive_trials: usize,
    /// `1 - adaptive/fixed`.
    savings: f64,
    /// Per-range collapse verdicts agree between the two sweeps.
    verdicts_match: bool,
    /// Fixed sweep wall-clock.
    fixed_wall_ms: f64,
    /// Adaptive sweep wall-clock.
    adaptive_wall_ms: f64,
}

/// One sharded run: N worker processes over one results directory.
#[derive(Debug, Serialize, Deserialize)]
struct ShardedEntry {
    /// Concurrent worker processes.
    processes: usize,
    /// Wall-clock until every worker exited.
    wall_ms: f64,
}

/// The synthetic phase: `cells` cells with 1–4 trials each. Every trial
/// sleeps `sleep_floor_ms + seed % sleep_spread_ms` milliseconds — seeds
/// come from [`sefi_experiments::combo_seed`], so the latency profile is
/// identical across modes and thread counts.
struct Workload {
    cells: usize,
    sleep_floor_ms: u64,
    sleep_spread_ms: u64,
}

impl Workload {
    fn plans<'p>(&self, _pre: &'p Prebaked) -> Vec<CellPlan<'p>> {
        let (floor, spread) = (self.sleep_floor_ms, self.sleep_spread_ms);
        (0..self.cells)
            .map(|i| {
                let fw = FrameworkKind::all()[i % 3];
                let model = ModelKind::all()[i % 3];
                let trials = 1 + i % 4;
                CellPlan::new("bench", format!("cell-{i:02}"), fw, model, trials, move |_, seed| {
                    std::thread::sleep(Duration::from_millis(floor + seed % spread));
                    Ok(TrialOutcome::ok().with_accuracy((seed % 1000) as f64 / 1000.0))
                })
            })
            .collect()
    }
}

/// Render the phase's outcome table — the byte-identity artifact.
fn render(plans: &[CellPlan<'_>], pooled: &[Vec<TrialOutcome>]) -> String {
    let mut table = sefi_experiments::table::TextTable::new(&["Cell", "Trials", "Mean acc"]);
    for (plan, outcomes) in plans.iter().zip(pooled) {
        let mean = outcomes.iter().filter_map(|o| o.final_accuracy).sum::<f64>()
            / outcomes.len().max(1) as f64;
        table.row(vec![plan.cell().to_string(), plan.trials().to_string(), format!("{mean:.6}")]);
    }
    table.render()
}

fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// The smallest budget that still runs a real trial: one resume epoch.
fn micro() -> Budget {
    Budget {
        trials: 2,
        curve_trials: 1,
        restart_epoch: 1,
        resume_epochs: 1,
        curve_end_epoch: 2,
        fig2_trainings: 1,
        ..Budget::smoke()
    }
}

/// One trial's worth of campaign bookkeeping: the `TrialStart` and
/// `TrialEnd` emits around one flushed manifest append.
fn bookkeep(sink: &JsonlSink, manifest: &Manifest, seed: u64) {
    sink.emit(&Event::TrialStart {
        experiment: "nev".to_string(),
        cell: "nev-64-1000".to_string(),
        trial: seed,
        seed,
    });
    manifest
        .record(TrialRecord {
            experiment: "nev".to_string(),
            cell: "nev-64-1000".to_string(),
            framework: "chainer".to_string(),
            model: "alexnet".to_string(),
            trial: seed,
            seed,
            config_digest: digest64("bench"),
            duration_ns: 1_000_000,
            outcome: TrialOutcome::ok().with_collapsed(true).with_counters(1000, 37, 0),
        })
        .expect("manifest append succeeds");
    sink.emit(&Event::TrialEnd {
        experiment: "nev".to_string(),
        cell: "nev-64-1000".to_string(),
        trial: seed,
        seed,
        status: "collapsed".to_string(),
        duration_ns: 1_000_000,
        injections: 1000,
        nan_redraws: 37,
        skipped: 0,
        cached: false,
    });
}

/// One real Table IV trial at micro scale (1000 full-range flips, then
/// resume), without the campaign machinery.
fn one_trial(pre: &Prebaked, seed: u64) -> bool {
    let cfg = CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, seed);
    let trial = pre.trial(FrameworkKind::Chainer, ModelKind::AlexNet, sefi_hdf5::Dtype::F64);
    let run = trial.corrupt(cfg).expect("valid preset").resume(pre.budget().resume_epochs);
    run.expect("corrupted checkpoints remain structurally valid").outcome.collapsed
}

/// Paired per-call ns of (bookkeeping, one micro trial), at the host's
/// default worker count.
fn telemetry_overhead(smoke: bool) -> (f64, f64) {
    std::env::remove_var("RAYON_NUM_THREADS");
    let dir = std::env::temp_dir().join(format!("sefi_bench_tel_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create telemetry temp dir");
    let sink = JsonlSink::to_file(dir.join("telemetry.jsonl")).expect("sink opens");
    let manifest = Manifest::open(dir.join("manifest.jsonl")).expect("manifest opens");
    let pre = Prebaked::new(micro());
    let (mut bookkeeps, mut trials) = (0u64, 0u64);
    let mut book = || {
        bookkeeps += 1;
        bookkeep(&sink, &manifest, bookkeeps);
    };
    let mut trial = || {
        trials += 1;
        std::hint::black_box(one_trial(&pre, trials));
    };
    // Warmup: pretraining the micro checkpoint, then one call per side.
    book();
    trial();
    let (blocks, iters) = if smoke { (4, 20) } else { (8, 50) };
    let paired = paired_min_ns(blocks, iters, book, trial);
    let _ = std::fs::remove_dir_all(&dir);
    paired
}

fn main() {
    let cli = Cli::from_env(
        USAGE,
        "BENCH_campaign.json",
        &["--assert-speedup", "--assert-trial-savings", "--worker-bin"],
        &[],
    );
    let (out, smoke) = (&cli.out, cli.smoke);
    let assert_speedup: Option<f64> = cli.value("--assert-speedup");
    let assert_trial_savings: Option<f64> = cli.value("--assert-trial-savings");
    let worker_bin: Option<PathBuf> = cli.value("--worker-bin");
    let workload = if smoke {
        Workload { cells: 16, sleep_floor_ms: 1, sleep_spread_ms: 5 }
    } else {
        Workload { cells: 24, sleep_floor_ms: 2, sleep_spread_ms: 11 }
    };
    let thread_counts = [1usize, 2, 4, 8];
    let max_threads = *thread_counts.last().unwrap();

    // No campaign: a manifest would serve the second run from cache and
    // benchmark the JSON reader instead of the scheduler.
    let pre = Prebaked::new(Budget::smoke());
    let plans = workload.plans(&pre);
    let total_trials: usize = plans.iter().map(|p| p.trials()).sum();
    println!("bench_campaign: {} cells, {} trials -> {out}", plans.len(), total_trials);

    // Warmup: first dispatch pays thread spawn + lazy init for both modes.
    set_threads(max_threads);
    let _ = pre.run_plan(&plans[..1]);

    // Baseline: one pool per cell, join between cells — the pre-plan-API
    // shape (parallel within a cell, barrier after it).
    let start = Instant::now();
    let barrier_pooled: Vec<Vec<TrialOutcome>> =
        plans.iter().flat_map(|p| pre.run_plan(std::slice::from_ref(p))).collect();
    let barrier_wall = start.elapsed().as_secs_f64() * 1e3;
    let reference_table = render(&plans, &barrier_pooled);
    println!("  barrier ({max_threads} threads)      {barrier_wall:>9.1} ms");

    let mut pool = Vec::new();
    let mut tables_identical = true;
    for &n in &thread_counts {
        set_threads(n);
        let start = Instant::now();
        let pooled = pre.run_plan(&plans);
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let identical = render(&plans, &pooled) == reference_table;
        tables_identical &= identical;
        println!(
            "  pool @ {n} thread{}       {wall:>9.1} ms  ({:.2}x{})",
            if n == 1 { " " } else { "s" },
            barrier_wall / wall,
            if identical { "" } else { ", TABLE MISMATCH" },
        );
        pool.push(PoolEntry { threads: n, wall_ms: wall, speedup_vs_barrier: barrier_wall / wall });
    }
    let speedup = pool.last().map(|p| p.speedup_vs_barrier).unwrap_or(0.0);

    // --- adaptive vs fixed on the real (smoke-budget) Figure 2 sweep ---
    set_threads(max_threads);
    let adaptive = {
        let pre = Prebaked::new(Budget::smoke());
        let rule = StoppingRule::halving(pre.budget().fig2_trainings, 0.7);
        let start = Instant::now();
        let (fixed_rows, _) = exp_bitranges::figure2(&pre);
        let fixed_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let (adaptive_rows, _) = exp_bitranges::figure2_adaptive(&pre, rule);
        let adaptive_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let fixed_trials: usize = fixed_rows.iter().map(|r| r.trainings).sum();
        let adaptive_trials: usize = adaptive_rows.iter().map(|r| r.trainings).sum();
        let verdicts_match = fixed_rows
            .iter()
            .zip(&adaptive_rows)
            .all(|(f, a)| (f.collapsed > 0) == (a.collapsed > 0))
            && exp_bitranges::collapse_only_with_critical_bit(&fixed_rows)
                == exp_bitranges::collapse_only_with_critical_bit(&adaptive_rows);
        let savings = 1.0 - adaptive_trials as f64 / fixed_trials.max(1) as f64;
        println!(
            "  adaptive fig2: {adaptive_trials} of {fixed_trials} fixed trials \
             ({:.0}% saved), verdicts match: {verdicts_match}",
            savings * 100.0
        );
        AdaptiveEntry {
            fixed_trials,
            adaptive_trials,
            savings,
            verdicts_match,
            fixed_wall_ms,
            adaptive_wall_ms,
        }
    };

    // --- sharded scaling: 1/2/4 worker processes over one results dir ---
    let worker = worker_bin.or_else(|| {
        let candidate = std::env::current_exe().ok()?.with_file_name("sefi-campaign-worker");
        candidate.exists().then_some(candidate)
    });
    let mut sharded = Vec::new();
    let mut sharded_identical = true;
    match worker {
        None => println!(
            "  sharded scaling skipped: sefi-campaign-worker not found \
             (build it or pass --worker-bin)"
        ),
        Some(worker) => {
            let scratch =
                std::env::temp_dir().join(format!("sefi_bench_sharded_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&scratch);
            let mut reference_csv: Option<String> = None;
            for processes in [1usize, 2, 4] {
                let dir = scratch.join(format!("{processes}proc"));
                std::fs::create_dir_all(&dir).expect("scratch dir");
                let start = Instant::now();
                let children: Vec<std::process::Child> = (0..processes)
                    .map(|w| {
                        std::process::Command::new(&worker)
                            .args(["--experiment", "fig2", "--budget", "smoke"])
                            .args(["--results-dir", &dir.display().to_string()])
                            .args(["--worker-id", &format!("w{w}")])
                            .args(["--wave", "2", "--ci-width", "0.7"])
                            .args(["--lease-ttl-ms", "4000", "--poll-ms", "25"])
                            .stdout(std::process::Stdio::null())
                            .stderr(std::process::Stdio::null())
                            .spawn()
                            .expect("spawn sefi-campaign-worker")
                    })
                    .collect();
                for mut child in children {
                    let status = child.wait().expect("worker exits");
                    assert!(status.success(), "worker process failed: {status}");
                }
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let csv = std::fs::read_to_string(dir.join("fig2_adaptive.csv"))
                    .expect("workers wrote the adaptive CSV");
                let identical = match &reference_csv {
                    None => {
                        reference_csv = Some(csv);
                        true
                    }
                    Some(reference) => *reference == csv,
                };
                sharded_identical &= identical;
                println!(
                    "  sharded @ {processes} proc{}    {wall_ms:>9.1} ms{}",
                    if processes == 1 { " " } else { "s" },
                    if identical { "" } else { "  CSV MISMATCH" },
                );
                sharded.push(ShardedEntry { processes, wall_ms });
            }
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }

    let result = BenchFile {
        schema: 2,
        note: "per-cell-barrier fan-out vs campaign-wide work-stealing pool; \
               regenerate with `cargo run --release -p sefi-bench --bin bench_campaign`"
            .into(),
        host_threads: host_threads(),
        cells: plans.len(),
        total_trials,
        barrier_wall_ms: barrier_wall,
        pool,
        speedup,
        tables_identical,
        adaptive,
        sharded,
        sharded_identical,
    };
    write_json(out, &result);
    println!("  pool speedup at {max_threads} threads: {speedup:.2}x; tables identical: {tables_identical}");

    let (bookkeep_ns, trial_ns) = telemetry_overhead(smoke);
    println!(
        "  telemetry overhead: {:.2} µs bookkeeping vs {:.1} µs micro trial ({:.2}%)",
        bookkeep_ns / 1e3,
        trial_ns / 1e3,
        100.0 * bookkeep_ns / trial_ns
    );

    let mut gates = Gates::default();
    gates.check("rendered tables identical across modes and thread counts", tables_identical);
    gates.check("sharded CSVs identical across process counts", result.sharded_identical);
    gates.check("adaptive sweep keeps every collapse verdict", result.adaptive.verdicts_match);
    if let Some(want) = assert_speedup {
        gates.floor("speedup", speedup, want);
    }
    if let Some(want) = assert_trial_savings {
        gates.floor("trial savings", result.adaptive.savings, want);
    }
    gates.check("telemetry bookkeeping < 1% of a micro trial", bookkeep_ns < 0.01 * trial_ns);
    gates.finish();
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_campaign.json"
        ));
    }
}
