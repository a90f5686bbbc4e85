//! The campaign workloads: Table IV cells driven through
//! `Prebaked::with_campaign` and `run_plan`, the path every experiment
//! binary takes.
//!
//! Untraced, each trial is the experiment's own body (clone the shared
//! checkpoint, corrupt it, `Prebaked::try_resume`). Traced, the same
//! `run_plan` dispatches a body that re-drives the trial through the
//! public calls it is made of, timing each from outside: clone, corrupt,
//! `Session::new`, `restore`, the N-EV scan, then per batch
//! `forward_observed`, `softmax_cross_entropy`, `backward` and
//! `Sgd::step`, and `evaluate`. Both bodies must produce identical
//! outcomes; every run re-drives one trial per model through the other
//! body and compares.

use crate::measure::{self, Better, SpanLog};
use crate::report::{Gates, RunDir, RunRecord, Spec};
use crate::Options;
use sefi_core::{Corrupter, CorrupterConfig, InjectionReport};
use sefi_data::{BatchIter, Split};
use sefi_experiments::{Budget, CampaignConfig, CellPlan, Prebaked, TrialError, TrialResult};
use sefi_float::{NevPolicy, Precision};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dtype, H5File};
use sefi_models::ModelKind;
use sefi_nn::{evaluate, softmax_cross_entropy, Network, Sgd};
use sefi_telemetry::{digest64, Event, TrialOutcome};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One campaign workload: the Table IV protocol at a fixed flip count.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Workload name.
    pub name: &'static str,
    /// Full-range 64-bit flips per trial.
    pub flips: u64,
    /// Trials per second this host sustains, used to size a run so it
    /// measures about `--seconds`.
    pub nominal_trials_per_s: f64,
    /// Trials per model in one block (one `run_plan` call); end-to-end
    /// timings come from the fastest block. 0 makes the whole run one
    /// block: where trials can end early (a rare 1-flip collapse), the
    /// fastest of small blocks would be the one holding a collapse.
    pub block_trials: usize,
    /// Cap of the traced run's tail percentile (the highest percentile
    /// with ten trials beyond it, up to this).
    pub tail_cap: f64,
}

/// One flip: trials almost never collapse, so each resumes a full epoch.
pub const RESUME_TRAIN: Protocol = Protocol {
    name: "resume-train",
    flips: 1,
    nominal_trials_per_s: 4.4,
    block_trials: 0,
    tail_cap: 90.0,
};

/// A thousand flips: every trial collapses at the N-EV scan before its
/// first batch, so no forward or backward pass runs.
pub const COLLAPSE_INJECT: Protocol = Protocol {
    name: "collapse-inject",
    flips: 1000,
    nominal_trials_per_s: 340.0,
    block_trials: 40,
    tail_cap: 99.0,
};

/// The models of Table IV, in the runner's order.
pub const MODELS: [ModelKind; 3] = [ModelKind::ResNet50, ModelKind::Vgg16, ModelKind::AlexNet];

const FW: FrameworkKind = FrameworkKind::Chainer;
const EXPERIMENT: &str = "benchmark";
/// The seed `Prebaked` builds its sessions with. Restore overwrites every
/// tensor the seed initialises, and the cross-check below fails if the
/// traced body's sessions ever diverge from the runner's.
const SESSION_SEED: u64 = 0x5EF1_2021;
/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Trial ids are `model index * ID_STRIDE + trial`.
const ID_STRIDE: u64 = 1_000_000;

/// The cell label of one block of a run: the seed enters every trial's
/// `combo_seed` through it, so each seed draws different flips.
pub fn cell_label(seed: u64, block: usize, flips: u64) -> String {
    format!("bench-s{seed}-b{block}-nev-64-{flips}")
}

fn outcome(collapsed: bool, accuracy: Option<f64>, report: &InjectionReport) -> TrialOutcome {
    let o = TrialOutcome::ok().with_collapsed(collapsed).with_counters(
        report.injections,
        report.nan_redraws,
        report.skipped,
    );
    match accuracy {
        Some(a) => o.with_accuracy(a),
        None => o,
    }
}

fn corrupt(ck: &mut H5File, flips: u64, seed: u64) -> Result<InjectionReport, TrialError> {
    let cfg = CorrupterConfig::bit_flips_full_range(flips, Precision::Fp64, seed);
    Ok(Corrupter::new(cfg)?.corrupt(ck)?)
}

/// The untraced trial: `exp_nev::nev_plan`'s body, plus the final
/// accuracy in the outcome.
pub fn trial(
    pre: &Prebaked,
    model: ModelKind,
    pristine: &H5File,
    flips: u64,
    seed: u64,
) -> TrialResult {
    let mut ck = pristine.clone();
    let report = corrupt(&mut ck, flips, seed)?;
    let out = pre.try_resume(FW, model, &ck, pre.budget().resume_epochs)?;
    Ok(outcome(out.collapsed(), out.final_accuracy(), &report))
}

/// What a traced trial records besides its outcome.
#[derive(Debug)]
pub struct TrialTrace {
    /// The trial's spans.
    pub log: SpanLog,
    /// Kernel workspace the trial's network retained at its end.
    pub workspace_bytes: usize,
}

/// The session `Prebaked::try_resume` builds, from public parts.
fn session_config(budget: &Budget, model: ModelKind) -> SessionConfig {
    let mut cfg = SessionConfig::new(FW, model, SESSION_SEED);
    cfg.model_config = budget.model_config();
    cfg.train.batch_size = 8.min(budget.train_images.max(1));
    cfg
}

fn has_nev(net: &mut Network, nev: &NevPolicy) -> bool {
    net.state_dict()
        .entries()
        .iter()
        .any(|e| e.tensor.data().iter().any(|&v| nev.classify_f64(v as f64).is_some()))
}

/// The traced trial: the untraced trial's work, re-driven through public
/// calls with a span around each. Spans carry the trial id `id`.
pub fn traced_trial(
    pre: &Prebaked,
    model: ModelKind,
    pristine: &H5File,
    flips: u64,
    seed: u64,
    id: u64,
    trace: &mut TrialTrace,
) -> TrialResult {
    let log = &mut trace.log;
    log.open("trial", id);
    let mut ck = log.time("hdf5.materialize", id, || pristine.clone());
    let report = log.time("corrupt", id, || corrupt(&mut ck, flips, seed))?;
    let budget = pre.budget();
    let mut session = log.time("session.build", id, || Session::new(session_config(budget, model)));
    log.time("session.restore", id, || session.restore(&ck))
        .map_err(|e| TrialError::new(format!("restore failed: {e}")))?;
    let train = session.config().train.clone();
    let start = session.epoch();
    let mut sgd = Sgd::new(train.sgd);
    let net = session.network_mut();

    let mut collapsed = log.time("nn.nev_scan", id, || has_nev(net, &train.nev));
    let mut accuracy = None;
    'epochs: for epoch in start..start + budget.resume_epochs {
        if collapsed {
            break;
        }
        let mut batches = BatchIter::new(pre.data(), Split::Train, train.batch_size, epoch);
        while let Some(batch) = log.time("data", id, || batches.next()) {
            log.time("nn.zero_grad", id, || net.zero_grad());
            log.open("nn.forward", id);
            let mut last = Instant::now();
            let logits = net
                .forward_observed(batch.images, true, |_, layer, _| {
                    let now = Instant::now();
                    log.record(&format!("nn.fwd.{layer}"), id, last, now);
                    last = now;
                    true
                })
                .expect("an observer that always continues never aborts");
            log.close();
            let (loss, dlogits) =
                log.time("nn.loss", id, || softmax_cross_entropy(&logits, &batch.labels));
            if !loss.is_finite() {
                collapsed = true;
                break 'epochs;
            }
            log.time("nn.backward", id, || net.backward(dlogits));
            log.time("nn.optim", id, || sgd.step(&mut net.params_mut()));
        }
        collapsed = log.time("nn.nev_scan", id, || has_nev(net, &train.nev));
        if !collapsed {
            accuracy = Some(log.time("nn.evaluate", id, || evaluate(net, pre.data(), Split::Test)));
        }
    }
    log.close();
    trace.workspace_bytes = net.workspace_bytes();
    Ok(outcome(collapsed, accuracy, &report))
}

/// One cold set-up in a fresh working directory: dataset generation,
/// pretraining every model (the runner's cache starts empty), and
/// minting the pristine checkpoints.
fn setup(budget: Budget, dir: &RunDir, k: usize) -> Result<(Prebaked, f64), String> {
    let cwd = dir.enter_fresh(&format!("setup-{k}"))?;
    let t0 = Instant::now();
    let cfg = CampaignConfig::new(EXPERIMENT).results_dir(cwd.join("results"));
    let pre = Prebaked::with_campaign(budget, cfg).map_err(|e| format!("opening campaign: {e}"))?;
    for model in MODELS {
        pre.checkpoint_shared(FW, model, Dtype::F64);
    }
    Ok((pre, t0.elapsed().as_secs_f64()))
}

/// How a run is cut: `(blocks, trials per model per block)`.
fn sizing(p: &Protocol, opts: &Options) -> (usize, usize) {
    if opts.smoke {
        return (2, 4);
    }
    let per_model = (opts.seconds * p.nominal_trials_per_s / MODELS.len() as f64).round().max(2.0);
    match p.block_trials {
        0 => (1, per_model as usize),
        b => ((per_model / b as f64).round().max(2.0) as usize, b),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Span name → per-model metric prefix.
const STAGES: [(&str, &str); 10] = [
    ("hdf5.materialize", "hdf5.materialize_ms"),
    ("corrupt", "corrupt.ms"),
    ("session.build", "session.build_ms"),
    ("session.restore", "session.restore_ms"),
    ("nn.nev_scan", "nn.nev_scan_ms"),
    ("nn.forward", "nn.forward_ms"),
    ("nn.loss", "nn.loss_ms"),
    ("nn.backward", "nn.backward_ms"),
    ("nn.optim", "nn.optim_ms"),
    ("nn.evaluate", "nn.evaluate_ms"),
];

/// What one campaign run dispatched and observed.
struct Dispatch {
    blocks: usize,
    per_model: usize,
    /// Outcomes per plan; plan `pi` is model `pi % 3` of block `pi / 3`.
    outcomes: Vec<Vec<TrialOutcome>>,
    /// `TrialEnd` durations per plan, ms.
    durations: Vec<Vec<f64>>,
    /// Wall time of each block, s.
    walls: Vec<f64>,
    cached: u64,
    /// Telemetry lines and telemetry plus manifest bytes written.
    events: u64,
    bytes: u64,
    alloc_events: usize,
    cpu: (measure::CpuTimes, measure::CpuTimes),
    /// Traced runs: the merged spans and each trial's retained workspace.
    log: SpanLog,
    workspace: HashMap<u64, usize>,
}

impl Dispatch {
    fn total(&self) -> usize {
        self.blocks * self.per_model * MODELS.len()
    }

    /// Durations of model `mi` over the given blocks.
    fn model_durations(&self, mi: usize, blocks: &[usize]) -> Vec<f64> {
        blocks.iter().flat_map(|&k| self.durations[k * MODELS.len() + mi].iter().copied()).collect()
    }
}

/// Run a campaign workload in `dir`.
pub fn run(p: &Protocol, opts: &Options, dir: &RunDir) -> Result<RunRecord, String> {
    let budget = if opts.smoke { Budget::smoke() } else { Budget::default_budget() };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        // The previous set-up is dropped first, so set-ups never overlap
        // in memory.
        drop(last.take());
        let (pre, secs) = setup(budget, dir, k)?;
        setup_s.push(secs);
        last = Some(pre);
    }
    let pre = last.expect("at least one set-up");
    let results = std::env::current_dir().map_err(|e| e.to_string())?.join("results");

    let (blocks, per_model) = sizing(p, opts);
    let origin = Instant::now();
    let merged = Mutex::new(SpanLog::new(origin));
    let workspace: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    let pristine: Vec<Arc<H5File>> =
        MODELS.iter().map(|&m| pre.checkpoint_shared(FW, m, Dtype::F64)).collect();
    // One plan per (block, model); plan `pi` is model `pi % 3` of block
    // `pi / 3`, and its trial `t` has id `pi * ID_STRIDE + t`.
    let plans: Vec<CellPlan<'_>> = (0..blocks * MODELS.len())
        .map(|pi| {
            let (mi, model) = (pi % MODELS.len(), MODELS[pi % MODELS.len()]);
            let (pre, pristine, merged, workspace) = (&pre, &pristine[mi], &merged, &workspace);
            let (flips, traced) = (p.flips, opts.trace);
            let label = cell_label(opts.seed, pi / MODELS.len(), p.flips);
            CellPlan::new(EXPERIMENT, label, FW, model, per_model, move |t, seed| {
                if !traced {
                    return trial(pre, model, pristine, flips, seed);
                }
                let id = pi as u64 * ID_STRIDE + t as u64;
                let mut tr = TrialTrace { log: SpanLog::new(origin), workspace_bytes: 0 };
                let out = traced_trial(pre, model, pristine, flips, seed, id, &mut tr);
                merged.lock().expect("no trial panics holding the span log").absorb(tr.log);
                workspace
                    .lock()
                    .expect("no trial panics holding it")
                    .insert(id, tr.workspace_bytes);
                out
            })
        })
        .collect();

    let telemetry = results.join("telemetry.jsonl");
    let manifest = results.join(EXPERIMENT).join("manifest.jsonl");
    let (events0, bytes0) = (count_lines(&telemetry), file_len(&telemetry) + file_len(&manifest));
    let (cpu0, alloc0) = (measure::cpu_times(), sefi_tensor::workspace_alloc_events());
    let mut outcomes = Vec::with_capacity(plans.len());
    let mut walls = Vec::with_capacity(blocks);
    for block in plans.chunks(MODELS.len()) {
        let t0 = Instant::now();
        outcomes.extend(pre.run_plan(block));
        walls.push(t0.elapsed().as_secs_f64());
    }
    let (cpu1, alloc1) = (measure::cpu_times(), sefi_tensor::workspace_alloc_events());
    let (ran, cached) = pre.campaign_totals().expect("campaign attached");
    pre.finish_campaign();

    let mut gates = Gates::default();
    let total = blocks * per_model * MODELS.len();
    gates.check(cached == 0, || format!("{cached} trials served from a manifest"));
    gates.check(ran as usize == total, || format!("{ran} of {total} trials executed"));
    let failed = outcomes.iter().flatten().filter(|o| o.is_failed()).count();
    gates.check(failed == 0, || format!("{failed} trials failed"));

    // Per-trial durations from the campaign's own TrialEnd events, per plan.
    let seeds: HashMap<u64, usize> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, plan)| (0..plan.trials()).map(move |t| (plan.seed(t), pi)))
        .collect();
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
    for event in read_events(&telemetry)? {
        if let Event::TrialEnd { experiment, seed, duration_ns, cached, .. } = event {
            if experiment != EXPERIMENT {
                continue;
            }
            gates.check(!cached, || format!("trial {seed:x} was cached"));
            let pi = seeds.get(&seed).copied();
            gates.check(pi.is_some(), || format!("TrialEnd for unknown seed {seed:x}"));
            if let Some(pi) = pi {
                durations[pi].push(ms(duration_ns));
            }
        }
    }
    gates.check(durations.iter().all(|d| d.len() == per_model), || {
        let counts: Vec<usize> = durations.iter().map(Vec::len).collect();
        format!("TrialEnd events per cell {counts:?}, want {per_model}")
    });

    // The other body must agree on the first trial of every model.
    for (mi, &model) in MODELS.iter().enumerate() {
        let seed = plans[mi].seed(0);
        let other = if opts.trace {
            trial(&pre, model, &pristine[mi], p.flips, seed)
        } else {
            let mut tr = TrialTrace { log: SpanLog::new(origin), workspace_bytes: 0 };
            traced_trial(&pre, model, &pristine[mi], p.flips, seed, 0, &mut tr)
        };
        let same = other.as_ref().ok() == Some(&outcomes[mi][0]);
        gates.check(same, || format!("traced and untraced bodies disagree on {}", model.id()));
    }
    drop(plans);

    let run = Dispatch {
        blocks,
        per_model,
        outcomes,
        durations,
        walls,
        cached,
        events: count_lines(&telemetry) - events0,
        bytes: file_len(&telemetry) + file_len(&manifest) - bytes0,
        alloc_events: alloc1 - alloc0,
        cpu: (cpu0, cpu1),
        log: merged.into_inner().expect("pool joined"),
        workspace: workspace.into_inner().expect("pool joined"),
    };
    let all_blocks: Vec<usize> = (0..blocks).collect();
    let all_medians: Vec<f64> = (0..MODELS.len())
        .map(|mi| measure::median(&run.model_durations(mi, &all_blocks)))
        .collect();
    gates.note(format!(
        "{total} trials in {blocks} blocks of {per_model} per model, {} collapsed; {:.3} s in all; \
         per-model median trial ms over all blocks {all_medians:.2?}",
        run.outcomes.iter().flatten().filter(|o| o.collapsed).count(),
        run.walls.iter().sum::<f64>()
    ));
    let metrics = if opts.trace {
        if let Some(path) = &opts.spans {
            std::fs::write(path, run.log.to_jsonl())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        traced_metrics(p, &run, &mut gates)?
    } else {
        headline_metrics(&run, &setup_s, &mut gates)
    };

    let (correct, notes) = gates.finish();
    Ok(RunRecord {
        workload: p.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        correct,
        attempted: total as u64,
        failed: failed as u64,
        digest: outcome_digest(&run.outcomes),
        metrics,
        notes,
        host: measure::host_facts(&opts.root),
    })
}

/// The end-to-end metrics, read from the run's fastest block.
fn headline_metrics(run: &Dispatch, setup_s: &[f64], gates: &mut Gates) -> BTreeMap<String, f64> {
    let best = measure::best_block(&run.walls, Better::Lower).expect("a block ran");
    let medians: Vec<f64> =
        (0..MODELS.len()).map(|mi| measure::median(&run.model_durations(mi, &[best]))).collect();
    gates.note(format!(
        "setup_s: median of {SETUPS} cold set-ups {setup_s:.3?}; throughput_per_s and p50_ms from \
         the fastest of {} blocks ({:.3} s); p50_ms: geometric mean of per-model median trial ms \
         {medians:.2?} (resnet50, vgg16, alexnet)",
        run.blocks, run.walls[best]
    ));
    BTreeMap::from([
        ("setup_s".to_string(), measure::median(setup_s)),
        ("throughput_per_s".to_string(), (run.per_model * MODELS.len()) as f64 / run.walls[best]),
        ("p50_ms".to_string(), measure::geomean(&medians)),
        ("peak_rss_mb".to_string(), measure::peak_rss_mb()),
    ])
}

/// The per-layer metrics of a traced run.
fn traced_metrics(
    p: &Protocol,
    run: &Dispatch,
    gates: &mut Gates,
) -> Result<BTreeMap<String, f64>, String> {
    let total = run.total() as f64;
    let all_blocks: Vec<usize> = (0..run.blocks).collect();
    let all: Vec<f64> = run.durations.iter().flatten().copied().collect();
    let (tail_p, tail) =
        measure::tail_percentile(&all, p.tail_cap, 10).ok_or("too few trials for a tail")?;
    gates.note(format!(
        "runner.trial_tail_ms: p{tail_p:.1} of {} trials, {} beyond",
        tail.samples, tail.beyond
    ));
    let busy_s = all.iter().sum::<f64>() / 1e3;
    let wall: f64 = run.walls.iter().sum();
    let flat: Vec<&TrialOutcome> = run.outcomes.iter().flatten().collect();
    let sum = |f: fn(&TrialOutcome) -> u64| flat.iter().map(|o| f(o)).sum::<u64>() as f64;
    let (inj, redraws) = (sum(|o| o.injections), sum(|o| o.nan_redraws));
    let (cpu0, cpu1) = run.cpu;
    let mut metrics = BTreeMap::from([
        ("runner.busy_frac".to_string(), busy_s / (rayon::current_num_threads() as f64 * wall)),
        ("runner.cached".to_string(), run.cached as f64),
        ("runner.trial_tail_ms".to_string(), tail.value),
        ("telemetry.events_per_trial".to_string(), run.events as f64 / total),
        ("telemetry.bytes_per_trial".to_string(), run.bytes as f64 / total),
        ("corrupt.injections_per_trial".to_string(), inj / total),
        ("corrupt.nan_redraws_per_trial".to_string(), redraws / total),
        ("corrupt.skipped_per_trial".to_string(), sum(|o| o.skipped) / total),
        ("corrupt.useful_frac".to_string(), inj / (inj + redraws)),
        ("tensor.alloc_events_per_trial".to_string(), run.alloc_events as f64 / total),
        ("host.cpu_user_s".to_string(), cpu1.user_s - cpu0.user_s),
        ("host.cpu_sys_s".to_string(), cpu1.sys_s - cpu0.sys_s),
    ]);
    for (mi, m) in MODELS.iter().enumerate() {
        let p50 = measure::median(&run.model_durations(mi, &all_blocks));
        metrics.insert(format!("runner.trial_p50_ms.{}", m.id()), p50);
        let bytes: Vec<f64> = run
            .workspace
            .iter()
            .filter(|(&id, _)| (id / ID_STRIDE) as usize % MODELS.len() == mi)
            .map(|(_, &b)| b as f64)
            .collect();
        metrics.insert(format!("tensor.workspace_bytes.{}", m.id()), measure::median(&bytes));
    }
    let ids: Vec<Vec<u64>> = (0..MODELS.len())
        .map(|mi| {
            (mi..run.outcomes.len())
                .step_by(MODELS.len())
                .flat_map(|pi| (0..run.per_model as u64).map(move |t| pi as u64 * ID_STRIDE + t))
                .collect()
        })
        .collect();
    span_metrics(&run.log, &ids, &mut metrics);
    Ok(metrics)
}

/// Digest over every trial's collapsed flag, counters and accuracy bits,
/// in model and trial order.
pub fn outcome_digest(outcomes: &[Vec<TrialOutcome>]) -> String {
    let mut text = String::new();
    for (mi, cell) in outcomes.iter().enumerate() {
        for (t, o) in cell.iter().enumerate() {
            text.push_str(&format!(
                "{mi} {t} {} {} {} {} {} {:?}\n",
                o.status,
                o.collapsed,
                o.injections,
                o.nan_redraws,
                o.skipped,
                o.final_accuracy.map(f64::to_bits),
            ));
        }
    }
    digest64(&text)
}

/// Per-model stage and layer metrics from the merged trial spans: for
/// each trial, the total time under each span name; per model, the median
/// over that model's trial ids `ids[mi]`. Also the share of traced trial
/// time the stage spans cover.
fn span_metrics(log: &SpanLog, ids: &[Vec<u64>], metrics: &mut BTreeMap<String, f64>) {
    let spans = log.spans();
    let mut totals: HashMap<(u64, &str), u64> = HashMap::new();
    for s in spans {
        *totals.entry((s.id, s.name.as_str())).or_default() += s.duration_ns();
    }
    let self_ns = log.self_times_ns();
    let (mut trial_ns, mut trial_self_ns) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&self_ns) {
        if s.parent.is_none() {
            trial_ns += s.duration_ns();
            trial_self_ns += own;
        }
    }
    metrics.insert("trace.coverage".into(), 1.0 - trial_self_ns as f64 / trial_ns.max(1) as f64);
    metrics.insert("trace.spans".into(), spans.len() as f64);

    let per_trial = |mi: usize, name: &str| -> Vec<f64> {
        ids[mi].iter().map(|&id| ms(totals.get(&(id, name)).copied().unwrap_or(0))).collect()
    };
    for (mi, m) in MODELS.iter().enumerate() {
        for (span, metric) in STAGES {
            metrics.insert(format!("{metric}.{}", m.id()), measure::median(&per_trial(mi, span)));
        }
    }
    // Layers are those the catalogue names: `nn.fwd.<model>.<layer>_ms`.
    for name in Spec::load().per_layer.into_iter().map(|m| m.name) {
        let Some((model, layer)) = name.strip_prefix("nn.fwd.").and_then(|r| r.split_once('.'))
        else {
            continue;
        };
        let layer = layer.strip_suffix("_ms").expect("layer metrics end in _ms");
        let mi = MODELS.iter().position(|m| m.id() == model).expect("catalogue models exist");
        let v = measure::median(&per_trial(mi, &format!("nn.fwd.{layer}")));
        metrics.insert(name, v);
    }
}

fn count_lines(path: &Path) -> u64 {
    std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count() as u64)
}

fn read_events(path: &Path) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("telemetry line {l:?}: {e}")))
        .collect()
}
