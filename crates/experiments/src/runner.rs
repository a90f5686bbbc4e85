//! Shared experiment plumbing: pretrained baselines, checkpoint minting,
//! deterministic per-trial seeding, and the campaign-wide trial scheduler.
//!
//! # The trial scheduler
//!
//! Experiments declare their cells up front as [`CellPlan`]s and submit
//! them in one [`Prebaked::run_plan`] call. The runner flattens every
//! `(cell, trial)` pair of the submitted phase into a single work pool and
//! dispatches it through the work-stealing parallel iterator — there is
//! **no barrier between cells**, so a cell whose trials finish early
//! (collapsed trainings return in a fraction of a clean resume's time)
//! releases its workers straight into the next cell's trials instead of
//! idling on the cell's stragglers.
//!
//! Determinism is preserved by construction, not by scheduling: each
//! trial's seed is the pure function [`combo_seed`]`(fw, model, cell,
//! trial)`, and outcomes are scattered back into per-cell vectors by trial
//! index. Tables assembled from those vectors are byte-identical at any
//! `RAYON_NUM_THREADS` and across mid-campaign kill/resume. Only the
//! telemetry *event stream* reflects execution order — per-trial events
//! from different cells may interleave — and nothing downstream consumes
//! the stream's order.

use crate::budget::Budget;
use parking_lot::Mutex;
use rayon::prelude::*;
use sefi_core::{Corrupter, CorrupterConfig, InjectionLog, InjectionReport};
use sefi_data::SyntheticCifar10;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dataset, Dtype, H5File};
use sefi_models::ModelKind;
use sefi_nn::{EpochRecord, StateDict, TrainOutcome};
use sefi_telemetry::{digest64, Aggregator, Event, JsonlSink, Manifest, TrialOutcome, TrialRecord};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Why a trial could not produce an outcome: a propagated error from the
/// corruption/restore/replay machinery, or (via the runner's panic guard)
/// the message of a panic that unwound out of the trial closure. Either
/// way the trial becomes a recorded [`TrialOutcome::failed`] instead of
/// killing the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    reason: String,
}

impl TrialError {
    /// A failure with an explicit reason.
    pub fn new(reason: impl Into<String>) -> Self {
        TrialError { reason: reason.into() }
    }

    /// The human-readable failure reason recorded in the manifest.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl From<String> for TrialError {
    fn from(reason: String) -> Self {
        TrialError::new(reason)
    }
}

impl From<&str> for TrialError {
    fn from(reason: &str) -> Self {
        TrialError::new(reason)
    }
}

impl From<sefi_core::CorruptError> for TrialError {
    fn from(e: sefi_core::CorruptError) -> Self {
        TrialError::new(e.to_string())
    }
}

impl From<sefi_hdf5::Error> for TrialError {
    fn from(e: sefi_hdf5::Error) -> Self {
        TrialError::new(e.to_string())
    }
}

impl From<std::io::Error> for TrialError {
    fn from(e: std::io::Error) -> Self {
        TrialError::new(e.to_string())
    }
}

/// What a trial closure returns: a completed outcome, or the reason it
/// could not complete.
pub type TrialResult = Result<TrialOutcome, TrialError>;

/// Panic capture for trial isolation: a process-wide hook (installed once,
/// chaining to the previous hook) that, while the current thread is inside
/// a guarded trial, records the panic message + location into a
/// thread-local slot instead of printing a backtrace to stderr.
mod panic_capture {
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;

    thread_local! {
        // None: not capturing (delegate to the previous hook).
        // Some(None): capturing, no panic seen yet.
        // Some(Some(msg)): capturing, panic message recorded.
        static CAPTURE: RefCell<Option<Option<String>>> = const { RefCell::new(None) };
    }

    fn install_hook() {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let captured = CAPTURE.with(|slot| {
                    let mut slot = slot.borrow_mut();
                    match slot.as_mut() {
                        Some(msg) => {
                            let payload = info
                                .payload()
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            *msg = Some(match info.location() {
                                Some(loc) => {
                                    format!("{payload} at {}:{}", loc.file(), loc.line())
                                }
                                None => payload,
                            });
                            true
                        }
                        None => false,
                    }
                });
                if !captured {
                    prev(info);
                }
            }));
        });
    }

    /// Run `f`, converting any panic into `Err(message)`. Panics outside
    /// `catch` (other threads, nested non-trial code) behave normally.
    pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        install_hook();
        CAPTURE.with(|slot| *slot.borrow_mut() = Some(None));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        let message = CAPTURE.with(|slot| slot.borrow_mut().take()).flatten();
        match result {
            Ok(v) => Ok(v),
            Err(payload) => Err(message.unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string())
            })),
        }
    }
}

/// Test-only fault hook: when `SEFI_FAIL_TRIAL="experiment:cell:trial"` is
/// set, the matching trial panics inside the runner's guard. Lets CI prove
/// a deliberately-failing cell is isolated without patching experiment
/// code. Parsed once; the cell itself may contain colons.
fn injected_failure(experiment: &str, cell: &str, trial: usize) -> bool {
    static TARGET: OnceLock<Option<(String, String, usize)>> = OnceLock::new();
    let target = TARGET.get_or_init(|| {
        let spec = std::env::var("SEFI_FAIL_TRIAL").ok()?;
        let (exp, rest) = spec.split_once(':')?;
        let (cell, trial) = rest.rsplit_once(':')?;
        Some((exp.to_string(), cell.to_string(), trial.parse().ok()?))
    });
    matches!(target, Some((e, c, t)) if e == experiment && c == cell && *t == trial)
}

/// Master seed of the whole experimental campaign.
const CAMPAIGN_SEED: u64 = 0x5EF1_2021;

/// Version of the manifest key-space: bumped whenever `combo_seed` or the
/// record semantics change, so records minted by an older runner are never
/// cross-served to a newer one. Mixed into the campaign config digest.
const MANIFEST_SCHEMA: u32 = 2;

/// Stable per-trial seed: a pure function of (framework, model, experiment
/// label, trial index), so any table cell can be recomputed in isolation.
pub fn combo_seed(fw: FrameworkKind, model: ModelKind, label: &str, trial: usize) -> u64 {
    combo_seed_parts(fw.id(), model.id(), label, trial)
}

/// The hash behind [`combo_seed`], over the raw id strings. Each string
/// field is hashed behind a length prefix, so the encoding is prefix-free
/// and distinct `(fw, model, label)` triples like `("ab","c")`/`("a","bc")`
/// can no longer concatenate to the same byte stream (which previously let
/// manifest-cached outcomes cross-serve between cells). Public so property
/// tests can probe injectivity over the field boundaries.
pub fn combo_seed_parts(fw: &str, model: &str, label: &str, trial: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for field in [fw, model, label] {
        mix(&(field.len() as u64).to_le_bytes());
        mix(field.as_bytes());
    }
    mix(&trial.to_le_bytes());
    h ^ CAMPAIGN_SEED
}

/// How a campaign records itself: where results live and what the
/// campaign is called in its telemetry stream.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign name, stamped on campaign-level telemetry events.
    pub name: String,
    /// Directory holding per-experiment manifests and the event stream
    /// (`<results_dir>/<experiment>/manifest.jsonl`,
    /// `<results_dir>/telemetry.jsonl`).
    pub results_dir: PathBuf,
    /// Re-execute trials whose manifest record is a failure instead of
    /// serving the recorded failure. Successes are never re-executed.
    pub retry_failed: bool,
    /// Shard tag of this worker process in a multi-process campaign.
    /// When set, manifests open in sharded mode: records from every
    /// worker's shard file are read, but this process appends only to
    /// `manifest-<shard>.jsonl`, so concurrent workers never interleave
    /// writes within one file.
    pub shard: Option<String>,
}

impl CampaignConfig {
    /// A campaign writing under the conventional `results/` directory.
    pub fn new(name: &str) -> Self {
        CampaignConfig {
            name: name.to_string(),
            results_dir: PathBuf::from("results"),
            retry_failed: false,
            shard: None,
        }
    }

    /// Redirect everything the campaign writes to `dir`.
    pub fn results_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.results_dir = dir.into();
        self
    }

    /// Re-run manifest-recorded failures (the `--retry-failed` flag).
    pub fn retry_failed(mut self, retry: bool) -> Self {
        self.retry_failed = retry;
        self
    }

    /// Mark this process as worker `shard` of a multi-process campaign
    /// (the `--worker-id` flag). The tag must be filename-safe.
    pub fn shard_id(mut self, shard: impl Into<String>) -> Self {
        self.shard = Some(shard.into());
        self
    }
}

/// Live campaign state: the event sink, the summary aggregator, and one
/// lazily opened manifest per experiment.
struct Campaign {
    name: String,
    config_digest: String,
    results_dir: PathBuf,
    retry_failed: bool,
    shard: Option<String>,
    sink: JsonlSink,
    aggregator: Aggregator,
    manifests: Mutex<HashMap<String, Arc<Manifest>>>,
    started: Instant,
}

impl Campaign {
    fn manifest_for(&self, experiment: &str) -> Arc<Manifest> {
        let mut manifests = self.manifests.lock();
        if let Some(m) = manifests.get(experiment) {
            return Arc::clone(m);
        }
        let path = self.results_dir.join(experiment).join("manifest.jsonl");
        let open = match &self.shard {
            Some(tag) => Manifest::open_sharded(&path, tag),
            None => Manifest::open(&path),
        };
        let m = Arc::new(
            open.unwrap_or_else(|e| panic!("cannot open manifest {}: {e}", path.display())),
        );
        manifests.insert(experiment.to_string(), Arc::clone(&m));
        m
    }
}

/// Emits `PhaseStart` on creation and `PhaseEnd` (with the wall-clock
/// duration) when dropped. A no-op outside a campaign.
pub struct PhaseGuard<'a> {
    campaign: Option<&'a Campaign>,
    name: String,
    started: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.campaign {
            c.sink.emit(&Event::PhaseEnd {
                phase: self.name.clone(),
                duration_ns: self.started.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// One declared cell of an experiment phase: the coordinates that key its
/// seeds and manifest records, the trial count, and the trial closure.
///
/// Experiments build a `Vec<CellPlan>` covering a whole table or figure
/// and submit it in one [`Prebaked::run_plan`] call; the runner flattens
/// every `(cell, trial)` pair into a single work-stealing pool with no
/// barrier between cells. The closure receives `(trial, seed)` where
/// `seed = combo_seed(fw, model, cell, trial)`, so a cell's outcomes are
/// independent of which other cells share the pool.
pub struct CellPlan<'p> {
    experiment: String,
    cell: String,
    fw: FrameworkKind,
    model: ModelKind,
    trials: usize,
    valid: Box<dyn Fn(&TrialOutcome) -> bool + Send + Sync + 'p>,
    run: Box<dyn Fn(usize, u64) -> TrialResult + Send + Sync + 'p>,
}

impl<'p> CellPlan<'p> {
    /// Declare a cell: `trials` executions of `run` under the experiment's
    /// manifest, keyed by `(fw, model, cell)`.
    pub fn new(
        experiment: impl Into<String>,
        cell: impl Into<String>,
        fw: FrameworkKind,
        model: ModelKind,
        trials: usize,
        run: impl Fn(usize, u64) -> TrialResult + Send + Sync + 'p,
    ) -> Self {
        CellPlan {
            experiment: experiment.into(),
            cell: cell.into(),
            fw,
            model,
            trials,
            valid: Box::new(|_| true),
            run: Box::new(run),
        }
    }

    /// Attach a validity check on manifest-cached records: a cached
    /// non-failed outcome rejected by `valid` (e.g. an old-schema record
    /// missing a field the caller needs) is re-executed instead of served.
    pub fn validated(mut self, valid: impl Fn(&TrialOutcome) -> bool + Send + Sync + 'p) -> Self {
        self.valid = Box::new(valid);
        self
    }

    /// The cell label (also the seed/manifest key component).
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// Number of trials this cell contributes to the pool.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The experiment this cell records under.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The `combo_seed` of this cell's `trial` — the manifest resume key.
    pub fn seed(&self, trial: usize) -> u64 {
        combo_seed(self.fw, self.model, &self.cell, trial)
    }
}

/// A keyed once-cache: per-key init slots behind one short-lived map lock.
type KeyedOnce<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Fetch (or create) the per-key init slot of a keyed once-cache. The map
/// lock is held only for the lookup; the caller runs the expensive init
/// inside `OnceLock::get_or_init`, so one thread computes while every
/// other thread needing the same key blocks on that key alone — distinct
/// keys initialize concurrently, and nobody computes a key twice.
fn entry_slot<K: Eq + std::hash::Hash + Clone, V>(
    map: &KeyedOnce<K, V>,
    key: &K,
) -> Arc<OnceLock<V>> {
    Arc::clone(map.lock().entry(key.clone()).or_default())
}

/// Pretrained state at the restart epoch, shared by every experiment.
///
/// The paper trains each (framework, model) combination once to epoch 20
/// and then mints arbitrarily many corrupted checkpoint copies. Because
/// the three frontends share the numeric engine, one pretraining per model
/// suffices here; checkpoints are then written in any framework's layout.
/// Pretrained weights are cached on disk under `target/sefi-cache`, and
/// minted pristine checkpoints are memoized per `(framework, model,
/// dtype)` behind an `Arc` — trials clone the shared file, and the
/// dataset layer's copy-on-write payloads make that clone pay only for
/// the datasets the trial actually corrupts.
///
/// Constructed with [`Prebaked::with_campaign`], it additionally records
/// telemetry and a per-experiment completed-trial manifest, and serves
/// already-completed trials from that manifest instead of re-running them.
pub struct Prebaked {
    budget: Budget,
    data: SyntheticCifar10,
    baselines: KeyedOnce<ModelKind, StateDict>,
    baseline_curves: KeyedOnce<(ModelKind, Dtype, usize), Vec<EpochRecord>>,
    checkpoints: KeyedOnce<(FrameworkKind, ModelKind, Dtype), Arc<H5File>>,
    templates: KeyedOnce<(FrameworkKind, ModelKind), Session>,
    campaign: Option<Campaign>,
}

impl Prebaked {
    /// Generate the dataset; baselines are trained (or loaded from cache)
    /// on first use. No telemetry, no manifest: every trial executes.
    pub fn new(budget: Budget) -> Self {
        Prebaked {
            data: SyntheticCifar10::generate(budget.data_config()),
            budget,
            baselines: Mutex::new(HashMap::new()),
            baseline_curves: Mutex::new(HashMap::new()),
            checkpoints: Mutex::new(HashMap::new()),
            templates: Mutex::new(HashMap::new()),
            campaign: None,
        }
    }

    /// Like [`Prebaked::new`], but with campaign recording attached: a
    /// JSONL event stream at `<results_dir>/telemetry.jsonl`, an
    /// end-of-campaign summary, and per-experiment manifests that make a
    /// re-run skip every trial already on record.
    pub fn with_campaign(budget: Budget, config: CampaignConfig) -> std::io::Result<Self> {
        let sink = JsonlSink::to_file(config.results_dir.join("telemetry.jsonl"))?;
        // The manifest schema version scopes the digest: bumping it (e.g.
        // for the combo_seed separator fix) retires every record minted by
        // an older runner instead of silently misreading it.
        let config_digest = digest64(&format!("schema=v{MANIFEST_SCHEMA};{budget:?}"));
        sink.emit(&Event::CampaignStart {
            campaign: config.name.clone(),
            budget: budget.name.to_string(),
            config_digest: config_digest.clone(),
        });
        let mut pre = Prebaked::new(budget);
        pre.campaign = Some(Campaign {
            name: config.name,
            config_digest,
            results_dir: config.results_dir,
            retry_failed: config.retry_failed,
            shard: config.shard,
            sink,
            aggregator: Aggregator::new(),
            manifests: Mutex::new(HashMap::new()),
            started: Instant::now(),
        });
        Ok(pre)
    }

    /// Start a named phase (one table or figure). Keep the guard alive
    /// for the phase's duration; timing is emitted on drop.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        if let Some(c) = &self.campaign {
            c.sink.emit(&Event::PhaseStart { phase: name.to_string() });
        }
        PhaseGuard {
            campaign: self.campaign.as_ref(),
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// `(run, cached)` trial totals so far. `None` without a campaign.
    pub fn campaign_totals(&self) -> Option<(u64, u64)> {
        self.campaign.as_ref().map(|c| c.aggregator.totals())
    }

    /// Trials recorded as failed so far. `None` without a campaign.
    pub fn campaign_failed(&self) -> Option<u64> {
        self.campaign.as_ref().map(|c| c.aggregator.failed_total())
    }

    /// Close the campaign: emit `CampaignEnd` and return the rendered
    /// trial summary. `None` without a campaign.
    pub fn finish_campaign(&self) -> Option<String> {
        let c = self.campaign.as_ref()?;
        let (trials_run, trials_cached) = c.aggregator.totals();
        c.sink.emit(&Event::CampaignEnd {
            campaign: c.name.clone(),
            trials_run,
            trials_cached,
            trials_failed: c.aggregator.failed_total(),
            duration_ns: c.started.elapsed().as_nanos() as u64,
        });
        Some(c.aggregator.render())
    }

    /// Path for a campaign artifact (CSV, report) named `name`: under the
    /// campaign's results directory when one is attached, else under the
    /// conventional `results/`. Creates the directory, or says why not.
    pub fn results_file(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = match &self.campaign {
            Some(c) => c.results_dir.clone(),
            None => PathBuf::from("results"),
        };
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(name))
    }

    /// Run a declared phase: flatten every `(cell, trial)` pair of `plans`
    /// into one dynamically load-balanced work pool and return the
    /// outcomes scattered back into per-cell vectors, `result[i][t]`
    /// holding plan `i`'s trial `t`.
    ///
    /// There is no barrier between cells: workers that finish one cell's
    /// cheap trials immediately steal the next cell's, so heterogeneous
    /// trial durations never leave cores idle. Every trial is keyed by
    /// [`combo_seed`] and collected positionally, so the result — and any
    /// table rendered from it — is byte-identical at any
    /// `RAYON_NUM_THREADS` and across kill/resume.
    ///
    /// Under a campaign, each plan's manifest is opened before dispatch;
    /// trials already on record (matching config digest) are served
    /// without executing, and executed trials are appended and flushed
    /// before the pool completes. Recorded failures are served too
    /// (resume skips known-bad trials) unless the campaign was opened
    /// with [`CampaignConfig::retry_failed`].
    pub fn run_plan(&self, plans: &[CellPlan<'_>]) -> Vec<Vec<TrialOutcome>> {
        let units: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(ci, p)| (0..p.trials).map(move |t| (ci, t)))
            .collect();
        let refs: Vec<&CellPlan<'_>> = plans.iter().collect();
        let flat = self.run_units(&refs, units);
        // The flat pool was built cell-major, and the dispatch preserves
        // positional order, so scattering back is sequential chunking.
        let mut flat = flat.into_iter();
        plans.iter().map(|p| flat.by_ref().take(p.trials).collect()).collect()
    }

    /// The scheduler core under [`Prebaked::run_plan`] and the adaptive
    /// wave dispatcher: run an explicit list of `(plan index, trial)`
    /// units through one work-stealing pool, returning outcomes in unit
    /// order (positional, so results are thread-count invariant). Units
    /// need not cover whole cells — adaptive campaigns dispatch one wave's
    /// trial range at a time.
    pub(crate) fn run_units(
        &self,
        plans: &[&CellPlan<'_>],
        units: Vec<(usize, usize)>,
    ) -> Vec<TrialOutcome> {
        // Open every experiment's manifest up front so workers never
        // contend on manifest creation mid-pool.
        let manifests: Vec<Option<Arc<Manifest>>> = plans
            .iter()
            .map(|p| self.campaign.as_ref().map(|c| c.manifest_for(&p.experiment)))
            .collect();
        units
            .into_par_iter()
            .map(|(ci, trial)| self.run_one(plans[ci], manifests[ci].as_deref(), trial))
            .collect()
    }

    /// Emit a campaign telemetry event; a no-op without a campaign.
    pub(crate) fn emit_event(&self, event: &Event) {
        if let Some(c) = &self.campaign {
            c.sink.emit(event);
        }
    }

    /// The campaign's config digest (scopes manifest records). `None`
    /// without a campaign.
    pub(crate) fn campaign_digest(&self) -> Option<String> {
        self.campaign.as_ref().map(|c| c.config_digest.clone())
    }

    /// The campaign's results directory, when one is attached.
    pub(crate) fn campaign_results_dir(&self) -> Option<PathBuf> {
        self.campaign.as_ref().map(|c| c.results_dir.clone())
    }

    /// The (possibly sharded) manifest of `experiment`. `None` without a
    /// campaign.
    pub(crate) fn campaign_manifest(&self, experiment: &str) -> Option<Arc<Manifest>> {
        self.campaign.as_ref().map(|c| c.manifest_for(experiment))
    }

    /// One trial of one plan through the guard + manifest + telemetry
    /// path. Called concurrently from pool workers; everything it touches
    /// (sink, aggregator, manifest) is internally locked, and failure
    /// lines go through the locked stderr handle so concurrent trials
    /// never interleave mid-line.
    fn run_one(
        &self,
        plan: &CellPlan<'_>,
        manifest: Option<&Manifest>,
        trial: usize,
    ) -> TrialOutcome {
        let seed = combo_seed(plan.fw, plan.model, &plan.cell, trial);
        // Run the trial through the panic guard, yielding the outcome to
        // record: the closure's own, or a failed outcome carrying the
        // propagated error / captured panic message.
        let execute = || -> TrialOutcome {
            let guarded = panic_capture::catch(|| {
                if injected_failure(&plan.experiment, &plan.cell, trial) {
                    panic!("injected test failure (SEFI_FAIL_TRIAL)");
                }
                (plan.run)(trial, seed)
            });
            let failure = match guarded {
                Ok(Ok(outcome)) => return outcome,
                Ok(Err(e)) => e.reason,
                Err(msg) => format!("panic: {msg}"),
            };
            let line = format!(
                "trial failed: {}/{} trial {trial} (seed {seed:x}): {failure}\n",
                plan.experiment, plan.cell
            );
            let _ = std::io::stderr().lock().write_all(line.as_bytes());
            TrialOutcome::failed(failure)
        };
        let Some(c) = &self.campaign else {
            return execute();
        };
        let manifest = manifest.expect("campaign dispatch prefetches every manifest");
        if let Some(rec) = manifest.lookup(seed, &c.config_digest) {
            let serve =
                if rec.outcome.is_failed() { !c.retry_failed } else { (plan.valid)(&rec.outcome) };
            if serve {
                c.sink.emit(&Event::TrialEnd {
                    experiment: plan.experiment.clone(),
                    cell: plan.cell.clone(),
                    trial: trial as u64,
                    seed,
                    status: rec.outcome.status.clone(),
                    duration_ns: rec.duration_ns,
                    injections: rec.outcome.injections,
                    nan_redraws: rec.outcome.nan_redraws,
                    skipped: rec.outcome.skipped,
                    cached: true,
                });
                c.aggregator.record(&plan.experiment, &rec.outcome.status, rec.duration_ns, true);
                return rec.outcome;
            }
        }
        c.sink.emit(&Event::TrialStart {
            experiment: plan.experiment.clone(),
            cell: plan.cell.clone(),
            trial: trial as u64,
            seed,
        });
        let t0 = Instant::now();
        let outcome = execute();
        let duration_ns = t0.elapsed().as_nanos() as u64;
        if let Some(reason) = &outcome.failure {
            c.sink.emit(&Event::TrialFailed {
                experiment: plan.experiment.clone(),
                cell: plan.cell.clone(),
                trial: trial as u64,
                seed,
                reason: reason.clone(),
                duration_ns,
            });
        }
        if let Err(e) = manifest.record(TrialRecord {
            experiment: plan.experiment.clone(),
            cell: plan.cell.clone(),
            framework: plan.fw.id().to_string(),
            model: plan.model.id().to_string(),
            trial: trial as u64,
            seed,
            config_digest: c.config_digest.clone(),
            duration_ns,
            outcome: outcome.clone(),
        }) {
            let line = format!("telemetry: failed to record trial {seed:x}: {e}\n");
            let _ = std::io::stderr().lock().write_all(line.as_bytes());
        }
        c.sink.emit(&Event::TrialEnd {
            experiment: plan.experiment.clone(),
            cell: plan.cell.clone(),
            trial: trial as u64,
            seed,
            status: outcome.status.clone(),
            duration_ns,
            injections: outcome.injections,
            nan_redraws: outcome.nan_redraws,
            skipped: outcome.skipped,
            cached: false,
        });
        c.aggregator.record(&plan.experiment, &outcome.status, duration_ns, false);
        outcome
    }

    /// Run one declared cell through the scheduler (a one-plan
    /// [`Prebaked::run_plan`]), with per-trial fault isolation: an error
    /// or a panic out of a trial closure becomes a recorded
    /// [`TrialOutcome::failed`] carrying the reason, and the other trials
    /// keep running.
    pub fn run_cell(&self, plan: &CellPlan<'_>) -> Vec<TrialOutcome> {
        self.run_plan(std::slice::from_ref(plan)).pop().expect("one plan yields one cell")
    }

    /// The budget in force.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The shared dataset.
    pub fn data(&self) -> &SyntheticCifar10 {
        &self.data
    }

    fn cache_path(&self, model: ModelKind) -> PathBuf {
        let dir = PathBuf::from("target/sefi-cache");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("pre_{}_{}.sefi5", model.id(), self.budget.cache_key()))
    }

    /// The engine weights of `model` at the restart epoch.
    ///
    /// Per-key once-initialized: the first caller trains (or loads the
    /// disk cache) while concurrent callers needing the same model block
    /// on that key's slot instead of pretraining a duplicate; callers
    /// needing a different model proceed unimpeded.
    fn baseline_weights(&self, model: ModelKind) -> StateDict {
        let slot = entry_slot(&self.baselines, &model);
        slot.get_or_init(|| self.load_cached_weights(model).unwrap_or_else(|| self.pretrain(model)))
            .clone()
    }

    fn pretrain(&self, model: ModelKind) -> StateDict {
        let mut session = self.fresh_session(FrameworkKind::Chainer, model);
        let out = session.train_to(&self.data, self.budget.restart_epoch);
        assert!(!out.collapsed(), "error-free pretraining of {model:?} collapsed — harness bug");
        let sd = session.network_mut().state_dict();
        self.store_cached_weights(model, &sd);
        sd
    }

    /// Neutral on-disk serialization of a state dict (engine paths under
    /// `t/` for trainable and `s/` for auxiliary state).
    fn store_cached_weights(&self, model: ModelKind, sd: &StateDict) {
        let mut f = H5File::new();
        for e in sd.entries() {
            let prefix = if e.trainable { "t" } else { "s" };
            let ds = Dataset::from_f32(e.tensor.data(), e.tensor.shape(), Dtype::F32)
                .expect("consistent tensor");
            f.create_dataset(&format!("{prefix}/{}", e.path), ds).expect("unique paths");
        }
        let _ = f.save(self.cache_path(model));
    }

    fn load_cached_weights(&self, model: ModelKind) -> Option<StateDict> {
        let f = H5File::load(self.cache_path(model)).ok()?;
        // Validate against the current architecture by shape-checking via
        // load_state_dict; on any mismatch fall back to retraining.
        let mut session = self.fresh_session(FrameworkKind::Chainer, model);
        let reference = session.network_mut().state_dict();
        let mut sd = StateDict::new();
        for e in reference.entries() {
            let prefix = if e.trainable { "t" } else { "s" };
            let ds = f.dataset(&format!("{prefix}/{}", e.path)).ok()?;
            if ds.len() != e.tensor.len() {
                return None;
            }
            sd.push(
                e.path.clone(),
                sefi_tensor::Tensor::from_vec(ds.to_f32_vec(), e.tensor.shape()),
                e.trainable,
            );
        }
        session.network_mut().load_state_dict(&sd).ok()?;
        Some(sd)
    }

    /// A session exactly as `Session::new` builds it for this campaign,
    /// cloned from a template built once per `(fw, model)`. Trials restore
    /// over every weight the initialization draws, so drawing it again per
    /// trial would be wasted work.
    fn fresh_session(&self, fw: FrameworkKind, model: ModelKind) -> Session {
        let slot = entry_slot(&self.templates, &(fw, model));
        slot.get_or_init(|| {
            let mut cfg = SessionConfig::new(fw, model, CAMPAIGN_SEED);
            cfg.model_config = self.budget.model_config();
            // Batch size 8: small batches give the deep, narrow scaled models
            // (especially VGG16, which has no batch norm) enough update steps
            // per epoch to converge within the budgeted epoch counts.
            cfg.train.batch_size = 8.min(self.budget.train_images.max(1));
            Session::new(cfg)
        })
        .clone()
    }

    /// The memoized pristine checkpoint of `model` at the restart epoch in
    /// `fw`'s layout at the requested precision, shared behind an `Arc`.
    /// Minted once per `(framework, model, dtype)` for the whole campaign;
    /// trials clone the shared file (cheap: dataset payloads are
    /// copy-on-write) and corrupt the clone.
    pub fn checkpoint_shared(
        &self,
        fw: FrameworkKind,
        model: ModelKind,
        dtype: Dtype,
    ) -> Arc<H5File> {
        let slot = entry_slot(&self.checkpoints, &(fw, model, dtype));
        Arc::clone(slot.get_or_init(|| {
            let sd = self.baseline_weights(model);
            let mut session = self.fresh_session(fw, model);
            session
                .network_mut()
                .load_state_dict(&sd)
                .expect("baseline weights fit the architecture");
            Arc::new(sefi_frameworks::save_checkpoint(
                fw,
                session.network_mut(),
                self.budget.restart_epoch,
                dtype,
            ))
        }))
    }

    /// Restore `file` (a possibly corrupted checkpoint) and train `epochs`
    /// more. A checkpoint the framework cannot restore (bit flips can
    /// corrupt structure, not just values) becomes an `Err`. The same body
    /// as [`Trial::resume`], without the builder around it.
    pub fn try_resume(
        &self,
        fw: FrameworkKind,
        model: ModelKind,
        file: &H5File,
        epochs: usize,
    ) -> Result<TrainOutcome, TrialError> {
        self.resume_session(fw, model, file, epochs).map(|(_, outcome)| outcome)
    }

    /// The one restore of every trial: `file` loaded into a fresh session.
    fn restored_session(
        &self,
        fw: FrameworkKind,
        model: ModelKind,
        file: &H5File,
    ) -> Result<Session, TrialError> {
        let mut session = self.fresh_session(fw, model);
        session.restore(file).map_err(|e| TrialError::new(format!("restore failed: {e}")))?;
        Ok(session)
    }

    /// Restore `file` once and train `epochs` more, keeping the session.
    fn resume_session(
        &self,
        fw: FrameworkKind,
        model: ModelKind,
        file: &H5File,
        epochs: usize,
    ) -> Result<(Session, TrainOutcome), TrialError> {
        let mut session = self.restored_session(fw, model, file)?;
        let target = session.epoch() + epochs;
        let outcome = session.train_to(&self.data, target);
        Ok((session, outcome))
    }

    /// A trial over the shared pristine checkpoint of `(fw, model, dtype)`.
    pub fn trial(&self, fw: FrameworkKind, model: ModelKind, dtype: Dtype) -> Trial<'_> {
        self.trial_from(fw, model, &self.checkpoint_shared(fw, model, dtype))
    }

    /// A trial over a clone of `pristine`, a checkpoint in `fw`'s layout.
    /// Plans hold the shared checkpoint and start each trial from it, so
    /// minting never happens inside the scheduler pool.
    pub fn trial_from(&self, fw: FrameworkKind, model: ModelKind, pristine: &H5File) -> Trial<'_> {
        Trial {
            pre: self,
            fw,
            model,
            checkpoint: pristine.clone(),
            report: InjectionReport::default(),
            log: InjectionLog::new(),
        }
    }

    /// The deterministic error-free resumed trajectory for (model, dtype):
    /// restore the pristine checkpoint and train to `end_epoch`. Cached —
    /// identical across frameworks because the layout round-trip is exact.
    pub fn baseline_curve(
        &self,
        model: ModelKind,
        dtype: Dtype,
        end_epoch: usize,
    ) -> Vec<EpochRecord> {
        // Keyed on the dtype itself, not its byte width: f16 and bf16 share
        // a width but narrow the pristine weights differently, so their
        // baseline trajectories are distinct.
        let key = (model, dtype, end_epoch);
        let slot = entry_slot(&self.baseline_curves, &key);
        slot.get_or_init(|| {
            let epochs = end_epoch.saturating_sub(self.budget.restart_epoch);
            let run = self
                .trial(FrameworkKind::Chainer, model, dtype)
                .resume(epochs)
                .expect("pristine checkpoint restores");
            assert!(!run.training.collapsed(), "error-free baseline collapsed — harness bug");
            run.training.history().to_vec()
        })
        .clone()
    }

    /// Baseline final accuracy after the standard resume window.
    pub fn baseline_final_accuracy(&self, model: ModelKind, dtype: Dtype) -> f64 {
        let end = self.budget.restart_epoch + self.budget.resume_epochs;
        self.baseline_curve(model, dtype, end)
            .last()
            .map(|r| r.test_accuracy)
            .expect("resume window is non-empty")
    }
}

/// One trial of the checkpoint-alteration protocol, built in the order
/// the paper runs it: a clone of a pristine checkpoint, altered by
/// [`Trial::corrupt`] or [`Trial::replay`], then restored **once** into a
/// fresh session by [`Trial::restore`] or [`Trial::resume`]. The
/// injection report and log are kept, so what the trial hands back
/// already carries the report's counters. A trial body states only its
/// corruption and what its table reads.
pub struct Trial<'p> {
    pre: &'p Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    checkpoint: H5File,
    report: InjectionReport,
    log: InjectionLog,
}

impl Trial<'_> {
    /// Alter the checkpoint with a configured injector, keeping its
    /// report and equivalent-injection log.
    pub fn corrupt(mut self, cfg: CorrupterConfig) -> Result<Self, TrialError> {
        let (report, log) = Corrupter::new(cfg)?.corrupt_with_log(&mut self.checkpoint)?;
        self.report = report;
        self.log = log;
        Ok(self)
    }

    /// Alter the checkpoint by replaying a recorded injection log with
    /// entry indices drawn from `seed` (Figure 5), keeping the report.
    pub fn replay(mut self, log: &InjectionLog, seed: u64) -> Result<Self, TrialError> {
        self.report = log.replay(&mut self.checkpoint, seed)?;
        Ok(self)
    }

    /// What the alteration changed (empty for an unaltered trial).
    pub fn report(&self) -> &InjectionReport {
        &self.report
    }

    /// The alteration's replayable log (empty unless [`Trial::corrupt`] ran).
    pub fn log(&self) -> &InjectionLog {
        &self.log
    }

    /// The altered checkpoint.
    pub fn checkpoint(&self) -> &H5File {
        &self.checkpoint
    }

    /// The altered checkpoint, for a further in-place pass (a guard's
    /// scrub) before the next restore.
    pub fn checkpoint_mut(&mut self) -> &mut H5File {
        &mut self.checkpoint
    }

    /// Restore the checkpoint into a fresh session and stop there.
    pub fn restore(&self) -> Result<Restored, TrialError> {
        let session = self.pre.restored_session(self.fw, self.model, &self.checkpoint)?;
        Ok(Restored { outcome: self.counted(), session })
    }

    /// Restore the checkpoint into a fresh session and train `epochs` more.
    pub fn resume(&self, epochs: usize) -> Result<Resumed, TrialError> {
        let (session, training) =
            self.pre.resume_session(self.fw, self.model, &self.checkpoint, epochs)?;
        let outcome = self.counted().with_collapsed(training.collapsed());
        Ok(Resumed { outcome, training, session })
    }

    fn counted(&self) -> TrialOutcome {
        let r = &self.report;
        TrialOutcome::ok().with_counters(r.injections, r.nan_redraws, r.skipped)
    }
}

/// A trial restored into a fresh session and not trained.
pub struct Restored {
    /// The injection report's counters.
    pub outcome: TrialOutcome,
    /// The session at the checkpoint's epoch, holding the altered weights.
    pub session: Session,
}

/// A trial restored into a fresh session and resumed.
pub struct Resumed {
    /// The injection report's counters and the training's collapse flag.
    pub outcome: TrialOutcome,
    /// The resumed training.
    pub training: TrainOutcome,
    /// The session where training stopped.
    pub session: Session,
}

impl Resumed {
    /// The outcome plus the final test accuracy, when training completed.
    pub fn with_final_accuracy(self) -> TrialOutcome {
        match self.training.final_accuracy() {
            Some(acc) => self.outcome.with_accuracy(acc),
            None => self.outcome,
        }
    }

    /// The outcome plus the per-epoch test-accuracy curve.
    pub fn with_curve(self) -> TrialOutcome {
        self.outcome.with_curve(self.training.history().iter().map(|r| r.test_accuracy).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_seeds_are_stable_and_distinct() {
        let a = combo_seed(FrameworkKind::Chainer, ModelKind::AlexNet, "t4", 0);
        let b = combo_seed(FrameworkKind::Chainer, ModelKind::AlexNet, "t4", 0);
        assert_eq!(a, b);
        assert_ne!(a, combo_seed(FrameworkKind::Chainer, ModelKind::AlexNet, "t4", 1));
        assert_ne!(a, combo_seed(FrameworkKind::PyTorch, ModelKind::AlexNet, "t4", 0));
        assert_ne!(a, combo_seed(FrameworkKind::Chainer, ModelKind::Vgg16, "t4", 0));
        assert_ne!(a, combo_seed(FrameworkKind::Chainer, ModelKind::AlexNet, "t5", 0));
    }

    #[test]
    fn combo_seed_separates_field_boundaries() {
        // Regression: without length prefixes these concatenate to the
        // same byte stream and cross-served manifest records.
        assert_ne!(combo_seed_parts("ab", "c", "t", 0), combo_seed_parts("a", "bc", "t", 0));
        assert_ne!(combo_seed_parts("a", "bc", "t", 0), combo_seed_parts("a", "b", "ct", 0));
        assert_ne!(combo_seed_parts("", "ab", "t", 0), combo_seed_parts("ab", "", "t", 0));
    }

    #[test]
    fn prebaked_checkpoint_and_resume_are_deterministic() {
        let pre = Prebaked::new(Budget::smoke());
        let t1 = pre.trial(FrameworkKind::Chainer, ModelKind::AlexNet, Dtype::F64);
        let t2 = pre.trial(FrameworkKind::Chainer, ModelKind::AlexNet, Dtype::F64);
        assert_eq!(t1.checkpoint().to_bytes(), t2.checkpoint().to_bytes());

        let o1 = t1.resume(1).unwrap().training;
        let o2 = t2.resume(1).unwrap().training;
        assert_eq!(o1.history(), o2.history());
        assert!(!o1.collapsed());
    }

    /// Unique scratch directory for campaign tests (parallel-safe).
    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sefi_runner_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn campaign_resumes_from_manifest_without_rerunning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = scratch_dir("resume");
        let cfg = CampaignConfig::new("unit").results_dir(&dir);
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        let executed = AtomicUsize::new(0);
        let run = |pre: &Prebaked, trials: usize| {
            pre.run_cell(&CellPlan::new("unit", "cell", fw, model, trials, |trial, seed| {
                executed.fetch_add(1, Ordering::Relaxed);
                Ok(TrialOutcome::ok()
                    .with_accuracy((seed % 1000) as f64 / 1000.0)
                    .with_curve(vec![trial as f64, 0.5])
                    .with_counters(7, 1, 0))
            }))
        };

        // First half of the campaign, then the runner is dropped — as if
        // the process had been killed after three trials.
        let pre1 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let first = run(&pre1, 3);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert_eq!(pre1.campaign_totals(), Some((3, 0)));
        drop(pre1);

        // A fresh runner over the same manifest executes only the three
        // missing trials and returns recorded outcomes for the rest.
        let pre2 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let second = run(&pre2, 6);
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(pre2.campaign_totals(), Some((3, 3)));
        assert_eq!(&second[..3], &first[..]);
        drop(pre2);

        // A third, fully completed pass executes nothing at all.
        let pre3 = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
        let third = run(&pre3, 6);
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(pre3.campaign_totals(), Some((0, 6)));
        assert_eq!(third, second);
        assert!(dir.join("unit/manifest.jsonl").exists());
        assert!(dir.join("telemetry.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_trial_is_isolated_recorded_and_retried_only_on_request() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = scratch_dir("panic");
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        let executed = AtomicUsize::new(0);
        let run = |pre: &Prebaked, panic_on_2: bool| {
            pre.run_cell(&CellPlan::new("unit", "cell", fw, model, 5, |trial, seed| {
                executed.fetch_add(1, Ordering::Relaxed);
                if panic_on_2 && trial == 2 {
                    panic!("boom at trial {trial}");
                }
                Ok(TrialOutcome::ok().with_accuracy((seed % 1000) as f64 / 1000.0))
            }))
        };

        // A panic on trial 2 does not stop trials 0,1,3,4; the failure is
        // recorded with the panic message and location.
        let cfg = CampaignConfig::new("unit").results_dir(&dir);
        let pre1 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let first = run(&pre1, true);
        assert_eq!(executed.load(Ordering::Relaxed), 5);
        assert_eq!(first.len(), 5);
        assert!(first[2].is_failed());
        let reason = first[2].failure.as_deref().unwrap();
        assert!(reason.contains("boom at trial 2"), "reason: {reason}");
        assert!(reason.contains("runner.rs"), "reason lacks location: {reason}");
        assert!(first.iter().enumerate().all(|(i, o)| i == 2 || !o.is_failed()));
        assert_eq!(pre1.campaign_failed(), Some(1));
        drop(pre1);

        // The failure is in the manifest and the telemetry stream.
        let manifest = std::fs::read_to_string(dir.join("unit/manifest.jsonl")).unwrap();
        assert!(manifest.contains("boom at trial 2"));
        let stream = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        assert!(stream.contains("TrialFailed"));

        // Resume without --retry-failed: nothing executes; the recorded
        // failure is served.
        let pre2 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let second = run(&pre2, false);
        assert_eq!(executed.load(Ordering::Relaxed), 5);
        assert_eq!(pre2.campaign_totals(), Some((0, 5)));
        assert!(second[2].is_failed());
        drop(pre2);

        // --retry-failed re-executes exactly the failed trial; with the
        // panic gone it now succeeds, and a further resume serves it.
        let pre3 =
            Prebaked::with_campaign(Budget::smoke(), cfg.clone().retry_failed(true)).unwrap();
        let third = run(&pre3, false);
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(pre3.campaign_totals(), Some((1, 4)));
        assert!(!third[2].is_failed());
        drop(pre3);

        let pre4 = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
        let fourth = run(&pre4, false);
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(pre4.campaign_totals(), Some((0, 5)));
        assert_eq!(fourth, third);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn err_returning_trial_is_recorded_without_panicking() {
        let pre = Prebaked::new(Budget::smoke());
        let (fw, model) = (FrameworkKind::Chainer, ModelKind::AlexNet);
        let out = pre.run_cell(&CellPlan::new("unit", "cell", fw, model, 3, |trial, _seed| {
            if trial == 1 {
                Err(TrialError::new("restore failed: truncated file"))
            } else {
                Ok(TrialOutcome::ok())
            }
        }));
        assert!(!out[0].is_failed() && !out[2].is_failed());
        assert!(out[1].is_failed());
        assert_eq!(out[1].failure.as_deref(), Some("restore failed: truncated file"));
    }

    #[test]
    fn invalid_cached_records_are_reexecuted() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = scratch_dir("valid");
        let cfg = CampaignConfig::new("unit").results_dir(&dir);
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        let executed = AtomicUsize::new(0);

        // First pass records outcomes without an accuracy — standing in
        // for records written by an older schema.
        let pre1 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        pre1.run_cell(&CellPlan::new("unit", "cell", fw, model, 2, |_, _| {
            executed.fetch_add(1, Ordering::Relaxed);
            Ok(TrialOutcome::ok())
        }));
        assert_eq!(executed.load(Ordering::Relaxed), 2);
        drop(pre1);

        // A validated resume rejects them and re-runs; a plain resume of
        // the repaired records then serves from cache.
        let validated = || {
            CellPlan::new("unit", "cell", fw, model, 2, |_, _| {
                executed.fetch_add(1, Ordering::Relaxed);
                Ok(TrialOutcome::ok().with_accuracy(0.5))
            })
            .validated(|o| o.final_accuracy.is_some())
        };
        let pre2 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let out = pre2.run_cell(&validated());
        assert_eq!(executed.load(Ordering::Relaxed), 4);
        assert!(out.iter().all(|o| o.final_accuracy.is_some()));
        drop(pre2);

        let pre3 = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
        pre3.run_cell(&validated());
        assert_eq!(executed.load(Ordering::Relaxed), 4);
        assert_eq!(pre3.campaign_totals(), Some((0, 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_campaign_reproduces_byte_identical_tables() {
        let dir = scratch_dir("tables");
        let cfg = CampaignConfig::new("unit").results_dir(&dir);

        // A real experiment cell: Table IV protocol, two trainings.
        let pre1 = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
        let cell1 = crate::exp_nev::nev_cell(
            &pre1,
            FrameworkKind::Chainer,
            ModelKind::AlexNet,
            sefi_float::Precision::Fp64,
            1000,
            2,
        );
        assert_eq!(pre1.campaign_totals(), Some((2, 0)));
        drop(pre1);

        // Rerun against the same manifest: zero trials execute and the
        // cell is reproduced exactly.
        let pre2 = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
        let cell2 = crate::exp_nev::nev_cell(
            &pre2,
            FrameworkKind::Chainer,
            ModelKind::AlexNet,
            sefi_float::Precision::Fp64,
            1000,
            2,
        );
        assert_eq!(pre2.campaign_totals(), Some((0, 2)));
        assert_eq!(cell2.nev, cell1.nev);
        assert_eq!(cell2.pct, cell1.pct);
        assert_eq!(cell2.trainings, cell1.trainings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_guard_emits_paired_events() {
        let dir = scratch_dir("phase");
        let cfg = CampaignConfig::new("unit").results_dir(&dir);
        let pre = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
        {
            let _phase = pre.phase("fig2");
        }
        pre.finish_campaign();
        let stream = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        let kinds: Vec<&str> = stream
            .lines()
            .map(|l| {
                if l.contains("PhaseStart") {
                    "PhaseStart"
                } else if l.contains("PhaseEnd") {
                    "PhaseEnd"
                } else if l.contains("CampaignStart") {
                    "CampaignStart"
                } else {
                    "CampaignEnd"
                }
            })
            .collect();
        assert_eq!(kinds, vec!["CampaignStart", "PhaseStart", "PhaseEnd", "CampaignEnd"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_plan_scatters_outcomes_back_to_cells_in_trial_order() {
        let pre = Prebaked::new(Budget::smoke());
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        // Three cells with heterogeneous trial counts; each trial encodes
        // its (cell, trial) coordinates into the outcome so the scatter
        // can be checked exactly.
        let plans: Vec<CellPlan<'_>> = (0..3usize)
            .map(|ci| {
                CellPlan::new("unit", format!("cell-{ci}"), fw, model, ci + 1, move |trial, _| {
                    Ok(TrialOutcome::ok().with_accuracy((ci * 10 + trial) as f64))
                })
            })
            .collect();
        let out = pre.run_plan(&plans);
        assert_eq!(out.len(), 3);
        for (ci, cell) in out.iter().enumerate() {
            assert_eq!(cell.len(), ci + 1, "cell {ci} trial count");
            for (trial, o) in cell.iter().enumerate() {
                assert_eq!(o.final_accuracy, Some((ci * 10 + trial) as f64));
            }
        }
    }

    #[test]
    fn run_plan_outcomes_match_per_cell_runs() {
        // The pooled dispatch must agree with running each cell alone:
        // seeds depend only on (fw, model, cell, trial), never on pool
        // composition.
        let pre = Prebaked::new(Budget::smoke());
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        let trial_fn = |_trial: usize, seed: u64| Ok(TrialOutcome::ok().with_accuracy(seed as f64));
        let plans = vec![
            CellPlan::new("unit", "a", fw, model, 3, trial_fn),
            CellPlan::new("unit", "b", fw, model, 2, trial_fn),
        ];
        let pooled = pre.run_plan(&plans);
        let solo_a = pre.run_cell(&CellPlan::new("unit", "a", fw, model, 3, trial_fn));
        let solo_b = pre.run_cell(&CellPlan::new("unit", "b", fw, model, 2, trial_fn));
        assert_eq!(pooled[0], solo_a);
        assert_eq!(pooled[1], solo_b);
    }

    #[test]
    fn entry_slot_computes_each_key_once_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let map: Mutex<HashMap<u32, Arc<OnceLock<u32>>>> = Mutex::new(HashMap::new());
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let slot = entry_slot(&map, &42);
                    let v = *slot.get_or_init(|| {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window: everyone else should be
                        // blocked on this slot, not computing their own.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        7
                    });
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "key computed more than once");
    }

    #[test]
    fn pristine_checkpoints_are_memoized_and_clones_are_isolated() {
        let pre = Prebaked::new(Budget::smoke());
        let a = pre.checkpoint_shared(FrameworkKind::Chainer, ModelKind::AlexNet, Dtype::F64);
        let b = pre.checkpoint_shared(FrameworkKind::Chainer, ModelKind::AlexNet, Dtype::F64);
        assert!(Arc::ptr_eq(&a, &b), "same (fw, model, dtype) must share one minted file");
        // A corrupted clone never leaks back into the shared pristine copy.
        let mut clone = (*a).clone();
        let path = clone.dataset_paths()[0].clone();
        let before = a.dataset(&path).unwrap().bytes().to_vec();
        clone.dataset_mut(&path).unwrap().set_bits(0, 0xFF).unwrap();
        assert_eq!(a.dataset(&path).unwrap().bytes(), &before[..]);
        assert_ne!(clone.dataset(&path).unwrap().bytes(), &before[..]);
    }

    #[test]
    fn baseline_accuracy_is_cached_and_framework_independent() {
        let pre = Prebaked::new(Budget::smoke());
        let a = pre.baseline_final_accuracy(ModelKind::AlexNet, Dtype::F64);
        let b = pre.baseline_final_accuracy(ModelKind::AlexNet, Dtype::F64);
        assert_eq!(a, b);
        // Resume through a different framework's checkpoint gives the same
        // trajectory (lossless layout round-trip).
        let tf = pre.trial(FrameworkKind::TensorFlow, ModelKind::AlexNet, Dtype::F64);
        let out = tf.resume(pre.budget().resume_epochs).unwrap().training;
        assert_eq!(out.final_accuracy().unwrap(), a);
    }

    #[test]
    fn one_restore_matches_restoring_the_pristine_checkpoint_first() {
        use sefi_float::Precision;
        let pre = Prebaked::new(Budget::smoke());
        let bits = |s: &mut Session| -> Vec<(String, Vec<u32>)> {
            let sd = s.network_mut().state_dict();
            sd.entries()
                .iter()
                .map(|e| (e.path.clone(), e.tensor.data().iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        for fw in FrameworkKind::all() {
            for model in ModelKind::all() {
                let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
                let flips = CorrupterConfig::bit_flips_full_range(100, Precision::Fp64, 7);
                let clean = pre.trial(fw, model, Dtype::F64);
                let corrupted = pre.trial(fw, model, Dtype::F64).corrupt(flips).unwrap();
                assert!(corrupted.report().injections > 0);
                for trial in [clean, corrupted] {
                    let mut once = trial.restore().unwrap().session;
                    // The reference: a session restored to the pristine
                    // checkpoint, then restored again to the trial's.
                    let mut twice = pre.fresh_session(fw, model);
                    twice.restore(&pristine).unwrap();
                    twice.restore(trial.checkpoint()).unwrap();
                    let what = format!("{fw:?}/{model:?}/{} flips", trial.report().injections);
                    assert_eq!(bits(&mut once), bits(&mut twice), "{what}: state_dict");
                    assert_eq!(once.epoch(), twice.epoch(), "{what}: epoch");
                    assert_eq!(
                        once.test_accuracy(pre.data()).to_bits(),
                        twice.test_accuracy(pre.data()).to_bits(),
                        "{what}: test accuracy"
                    );
                }
            }
        }
    }

    #[test]
    fn a_trial_outcome_carries_its_report_and_collapse_flag() {
        use sefi_float::Precision;
        let pre = Prebaked::new(Budget::smoke());
        let (fw, model) = (FrameworkKind::Chainer, ModelKind::AlexNet);
        let counters = |o: &TrialOutcome| (o.injections, o.nan_redraws, o.skipped);
        let flips = CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 3);
        let trial = pre.trial(fw, model, Dtype::F64).corrupt(flips).unwrap();
        let r = trial.report();
        let expected = (r.injections, r.nan_redraws, r.skipped);
        assert!(r.injections > 0 && trial.log().len() == r.records.len());

        let restored = trial.restore().unwrap();
        assert_eq!(counters(&restored.outcome), expected);
        assert!(!restored.outcome.collapsed, "a restore alone reaches no verdict");
        let resumed = trial.resume(1).unwrap();
        assert_eq!(counters(&resumed.outcome), expected);
        assert!(resumed.training.collapsed(), "1000 full-range flips collapse training");
        assert!(resumed.outcome.collapsed);

        // A replay keeps its own report; an unaltered trial counts nothing.
        let mut scoped = CorrupterConfig::bit_flips(5, Precision::Fp64, 4);
        scoped.locations = sefi_core::LocationSelection::Listed(vec!["predictor".to_string()]);
        let logged = pre.trial(fw, model, Dtype::F64).corrupt(scoped).unwrap();
        let replayed = pre.trial(fw, model, Dtype::F64).replay(logged.log(), 9).unwrap();
        assert_eq!(replayed.report().attempts, 5);
        let clean = pre.trial(fw, model, Dtype::F64).resume(1).unwrap();
        assert_eq!(counters(&clean.outcome), (0, 0, 0));
        assert!(!clean.outcome.collapsed && clean.with_final_accuracy().final_accuracy.is_some());
    }

    #[test]
    fn template_clones_resume_exactly_like_fresh_sessions() {
        use sefi_float::Precision;
        let pre = Prebaked::new(Budget::smoke());
        let fw = FrameworkKind::Chainer;
        let epochs = pre.budget().resume_epochs;
        for model in ModelKind::all() {
            let flips = CorrupterConfig::bit_flips(4, Precision::Fp64, 11);
            let trial = pre.trial(fw, model, Dtype::F64).corrupt(flips).unwrap();
            let Resumed { mut session, training, .. } = trial.resume(epochs).unwrap();
            let config = session.config().clone();
            let mut reference = Session::new(config.clone());
            reference.restore(trial.checkpoint()).unwrap();
            let target = reference.epoch() + epochs;
            assert_eq!(training, reference.train_to(pre.data(), target), "{model:?}: history");
            assert_eq!(
                session.checkpoint(Dtype::F64).to_bytes(),
                reference.checkpoint(Dtype::F64).to_bytes(),
                "{model:?}: final checkpoint"
            );
            // Training that clone left the template as `Session::new` built it.
            let mut next = pre.fresh_session(fw, model);
            assert_eq!(next.epoch(), 0);
            assert_eq!(
                next.checkpoint(Dtype::F64).to_bytes(),
                Session::new(config).checkpoint(Dtype::F64).to_bytes(),
                "{model:?}: template"
            );
        }
    }
}
