//! Adaptive sequential-stopping campaign execution.
//!
//! Fixed-budget campaigns spend the same number of trainings on every
//! table cell, but most cells answer long before the budget runs out: a
//! bit range that has collapsed every one of its first few resumes is not
//! going to stop collapsing at trial 200. This module adds a
//! [`StoppingRule`] layer over [`CellPlan`]/[`Prebaked::run_plan`]: trials
//! run in **waves**, and after each completed wave the cell's
//! classification rate gets a Wilson-score confidence interval. The cell
//! stops as soon as the interval is narrower than the configured target
//! width (or a hard trial cap is reached). Cells with extreme rates — the
//! common case in the paper's tables, where ranges either always or never
//! collapse — stop after the first wave; only genuinely mixed cells spend
//! the full budget.
//!
//! # Determinism
//!
//! Adaptive execution preserves the scheduler's byte-identical-results
//! guarantee. Seeds are unchanged (`combo_seed(fw, model, cell, trial)`),
//! trials within a wave are dispatched through the same positional
//! work-stealing pool as fixed plans, and the stopping decision is the
//! *pure function* [`replay`] of the classified outcome sequence — it
//! consults no clock, RNG, thread id, or arrival order. Two runs that
//! record the same outcomes therefore stop at the same wave; a resumed run
//! replays recorded outcomes from the manifest and reproduces the identical
//! stopping trace. See DESIGN.md §10 for the full argument.
//!
//! # Multi-process sharding
//!
//! [`Prebaked::run_adaptive_sharded`] runs the same wave loop cooperatively
//! across worker processes sharing one results directory. Workers claim
//! `(cell, wave)` units via [`LeaseDir`] lease files next to the manifest,
//! append outcomes to per-worker manifest shard files, and observe each
//! other's progress by re-reading the merged manifest. Because trials are
//! deterministic and the manifest merge dedups by seed, leases are purely
//! advisory: a `kill -9`'d worker's lease expires by heartbeat age and its
//! wave is simply re-claimed, with already-recorded trials served from its
//! shard file.

use crate::runner::{CellPlan, Prebaked};
use sefi_telemetry::lease::LeaseDir;
use sefi_telemetry::{digest64, Event, TrialOutcome};
use std::time::Duration;

/// When to stop sampling a cell: run trials in waves of `wave`, and after
/// each completed wave stop if the Wilson interval on the classification
/// rate is at most `target_width` wide (never before `min_trials`, always
/// by `max_trials`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Trials dispatched per wave (the decision granularity).
    pub wave: usize,
    /// Stop once the Wilson interval width is ≤ this.
    pub target_width: f64,
    /// Never stop on width before this many trials (defaults to one wave).
    pub min_trials: usize,
    /// Hard cap: the cell always stops by this many trials.
    pub max_trials: usize,
    /// Normal quantile of the interval (1.96 ≈ 95% confidence).
    pub z: f64,
}

impl StoppingRule {
    /// A rule stopping on `target_width` with waves of `wave` trials and a
    /// hard cap of `max_trials`. Panics on degenerate parameters.
    pub fn new(wave: usize, target_width: f64, max_trials: usize) -> Self {
        let rule = StoppingRule { wave, target_width, min_trials: wave, max_trials, z: 1.96 };
        rule.validate();
        rule
    }

    /// The convention used by the adaptive experiment drivers: waves of
    /// half the fixed budget, so a decisive cell stops at half cost and an
    /// ambiguous one pays at most the fixed budget.
    pub fn halving(max_trials: usize, target_width: f64) -> Self {
        Self::new(max_trials.div_ceil(2).max(1), target_width, max_trials)
    }

    /// Override the minimum trial count before a width stop.
    pub fn with_min_trials(mut self, min_trials: usize) -> Self {
        self.min_trials = min_trials;
        self.validate();
        self
    }

    /// Override the interval's normal quantile.
    pub fn with_z(mut self, z: f64) -> Self {
        self.z = z;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(self.wave >= 1, "wave must be ≥ 1");
        assert!(self.max_trials >= 1, "max_trials must be ≥ 1");
        assert!(self.min_trials <= self.max_trials, "min_trials exceeds max_trials");
        assert!(
            self.target_width > 0.0 && self.target_width <= 1.0,
            "target_width must be in (0, 1]"
        );
        assert!(self.z > 0.0 && self.z.is_finite(), "z must be positive and finite");
    }

    /// Cumulative trial count at the end of wave `k` (0-based):
    /// `min((k+1)·wave, max_trials)`. The final wave may be partial.
    pub fn boundary(&self, k: usize) -> usize {
        ((k + 1).saturating_mul(self.wave)).min(self.max_trials)
    }

    /// Number of waves a run-to-cap cell executes.
    pub fn num_waves(&self) -> usize {
        self.max_trials.div_ceil(self.wave)
    }

    /// The `[start, end)` trial-index range of wave `k`.
    pub fn wave_range(&self, k: usize) -> (usize, usize) {
        let start = (k.saturating_mul(self.wave)).min(self.max_trials);
        (start, self.boundary(k))
    }

    /// Largest wave boundary ≤ `n`: the prefix of `n` recorded trials that
    /// full-wave stopping decisions may consume. Sharded workers use this
    /// to ignore another worker's half-finished wave.
    pub fn aligned_prefix(&self, n: usize) -> usize {
        let n = n.min(self.max_trials);
        if n == self.max_trials {
            n
        } else {
            n - n % self.wave
        }
    }
}

/// Wilson score interval for a binomial proportion: `successes` of `n`,
/// normal quantile `z`. Returns the conventional uninformative `(0, 1)`
/// for `n = 0` (a cell whose trials all failed classification still makes
/// progress toward its cap instead of dividing by zero).
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The stopping decision taken at one wave boundary. Compared exactly in
/// determinism tests: every field is a pure function of the classified
/// outcome prefix, so equal outcomes imply equal stats bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStat {
    /// Wave index (0-based).
    pub wave: usize,
    /// Cumulative trials dispatched through this wave.
    pub trials: usize,
    /// Trials the classifier accepted (failed trials are excluded).
    pub classified: u64,
    /// Classified trials counted as successes.
    pub successes: u64,
    /// Wilson interval lower bound.
    pub ci_lo: f64,
    /// Wilson interval upper bound.
    pub ci_hi: f64,
    /// Interval width (`ci_hi - ci_lo`).
    pub width: f64,
    /// Whether the cell stopped at this wave.
    pub stopped: bool,
}

/// A cell's complete stopping trace: one [`WaveStat`] per evaluated wave.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// Per-wave decisions, in wave order.
    pub waves: Vec<WaveStat>,
    /// Trials consumed when stopped; trials evaluated so far otherwise.
    pub trials_used: usize,
    /// Stopped by the hard cap without reaching the target width.
    pub capped: bool,
}

impl CellTrace {
    /// Whether the trace has reached a stopping decision.
    pub fn stopped(&self) -> bool {
        self.waves.last().is_some_and(|w| w.stopped)
    }
}

/// Replay the stopping rule over a classified outcome sequence:
/// `classes[t]` is trial `t`'s classification (`None` = excluded, e.g. a
/// recorded failure). Only full-wave prefixes are evaluated; a trailing
/// partial wave contributes nothing. **Pure**: the trace depends on
/// nothing but `rule` and `classes`, which is the whole determinism
/// argument — any two processes that agree on recorded outcomes agree on
/// the stopping trace.
pub fn replay(rule: &StoppingRule, classes: &[Option<bool>]) -> CellTrace {
    let mut waves = Vec::new();
    for k in 0..rule.num_waves() {
        let n_k = rule.boundary(k);
        if n_k > classes.len() {
            break;
        }
        let prefix = &classes[..n_k];
        let classified = prefix.iter().filter(|c| c.is_some()).count() as u64;
        let successes = prefix.iter().filter(|c| **c == Some(true)).count() as u64;
        let (ci_lo, ci_hi) = wilson_interval(successes, classified, rule.z);
        let width = ci_hi - ci_lo;
        let narrow_enough = n_k >= rule.min_trials && width <= rule.target_width;
        let at_cap = n_k >= rule.max_trials;
        let stopped = narrow_enough || at_cap;
        waves.push(WaveStat {
            wave: k,
            trials: n_k,
            classified,
            successes,
            ci_lo,
            ci_hi,
            width,
            stopped,
        });
        if stopped {
            return CellTrace { waves, trials_used: n_k, capped: at_cap && !narrow_enough };
        }
    }
    let seen = waves.last().map_or(0, |w| w.trials);
    CellTrace { waves, trials_used: seen, capped: false }
}

/// A boxed outcome classifier: `Some(true)` counts as a success,
/// `Some(false)` as a counted non-success, `None` excludes the trial.
type Classifier<'p> = Box<dyn Fn(&TrialOutcome) -> Option<bool> + Send + Sync + 'p>;

/// A [`CellPlan`] under adaptive stopping: the plan, its rule, and the
/// classifier mapping each outcome to a success (`Some(true)`), a failure
/// of the measured property (`Some(false)`), or an exclusion (`None`,
/// e.g. a trial recorded as failed — harness faults must not masquerade
/// as statistical evidence).
pub struct AdaptiveCell<'p> {
    plan: CellPlan<'p>,
    rule: StoppingRule,
    classify: Classifier<'p>,
}

impl<'p> AdaptiveCell<'p> {
    /// Pair a plan with a stopping rule. The plan's declared trial count
    /// must equal the rule's cap — the cap is the resume-compatible
    /// fixed-budget equivalent.
    pub fn new(
        plan: CellPlan<'p>,
        rule: StoppingRule,
        classify: impl Fn(&TrialOutcome) -> Option<bool> + Send + Sync + 'p,
    ) -> Self {
        assert_eq!(
            plan.trials(),
            rule.max_trials,
            "plan trial count must equal the stopping rule's max_trials"
        );
        AdaptiveCell { plan, rule, classify: Box::new(classify) }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &CellPlan<'p> {
        &self.plan
    }

    /// The cell's stopping rule.
    pub fn rule(&self) -> &StoppingRule {
        &self.rule
    }
}

/// The classifier shared by the collapse-counting experiments (Figure 2,
/// Tables IV/VII): a non-failed trial is a success iff it collapsed.
pub fn classify_collapsed(o: &TrialOutcome) -> Option<bool> {
    if o.is_failed() {
        None
    } else {
        Some(o.collapsed)
    }
}

/// One adaptively-sampled cell's result: the outcomes actually consumed
/// (exactly `trace.trials_used` of them, a prefix of the fixed-budget
/// trial sequence) and the stopping trace that ended the cell.
pub struct AdaptiveCellResult {
    /// Trial outcomes `0..trace.trials_used`, in trial order.
    pub outcomes: Vec<TrialOutcome>,
    /// The per-wave stopping decisions.
    pub trace: CellTrace,
}

/// How a sharded worker process participates in a multi-process adaptive
/// campaign.
#[derive(Debug, Clone)]
pub struct ShardWorkerConfig {
    /// Heartbeat TTL after which another worker may break this worker's
    /// lease (survives `kill -9`: a dead worker stops heartbeating).
    pub lease_ttl: Duration,
    /// How long to sleep when every live cell's current wave is leased to
    /// someone else.
    pub poll: Duration,
}

impl Default for ShardWorkerConfig {
    fn default() -> Self {
        ShardWorkerConfig { lease_ttl: Duration::from_secs(30), poll: Duration::from_millis(200) }
    }
}

impl Prebaked {
    /// Run `cells` adaptively: each round dispatches the next wave of
    /// every still-live cell through one pooled [`Prebaked::run_units`]
    /// call (no barrier between cells within the round), then replays
    /// each cell's stopping rule over its accumulated outcomes. Emits a
    /// [`Event::WaveEnd`] per completed wave under a campaign. Results
    /// are positionally deterministic exactly like [`Prebaked::run_plan`]:
    /// same budget + same recorded outcomes ⇒ same stopping trace and
    /// byte-identical assembled tables, at any thread count and across
    /// kill/resume.
    pub fn run_adaptive(&self, cells: &[AdaptiveCell<'_>]) -> Vec<AdaptiveCellResult> {
        let plans: Vec<&CellPlan<'_>> = cells.iter().map(|c| c.plan()).collect();
        let mut outcomes: Vec<Vec<TrialOutcome>> = (0..cells.len()).map(|_| Vec::new()).collect();
        let mut traces: Vec<CellTrace> = (0..cells.len())
            .map(|_| CellTrace { waves: Vec::new(), trials_used: 0, capped: false })
            .collect();
        loop {
            // Collect the next wave of every live cell into one pool.
            let mut spans: Vec<(usize, usize, usize)> = Vec::new();
            let mut units: Vec<(usize, usize)> = Vec::new();
            for (ci, cell) in cells.iter().enumerate() {
                if traces[ci].stopped() {
                    continue;
                }
                let k = traces[ci].waves.len();
                let (start, end) = cell.rule.wave_range(k);
                debug_assert_eq!(start, outcomes[ci].len());
                spans.push((ci, start, end));
                units.extend((start..end).map(|t| (ci, t)));
            }
            if units.is_empty() {
                break;
            }
            let mut flat = self.run_units(&plans, units).into_iter();
            for &(ci, start, end) in &spans {
                outcomes[ci].extend(flat.by_ref().take(end - start));
                self.advance_cell(&cells[ci], &outcomes[ci], &mut traces[ci]);
            }
        }
        outcomes
            .into_iter()
            .zip(traces)
            .map(|(mut outs, trace)| {
                outs.truncate(trace.trials_used);
                AdaptiveCellResult { outcomes: outs, trace }
            })
            .collect()
    }

    /// Re-replay a cell's rule over its accumulated outcomes and emit
    /// `WaveEnd` for each newly completed wave.
    fn advance_cell(
        &self,
        cell: &AdaptiveCell<'_>,
        outcomes: &[TrialOutcome],
        trace: &mut CellTrace,
    ) {
        let classes: Vec<Option<bool>> = outcomes.iter().map(|o| (cell.classify)(o)).collect();
        let next = replay(&cell.rule, &classes);
        for w in &next.waves[trace.waves.len()..] {
            self.emit_event(&Event::WaveEnd {
                experiment: cell.plan.experiment().to_string(),
                cell: cell.plan.cell().to_string(),
                wave: w.wave as u64,
                trials: w.trials as u64,
                classified: w.classified,
                successes: w.successes,
                ci_lo: w.ci_lo,
                ci_hi: w.ci_hi,
                width: w.width,
                stopped: w.stopped,
            });
        }
        *trace = next;
    }

    /// The multi-process variant of [`Prebaked::run_adaptive`]: this
    /// process is one worker of possibly many sharing the campaign's
    /// results directory. Requires a campaign (the manifest is the only
    /// inter-worker channel) opened with [`crate::CampaignConfig::shard_id`]
    /// when more than one worker runs concurrently.
    ///
    /// The loop per cell: re-read the merged manifest, replay the
    /// stopping rule over the longest recorded full-wave prefix, and if
    /// the cell is still live, try to claim the lease on its next wave and
    /// execute it. Cells stop in exactly the wave [`replay`] dictates, so
    /// every worker — and a later single-process resume — assembles the
    /// identical result. Lost workers are tolerated: their lease expires
    /// after `cfg.lease_ttl` without heartbeats, and whichever worker
    /// breaks it re-runs the wave, serving the dead worker's completed
    /// trials straight from its manifest shard.
    pub fn run_adaptive_sharded(
        &self,
        cells: &[AdaptiveCell<'_>],
        cfg: &ShardWorkerConfig,
    ) -> std::io::Result<Vec<AdaptiveCellResult>> {
        let digest = self
            .campaign_digest()
            .expect("run_adaptive_sharded requires a campaign (manifests are the shared state)");
        let results_dir = self.campaign_results_dir().expect("campaign has a results dir");
        let owner = std::process::id().to_string();
        let leases = LeaseDir::new(results_dir.join("leases"), owner, cfg.lease_ttl)?;
        let plans: Vec<&CellPlan<'_>> = cells.iter().map(|c| c.plan()).collect();
        let mut done: Vec<Option<AdaptiveCellResult>> = (0..cells.len()).map(|_| None).collect();
        loop {
            let mut all_done = true;
            let mut progressed = false;
            for (ci, cell) in cells.iter().enumerate() {
                if done[ci].is_some() {
                    continue;
                }
                let manifest = self
                    .campaign_manifest(cell.plan.experiment())
                    .expect("campaign manifests exist");
                manifest.reload()?;
                // The contiguous recorded trial prefix. A dead worker can
                // leave holes mid-wave; the prefix stops at the first hole
                // and the wave re-runs (recorded trials are served).
                let mut recorded: Vec<TrialOutcome> = Vec::new();
                for t in 0..cell.rule.max_trials {
                    match manifest.lookup(cell.plan.seed(t), &digest) {
                        Some(rec) => recorded.push(rec.outcome),
                        None => break,
                    }
                }
                let aligned = cell.rule.aligned_prefix(recorded.len());
                let classes: Vec<Option<bool>> =
                    recorded[..aligned].iter().map(|o| (cell.classify)(o)).collect();
                let trace = replay(&cell.rule, &classes);
                if trace.stopped() {
                    recorded.truncate(trace.trials_used);
                    done[ci] = Some(AdaptiveCellResult { outcomes: recorded, trace });
                    progressed = true;
                    continue;
                }
                all_done = false;
                // Claim and run the cell's next wave. The key digests the
                // free-form cell label into a filename-safe token.
                let k = trace.waves.len();
                let unit = digest64(&format!("{}/{}", cell.plan.experiment(), cell.plan.cell()));
                let key = format!("{unit}-w{k}");
                #[cfg(test)]
                tests::BEFORE_CLAIM.with(|hook| {
                    if let Some(h) = hook.borrow_mut().as_mut() {
                        h(&key);
                    }
                });
                if let Some(_lease) = leases.try_claim(&key)? {
                    let (start, end) = cell.rule.wave_range(k);
                    // A rival may have finished the wave and released its
                    // lease since the reload above: re-read the manifest
                    // under the lease and skip a wave that is now recorded.
                    // `run_units` serves any trials recorded so far.
                    manifest.reload()?;
                    if (start..end).all(|t| manifest.lookup(cell.plan.seed(t), &digest).is_some()) {
                        progressed = true;
                        continue;
                    }
                    let wave_outs = self.run_units(&plans, (start..end).map(|t| (ci, t)).collect());
                    // Emit this wave's decision from a fresh replay over
                    // prefix + wave (the lease means we completed it).
                    let mut classes: Vec<Option<bool>> =
                        recorded[..start].iter().map(|o| (cell.classify)(o)).collect();
                    classes.extend(wave_outs.iter().map(|o| (cell.classify)(o)));
                    let after = replay(&cell.rule, &classes);
                    if let Some(w) = after.waves.get(k) {
                        self.emit_event(&Event::WaveEnd {
                            experiment: cell.plan.experiment().to_string(),
                            cell: cell.plan.cell().to_string(),
                            wave: w.wave as u64,
                            trials: w.trials as u64,
                            classified: w.classified,
                            successes: w.successes,
                            ci_lo: w.ci_lo,
                            ci_hi: w.ci_hi,
                            width: w.width,
                            stopped: w.stopped,
                        });
                    }
                    progressed = true;
                }
            }
            if all_done {
                return Ok(done.into_iter().map(|r| r.expect("all cells resolved")).collect());
            }
            if !progressed {
                std::thread::sleep(cfg.poll);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Rendezvous hook a test installs on a sharded worker's thread: it
    /// runs with the lease key between the manifest reload and the claim.
    type ClaimHook = Box<dyn FnMut(&str)>;

    thread_local! {
        pub(super) static BEFORE_CLAIM: RefCell<Option<ClaimHook>> = const { RefCell::new(None) };
    }

    #[test]
    fn a_wave_finished_between_reload_and_claim_is_not_rerun() {
        use crate::{Budget, CampaignConfig, Prebaked};
        use sefi_frameworks::FrameworkKind;
        use sefi_models::ModelKind;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        let dir =
            std::env::temp_dir().join(format!("sefi_adaptive_interleave_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let executed = AtomicUsize::new(0);
        // One cell whose first wave of two never collapses: 0/2 stops it.
        let rule = StoppingRule::new(2, 0.66, 6);
        let (fw, model) = (FrameworkKind::Chainer, ModelKind::AlexNet);
        let worker = |tag: &str| {
            let config = CampaignConfig::new("adapt").results_dir(&dir).shard_id(tag);
            let pre = Prebaked::with_campaign(Budget::smoke(), config).unwrap();
            let plan = CellPlan::new("adapt", "cell", fw, model, rule.max_trials, |_, _| {
                executed.fetch_add(1, Ordering::Relaxed);
                Ok(TrialOutcome::ok())
            });
            let cells = [AdaptiveCell::new(plan, rule, classify_collapsed)];
            let cfg = ShardWorkerConfig {
                lease_ttl: Duration::from_secs(60),
                poll: Duration::from_millis(5),
            };
            pre.run_adaptive_sharded(&cells, &cfg).unwrap().remove(0).outcomes
        };

        // The late worker reloads, sees wave 0 unrecorded, and pauses
        // before its claim. The rival then runs wave 0 to completion and
        // releases the lease; only then does the late worker claim it.
        let (reloaded, wait_reload) = mpsc::channel();
        let (resume, wait_resume) = mpsc::channel::<()>();
        let (late, rival) = std::thread::scope(|s| {
            // Owned here, so a panicking rival drops it and frees the late worker.
            let resume = resume;
            let late = s.spawn(|| {
                let mut paused = false;
                BEFORE_CLAIM.with(|hook| {
                    *hook.borrow_mut() = Some(Box::new(move |_key: &str| {
                        if !std::mem::replace(&mut paused, true) {
                            reloaded.send(()).unwrap();
                            wait_resume.recv().unwrap();
                        }
                    }))
                });
                worker("late")
            });
            wait_reload.recv().unwrap();
            let rival = worker("rival");
            resume.send(()).unwrap();
            (late.join().unwrap(), rival)
        });
        assert_eq!(late, rival, "workers assembled different cells");
        assert_eq!(executed.load(Ordering::Relaxed), 2, "wave 0 ran more than once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wilson_matches_known_values() {
        // n = 0 is the uninformative interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // 0/2 at z = 1.96: upper bound ≈ 0.6576, lower exactly 0.
        let (lo, hi) = wilson_interval(0, 2, 1.96);
        assert_eq!(lo, 0.0);
        assert!((hi - 0.6576).abs() < 1e-3, "hi = {hi}");
        // Symmetry: 2/2 mirrors 0/2 around 1/2.
        let (lo2, hi2) = wilson_interval(2, 2, 1.96);
        assert!((lo2 - (1.0 - hi)).abs() < 1e-12);
        assert_eq!(hi2, 1.0);
        // Large n converges on p̂ and the width shrinks.
        let (lo, hi) = wilson_interval(500, 1000, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.07);
    }

    #[test]
    fn rule_boundaries_cover_the_cap_exactly() {
        let r = StoppingRule::new(4, 0.2, 10);
        assert_eq!(r.num_waves(), 3);
        assert_eq!(r.boundary(0), 4);
        assert_eq!(r.boundary(1), 8);
        assert_eq!(r.boundary(2), 10); // final partial wave
        assert_eq!(r.wave_range(2), (8, 10));
        assert_eq!(r.aligned_prefix(0), 0);
        assert_eq!(r.aligned_prefix(5), 4);
        assert_eq!(r.aligned_prefix(9), 8);
        assert_eq!(r.aligned_prefix(10), 10);
        assert_eq!(r.aligned_prefix(99), 10);
    }

    #[test]
    fn replay_stops_extreme_cells_after_one_wave() {
        let r = StoppingRule::new(2, 0.7, 4);
        // 0/2: width ≈ 0.658 ≤ 0.7 — stop after wave 0.
        let t = replay(&r, &[Some(false), Some(false), Some(false), Some(false)]);
        assert!(t.stopped());
        assert_eq!(t.trials_used, 2);
        assert_eq!(t.waves.len(), 1);
        assert!(!t.capped);
        // 1/2 at a tighter target: width ≈ 0.81, then 2/4 ≈ 0.70 — never
        // narrow enough, so the cap forces the stop.
        let r = StoppingRule::new(2, 0.6, 4);
        let t = replay(&r, &[Some(true), Some(false), Some(true), Some(false)]);
        assert!(t.stopped());
        assert_eq!(t.trials_used, 4);
        assert_eq!(t.waves.len(), 2);
        assert!(t.capped);
    }

    #[test]
    fn replay_ignores_partial_waves_and_is_prefix_stable() {
        let r = StoppingRule::new(2, 0.1, 6);
        let full = vec![Some(true), Some(true), Some(false), Some(true), Some(true), Some(false)];
        // A trailing partial wave contributes no decision.
        let t3 = replay(&r, &full[..3]);
        assert_eq!(t3.waves.len(), 1);
        assert!(!t3.stopped());
        assert_eq!(t3.trials_used, 2);
        // Longer prefixes extend the trace without rewriting it.
        let t4 = replay(&r, &full[..4]);
        let t6 = replay(&r, &full);
        assert_eq!(t4.waves[..], t6.waves[..2]);
        assert_eq!(t3.waves[..], t4.waves[..1]);
        assert!(t6.stopped() && t6.capped);
    }

    #[test]
    fn replay_excludes_failures_from_the_interval() {
        let r = StoppingRule::new(3, 0.9, 6);
        // Two failures + one success: n = 1, width ≈ 0.79 ≤ 0.9 → stop.
        let t = replay(&r, &[None, Some(true), None]);
        assert_eq!(t.waves[0].classified, 1);
        assert_eq!(t.waves[0].successes, 1);
        assert!(t.stopped());
        // All failures: n = 0 keeps the interval at full width; the cell
        // still terminates at the cap instead of looping.
        let t = replay(&r, &[None; 6]);
        assert!(t.stopped() && t.capped);
        assert_eq!(t.trials_used, 6);
        assert_eq!(t.waves.last().unwrap().width, 1.0);
    }

    #[test]
    fn classifier_excludes_failed_trials() {
        assert_eq!(classify_collapsed(&TrialOutcome::ok()), Some(false));
        assert_eq!(classify_collapsed(&TrialOutcome::ok().with_collapsed(true)), Some(true));
        assert_eq!(classify_collapsed(&TrialOutcome::failed("boom")), None);
    }
}
