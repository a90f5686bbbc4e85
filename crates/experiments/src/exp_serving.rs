//! Served accuracy vs checkpoint injection rate under guarded serving.
//!
//! The serving experiments close the loop the paper opens: a corrupted
//! checkpoint is not just *resumed*, it is *served* — and the serving
//! stack (crates/serve) arms activation-envelope guards plus quarantine
//! reload failover against exactly the silent corruptions the paper
//! documents. Each trial deploys a two-replica pool whose checkpoint
//! files carry `rate` payload bit flips apiece, serves a fixed corpus
//! through [`ServeEngine::serve_deterministic`], and compares every
//! answer against the clean pool's answers. Trials classify into the
//! soft-error taxonomy extended with the recovery path:
//!
//! * **masked** — no guard trip, every answer matches the clean pool;
//! * **recovered** — the guard tripped and failover + ECC reload kept
//!   every answer clean anyway (a detected-and-corrected SDC);
//! * **detected** — the guard tripped but some answer still deviated
//!   (detected, imperfectly recovered);
//! * **silent** — no trip yet an answer deviated (the SDC that an
//!   unguarded stack would serve without a trace).
//!
//! Under the lane-stable kernel contract the whole table is a pure
//! function of the corpus, the seeds, and the checkpoint bytes — the CI
//! smoke run byte-compares the CSV across worker counts and across a
//! kill/resume of the campaign.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked, TrialError};
use crate::table::{pct, TextTable};
use sefi_core::{FileRegion, RawConfig, RawCorrupter};
use sefi_data::Split;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::{Dtype, EccSidecar};
use sefi_models::ModelKind;
use sefi_nn::EnvelopeSet;
use sefi_serve::{calibrate_from_clean_bytes, EngineConfig, ReplicaSpec, Request, ServeEngine};
use sefi_telemetry::TrialOutcome;
use sefi_tensor::Tensor;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Replicas per trial pool — two, so failover has somewhere to go.
pub const REPLICAS: usize = 2;
/// Deterministic batch size for [`ServeEngine::serve_deterministic`].
pub const BATCH: usize = 8;
/// Fixed request corpus size (three full batches).
pub const CORPUS: usize = 24;

/// How one trial's served answers relate to the clean pool's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No trip, no deviation: the flips never surfaced.
    Masked,
    /// Guard tripped; failover + reload served only clean answers.
    Recovered,
    /// Guard tripped but at least one answer still deviated.
    Detected,
    /// No trip yet an answer deviated — the silent data corruption.
    Silent,
}

impl Verdict {
    /// Stable numeric code recorded as a trial metric (resume-safe).
    pub fn code(self) -> f64 {
        match self {
            Verdict::Masked => 0.0,
            Verdict::Recovered => 1.0,
            Verdict::Detected => 2.0,
            Verdict::Silent => 3.0,
        }
    }

    /// Inverse of [`Verdict::code`], for replaying manifest records.
    pub fn from_code(code: f64) -> Option<Self> {
        match code as i64 {
            0 => Some(Verdict::Masked),
            1 => Some(Verdict::Recovered),
            2 => Some(Verdict::Detected),
            3 => Some(Verdict::Silent),
            _ => None,
        }
    }

    fn classify(trips: u64, deviations: usize) -> Self {
        match (trips > 0, deviations > 0) {
            (false, false) => Verdict::Masked,
            (true, false) => Verdict::Recovered,
            (true, true) => Verdict::Detected,
            (false, true) => Verdict::Silent,
        }
    }
}

/// The swept injection rates: payload bit flips per replica file.
pub fn rates() -> [u64; 4] {
    [0, 1, 4, 16]
}

/// Trials per rate cell.
pub fn trials_per_rate(pre: &Prebaked) -> usize {
    pre.budget().trials.max(6)
}

/// One injection rate's row of the sweep.
#[derive(Debug, Clone)]
pub struct RateRow {
    /// Payload flips injected into each replica's checkpoint file.
    pub rate: u64,
    /// Trials classified (excludes failed trials).
    pub trials: usize,
    /// Verdict counts indexed by [`Verdict::code`].
    pub counts: [usize; 4],
    /// Mean served accuracy (percent, vs dataset labels).
    pub accuracy: f64,
    /// Mean guard trips per trial.
    pub trips: f64,
    /// Mean recovery reload passes per trial.
    pub reloads: f64,
    /// Trials where some request went unanswered (must stay 0).
    pub lost: usize,
    /// Trials that failed to complete (recorded, not classified).
    pub failed: usize,
}

impl RateRow {
    /// Count for one verdict class.
    pub fn get(&self, v: Verdict) -> usize {
        self.counts[v.code() as usize]
    }
}

fn engine_config(pre: &Prebaked) -> EngineConfig {
    EngineConfig {
        fw: FrameworkKind::Chainer,
        model: ModelKind::AlexNet,
        model_config: pre.budget().model_config(),
        dtype: Dtype::F32,
        max_batch: BATCH,
        batch_window: Duration::from_millis(1),
        guard_slack: 0.5,
    }
}

/// The fixed request corpus: the first [`CORPUS`] test images, ids in
/// dataset order so answers sort back into corpus order.
fn corpus(pre: &Prebaked) -> (Vec<Request>, Vec<u8>) {
    let data = pre.data();
    let reqs = (0..CORPUS)
        .map(|i| Request { id: i as u64, tag: 0, image: data.image(Split::Test, i).to_vec() })
        .collect();
    let labels = (0..CORPUS).map(|i| data.label(Split::Test, i)).collect();
    (reqs, labels)
}

fn calib_batches(reqs: &[Request], input_size: usize) -> Vec<Tensor> {
    reqs.chunks(BATCH)
        .map(|chunk| {
            let mut data = Vec::new();
            for r in chunk {
                data.extend_from_slice(&r.image);
            }
            Tensor::from_vec(data, &[chunk.len(), 3, input_size, input_size])
        })
        .collect()
}

/// Write per-replica checkpoint files into `dir` and stand up a pool.
fn build_engine(
    cfg: &EngineConfig,
    dir: &Path,
    replica_bytes: &[Vec<u8>],
    sidecar: &EccSidecar,
    env: Arc<EnvelopeSet>,
    canary: Tensor,
) -> Result<ServeEngine, String> {
    let mut specs = Vec::new();
    for (r, bytes) in replica_bytes.iter().enumerate() {
        let path = dir.join(format!("replica_{r}.h5"));
        std::fs::write(&path, bytes).map_err(|e| format!("writing {path:?}: {e}"))?;
        specs.push(ReplicaSpec { path, sidecar: Some(sidecar.clone()) });
    }
    ServeEngine::new(cfg.clone(), &specs, env, canary, None, "exp_serving")
}

/// Answer classes in corpus order (panics if an id is missing — the
/// engine's exactly-once contract makes that a harness bug, and the
/// `lost` column double-checks it from the recorded metric).
fn classes_in_order(mut answers: Vec<sefi_serve::Answer>) -> Vec<u32> {
    answers.sort_by_key(|a| a.id);
    answers.into_iter().map(|a| a.class).collect()
}

/// Run the sweep: for each injection rate, serve the fixed corpus from a
/// two-replica pool whose files each carry `rate` payload flips, and
/// classify the trial against the clean pool's answers.
pub fn serving_table(pre: &Prebaked) -> (Vec<RateRow>, TextTable) {
    let cfg = engine_config(pre);
    let trials = trials_per_rate(pre);
    let clean_bytes = Arc::new(pre.checkpoint_shared(cfg.fw, cfg.model, cfg.dtype).to_bytes_v2());
    let sidecar = Arc::new(EccSidecar::protect(&clean_bytes).expect("sidecar over clean bytes"));
    let (reqs, labels) = corpus(pre);
    let reqs = Arc::new(reqs);
    let labels = Arc::new(labels);
    let batches = calib_batches(&reqs, cfg.model_config.input_size);
    let env = Arc::new(
        calibrate_from_clean_bytes(&cfg, &clean_bytes, &batches).expect("clean bytes calibrate"),
    );
    let canary = batches[0].clone();

    // The clean pool's answers are the per-request ground truth; a guard
    // that trips on them would poison every classification below.
    let clean: Arc<Vec<u32>> = {
        let dir =
            std::env::temp_dir().join(format!("sefi-exp-serving-{}-clean", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bytes = vec![(*clean_bytes).clone(); REPLICAS];
        let engine = build_engine(&cfg, &dir, &bytes, &sidecar, Arc::clone(&env), canary.clone())
            .expect("clean pool loads");
        let answers = engine.serve_deterministic(&reqs, BATCH);
        assert_eq!(engine.totals().guard_trips, 0, "clean pool false-tripped");
        std::fs::remove_dir_all(&dir).ok();
        Arc::new(classes_in_order(answers))
    };

    let plans: Vec<CellPlan<'_>> = rates()
        .into_iter()
        .map(|rate| {
            let cfg = cfg.clone();
            let clean_bytes = Arc::clone(&clean_bytes);
            let sidecar = Arc::clone(&sidecar);
            let reqs = Arc::clone(&reqs);
            let labels = Arc::clone(&labels);
            let clean = Arc::clone(&clean);
            let env = Arc::clone(&env);
            let canary = canary.clone();
            let cell = format!("serving-rate{rate}");
            CellPlan::new("serving", cell, cfg.fw, cfg.model, trials, move |trial, seed| {
                let dir = std::env::temp_dir()
                    .join(format!("sefi-exp-serving-{}-r{rate}-t{trial}", std::process::id()));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| TrialError::new(format!("temp dir: {e}")))?;
                let mut replica_bytes = Vec::with_capacity(REPLICAS);
                for r in 0..REPLICAS as u64 {
                    let mut bytes = (*clean_bytes).clone();
                    if rate > 0 {
                        let raw = RawConfig {
                            flips: rate,
                            region: Some(FileRegion::Payload),
                            seed: seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        };
                        RawCorrupter::new(raw)?.corrupt_bytes(&mut bytes)?;
                    }
                    replica_bytes.push(bytes);
                }
                let engine = build_engine(
                    &cfg,
                    &dir,
                    &replica_bytes,
                    &sidecar,
                    Arc::clone(&env),
                    canary.clone(),
                )
                .map_err(TrialError::new)?;
                let answers = engine.serve_deterministic(&reqs, BATCH);
                let totals = engine.totals();
                std::fs::remove_dir_all(&dir).ok();

                let answered = answers.len();
                let classes = classes_in_order(answers);
                let deviations = classes.iter().zip(clean.iter()).filter(|(a, c)| a != c).count();
                let correct =
                    classes.iter().zip(labels.iter()).filter(|(a, l)| **a == **l as u32).count();
                let verdict = Verdict::classify(totals.guard_trips, deviations);
                Ok(TrialOutcome::ok()
                    .with_metric("class", verdict.code())
                    .with_metric("answered", answered as f64)
                    .with_metric("deviations", deviations as f64)
                    .with_metric("correct", correct as f64)
                    .with_metric("trips", totals.guard_trips as f64)
                    .with_metric("reloads", totals.reloads as f64))
            })
        })
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "Flips/replica",
        "Trials",
        "Masked",
        "Recovered",
        "Detected",
        "Silent",
        "Served acc",
        "Trips",
        "Reloads",
        "Lost",
        "Failed",
    ]);
    for (rate, outcomes) in rates().into_iter().zip(&pooled) {
        let mut row = RateRow {
            rate,
            trials: 0,
            counts: [0; 4],
            accuracy: 0.0,
            trips: 0.0,
            reloads: 0.0,
            lost: 0,
            failed: 0,
        };
        for o in outcomes {
            match o.metric("class").and_then(Verdict::from_code) {
                Some(v) if !o.is_failed() => {
                    row.trials += 1;
                    row.counts[v.code() as usize] += 1;
                    let answered = o.metric("answered").unwrap_or(0.0);
                    if answered != CORPUS as f64 {
                        row.lost += 1;
                    }
                    if answered > 0.0 {
                        row.accuracy += 100.0 * o.metric("correct").unwrap_or(0.0) / answered;
                    }
                    row.trips += o.metric("trips").unwrap_or(0.0);
                    row.reloads += o.metric("reloads").unwrap_or(0.0);
                }
                _ => row.failed += 1,
            }
        }
        if row.trials > 0 {
            let n = row.trials as f64;
            row.accuracy /= n;
            row.trips /= n;
            row.reloads /= n;
        }
        table.row(vec![
            row.rate.to_string(),
            row.trials.to_string(),
            row.get(Verdict::Masked).to_string(),
            row.get(Verdict::Recovered).to_string(),
            row.get(Verdict::Detected).to_string(),
            row.get(Verdict::Silent).to_string(),
            pct(row.accuracy),
            format!("{:.2}", row.trips),
            format!("{:.2}", row.reloads),
            row.lost.to_string(),
            row.failed.to_string(),
        ]);
        rows.push(row);
    }
    (rows, table)
}

/// Zero-rate sanity: with no flips, every trial is masked — the guards
/// never false-trip on clean replicas and no answer deviates.
pub fn rate_zero_all_masked(rows: &[RateRow]) -> bool {
    rows.first().is_some_and(|r| {
        r.rate == 0 && r.get(Verdict::Masked) == r.trials && r.trips == 0.0 && r.failed == 0
    })
}

/// At the highest injection rate the guards actually fire: some trial
/// was classified recovered or detected (trips observed).
pub fn guards_fire_at_max_rate(rows: &[RateRow]) -> bool {
    rows.last().is_some_and(|r| r.get(Verdict::Recovered) + r.get(Verdict::Detected) > 0)
}

/// The exactly-once contract held everywhere: no trial lost a request.
pub fn no_request_lost(rows: &[RateRow]) -> bool {
    rows.iter().all(|r| r.lost == 0)
}

/// Fraction (percent) of classified trials at each rate where failover
/// kept every answer clean despite a trip — the recovery win the
/// serving stack adds over detection alone.
pub fn recovered_rate(row: &RateRow) -> f64 {
    if row.trials == 0 {
        return 0.0;
    }
    100.0 * row.get(Verdict::Recovered) as f64 / row.trials as f64
}

/// The served-accuracy sweep: replica-file flips vs a guarded serving pool.
pub const SERVING: Experiment = Experiment {
    name: "serving",
    title: "Serving soft errors — guarded replica pool vs corrupted checkpoint files",
    files: &["serving.csv"],
    run: |pre, r| {
        let pool = format!("{REPLICAS} replicas, {CORPUS} requests, batch {BATCH}");
        r.budget(pre, &format!("{} trials/rate; {pool}", trials_per_rate(pre)));
        let (rows, table) = serving_table(pre);
        r.table(&table);
        r.check("rate-0 pool all masked", rate_zero_all_masked(&rows));
        r.check("guards fire at max rate", guards_fire_at_max_rate(&rows));
        r.check("no request lost", no_request_lost(&rows));
        let recovered: Vec<String> =
            rows.iter().map(|row| format!("{} {}%", row.rate, pct(recovered_rate(row)))).collect();
        r.finding("recovered-trial rate by flips/replica", recovered.join(", "));
        r.csv("serving.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn verdict_codes_roundtrip() {
        for v in [Verdict::Masked, Verdict::Recovered, Verdict::Detected, Verdict::Silent] {
            assert_eq!(Verdict::from_code(v.code()), Some(v));
        }
        assert_eq!(Verdict::from_code(9.0), None);
    }

    #[test]
    fn classify_covers_the_quadrants() {
        assert_eq!(Verdict::classify(0, 0), Verdict::Masked);
        assert_eq!(Verdict::classify(2, 0), Verdict::Recovered);
        assert_eq!(Verdict::classify(1, 3), Verdict::Detected);
        assert_eq!(Verdict::classify(0, 1), Verdict::Silent);
    }

    #[test]
    fn sweep_smoke() {
        let pre = Prebaked::new(Budget::smoke());
        let (rows, _) = serving_table(&pre);
        assert_eq!(rows.len(), rates().len());
        for row in &rows {
            assert_eq!(row.failed, 0, "rate {}", row.rate);
            assert_eq!(row.trials, trials_per_rate(&pre));
        }
        assert!(rate_zero_all_masked(&rows), "clean pool must stay masked");
        assert!(guards_fire_at_max_rate(&rows), "16 flips/replica never tripped a guard");
        assert!(no_request_lost(&rows), "a request went unanswered");
    }
}
