//! Every workload at smoke scale, untraced and traced: the catalogue's
//! metrics are all emitted, the correctness gates pass, and the traced
//! run reproduces the untraced outcome digest. Also: the benchmark's
//! trial bodies reproduce `exp_nev::nev_plan` and each other.

use sefi_benchmark::campaign::{self, TrialTrace, MODELS};
use sefi_benchmark::measure::SpanLog;
use sefi_benchmark::report::{RunRecord, Spec};
use sefi_experiments::exp_nev::nev_plan;
use sefi_experiments::{Budget, CellPlan, Prebaked};
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &PathBuf, workload: &str, trace: bool) -> (serde::Content, RunRecord) {
    let out = dir.join(format!("{workload}-{}.json", trace as u8));
    let result = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "3", "--smoke", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{workload} trace={trace}:\n{stdout}");
    let last = stdout.lines().last().unwrap();
    let line: serde::Content = serde_json::from_str(last).unwrap();
    let record: RunRecord = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    (line, record)
}

fn metric_names(line: &serde::Content) -> BTreeSet<String> {
    let map = line.as_map().unwrap();
    let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = &map.iter().find(|(k, _)| k == "metrics").unwrap().1;
    metrics.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_emits_the_catalogue_and_traced_digests_match() {
    let spec = Spec::load();
    let dir = scratch("smoke");
    for w in &spec.workloads {
        let (plain_line, plain) = run(&dir, &w.name, false);
        let (traced_line, traced) = run(&dir, &w.name, true);
        for (line, rec, trace) in [(&plain_line, &plain, false), (&traced_line, &traced, true)] {
            let want: BTreeSet<String> =
                spec.metrics(trace).iter().map(|m| m.name.clone()).collect();
            assert_eq!(metric_names(line), want, "{} trace={trace}", w.name);
            assert!(rec.correct && rec.failed == 0, "{} trace={trace}: {:?}", w.name, rec.notes);
        }
        assert_eq!(plain.digest, traced.digest, "{}: traced digest differs", w.name);
        assert!(spec.end_to_end.iter().all(|m| plain.metrics[&m.name] > 0.0), "{}", w.name);
        assert!(traced.metrics["trace.coverage"] >= 0.95, "{}: coverage", w.name);

        let m = &traced.metrics;
        match w.name.as_str() {
            "resume-train" => {
                let layers = m.iter().filter(|(k, _)| k.starts_with("nn.fwd."));
                assert!(layers.clone().count() > 40);
                for (k, v) in layers {
                    assert!(*v > 0.0, "{k} was never timed");
                }
            }
            "collapse-inject" => assert_eq!(m["nn.forward_ms.alexnet"], 0.0),
            "serve-steady" => {
                for k in ["serve.guard_trips", "serve.reloads", "serve.reserved_frac"] {
                    assert_eq!(m[k], 0.0, "{k}");
                }
            }
            "serve-sdc" => {
                for k in ["serve.guard_trips", "serve.reloads", "serve.reserved_frac"] {
                    assert!(m[k] > 0.0, "{k}");
                }
            }
            other => panic!("no expectations for workload {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trial_bodies_reproduce_the_table_iv_cell() {
    // The runner's pretraining cache is relative to the working directory.
    std::env::set_current_dir(scratch("nev")).unwrap();
    let pre = Prebaked::new(Budget::smoke());
    let fw = FrameworkKind::Chainer;
    for flips in [1u64, 1000] {
        for model in MODELS {
            let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
            let reference = nev_plan(&pre, fw, model, Precision::Fp64, flips, 3);
            let ours = CellPlan::new("nev", format!("nev-64-{flips}"), fw, model, 3, |_, seed| {
                campaign::trial(&pre, model, &pristine, flips, seed)
            });
            let out = pre.run_plan(&[reference, ours]);
            for (t, (a, b)) in out[0].iter().zip(&out[1]).enumerate() {
                let key = |o: &sefi_telemetry::TrialOutcome| {
                    (o.status.clone(), o.collapsed, o.injections, o.nan_redraws, o.skipped)
                };
                assert_eq!(key(a), key(b), "{model:?} flips={flips} trial {t}");
                let mut tr = TrialTrace { log: SpanLog::new(Instant::now()), workspace_bytes: 0 };
                let seed = sefi_experiments::combo_seed(fw, model, &format!("nev-64-{flips}"), t);
                let traced =
                    campaign::traced_trial(&pre, model, &pristine, flips, seed, 0, &mut tr);
                assert_eq!(
                    traced.as_ref(),
                    Ok(b),
                    "{model:?} flips={flips} trial {t}: traced body"
                );
            }
        }
    }
}
