//! Integration tests of the experiment harness itself at smoke scale:
//! the structural guarantees every table/figure build on.

use sefi_experiments::{
    exp_bitranges, exp_curves, exp_nev, exp_rwc, Budget, CampaignConfig, CellPlan, Prebaked,
    TrialOutcome,
};
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;

#[test]
fn non_finite_measurements_become_recorded_failures_not_panics() {
    // A trial that measures a NaN accuracy (NEV-corrupted evaluation paths
    // can produce one) must not poison the manifest or kill the campaign:
    // the outcome is recorded as failed and every other trial proceeds.
    let dir = std::env::temp_dir().join(format!("sefi_nan_outcome_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CampaignConfig::new("nan-probe").results_dir(&dir);
    let plan = || {
        CellPlan::new(
            "nanexp",
            "poisoned",
            FrameworkKind::PyTorch,
            ModelKind::AlexNet,
            3,
            |trial, _| {
                Ok(if trial == 1 {
                    TrialOutcome::ok().with_accuracy(f64::NAN)
                } else {
                    TrialOutcome::ok().with_accuracy(0.5)
                })
            },
        )
    };
    let pre = Prebaked::with_campaign(Budget::smoke(), cfg.clone()).unwrap();
    let outcomes = pre.run_plan(&[plan()]).pop().unwrap();
    assert!(outcomes[1].is_failed(), "NaN accuracy must be recorded as a failure");
    assert!(outcomes[1].failure.as_deref().unwrap_or("").contains("non-finite"));
    assert_eq!(outcomes[1].final_accuracy, None, "the NaN must not reach the manifest");
    assert!(!outcomes[0].is_failed() && !outcomes[2].is_failed(), "other trials proceed");
    assert_eq!(pre.campaign_failed(), Some(1));
    drop(pre);

    // The manifest the failure went through stays parseable: a resumed
    // campaign serves all three records without re-executing anything.
    let pre2 = Prebaked::with_campaign(Budget::smoke(), cfg).unwrap();
    let outcomes2 = pre2.run_plan(&[plan()]).pop().unwrap();
    assert_eq!(pre2.campaign_totals(), Some((0, 3)), "all three records must be served");
    assert!(outcomes2[1].is_failed());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cells_are_reproducible_functions_of_their_inputs() {
    let pre = Prebaked::new(Budget::smoke());
    let a = exp_nev::nev_cell(
        &pre,
        FrameworkKind::PyTorch,
        ModelKind::AlexNet,
        Precision::Fp64,
        100,
        4,
    );
    let b = exp_nev::nev_cell(
        &pre,
        FrameworkKind::PyTorch,
        ModelKind::AlexNet,
        Precision::Fp64,
        100,
        4,
    );
    assert_eq!(a.nev, b.nev, "a table cell must be deterministic");
    // And a fresh Prebaked (new pretraining via cache) agrees too.
    let pre2 = Prebaked::new(Budget::smoke());
    let c = exp_nev::nev_cell(
        &pre2,
        FrameworkKind::PyTorch,
        ModelKind::AlexNet,
        Precision::Fp64,
        100,
        4,
    );
    assert_eq!(a.nev, c.nev, "cells must not depend on harness instance");
}

#[test]
fn rwc_is_total_when_nothing_is_injected() {
    // The RWC definition's sanity anchor: with zero deviation sources, the
    // baseline equals itself.
    let pre = Prebaked::new(Budget::smoke());
    let baseline = pre.baseline_final_accuracy(ModelKind::AlexNet, Dtype::F64);
    for fw in FrameworkKind::all() {
        let clean = pre.trial(fw, ModelKind::AlexNet, Dtype::F64);
        let out = clean.resume(pre.budget().resume_epochs).unwrap().training;
        assert_eq!(out.final_accuracy().unwrap(), baseline, "{fw:?}");
    }
}

#[test]
fn figure2_and_rwc_agree_on_the_critical_bit() {
    // Cross-experiment consistency: Fig. 2 finds bit 62 is the only
    // collapse trigger; Table V (which excludes bit 62) must therefore
    // never collapse.
    let pre = Prebaked::new(Budget::smoke());
    let (rows, _) = exp_bitranges::figure2(&pre);
    assert!(exp_bitranges::collapse_only_with_critical_bit(&rows));
    let cell = exp_rwc::rwc_cell(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, 4);
    assert!(cell.max_deviation.is_finite(), "no collapsed RWC trials");
}

#[test]
fn curves_share_the_baseline_prefix() {
    // Every Figure 3 series starts from the same restart checkpoint, so at
    // the restart epoch a 0-flip curve equals the error-free baseline.
    let pre = Prebaked::new(Budget::smoke());
    let b = pre.budget();
    let baseline = pre.baseline_curve(ModelKind::AlexNet, Dtype::F64, b.curve_end_epoch);
    let zero =
        exp_curves::corrupted_curve(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, 0, "t");
    for (base, z) in baseline.iter().zip(&zero.points) {
        assert_eq!(base.epoch, z.0);
        assert!((base.test_accuracy - z.1).abs() < 1e-12);
    }
}
