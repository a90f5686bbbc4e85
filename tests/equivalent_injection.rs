//! Cross-framework equivalent injection, end to end (paper Section IV-C).

use sefi_core::{Corrupter, CorrupterConfig, LocationSelection, ValueChange};
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_float::Precision;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::Dtype;
use sefi_models::{LayerRole, ModelConfig, ModelKind};
use std::collections::HashMap;

fn data() -> SyntheticCifar10 {
    SyntheticCifar10::generate(DataConfig {
        train: 80,
        test: 40,
        image_size: 16,
        seed: 5,
        noise: 0.25,
    })
}

fn session(fw: FrameworkKind) -> Session {
    let mut cfg = SessionConfig::new(fw, ModelKind::AlexNet, 42);
    cfg.model_config = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
    cfg.train.batch_size = 16;
    Session::new(cfg)
}

/// The Chainer→target location maps for AlexNet's first layer.
fn first_layer_map(target: FrameworkKind) -> HashMap<String, String> {
    let pairs: &[(&str, &str)] = match target {
        FrameworkKind::PyTorch => &[
            ("predictor/conv1/W", "state_dict/conv1.weight"),
            ("predictor/conv1/b", "state_dict/conv1.bias"),
        ],
        FrameworkKind::TensorFlow => &[
            ("predictor/conv1/W", "model_weights/conv1/kernel"),
            ("predictor/conv1/b", "model_weights/conv1/bias"),
        ],
        FrameworkKind::Chainer => &[],
    };
    pairs.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
}

#[test]
fn equivalent_injection_full_cycle() {
    let d = data();

    // 1. Chainer run: train, checkpoint, inject into the first layer, log.
    let mut chainer = session(FrameworkKind::Chainer);
    chainer.train_to(&d, 1);
    let mut ck = chainer.checkpoint(Dtype::F64);
    let mut cfg = CorrupterConfig::bit_flips(30, Precision::Fp64, 17);
    cfg.locations = LocationSelection::Listed(chainer.layer_locations(LayerRole::First));
    let (report, log) = Corrupter::new(cfg).unwrap().corrupt_with_log(&mut ck).unwrap();
    assert_eq!(report.injections, 30);

    // 2. The log survives a JSON round-trip (the paper's .json artifact).
    let log = sefi_core::InjectionLog::from_json(&log.to_json()).unwrap();

    // 3. Replay on both other frameworks.
    for fw in [FrameworkKind::PyTorch, FrameworkKind::TensorFlow] {
        let mut victim = session(fw);
        victim.train_to(&d, 1);
        let mut vck = victim.checkpoint(Dtype::F64);
        let replayed = log.remap_locations(&first_layer_map(fw)).replay(&mut vck, 1).unwrap();

        // Equivalent means: same count, same order, same bit positions.
        assert_eq!(replayed.injections, 30, "{fw:?}");
        for (orig, rep) in log.records().iter().zip(&replayed.records) {
            match (orig.change, rep.change) {
                (ValueChange::BitFlip { bit: a }, ValueChange::BitFlip { bit: b }) => {
                    assert_eq!(a, b, "{fw:?}: bit positions must match")
                }
                other => panic!("unexpected change pair {other:?}"),
            }
            // And the flips land in the equivalent layer.
            assert!(
                rep.location.contains("conv1"),
                "{fw:?}: {} escaped the first layer",
                rep.location
            );
        }

        // 4. The corrupted checkpoint resumes.
        victim.restore(&vck).unwrap();
        let out = victim.train_to(&d, 2);
        assert!(!out.collapsed(), "{fw:?}");
    }
}

#[test]
fn replay_counts_match_even_with_repeated_locations() {
    // A log with every record in the same location replays injection-for-
    // injection ("same amount and order").
    let d = data();
    let mut s = session(FrameworkKind::Chainer);
    s.train_to(&d, 1);
    let mut ck = s.checkpoint(Dtype::F64);
    let mut cfg = CorrupterConfig::bit_flips(100, Precision::Fp64, 3);
    cfg.locations = LocationSelection::Listed(vec!["predictor/conv1/W".to_string()]);
    let (_, log) = Corrupter::new(cfg).unwrap().corrupt_with_log(&mut ck).unwrap();

    let mut target = session(FrameworkKind::Chainer);
    target.train_to(&d, 1);
    let mut tck = target.checkpoint(Dtype::F64);
    let report = log.replay(&mut tck, 2).unwrap();
    assert_eq!(report.injections, 100);
    assert!(report.records.iter().all(|r| r.location == "predictor/conv1/W"));
}

#[test]
fn full_range_logs_replay_whole_including_the_epoch_counter() {
    // A 1000-flip full-range run hits every dataset of the file, integer
    // epoch counter included; its log must replay onto a pristine clone in
    // every framework, each integer flip through the corrupter's bin() step.
    let d = data();
    for fw in FrameworkKind::all() {
        let mut cfg = SessionConfig::new(fw, ModelKind::AlexNet, 42);
        cfg.model_config = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
        cfg.train.batch_size = 16;
        let mut s = Session::new(cfg);
        s.train_to(&d, 1);
        let pristine = s.checkpoint(Dtype::F64);
        let mut corrupted = pristine.clone();
        let cfg = CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 2021);
        let (report, log) = Corrupter::new(cfg).unwrap().corrupt_with_log(&mut corrupted).unwrap();
        let epoch_flips = report.records.iter().filter(|r| r.location == fw.epoch_path()).count();
        assert!(epoch_flips > 0, "{fw:?}: the log must exercise the integer target");

        let mut replayed = pristine.clone();
        let replay = log.replay(&mut replayed, 7).unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        assert_eq!(replay.injections, 1000);
        for (orig, again) in log.records().iter().zip(&replay.records) {
            assert_eq!(orig.location, again.location);
            assert_eq!(orig.change, again.change, "same action, same order");
        }
        // A scalar counter has one entry, so its flips replay exactly.
        let epoch = |f: &sefi_hdf5::H5File| f.dataset(fw.epoch_path()).unwrap().get_i64(0).unwrap();
        assert_eq!(epoch(&replayed), epoch(&corrupted), "{fw:?}");
    }
}

#[test]
fn a_logged_bit_beyond_an_integer_width_stays_a_loud_error() {
    let mut s = session(FrameworkKind::Chainer);
    let mut ck = s.checkpoint(Dtype::F64);
    let epoch_path = FrameworkKind::Chainer.epoch_path();
    ck.dataset_mut(epoch_path).unwrap().set_i64(0, 5).unwrap(); // 0b101: 3 bits wide
    let mut log = sefi_core::InjectionLog::new();
    log.push(sefi_core::LogRecord {
        order: 0,
        location: epoch_path.to_string(),
        change: ValueChange::BitFlip { bit: 3 },
        entry_index: 0,
    });
    let before = ck.clone();
    let err = log.replay(&mut ck, 0).unwrap_err();
    assert!(err.to_string().contains("3-bit"), "{err}");
    assert_eq!(ck, before, "a refused flip writes nothing");
    // Inside the width, the same record replays as a bin() flip: 5 ^ 0b100.
    log = sefi_core::InjectionLog::new();
    log.push(sefi_core::LogRecord {
        order: 0,
        location: epoch_path.to_string(),
        change: ValueChange::BitFlip { bit: 2 },
        entry_index: 0,
    });
    log.replay(&mut ck, 0).unwrap();
    assert_eq!(ck.dataset(epoch_path).unwrap().get_i64(0).unwrap(), 1);
}
