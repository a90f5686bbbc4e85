//! Integration: the protection layers (NevGuard, the SEC-DED sidecar)
//! composed with real framework checkpoints and resumed training.

use sefi_core::{Corrupter, CorrupterConfig, LocationSelection, NevGuard};
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_experiments::ecc::repair_as_stored;
use sefi_float::Precision;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dataset, Dtype, EccSidecar, FileIndex, H5File};
use sefi_models::{ModelConfig, ModelKind};

fn data() -> SyntheticCifar10 {
    SyntheticCifar10::generate(DataConfig {
        train: 80,
        test: 40,
        image_size: 16,
        seed: 13,
        noise: 0.25,
    })
}

fn session() -> Session {
    let mut cfg = SessionConfig::new(FrameworkKind::TensorFlow, ModelKind::AlexNet, 31);
    cfg.model_config = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
    cfg.train.batch_size = 16;
    Session::new(cfg)
}

#[test]
fn guard_turns_a_collapsing_checkpoint_into_a_trainable_one() {
    let d = data();
    let mut s = session();
    s.train_to(&d, 1);
    let mut ck = s.checkpoint(Dtype::F64);

    // Heavy full-range corruption: unguarded resume collapses.
    Corrupter::new(CorrupterConfig::bit_flips_full_range(500, Precision::Fp64, 8))
        .unwrap()
        .corrupt(&mut ck)
        .unwrap();
    let mut unguarded = session();
    unguarded.restore(&ck).unwrap();
    assert!(unguarded.train_to(&d, 2).collapsed());

    // Guarded resume survives.
    let report = NevGuard::default_repair().scrub(&mut ck);
    assert!(!report.is_clean(), "500 full-range flips must produce N-EVs");
    let mut guarded = session();
    guarded.restore(&ck).unwrap();
    let out = guarded.train_to(&d, 2);
    assert!(!out.collapsed(), "scrubbed checkpoint must train");
}

#[test]
fn ecc_restores_single_flip_checkpoints_to_rwc() {
    // With ECC, a single-flip corruption resumes *identically* to the
    // error-free baseline — RWC by construction, not by absorption.
    let d = data();
    let mut s = session();
    s.train_to(&d, 1);
    let ck = s.checkpoint(Dtype::F64);
    let stored = ck.to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).unwrap();

    // Baseline resume.
    let mut base = session();
    base.restore(&ck).unwrap();
    let base_out = base.train_to(&d, 3);

    // Corrupt one bit, repair, resume.
    let mut hit = ck.clone();
    Corrupter::new(CorrupterConfig::bit_flips_full_range(1, Precision::Fp64, 77))
        .unwrap()
        .corrupt(&mut hit)
        .unwrap();
    assert_ne!(hit.to_bytes(), ck.to_bytes());
    let (bytes, report) = repair_as_stored(&stored, &sidecar, &hit).unwrap();
    assert_eq!(report.corrected_words, 1);
    assert_eq!(bytes, stored, "ECC must restore byte-identity");

    let mut repaired = session();
    repaired.restore(&H5File::from_bytes(&bytes).unwrap()).unwrap();
    let rep_out = repaired.train_to(&d, 3);
    assert_eq!(rep_out.history(), base_out.history(), "repaired resume == baseline");
}

#[test]
fn guard_then_ecc_protect_different_things() {
    // ECC needs the *pristine* parity sidecar; the guard needs nothing.
    // Composing them: ECC repairs what it can, the guard catches what
    // slipped through (multi-bit damage that produced an N-EV).
    let d = data();
    let mut s = session();
    s.train_to(&d, 1);
    let ck = s.checkpoint(Dtype::F64);
    let stored = ck.to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).unwrap();

    let mut hit = ck.clone();
    // Heavy corruption: some words take multiple flips.
    Corrupter::new(CorrupterConfig::bit_flips_full_range(300, Precision::Fp64, 5))
        .unwrap()
        .corrupt(&mut hit)
        .unwrap();
    let (bytes, ecc_report) = repair_as_stored(&stored, &sidecar, &hit).unwrap();
    // Words ECC could not repair still fail their section CRCs; load past
    // them so the guard gets its turn.
    let mut hit = H5File::from_bytes_unverified(&bytes).unwrap();
    let guard_report = NevGuard::default_repair().scrub(&mut hit);
    // Whatever remains after both layers trains without collapse.
    let mut healed = session();
    healed.restore(&hit).unwrap();
    let out = healed.train_to(&d, 2);
    assert!(
        !out.collapsed(),
        "ecc corrected {} / flagged {}, guard repaired {}, yet training collapsed",
        ecc_report.corrected_words,
        ecc_report.uncorrectable_words,
        guard_report.findings.len()
    );
}

/// A small checkpoint whose datasets end on a full word (`m/w`), a short
/// trailing word (`m/b`) and a lone scalar (`m/epoch`).
fn small_checkpoint() -> H5File {
    let mut f = H5File::new();
    let values: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.21).cos()).collect();
    f.create_dataset("m/w", Dataset::from_f32(&values, &[64], Dtype::F64).unwrap()).unwrap();
    f.create_dataset("m/b", Dataset::from_f32(&[0.5; 7], &[7], Dtype::F32).unwrap()).unwrap();
    f.create_dataset("m/epoch", Dataset::scalar_i64(20)).unwrap();
    f
}

#[test]
fn corrupter_flips_are_repaired_or_flagged_never_silently_missed() {
    // Random corrupter flips may collide in one word, and then SEC-DED can
    // only detect. The invariant is that nothing is silently accepted:
    // after repair, every word that still differs from the original is one
    // the code flags uncorrectable.
    let f = small_checkpoint();
    let stored = f.to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).unwrap();
    let mut g = f.clone();
    let mut cfg = CorrupterConfig::bit_flips_full_range(5, Precision::Fp64, 3);
    cfg.locations = LocationSelection::Listed(vec!["m/w".to_string(), "m/epoch".to_string()]);
    Corrupter::new(cfg).unwrap().corrupt(&mut g).unwrap();
    let (bytes, report) = repair_as_stored(&stored, &sidecar, &g).unwrap();
    assert!(report.corrected_words + report.uncorrectable_words >= 1);

    let mut still_wrong = 0;
    for (i, e) in FileIndex::parse(&stored).unwrap().entries().iter().enumerate() {
        let (got, want) =
            (&bytes[e.offset..e.offset + e.byte_len], &stored[e.offset..e.offset + e.byte_len]);
        let differing = got.chunks(8).zip(want.chunks(8)).filter(|(a, b)| a != b).count();
        let flagged = sidecar.scrub_section(i, got).unwrap().uncorrectable_words;
        assert_eq!(differing, flagged, "unflagged difference in {}", e.path);
        still_wrong += differing;
    }
    assert_eq!(still_wrong, report.uncorrectable_words);
}

#[test]
fn paper_four_bit_mask_in_one_word_is_flagged_uncorrectable() {
    // The paper's Table VI motivation: multi-bit DRAM errors beat SEC-DED.
    // Its 4-bit mask in one word has even weight, so the code detects it
    // and must leave the data alone rather than "repair" it.
    let f = small_checkpoint();
    let stored = f.to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).unwrap();
    let mut g = f.clone();
    {
        let ds = g.dataset_mut("m/w").unwrap();
        let bits = ds.get_bits(10).unwrap();
        ds.set_bits(10, bits ^ 0b01101010 << 20).unwrap();
    }
    let (bytes, report) = repair_as_stored(&stored, &sidecar, &g).unwrap();
    assert_eq!(report.uncorrectable_words, 1, "even-weight mask must be detected");
    assert_eq!(report.corrected_words, 0);
    let payload = FileIndex::parse(&stored).unwrap().payload_start();
    assert_eq!(bytes[payload..], g.to_bytes_v2()[payload..], "a detected word keeps its bytes");
    assert_ne!(bytes, stored);
}
