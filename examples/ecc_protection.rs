//! Protecting checkpoints with SEC-DED ECC (the direction behind the
//! paper's Table VI discussion and its references [44]–[46]).
//!
//! Train a model, protect its stored v2 checkpoint with a Hamming(72,64)
//! parity sidecar ([`EccSidecar`]), hit it with single bit-flips and with
//! the paper's multi-bit DRAM masks, and see what the code can and cannot
//! save.
//!
//! ```text
//! cargo run --release --example ecc_protection
//! ```

use sefi_core::{Corrupter, CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection};
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_experiments::ecc::repair_as_stored;
use sefi_float::{BitMask, Precision};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dtype, EccSidecar, H5File};
use sefi_models::{ModelConfig, ModelKind};

fn main() {
    let data = SyntheticCifar10::generate(DataConfig {
        train: 200,
        test: 100,
        image_size: 16,
        seed: 3,
        noise: 0.3,
    });
    let mut cfg = SessionConfig::new(FrameworkKind::Chainer, ModelKind::AlexNet, 5);
    cfg.model_config = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
    cfg.train.batch_size = 16;
    let mut session = Session::new(cfg.clone());
    session.train_to(&data, 3);
    let checkpoint = session.checkpoint(Dtype::F64);

    // Protect: one parity byte per 64-bit word.
    let stored = checkpoint.to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).unwrap();
    println!(
        "checkpoint: {} entries in {} bytes; sidecar: {} parity bytes ({}% overhead)\n",
        checkpoint.total_entries(),
        stored.len(),
        sidecar.parity_bytes(),
        100 * sidecar.parity_bytes() / stored.len()
    );

    // Scenario 1: a realistic SDC — one random bit-flip.
    let mut hit = checkpoint.clone();
    Corrupter::new(CorrupterConfig::bit_flips_full_range(1, Precision::Fp64, 99))
        .unwrap()
        .corrupt(&mut hit)
        .unwrap();
    let (bytes, report) = repair_as_stored(&stored, &sidecar, &hit).unwrap();
    println!(
        "single flip: corrected {} word(s); checkpoint identical to original: {}",
        report.corrected_words,
        bytes == stored
    );

    // Scenario 2: the paper's 6-bit DRAM mask, ten weights.
    let mut hit = checkpoint.clone();
    let mask_cfg = CorrupterConfig {
        injection_probability: 1.0,
        amount: InjectionAmount::Count(10),
        float_precision: Precision::Fp64,
        mode: CorruptionMode::BitMask(BitMask::parse("11101101").unwrap()),
        allow_nan_values: true,
        locations: LocationSelection::AllRandom,
        seed: 7,
    };
    Corrupter::new(mask_cfg).unwrap().corrupt(&mut hit).unwrap();
    let (bytes, report) = repair_as_stored(&stored, &sidecar, &hit).unwrap();
    println!(
        "6-bit mask x10: corrected {}, detected-uncorrectable {} — multi-bit errors defeat SEC-DED",
        report.corrected_words, report.uncorrectable_words
    );

    // The uncorrectable detection is actionable: fall back to a clean copy
    // instead of resuming from known-bad state.
    let resume_from = if report.uncorrectable_words > 0 {
        checkpoint
    } else {
        H5File::from_bytes_unverified(&bytes).unwrap()
    };
    let mut resumed = Session::new(cfg);
    resumed.restore(&resume_from).unwrap();
    let out = resumed.train_to(&data, 5);
    println!(
        "resumed from {} to accuracy {:.2}%",
        if report.uncorrectable_words > 0 {
            "the clean checkpoint (ECC raised the alarm)"
        } else {
            "the repaired checkpoint"
        },
        out.final_accuracy().unwrap_or(0.0) * 100.0
    );
}
