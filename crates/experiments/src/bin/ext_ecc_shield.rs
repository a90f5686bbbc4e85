//! Extension: SEC-DED ECC on checkpoints vs the paper's error models.
//!
//! Table V studies single bit-flips (the dominant real SDC); Table VI
//! studies multi-bit DRAM masks and closes by motivating "more robust
//! error detection and correction systems". This binary quantifies both
//! against the extended-Hamming(72,64) parity sidecar of the v2 container
//! ([`sefi_hdf5::EccSidecar`]), minted over the pristine checkpoint and
//! applied as if the corrupter's flips had struck the stored file
//! ([`sefi_experiments::ecc::repair_as_stored`]): single flips are always
//! repaired (checkpoint byte-identical to the original), while the
//! paper's 3–6-bit masks defeat correction — even-weight masks are
//! detected-uncorrectable, odd-weight masks alias into miscorrections.
//! `ext_ecc_default.txt` holds the default-budget output.

use sefi_core::{CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection};
use sefi_experiments::{budget_from_args, combo_seed, ecc, table::TextTable, Prebaked};
use sefi_float::{BitMask, Precision};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::{Dtype, EccSidecar};
use sefi_models::ModelKind;

fn main() {
    let budget = budget_from_args();
    println!("Extension — SEC-DED checkpoint protection (Chainer/AlexNet)");
    println!("budget: {} ({} trials/row)\n", budget.name, budget.trials);
    let pre = Prebaked::new(budget);
    let (fw, model) = (FrameworkKind::Chainer, ModelKind::AlexNet);
    let stored = pre.checkpoint_shared(fw, model, Dtype::F64).to_bytes_v2();
    let sidecar = EccSidecar::protect(&stored).expect("pristine checkpoint protects");
    let trials = budget.trials;

    let mut table = TextTable::new(&[
        "Error model",
        "Trials",
        "Fully repaired",
        "Detected uncorrectable",
        "Miscorrected",
    ]);

    // Row set 1: single bit-flips (1 and 10 per checkpoint).
    for flips in [1u64, 10] {
        let (mut repaired, mut detected, mut miscorrected) = (0, 0, 0);
        for trial in 0..trials {
            let seed = combo_seed(fw, model, "ecc-flip", trial) ^ flips;
            let cfg = CorrupterConfig::bit_flips_full_range(flips, Precision::Fp64, seed);
            let hit = pre.trial(fw, model, Dtype::F64).corrupt(cfg).expect("valid injector config");
            let (bytes, report) =
                ecc::repair_as_stored(&stored, &sidecar, hit.checkpoint()).unwrap();
            if bytes == stored {
                repaired += 1;
            } else if report.uncorrectable_words > 0 {
                detected += 1;
            } else {
                miscorrected += 1;
            }
        }
        table.row(vec![
            format!("{flips} random bit-flip(s)"),
            trials.to_string(),
            repaired.to_string(),
            detected.to_string(),
            miscorrected.to_string(),
        ]);
    }

    // Row set 2: the paper's multi-bit masks, 10 weights each (Table VI).
    for (bits, mask) in sefi_experiments::exp_masks::MASKS {
        let (mut repaired, mut detected, mut miscorrected) = (0, 0, 0);
        for trial in 0..trials {
            let cfg = CorrupterConfig {
                injection_probability: 1.0,
                amount: InjectionAmount::Count(10),
                float_precision: Precision::Fp64,
                mode: CorruptionMode::BitMask(BitMask::parse(mask).unwrap()),
                allow_nan_values: true,
                locations: LocationSelection::AllRandom,
                seed: combo_seed(fw, model, mask, trial),
            };
            let hit = pre.trial(fw, model, Dtype::F64).corrupt(cfg).expect("valid injector config");
            let (bytes, report) =
                ecc::repair_as_stored(&stored, &sidecar, hit.checkpoint()).unwrap();
            if bytes == stored {
                repaired += 1;
            } else if report.uncorrectable_words > 0 {
                detected += 1;
            } else {
                miscorrected += 1;
            }
        }
        table.row(vec![
            format!("mask {mask} ({bits} bits) x10"),
            trials.to_string(),
            repaired.to_string(),
            detected.to_string(),
            miscorrected.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!(
        "single flips repaired exactly; multi-bit masks defeat SEC-DED — the paper's\n\
         motivation for stronger codes (its refs [44]-[46]) reproduced."
    );
}
