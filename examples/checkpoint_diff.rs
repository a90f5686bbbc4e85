//! Checkpoint differencing — how Figure 6's propagation analysis works.
//!
//! Train a model twice from the same checkpoint — once clean, once after
//! corruption — and diff the resulting checkpoints to see how far the
//! injected error spread through backpropagation.
//!
//! ```text
//! cargo run --release --example checkpoint_diff
//! ```

use sefi_core::{Corrupter, CorrupterConfig, LocationSelection};
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_float::Precision;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::forensics::{diff, DiffState};
use sefi_hdf5::Dtype;
use sefi_models::{LayerRole, ModelConfig, ModelKind};

fn session() -> Session {
    let mut cfg = SessionConfig::new(FrameworkKind::TensorFlow, ModelKind::AlexNet, 17);
    cfg.model_config = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
    cfg.train.batch_size = 16;
    Session::new(cfg)
}

fn main() {
    let data = SyntheticCifar10::generate(DataConfig {
        train: 240,
        test: 120,
        image_size: 16,
        seed: 15,
        noise: 0.3,
    });

    // Common ancestor: train to epoch 2 and checkpoint.
    let mut s = session();
    s.train_to(&data, 2);
    let ancestor = s.checkpoint(Dtype::F64);

    // Branch A: clean continuation to epoch 4.
    let mut clean = session();
    clean.restore(&ancestor).unwrap();
    clean.train_to(&data, 4);
    let clean_ck = clean.checkpoint(Dtype::F64);

    // Branch B: corrupt the first layer, then continue identically.
    let mut corrupted_ck = ancestor.clone();
    let mut cfg = CorrupterConfig::bit_flips(200, Precision::Fp64, 4);
    cfg.locations = LocationSelection::Listed(session().layer_locations(LayerRole::First));
    Corrupter::new(cfg).unwrap().corrupt(&mut corrupted_ck).unwrap();
    let mut dirty = session();
    dirty.restore(&corrupted_ck).unwrap();
    dirty.train_to(&data, 4);
    let dirty_ck = dirty.checkpoint(Dtype::F64);

    // Diff the two descendants: where did the error propagate?
    let report = diff(&clean_ck, &dirty_ck);
    let entries: usize =
        clean_ck.dataset_paths().iter().map(|p| clean_ck.dataset(p).unwrap().len()).sum();
    // Per changed dataset: differing entries and the largest |diff| (a NaN
    // counts as infinite divergence); the finite non-zero |diff| values feed
    // the five-number summary.
    let mut rows = Vec::new();
    let mut deltas = Vec::new();
    for entry in &report.changed {
        let DiffState::Changed { elements, .. } = entry.state else { continue };
        let (a, b) =
            (clean_ck.dataset(&entry.path).unwrap(), dirty_ck.dataset(&entry.path).unwrap());
        let mut max_abs = 0.0f64;
        for i in 0..a.len() {
            let (x, y) = (a.get_f64(i).unwrap(), b.get_f64(i).unwrap());
            let d = if x.is_nan() || y.is_nan() { f64::INFINITY } else { (x - y).abs() };
            max_abs = max_abs.max(d);
            if d.is_finite() && d > 0.0 {
                deltas.push(d);
            }
        }
        rows.push((entry.path.as_str(), a.len(), elements, max_abs));
    }
    let differing: usize = rows.iter().map(|r| r.2).sum();
    println!(
        "after 2 shared epochs post-injection: {differing} of {entries} values differ ({:.1}%)\n",
        100.0 * differing as f64 / entries as f64
    );
    println!("{:<42} {:>9} {:>10} {:>12}", "dataset", "entries", "differing", "max |diff|");
    for (location, entries, differing, max_abs) in rows.iter().take(12) {
        println!("{location:<42} {entries:>9} {differing:>10} {max_abs:>12.3e}");
    }
    if let Some(fence) = five_number_summary(&deltas) {
        println!(
            "\nnon-zero |diff| five-number summary: min {:.2e}  Q1 {:.2e}  median {:.2e}  Q3 {:.2e}  max {:.2e}",
            fence.0, fence.1, fence.2, fence.3, fence.4
        );
    }
}

/// Local five-number summary (the experiments crate has a richer one; the
/// example stays dependency-light).
fn five_number_summary(xs: &[f64]) -> Option<(f64, f64, f64, f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
    Some((v[0], q(0.25), q(0.5), q(0.75), v[v.len() - 1]))
}
