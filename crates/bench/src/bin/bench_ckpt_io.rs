//! Checkpoint container I/O benchmark: v1 (monolithic, whole-payload CRC)
//! vs v2 (sectioned, indexed, per-section CRC), written to
//! `BENCH_ckpt_io.json` at the repo root.
//!
//! The headline measurement is the one the v2 format exists for: loading a
//! *single* dataset. v1 must decode the entire file to reach any value;
//! v2's [`sefi_hdf5::IndexedFile`] reads the 24-byte superblock, the index,
//! and exactly one payload section. Both sides are measured from disk and
//! in memory, alongside full encode/decode throughput so the per-section
//! bookkeeping overhead stays visible.
//!
//! The trial rows time the injector and the loader on the campaign's own
//! checkpoints (Chainer, f64, `default` budget scale): a 1000-flip
//! corruption of ResNet50 under each corruption mode, each iteration on a
//! fresh clone of the pristine file as a trial does (the clone alone is
//! its own row), and per model a restore into a session and the N-EV
//! scan a resumed training runs before its first batch.

use sefi_bench::harness::{host_threads, time_ns, write_json, Cli, Gates};
use sefi_bench::layered_checkpoint;
use sefi_core::{Corrupter, CorrupterConfig, CorruptionMode};
use sefi_experiments::Budget;
use sefi_float::{BitMask, Precision};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dtype, H5File};
use sefi_models::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

const USAGE: &str = "bench_ckpt_io [--out PATH] [--smoke] [--assert-lazy-speedup FACTOR]";

/// One measured operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Stable identifier, e.g. `v2_lazy_single_dataset`.
    name: String,
    /// Mean wall time per iteration.
    ns_per_iter: f64,
    /// Payload throughput where a whole file is processed (0 for the lazy
    /// rows, which deliberately touch only a sliver of it).
    mb_per_s: f64,
}

/// The on-disk result file.
#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    /// File format version.
    schema: u32,
    /// What produced the numbers.
    note: String,
    /// Hardware threads visible during the run.
    host_threads: usize,
    /// Datasets in the fixture checkpoint.
    fixture_datasets: usize,
    /// Encoded v1 size in bytes.
    v1_bytes: usize,
    /// Encoded v2 size in bytes (index overhead included).
    v2_bytes: usize,
    /// All measured operations.
    entries: Vec<Entry>,
    /// v1 full-decode time / v2 lazy single-dataset time (in memory).
    lazy_speedup_vs_v1_full_decode: f64,
    /// v1 disk-load-then-read time / v2 indexed-open-then-read time.
    lazy_speedup_vs_v1_disk_load: f64,
}

fn main() {
    let cli = Cli::from_env(USAGE, "BENCH_ckpt_io.json", &["--assert-lazy-speedup"], &[]);
    let assert_lazy: Option<f64> = cli.value("--assert-lazy-speedup");
    let (out, smoke) = (&cli.out, cli.smoke);
    let per_op = if smoke { Duration::from_millis(40) } else { Duration::from_millis(400) };

    // 32 layers × 4096 f32 weights + biases ≈ 0.5 MiB payload over 64
    // datasets — big enough that full decode dominates, small enough that
    // the page cache keeps disk rows measuring format cost, not the drive.
    let file = layered_checkpoint(32, 4096, Dtype::F32);
    let v1 = file.to_bytes();
    let v2 = file.to_bytes_v2();
    let target = "model/layer17/W";
    let mb = v1.len() as f64 / 1e6;

    let dir = std::env::temp_dir().join(format!("sefi_bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let v1_path = dir.join("ckpt_v1.h5");
    let v2_path = dir.join("ckpt_v2.h5");
    file.save(&v1_path).expect("write v1 fixture");
    file.save_v2(&v2_path).expect("write v2 fixture");

    println!("bench_ckpt_io: {} datasets, v1 {} B, v2 {} B -> {out}", 64, v1.len(), v2.len());
    let mut entries = Vec::new();
    let mut record = |name: &str, ns: f64, whole_file: bool| {
        let mb_per_s = if whole_file { mb * 1e9 / ns } else { 0.0 };
        println!("  {name:<24} {ns:>12.1} ns/iter");
        entries.push(Entry { name: name.into(), ns_per_iter: ns, mb_per_s });
        ns
    };

    record(
        "v1_encode",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(std::hint::black_box(&file).to_bytes());
        }),
        true,
    );
    record(
        "v2_encode",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(std::hint::black_box(&file).to_bytes_v2());
        }),
        true,
    );
    let v1_decode = record(
        "v1_decode_full",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(H5File::from_bytes(std::hint::black_box(&v1)).unwrap());
        }),
        true,
    );
    record(
        "v2_decode_full",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(H5File::from_bytes(std::hint::black_box(&v2)).unwrap());
        }),
        true,
    );
    let v2_lazy = record(
        "v2_lazy_single_dataset",
        time_ns(per_op, 3, 100_000, || {
            let mut indexed = H5File::open_indexed(std::hint::black_box(&v2_path)).unwrap();
            std::hint::black_box(indexed.dataset(target).unwrap());
        }),
        false,
    );
    let v1_disk = record(
        "v1_disk_single_dataset",
        time_ns(per_op, 3, 100_000, || {
            let f = H5File::load(std::hint::black_box(&v1_path)).unwrap();
            std::hint::black_box(f.dataset(target).unwrap().clone());
        }),
        false,
    );

    let _ = std::fs::remove_dir_all(&dir);

    trial_rows(per_op, &mut record);

    let result = BenchFile {
        schema: 1,
        note: "v1 vs v2 checkpoint container I/O, plus a trial's inject, restore and \
               N-EV scan on the default-budget checkpoints; regenerate with \
               `cargo run --release -p sefi-bench --bin bench_ckpt_io`"
            .into(),
        host_threads: host_threads(),
        fixture_datasets: 64,
        v1_bytes: v1.len(),
        v2_bytes: v2.len(),
        entries,
        lazy_speedup_vs_v1_full_decode: v1_decode / v2_lazy,
        lazy_speedup_vs_v1_disk_load: v1_disk / v2_lazy,
    };
    write_json(out, &result);
    println!(
        "  lazy single-dataset speedup: {:.2}x vs v1 full decode, {:.2}x vs v1 disk load",
        result.lazy_speedup_vs_v1_full_decode, result.lazy_speedup_vs_v1_disk_load
    );

    let mut gates = Gates::default();
    if let Some(want) = assert_lazy {
        gates.floor("lazy speedup", result.lazy_speedup_vs_v1_full_decode, want);
    }
    gates.finish();
}

/// A session at the campaign's `default` scale and its pristine f64
/// checkpoint (untrained weights: restore and scan cost the same).
fn default_session(model: ModelKind) -> (Session, H5File) {
    let mut cfg = SessionConfig::new(FrameworkKind::Chainer, model, 7);
    cfg.model_config = Budget::by_name("default").expect("built-in budget").model_config();
    let mut session = Session::new(cfg);
    let file = session.checkpoint(Dtype::F64);
    (session, file)
}

/// The inject, restore and scan rows (see the module docs).
fn trial_rows(per_op: Duration, record: &mut impl FnMut(&str, f64, bool) -> f64) {
    let (_, pristine) = default_session(ModelKind::ResNet50);
    record(
        "checkpoint_clone_resnet50",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(std::hint::black_box(&pristine).clone());
        }),
        false,
    );
    let modes = [
        ("bit_range", CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 11)),
        (
            "bit_mask",
            CorrupterConfig {
                mode: CorruptionMode::BitMask(BitMask::parse("11101101").expect("valid mask")),
                ..CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 11)
            },
        ),
        (
            "scaling_factor",
            CorrupterConfig {
                mode: CorruptionMode::ScalingFactor(4500.0),
                ..CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 11)
            },
        ),
    ];
    for (mode, cfg) in modes {
        let corrupter = Corrupter::new(cfg).expect("valid config");
        record(
            &format!("inject_1000_{mode}_resnet50"),
            time_ns(per_op, 3, 100_000, || {
                let mut file = pristine.clone();
                std::hint::black_box(corrupter.corrupt(&mut file).expect("corrupts"));
            }),
            false,
        );
    }
    for model in [ModelKind::ResNet50, ModelKind::Vgg16, ModelKind::AlexNet] {
        let (mut session, file) = default_session(model);
        record(
            &format!("restore_{}", model.id()),
            time_ns(per_op, 3, 100_000, || session.restore(&file).expect("restores")),
            false,
        );
        record(
            &format!("nev_scan_{}", model.id()),
            time_ns(per_op, 3, 100_000, || {
                std::hint::black_box(session.weights_have_nev());
            }),
            false,
        );
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_ckpt_io.json"
        ));
    }
}
