//! Mixed-precision checkpoint footprint benchmark: the v2 container's
//! byte size and load time per storage dtype (f16 / bf16 / f32 / f64 /
//! i8q), written to `BENCH_precision.json` at the repo root.
//!
//! This is the cost side of the equivalent-injection experiment: the
//! `exp_precision` bin measures what each format does to fault outcomes;
//! this bin measures what each format costs on disk and at restore time.
//! The same 64-dataset fixture is encoded once per dtype, so the size
//! column is the format curve (i8q < f16 = bf16 < f32 < f64 plus fixed
//! container overhead) and the decode/load rows track how the element
//! width scales through the full v2 parse and the indexed single-dataset
//! path.

use sefi_bench::harness::{host_threads, time_ns, write_json, Cli, Gates};
use sefi_bench::layered_checkpoint;
use sefi_hdf5::{Dtype, H5File};
use serde::{Deserialize, Serialize};
use std::time::Duration;

const USAGE: &str = "bench_precision [--out PATH] [--smoke] [--assert-size-order]";

/// One storage format's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FormatEntry {
    /// Format label (`f16`, `bf16`, `f32`, `f64`, `i8q`).
    format: String,
    /// Bytes per element in the payload sections.
    element_bytes: usize,
    /// Encoded v2 container size in bytes (index overhead included).
    v2_bytes: usize,
    /// Mean full-decode time from bytes in memory.
    decode_ns_per_iter: f64,
    /// Mean disk-load-plus-full-decode time.
    disk_load_ns_per_iter: f64,
    /// Mean indexed-open-plus-single-dataset time from disk.
    lazy_single_dataset_ns_per_iter: f64,
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
    /// Elements in the fixture checkpoint.
    fixture_elements: usize,
    /// Per-format size/time curve, narrowest format first.
    formats: Vec<FormatEntry>,
}

fn main() {
    let cli = Cli::from_env(USAGE, "BENCH_precision.json", &[], &["--assert-size-order"]);
    let (out, smoke) = (&cli.out, cli.smoke);
    let per_op = if smoke { Duration::from_millis(40) } else { Duration::from_millis(400) };

    const LAYERS: usize = 32;
    const PER_LAYER: usize = 4096;
    let fixture_datasets = LAYERS * 2;
    let fixture_elements = LAYERS * (PER_LAYER + 8);
    let sweep: [(Dtype, &str); 5] = [
        (Dtype::I8Q, "i8q"),
        (Dtype::F16, "f16"),
        (Dtype::BF16, "bf16"),
        (Dtype::F32, "f32"),
        (Dtype::F64, "f64"),
    ];

    let dir = std::env::temp_dir().join(format!("sefi_bench_prec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");

    println!("bench_precision: {fixture_datasets} datasets x {} dtypes -> {out}", sweep.len());
    let mut formats = Vec::new();
    for (dtype, label) in sweep {
        let file = layered_checkpoint(LAYERS, PER_LAYER, dtype);
        let v2 = file.to_bytes_v2();
        let path = dir.join(format!("ckpt_{label}.h5"));
        file.save_v2(&path).expect("write fixture");
        let target = "model/layer17/W";

        let decode = time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(H5File::from_bytes(std::hint::black_box(&v2)).unwrap());
        });
        let disk = time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(H5File::load(std::hint::black_box(&path)).unwrap());
        });
        let lazy = time_ns(per_op, 3, 100_000, || {
            let mut indexed = H5File::open_indexed(std::hint::black_box(&path)).unwrap();
            std::hint::black_box(indexed.dataset(target).unwrap());
        });
        println!(
            "  {label:<5} {:>9} B  decode {decode:>11.1} ns  disk {disk:>11.1} ns  \
             lazy {lazy:>9.1} ns",
            v2.len()
        );
        formats.push(FormatEntry {
            format: label.into(),
            element_bytes: dtype.size(),
            v2_bytes: v2.len(),
            decode_ns_per_iter: decode,
            disk_load_ns_per_iter: disk,
            lazy_single_dataset_ns_per_iter: lazy,
        });
    }

    let _ = std::fs::remove_dir_all(&dir);

    let result = BenchFile {
        schema: 1,
        note: "v2 checkpoint size/load-time per storage dtype; regenerate with \
               `cargo run --release -p sefi-bench --bin bench_precision`"
            .into(),
        host_threads: host_threads(),
        fixture_datasets,
        fixture_elements,
        formats,
    };
    write_json(out, &result);

    let mut gates = Gates::default();
    if cli.switch("--assert-size-order") {
        // The size floor: each format must cost at least element_bytes per
        // element (no silent payload truncation), and the curve must be
        // non-decreasing in element width — a regression in either
        // direction means the encoder dropped sections or stopped packing
        // at the native width.
        for e in &result.formats {
            let floor = fixture_elements * e.element_bytes;
            gates.check(
                format_args!("size floor {:>5}: {} >= {floor}", e.format, e.v2_bytes),
                e.v2_bytes >= floor,
            );
        }
        for pair in result.formats.windows(2) {
            let ordered = pair[0].element_bytes < pair[1].element_bytes
                || pair[0].v2_bytes == pair[1].v2_bytes;
            gates.check(
                format_args!("size order {} <= {}", pair[0].format, pair[1].format),
                pair[0].v2_bytes <= pair[1].v2_bytes && ordered,
            );
        }
    }
    gates.finish();
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_precision.json"
        ));
    }
}
