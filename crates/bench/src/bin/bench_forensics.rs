//! Checkpoint forensics benchmark: sidecar minting, health scans, ECC
//! loads, salvage, and fleet-scan scaling, written to
//! `BENCH_forensics.json` at the repo root.
//!
//! The rows answer the operational questions the forensics suite raises:
//! what does minting parities cost at save time, what does a scan (with
//! and without the full ECC word scrub) cost per checkpoint, how much
//! slower is a [`sefi_hdf5::LoadPolicy::Correct`] load than a plain
//! quarantining one on a clean file, and how does a directory sweep scale
//! across the work-stealing pool. Two determinism checks ride along and
//! fail the run if violated: salvage of the damaged fixture must restore
//! the pristine bytes exactly, and the fleet scan must produce identical
//! per-file verdicts at every worker count.

use rayon::prelude::*;
use sefi_bench::harness::{host_threads, time_ns, write_json, Cli, Gates};
use sefi_bench::layered_checkpoint;
use sefi_hdf5::forensics::{salvage, scan_bytes, ScanReport};
use sefi_hdf5::{Dtype, EccSidecar, FileIndex, H5File, LoadPolicy};
use serde::{Deserialize, Serialize};
use std::time::Duration;

const USAGE: &str = "bench_forensics [--out PATH] [--smoke]";

/// One measured operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Stable identifier, e.g. `scan_clean_ecc`.
    name: String,
    /// Mean wall time per iteration.
    ns_per_iter: f64,
    /// Checkpoint-payload throughput where the whole file is processed.
    mb_per_s: f64,
}

/// One fleet-sweep scaling row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FleetRow {
    /// Worker threads the pool was pinned to.
    workers: usize,
    /// Mean wall time for one sweep of the whole fleet.
    ns_per_sweep: f64,
    /// Speedup over the single-worker sweep.
    speedup_vs_1: f64,
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
    /// Encoded v2 fixture size in bytes.
    v2_bytes: usize,
    /// Serialized sidecar size in bytes.
    sidecar_bytes: usize,
    /// Sidecar size as a fraction of the checkpoint (≈ 1/8 of payload).
    sidecar_overhead: f64,
    /// Checkpoints in the fleet-scan directory.
    fleet_files: usize,
    /// All measured operations.
    entries: Vec<Entry>,
    /// Fleet-sweep scaling rows (1, 2, 4, 8 workers).
    fleet: Vec<FleetRow>,
    /// Correct-policy load time / quarantine load time on a clean file.
    correct_overhead_clean: f64,
}

/// Sorted per-file scan verdicts of one fleet sweep — the value that must
/// be identical at every worker count.
fn fleet_sweep(files: &[(std::path::PathBuf, Vec<u8>)]) -> Vec<(String, bool, usize)> {
    (0..files.len())
        .into_par_iter()
        .map(|i| {
            let (path, bytes) = &files[i];
            let report: ScanReport = scan_bytes(bytes, None);
            (path.display().to_string(), report.is_clean(), report.damaged_sections())
        })
        .collect()
}

fn main() {
    let cli = Cli::from_env(USAGE, "BENCH_forensics.json", &[], &[]);
    let (out, smoke) = (&cli.out, cli.smoke);
    let per_op = if smoke { Duration::from_millis(40) } else { Duration::from_millis(400) };

    // Same fixture scale as bench_ckpt_io: 32 layers × 4096 f32 weights.
    let file = layered_checkpoint(32, 4096, Dtype::F32);
    let v2 = file.to_bytes_v2();
    let sidecar = EccSidecar::protect(&v2).expect("pristine fixture protects");
    let sidecar_ser = sidecar.to_bytes();
    let mb = v2.len() as f64 / 1e6;

    // Damaged twin: one single-bit flip in the middle of every fourth
    // section — all correctable, so salvage must restore pristine bytes.
    let index = FileIndex::parse(&v2).expect("fixture index parses");
    let mut damaged = v2.clone();
    for e in index.entries().iter().step_by(4) {
        damaged[e.offset + e.byte_len / 2] ^= 0x10;
    }

    println!(
        "bench_forensics: v2 {} B, sidecar {} B ({:.1}% overhead) -> {out}",
        v2.len(),
        sidecar_ser.len(),
        100.0 * sidecar_ser.len() as f64 / v2.len() as f64
    );
    let mut entries = Vec::new();
    let mut record = |name: &str, ns: f64, whole_file: bool| {
        let mb_per_s = if whole_file { mb * 1e9 / ns } else { 0.0 };
        println!("  {name:<24} {ns:>12.1} ns/iter");
        entries.push(Entry { name: name.into(), ns_per_iter: ns, mb_per_s });
        ns
    };

    record(
        "protect",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(EccSidecar::protect(std::hint::black_box(&v2)).unwrap());
        }),
        true,
    );
    record(
        "sidecar_decode",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(
                EccSidecar::from_bytes(std::hint::black_box(&sidecar_ser)).unwrap(),
            );
        }),
        false,
    );
    record(
        "scan_clean",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(scan_bytes(std::hint::black_box(&v2), None));
        }),
        true,
    );
    record(
        "scan_clean_ecc",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(scan_bytes(std::hint::black_box(&v2), Some(&sidecar)));
        }),
        true,
    );
    record(
        "scan_damaged_ecc",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(scan_bytes(std::hint::black_box(&damaged), Some(&sidecar)));
        }),
        true,
    );
    let quarantine_clean = record(
        "load_quarantine_clean",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(
                H5File::from_bytes_with_policy(std::hint::black_box(&v2), LoadPolicy::Quarantine)
                    .unwrap(),
            );
        }),
        true,
    );
    let correct_clean = record(
        "load_correct_clean",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(
                H5File::from_bytes_with_ecc(
                    std::hint::black_box(&v2),
                    LoadPolicy::Correct,
                    &sidecar,
                )
                .unwrap(),
            );
        }),
        true,
    );
    record(
        "load_correct_damaged",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(
                H5File::from_bytes_with_ecc(
                    std::hint::black_box(&damaged),
                    LoadPolicy::Correct,
                    &sidecar,
                )
                .unwrap(),
            );
        }),
        true,
    );
    record(
        "salvage_damaged_ecc",
        time_ns(per_op, 3, 100_000, || {
            std::hint::black_box(
                salvage(std::hint::black_box(&damaged), Some(&sidecar), 0).unwrap(),
            );
        }),
        true,
    );

    // Determinism check 1: salvage of the damaged twin restores pristine
    // bytes exactly; all damage is single-bit, so nothing may be lost.
    let mut gates = Gates::default();
    let (salvaged, report) = salvage(&damaged, Some(&sidecar), 0).unwrap();
    gates.check(
        format_args!(
            "salvage restores pristine bytes ({} sections corrected)",
            report.corrected.len()
        ),
        report.zero_filled.is_empty() && salvaged.to_bytes_v2() == v2,
    );

    // Fleet sweep: a directory of checkpoints (every third one damaged)
    // swept through the work-stealing pool at 1/2/4/8 workers.
    let fleet_files = if smoke { 8 } else { 32 };
    let files: Vec<(std::path::PathBuf, Vec<u8>)> = (0..fleet_files)
        .map(|k| {
            let bytes = if k % 3 == 2 { damaged.clone() } else { v2.clone() };
            (std::path::PathBuf::from(format!("fleet/ckpt_{k:03}.sefi5")), bytes)
        })
        .collect();
    let reference = fleet_sweep(&files);
    let mut fleet = Vec::new();
    let mut base_ns = 0.0;
    let mut fleet_identical = true;
    for workers in [1usize, 2, 4, 8] {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let ns = time_ns(per_op, 3, 10_000, || {
            std::hint::black_box(fleet_sweep(std::hint::black_box(&files)));
        });
        // Determinism check 2: identical verdicts at every worker count.
        fleet_identical &= fleet_sweep(&files) == reference;
        if workers == 1 {
            base_ns = ns;
        }
        let speedup = base_ns / ns;
        println!("  fleet_scan_w{workers:<2} {ns:>21.1} ns/sweep ({speedup:.2}x vs 1 worker)");
        fleet.push(FleetRow { workers, ns_per_sweep: ns, speedup_vs_1: speedup });
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    gates.check("fleet verdicts identical across 1/2/4/8 workers", fleet_identical);

    let result = BenchFile {
        schema: 1,
        note: "checkpoint forensics: protect/scan/salvage/ECC-load costs and \
               fleet-scan scaling; regenerate with \
               `cargo run --release -p sefi-bench --bin bench_forensics`"
            .into(),
        host_threads: host_threads(),
        v2_bytes: v2.len(),
        sidecar_bytes: sidecar_ser.len(),
        sidecar_overhead: sidecar_ser.len() as f64 / v2.len() as f64,
        fleet_files,
        entries,
        fleet,
        correct_overhead_clean: correct_clean / quarantine_clean,
    };
    write_json(out, &result);
    println!(
        "  correct-policy overhead on a clean load: {:.2}x vs quarantine",
        result.correct_overhead_clean
    );
    gates.finish();
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_forensics.json"
        ));
    }
}
