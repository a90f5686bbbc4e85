//! Protection-layer benches: the NevGuard scrubber, the SEC-DED word
//! code, and the iterative-solver substrate — the cost of making checkpoints
//! "virtually unbreakable" (paper Section VI-1).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sefi_bench::synthetic_checkpoint;
use sefi_core::{Corrupter, CorrupterConfig, NevGuard};
use sefi_float::Precision;
use sefi_hdf5::hamming::encode;
use sefi_hdf5::Dtype;
use sefi_solver::HeatSolver;
use std::hint::black_box;

const ENTRIES: usize = 100_000;

fn bench_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("nev_guard");
    group.throughput(Throughput::Elements(ENTRIES as u64));
    let clean = synthetic_checkpoint(ENTRIES, Dtype::F64);
    let dirty = {
        let mut f = clean.clone();
        Corrupter::new(CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 1))
            .unwrap()
            .corrupt(&mut f)
            .unwrap();
        f
    };
    group.bench_function("scrub_clean", |b| {
        b.iter(|| {
            let mut f = clean.clone();
            black_box(NevGuard::default_repair().scrub(&mut f))
        });
    });
    group.bench_function("scrub_dirty_1000_flips", |b| {
        b.iter(|| {
            let mut f = dirty.clone();
            black_box(NevGuard::default_repair().scrub(&mut f))
        });
    });
    group.finish();
}

fn bench_hamming(c: &mut Criterion) {
    // Whole-checkpoint protect and repair are timed by bench_forensics
    // (`protect`, `load_correct_clean`, `load_correct_damaged`).
    let mut group = c.benchmark_group("hamming");
    group.bench_function("word_encode", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for w in 0..1000u64 {
                acc ^= encode(black_box(w.wrapping_mul(0x9E3779B97F4A7C15)));
            }
            acc
        });
    });
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("heat_solver");
    group.bench_function("jacobi_sweep_64x64", |b| {
        let mut s = HeatSolver::new(64, 64, [100.0, 0.0, 50.0, 25.0]);
        b.iter(|| black_box(s.step()));
    });
    group.bench_function("checkpoint_64x64", |b| {
        let s = HeatSolver::new(64, 64, [100.0, 0.0, 50.0, 25.0]);
        b.iter(|| black_box(s.checkpoint()));
    });
    group.finish();
}

criterion_group!(benches, bench_guard, bench_hamming, bench_solver);
criterion_main!(benches);
