//! Benchmark support for the `bench_*` bins: the shared [`harness`]
//! (timers, command line, host facts, JSON writer, gate reporter) and the
//! checkpoint fixtures the container benches measure.
//!
//! Each bin writes one `BENCH_*.json` at the repo root:
//! * `bench_kernels` — rayon dispatch, GEMM, conv and per-model epochs;
//! * `bench_ckpt_io` — v1 vs v2 container encode/decode and lazy access;
//! * `bench_precision` — v2 size and load time per storage dtype;
//! * `bench_forensics` — sidecar minting, scans, ECC loads, fleet sweeps;
//! * `bench_campaign` — scheduler pool vs barrier, adaptive stopping,
//!   sharded workers, and the telemetry-overhead bound;
//! * `bench_serving` — batching, worker scaling, guard overhead, failover.

pub mod harness;

use sefi_hdf5::{Dataset, Dtype, H5File};

/// A checkpoint of `layers` conv-style layers of `per_layer` values each
/// (plus a bias per layer), mimicking a real model file where lazy
/// single-dataset access only needs a sliver of the payload.
pub fn layered_checkpoint(layers: usize, per_layer: usize, dtype: Dtype) -> H5File {
    let mut f = H5File::new();
    for l in 0..layers {
        let values: Vec<f32> =
            (0..per_layer).map(|k| (((k + l * 13) as f32) * 0.21).cos()).collect();
        f.create_dataset(
            &format!("model/layer{l}/W"),
            Dataset::from_f32(&values, &[per_layer], dtype).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            &format!("model/layer{l}/b"),
            Dataset::from_f32(&[0.5; 8], &[8], dtype).unwrap(),
        )
        .unwrap();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_fixture_shape() {
        let f = layered_checkpoint(8, 100, Dtype::F32);
        assert_eq!(f.dataset_paths().len(), 16);
        assert_eq!(f.total_entries(), 8 * (100 + 8));
    }
}
