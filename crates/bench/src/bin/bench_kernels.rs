//! Kernel-throughput benchmark: the rayon dispatch cost, GEMM, conv2d
//! forward+backward, per-layer BN/bottleneck/ReLU training steps, and full
//! training epochs per model, written to a machine-readable trajectory file
//! at the repo root.
//!
//! Unlike the other `bench_*` bins, this one is meant to be run twice —
//! once with `--label before` on the previous kernels and once with
//! `--label after` on the current ones — merging both measurements into
//! `BENCH_kernels.json` so the perf trajectory of the hot path survives
//! across PRs. The kernel generation under test is selected by the
//! `SEFI_KERNELS` environment variable (`simd` default, `tiled` forces the
//! scalar blocked driver, `naive` the retained reference kernels). The
//! resolved mode, the microkernel ISA it dispatched to, and the detected
//! CPU features are recorded into the file so every number stays
//! attributable to the hardware and generation that produced it.

use rayon::prelude::*;
use sefi_bench::harness::{host_threads, kernel_facts, time_ns, write_json, Cli, Gates};
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_models::{ModelConfig, ModelKind};
use sefi_nn::{BatchNorm2d, Conv2d, Layer, ReLU, Residual};
use sefi_rng::DetRng;
use sefi_tensor::{conv2d, conv2d_backward, matmul, matmul_a_bt, matmul_at_b, ConvSpec, Tensor};
use serde::{Deserialize, Serialize};
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "bench_kernels --label before|after [--out PATH] [--smoke] \
                     [--assert-speedup ENTRY:FACTOR]...";

/// One benchmarked operation's before/after record. Zero means "not yet
/// measured" — the serde shim has no field-skipping, so sentinels keep the
/// file format trivial to merge.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Stable entry identifier, e.g. `gemm_256`.
    name: String,
    /// Floating-point operations per iteration (0 for wall-clock-only rows).
    flops_per_iter: f64,
    /// Mean ns/iter measured with `--label before`.
    before_ns_per_iter: f64,
    /// GFLOP/s for the `before` measurement (0 if flops unknown).
    before_gflops: f64,
    /// Mean ns/iter measured with `--label after`.
    after_ns_per_iter: f64,
    /// GFLOP/s for the `after` measurement.
    after_gflops: f64,
    /// `before_ns / after_ns` once both sides exist, else 0.
    speedup: f64,
}

/// The on-disk trajectory file.
#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    /// File format version (2 added the kernel-generation/CPU metadata).
    schema: u32,
    /// What produced the numbers.
    note: String,
    /// Kernel generation (`simd`/`tiled`/`naive`) of the last run.
    kernel_mode: String,
    /// Microkernel ISA the last run dispatched to (`avx512`/`avx2`/
    /// `scalar` under `simd`; always `scalar` under `tiled`/`naive`).
    isa: String,
    /// Kernel-relevant CPU features detected on the last host.
    cpu_features: String,
    /// Hardware threads visible when the last label was written.
    host_threads: usize,
    /// All measured operations.
    entries: Vec<Entry>,
}

impl BenchFile {
    fn load_or_new(path: &str) -> BenchFile {
        match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                panic!("unparseable bench file {path}: {e}");
            }),
            Err(_) => BenchFile {
                schema: 2,
                note: "kernel throughput trajectory; regenerate with \
                       `cargo run --release -p sefi-bench --bin bench_kernels`"
                    .into(),
                kernel_mode: String::new(),
                isa: String::new(),
                cpu_features: String::new(),
                host_threads: 0,
                entries: Vec::new(),
            },
        }
    }

    fn record(&mut self, name: &str, flops: f64, ns: f64, label: Label) {
        let gflops = if flops > 0.0 { flops / ns } else { 0.0 };
        let entry = match self.entries.iter_mut().find(|e| e.name == name) {
            Some(e) => e,
            None => {
                self.entries.push(Entry {
                    name: name.into(),
                    flops_per_iter: flops,
                    before_ns_per_iter: 0.0,
                    before_gflops: 0.0,
                    after_ns_per_iter: 0.0,
                    after_gflops: 0.0,
                    speedup: 0.0,
                });
                self.entries.last_mut().unwrap()
            }
        };
        entry.flops_per_iter = flops;
        match label {
            Label::Before => {
                entry.before_ns_per_iter = ns;
                entry.before_gflops = gflops;
            }
            Label::After => {
                entry.after_ns_per_iter = ns;
                entry.after_gflops = gflops;
            }
        }
        entry.speedup = if entry.before_ns_per_iter > 0.0 && entry.after_ns_per_iter > 0.0 {
            entry.before_ns_per_iter / entry.after_ns_per_iter
        } else {
            0.0
        };
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Before,
    After,
}

impl FromStr for Label {
    type Err = String;

    fn from_str(s: &str) -> Result<Label, String> {
        match s {
            "before" => Ok(Label::Before),
            "after" => Ok(Label::After),
            other => Err(format!("must be before|after, got {other}")),
        }
    }
}

/// One `--assert-speedup ENTRY:FACTOR` floor.
struct SpeedupFloor {
    entry: String,
    factor: f64,
}

impl FromStr for SpeedupFloor {
    type Err = String;

    fn from_str(s: &str) -> Result<SpeedupFloor, String> {
        let (entry, factor) = s.split_once(':').ok_or("expected ENTRY:FACTOR")?;
        let factor = factor.parse().map_err(|e| format!("speedup factor: {e}"))?;
        Ok(SpeedupFloor { entry: entry.to_string(), factor })
    }
}

/// Deterministic pseudo-random tensor (same values in every build).
fn fill(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> =
        (0..n).map(|i| (((i.wrapping_mul(2654435761)) % 2000) as f32 - 1000.0) / 997.0).collect();
    Tensor::from_vec(data, shape)
}

struct Budget {
    gemm_time: Duration,
    conv_time: Duration,
    epoch_min_iters: u64,
    epoch_max_iters: u64,
}

fn data() -> SyntheticCifar10 {
    SyntheticCifar10::generate(DataConfig {
        train: 64,
        test: 32,
        image_size: 16,
        seed: 1,
        noise: 0.25,
    })
}

fn session(model: ModelKind) -> Session {
    let mut cfg = SessionConfig::new(FrameworkKind::Chainer, model, 1);
    cfg.model_config = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
    cfg.train.batch_size = 16;
    Session::new(cfg)
}

fn run_benches(file: &mut BenchFile, label: Label, budget: &Budget) {
    // The fixed cost of one parallel dispatch: a 2-item `par_chunks_mut`
    // on 2 threads whose body is a single add, i.e. what every kernel op
    // above its `PAR_*` threshold pays on top of its work (wall-clock row).
    {
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "2");
        let mut data = [0u64; 2];
        let ns = time_ns(budget.gemm_time, 100, 10_000_000, || {
            std::hint::black_box(&mut data[..])
                .par_chunks_mut(1)
                .for_each(|c| c[0] = c[0].wrapping_add(1));
        });
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        file.record("par_dispatch_2", 0.0, ns, label);
        println!("  par_dispatch_2       {ns:>10.1} ns/iter");
    }

    // Square GEMMs, including the acceptance-gate 256 point.
    for n in [128usize, 256, 512] {
        let a = fill(&[n, n]);
        let b = fill(&[n, n]);
        let flops = 2.0 * (n * n * n) as f64;
        let ns = time_ns(budget.gemm_time, 3, 10_000, || {
            std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
        });
        file.record(&format!("gemm_{n}"), flops, ns, label);
        println!("  gemm_{n:<14} {:>10.1} ns/iter  {:>7.2} GFLOP/s", ns, flops / ns);
    }

    // Ragged shape straddling every blocking boundary (m,n,k not multiples
    // of MR/NR/KC), so packing tails stay on the measured path.
    {
        let (m, k, n) = (201usize, 173usize, 95usize);
        let a = fill(&[m, k]);
        let b = fill(&[k, n]);
        let flops = 2.0 * (m * k * n) as f64;
        let ns = time_ns(budget.gemm_time, 3, 10_000, || {
            std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
        });
        file.record("gemm_ragged_201x173x95", flops, ns, label);
        println!("  gemm_ragged          {ns:>10.1} ns/iter  {:>7.2} GFLOP/s", flops / ns);
    }

    // Transposed variants at the training gradient shapes (Aᵀ·B is the
    // weight-gradient product, A·Bᵀ the dense forward / input-gradient one).
    {
        let n = 256usize;
        let a = fill(&[n, n]);
        let b = fill(&[n, n]);
        let flops = 2.0 * (n * n * n) as f64;
        let ns = time_ns(budget.gemm_time, 3, 10_000, || {
            std::hint::black_box(matmul_at_b(std::hint::black_box(&a), std::hint::black_box(&b)));
        });
        file.record("gemm_at_b_256", flops, ns, label);
        println!("  gemm_at_b_256        {ns:>10.1} ns/iter  {:>7.2} GFLOP/s", flops / ns);
        let ns = time_ns(budget.gemm_time, 3, 10_000, || {
            std::hint::black_box(matmul_a_bt(std::hint::black_box(&a), std::hint::black_box(&b)));
        });
        file.record("gemm_a_bt_256", flops, ns, label);
        println!("  gemm_a_bt_256        {ns:>10.1} ns/iter  {:>7.2} GFLOP/s", flops / ns);
    }

    // A VGG-ish conv layer, forward + backward (the per-step hot path; the
    // backward includes the im2col recompute that the workspace removes).
    {
        let x = fill(&[8, 16, 16, 16]);
        let w = fill(&[32, 16, 3, 3]);
        let bias = fill(&[32]);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let out = conv2d(&x, &w, &bias, spec);
        let dout = fill(out.shape());
        // GEMM flops only (im2col/col2im/permutes ride along as overhead):
        // forward cols·Wᵀ plus backward dW and dX products.
        let rows = (8 * 16 * 16) as f64;
        let row_len = (16 * 3 * 3) as f64;
        let flops = 3.0 * 2.0 * rows * row_len * 32.0;
        let ns = time_ns(budget.conv_time, 3, 10_000, || {
            let y = conv2d(
                std::hint::black_box(&x),
                std::hint::black_box(&w),
                std::hint::black_box(&bias),
                spec,
            );
            std::hint::black_box(y);
            let g = conv2d_backward(
                std::hint::black_box(&x),
                std::hint::black_box(&w),
                std::hint::black_box(&dout),
                spec,
            );
            std::hint::black_box(g);
        });
        file.record("conv_fwd_bwd_8x16x16", flops, ns, label);
        println!("  conv_fwd_bwd         {ns:>10.1} ns/iter  {:>7.2} GFLOP/s", flops / ns);
    }

    // Per-layer training steps at a res2b-shaped activation (batch 8,
    // 16 channels, 16×16): batch norm, a whole identity-shortcut bottleneck
    // with its three BNs, and ReLU. Inputs are Gaussian, so activation signs
    // are as unpredictable as in a network (`fill`'s signs follow a short
    // period a branch predictor learns). Layers consume their input and
    // upstream gradient, so each iteration also pays two clones (wall-clock
    // rows).
    {
        let shape = [8usize, 16, 16, 16];
        let mut rng = DetRng::new(1);
        let mut gaussian = || {
            let mut v = vec![0.0f32; shape.iter().product()];
            rng.fill_normal(&mut v, 0.0, 1.0);
            Tensor::from_vec(v, &shape)
        };
        let (x, dout) = (gaussian(), gaussian());
        let bottleneck = Residual::new(
            "res2b",
            vec![
                Box::new(Conv2d::new("conv1", 16, 4, 1, 1, 0, &mut rng)),
                Box::new(BatchNorm2d::new("bn1", 4)),
                Box::new(ReLU::new("relu1")),
                Box::new(Conv2d::new("conv2", 4, 4, 3, 1, 1, &mut rng)),
                Box::new(BatchNorm2d::new("bn2", 4)),
                Box::new(ReLU::new("relu2")),
                Box::new(Conv2d::new("conv3", 4, 16, 1, 1, 0, &mut rng)),
                Box::new(BatchNorm2d::new("bn3", 16)),
            ],
            vec![],
        );
        let rows: [(&str, Box<dyn Layer>); 3] = [
            ("bn_fwd_bwd_8x16x16x16", Box::new(BatchNorm2d::new("bn", 16))),
            ("bottleneck_fwd_bwd_8x16x16x16", Box::new(bottleneck)),
            ("relu_fwd_bwd_8x16x16x16", Box::new(ReLU::new("relu"))),
        ];
        for (name, mut layer) in rows {
            let ns = time_ns(budget.conv_time, 3, 100_000, || {
                std::hint::black_box(layer.forward(std::hint::black_box(x.clone()), true));
                std::hint::black_box(layer.backward(std::hint::black_box(dout.clone())));
            });
            file.record(name, 0.0, ns, label);
            println!("  {name:<30} {ns:>10.1} ns/iter");
        }
    }

    // Full training epochs, one per model (wall-clock rows: flops = 0).
    let d = data();
    for model in ModelKind::all() {
        let ns =
            time_ns(Duration::from_secs(2), budget.epoch_min_iters, budget.epoch_max_iters, || {
                let mut s = session(model);
                std::hint::black_box(s.train_to(&d, 1));
            });
        file.record(&format!("train_epoch_{}", model.id()), 0.0, ns, label);
        println!("  train_epoch_{:<9} {:>12.0} ns/iter ({:.3} s)", model.id(), ns, ns / 1e9);
    }
}

fn main() {
    let cli = Cli::from_env(USAGE, "BENCH_kernels.json", &["--label", "--assert-speedup"], &[]);
    let (out, smoke) = (&cli.out, cli.smoke);
    let label: Label =
        cli.value("--label").unwrap_or_else(|| cli.fail("--label before|after is required"));
    let floors: Vec<SpeedupFloor> = cli.values("--assert-speedup");

    let budget = if smoke {
        Budget {
            gemm_time: Duration::from_millis(60),
            conv_time: Duration::from_millis(60),
            epoch_min_iters: 1,
            epoch_max_iters: 1,
        }
    } else {
        Budget {
            gemm_time: Duration::from_millis(600),
            conv_time: Duration::from_millis(600),
            epoch_min_iters: 3,
            epoch_max_iters: 8,
        }
    };

    let kernels = kernel_facts();
    println!(
        "bench_kernels: label={label:?} kernels={} isa={} cpu={} smoke={smoke} -> {out}",
        kernels.mode, kernels.isa, kernels.cpu_features
    );
    let mut file = BenchFile::load_or_new(out);
    file.schema = 2;
    file.kernel_mode = kernels.mode.to_string();
    file.isa = kernels.isa.to_string();
    file.cpu_features = kernels.cpu_features.to_string();
    file.host_threads = host_threads();
    run_benches(&mut file, label, &budget);
    write_json(out, &file);

    let mut gates = Gates::default();
    for floor in &floors {
        let got = file
            .entries
            .iter()
            .find(|e| e.name == floor.entry)
            .unwrap_or_else(|| cli.fail(&format!("--assert-speedup: no entry {}", floor.entry)))
            .speedup;
        gates.floor(&format!("{}: speedup", floor.entry), got, floor.factor);
    }
    gates.finish();
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_kernels.json"
        ));
    }
}
