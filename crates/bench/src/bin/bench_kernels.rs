//! Standalone kernel-throughput benchmark (no Criterion): the rayon
//! dispatch cost, GEMM, conv2d forward+backward, and full training epochs
//! per model, written to a machine-readable trajectory file at the repo
//! root.
//!
//! Unlike the Criterion benches, this binary is meant to be run twice —
//! once with `--label before` on the previous kernels and once with
//! `--label after` on the current ones — merging both measurements into
//! `BENCH_kernels.json` so the perf trajectory of the hot path survives
//! across PRs. The kernel generation under test is selected by the
//! `SEFI_KERNELS` environment variable (`simd` default, `tiled` forces the
//! scalar blocked driver, `naive` the retained reference kernels). The
//! resolved mode, the microkernel ISA it dispatched to, and the detected
//! CPU features are recorded into the file so every number stays
//! attributable to the hardware and generation that produced it.
//!
//! Usage:
//!   bench_kernels --label before|after [--out PATH] [--smoke]
//!                 [--assert-speedup ENTRY:FACTOR]...

use rayon::prelude::*;
use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_models::{ModelConfig, ModelKind};
use sefi_tensor::{
    active_isa_name, conv2d, conv2d_backward, cpu_features, kernel_mode, matmul, matmul_a_bt,
    matmul_at_b, ConvSpec, KernelMode, Tensor,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

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

    fn save(&self, path: &str) {
        let text = serde_json::to_string_pretty(self).expect("serialize bench file");
        std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Before,
    After,
}

/// Mean ns/iter of `f`, timed until `min_total` has elapsed (at least
/// `min_iters`, at most `max_iters` runs) after one warmup call.
fn time_ns(min_total: Duration, min_iters: u64, max_iters: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in buffers, trigger lazy init
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < max_iters && (iters < min_iters || start.elapsed() < min_total) {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = None;
    let mut out = "BENCH_kernels.json".to_string();
    let mut smoke = false;
    let mut asserts: Vec<(String, f64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                i += 1;
                label = Some(match args[i].as_str() {
                    "before" => Label::Before,
                    "after" => Label::After,
                    other => panic!("--label must be before|after, got {other}"),
                });
            }
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            "--smoke" => smoke = true,
            "--assert-speedup" => {
                i += 1;
                let (name, factor) =
                    args[i].split_once(':').expect("--assert-speedup ENTRY:FACTOR");
                asserts.push((name.to_string(), factor.parse().expect("speedup factor")));
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let label = label.expect("--label before|after is required");

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

    let mode = match kernel_mode() {
        KernelMode::Simd => "simd",
        KernelMode::Tiled => "tiled",
        KernelMode::Naive => "naive",
    };
    let isa = if kernel_mode() == KernelMode::Simd { active_isa_name() } else { "scalar" };
    println!(
        "bench_kernels: label={label:?} kernels={mode} isa={isa} cpu={} smoke={smoke} -> {out}",
        cpu_features()
    );
    let mut file = BenchFile::load_or_new(&out);
    file.schema = 2;
    file.kernel_mode = mode.to_string();
    file.isa = isa.to_string();
    file.cpu_features = cpu_features().to_string();
    file.host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    run_benches(&mut file, label, &budget);
    file.save(&out);

    let mut failed = false;
    for (name, want) in &asserts {
        let got = file
            .entries
            .iter()
            .find(|e| &e.name == name)
            .unwrap_or_else(|| panic!("--assert-speedup: no entry {name}"))
            .speedup;
        let ok = got >= *want;
        println!(
            "  assert {name}: speedup {got:.2} >= {want:.2} ... {}",
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if failed {
        std::process::exit(1);
    }
}
