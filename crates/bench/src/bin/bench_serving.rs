//! Serving-path benchmark: dynamic batching vs batch=1, worker scaling,
//! guard overhead, and quarantine-reload failover latency.
//!
//! Unlike `bench_kernels` this file is single-run (no before/after): the
//! comparison the ISSUE gates on is *internal* — batch=1 against dynamic
//! batching on the same engine, and guarded against unguarded forwards on
//! the same replica. Results land in `BENCH_serving.json` at the repo
//! root; CI re-runs the binary at `--smoke` length and asserts the
//! batching speedup and guard-overhead tripwires still clear.

use sefi_bench::harness::{host_threads, kernel_facts, paired_min_ns, write_json, Cli, Gates};
use sefi_frameworks::{load_checkpoint, save_checkpoint, FrameworkKind};
use sefi_hdf5::{Dtype, EccSidecar, H5File};
use sefi_models::{build, ModelConfig, ModelKind};
use sefi_rng::DetRng;
use sefi_serve::{
    calibrate_from_clean_bytes, corpus_images, BatchQueue, EngineConfig, ReplicaSpec, Request,
    ServeEngine,
};
use sefi_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "bench_serving [--out PATH] [--smoke] [--assert-speedup FACTOR] \
                     [--assert-guard-overhead PCT]";

const INPUT: usize = 16;
const DYN_BATCH: usize = 32;

/// One worker-count point of the scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkerPoint {
    /// Worker threads (= replicas) serving the queue.
    workers: usize,
    /// Drained requests per second with dynamic batching.
    rps: f64,
    /// Open-loop latency percentiles at half the drained throughput.
    p50_ns: f64,
    /// 99th percentile.
    p99_ns: f64,
    /// 99.9th percentile.
    p999_ns: f64,
}

/// The on-disk result file.
#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    /// File format version.
    schema: u32,
    /// What produced the numbers.
    note: String,
    /// Kernel generation (`simd`/`tiled`/`naive`) of the run.
    kernel_mode: String,
    /// Microkernel ISA dispatched to.
    isa: String,
    /// Kernel-relevant CPU features detected on the host.
    cpu_features: String,
    /// Hardware threads visible during the run.
    host_threads: usize,
    /// Requests per second at 4 workers, `max_batch = 1`.
    batch1_rps_4w: f64,
    /// Requests per second at 4 workers, dynamic batching.
    dynamic_rps_4w: f64,
    /// `dynamic_rps_4w / batch1_rps_4w` — the ISSUE's >= 2x gate.
    batching_speedup_4w: f64,
    /// Guarded-over-unguarded forward cost, percent — the < 5% gate.
    guard_overhead_pct: f64,
    /// Steady-state ns to serve one dynamic batch on a healthy replica.
    clean_batch_ns: f64,
    /// ns to serve the same batch through trip + quarantine reload +
    /// canary + re-serve after an in-memory weight flip.
    reload_failover_ns: f64,
    /// Worker scaling curve.
    workers: Vec<WorkerPoint>,
}

fn engine_config(max_batch: usize) -> EngineConfig {
    EngineConfig {
        fw: FrameworkKind::Chainer,
        model: ModelKind::AlexNet,
        model_config: ModelConfig { scale: 0.05, input_size: INPUT, num_classes: 10 },
        dtype: Dtype::F32,
        max_batch,
        batch_window: Duration::from_micros(200),
        guard_slack: 0.5,
    }
}

struct Fixture {
    clean_bytes: Vec<u8>,
    sidecar: EccSidecar,
    path: PathBuf,
    corpus: Vec<Vec<f32>>,
    batches: Vec<Tensor>,
}

impl Fixture {
    fn mint(corpus_n: usize) -> Fixture {
        let cfg = engine_config(DYN_BATCH);
        let (mut net, _) = build(cfg.model, cfg.model_config, &mut DetRng::new(0xBE4C));
        let clean_bytes = save_checkpoint(cfg.fw, &mut net, 1, cfg.dtype).to_bytes_v2();
        let sidecar = EccSidecar::protect(&clean_bytes).expect("sidecar");
        let dir = std::env::temp_dir().join(format!("sefi-bench-serving-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("replica.h5");
        std::fs::write(&path, &clean_bytes).expect("write replica file");
        let corpus = corpus_images(corpus_n, INPUT, 7);
        let batches = corpus
            .chunks(DYN_BATCH)
            .map(|chunk| {
                let mut data = Vec::new();
                for img in chunk {
                    data.extend_from_slice(img);
                }
                Tensor::from_vec(data, &[chunk.len(), 3, INPUT, INPUT])
            })
            .collect();
        Fixture { clean_bytes, sidecar, path, corpus, batches }
    }

    /// A pool of `replicas` slots, every slot backed by the same clean
    /// file (the bench never corrupts the file, only in-memory weights).
    fn engine(&self, max_batch: usize, replicas: usize) -> Arc<ServeEngine> {
        let cfg = engine_config(max_batch);
        let specs: Vec<ReplicaSpec> = (0..replicas)
            .map(|_| ReplicaSpec { path: self.path.clone(), sidecar: Some(self.sidecar.clone()) })
            .collect();
        let env = Arc::new(
            calibrate_from_clean_bytes(&cfg, &self.clean_bytes, &self.batches)
                .expect("clean bytes calibrate"),
        );
        Arc::new(
            ServeEngine::new(cfg, &specs, env, self.batches[0].clone(), None, "bench")
                .expect("pool loads"),
        )
    }

    fn requests(&self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i as u64,
                tag: 0,
                image: self.corpus[i % self.corpus.len()].clone(),
            })
            .collect()
    }
}

fn spawn_workers(
    engine: &Arc<ServeEngine>,
    queue: &Arc<BatchQueue>,
    workers: usize,
    deliver: impl Fn(sefi_serve::Answer) + Send + Sync + Clone + 'static,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers)
        .map(|w| {
            let engine = Arc::clone(engine);
            let queue = Arc::clone(queue);
            let deliver = deliver.clone();
            std::thread::spawn(move || engine.run_worker(w, &queue, &deliver))
        })
        .collect()
}

/// Saturated drain: pre-fill the queue, close it, and time the workers
/// emptying it. Requests per second of pure service capacity.
fn drain_rps(fixture: &Fixture, max_batch: usize, workers: usize, n: usize) -> f64 {
    let engine = fixture.engine(max_batch, workers);
    let queue = Arc::new(BatchQueue::new());
    let handles = spawn_workers(&engine, &queue, workers, |_| {});
    let reqs = fixture.requests(n);
    let t0 = Instant::now();
    for r in reqs {
        assert!(queue.push(r));
    }
    queue.close();
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(engine.totals().requests, n as u64);
    n as f64 / secs
}

/// Open-loop latency at `rate_hz`: arrivals on a fixed schedule, latency
/// measured against the *scheduled* send time (coordinated-omission
/// safe). Returns sorted per-request latencies in ns.
fn paced_latencies(fixture: &Fixture, workers: usize, n: usize, rate_hz: f64) -> Vec<u64> {
    let engine = fixture.engine(DYN_BATCH, workers);
    let queue = Arc::new(BatchQueue::new());
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let start = Instant::now();
    let handles = {
        let latencies = Arc::clone(&latencies);
        let period = Duration::from_secs_f64(1.0 / rate_hz);
        spawn_workers(&engine, &queue, workers, move |a| {
            let due = start + period * (a.id as u32);
            let lat = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            latencies.lock().unwrap().push(lat);
        })
    };
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    for r in fixture.requests(n) {
        let due = start + period * (r.id as u32);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        assert!(queue.push(r));
    }
    queue.close();
    for h in handles {
        h.join().unwrap();
    }
    let mut out = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    assert_eq!(out.len(), n);
    out.sort_unstable();
    out
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Guarded vs unguarded forward on the same replica weights: the
/// envelope checks' per-batch cost as a percentage.
fn guard_overhead_pct(fixture: &Fixture, iters: usize) -> f64 {
    let cfg = engine_config(DYN_BATCH);
    let file = H5File::from_bytes(&fixture.clean_bytes).expect("clean bytes decode");
    let (mut net, _) = build(cfg.model, cfg.model_config, &mut DetRng::new(0));
    load_checkpoint(cfg.fw, &mut net, &file).expect("clean checkpoint loads");
    let env = net.calibrate_envelopes(&fixture.batches, cfg.guard_slack, "bench", "f32");
    let x = fixture.batches[0].clone();
    for _ in 0..3 {
        std::hint::black_box(net.forward(x.clone(), false));
        net.forward_guarded(x.clone(), &env).expect("clean forward");
    }
    // `net` is borrowed mutably by both sides, one call at a time.
    let net = std::cell::RefCell::new(net);
    let (plain_ns, guarded_ns) = paired_min_ns(
        4,
        (iters / 4).max(5),
        || {
            std::hint::black_box(net.borrow_mut().forward(x.clone(), false));
        },
        || {
            let y = net.borrow_mut().forward_guarded(x.clone(), &env).expect("clean forward");
            std::hint::black_box(y);
        },
    );
    100.0 * (guarded_ns - plain_ns) / plain_ns
}

/// Clean-batch vs trip-reload-reserve latency on a two-replica pool.
fn failover_latency(fixture: &Fixture) -> (f64, f64) {
    let engine = fixture.engine(DYN_BATCH, 2);
    let reqs = fixture.requests(DYN_BATCH);
    engine.serve_with_failover(0, &reqs); // warm both paths
    let t0 = Instant::now();
    engine.serve_with_failover(0, &reqs);
    let clean_ns = t0.elapsed().as_nanos() as f64;
    engine.poison_replica(0);
    let t1 = Instant::now();
    engine.serve_with_failover(0, &reqs);
    let failover_ns = t1.elapsed().as_nanos() as f64;
    let totals = engine.totals();
    assert!(totals.guard_trips >= 1 && totals.reloads >= 1, "poison must trip and reload");
    assert_eq!(engine.healthy(), vec![true, true], "clean file readmits the replica");
    (clean_ns, failover_ns)
}

fn main() {
    let cli = Cli::from_env(
        USAGE,
        "BENCH_serving.json",
        &["--assert-speedup", "--assert-guard-overhead"],
        &[],
    );
    let (out, smoke) = (&cli.out, cli.smoke);
    let assert_speedup: Option<f64> = cli.value("--assert-speedup");
    let assert_guard: Option<f64> = cli.value("--assert-guard-overhead");

    let (drain_n, paced_n, guard_iters) = if smoke { (768, 256, 40) } else { (4096, 1024, 200) };
    let kernels = kernel_facts();
    println!(
        "bench_serving: kernels={} isa={} cpu={} smoke={smoke} -> {out}",
        kernels.mode, kernels.isa, kernels.cpu_features
    );
    let fixture = Fixture::mint(64);

    let batch1 = drain_rps(&fixture, 1, 4, drain_n);
    let dynamic = drain_rps(&fixture, DYN_BATCH, 4, drain_n);
    let speedup = dynamic / batch1;
    println!(
        "  4 workers: batch=1 {batch1:>9.0} req/s, dynamic {dynamic:>9.0} req/s ({speedup:.2}x)"
    );

    let mut points = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let rps = drain_rps(&fixture, DYN_BATCH, workers, drain_n);
        let lat = paced_latencies(&fixture, workers, paced_n, (rps * 0.5).max(50.0));
        let point = WorkerPoint {
            workers,
            rps,
            p50_ns: percentile(&lat, 50.0),
            p99_ns: percentile(&lat, 99.0),
            p999_ns: percentile(&lat, 99.9),
        };
        println!(
            "  {workers} worker(s): {:>9.0} req/s  p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms",
            point.rps,
            point.p50_ns / 1e6,
            point.p99_ns / 1e6,
            point.p999_ns / 1e6
        );
        points.push(point);
    }

    let overhead = guard_overhead_pct(&fixture, guard_iters);
    println!("  guard overhead: {overhead:.2}% per batch");
    let (clean_ns, failover_ns) = failover_latency(&fixture);
    println!(
        "  failover: clean batch {:.2}ms, trip+reload+re-serve {:.2}ms",
        clean_ns / 1e6,
        failover_ns / 1e6
    );

    let file = BenchFile {
        schema: 1,
        note: "serving-path throughput/latency; regenerate with \
               `cargo run --release -p sefi-bench --bin bench_serving`"
            .into(),
        kernel_mode: kernels.mode.to_string(),
        isa: kernels.isa.to_string(),
        cpu_features: kernels.cpu_features.to_string(),
        host_threads: host_threads(),
        batch1_rps_4w: batch1,
        dynamic_rps_4w: dynamic,
        batching_speedup_4w: speedup,
        guard_overhead_pct: overhead,
        clean_batch_ns: clean_ns,
        reload_failover_ns: failover_ns,
        workers: points,
    };
    write_json(out, &file);

    let mut gates = Gates::default();
    if let Some(want) = assert_speedup {
        gates.floor("batching speedup", speedup, want);
    }
    if let Some(want) = assert_guard {
        gates.ceiling("guard overhead (%)", overhead, want);
    }
    gates.finish();
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_file_matches_schema() {
        sefi_bench::harness::assert_schema_roundtrip::<super::BenchFile>(include_str!(
            "../../../../BENCH_serving.json"
        ));
    }
}
