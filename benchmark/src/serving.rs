//! The serving workloads: a guarded two-replica AlexNet pool behind the
//! TCP front end, loaded over loopback by an in-process client.
//!
//! Untraced runs serve through `run_server`. Traced runs serve through a
//! front end re-driven here from the same public parts
//! (`BatchQueue::push`, `next_batch`, `serve_with_failover`,
//! `proto::write_response`), timing each from outside and the queue wait
//! of every request id.
//!
//! A run has three phases on one server, each on a fresh connection:
//!
//! - warm-up: open-loop Poisson arrivals at 2k req/s for 1 s, not
//!   measured;
//! - reference rung: open-loop Poisson arrivals at 4k req/s for 60% of
//!   `--seconds`; every request is timed from the instant it was due;
//! - capacity rung: a closed loop keeping `CAPACITY_WINDOW` requests in
//!   flight for about 40% of `--seconds`; its completion rate is the
//!   pool's capacity.
//!
//! Both rungs are cut into blocks of `BLOCK_REQUESTS`; the headline p50 is
//! the lowest block median and the headline rate the best block's (see
//! `measure::best_block`). Every answer is checked against
//! `serve_deterministic` on a pool loaded from the clean file.

use crate::measure::{self, Better, SpanLog};
use crate::report::{Gates, RunDir, RunRecord};
use crate::Options;
use sefi_frameworks::{engine_to_file_path, save_checkpoint, FrameworkKind};
use sefi_hdf5::{Dtype, EccSidecar};
use sefi_models::{build, ModelConfig, ModelKind};
use sefi_rng::DetRng;
use sefi_serve::proto::{read_request, read_response, write_request, write_response, Response};
use sefi_serve::{
    calibrate_from_clean_bytes, corpus_images, flip_exponent_msb, run_server, Answer, BatchQueue,
    EngineConfig, ReplicaSpec, Request, ServeEngine, ServeTotals, ServerConfig,
};
use sefi_telemetry::digest64;
use sefi_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Workload name.
    pub name: &'static str,
    /// Replica 1's file carries a flipped exponent MSB, and a fault
    /// thread poisons a replica in memory every `POISON_EVERY`.
    pub faults: bool,
}

/// No faults: queue, batching, protocol and forward only.
pub const STEADY: Scenario = Scenario { name: "serve-steady", faults: false };

/// Faults on: guard trips, targeted reloads, canaries and re-serves.
pub const SDC: Scenario = Scenario { name: "serve-sdc", faults: true };

const FW: FrameworkKind = FrameworkKind::Chainer;
const WEIGHTS_SEED: u64 = 0xC0DE_5EED;
const INPUT: usize = 16;
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 32;
const BATCH_WINDOW: Duration = Duration::from_millis(1);
const CORPUS: usize = 64;
const WARMUP_RATE: f64 = 2000.0;
const REFERENCE_RATE: f64 = 4000.0;
/// Requests the capacity rung keeps in flight: two full batches per
/// worker.
const CAPACITY_WINDOW: usize = 4 * MAX_BATCH;
/// Completions per second this host sustains in the capacity rung, used
/// to size it to its share of `--seconds`.
const NOMINAL_CAPACITY: f64 = 20_000.0;
const POISON_EVERY: Duration = Duration::from_millis(20);
/// Requests per block of the reference and capacity rungs (a quarter of a
/// second of the reference rung).
const BLOCK_REQUESTS: usize = 2000;
/// Set-ups per run; `setup_s` is their median. A set-up takes well under
/// a second, so five cost little and steady the median.
const SETUPS: usize = 5;
/// How long a client waits for an answer before counting it missing.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

fn engine_config() -> EngineConfig {
    EngineConfig {
        fw: FW,
        model: ModelKind::AlexNet,
        model_config: ModelConfig { scale: 0.05, input_size: INPUT, num_classes: 10 },
        dtype: Dtype::F32,
        max_batch: MAX_BATCH,
        batch_window: BATCH_WINDOW,
        guard_slack: 0.5,
    }
}

/// The served pool and the inputs it is loaded with.
struct Fixture {
    engine: Arc<ServeEngine>,
    corpus: Vec<Vec<f32>>,
    /// A pool's worth of specs naming the uncorrupted file.
    specs_clean: Vec<ReplicaSpec>,
    env: Arc<sefi_nn::EnvelopeSet>,
    canary: Tensor,
}

impl Fixture {
    /// Mint the checkpoint, protect it, write one file per replica
    /// (replica 1's flipped under faults), calibrate the guards and load
    /// the pool.
    fn mint(sc: &Scenario, seed: u64, dir: &Path) -> Result<Fixture, String> {
        let cfg = engine_config();
        // The served model is fixed; the seed draws only the inputs (the
        // corpus here, the arrival schedule in `drive`).
        let (mut net, _) = build(cfg.model, cfg.model_config, &mut DetRng::new(WEIGHTS_SEED));
        let first_param = net.params_mut()[0].name.clone();
        let clean_bytes = save_checkpoint(FW, &mut net, 1, cfg.dtype).to_bytes_v2();
        let sidecar = EccSidecar::protect(&clean_bytes).map_err(|e| format!("sidecar: {e}"))?;
        let write = |path: &Path, bytes: &[u8]| {
            std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        let mut specs = Vec::with_capacity(REPLICAS);
        for r in 0..REPLICAS {
            let path = dir.join(format!("replica_{r}.h5"));
            let mut bytes = clean_bytes.clone();
            if sc.faults && r == 1 {
                flip_exponent_msb(&mut bytes, &engine_to_file_path(FW, &first_param))?;
            }
            write(&path, &bytes)?;
            specs.push(ReplicaSpec { path, sidecar: Some(sidecar.clone()) });
        }
        let clean = dir.join("clean.h5");
        write(&clean, &clean_bytes)?;

        let corpus = corpus_images(CORPUS, INPUT, DetRng::new(seed).substream("corpus").next_u64());
        let batches: Vec<Tensor> = corpus.chunks(MAX_BATCH).map(stack).collect();
        let env = Arc::new(calibrate_from_clean_bytes(&cfg, &clean_bytes, &batches)?);
        let canary = batches[0].clone();
        let engine = Arc::new(ServeEngine::new(
            cfg,
            &specs,
            Arc::clone(&env),
            canary.clone(),
            None,
            "benchmark",
        )?);
        let specs_clean =
            (0..REPLICAS).map(|_| ReplicaSpec { path: clean.clone(), sidecar: None }).collect();
        Ok(Fixture { engine, corpus, specs_clean, env, canary })
    }

    /// The class of every corpus image from `serve_deterministic` on a
    /// pool loaded from the clean file.
    fn reference(&self) -> Result<Vec<u32>, String> {
        let pool = ServeEngine::new(
            engine_config(),
            &self.specs_clean,
            Arc::clone(&self.env),
            self.canary.clone(),
            None,
            "reference",
        )?;
        let requests: Vec<Request> = self
            .corpus
            .iter()
            .enumerate()
            .map(|(i, img)| Request { id: i as u64, tag: 0, image: img.clone() })
            .collect();
        let mut answers = pool.serve_deterministic(&requests, MAX_BATCH);
        answers.sort_by_key(|a| a.id);
        Ok(answers.into_iter().map(|a| a.class).collect())
    }
}

fn stack(images: &[Vec<f32>]) -> Tensor {
    let data: Vec<f32> = images.iter().flatten().copied().collect();
    Tensor::from_vec(data, &[images.len(), 3, INPUT, INPUT])
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Poisson arrivals at a mean rate, on a schedule fixed in advance.
    Open { rate: f64 },
    /// A new request as soon as fewer than `window` are in flight.
    Closed { window: usize },
}

#[derive(Debug, Clone, Copy)]
struct Phase {
    name: &'static str,
    load: Load,
    /// First request id; ids are unique across the run.
    base: u64,
    requests: usize,
}

/// What the client saw in one phase.
#[derive(Debug, Default)]
struct PhaseResult {
    /// Latency from due instant to answer, ms; +inf for a missing or
    /// wrong answer. Indexed by request.
    latency_ms: Vec<f64>,
    /// How late each request went out, ms (open loop only).
    late_ms: Vec<f64>,
    /// `(id, class)` of every distinct answer.
    answers: Vec<(u64, u32)>,
    /// When each correct answer arrived, in arrival order.
    completions: Vec<Instant>,
    /// When the first request was due.
    start: Option<Instant>,
    missing: usize,
    wrong: usize,
    duplicates: usize,
}

impl PhaseResult {
    fn failed(&self) -> usize {
        self.missing + self.wrong + self.duplicates
    }
}

/// Warm-up, reference rung (60% of `--seconds`) and capacity rung (sized
/// for the remaining 40%), with ids numbered across the run.
fn phases(opts: &Options) -> Vec<Phase> {
    let (warm_s, reference_s, capacity_n) = if opts.smoke {
        (0.1, 0.3, 2_000)
    } else {
        (1.0, 0.6 * opts.seconds, (0.4 * opts.seconds * NOMINAL_CAPACITY) as usize)
    };
    let spec = [
        ("warmup", Load::Open { rate: WARMUP_RATE }, (warm_s * WARMUP_RATE) as usize),
        ("reference", Load::Open { rate: REFERENCE_RATE }, (reference_s * REFERENCE_RATE) as usize),
        ("capacity", Load::Closed { window: CAPACITY_WINDOW }, capacity_n),
    ];
    let mut base = 0u64;
    spec.iter()
        .map(|&(name, load, requests)| {
            let p = Phase { name, load, base, requests };
            base += requests as u64;
            p
        })
        .collect()
}

/// Drive one phase over a fresh connection.
fn drive(
    addr: SocketAddr,
    phase: &Phase,
    seed: u64,
    corpus: &[Vec<f32>],
    reference: &[u32],
) -> Result<PhaseResult, String> {
    let io = |e: io::Error| format!("{} phase: {e}", phase.name);
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(ANSWER_TIMEOUT)).map_err(io)?;
    let mut reader = io::BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream.try_clone().map_err(io)?;
    let n = phase.requests;
    let schedule: Vec<Duration> = match phase.load {
        Load::Open { rate } => {
            let mut rng = DetRng::new(seed).substream(&format!("arrivals-{}", phase.name));
            let mut t = 0.0f64;
            (0..n)
                .map(|_| {
                    t += -rng.uniform().max(f64::MIN_POSITIVE).ln() / rate;
                    Duration::from_secs_f64(t)
                })
                .collect()
        }
        Load::Closed { .. } => Vec::new(),
    };
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let closed = matches!(phase.load, Load::Closed { .. });

    let (received, due, late, send_error) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut got: Vec<(Instant, Response)> = Vec::with_capacity(n);
            while got.len() < n {
                match read_response(&mut reader) {
                    Ok(Some(r)) => {
                        got.push((Instant::now(), r));
                        if closed {
                            let _ = token_tx.send(());
                        }
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            got
        });
        let mut due = Vec::with_capacity(n);
        let mut late = Vec::with_capacity(if closed { 0 } else { n });
        let t0 = Instant::now();
        let mut send_error = None;
        let mut frames = Vec::new();
        let mut credit = match phase.load {
            Load::Closed { window } => window,
            Load::Open { .. } => 0,
        };
        let mut i = 0;
        while i < n {
            // How many requests go out in this write, and when they were due.
            let (count, at) = match phase.load {
                Load::Open { .. } => {
                    let at = t0 + schedule[i];
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    (1, at)
                }
                Load::Closed { .. } => {
                    if credit == 0 {
                        if token_rx.recv_timeout(ANSWER_TIMEOUT).is_err() {
                            send_error = Some("no answer within the timeout".to_string());
                            break;
                        }
                        credit = 1;
                    }
                    // Every answer that arrived meanwhile admits one more.
                    credit += token_rx.try_iter().count();
                    (credit.min(n - i), Instant::now())
                }
            };
            frames.clear();
            for id in phase.base + i as u64..phase.base + (i + count) as u64 {
                write_request(&mut frames, id, &corpus[id as usize % corpus.len()])
                    .expect("writing into memory cannot fail");
            }
            if let Err(e) = writer.write_all(&frames) {
                send_error = Some(e.to_string());
                break;
            }
            if !closed {
                late.push(at.elapsed().as_secs_f64() * 1e3);
            }
            due.extend(std::iter::repeat_n(at, count));
            credit = credit.saturating_sub(count);
            i += count;
        }
        // Half-close: the server sees EOF once it has read everything and
        // keeps answering on the other half.
        let _ = stream.shutdown(Shutdown::Write);
        if send_error.is_some() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        (receiver.join().expect("receiver does not panic"), due, late, send_error)
    });
    if let Some(e) = send_error {
        // The server still waits for the unsent requests; the caller
        // returns this error without joining it.
        return Err(format!("{} phase: sending: {e}", phase.name));
    }

    let mut out =
        PhaseResult { latency_ms: vec![f64::INFINITY; n], late_ms: late, ..PhaseResult::default() };
    let mut seen = vec![false; n];
    out.start = due.first().copied();
    for (at, r) in received {
        let Some(i) = r.id.checked_sub(phase.base).map(|i| i as usize).filter(|&i| i < due.len())
        else {
            out.wrong += 1;
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            out.duplicates += 1;
            continue;
        }
        out.answers.push((r.id, r.class));
        if r.class == reference[r.id as usize % reference.len()] {
            out.latency_ms[i] = at.saturating_duration_since(due[i]).as_secs_f64() * 1e3;
            out.completions.push(at);
        } else {
            out.wrong += 1;
        }
    }
    out.missing = seen.iter().filter(|s| !**s).count();
    Ok(out)
}

/// Poisons a replica every `POISON_EVERY`, alternating, until `stop`
/// disconnects; returns how long each call waited for its slot, in ms.
fn fault_loop(engine: &ServeEngine, stop: mpsc::Receiver<()>) -> Vec<f64> {
    let mut waits = Vec::new();
    let mut k = 0usize;
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(POISON_EVERY) {
        let t = Instant::now();
        engine.poison_replica(k % engine.replicas());
        waits.push(t.elapsed().as_secs_f64() * 1e3);
        k += 1;
    }
    waits
}

/// The front end `run_server` implements, re-driven from its public
/// parts with every boundary timed. Serves `limit` requests, then
/// returns what it recorded.
struct TracedServer {
    log: SpanLog,
    /// `(request id, enqueued)`.
    pushed: Vec<(u64, Instant)>,
    /// `(request id, drained into a batch)`.
    drained: Vec<(u64, Instant)>,
    batches: Vec<BatchRecord>,
}

#[derive(Debug, Clone, Copy)]
struct BatchRecord {
    first_id: u64,
    size: usize,
    serve_ms: f64,
    reserved: bool,
}

fn traced_server(
    engine: &ServeEngine,
    listener: TcpListener,
    workers: usize,
    limit: u64,
    origin: Instant,
) -> Result<TracedServer, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let queue = BatchQueue::new();
    let writers: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    let stop = AtomicBool::new(false);
    let received = AtomicU64::new(0);
    let out = Mutex::new(TracedServer {
        log: SpanLog::new(origin),
        pushed: Vec::new(),
        drained: Vec::new(),
        batches: Vec::new(),
    });
    // As `run_server` delivers: one lock and one frame per answer.
    let deliver = |a: &Answer| {
        let flags = if a.reserved { sefi_serve::proto::FLAG_RESERVED } else { 0 };
        let resp = Response { id: a.id, class: a.class, flags };
        let mut w = writers.lock().expect("no writer panics holding the map");
        if let Some(stream) = w.get_mut(&a.tag) {
            if write_response(stream, resp).is_err() {
                w.remove(&a.tag);
            }
        }
    };
    std::thread::scope(|s| -> Result<(), String> {
        for w in 0..workers {
            let (queue, out, deliver) = (&queue, &out, &deliver);
            s.spawn(move || {
                let home = w % engine.replicas();
                let mut log = SpanLog::new(origin);
                let mut drained = Vec::new();
                let mut batches = Vec::new();
                while let Some(batch) = queue.next_batch(MAX_BATCH, BATCH_WINDOW) {
                    let got = Instant::now();
                    drained.extend(batch.iter().map(|r| (r.id, got)));
                    let id = batch[0].id;
                    log.open("batch", id);
                    let t = Instant::now();
                    let answers = log.time("serve_with_failover", id, || {
                        engine.serve_with_failover(home, &batch)
                    });
                    let serve_ms = t.elapsed().as_secs_f64() * 1e3;
                    log.time("write_response", id, || answers.iter().for_each(deliver));
                    log.close();
                    let reserved = answers.iter().any(|a| a.reserved);
                    batches.push(BatchRecord {
                        first_id: id,
                        size: batch.len(),
                        serve_ms,
                        reserved,
                    });
                }
                let mut o = out.lock().expect("no worker panics holding the record");
                o.log.absorb(log);
                o.drained.extend(drained);
                o.batches.extend(batches);
            });
        }
        let mut next_conn = 0u64;
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                    let tag = next_conn;
                    next_conn += 1;
                    let clone = stream.try_clone().map_err(|e| e.to_string())?;
                    writers.lock().expect("no writer panics holding the map").insert(tag, clone);
                    let (queue, out, stop, received) = (&queue, &out, &stop, &received);
                    s.spawn(move || {
                        let mut stream = stream;
                        let mut pushed = Vec::new();
                        while let Ok(Some((id, image))) = read_request(&mut stream) {
                            let at = Instant::now();
                            if !queue.push(Request { id, tag, image }) {
                                break;
                            }
                            pushed.push((id, at));
                            if received.fetch_add(1, Ordering::SeqCst) + 1 == limit {
                                queue.close();
                                stop.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                        out.lock()
                            .expect("no reader panics holding the record")
                            .pushed
                            .extend(pushed);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    queue.close();
                    return Err(format!("accept: {e}"));
                }
            }
        }
        Ok(())
    })?;
    Ok(out.into_inner().expect("every thread joined"))
}

type Served = Result<(ServeTotals, Option<TracedServer>), String>;

/// Start serving `limit` requests on an ephemeral port published through
/// `port_file`: through `run_server`, or traced. The server returns once
/// `limit` requests have arrived; a client that fails first returns its
/// error without joining it, and the server ends with the process.
fn spawn_server(
    engine: &Arc<ServeEngine>,
    traced: bool,
    limit: u64,
    port_file: PathBuf,
    origin: Instant,
) -> std::thread::JoinHandle<Served> {
    let engine = Arc::clone(engine);
    let workers = measure::available_threads();
    std::thread::spawn(move || {
        if !traced {
            let cfg = ServerConfig {
                workers,
                port: 0,
                port_file: Some(port_file),
                request_limit: Some(limit),
            };
            return run_server(engine, &cfg).map(|t| (t, None));
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        std::fs::write(&port_file, format!("{port}\n")).map_err(|e| format!("port file: {e}"))?;
        let trace = traced_server(&engine, listener, workers, limit, origin)?;
        Ok((engine.totals(), Some(trace)))
    })
}

fn join(server: std::thread::JoinHandle<Served>) -> Served {
    server.join().map_err(|_| "server thread panicked".to_string())?
}

fn wait_for_port(port_file: &Path) -> Result<SocketAddr, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(port) =
            std::fs::read_to_string(port_file).ok().and_then(|s| s.trim().parse::<u16>().ok())
        {
            return Ok(SocketAddr::from(([127, 0, 0, 1], port)));
        }
        if Instant::now() > deadline {
            return Err("server did not publish its port".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn ms_percentile(values: &[f64], p: f64) -> f64 {
    measure::percentile(values, p).map_or(0.0, |pc| pc.value)
}

/// What the client measured over the measured phases, besides the
/// per-phase results.
struct Measured {
    /// Engine counters before the reference rung and after the capacity
    /// rung.
    totals: (ServeTotals, ServeTotals),
    cpu: (measure::CpuTimes, measure::CpuTimes),
    /// The fault thread's waits for a replica slot, ms.
    lock_waits: Vec<f64>,
}

impl Measured {
    /// Guard trips, reloads and re-served requests in the measured phases.
    fn faulted(&self) -> (u64, u64, u64) {
        let (a, b) = self.totals;
        (b.guard_trips - a.guard_trips, b.reloads - a.reloads, b.reserved - a.reserved)
    }
}

/// Run a serving workload in `dir`.
pub fn run(sc: &Scenario, opts: &Options, dir: &RunDir) -> Result<RunRecord, String> {
    let plan = phases(opts);
    let total: u64 = plan.iter().map(|p| p.requests as u64).sum();
    let origin = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut gates = Gates::default();

    // Every set-up mints, loads and binds; all but the last are then
    // closed with a single checked request.
    let mut measured_setup = None;
    for k in 0..SETUPS {
        let sub = dir.fresh(&format!("setup-{k}"))?;
        let last = k + 1 == SETUPS;
        let t0 = Instant::now();
        let fx = Fixture::mint(sc, opts.seed, &sub)?;
        let limit = if last { total } else { 1 };
        let server = spawn_server(&fx.engine, last && opts.trace, limit, sub.join("port"), origin);
        let addr = wait_for_port(&sub.join("port"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if last {
            measured_setup = Some((fx, server, addr));
        } else {
            let one = Phase { name: "setup", load: Load::Open { rate: 1e3 }, base: 0, requests: 1 };
            let answered = drive(addr, &one, opts.seed, &fx.corpus, &fx.reference()?)?;
            join(server)?;
            gates.check(answered.failed() == 0, || format!("set-up {k}: its request failed"));
        }
    }
    let (fx, server, addr) = measured_setup.expect("the last set-up is kept");
    let engine = &fx.engine;
    let reference_classes = fx.reference()?;

    let mut results = Vec::with_capacity(plan.len());
    let mut before = (engine.totals(), measure::cpu_times());
    let mut lock_waits = Vec::new();
    for phase in &plan {
        if phase.name == "reference" {
            before = (engine.totals(), measure::cpu_times());
        }
        let faults = sc.faults && phase.name != "warmup";
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let result = std::thread::scope(|f| {
            let fault = faults.then(|| f.spawn(|| fault_loop(engine, stop_rx)));
            let r = drive(addr, phase, opts.seed, &fx.corpus, &reference_classes);
            drop(stop_tx);
            if let Some(h) = fault {
                lock_waits.extend(h.join().expect("fault thread does not panic"));
            }
            r
        })?;
        results.push(result);
    }
    let measured = Measured {
        totals: (before.0, engine.totals()),
        cpu: (before.1, measure::cpu_times()),
        lock_waits,
    };
    let (totals, trace) = join(server)?;

    let failed: usize = results.iter().map(PhaseResult::failed).sum();
    gates.check(failed == 0, || format!("{failed} requests missing, duplicated or wrong"));
    gates.check(totals.requests == total, || format!("served {} of {total}", totals.requests));
    gates.check(engine.healthy().iter().all(|&h| h), || "a replica ended dead".into());
    let faulted = measured.faulted();
    if sc.faults {
        gates.check(faulted.0 > 0 && faulted.1 > 0 && faulted.2 > 0, || {
            format!("faults left no trace: trips, reloads, re-served {faulted:?}")
        });
    } else {
        gates.check(totals.guard_trips + totals.reloads + totals.reserved == 0, || {
            format!("the fault-free pool tripped: {totals:?}")
        });
    }

    let (reference, capacity) = (&results[1], &results[2]);
    let late = ms_percentile(&reference.late_ms, 99.0);
    if late > 2.0 {
        gates.note(format!("INVALID: generator p99 lateness {late:.3} ms exceeds 2 ms"));
    }
    let cap_start = capacity.start.ok_or("empty capacity rung")?;
    let cap_s =
        capacity.completions.last().map_or(0.0, |t| t.duration_since(cap_start).as_secs_f64());
    gates.note(format!(
        "over whole rungs: reference p50 {:.3} ms of {} requests; capacity {:.0}/s over {}; \
         generator p99 lateness {late:.3} ms",
        ms_percentile(&reference.latency_ms, 50.0),
        reference.latency_ms.len(),
        capacity.completions.len() as f64 / cap_s,
        capacity.completions.len(),
    ));
    let metrics = match trace {
        Some(tr) => {
            if let Some(path) = &opts.spans {
                std::fs::write(path, tr.log.to_jsonl())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            if let Some(p99) = measure::percentile(&reference.latency_ms, 99.0) {
                gates.note(format!(
                    "serve.req_p99_ms: of {} requests, {} beyond",
                    p99.samples, p99.beyond
                ));
            }
            traced_metrics(&tr, &plan, reference, &measured)
        }
        None => {
            let block = if opts.smoke { BLOCK_REQUESTS / 8 } else { BLOCK_REQUESTS };
            headline_metrics(reference, capacity, cap_start, block, &setup_s, &mut gates)?
        }
    };

    let mut answers: Vec<(u64, u32)> =
        results.iter().flat_map(|r| r.answers.iter().copied()).collect();
    answers.sort_unstable();
    let text: String = answers.iter().map(|(id, class)| format!("{id} {class}\n")).collect();
    let (correct, notes) = gates.finish();
    Ok(RunRecord {
        workload: sc.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        correct,
        attempted: total,
        failed: failed as u64,
        digest: digest64(&text),
        metrics,
        notes,
        host: measure::host_facts(&opts.root),
    })
}

/// The end-to-end metrics: p50 of the reference block with the lowest
/// median, and the capacity block with the best completion rate.
fn headline_metrics(
    reference: &PhaseResult,
    capacity: &PhaseResult,
    cap_start: Instant,
    block: usize,
    setup_s: &[f64],
    gates: &mut Gates,
) -> Result<BTreeMap<String, f64>, String> {
    let chunks: Vec<&[f64]> = reference.latency_ms.chunks(block).collect();
    let medians: Vec<f64> = chunks.iter().map(|c| measure::median(c)).collect();
    let best = measure::best_block(&medians, Better::Lower).ok_or("empty reference rung")?;
    let ends: Vec<Instant> =
        capacity.completions.chunks_exact(block).map(|c| c[block - 1]).collect();
    let rates: Vec<f64> = ends
        .iter()
        .enumerate()
        .map(|(b, end)| {
            let from = if b == 0 { cap_start } else { ends[b - 1] };
            block as f64 / end.duration_since(from).as_secs_f64()
        })
        .collect();
    let fastest = measure::best_block(&rates, Better::Higher).ok_or("empty capacity rung")?;
    gates.note(format!(
        "setup_s: median of {SETUPS} set-ups {setup_s:.4?}; p50_ms: lowest median of {} blocks of \
         {block} requests at {REFERENCE_RATE} req/s, timed from their due instant; \
         throughput_per_s: best of {} blocks of {block} completions with {CAPACITY_WINDOW} in flight",
        chunks.len(),
        rates.len(),
    ));
    Ok(BTreeMap::from([
        ("setup_s".to_string(), measure::median(setup_s)),
        ("throughput_per_s".to_string(), rates[fastest]),
        ("p50_ms".to_string(), medians[best]),
        ("peak_rss_mb".to_string(), measure::peak_rss_mb()),
    ]))
}

/// The per-layer metrics of a traced run: queue waits, batch sizes and
/// batch times of the reference rung; failover, fault and host figures of
/// the measured phases; span coverage.
fn traced_metrics(
    tr: &TracedServer,
    plan: &[Phase],
    reference: &PhaseResult,
    measured: &Measured,
) -> BTreeMap<String, f64> {
    let in_phase = |id: u64, p: &Phase| id >= p.base && id < p.base + p.requests as u64;
    let (ref_phase, cap_phase) = (&plan[1], &plan[2]);
    let pushed: HashMap<u64, Instant> = tr.pushed.iter().copied().collect();
    let waits: Vec<f64> = tr
        .drained
        .iter()
        .filter(|(id, _)| in_phase(*id, ref_phase))
        .filter_map(|(id, at)| Some(at.duration_since(*pushed.get(id)?).as_secs_f64() * 1e3))
        .collect();
    let ref_batches: Vec<&BatchRecord> =
        tr.batches.iter().filter(|b| in_phase(b.first_id, ref_phase)).collect();
    let measured_batches: Vec<&BatchRecord> = tr
        .batches
        .iter()
        .filter(|b| in_phase(b.first_id, ref_phase) || in_phase(b.first_id, cap_phase))
        .collect();
    let failover: Vec<f64> =
        measured_batches.iter().filter(|b| b.reserved).map(|b| b.serve_ms).collect();
    let sizes: Vec<f64> = ref_batches.iter().map(|b| b.size as f64).collect();
    let serve_ms: Vec<f64> = ref_batches.iter().map(|b| b.serve_ms).collect();
    let (trips, reloads, reserved) = measured.faulted();
    let requests = (measured.totals.1.requests - measured.totals.0.requests).max(1);
    let (cpu0, cpu1) = measured.cpu;

    let self_ns = tr.log.self_times_ns();
    let (mut batch_ns, mut uncovered_ns) = (0u64, 0u64);
    for (s, own) in tr.log.spans().iter().zip(&self_ns) {
        if s.parent.is_none() {
            batch_ns += s.duration_ns();
            uncovered_ns += own;
        }
    }
    BTreeMap::from([
        ("serve.queue_wait_p50_ms".to_string(), ms_percentile(&waits, 50.0)),
        ("serve.queue_wait_p99_ms".to_string(), ms_percentile(&waits, 99.0)),
        (
            "serve.batch_size_mean".to_string(),
            sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
        ),
        ("serve.batch_ms_p50".to_string(), ms_percentile(&serve_ms, 50.0)),
        ("serve.batches".to_string(), measured_batches.len() as f64),
        ("serve.failover_ms_p50".to_string(), ms_percentile(&failover, 50.0)),
        ("serve.failover_ms_max".to_string(), failover.iter().copied().fold(0.0, f64::max)),
        ("serve.guard_trips".to_string(), trips as f64),
        ("serve.reloads".to_string(), reloads as f64),
        ("serve.reserved_frac".to_string(), reserved as f64 / requests as f64),
        ("fault.lock_wait_p99_ms".to_string(), ms_percentile(&measured.lock_waits, 99.0)),
        ("gen.late_p99_ms".to_string(), ms_percentile(&reference.late_ms, 99.0)),
        ("serve.req_p99_ms".to_string(), ms_percentile(&reference.latency_ms, 99.0)),
        ("serve.req_p999_ms".to_string(), ms_percentile(&reference.latency_ms, 99.9)),
        ("host.cpu_user_s".to_string(), cpu1.user_s - cpu0.user_s),
        ("host.cpu_sys_s".to_string(), cpu1.sys_s - cpu0.sys_s),
        ("trace.coverage".to_string(), 1.0 - uncovered_ns as f64 / batch_ns.max(1) as f64),
        ("trace.spans".to_string(), tr.log.spans().len() as f64),
    ])
}
