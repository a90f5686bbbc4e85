//! Deterministic open-loop load generator.
//!
//! Arrivals follow a seeded exponential inter-arrival process (a Poisson
//! stream of mean rate `rate_hz`) over a fixed request corpus: request
//! *i* carries image `i % corpus` of a `SyntheticCifar10` test split.
//! Both the schedule and the payloads are pure functions of the seeds, so
//! two runs against servers holding equivalent weights must produce
//! byte-identical answer files — the property the CI smoke exploits to
//! prove failover served *correct* answers, not just *some* answers.
//!
//! Open loop means send times never wait for responses: if the server
//! lags, requests pile up in its batch queue (that is the backpressure
//! being measured), and if the sender itself falls behind schedule it
//! sends immediately rather than rescheduling. Latency is timed from each
//! request's due instant, not from its send, so a sender that falls
//! behind charges the lag to the requests it delayed instead of hiding it.

use crate::proto::{read_response, write_request, Response};
use sefi_data::{DataConfig, Split, SyntheticCifar10};
use sefi_rng::DetRng;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Load-test parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Arrival-process seed.
    pub seed: u64,
    /// Total requests to send.
    pub requests: u64,
    /// Mean arrival rate (requests/second).
    pub rate_hz: f64,
    /// Distinct images in the request corpus.
    pub corpus: usize,
    /// Image edge length (must match the served model's input size).
    pub image_size: usize,
    /// Corpus generation seed (must match the server's calibration set).
    pub data_seed: u64,
    /// Give up on unanswered requests after this long past the last send.
    pub drain_timeout: Duration,
}

/// What came back.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Responses received (deduplicated).
    pub answered: u64,
    /// Request ids that never got an answer.
    pub missing: Vec<u64>,
    /// Responses whose id had already been answered.
    pub duplicates: u64,
    /// Per-request latency (ns) from the due instant, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// `(id, class, flags)` sorted by id.
    pub answers: Vec<(u64, u32, u32)>,
}

impl LoadgenReport {
    /// Nearest-rank latency percentile in nanoseconds.
    pub fn latency_percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.latencies_ns.len() as f64).ceil() as usize;
        self.latencies_ns[rank.clamp(1, self.latencies_ns.len()) - 1]
    }

    /// True when every request was answered exactly once.
    pub fn lossless(&self) -> bool {
        self.missing.is_empty() && self.duplicates == 0
    }

    /// Write `id class` lines sorted by id. Flags are deliberately
    /// excluded: they encode *how* an answer was produced (re-served or
    /// not, which depends on scheduling), while the file exists to be
    /// byte-compared across clean and corrupted runs.
    pub fn write_answers(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut out = String::with_capacity(self.answers.len() * 8);
        for (id, class, _) in &self.answers {
            out.push_str(&format!("{id} {class}\n"));
        }
        std::fs::write(path, out)
    }
}

/// The deterministic request corpus: flattened images of the test split.
pub fn corpus_images(corpus: usize, image_size: usize, data_seed: u64) -> Vec<Vec<f32>> {
    let data = SyntheticCifar10::generate(DataConfig {
        train: 0,
        test: corpus,
        image_size,
        seed: data_seed,
        noise: 0.25,
    });
    (0..corpus).map(|i| data.image(Split::Test, i).to_vec()).collect()
}

/// Run the load test. Blocks until every request is answered or the
/// drain timeout expires.
pub fn run_loadgen(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let images = corpus_images(cfg.corpus, cfg.image_size, cfg.data_seed);
    // The full arrival schedule is fixed before the first byte is sent.
    let mut rng = DetRng::new(cfg.seed).substream("arrivals");
    let mut offsets = Vec::with_capacity(cfg.requests as usize);
    let mut t = 0.0f64;
    for _ in 0..cfg.requests {
        t += -rng.uniform().max(f64::MIN_POSITIVE).ln() / cfg.rate_hz;
        offsets.push(Duration::from_secs_f64(t));
    }

    let stream = TcpStream::connect(&cfg.addr)?;
    let mut reader = stream.try_clone()?;
    let expected = cfg.requests as usize;
    let collector = std::thread::spawn(move || -> io::Result<Vec<(Instant, Response)>> {
        let mut got = Vec::new();
        while got.len() < expected {
            match read_response(&mut reader)? {
                Some(resp) => got.push((Instant::now(), resp)),
                None => break,
            }
        }
        Ok(got)
    });

    let mut writer = stream.try_clone()?;
    let t0 = Instant::now();
    for (i, offset) in offsets.iter().enumerate() {
        let due = t0 + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        write_request(&mut writer, i as u64, &images[i % images.len()])?;
    }
    writer.flush()?;
    // Half-close: the server reader sees EOF once it has consumed
    // everything; responses keep flowing on the other half until the
    // server answers or we give up.
    stream.shutdown(Shutdown::Write).ok();
    let deadline = Instant::now() + cfg.drain_timeout;
    let received = loop {
        if collector.is_finished() {
            break collector.join().expect("collector panicked")?;
        }
        if Instant::now() >= deadline {
            // Abandon the socket entirely; the collector errors out or
            // sees EOF and whatever it gathered is lost to the report's
            // `missing` list — which is the point.
            stream.shutdown(Shutdown::Both).ok();
            break collector.join().expect("collector panicked").unwrap_or_default();
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    let mut answers: HashMap<u64, (u32, u32)> = HashMap::new();
    let mut latencies = Vec::new();
    let mut duplicates = 0u64;
    for (at, resp) in received {
        if answers.insert(resp.id, (resp.class, resp.flags)).is_some() {
            duplicates += 1;
            continue;
        }
        if let Some(ns) = latency_from_due(t0, &offsets, resp.id, at) {
            latencies.push(ns);
        }
    }
    let missing: Vec<u64> = (0..cfg.requests).filter(|id| !answers.contains_key(id)).collect();
    latencies.sort_unstable();
    let mut sorted: Vec<(u64, u32, u32)> =
        answers.into_iter().map(|(id, (class, flags))| (id, class, flags)).collect();
    sorted.sort_unstable();
    Ok(LoadgenReport {
        answered: sorted.len() as u64,
        missing,
        duplicates,
        latencies_ns: latencies,
        answers: sorted,
    })
}

/// Latency of an answer to request `id` that arrived at `at`, timed from
/// the instant the request was due (`t0 + offsets[id]`), not from when it
/// was written: a generator that stalls writes late, and timing from the
/// write would hide the stall from every request it delayed. `None` for
/// an id that was never scheduled.
fn latency_from_due(t0: Instant, offsets: &[Duration], id: u64, at: Instant) -> Option<u64> {
    let offset = offsets.get(usize::try_from(id).ok()?)?;
    Some(at.saturating_duration_since(t0 + *offset).as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_instant() {
        let t0 = Instant::now();
        let offsets = [Duration::ZERO, Duration::from_millis(10)];
        let at = t0 + Duration::from_millis(25);
        // Request 1 was due at +10 ms: however late the generator wrote
        // it, an answer at +25 ms kept it waiting 15 ms.
        assert_eq!(latency_from_due(t0, &offsets, 1, at), Some(15_000_000));
        assert_eq!(latency_from_due(t0, &offsets, 0, at), Some(25_000_000));
        assert_eq!(latency_from_due(t0, &offsets, 2, at), None, "never scheduled");
    }
}
