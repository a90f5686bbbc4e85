//! The shared measurement harness: order statistics, regression bounds,
//! host facts, process CPU and memory counters, and an in-memory span
//! recorder with self-time.

use std::time::Instant;

/// A nearest-rank percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`; `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// The highest nearest-rank percentile, capped at `cap`, that leaves at
/// least `min_beyond` samples beyond it; `None` when there are not that
/// many samples.
pub fn tail_percentile(values: &[f64], cap: f64, min_beyond: usize) -> Option<(f64, Percentile)> {
    let n = values.len();
    if n <= min_beyond {
        return None;
    }
    let p = (100.0 * (n - min_beyond) as f64 / n as f64).min(cap);
    percentile(values, p).map(|pc| (p, pc))
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here agree with
/// the same computation done on the printed values. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some(Quartiles { q1: cut(1), median: median(&data), q3: cut(3) })
}

/// Index of the best of `blocks` by `score`; `None` when there are
/// none. A run is cut into blocks of equal work because co-tenant load on
/// a shared host slows whole seconds at a time, and slowness only ever adds
/// time: the fastest block estimates what the code itself costs, and
/// repeats from run to run far better than the whole run does.
pub fn best_block(score: &[f64], better: Better) -> Option<usize> {
    (0..score.len()).reduce(|a, b| if better.better(score[b], score[a]) { b } else { a })
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// Parse `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when `new` is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }

    /// True if `a` is strictly better than `b`.
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's own spread is wider than the bound, so the comparison
    /// cannot tell a regression from noise.
    Unresolved,
    /// Within the bound, and not a gain.
    Unchanged,
    /// The change wins at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile distance.
    Improved,
}

/// Judge `change` against `parent` for a metric with regression `bound`.
/// `parent[i]` and `change[i]` are run pair `i`. Both need two runs.
pub fn judge(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Option<Verdict> {
    let qp = quartiles(parent)?;
    let qc = quartiles(change)?;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better.better(c, p)));
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better.better(c, p)).count();
    let gain = better.better(qc.median, qp.median)
        && (qc.median - qp.median).abs() > qp.q3 - qp.q1
        && 10 * wins >= 9 * pairs;
    Some(if qp.spread() > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if better.worsening(qp.median, qc.median) > bound {
        Verdict::Regressed
    } else if gain {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

/// Facts about the host and build a measurement was taken on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HostFacts {
    /// Target architecture.
    pub arch: String,
    /// Kernel generation in force (`simd`, `tiled`, `naive`).
    pub kernel_mode: String,
    /// Microkernel ISA the kernels dispatch to.
    pub isa: String,
    /// Kernel-relevant CPU features detected.
    pub cpu_features: String,
    /// `std::thread::available_parallelism`.
    pub threads: u64,
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
}

/// Collect [`HostFacts`] for the process and the checkout at `root`.
pub fn host_facts(root: &std::path::Path) -> HostFacts {
    use sefi_tensor::KernelMode;
    let kernel_mode = match sefi_tensor::kernel_mode() {
        KernelMode::Simd => "simd",
        KernelMode::Tiled => "tiled",
        KernelMode::Naive => "naive",
    };
    let isa = if kernel_mode == "simd" { sefi_tensor::active_isa_name() } else { "scalar" };
    HostFacts {
        arch: std::env::consts::ARCH.to_string(),
        kernel_mode: kernel_mode.to_string(),
        isa: isa.to_string(),
        cpu_features: sefi_tensor::cpu_features().to_string(),
        threads: available_threads() as u64,
        git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Hardware threads the process may use.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Resolve `HEAD` by reading `.git` directly (no subprocess).
fn git_rev(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == refname).then(|| rev.to_string())
    })
}

/// User and system CPU time the process has consumed, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
}

/// Read [`CpuTimes`] from `/proc/self/stat`; zeros where it is missing.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
}

/// Fields 14 and 15 of a `stat` line (`utime`, `stime`), in clock ticks
/// of the fixed 100 Hz user-space tick rate.
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i - 3)?.parse::<f64>().ok().map(|t| t / 100.0);
    Some(CpuTimes { user_s: tick(14)?, sys_s: tick(15)? })
}

/// Peak resident set size (`VmHWM`) in MiB; NaN where it is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// One recorded span: a named interval, the span that caused it, and the
/// trial or request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span within the same log.
    pub parent: Option<usize>,
    /// Trial or request id shared by every span of one unit of work.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread's unit of work. Spans nest
/// by an explicit stack: [`SpanLog::open`] pushes, [`SpanLog::close`]
/// pops. Logs are merged with [`SpanLog::absorb`] and written out once the
/// run ends, so recording costs two clock reads and a push.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog { origin, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &str, id: u64) {
        let start_ns = self.now_ns();
        self.push(name, id, start_ns, start_ns);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = end;
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, id);
        let r = f();
        self.close();
        r
    }

    /// Record an already-measured interval (as instants) under the
    /// innermost open span.
    pub fn record(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (s, e) = (ns(start), ns(end));
        self.push(name, id, s, e);
        self.stack.pop();
    }

    fn push(&mut self, name: &str, id: u64, start_ns: u64, end_ns: u64) {
        let parent = self.stack.last().copied();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, id });
        self.stack.push(self.spans.len() - 1);
    }

    /// Move every span of `other` into this log, re-basing parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        assert!(other.stack.is_empty(), "absorbing a log with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reports_its_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 99.0).unwrap();
        assert_eq!(p, Percentile { value: 99.0, samples: 100, beyond: 1 });
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 100.0).unwrap().beyond, 0);
        assert_eq!(percentile(&[7.0], 1.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        let (p, pc) = tail_percentile(&v, 99.0, 10).unwrap();
        assert_eq!(pc.beyond, 10);
        assert_eq!(pc.value, 38.0);
        assert!((p - 100.0 * 38.0 / 48.0).abs() < 1e-12);
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        let (p, pc) = tail_percentile(&big, 99.0, 10).unwrap();
        assert_eq!((p, pc.value, pc.beyond), (99.0, 4950.0, 50));
        assert!(tail_percentile(&v[..10], 99.0, 10).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn best_block_follows_direction_and_keeps_the_first_tie() {
        let walls = [5.0, 1.0, 4.0, 1.0, 9.0];
        assert_eq!(best_block(&walls, Better::Lower), Some(1));
        assert_eq!(best_block(&walls, Better::Higher), Some(4));
        assert_eq!(best_block(&[7.0], Better::Lower), Some(0));
        assert_eq!(best_block(&[], Better::Lower), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
        assert!(Better::Lower.better(1.0, 2.0) && Better::Higher.better(2.0, 1.0));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }

    #[test]
    fn judge_applies_bound_spread_and_pair_rules() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        let same: Vec<f64> = parent.iter().map(|v| v + 0.05).collect();
        assert_eq!(judge(Better::Lower, 0.1, &parent, &same), Some(Verdict::Unchanged));
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(Better::Lower, 0.1, &parent, &slower), Some(Verdict::Regressed));
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(Better::Lower, 0.1, &parent, &faster), Some(Verdict::Improved));
        // A faster median that loses too many pairs is not a gain.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(judge(Better::Lower, 0.1, &parent, &mixed), Some(Verdict::Unchanged));
        // A parent noisier than the bound leaves a slower change unresolved.
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0];
        let worse = [160.0, 170.0, 150.0, 165.0, 155.0];
        assert_eq!(judge(Better::Lower, 0.1, &noisy, &worse), Some(Verdict::Unresolved));
        let all_better = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(judge(Better::Lower, 0.1, &noisy, &all_better), Some(Verdict::Improved));
        assert_eq!(judge(Better::Lower, 0.1, &[1.0], &[1.0]), None);
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let stat = "1234 (a b) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0";
        assert_eq!(parse_stat(stat), Some(CpuTimes { user_s: 2.5, sys_s: 0.3 }));
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert!(cpu_times().user_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn span_log_nests_merges_and_computes_self_time() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        log.open("trial", 7);
        log.time("child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let t = Instant::now();
        log.record("measured", 7, t, t + std::time::Duration::from_millis(1));
        log.close();
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[2].duration_ns(), 1_000_000);
        let selfs = log.self_times_ns();
        assert_eq!(
            selfs[0],
            spans[0].duration_ns().saturating_sub(spans[1].duration_ns() + 1_000_000)
        );
        assert_eq!(selfs[1], spans[1].duration_ns());

        let mut merged = SpanLog::new(origin);
        merged.time("other", 1, || ());
        merged.absorb(log);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.to_jsonl().lines().count(), 4);
        assert!(merged.to_jsonl().contains("\"name\":\"measured\""));
    }
}
