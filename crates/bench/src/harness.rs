//! The one bench harness every `bench_*` bin runs on: the timers, the
//! command line, the host facts recorded beside every row, the JSON
//! writer, and the gate reporter that turns floors, ceilings and built-in
//! checks into the process exit status.

use sefi_tensor::{active_isa_name, cpu_features, kernel_mode, KernelMode};
use serde::{Content, Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Mean ns per call of `f` after one warmup call, over a loop that runs
/// until `min_total` has elapsed: at least `min_iters` and at most
/// `max_iters` calls.
pub fn time_ns(min_total: Duration, min_iters: u64, max_iters: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in buffers, trigger lazy init
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < max_iters && (iters < min_iters || start.elapsed() < min_total) {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Paired timing of two closures for an in-process ratio: `blocks`
/// rounds, each timing a block of `iters` calls of `a` and then a block
/// of `iters` calls of `b`, so scheduler noise and clock drift hit both
/// sides alike while each block still amortises over many calls. Returns
/// the fastest block of each side as ns per call — preemption only ever
/// adds time. Callers warm both sides up first.
pub fn paired_min_ns(
    blocks: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let block = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos()
    };
    let (mut a_ns, mut b_ns) = (u128::MAX, u128::MAX);
    for _ in 0..blocks {
        a_ns = a_ns.min(block(&mut a));
        b_ns = b_ns.min(block(&mut b));
    }
    (a_ns as f64 / iters as f64, b_ns as f64 / iters as f64)
}

/// Hardware threads visible to this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// What the tensor kernels ran on, recorded beside kernel-bound rows.
pub struct KernelFacts {
    /// Kernel generation: `simd`, `tiled` or `naive`.
    pub mode: &'static str,
    /// Microkernel ISA dispatched to (`scalar` under `tiled`/`naive`).
    pub isa: &'static str,
    /// Kernel-relevant CPU features detected on the host.
    pub cpu_features: &'static str,
}

/// The active kernel generation, its ISA and the host's CPU features.
pub fn kernel_facts() -> KernelFacts {
    let (mode, isa) = match kernel_mode() {
        KernelMode::Simd => ("simd", active_isa_name()),
        KernelMode::Tiled => ("tiled", "scalar"),
        KernelMode::Naive => ("naive", "scalar"),
    };
    KernelFacts { mode, isa, cpu_features: cpu_features() }
}

/// Write `value` to `path` as pretty JSON with a trailing newline.
pub fn write_json(path: &str, value: &impl Serialize) {
    let text = serde_json::to_string_pretty(value).expect("serialize bench file");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Every key path (`a.b[].c`) in a JSON document.
fn key_paths(content: &Content, prefix: &str, out: &mut BTreeSet<String>) {
    match content {
        Content::Map(fields) => {
            for (key, value) in fields {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                out.insert(path.clone());
                key_paths(value, &path, out);
            }
        }
        Content::Seq(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// The schema pin for a committed `BENCH_*.json`: `text` must parse as
/// `T`, and re-serializing it must give the same set of key paths, so a
/// result struct cannot drift from the files already on disk.
pub fn assert_schema_roundtrip<T: Serialize + Deserialize>(text: &str) {
    let parsed: T = serde_json::from_str(text).expect("committed file parses as the result struct");
    let committed: Content = serde_json::from_str(text).expect("committed file is JSON");
    let (mut want, mut got) = (BTreeSet::new(), BTreeSet::new());
    key_paths(&committed, "", &mut want);
    key_paths(&parsed.to_content(), "", &mut got);
    assert_eq!(got, want, "re-serialized keys differ from the committed file");
}

/// A bench bin's command line: `--out PATH`, `--smoke`, and the bin's own
/// flags. Each value flag takes exactly one value and may repeat.
#[derive(Debug)]
pub struct Cli {
    /// Where the bench file is written.
    pub out: String,
    /// Short CI-length run.
    pub smoke: bool,
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parse `args` (without the program name). A missing value or an
    /// unknown flag is a usage error, never a panic.
    fn parse(
        args: impl IntoIterator<Item = String>,
        usage: &'static str,
        default_out: &str,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli { out: default_out.to_string(), smoke: false, usage, given: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                flag if switches.contains(&flag) => cli.given.push((arg, None)),
                flag if flag == "--out" || value_flags.contains(&flag) => {
                    let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    if arg == "--out" {
                        cli.out = value;
                    } else {
                        cli.given.push((arg, Some(value)));
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    /// Parse the process arguments; a usage error prints with the usage
    /// line and exits 2.
    pub fn from_env(
        usage: &'static str,
        default_out: &str,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Cli {
        Cli::parse(std::env::args().skip(1), usage, default_out, value_flags, switches)
            .unwrap_or_else(|e| usage_exit(usage, &e))
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for `flag`, in order, parsed as `T`.
    fn try_values<T: FromStr>(&self, flag: &str) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        self.given
            .iter()
            .filter(|(f, _)| f == flag)
            .filter_map(|(_, v)| v.as_deref())
            .map(|v| v.parse().map_err(|e| format!("{flag} {v}: {e}")))
            .collect()
    }

    /// Every value given for `flag`, in order, parsed as `T`; a value that
    /// does not parse is a usage error (exit 2).
    pub fn values<T: FromStr>(&self, flag: &str) -> Vec<T>
    where
        T::Err: Display,
    {
        self.try_values(flag).unwrap_or_else(|e| self.fail(&e))
    }

    /// The last value given for `flag`, if any.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.values(flag).pop()
    }

    /// Print `msg` with the usage line and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_exit(self.usage, msg)
    }
}

fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: {usage}");
    std::process::exit(2)
}

/// The gate reporter: prints one `assert … ok|FAIL` line per floor,
/// ceiling or built-in check as it is recorded, and fails the run only in
/// [`Gates::finish`], after every gate has printed — one broken gate
/// hides no other.
#[derive(Debug, Default)]
pub struct Gates {
    lines: Vec<String>,
    failed: usize,
}

impl Gates {
    /// Record a pass/fail condition.
    pub fn check(&mut self, what: impl Display, ok: bool) {
        let line = format!("  assert {what} ... {}", if ok { "ok" } else { "FAIL" });
        println!("{line}");
        self.lines.push(line);
        self.failed += usize::from(!ok);
    }

    /// Record `got >= want`.
    pub fn floor(&mut self, what: &str, got: f64, want: f64) {
        self.check(format_args!("{what} {got:.2} >= {want:.2}"), got >= want);
    }

    /// Record `got <= want`.
    pub fn ceiling(&mut self, what: &str, got: f64, want: f64) {
        self.check(format_args!("{what} {got:.2} <= {want:.2}"), got <= want);
    }

    fn passed(&self) -> bool {
        self.failed == 0
    }

    /// Exit 1 if any gate failed.
    pub fn finish(self) {
        if !self.passed() {
            eprintln!("{} of {} gates failed", self.failed, self.lines.len());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "bench_x [--out PATH] [--smoke] [--assert-speedup FACTOR] [--strict]";

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::parse(args, USAGE, "BENCH_x.json", &["--assert-speedup"], &["--strict"])
    }

    #[test]
    fn cli_reads_out_smoke_values_and_switches() {
        let cli = parse(&["--smoke", "--out", "o.json", "--assert-speedup", "1.5", "--strict"])
            .expect("valid command line");
        assert_eq!(cli.out, "o.json");
        assert!(cli.smoke);
        assert!(cli.switch("--strict"));
        assert_eq!(cli.value::<f64>("--assert-speedup"), Some(1.5));

        let cli = parse(&[]).expect("empty command line");
        assert_eq!(cli.out, "BENCH_x.json");
        assert!(!cli.smoke && !cli.switch("--strict"));
        assert_eq!(cli.value::<f64>("--assert-speedup"), None);
    }

    #[test]
    fn cli_keeps_repeated_values_in_order() {
        let cli = parse(&["--assert-speedup", "2", "--assert-speedup", "-1"]).expect("valid");
        assert_eq!(cli.try_values::<f64>("--assert-speedup"), Ok(vec![2.0, -1.0]));
        assert_eq!(cli.value::<f64>("--assert-speedup"), Some(-1.0));
    }

    #[test]
    fn cli_missing_value_is_a_usage_error() {
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out needs a value");
        assert_eq!(
            parse(&["--smoke", "--assert-speedup"]).unwrap_err(),
            "--assert-speedup needs a value"
        );
    }

    #[test]
    fn cli_unknown_flag_is_a_usage_error() {
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown argument --bogus");
        assert_eq!(parse(&["--smoke", "stray"]).unwrap_err(), "unknown argument stray");
    }

    #[test]
    fn cli_unparsable_value_is_a_usage_error() {
        let cli = parse(&["--assert-speedup", "fast"]).expect("parses as text");
        assert!(cli.try_values::<f64>("--assert-speedup").unwrap_err().contains("fast"));
    }

    #[test]
    fn gates_print_every_gate_before_reporting_failure() {
        let mut gates = Gates::default();
        gates.floor("speedup", 1.0, 2.0);
        gates.check("tables identical", true);
        gates.ceiling("overhead", 3.0, 5.0);
        assert!(!gates.passed());
        assert_eq!(
            gates.lines,
            [
                "  assert speedup 1.00 >= 2.00 ... FAIL",
                "  assert tables identical ... ok",
                "  assert overhead 3.00 <= 5.00 ... ok",
            ]
        );
    }

    #[test]
    fn gates_pass_only_when_every_gate_passes() {
        let mut gates = Gates::default();
        assert!(gates.passed());
        gates.floor("speedup", 2.0, 2.0);
        gates.ceiling("overhead", -1.0, 5.0);
        assert!(gates.passed());
        gates.floor("nan reading", f64::NAN, 0.0);
        assert!(!gates.passed());
    }

    #[test]
    fn time_ns_respects_iteration_bounds() {
        let mut calls = 0u64;
        time_ns(Duration::ZERO, 3, 10, || calls += 1);
        assert_eq!(calls, 1 + 3, "one warmup plus the minimum");
        let mut calls = 0u64;
        time_ns(Duration::from_secs(60), 0, 5, || calls += 1);
        assert_eq!(calls, 1 + 5, "one warmup plus the maximum");
    }

    #[test]
    fn paired_timer_alternates_blocks_and_reports_per_call() {
        let order = std::cell::RefCell::new(String::new());
        let (a, b) = paired_min_ns(
            3,
            2,
            || order.borrow_mut().push('a'),
            || {
                order.borrow_mut().push('b');
                std::thread::sleep(Duration::from_millis(1));
            },
        );
        assert_eq!(order.into_inner(), "aabbaabbaabb");
        assert!(b >= 1e6 && a < b, "per-call ns: a {a}, b {b}");
    }

    #[derive(Serialize, Deserialize)]
    struct Row {
        name: String,
        ns: f64,
    }

    #[derive(Serialize, Deserialize)]
    struct File {
        schema: u32,
        rows: Vec<Row>,
    }

    #[test]
    fn schema_roundtrip_accepts_matching_file() {
        assert_schema_roundtrip::<File>(r#"{"schema": 1, "rows": [{"name": "a", "ns": 2.0}]}"#);
    }

    #[test]
    #[should_panic(expected = "re-serialized keys differ")]
    fn schema_roundtrip_rejects_a_key_the_struct_drops() {
        assert_schema_roundtrip::<File>(
            r#"{"schema": 1, "rows": [{"name": "a", "ns": 2.0, "gflops": 1.0}]}"#,
        );
    }
}
