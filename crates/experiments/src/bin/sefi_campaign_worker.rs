//! One worker process of a multi-process adaptive campaign.
//!
//! Launch N copies of this binary with the same `--results-dir` and
//! distinct `--worker-id` tags; they coordinate through lease files and
//! per-worker manifest shards in that directory, with no other IPC. Every
//! worker assembles (and writes) the identical table once all cells stop,
//! so the campaign tolerates any worker dying at any point — including
//! `kill -9` mid-wave — as long as at least one survives or is relaunched.
//!
//! ```text
//! sefi-campaign-worker --experiment fig2 --budget smoke \
//!     --results-dir results/fig2-sharded --worker-id w1 \
//!     --wave 2 --ci-width 0.7 [--max-trials N] \
//!     [--lease-ttl-ms 30000] [--poll-ms 200]
//! ```

use sefi_experiments::{
    exp_bitranges, exp_nev, exp_rwc, Budget, CampaignConfig, Prebaked, ShardWorkerConfig,
    StoppingRule,
};
use std::time::Duration;

struct Args {
    experiment: String,
    budget: Budget,
    results_dir: String,
    worker_id: String,
    wave: Option<usize>,
    ci_width: f64,
    max_trials: Option<usize>,
    lease_ttl: Duration,
    poll: Duration,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut budget = std::env::var("SEFI_BUDGET").ok().filter(|b| !b.is_empty());
    let mut args = Args {
        experiment: String::new(),
        budget: Budget::default_budget(),
        results_dir: "results".to_string(),
        worker_id: String::new(),
        wave: None,
        ci_width: 0.7,
        max_trials: None,
        lease_ttl: Duration::from_millis(30_000),
        poll: Duration::from_millis(200),
    };
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).unwrap_or_else(|| usage(&format!("{} needs a value", argv[*i - 1]))).clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--experiment" => args.experiment = value(&mut i),
            "--results-dir" => args.results_dir = value(&mut i),
            "--worker-id" => args.worker_id = value(&mut i),
            "--wave" => args.wave = Some(parse(&value(&mut i), "--wave")),
            "--ci-width" => args.ci_width = parse(&value(&mut i), "--ci-width"),
            "--max-trials" => args.max_trials = Some(parse(&value(&mut i), "--max-trials")),
            "--lease-ttl-ms" => {
                args.lease_ttl = Duration::from_millis(parse(&value(&mut i), "--lease-ttl-ms"))
            }
            "--poll-ms" => args.poll = Duration::from_millis(parse(&value(&mut i), "--poll-ms")),
            "--budget" => budget = Some(value(&mut i)),
            other => usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if args.worker_id.is_empty() {
        usage("--worker-id is required (it names this worker's manifest shard)");
    }
    let budget = budget.as_deref().map_or(Ok(Budget::default_budget()), Budget::by_name);
    args.budget = budget.unwrap_or_else(|err| usage(&err));
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("cannot parse {flag} value {s:?}")))
}

fn usage(err: &str) -> ! {
    eprintln!("sefi-campaign-worker: {err}");
    eprintln!(
        "usage: sefi-campaign-worker --experiment fig2|nev|rwc --worker-id <tag> \
         [--budget smoke|default|paper] [--results-dir <dir>] [--wave N] \
         [--ci-width X] [--max-trials N] [--lease-ttl-ms N] [--poll-ms N]"
    );
    std::process::exit(2);
}

fn rule_for(args: &Args, budget: &Budget) -> StoppingRule {
    let max_trials = args.max_trials.unwrap_or(match args.experiment.as_str() {
        "fig2" => budget.fig2_trainings,
        _ => budget.trials,
    });
    match args.wave {
        Some(wave) => StoppingRule::new(wave, args.ci_width, max_trials),
        None => StoppingRule::halving(max_trials, args.ci_width),
    }
}

fn main() {
    let args = parse_args();
    let budget = args.budget;
    let rule = rule_for(&args, &budget);
    let shard = ShardWorkerConfig { lease_ttl: args.lease_ttl, poll: args.poll };
    let config = CampaignConfig::new(&format!("{}-adaptive", args.experiment))
        .results_dir(&args.results_dir)
        .shard_id(&args.worker_id);
    let pre = Prebaked::with_campaign(budget, config).expect("results directory is writable");
    eprintln!(
        "worker {}: {} adaptive, wave {} / width {} / cap {}",
        args.worker_id, args.experiment, rule.wave, rule.target_width, rule.max_trials
    );

    let (csv_name, table) = match args.experiment.as_str() {
        "fig2" => {
            let (rows, table) = exp_bitranges::figure2_adaptive_sharded(&pre, rule, &shard)
                .expect("manifest directory is readable");
            println!("{}", table.render());
            println!(
                "collapse occurs only when the range includes exponent MSB (bit 62): {}",
                exp_bitranges::collapse_only_with_critical_bit(&rows)
            );
            ("fig2_adaptive.csv", table)
        }
        // The nev/rwc tables run adaptively in-process (every worker would
        // produce identical bytes, so sharding them is wiring, not new
        // machinery); the worker accepts them for single-process adaptive
        // regeneration.
        "nev" => {
            let (_, table) = exp_nev::table4_adaptive(&pre, rule);
            println!("{}", table.render());
            ("table4_adaptive.csv", table)
        }
        "rwc" => {
            let (_, table) = exp_rwc::table5_adaptive(&pre, rule);
            println!("{}", table.render());
            ("table5_adaptive.csv", table)
        }
        other => usage(&format!("unknown experiment {other:?} (expected fig2, nev, or rwc)")),
    };
    let path = pre.results_file(csv_name).expect("results directory is creatable");
    std::fs::write(&path, table.to_csv()).expect("results CSV is writable");
    println!("wrote {}", path.display());
    if let Some(summary) = pre.finish_campaign() {
        println!("\n--- campaign summary ---\n{summary}");
    }
}
