//! One driver for every campaign binary.
//!
//! Each table or figure is an [`Experiment`] whose `run` computes its
//! results on a [`Prebaked`] and records them in a [`Report`]. The driver
//! owns the rest: the shared flags, the campaign and its phase, printing,
//! writing files, the campaign summary and the exit status — 0 when every
//! [`Report::check`] held and every file was written, 1 otherwise, 2 for a
//! usage error. `all_experiments` runs the whole [`REGISTRY`] as one
//! campaign into one results directory.

use crate::table::TextTable;
use crate::{
    exp_bitranges, exp_curves, exp_equivalent, exp_forensics, exp_guard, exp_heatmap, exp_layers,
    exp_masks, exp_nev, exp_precision, exp_predict, exp_propagation, exp_rwc, exp_serving,
    exp_storage, Budget, CampaignConfig, Prebaked,
};
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One table or figure of the campaign.
pub struct Experiment {
    /// Campaign, phase and manifest-directory name (`fig2`, `storage`, …).
    pub name: &'static str,
    /// First line of the binary's output.
    pub title: &'static str,
    /// Every file `run` records, by name under the results directory.
    pub files: &'static [&'static str],
    /// Compute the results and record them.
    pub run: fn(&Prebaked, &mut Report),
}

/// Every experiment, in the order `all_experiments` runs them.
pub const REGISTRY: &[&Experiment] = &[
    &exp_bitranges::FIG2,
    &exp_nev::TABLE4,
    &exp_rwc::TABLE5,
    &exp_curves::FIG3,
    &exp_layers::FIG4,
    &exp_equivalent::FIG5,
    &exp_masks::TABLE6,
    &exp_nev::TABLE7,
    &exp_predict::TABLE8,
    &exp_propagation::FIG6,
    &exp_heatmap::FIG7,
    &exp_storage::STORAGE,
    &exp_forensics::FORENSICS,
    &exp_precision::PRECISION,
    &exp_serving::SERVING,
    &exp_guard::GUARD,
];

enum Item {
    Line(String),
    Check(String, bool),
    File { name: String, bytes: Vec<u8>, note: String },
}

/// What one experiment reports, in output order: tables and free lines,
/// files (each table's CSV, fig4's injection logs) and headlines — a
/// [`Report::check`], which must hold, or a [`Report::finding`], which is
/// only reported.
#[derive(Default)]
pub struct Report {
    items: Vec<Item>,
}

impl Report {
    /// A free line of text (a chart, a caption), printed as is.
    pub fn line(&mut self, text: impl Into<String>) {
        self.items.push(Item::Line(text.into()));
    }

    /// The `budget: <name> (<detail>)` line and a blank line.
    pub fn budget(&mut self, pre: &Prebaked, detail: &str) {
        self.line(format!("budget: {} ({detail})\n", pre.budget().name));
    }

    /// A rendered table.
    pub fn table(&mut self, table: &TextTable) {
        self.line(table.render());
    }

    /// Save `table` as the CSV file `name`.
    pub fn csv(&mut self, name: impl Into<String>, table: &TextTable) {
        let bytes = table.to_csv().into();
        self.items.push(Item::File { name: name.into(), bytes, note: String::new() });
    }

    /// Save an artifact file; `note` follows its "wrote" line.
    pub fn artifact(&mut self, name: impl Into<String>, bytes: impl Into<Vec<u8>>, note: &str) {
        let (name, bytes, note) = (name.into(), bytes.into(), format!(" ({note})"));
        self.items.push(Item::File { name, bytes, note });
    }

    /// A headline that must hold: a false one fails the run.
    pub fn check(&mut self, label: &str, holds: bool) {
        self.items.push(Item::Check(label.to_string(), holds));
    }

    /// A headline that is only reported.
    pub fn finding(&mut self, label: &str, value: impl Display) {
        self.line(format!("{label}: {value}"));
    }
}

/// The flags every campaign binary shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// `--budget <name>`, else `SEFI_BUDGET`, else the default budget.
    pub budget: Budget,
    /// `--results-dir <dir>`; `results/` when absent.
    pub results_dir: Option<PathBuf>,
    /// `--retry-failed`: re-execute trials recorded as failed.
    pub retry_failed: bool,
}

impl CliArgs {
    /// Parse `args` (program name excluded); `env_budget` is `SEFI_BUDGET`.
    /// Any other argument, or a flag missing its value, is an error.
    fn parse(args: &[String], env_budget: Option<&str>) -> Result<Self, String> {
        let mut budget = env_budget.filter(|b| !b.is_empty()).map(str::to_string);
        let (mut results_dir, mut retry_failed) = (None, false);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                let value = args.next().filter(|v| !v.starts_with("--"));
                value.cloned().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--budget" => budget = Some(value()?),
                "--results-dir" => results_dir = Some(PathBuf::from(value()?)),
                "--retry-failed" => retry_failed = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let budget = budget.as_deref().map_or(Ok(Budget::default_budget()), Budget::by_name)?;
        Ok(CliArgs { budget, results_dir, retry_failed })
    }

    /// Parse the process arguments; print usage and exit 2 on error.
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env_budget = std::env::var("SEFI_BUDGET").ok();
        Self::parse(&args, env_budget.as_deref()).unwrap_or_else(|err| usage(&err))
    }
}

fn usage(err: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let program = program.rsplit('/').next().unwrap_or_default();
    eprintln!("{program}: {err}");
    eprintln!(
        "usage: {program} [--budget smoke|default|paper] [--results-dir DIR] [--retry-failed]"
    );
    std::process::exit(2);
}

/// The budget of a binary that takes only `--budget` (the ablations and
/// diagnostics, which record no campaign).
pub fn budget_from_args() -> Budget {
    let args = CliArgs::from_env();
    if args.results_dir.is_some() || args.retry_failed {
        usage("this binary takes only --budget");
    }
    args.budget
}

/// `main` of one experiment's binary.
pub fn main(exp: &Experiment) -> ExitCode {
    run_main(exp.name, &[exp])
}

/// `main` of `all_experiments`: every registry entry, one campaign.
pub fn main_all() -> ExitCode {
    run_main("all-experiments", REGISTRY)
}

fn run_main(campaign: &str, entries: &[&Experiment]) -> ExitCode {
    match drive(campaign, entries, &CliArgs::from_env(), &mut std::io::stdout()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Run `entries` as the campaign `campaign`, printing to `out`. Returns
/// whether every check held and every file was written; `Err` only when
/// the campaign cannot start or `out` fails.
pub fn drive(
    campaign: &str,
    entries: &[&Experiment],
    args: &CliArgs,
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    let mut config = CampaignConfig::new(campaign).retry_failed(args.retry_failed);
    if let Some(dir) = &args.results_dir {
        config = config.results_dir(dir);
    }
    let pre = Prebaked::with_campaign(args.budget, config)?;
    let mut passed = true;
    for (i, exp) in entries.iter().enumerate() {
        writeln!(out, "{}{}", if i == 0 { "" } else { "\n" }, exp.title)?;
        let _phase = pre.phase(exp.name);
        let mut report = Report::default();
        (exp.run)(&pre, &mut report);
        for item in report.items {
            passed &= emit(exp, item, &pre, out)?;
        }
    }
    if let Some(summary) = pre.finish_campaign() {
        writeln!(out, "\n--- campaign summary ---\n{summary}")?;
    }
    Ok(passed)
}

/// Print one item, writing it first if it is a file; false when a check
/// fails or a file cannot be written (said on stderr, with no "wrote").
fn emit(
    exp: &Experiment,
    item: Item,
    pre: &Prebaked,
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    let failure = match item {
        Item::Line(text) => return writeln!(out, "{text}").map(|_| true),
        Item::Check(label, holds) => {
            writeln!(out, "{label}: {holds}")?;
            if holds {
                return Ok(true);
            }
            format!("check failed: {label}")
        }
        Item::File { name, bytes, note } => {
            let written = if exp.files.contains(&name.as_str()) {
                pre.results_file(&name).and_then(|p| std::fs::write(&p, bytes).map(|_| p))
            } else {
                Err(std::io::Error::other("not among the entry's files"))
            };
            match written {
                Ok(path) => return writeln!(out, "wrote {}{note}", path.display()).map(|_| true),
                Err(err) => format!("cannot write {name}: {err}"),
            }
        }
    };
    eprintln!("{}: {failure}", exp.name);
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: Option<&str>) -> Result<CliArgs, String> {
        CliArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), env)
    }

    #[test]
    fn shared_flags_parse() {
        let args = parse(&["--budget", "smoke", "--results-dir", "out", "--retry-failed"], None);
        let all = CliArgs {
            budget: Budget::smoke(),
            results_dir: Some("out".into()),
            retry_failed: true,
        };
        assert_eq!(args, Ok(all));
        let none =
            CliArgs { budget: Budget::default_budget(), results_dir: None, retry_failed: false };
        assert_eq!(parse(&[], None), Ok(none));
    }

    #[test]
    fn env_budget_applies_unless_the_flag_overrides_it() {
        assert_eq!(parse(&[], Some("smoke")).unwrap().budget, Budget::smoke());
        assert_eq!(parse(&[], Some("")).unwrap().budget, Budget::default_budget());
        assert_eq!(parse(&["--budget", "paper"], Some("smoke")).unwrap().budget, Budget::paper());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        for args in [
            &["--budget", "smoke", "--bogus-flag"][..],
            &["--result-dir", "x"],
            &["--budget"],
            &["--results-dir"],
            &["--results-dir", "--retry-failed"],
            &["smoke"],
            &["--budget", "huge"],
        ] {
            assert!(parse(args, None).is_err(), "{args:?} must be refused");
        }
        assert!(parse(&["--budget"], None).unwrap_err().contains("needs a value"));
        assert!(parse(&[], Some("huge")).unwrap_err().contains("unknown budget"));
    }
}
