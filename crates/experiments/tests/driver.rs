//! The experiment driver: registry invariants, and the storage entry
//! (the cheapest) driven end to end through its binary and in process.

use sefi_experiments::driver::{drive, CliArgs, Experiment, REGISTRY};
use sefi_experiments::{exp_storage, table::TextTable, Budget};
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sefi_driver_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exp_storage(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_storage"));
    cmd.args(args).env_remove("SEFI_BUDGET").output().expect("exp_storage runs")
}

#[test]
fn entry_names_are_unique() {
    let mut names = HashSet::new();
    assert!(REGISTRY.iter().all(|exp| names.insert(exp.name)), "duplicate entry name");
}

#[test]
fn file_names_are_unique_across_the_registry() {
    // all_experiments writes every entry's files into one directory.
    let mut files = HashSet::new();
    for file in REGISTRY.iter().flat_map(|exp| exp.files) {
        assert!(files.insert(file), "two entries write {file}");
    }
}

#[test]
fn storage_runs_end_to_end_and_a_false_check_fails_it() {
    let dir = scratch_dir("e2e");
    let out = exp_storage(&["--budget", "smoke", "--results-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with(&format!("{}\nbudget: smoke", exp_storage::STORAGE.title)));
    let csv = dir.join("storage.csv");
    for line in [
        "verified loader detects every flip: true".to_string(),
        "all outcome classes observed: true".to_string(),
        format!("wrote {}", csv.display()),
    ] {
        assert!(stdout.lines().any(|l| l == line), "missing {line:?} in\n{stdout}");
    }
    let table = std::fs::read_to_string(&csv).unwrap();
    assert!(table.starts_with("Region,Flips,") && table.lines().count() == 4, "{table}");

    // A forced-false check fails the same entry (its trials served from the
    // manifest the run above left), and a file it does not declare is refused.
    const FORCED: Experiment = Experiment {
        run: |pre, r| {
            (exp_storage::STORAGE.run)(pre, r);
            r.check("forced", false);
            r.csv("undeclared.csv", &TextTable::new(&["a"]));
        },
        ..exp_storage::STORAGE
    };
    let args =
        CliArgs { budget: Budget::smoke(), results_dir: Some(dir.clone()), retry_failed: false };
    let mut out = Vec::new();
    assert!(!drive("storage", &[&FORCED], &args, &mut out).unwrap());
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("\nforced: false\n") && !out.contains("undeclared"), "{out}");
    assert!(!dir.join("undeclared.csv").exists());
    let row = out.lines().rfind(|l| l.starts_with("storage ")).expect("summary row");
    assert_eq!(row.split_whitespace().take(4).collect::<Vec<_>>(), ["storage", "0", "144", "0"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_csv_fails_the_run_without_a_wrote_line() {
    let dir = scratch_dir("unwritable");
    std::fs::create_dir_all(dir.join("storage.csv")).unwrap();
    let out = exp_storage(&["--budget", "smoke", "--results-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("wrote") && stdout.contains("--- campaign summary ---"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write storage.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_2_before_running() {
    for args in [&["--budget", "smoke", "--bogus-flag"][..], &["--budget"], &["--budget", "huge"]] {
        let out = exp_storage(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a campaign");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
    }
}
