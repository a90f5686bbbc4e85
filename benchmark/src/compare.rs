//! `benchmark compare PARENT/*.json CHANGE/*.json`: judge two sets of run
//! records under the bounds in `BENCHMARK.json`.
//!
//! Records are grouped by their directory: the first directory named is
//! the parent, the second the change. Run `i` of one side pairs with run
//! `i` of the other in the order the files are named (alternate which
//! side runs first when producing them). For each workload and
//! end-to-end metric the command prints both sides' quartiles, the
//! parent's spread, and a verdict: regressed (worse than the bound),
//! unresolved (the parent's spread exceeds the bound), improved (nine
//! pairs in ten and more than the parent's interquartile distance), or
//! unchanged. It exits nonzero on a regression, on outcome digests that
//! differ for one workload and seed, on more failed operations in the
//! change than in the parent, or on any record whose gates failed or
//! whose load generator ran late (marked invalid).

use crate::measure::{self, Verdict};
use crate::report::{RunRecord, Spec};
use std::path::{Path, PathBuf};

fn load(path: &Path) -> Result<RunRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Split record files into (parent, change) by directory, in the order
/// the directories first appear.
fn split_sides(files: &[String]) -> Result<[Vec<PathBuf>; 2], String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut sides: [Vec<PathBuf>; 2] = [Vec::new(), Vec::new()];
    for f in files {
        let path = PathBuf::from(f);
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let side = match dirs.iter().position(|d| *d == dir) {
            Some(i) => i,
            None => {
                dirs.push(dir);
                dirs.len() - 1
            }
        };
        if side > 1 {
            return Err(format!("records come from more than two directories: {dirs:?}"));
        }
        sides[side].push(path);
    }
    if sides[1].is_empty() {
        return Err("need records from two directories: parent, then change".into());
    }
    Ok(sides)
}

/// Entry point of the `compare` subcommand; returns the exit code.
pub fn main(files: &[String]) -> i32 {
    match compare(files) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            2
        }
    }
}

fn compare(files: &[String]) -> Result<bool, String> {
    let spec = Spec::load();
    let [parent, change] = split_sides(files)?;
    let parent: Vec<RunRecord> = parent.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let change: Vec<RunRecord> = change.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let mut ok = true;

    for rec in parent.iter().chain(&change) {
        let invalid = rec.notes.iter().any(|n| n.starts_with("INVALID"));
        if !rec.correct || invalid {
            let what = if rec.correct { "INVALID" } else { "INCORRECT" };
            println!(
                "{what}: {} seed {} trace {}: {:?}",
                rec.workload, rec.seed, rec.trace, rec.notes
            );
            ok = false;
        }
    }
    // One digest per workload and seed, whatever side or mode produced it.
    let mut digests: std::collections::BTreeMap<(String, u64), String> = Default::default();
    for rec in parent.iter().chain(&change) {
        let key = (rec.workload.clone(), rec.seed);
        if let Some(d) = digests.get(&key) {
            if *d != rec.digest {
                println!("DIGEST MISMATCH: {} seed {}: {d} vs {}", key.0, key.1, rec.digest);
                ok = false;
            }
        } else {
            digests.insert(key, rec.digest.clone());
        }
    }

    println!(
        "{:<16} {:<18} {:>30} {:>30} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent q1/median/q3",
        "change q1/median/q3",
        "spread",
        "worse",
        "bound"
    );
    for w in &spec.workloads {
        let side = |recs: &[RunRecord]| -> Vec<RunRecord> {
            recs.iter().filter(|r| r.workload == w.name && !r.trace).cloned().collect()
        };
        let (p, c) = (side(&parent), side(&change));
        if p.is_empty() && c.is_empty() {
            continue;
        }
        let failed = |rs: &[RunRecord]| rs.iter().map(|r| r.failed).sum::<u64>();
        if failed(&c) > failed(&p) {
            println!("{:<16} failed operations rose: {} -> {}", w.name, failed(&p), failed(&c));
            ok = false;
        }
        for m in &spec.end_to_end {
            let values = |rs: &[RunRecord]| -> Option<Vec<f64>> {
                rs.iter().map(|r| r.metrics.get(&m.name).copied()).collect()
            };
            let bound = m.bound.unwrap_or(0.0);
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                println!("{:<16} {:<18} missing in some record", w.name, m.name);
                ok = false;
                continue;
            };
            let (Some(qp), Some(qc), Some(verdict)) = (
                measure::quartiles(&pv),
                measure::quartiles(&cv),
                measure::judge(m.direction(), bound, &pv, &cv),
            ) else {
                println!("{:<16} {:<18} needs two runs per side", w.name, m.name);
                ok = false;
                continue;
            };
            let q = |q: measure::Quartiles| format!("{:.4}/{:.4}/{:.4}", q.q1, q.median, q.q3);
            let worse = m.direction().worsening(qp.median, qc.median);
            println!(
                "{:<16} {:<18} {:>30} {:>30} {:>6.1}% {:>+7.1}% {:>5.0}%  {:?}",
                w.name,
                m.name,
                q(qp),
                q(qc),
                100.0 * qp.spread(),
                100.0 * worse,
                100.0 * bound,
                verdict
            );
            ok &= verdict != Verdict::Regressed;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sides_split_by_directory_in_order() {
        let files: Vec<String> = ["b/1.json", "b/2.json", "a/1.json", "a/2.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let [p, c] = split_sides(&files).unwrap();
        assert_eq!(p, vec![PathBuf::from("b/1.json"), PathBuf::from("b/2.json")]);
        assert_eq!(c, vec![PathBuf::from("a/1.json"), PathBuf::from("a/2.json")]);
        assert!(split_sides(&files[..2]).is_err());
        let three: Vec<String> = ["a/1", "b/1", "c/1"].iter().map(|s| s.to_string()).collect();
        assert!(split_sides(&three).is_err());
    }
}
