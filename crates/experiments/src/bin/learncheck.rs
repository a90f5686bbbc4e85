//! Diagnostic: baseline learning quality per model at a budget.
//!
//! Use when tuning a budget's `noise`/`model_scale`/`restart_epoch` so the
//! three models land in the paper-like accuracy regime (clearly above
//! chance at the restart epoch, not saturated at the curve end):
//!
//! ```text
//! cargo run --release -p sefi-experiments --bin learncheck -- --budget default
//! ```

use sefi_experiments::{budget_from_args, Prebaked};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;

fn main() {
    let b = budget_from_args();
    let pre = Prebaked::new(b);
    for model in ModelKind::all() {
        let t0 = std::time::Instant::now();
        let mut restart = pre
            .trial(FrameworkKind::Chainer, model, Dtype::F64)
            .restore()
            .expect("pristine checkpoint restores");
        let acc0 = restart.session.test_accuracy(pre.data());
        let curve = pre.baseline_curve(model, Dtype::F64, b.curve_end_epoch);
        println!(
            "{:<10} acc@restart={:.3} acc@end={:.3} ({:.1}s)",
            model.id(),
            acc0,
            curve.last().unwrap().test_accuracy,
            t0.elapsed().as_secs_f64()
        );
    }
}
