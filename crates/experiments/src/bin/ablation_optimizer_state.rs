//! Ablation: why the paper's Figure 3b shows a "slight improvement" after
//! restart.
//!
//! The paper attributes the offset to "not saving other types of
//! optimization information at the checkpoint". This binary quantifies it:
//! it compares an uninterrupted training against (a) a cold resume (plain
//! checkpoint, momentum reset — the paper's frameworks) and (b) a warm
//! resume (checkpoint carrying momentum buffers — this repo's extension),
//! at every epoch after the restart.

use sefi_experiments::{budget_from_args, table::TextTable, Prebaked};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;

fn main() {
    let budget = budget_from_args();
    println!("Ablation — optimizer state in checkpoints (paper Fig. 3b artifact)");
    println!("budget: {}\n", budget.name);
    let pre = Prebaked::new(budget);
    let data = pre.data();

    let mut table = TextTable::new(&["epoch", "uninterrupted", "cold resume", "warm resume"]);
    for model in [ModelKind::Vgg16, ModelKind::AlexNet] {
        // A true uninterrupted run trains from scratch (not via the shared
        // restart checkpoint, which is itself a cold resume).
        let mut cfg =
            sefi_frameworks::SessionConfig::new(FrameworkKind::PyTorch, model, 0x5EF1_2021);
        cfg.model_config = budget.model_config();
        cfg.train.batch_size = 8;
        let mut uninterrupted = sefi_frameworks::Session::new(cfg.clone());
        let out_full = uninterrupted.train_to(data, budget.curve_end_epoch);

        // Interrupted at the restart epoch; both resume flavours.
        let mut part = sefi_frameworks::Session::new(cfg.clone());
        part.train_to(data, budget.restart_epoch);
        let cold_ck = part.checkpoint(Dtype::F64);
        let warm_ck = part.checkpoint_with_optimizer(Dtype::F64);

        let resume = |ck| {
            let run = pre.trial_from(FrameworkKind::PyTorch, model, ck);
            run.resume(budget.curve_end_epoch - budget.restart_epoch)
                .expect("own checkpoint restores")
                .training
        };
        let out_cold = resume(&cold_ck);
        let out_warm = resume(&warm_ck);

        println!("model: {}", model.id());
        for e in budget.restart_epoch..budget.curve_end_epoch {
            let find = |h: &[sefi_nn::EpochRecord]| {
                h.iter()
                    .find(|r| r.epoch == e)
                    .map(|r| format!("{:.2}", r.test_accuracy * 100.0))
                    .unwrap_or_else(|| "-".into())
            };
            table.row(vec![
                e.to_string(),
                find(out_full.history()),
                find(out_cold.history()),
                find(out_warm.history()),
            ]);
        }
        println!("{}", table.render());
        let warm_exact = out_warm
            .history()
            .iter()
            .filter(|r| r.epoch >= budget.restart_epoch)
            .zip(out_full.history().iter().filter(|r| r.epoch >= budget.restart_epoch))
            .all(|(w, f)| w.test_accuracy == f.test_accuracy);
        println!("warm resume tracks the uninterrupted run exactly: {warm_exact}\n");
        table = TextTable::new(&["epoch", "uninterrupted", "cold resume", "warm resume"]);
    }
}
