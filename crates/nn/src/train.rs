//! Deterministic training loop with collapse detection.

use crate::loss::softmax_cross_entropy;
use crate::network::Network;
use crate::optim::{Sgd, SgdConfig};
use sefi_data::{BatchIter, Split, SyntheticCifar10};
use sefi_float::NevPolicy;

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer hyperparameters.
    pub sgd: SgdConfig,
    /// What counts as a collapse-inducing value (paper's N-EV criterion).
    pub nev: NevPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { batch_size: 32, sgd: SgdConfig::default(), nev: NevPolicy::default() }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Test-set accuracy after the epoch, in `[0, 1]`.
    pub test_accuracy: f64,
}

/// How a training run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainOutcome {
    /// Ran to the requested epoch.
    Completed {
        /// Per-epoch records.
        history: Vec<EpochRecord>,
    },
    /// The network computed a NaN or extreme value and collapsed — the
    /// paper's "N-EV" event (Section V-B).
    Collapsed {
        /// Epoch in which the collapse occurred.
        epoch: usize,
        /// Records for the epochs completed before the collapse.
        history: Vec<EpochRecord>,
    },
}

impl TrainOutcome {
    /// The epoch history regardless of how the run ended.
    pub fn history(&self) -> &[EpochRecord] {
        match self {
            TrainOutcome::Completed { history } | TrainOutcome::Collapsed { history, .. } => {
                history
            }
        }
    }

    /// True if the run collapsed on an N-EV.
    pub fn collapsed(&self) -> bool {
        matches!(self, TrainOutcome::Collapsed { .. })
    }

    /// Final test accuracy, if at least one epoch completed.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.history().last().map(|r| r.test_accuracy)
    }
}

/// Classification accuracy of `net` on a split.
pub fn evaluate(net: &mut Network, data: &SyntheticCifar10, split: Split) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in BatchIter::sequential(data, split, 64) {
        let preds = net.predict(batch.images);
        for (p, &l) in preds.iter().zip(&batch.labels) {
            if *p == l as usize {
                correct += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Drives epochs of SGD over a network.
#[derive(Clone)]
pub struct Trainer {
    config: TrainConfig,
    optimizer: Sgd,
}

impl Trainer {
    /// New trainer with fresh optimizer state.
    pub fn new(config: TrainConfig) -> Self {
        let sgd = config.sgd;
        Trainer { config, optimizer: Sgd::new(sgd) }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The optimizer (momentum-buffer export/import for checkpoints that
    /// carry optimizer state).
    pub fn optimizer(&self) -> &Sgd {
        &self.optimizer
    }

    /// Mutable optimizer access.
    pub fn optimizer_mut(&mut self) -> &mut Sgd {
        &mut self.optimizer
    }

    /// Train `net` from `start_epoch` (inclusive) to `end_epoch`
    /// (exclusive). Batch order for epoch `e` depends only on the dataset
    /// seed and `e`, so resuming from a checkpoint saved at epoch `k`
    /// replays exactly the remaining schedule of an uninterrupted run —
    /// the paper's restart-comparison protocol (Table III: "a checkpoint
    /// from epoch 20 was used").
    ///
    /// A non-finite loss or prediction collapse aborts the run with
    /// [`TrainOutcome::Collapsed`]: this is the observable consequence of a
    /// NaN or extreme value reaching the computation, matching how the
    /// paper's trainings "crash" (Section V-B2).
    pub fn train(
        &mut self,
        net: &mut Network,
        data: &SyntheticCifar10,
        start_epoch: usize,
        end_epoch: usize,
    ) -> TrainOutcome {
        let mut history = Vec::new();
        // A freshly loaded (possibly corrupted) model that already contains
        // an N-EV collapses on first use.
        if self.weights_have_nev(net) {
            return TrainOutcome::Collapsed { epoch: start_epoch, history };
        }
        for epoch in start_epoch..end_epoch {
            let mut loss_acc = 0.0f64;
            let mut batches = 0usize;
            for batch in BatchIter::new(data, Split::Train, self.config.batch_size, epoch) {
                net.zero_grad();
                let logits = net.forward(batch.images, true);
                let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.labels);
                if !loss.is_finite() {
                    return TrainOutcome::Collapsed { epoch, history };
                }
                net.backward(dlogits);
                self.optimizer.step(&mut net.params_mut());
                loss_acc += loss;
                batches += 1;
            }
            if self.weights_have_nev(net) {
                return TrainOutcome::Collapsed { epoch, history };
            }
            let test_accuracy = evaluate(net, data, Split::Test);
            history.push(EpochRecord {
                epoch,
                train_loss: loss_acc / batches.max(1) as f64,
                test_accuracy,
            });
        }
        TrainOutcome::Completed { history }
    }

    /// Whether any tensor of `net` (parameters and auxiliary state) holds
    /// an N-EV under this trainer's policy — the scan a training collapses
    /// on before its first batch and after every epoch.
    pub fn weights_have_nev(&self, net: &mut Network) -> bool {
        let nev = &self.config.nev;
        let mut found = false;
        net.visit_tensors_mut(|_, t, _| found = found || nev.any_nev(t.data()));
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, ReLU};
    use sefi_data::DataConfig;
    use sefi_rng::DetRng;

    fn mlp(seed: u64, size: usize) -> Network {
        let mut rng = DetRng::new(seed);
        Network::new(vec![
            Box::new(Flatten::new("flat")),
            Box::new(Dense::new("fc1", 3 * size * size, 32, &mut rng)),
            Box::new(ReLU::new("relu1")),
            Box::new(Dense::new("fc2", 32, 10, &mut rng)),
        ])
    }

    fn data() -> SyntheticCifar10 {
        SyntheticCifar10::generate(DataConfig {
            train: 300,
            test: 100,
            image_size: 8,
            seed: 11,
            noise: 0.15,
        })
    }

    #[test]
    fn training_learns_the_task() {
        let d = data();
        let mut net = mlp(3, 8);
        let before = evaluate(&mut net, &d, Split::Test);
        let mut trainer = Trainer::new(TrainConfig::default());
        let outcome = trainer.train(&mut net, &d, 0, 8);
        assert!(!outcome.collapsed());
        let after = outcome.final_accuracy().unwrap();
        assert!(after > before + 0.2, "no learning: {before} -> {after}");
        assert!(after > 0.4, "final accuracy too low: {after}");
    }

    #[test]
    fn training_is_bitwise_deterministic() {
        let d = data();
        let run = || {
            let mut net = mlp(3, 8);
            let mut trainer = Trainer::new(TrainConfig::default());
            let out = trainer.train(&mut net, &d, 0, 3);
            (out.history().to_vec(), net.state_dict())
        };
        let (h1, sd1) = run();
        let (h2, sd2) = run();
        assert_eq!(h1, h2);
        assert_eq!(sd1, sd2);
    }

    #[test]
    fn resume_equals_uninterrupted_run() {
        let d = data();
        // Uninterrupted 5 epochs.
        let mut full = mlp(7, 8);
        let mut t_full = Trainer::new(TrainConfig::default());
        let _ = t_full.train(&mut full, &d, 0, 5);
        // 3 epochs, checkpoint, resume 2 more with a *fresh* trainer whose
        // momentum restarts — like the paper's frameworks, optimizer state
        // is not checkpointed (the paper notes Fig. 3b's offset comes from
        // "not saving other types of optimization information").
        let mut part = mlp(7, 8);
        let mut t1 = Trainer::new(TrainConfig::default());
        let _ = t1.train(&mut part, &d, 0, 3);
        let sd = part.state_dict();
        let mut resumed = mlp(999, 8); // different init, then overwritten
        resumed.load_state_dict(&sd).unwrap();
        let mut t2 = Trainer::new(TrainConfig::default());
        let out = t2.train(&mut resumed, &d, 3, 5);
        // With momentum reset the resumed run need not be bit-identical to
        // the uninterrupted one, but it must be deterministic: repeating the
        // resume gives identical results.
        let mut resumed2 = mlp(1000, 8);
        resumed2.load_state_dict(&sd).unwrap();
        let mut t3 = Trainer::new(TrainConfig::default());
        let out2 = t3.train(&mut resumed2, &d, 3, 5);
        assert_eq!(out.history(), out2.history());
        assert_eq!(resumed.state_dict(), resumed2.state_dict());
    }

    #[test]
    fn nan_weight_collapses_immediately() {
        let d = data();
        let mut net = mlp(3, 8);
        let mut sd = net.state_dict();
        // Poison one weight.
        let poisoned: Vec<_> = sd
            .entries()
            .iter()
            .map(|e| {
                let mut t = e.tensor.clone();
                if e.path == "fc1/W" {
                    t.data_mut()[0] = f32::NAN;
                }
                (e.path.clone(), t, e.trainable)
            })
            .collect();
        sd = StateDict::new();
        for (p, t, tr) in poisoned {
            sd.push(p, t, tr);
        }
        net.load_state_dict(&sd).unwrap();
        let mut trainer = Trainer::new(TrainConfig::default());
        let out = trainer.train(&mut net, &d, 20, 22);
        assert!(matches!(out, TrainOutcome::Collapsed { epoch: 20, .. }));
    }

    #[test]
    fn extreme_weight_collapses() {
        let d = data();
        let mut net = mlp(3, 8);
        {
            let mut params = net.params_mut();
            params[0].value.data_mut()[0] = 1e32; // beyond default N-EV threshold
        }
        let mut trainer = Trainer::new(TrainConfig::default());
        let out = trainer.train(&mut net, &d, 0, 1);
        assert!(out.collapsed());
    }

    use crate::StateDict;
}
