//! Experiment scale presets.

use sefi_data::DataConfig;
use sefi_models::ModelConfig;

/// How big to run each experiment. `paper` mirrors the publication's
/// counts (250 trainings per cell, restart at epoch 20, 100-epoch runs,
/// full-width models on full-size CIFAR-10 shapes) and is compute-bound on
/// CPU; `default` preserves every qualitative shape at laptop scale;
/// `smoke` exists for CI and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Preset name.
    pub name: &'static str,
    /// Trainings per table cell (paper: 250).
    pub trials: usize,
    /// Trainings averaged per accuracy curve (paper: 10).
    pub curve_trials: usize,
    /// Epoch whose checkpoint is corrupted (paper: 20).
    pub restart_epoch: usize,
    /// Epochs resumed after corruption for table-style cells (the paper
    /// trains to epoch 100; collapse and RWC are decided far earlier).
    pub resume_epochs: usize,
    /// Final epoch for accuracy curves (paper: 100).
    pub curve_end_epoch: usize,
    /// Prediction repetitions for Table VIII (paper: 10).
    pub predict_trials: usize,
    /// Images per prediction run (paper: 1 000).
    pub predict_images: usize,
    /// Trainings per bit range in the Figure 2 sweep (paper: 170).
    pub fig2_trainings: usize,
    /// Model width multiplier (paper: 1.0).
    pub model_scale: f64,
    /// Image edge length (paper: 32).
    pub image_size: usize,
    /// Training images (CIFAR-10: 50 000).
    pub train_images: usize,
    /// Test images (CIFAR-10: 10 000).
    pub test_images: usize,
    /// Pixel-noise standard deviation of the synthetic task (higher =
    /// harder; tuned per budget so accuracies land mid-range like the
    /// paper's CIFAR-10 results rather than saturating).
    pub noise: f64,
}

impl Budget {
    /// CI-scale.
    pub fn smoke() -> Self {
        Budget {
            name: "smoke",
            trials: 6,
            curve_trials: 2,
            restart_epoch: 2,
            resume_epochs: 1,
            curve_end_epoch: 4,
            predict_trials: 2,
            predict_images: 60,
            fig2_trainings: 4,
            model_scale: 0.03,
            image_size: 16,
            train_images: 120,
            test_images: 60,
            noise: 0.25,
        }
    }

    /// Laptop-scale; the numbers recorded in EXPERIMENTS.md use this.
    pub fn default_budget() -> Self {
        Budget {
            name: "default",
            trials: 25,
            curve_trials: 4,
            restart_epoch: 5,
            resume_epochs: 1,
            curve_end_epoch: 12,
            predict_trials: 5,
            predict_images: 200,
            fig2_trainings: 15,
            model_scale: 0.06,
            image_size: 16,
            train_images: 400,
            test_images: 200,
            noise: 0.45,
        }
    }

    /// Publication-scale (compute-bound on CPU; provided for completeness).
    pub fn paper() -> Self {
        Budget {
            name: "paper",
            trials: 250,
            curve_trials: 10,
            restart_epoch: 20,
            resume_epochs: 80,
            curve_end_epoch: 100,
            predict_trials: 10,
            predict_images: 1000,
            fig2_trainings: 170,
            model_scale: 1.0,
            image_size: 32,
            train_images: 50_000,
            test_images: 10_000,
            noise: 0.45,
        }
    }

    /// Look up a preset by name.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "smoke" => Ok(Self::smoke()),
            "default" => Ok(Self::default_budget()),
            "paper" => Ok(Self::paper()),
            _ => Err(format!("unknown budget {name:?}; valid: smoke, default, paper")),
        }
    }

    /// The dataset this budget generates.
    pub fn data_config(&self) -> DataConfig {
        DataConfig {
            train: self.train_images,
            test: self.test_images,
            image_size: self.image_size,
            seed: 0xC1_FA10,
            noise: self.noise,
        }
    }

    /// The model sizing this budget uses.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig { scale: self.model_scale, input_size: self.image_size, num_classes: 10 }
    }

    /// The bit-flip counts of the paper's tables.
    pub fn bitflip_counts(&self) -> [u64; 4] {
        [1, 10, 100, 1000]
    }

    /// Stable fingerprint for the pretraining cache. The float fields are
    /// encoded via `f64::to_bits`, not decimal truncation: the old
    /// `(noise * 100.0) as u64` grain collided budgets like noise 0.450
    /// vs 0.4549, silently serving one's pretrained weights to the other.
    pub fn cache_key(&self) -> String {
        format!(
            "s{:016x}_i{}_tr{}_te{}_re{}_n{:016x}",
            self.model_scale.to_bits(),
            self.image_size,
            self.train_images,
            self.test_images,
            self.restart_epoch,
            self.noise.to_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Budget::by_name("smoke").unwrap().name, "smoke");
        assert_eq!(Budget::by_name("default").unwrap().name, "default");
        assert_eq!(Budget::by_name("paper").unwrap().trials, 250);
        assert!(Budget::by_name("bogus").is_err());
    }

    #[test]
    fn paper_matches_publication_counts() {
        let p = Budget::paper();
        assert_eq!(p.trials, 250);
        assert_eq!(p.restart_epoch, 20);
        assert_eq!(p.curve_end_epoch, 100);
        assert_eq!(p.predict_images, 1000);
        assert_eq!(p.fig2_trainings, 170);
        assert_eq!(p.model_scale, 1.0);
    }

    #[test]
    fn cache_keys_distinguish_budgets() {
        assert_ne!(Budget::smoke().cache_key(), Budget::default_budget().cache_key());
    }

    #[test]
    fn cache_keys_distinguish_sub_grain_float_differences() {
        // Regression: decimal truncation collapsed noise 0.450 and 0.4549
        // (both `(x * 100.0) as u64 == 45`) onto one key, so the second
        // budget silently reused the first's pretraining cache.
        let mut a = Budget::default_budget();
        let mut b = Budget::default_budget();
        a.noise = 0.450;
        b.noise = 0.4549;
        assert_ne!(a.cache_key(), b.cache_key());

        // Same class of collision on model_scale below the 1/1000 grain.
        let mut c = Budget::default_budget();
        let mut d = Budget::default_budget();
        c.model_scale = 0.0601;
        d.model_scale = 0.06049;
        assert_ne!(c.cache_key(), d.cache_key());

        // Identical budgets still share a key (the cache must still hit).
        assert_eq!(Budget::smoke().cache_key(), Budget::smoke().cache_key());
    }
}
