//! A training session: one (framework, model) pair with deterministic
//! lifecycle — build, train, checkpoint, restore, resume, predict.
//!
//! Sessions are the unit every experiment manipulates: "we generate a
//! checkpoint of any DL framework and any neural network model during
//! training to perform the injection process and later loaded the altered
//! checkpoint file to resume execution" (Section V-A2).

use crate::checkpoint::{load_checkpoint, save_checkpoint};
use crate::kind::FrameworkKind;
use crate::mapping::file_layer_location;
use sefi_data::SyntheticCifar10;
use sefi_hdf5::{Dtype, H5File};
use sefi_models::{build, LayerRole, ModelConfig, ModelKind, ModelMeta};
use sefi_nn::{evaluate, Network, TrainConfig, TrainOutcome, Trainer};
use sefi_rng::DetRng;
use sefi_tensor::Tensor;

/// Everything needed to reproduce a session bit-for-bit.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Framework personality.
    pub framework: FrameworkKind,
    /// Model architecture.
    pub model: ModelKind,
    /// Architecture sizing.
    pub model_config: ModelConfig,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Master seed (initialization substream is derived per framework+model
    /// label so all frameworks share logical weights for a given seed —
    /// the setting equivalent injection compares).
    pub seed: u64,
}

impl SessionConfig {
    /// Convenience constructor with default model/train configs.
    pub fn new(framework: FrameworkKind, model: ModelKind, seed: u64) -> Self {
        SessionConfig {
            framework,
            model,
            model_config: ModelConfig::default(),
            train: TrainConfig::default(),
            seed,
        }
    }
}

/// A live training session.
///
/// `Clone` copies the weights, optimizer state and epoch (kernel scratch
/// starts empty), so a clone of a fresh session is exactly what
/// [`Session::new`] builds from the same config.
#[derive(Clone)]
pub struct Session {
    config: SessionConfig,
    net: Network,
    meta: ModelMeta,
    trainer: Trainer,
    epoch: usize,
}

impl Session {
    /// Build the model and a fresh trainer.
    ///
    /// The initialization stream depends only on (seed, model) — not the
    /// framework — so the same seed gives the same logical weights in all
    /// three frameworks, mirroring the paper's equivalent-injection setup
    /// where one model is trained per framework under identical conditions.
    pub fn new(config: SessionConfig) -> Self {
        let mut rng = DetRng::new(config.seed).substream(&format!("init-{}", config.model.id()));
        let (net, meta) = build(config.model, config.model_config, &mut rng);
        let trainer = Trainer::new(config.train.clone());
        Session { config, net, meta, trainer, epoch: 0 }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Model metadata (layer names and roles).
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// Current epoch (next epoch to be trained).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Direct access to the network (experiments inspect weights).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Train until `target_epoch` (exclusive upper bound on epoch index).
    pub fn train_to(&mut self, data: &SyntheticCifar10, target_epoch: usize) -> TrainOutcome {
        let out = self.trainer.train(&mut self.net, data, self.epoch, target_epoch);
        if let Some(last) = out.history().last() {
            self.epoch = last.epoch + 1;
        }
        if out.collapsed() {
            // A collapsed training does not advance further.
        } else {
            self.epoch = target_epoch.max(self.epoch);
        }
        out
    }

    /// Write a checkpoint of the current weights.
    pub fn checkpoint(&mut self, dtype: Dtype) -> H5File {
        save_checkpoint(self.config.framework, &mut self.net, self.epoch, dtype)
    }

    /// Write a checkpoint that *also* carries the optimizer's momentum
    /// buffers (under `optimizer_state/momentum/<param path>`).
    ///
    /// The paper's frameworks do not do this — it explains the accuracy
    /// offset in its Figure 3b ("the result of not saving other types of
    /// optimization information at the checkpoint") — so this is an
    /// extension: with it, a resume is bitwise-identical to the
    /// uninterrupted run. Momentum tensors are stored at f32 (their
    /// working precision) regardless of the weight dtype.
    pub fn checkpoint_with_optimizer(&mut self, dtype: Dtype) -> H5File {
        let mut file = self.checkpoint(dtype);
        let velocities = self.trainer.optimizer().velocities().to_vec();
        if velocities.is_empty() {
            return file; // no step taken yet: nothing to carry
        }
        let params = self.net.params_mut();
        assert_eq!(params.len(), velocities.len(), "optimizer bound to this network");
        for (p, v) in params.iter().zip(&velocities) {
            let ds = sefi_hdf5::Dataset::from_f32(v.data(), v.shape(), Dtype::F32)
                .expect("velocity shapes are consistent");
            file.create_dataset(&format!("optimizer_state/momentum/{}", p.name), ds)
                .expect("param paths are unique");
        }
        file
    }

    /// Restore weights (and epoch) from a checkpoint — possibly corrupted.
    ///
    /// If the file carries `optimizer_state/momentum/*` (written by
    /// [`Session::checkpoint_with_optimizer`]) the momentum buffers are
    /// restored too; otherwise the optimizer restarts cold, as the paper's
    /// frameworks do ("not saving other types of optimization information
    /// at the checkpoint", Section V-C2).
    pub fn restore(&mut self, file: &H5File) -> Result<(), String> {
        let epoch = load_checkpoint(self.config.framework, &mut self.net, file)?;
        self.epoch = epoch;
        self.trainer = Trainer::new(self.config.train.clone());
        if file.get("optimizer_state").is_some() {
            let mut velocities = Vec::new();
            for p in self.net.params_mut() {
                let path = format!("optimizer_state/momentum/{}", p.name);
                let ds =
                    file.dataset(&path).map_err(|e| format!("restoring optimizer state: {e}"))?;
                if ds.len() != p.value.len() {
                    return Err(format!(
                        "momentum tensor {path:?} has {} entries, parameter has {}",
                        ds.len(),
                        p.value.len()
                    ));
                }
                velocities.push(Tensor::from_vec(ds.to_f32_vec(), p.value.shape()));
            }
            self.trainer.optimizer_mut().set_velocities(velocities);
        }
        Ok(())
    }

    /// Whether the weights hold an N-EV: the scan a resumed training
    /// collapses on before its first batch.
    pub fn weights_have_nev(&mut self) -> bool {
        self.trainer.weights_have_nev(&mut self.net)
    }

    /// Test-set accuracy right now.
    pub fn test_accuracy(&mut self, data: &SyntheticCifar10) -> f64 {
        evaluate(&mut self.net, data, sefi_data::Split::Test)
    }

    /// Predict classes for a raw image batch; also reports whether the
    /// computation produced non-finite logits (Table VIII counts those as
    /// N-EV predictions).
    pub fn predict(&mut self, images: Tensor) -> (Vec<usize>, bool) {
        let logits = self.net.forward(images, false);
        let nev = logits.has_non_finite();
        (logits.argmax_rows(), nev)
    }

    /// Checkpoint locations (paths inside this framework's files) covering
    /// a structural layer role — used to aim `locations_to_corrupt`.
    pub fn layer_locations(&self, role: LayerRole) -> Vec<String> {
        file_layer_location(self.config.framework, self.meta.layer_for_role(role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sefi_data::DataConfig;

    fn tiny_data() -> SyntheticCifar10 {
        SyntheticCifar10::generate(DataConfig {
            train: 120,
            test: 60,
            image_size: 16,
            seed: 3,
            noise: 0.15,
        })
    }

    fn tiny_session(fw: FrameworkKind, model: ModelKind) -> Session {
        let mut cfg = SessionConfig::new(fw, model, 42);
        cfg.model_config = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
        cfg.train.batch_size = 30;
        Session::new(cfg)
    }

    #[test]
    fn train_checkpoint_restore_resume_is_deterministic() {
        let data = tiny_data();
        let mut s = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        let out = s.train_to(&data, 2);
        assert!(!out.collapsed());
        let ck = s.checkpoint(Dtype::F64);

        // Two independent resumes from the same checkpoint agree exactly.
        let resume = |ck: &H5File| {
            let mut r = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
            r.restore(ck).unwrap();
            assert_eq!(r.epoch(), 2);
            let o = r.train_to(&data, 4);
            (o.history().to_vec(), r.test_accuracy(&data))
        };
        let (h1, a1) = resume(&ck);
        let (h2, a2) = resume(&ck);
        assert_eq!(h1, h2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn same_seed_same_logical_weights_across_frameworks() {
        let data = tiny_data();
        let accs: Vec<f64> = FrameworkKind::all()
            .iter()
            .map(|&fw| tiny_session(fw, ModelKind::AlexNet).test_accuracy(&data))
            .collect();
        assert_eq!(accs[0], accs[1]);
        assert_eq!(accs[1], accs[2]);
    }

    #[test]
    fn layer_locations_differ_by_framework() {
        let ch = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        let tf = tiny_session(FrameworkKind::TensorFlow, ModelKind::AlexNet);
        assert_eq!(ch.layer_locations(LayerRole::First), vec!["predictor/conv1".to_string()]);
        assert_eq!(tf.layer_locations(LayerRole::First), vec!["model_weights/conv1".to_string()]);
    }

    #[test]
    fn optimizer_state_checkpoint_makes_resume_bitwise_exact() {
        let data = tiny_data();
        // Uninterrupted run to epoch 4.
        let mut full = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        let out = full.train_to(&data, 4);
        assert!(!out.collapsed());
        let full_ck = full.checkpoint(Dtype::F64);

        // Interrupted at epoch 2 with optimizer state carried.
        let mut part = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        part.train_to(&data, 2);
        let warm_ck = part.checkpoint_with_optimizer(Dtype::F64);
        assert!(warm_ck.get("optimizer_state").is_some());

        let mut resumed = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        resumed.restore(&warm_ck).unwrap();
        resumed.train_to(&data, 4);
        assert_eq!(
            resumed.checkpoint(Dtype::F64).to_bytes(),
            full_ck.to_bytes(),
            "warm resume must be bitwise identical to the uninterrupted run"
        );

        // Cold resume (plain checkpoint) generally diverges — the paper's
        // Figure 3b artifact.
        let cold_ck = part.checkpoint(Dtype::F64);
        let mut cold = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        cold.restore(&cold_ck).unwrap();
        cold.train_to(&data, 4);
        assert_ne!(cold.checkpoint(Dtype::F64).to_bytes(), full_ck.to_bytes());
    }

    #[test]
    fn corrupted_momentum_is_loaded_as_found() {
        // Optimizer state living in the checkpoint is itself a corruption
        // surface; the loader must accept altered values.
        let data = tiny_data();
        let mut s = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        s.train_to(&data, 1);
        let mut ck = s.checkpoint_with_optimizer(Dtype::F64);
        let paths: Vec<String> =
            ck.dataset_paths().into_iter().filter(|p| p.starts_with("optimizer_state/")).collect();
        assert!(!paths.is_empty());
        ck.dataset_mut(&paths[0]).unwrap().set_f64(0, 42.0).unwrap();
        let mut r = tiny_session(FrameworkKind::Chainer, ModelKind::AlexNet);
        r.restore(&ck).unwrap();
        let out = r.train_to(&data, 2);
        assert!(!out.collapsed());
    }

    #[test]
    fn all_nine_combinations_build_and_forward() {
        let data = SyntheticCifar10::generate(DataConfig {
            train: 8,
            test: 8,
            image_size: 32,
            seed: 4,
            noise: 0.2,
        });
        for fw in FrameworkKind::all() {
            for model in ModelKind::all() {
                let mut cfg = SessionConfig::new(fw, model, 7);
                cfg.model_config = ModelConfig { scale: 0.03, input_size: 32, num_classes: 10 };
                let mut s = Session::new(cfg);
                let acc = s.test_accuracy(&data);
                assert!((0.0..=1.0).contains(&acc), "{fw:?}/{model:?}");
            }
        }
    }
}
