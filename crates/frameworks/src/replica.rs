//! Serving replicas: trusting checkpoint loads with targeted hot reload.
//!
//! A serving replica deliberately loads its checkpoint *without* integrity
//! verification ([`sefi_hdf5::H5File::from_bytes_unverified`]) — the
//! paper's unprotected-framework baseline, where a flipped bit in the file
//! flows straight into the weights. Detection happens later, at runtime,
//! when an activation-envelope guard trips; this module then provides the
//! recovery half: re-read *only the implicated datasets* through the
//! verified v2 reader with ECC escalation
//! ([`sefi_hdf5::IndexedFile::dataset_correct_or_zero`]), so a quarantined
//! replica returns to service without a full model reload when the damage
//! is localized.

use crate::checkpoint::{load_checkpoint, restore_in_place};
use crate::kind::FrameworkKind;
use sefi_hdf5::{EccSidecar, H5File, IndexedFile, SectionRecovery};
use sefi_models::{build, ModelConfig, ModelKind};
use sefi_nn::Network;
use sefi_rng::DetRng;
use std::path::{Path, PathBuf};

/// What a targeted reload did per escalation tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Datasets re-read from the file (all tiers).
    pub reloaded: usize,
    /// Datasets whose stored bytes failed CRC and were repaired by the ECC
    /// sidecar (exact restoration).
    pub corrected: usize,
    /// Datasets unrecoverable even through ECC, loaded as zeros.
    pub zero_filled: usize,
}

impl ReloadReport {
    fn absorb(&mut self, r: SectionRecovery) {
        self.reloaded += 1;
        match r {
            SectionRecovery::Clean => {}
            SectionRecovery::Corrected { .. } => self.corrected += 1,
            SectionRecovery::ZeroFilled => self.zero_filled += 1,
        }
    }
}

/// One serving replica: a live network plus the provenance needed to
/// re-read any of its tensors from the checkpoint file on demand.
pub struct Replica {
    fw: FrameworkKind,
    net: Network,
    path: PathBuf,
    sidecar: Option<EccSidecar>,
}

impl Replica {
    /// Load a replica the way an unprotected serving stack does: read the
    /// checkpoint bytes, decode without CRC verification, and install the
    /// weights as-is. File corruption (if any) silently enters the model —
    /// exactly the condition the runtime guards exist to catch.
    pub fn load_trusting(
        fw: FrameworkKind,
        model: ModelKind,
        config: ModelConfig,
        path: impl AsRef<Path>,
        sidecar: Option<EccSidecar>,
    ) -> Result<Self, String> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        let file =
            H5File::from_bytes_unverified(&bytes).map_err(|e| format!("decoding {path:?}: {e}"))?;
        // Replica identity is the checkpoint, not the init: any seed works.
        let (mut net, _) = build(model, config, &mut DetRng::new(0));
        load_checkpoint(fw, &mut net, &file)?;
        Ok(Replica { fw, net, path, sidecar })
    }

    /// The live network.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Framework personality this replica's checkpoint uses.
    pub fn framework(&self) -> FrameworkKind {
        self.fw
    }

    /// Checkpoint file backing this replica.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Engine-side dataset paths (`layer/param`) belonging to one layer —
    /// the reload unit when a guard localizes a trip to a layer.
    pub fn layer_datasets(&mut self, engine_layer: &str) -> Vec<String> {
        let prefix = format!("{engine_layer}/");
        self.all_datasets().into_iter().filter(|p| p.starts_with(&prefix)).collect()
    }

    /// All engine-side dataset paths, for a full reload.
    pub fn all_datasets(&mut self) -> Vec<String> {
        let mut paths = Vec::new();
        self.net.visit_tensors_mut(|path, _, _| paths.push(path.to_string()));
        paths
    }

    /// Re-read the given engine-side datasets from the checkpoint file
    /// through the verified v2 reader, escalating per dataset:
    /// clean → ECC-corrected → zero-filled. In-memory corruption (weights
    /// flipped after load, or a trusting load of a file whose damage the
    /// ECC can undo) is healed by the re-read; unrecoverable file damage is
    /// zeroed rather than served. Untouched tensors keep their current
    /// values.
    pub fn reload_datasets(&mut self, engine_paths: &[String]) -> Result<ReloadReport, String> {
        let mut ixf = IndexedFile::open(&self.path)
            .map_err(|e| format!("opening {:?} for reload: {e}", self.path))?;
        if let Some(sc) = &self.sidecar {
            ixf.attach_sidecar(sc.clone())
                .map_err(|e| format!("attaching sidecar for {:?}: {e}", self.path))?;
        }
        let mut report = ReloadReport::default();
        restore_in_place(self.fw, &mut self.net, |engine_path, file_path| {
            if !engine_paths.iter().any(|p| p == engine_path) {
                return Ok(None);
            }
            let (ds, recovery) = ixf
                .dataset_correct_or_zero(file_path)
                .map_err(|e| format!("reloading {engine_path:?}: {e}"))?;
            report.absorb(recovery);
            Ok(Some(ds))
        })?;
        Ok(report)
    }

    /// Re-read every tensor ([`Replica::reload_datasets`] over all paths).
    pub fn reload_all(&mut self) -> Result<ReloadReport, String> {
        let all = self.all_datasets();
        self.reload_datasets(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_checkpoint;
    use sefi_hdf5::{Dtype, FileIndex};
    use sefi_models::ModelKind;
    use sefi_tensor::Tensor;

    fn test_dir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "sefi-replica-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg() -> ModelConfig {
        ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 }
    }

    fn write_checkpoint(dir: &Path) -> (PathBuf, EccSidecar, Vec<f32>) {
        let (mut net, _) = build(ModelKind::AlexNet, cfg(), &mut DetRng::new(5));
        let file = save_checkpoint(FrameworkKind::Chainer, &mut net, 3, Dtype::F32);
        let bytes = file.to_bytes_v2();
        let sidecar = EccSidecar::protect(&bytes).unwrap();
        let p = dir.join("ckpt.h5");
        std::fs::write(&p, &bytes).unwrap();
        let logits = net.forward(Tensor::full(&[1, 3, 16, 16], 0.25), false);
        (p, sidecar, logits.data().to_vec())
    }

    fn load(p: &Path, sidecar: Option<EccSidecar>) -> Replica {
        Replica::load_trusting(FrameworkKind::Chainer, ModelKind::AlexNet, cfg(), p, sidecar)
            .unwrap()
    }

    #[test]
    fn trusting_load_matches_clean_checkpoint() {
        let dir = test_dir("clean");
        let (p, sc, clean) = write_checkpoint(&dir);
        let mut r = load(&p, Some(sc));
        let got = r.net_mut().forward(Tensor::full(&[1, 3, 16, 16], 0.25), false);
        assert_eq!(got.data(), &clean[..]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn targeted_reload_heals_in_memory_corruption() {
        let dir = test_dir("mem");
        let (p, sc, clean) = write_checkpoint(&dir);
        let mut r = load(&p, Some(sc));
        {
            let params = &mut r.net_mut().params_mut()[0];
            let w = params.value.data_mut();
            w[0] = f32::from_bits(w[0].to_bits() ^ (1 << 30));
        }
        let layer = r.net_mut().layer_names()[0].to_string();
        let targets = r.layer_datasets(&layer);
        assert!(!targets.is_empty());
        let report = r.reload_datasets(&targets).unwrap();
        assert_eq!(report.reloaded, targets.len());
        assert_eq!((report.corrected, report.zero_filled), (0, 0), "file itself is clean");
        let got = r.net_mut().forward(Tensor::full(&[1, 3, 16, 16], 0.25), false);
        assert_eq!(got.data(), &clean[..]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reload_corrects_single_bit_file_flip_via_sidecar() {
        let dir = test_dir("eccfix");
        let (p, sc, clean) = write_checkpoint(&dir);
        // Flip one payload bit of the first conv kernel *in the file*.
        let mut bytes = std::fs::read(&p).unwrap();
        let index = FileIndex::parse(&bytes).unwrap();
        let entry = index
            .entries()
            .iter()
            .find(|e| e.path == "predictor/conv1/W")
            .expect("chainer conv kernel path")
            .clone();
        // Pick a *positive* element so the blown-up activation is not
        // masked by the following ReLU (the paper's masking effect).
        let i = (0..entry.byte_len / 4)
            .find(|i| {
                let off = entry.offset + 4 * i;
                f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) > 0.0
            })
            .expect("some conv weight is positive");
        bytes[entry.offset + 4 * i + 3] ^= 0x40; // exponent MSB of that f32
        std::fs::write(&p, &bytes).unwrap();
        // Trusting load swallows the corruption...
        let mut r = load(&p, Some(sc));
        let sick = r.net_mut().forward(Tensor::full(&[1, 3, 16, 16], 0.25), false);
        assert_ne!(sick.data(), &clean[..], "flip must actually perturb the model");
        // ...and the targeted reload repairs it through ECC.
        let targets = r.layer_datasets("conv1");
        let report = r.reload_datasets(&targets).unwrap();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.zero_filled, 0);
        let got = r.net_mut().forward(Tensor::full(&[1, 3, 16, 16], 0.25), false);
        assert_eq!(got.data(), &clean[..]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unrecoverable_damage_zero_fills_instead_of_serving_garbage() {
        let dir = test_dir("zero");
        let (p, sc, _) = write_checkpoint(&dir);
        let mut bytes = std::fs::read(&p).unwrap();
        let index = FileIndex::parse(&bytes).unwrap();
        let entry = index.entries().iter().find(|e| e.path == "predictor/conv1/b").unwrap().clone();
        // Two flips in one 64-bit ECC word: beyond SEC-DED.
        bytes[entry.offset] ^= 0x01;
        bytes[entry.offset + 1] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let mut r = load(&p, Some(sc));
        let targets = r.layer_datasets("conv1");
        let report = r.reload_datasets(&targets).unwrap();
        assert_eq!(report.zero_filled, 1);
        let sd = r.net_mut().state_dict();
        let bias = &sd.entries().iter().find(|e| e.path == "conv1/b").unwrap().tensor;
        assert!(bias.data().iter().all(|&v| v == 0.0));
        std::fs::remove_dir_all(dir).ok();
    }
}
