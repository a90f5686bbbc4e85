//! Checkpoint save/load per framework personality.

use crate::kind::FrameworkKind;
use crate::mapping::{
    engine_to_file_path, needs_reorder, push_file_path, reorder_from_file, tensor_to_file_layout,
};
use sefi_hdf5::{Attr, Dataset, DatasetLookup, Dtype, EccSidecar, H5File, LoadPolicy};
use sefi_nn::Network;
use std::borrow::Borrow;

/// Serialize a network into this framework's checkpoint layout at the given
/// storage dtype (the paper's 16/32/64-bit precision studies select this).
pub fn save_checkpoint(fw: FrameworkKind, net: &mut Network, epoch: usize, dtype: Dtype) -> H5File {
    assert!(dtype.is_real(), "checkpoint weight dtype must store real values");
    let mut file = H5File::new();
    let sd = net.state_dict();
    for entry in sd.entries() {
        let path = engine_to_file_path(fw, &entry.path);
        let (shape, data) = tensor_to_file_layout(fw, &entry.path, &entry.tensor);
        let ds = Dataset::from_f32(&data, &shape, dtype)
            .expect("state-dict tensors are shape-consistent");
        file.create_dataset(&path, ds).expect("state-dict paths are unique");
    }
    file.create_dataset(fw.epoch_path(), Dataset::scalar_i64(epoch as i64))
        .expect("epoch path cannot collide with weight paths");
    file.root_mut().set_attr("framework", Attr::Str(fw.id().to_string()));
    file.root_mut().set_attr("format", Attr::Str("sefi-checkpoint-v1".to_string()));
    file
}

/// Restore a network from a checkpoint. Returns the stored epoch.
///
/// The file may have been deliberately corrupted — that is the whole point
/// of the study — so numeric values are accepted as-is (NaN, Inf, extreme).
/// *Structural* problems (missing tensors, wrong shapes, wrong framework)
/// are errors: the corrupter only alters dataset element bytes, never
/// structure, so structure damage means operator error.
pub fn load_checkpoint(
    fw: FrameworkKind,
    net: &mut Network,
    file: &H5File,
) -> Result<usize, String> {
    load_into(fw, net, file, &[])
}

/// Outcome of a policy-driven checkpoint load from file bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointLoad {
    /// The stored epoch.
    pub epoch: usize,
    /// Dataset paths whose sections failed their CRC and were quarantined
    /// (skipped, keeping the network's current in-memory tensor) or
    /// zero-filled, per the policy. Empty for clean loads and for v1 files.
    pub quarantined: Vec<String>,
    /// Dataset paths whose sections failed their CRC but were repaired to
    /// their original bytes by ECC (only under [`LoadPolicy::Correct`] via
    /// [`load_checkpoint_bytes_ecc`]). The restored tensors are exact.
    pub corrected: Vec<String>,
}

/// Restore a network directly from checkpoint *file bytes* under a
/// [`LoadPolicy`] — the storage-fault-tolerant entry point.
///
/// For v2 files a corrupt dataset section is handled per the policy:
/// `Strict` fails the load (same contract as [`load_checkpoint`]);
/// `Quarantine` keeps the network's current in-memory tensor for that
/// dataset (partial recovery — the tensor is simply not restored);
/// `ZeroFill` loads zeros of the stored shape. Either way the damage is
/// itemized in [`CheckpointLoad::quarantined`]. A quarantined *epoch*
/// dataset is unrecoverable — there is no in-memory fallback for the
/// restart position — so it fails the load even under `Quarantine`
/// (under `ZeroFill` it decodes as epoch 0). Superblock or index damage
/// always fails: without a trustworthy index nothing can be attributed.
/// v1 files decode all-or-nothing regardless of policy.
pub fn load_checkpoint_bytes(
    fw: FrameworkKind,
    net: &mut Network,
    bytes: &[u8],
    policy: LoadPolicy,
) -> Result<CheckpointLoad, String> {
    let (file, report) = H5File::from_bytes_with_policy(bytes, policy)
        .map_err(|e| format!("decoding checkpoint: {e}"))?;
    let epoch = load_into(fw, net, &file, &report.quarantined)?;
    Ok(CheckpointLoad { epoch, quarantined: report.quarantined, corrected: report.corrected })
}

/// Restore a network from v2 checkpoint bytes with an ECC parity sidecar
/// available for repair — [`load_checkpoint_bytes`] plus SEC-DED.
///
/// Under [`LoadPolicy::Correct`] a section whose CRC fails is repaired
/// through the sidecar and re-verified; repaired tensors restore their
/// exact original values and are listed in [`CheckpointLoad::corrected`].
/// Damage beyond single-bit-per-word falls back to quarantine semantics,
/// including the fatal quarantined-epoch case.
pub fn load_checkpoint_bytes_ecc(
    fw: FrameworkKind,
    net: &mut Network,
    bytes: &[u8],
    policy: LoadPolicy,
    sidecar: &EccSidecar,
) -> Result<CheckpointLoad, String> {
    let (file, report) = H5File::from_bytes_with_ecc(bytes, policy, sidecar)
        .map_err(|e| format!("decoding checkpoint: {e}"))?;
    let epoch = load_into(fw, net, &file, &report.quarantined)?;
    Ok(CheckpointLoad { epoch, quarantined: report.quarantined, corrected: report.corrected })
}

fn load_into(
    fw: FrameworkKind,
    net: &mut Network,
    file: &H5File,
    quarantined: &[String],
) -> Result<usize, String> {
    if let Some(Attr::Str(stored_fw)) = file.root().attr("framework") {
        if stored_fw != fw.id() {
            return Err(format!("checkpoint was written by {stored_fw:?}, not {:?}", fw.id()));
        }
    }
    // The epoch is read before any tensor is written, so a load that
    // fails on it leaves the network as it was.
    let epoch_path = fw.epoch_path();
    let epoch = match file.dataset(epoch_path) {
        Ok(ds) => ds.get_i64(0).map_err(|e| format!("reading epoch: {e}"))?,
        Err(_) if quarantined.iter().any(|p| p == epoch_path) => {
            return Err(format!(
                "epoch dataset {epoch_path:?} is quarantined — restart position unknown"
            ));
        }
        Err(e) => return Err(format!("reading epoch: {e}")),
    };
    let mut lookup = DatasetLookup::new(file);
    restore_in_place(fw, net, |engine_path, file_path| match lookup.dataset(file_path) {
        Ok(ds) => Ok(Some(ds)),
        // A quarantined dataset is deliberately absent: keep the
        // network's current tensor instead of failing the load.
        Err(_) if quarantined.iter().any(|p| p == file_path) => Ok(None),
        Err(e) => Err(format!("loading {engine_path:?}: {e}")),
    })?;
    Ok(epoch as usize)
}

/// Overwrite `net`'s tensors in place from stored datasets. `resolve` is
/// called once per tensor, in state-dict order, with its engine and
/// checkpoint paths, and returns the dataset to load, `None` to keep the
/// tensor as it is, or an error. Every tensor is resolved and its length
/// checked before the first write, so on `Err` the network is untouched.
///
/// Datasets decode straight into the network's own tensor buffers; the
/// checkpoint path is built in one reused string and TensorFlow's kernel
/// reorders go through one reused scratch buffer, so a restore allocates
/// the same few buffers however many tensors the network has.
pub(crate) fn restore_in_place<D: Borrow<Dataset>>(
    fw: FrameworkKind,
    net: &mut Network,
    mut resolve: impl FnMut(&str, &str) -> Result<Option<D>, String>,
) -> Result<(), String> {
    let mut sources = Vec::with_capacity(net.num_tensors());
    let mut file_path = String::new();
    let mut failure = None;
    net.visit_tensors_mut(|engine_path, t, _| {
        if failure.is_some() {
            return;
        }
        file_path.clear();
        push_file_path(fw, engine_path, &mut file_path);
        match resolve(engine_path, &file_path) {
            Ok(Some(ds)) if ds.borrow().len() != t.len() => {
                failure = Some(format!(
                    "tensor {file_path:?} has {} entries, network expects {}",
                    ds.borrow().len(),
                    t.len()
                ));
            }
            Ok(source) => sources.push(source),
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let mut scratch = Vec::new();
    let mut sources = sources.into_iter();
    net.visit_tensors_mut(|engine_path, t, _| {
        let Some(ds) = sources.next().expect("one source per tensor") else { return };
        let ds = ds.borrow();
        if needs_reorder(fw, engine_path, t.shape()) {
            scratch.resize(ds.len(), 0.0);
            ds.read_f32_into(&mut scratch).expect("length checked before the first write");
            // Kernels are rank 2 or 4: copy the shape out of the tensor
            // being written without allocating.
            let mut dims = [0; 4];
            let dims = &mut dims[..t.shape().len()];
            dims.copy_from_slice(t.shape());
            reorder_from_file(dims, &scratch, t.data_mut());
        } else {
            ds.read_f32_into(t.data_mut()).expect("length checked before the first write");
        }
    });
    Ok(())
}

/// The restore [`restore_in_place`] replaced, kept as its test oracle and
/// built from nothing the new one uses: per tensor it formats the
/// checkpoint path, decodes entry by entry through `get_f64`, and undoes
/// the file layout by inverting the permutation [`tensor_to_file_layout`]
/// applies to an index tensor, then swaps in a newly built tensor.
#[cfg(test)]
pub(crate) fn restore_by_copy<D: Borrow<Dataset>>(
    fw: FrameworkKind,
    net: &mut Network,
    mut resolve: impl FnMut(&str, &str) -> Result<Option<D>, String>,
) -> Result<(), String> {
    let mut sources = Vec::new();
    let mut failure = None;
    net.visit_tensors_mut(|engine_path, t, _| {
        if failure.is_some() {
            return;
        }
        let file_path = engine_to_file_path(fw, engine_path);
        match resolve(engine_path, &file_path) {
            Ok(Some(ds)) if ds.borrow().len() != t.len() => {
                failure = Some(format!(
                    "tensor {file_path:?} has {} entries, network expects {}",
                    ds.borrow().len(),
                    t.len()
                ));
            }
            Ok(source) => sources.push(source),
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let mut sources = sources.into_iter();
    net.visit_tensors_mut(|engine_path, t, _| {
        if let Some(ds) = sources.next().expect("one source per tensor") {
            let ds = ds.borrow();
            let index =
                sefi_tensor::Tensor::from_vec((0..t.len()).map(|i| i as f32).collect(), t.shape());
            let (_, stored_from) = tensor_to_file_layout(fw, engine_path, &index);
            let mut data = vec![0.0; t.len()];
            for (stored, from) in stored_from.into_iter().enumerate() {
                data[from as usize] = ds.get_f64(stored).expect("length checked") as f32;
            }
            *t = sefi_tensor::Tensor::from_vec(data, t.shape());
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sefi_models::{alexnet, ModelConfig};
    use sefi_rng::DetRng;
    use sefi_tensor::Tensor;

    fn small_net() -> Network {
        let cfg = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
        alexnet(cfg, &mut DetRng::new(5)).0
    }

    /// Every tensor's bits, in state-dict order: equality that sees NaN
    /// payloads.
    fn tensor_bits(net: &mut Network) -> Vec<(String, Vec<u32>)> {
        let mut out = Vec::new();
        net.visit_tensors_mut(|path, t, _| {
            out.push((path.to_string(), t.data().iter().map(|v| v.to_bits()).collect()))
        });
        out
    }

    /// Overwrite random entries of every real dataset with random bit
    /// patterns, signalling NaNs of each width among them.
    fn scribble(file: &mut H5File, rng: &mut DetRng) {
        let paths = file.dataset_paths();
        for _ in 0..60 {
            let ds = file.dataset_mut(&paths[rng.index(paths.len())]).unwrap();
            if !ds.dtype().is_real() {
                continue;
            }
            let i = rng.index(ds.len());
            let bits = match (rng.below(3), ds.dtype()) {
                (0, Dtype::F16) => 0x7c01,
                (0, Dtype::BF16) => 0x7f81,
                (0, Dtype::F32) => 0x7f80_0001,
                (0, Dtype::F64) => 0x7ff0_0000_0000_0001,
                _ => rng.next_u64(),
            };
            ds.set_bits(i, bits & (u64::MAX >> (64 - 8 * ds.dtype().size()))).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]
        #[test]
        fn in_place_restore_matches_the_copying_restore(seed in proptest::prelude::any::<u64>()) {
            let cfg = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
            let dtypes = [Dtype::F16, Dtype::BF16, Dtype::F32, Dtype::F64, Dtype::I8Q];
            let mut rng = DetRng::new(seed);
            for model in sefi_models::ModelKind::all() {
                let (mut source, _) = sefi_models::build(model, cfg, &mut DetRng::new(5));
                let (target, _) = sefi_models::build(model, cfg, &mut DetRng::new(99));
                for fw in FrameworkKind::all() {
                    for dtype in dtypes {
                        let mut file = save_checkpoint(fw, &mut source, 4, dtype);
                        scribble(&mut file, &mut rng);
                        let resolve = |_: &str, p: &str| file.dataset(p).map(Some).map_err(|e| e.to_string());
                        let (mut fast, mut slow) = (target.clone(), target.clone());
                        restore_in_place(fw, &mut fast, resolve).unwrap();
                        restore_by_copy(fw, &mut slow, resolve).unwrap();
                        proptest::prop_assert_eq!(
                            tensor_bits(&mut fast),
                            tensor_bits(&mut slow),
                            "{:?} {:?} {:?}", fw, model, dtype
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_failed_in_place_restore_leaves_every_tensor_as_it_was() {
        let cfg = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
        for model in sefi_models::ModelKind::all() {
            let (mut source, _) = sefi_models::build(model, cfg, &mut DetRng::new(5));
            for fw in FrameworkKind::all() {
                let file = save_checkpoint(fw, &mut source, 4, Dtype::F64);
                let (mut target, _) = sefi_models::build(model, cfg, &mut DetRng::new(99));
                let before = tensor_bits(&mut target);
                let last = engine_to_file_path(fw, &before.last().unwrap().0);
                // The last tensor in walk order fails, after every other one
                // resolved: missing, then the wrong length.
                let missing = restore_in_place(fw, &mut target, |_, p| {
                    if p == last {
                        Err(format!("no {p}"))
                    } else {
                        Ok(file.dataset(p).ok())
                    }
                });
                assert!(missing.unwrap_err().contains(&last));
                assert_eq!(tensor_bits(&mut target), before, "{fw:?} {model:?}");
                let short = Dataset::zeros(&[1], Dtype::F64);
                let wrong = restore_in_place(fw, &mut target, |_, p| {
                    Ok(Some(if p == last { &short } else { file.dataset(p).unwrap() }))
                });
                assert!(wrong.unwrap_err().contains("entries"));
                assert_eq!(tensor_bits(&mut target), before, "{fw:?} {model:?}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_outputs_for_all_frameworks() {
        for fw in FrameworkKind::all() {
            let mut a = small_net();
            let ck = save_checkpoint(fw, &mut a, 20, Dtype::F64);
            let mut b = {
                let cfg = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
                alexnet(cfg, &mut DetRng::new(99)).0
            };
            let epoch = load_checkpoint(fw, &mut b, &ck).unwrap();
            assert_eq!(epoch, 20);
            let x = Tensor::full(&[1, 3, 16, 16], 0.25);
            assert_eq!(
                a.forward(x.clone(), false).data(),
                b.forward(x, false).data(),
                "{fw:?} roundtrip changed the model"
            );
        }
    }

    #[test]
    fn f32_checkpoint_is_lossless_for_f32_engine() {
        let mut a = small_net();
        let ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::F32);
        let mut b = small_net();
        load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap();
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn f16_checkpoint_quantizes() {
        let mut a = small_net();
        let ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::F16);
        let mut b = small_net();
        load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap();
        // Quantized but close.
        let sa = a.state_dict();
        let sb = b.state_dict();
        assert_ne!(sa, sb);
        for (ea, eb) in sa.entries().iter().zip(sb.entries()) {
            for (&x, &y) in ea.tensor.data().iter().zip(eb.tensor.data()) {
                assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()), "{}: {x} vs {y}", ea.path);
            }
        }
    }

    #[test]
    fn bf16_checkpoint_quantizes() {
        let mut a = small_net();
        let ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::BF16);
        let mut b = small_net();
        load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap();
        let sa = a.state_dict();
        let sb = b.state_dict();
        assert_ne!(sa, sb);
        // bf16 keeps 8 mantissa bits (implicit one included): relative
        // error bounded by 2^-8 after round-to-nearest-even.
        for (ea, eb) in sa.entries().iter().zip(sb.entries()) {
            for (&x, &y) in ea.tensor.data().iter().zip(eb.tensor.data()) {
                assert!(
                    (x - y).abs() <= (1.0 / 256.0) * (1.0 + x.abs()),
                    "{}: {x} vs {y}",
                    ea.path
                );
            }
        }
    }

    #[test]
    fn i8q_checkpoint_quantizes_per_tensor() {
        let mut a = small_net();
        let ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 3, Dtype::I8Q);
        for p in ck.dataset_paths() {
            let ds = ck.dataset(&p).unwrap();
            if ds.dtype() == Dtype::I8Q {
                assert!(ds.scale() > 0.0);
            }
        }
        let mut b = small_net();
        let epoch = load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap();
        assert_eq!(epoch, 3);
        // Each tensor dequantizes to within half a quantization step of
        // its own scale (max_abs / 127).
        for (ea, eb) in a.state_dict().entries().iter().zip(b.state_dict().entries()) {
            let max_abs = ea.tensor.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            for (&x, &y) in ea.tensor.data().iter().zip(eb.tensor.data()) {
                assert!((x - y).abs() <= 0.5 * step + 1e-6, "{}: {x} vs {y}", ea.path);
            }
        }
    }

    #[test]
    fn bf16_v2_bytes_roundtrip_under_every_policy_and_ecc() {
        let fw = FrameworkKind::Chainer;
        let mut a = small_net();
        let bytes = save_checkpoint(fw, &mut a, 9, Dtype::BF16).to_bytes_v2();
        for policy in [LoadPolicy::Strict, LoadPolicy::Quarantine, LoadPolicy::ZeroFill] {
            let mut b = other_net();
            let load = load_checkpoint_bytes(fw, &mut b, &bytes, policy).unwrap();
            assert_eq!(load.epoch, 9);
            assert!(load.quarantined.is_empty());
        }
        // ECC repairs a flipped bf16 payload bit exactly.
        let sidecar = EccSidecar::protect(&bytes).unwrap();
        let mut bad = bytes.clone();
        flip_in_section(&mut bad, "predictor/conv1/W");
        let mut b = other_net();
        let load =
            load_checkpoint_bytes_ecc(fw, &mut b, &bad, LoadPolicy::Correct, &sidecar).unwrap();
        assert_eq!(load.corrected, vec!["predictor/conv1/W".to_string()]);
        let mut c = other_net();
        load_checkpoint_bytes(fw, &mut c, &bytes, LoadPolicy::Strict).unwrap();
        assert_eq!(b.state_dict(), c.state_dict(), "repair restores the exact bf16 tensors");
    }

    #[test]
    fn wrong_framework_is_rejected() {
        let mut a = small_net();
        let ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::F32);
        let err = load_checkpoint(FrameworkKind::TensorFlow, &mut a, &ck).unwrap_err();
        assert!(err.contains("written by"), "{err}");
    }

    #[test]
    fn checkpoint_structures_differ_across_frameworks() {
        let mut a = small_net();
        let ch = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::F32);
        let tf = save_checkpoint(FrameworkKind::TensorFlow, &mut a, 1, Dtype::F32);
        let pt = save_checkpoint(FrameworkKind::PyTorch, &mut a, 1, Dtype::F32);
        assert!(ch.dataset("predictor/conv1/W").is_ok());
        assert!(tf.dataset("model_weights/conv1/kernel").is_ok());
        assert!(pt.dataset("state_dict/conv1.weight").is_ok());
        // Same logical kernel, different stored bytes for TF (HWIO).
        let ch_k = ch.dataset("predictor/conv1/W").unwrap();
        let tf_k = tf.dataset("model_weights/conv1/kernel").unwrap();
        assert_eq!(ch_k.len(), tf_k.len());
        assert_ne!(ch_k.to_f32_vec(), tf_k.to_f32_vec());
        assert_ne!(ch_k.shape(), tf_k.shape());
    }

    #[test]
    fn missing_tensor_is_a_structural_error() {
        let mut a = small_net();
        let mut ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 1, Dtype::F32);
        // Rebuild the file without one dataset.
        let paths = ck.dataset_paths();
        let mut pruned = H5File::new();
        for p in paths.iter().filter(|p| !p.ends_with("conv3/W")) {
            pruned.create_dataset(p, ck.dataset(p).unwrap().clone()).unwrap();
        }
        ck = pruned;
        let mut b = other_net();
        let before = b.state_dict();
        let err = load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap_err();
        assert!(err.contains("conv3"), "{err}");
        assert_eq!(b.state_dict(), before, "a failed load must leave the network untouched");
    }

    #[test]
    fn policy_loader_clean_v2_bytes_roundtrip() {
        let fw = FrameworkKind::Chainer;
        let mut a = small_net();
        let bytes = save_checkpoint(fw, &mut a, 20, Dtype::F64).to_bytes_v2();
        let mut b = small_net();
        let load = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::Strict).unwrap();
        assert_eq!(load, CheckpointLoad { epoch: 20, quarantined: vec![], corrected: vec![] });
        assert_eq!(a.state_dict(), b.state_dict());
    }

    /// Flip one byte inside a named dataset's v2 payload section.
    fn flip_in_section(bytes: &mut [u8], path: &str) {
        let idx = sefi_hdf5::FileIndex::parse(bytes).unwrap();
        let e = idx.entry(path).unwrap();
        bytes[e.offset] ^= 0x01;
    }

    fn other_net() -> Network {
        let cfg = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
        alexnet(cfg, &mut DetRng::new(99)).0
    }

    #[test]
    fn single_payload_flip_strict_errors_quarantine_recovers() {
        let fw = FrameworkKind::Chainer;
        let mut a = small_net();
        let mut bytes = save_checkpoint(fw, &mut a, 20, Dtype::F32).to_bytes_v2();
        flip_in_section(&mut bytes, "predictor/conv1/W");

        let mut b = other_net();
        let err = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::Strict).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Quarantine: everything except conv1/W restores; conv1/W keeps the
        // network's own (differently seeded) in-memory tensor.
        let mut b = other_net();
        let before = b.state_dict();
        let load = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::Quarantine).unwrap();
        assert_eq!(load.epoch, 20);
        assert_eq!(load.quarantined, vec!["predictor/conv1/W".to_string()]);
        let sa = a.state_dict();
        for ((eb, ea), e0) in
            b.state_dict().entries().iter().zip(sa.entries()).zip(before.entries())
        {
            if engine_to_file_path(fw, &eb.path) == "predictor/conv1/W" {
                assert_eq!(eb.tensor, e0.tensor, "quarantined tensor kept as-is");
                assert_ne!(eb.tensor, ea.tensor);
            } else {
                assert_eq!(eb.tensor, ea.tensor, "{} restored", eb.path);
            }
        }

        // ZeroFill: the damaged tensor loads as zeros instead.
        let mut b = other_net();
        let load = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::ZeroFill).unwrap();
        assert_eq!(load.quarantined, vec!["predictor/conv1/W".to_string()]);
        let zeroed = b
            .state_dict()
            .entries()
            .iter()
            .find(|e| engine_to_file_path(fw, &e.path) == "predictor/conv1/W")
            .unwrap()
            .tensor
            .clone();
        assert!(zeroed.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quarantined_epoch_fails_the_load() {
        let fw = FrameworkKind::Chainer;
        let mut a = small_net();
        let mut bytes = save_checkpoint(fw, &mut a, 20, Dtype::F32).to_bytes_v2();
        flip_in_section(&mut bytes, fw.epoch_path());
        let mut b = other_net();
        let before = b.state_dict();
        let err = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::Quarantine).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        assert_eq!(b.state_dict(), before, "a failed load must leave the network untouched");
        // ZeroFill substitutes a zeroed scalar: epoch 0, flagged as damage.
        let mut b = other_net();
        let load = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::ZeroFill).unwrap();
        assert_eq!(load.epoch, 0);
        assert_eq!(load.quarantined, vec![fw.epoch_path().to_string()]);
    }

    #[test]
    fn ecc_loader_repairs_flipped_weights_and_epoch_exactly() {
        let fw = FrameworkKind::Chainer;
        let mut a = small_net();
        let bytes = save_checkpoint(fw, &mut a, 20, Dtype::F32).to_bytes_v2();
        let sidecar = EccSidecar::protect(&bytes).unwrap();
        let mut bad = bytes.clone();
        flip_in_section(&mut bad, "predictor/conv1/W");
        flip_in_section(&mut bad, fw.epoch_path());

        // Without the sidecar the epoch flip is fatal under Quarantine…
        let mut b = other_net();
        assert!(load_checkpoint_bytes(fw, &mut b, &bad, LoadPolicy::Quarantine).is_err());
        // …with it, both sections repair and the load is bit-exact.
        let mut b = other_net();
        let load =
            load_checkpoint_bytes_ecc(fw, &mut b, &bad, LoadPolicy::Correct, &sidecar).unwrap();
        assert_eq!(load.epoch, 20);
        assert!(load.quarantined.is_empty());
        assert_eq!(
            load.corrected,
            vec!["predictor/conv1/W".to_string(), fw.epoch_path().to_string()]
        );
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn policy_loader_accepts_v1_bytes() {
        let fw = FrameworkKind::PyTorch;
        let mut a = small_net();
        let bytes = save_checkpoint(fw, &mut a, 7, Dtype::F32).to_bytes();
        let mut b = other_net();
        let load = load_checkpoint_bytes(fw, &mut b, &bytes, LoadPolicy::Quarantine).unwrap();
        assert_eq!(load.epoch, 7);
        assert!(load.quarantined.is_empty());
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn corrupted_values_load_fine() {
        // Numeric corruption must NOT be rejected by the loader.
        let mut a = small_net();
        let mut ck = save_checkpoint(FrameworkKind::Chainer, &mut a, 20, Dtype::F32);
        let ds = ck.dataset_mut("predictor/conv1/W").unwrap();
        ds.set_f64(0, f64::NAN).unwrap();
        ds.set_f64(1, 1e38).unwrap();
        let mut b = small_net();
        let epoch = load_checkpoint(FrameworkKind::Chainer, &mut b, &ck).unwrap();
        assert_eq!(epoch, 20);
        assert!(b.has_non_finite());
    }
}
