//! Engine-path ⇄ checkpoint-path mapping and tensor layout conversion.
//!
//! Engine parameter paths look like `conv1/W`, `res2a/bn1/gamma`,
//! `fc8/b`. Each framework maps these to its own file schema, and two of
//! them also reorder tensor memory (TensorFlow stores convolution kernels
//! HWIO and dense kernels transposed). Both directions are implemented and
//! tested as exact inverses — a checkpoint round-trip must be lossless or
//! every experiment comparing resumed trainings would be invalid.

use crate::kind::FrameworkKind;
use sefi_tensor::Tensor;

/// Map an engine parameter path to this framework's checkpoint path.
pub fn engine_to_file_path(fw: FrameworkKind, engine_path: &str) -> String {
    let mut out = String::new();
    push_file_path(fw, engine_path, &mut out);
    out
}

/// Append the checkpoint path of `engine_path` to `out` — what
/// [`engine_to_file_path`] returns, built in the caller's buffer so a walk
/// over every tensor reuses one allocation.
pub(crate) fn push_file_path(fw: FrameworkKind, engine_path: &str, out: &mut String) {
    let (dirs, leaf) = match engine_path.rsplit_once('/') {
        Some((dirs, leaf)) => (Some(dirs), leaf),
        None => (None, engine_path),
    };
    let (root, sep, leaf) = match fw {
        FrameworkKind::Chainer => {
            let leaf = match leaf {
                "running_mean" => "avg_mean",
                "running_var" => "avg_var",
                other => other,
            };
            ("predictor/", '/', leaf)
        }
        FrameworkKind::PyTorch => {
            let leaf = match leaf {
                "W" | "gamma" => "weight",
                "b" | "beta" => "bias",
                other => other, // running_mean / running_var keep their names
            };
            ("state_dict/", '.', leaf)
        }
        FrameworkKind::TensorFlow => {
            let leaf = match leaf {
                "W" => "kernel",
                "b" => "bias",
                "running_mean" => "moving_mean",
                "running_var" => "moving_variance",
                other => other,
            };
            ("model_weights/", '/', leaf)
        }
    };
    out.push_str(root);
    if let Some(dirs) = dirs {
        // PyTorch flattens the module path into one dotted key.
        out.extend(dirs.chars().map(|c| if c == '/' { sep } else { c }));
        out.push(sep);
    }
    out.push_str(leaf);
}

/// The checkpoint locations covering one engine layer — what
/// `locations_to_corrupt` should contain to target that layer in this
/// framework (paper Figures 4–5).
///
/// Group-structured layouts return the single enclosing group; PyTorch's
/// flat dotted layout has no per-layer group, so the datasets are listed
/// explicitly. Both forms are valid injector locations.
pub fn file_layer_location(fw: FrameworkKind, engine_layer: &str) -> Vec<String> {
    match fw {
        FrameworkKind::Chainer => vec![format!("predictor/{engine_layer}")],
        FrameworkKind::TensorFlow => vec![format!("model_weights/{engine_layer}")],
        FrameworkKind::PyTorch => {
            // All parameter kinds a layer (or block subtree) may own; the
            // caller filters to those present in the file.
            let module = engine_layer.replace('/', ".");
            ["weight", "bias", "running_mean", "running_var"]
                .iter()
                .map(|leaf| format!("state_dict/{module}.{leaf}"))
                .collect()
        }
    }
}

/// Convert an engine tensor into this framework's storage layout.
/// Returns the stored shape and the reordered data.
pub fn tensor_to_file_layout(
    fw: FrameworkKind,
    engine_path: &str,
    t: &Tensor,
) -> (Vec<usize>, Vec<f32>) {
    if fw != FrameworkKind::TensorFlow || !is_kernel(engine_path) {
        return (t.shape().to_vec(), t.data().to_vec());
    }
    match t.shape() {
        // Convolution kernel OIHW -> HWIO.
        [o, i, kh, kw] => {
            let (o, i, kh, kw) = (*o, *i, *kh, *kw);
            let src = t.data();
            let mut out = vec![0.0f32; src.len()];
            for oo in 0..o {
                for ii in 0..i {
                    for h in 0..kh {
                        for w in 0..kw {
                            out[((h * kw + w) * i + ii) * o + oo] =
                                src[((oo * i + ii) * kh + h) * kw + w];
                        }
                    }
                }
            }
            (vec![kh, kw, i, o], out)
        }
        // Dense kernel [out, in] -> [in, out].
        [o, i] => {
            let (o, i) = (*o, *i);
            let src = t.data();
            let mut out = vec![0.0f32; src.len()];
            for oo in 0..o {
                for ii in 0..i {
                    out[ii * o + oo] = src[oo * i + ii];
                }
            }
            (vec![i, o], out)
        }
        _ => (t.shape().to_vec(), t.data().to_vec()),
    }
}

/// Convert stored data back into the engine layout. `engine_shape` is the
/// shape the network expects; `stored` becomes the tensor's buffer when
/// the layout needs no reordering.
pub fn tensor_from_file_layout(
    fw: FrameworkKind,
    engine_path: &str,
    engine_shape: &[usize],
    stored: Vec<f32>,
) -> Tensor {
    if !needs_reorder(fw, engine_path, engine_shape) {
        return Tensor::from_vec(stored, engine_shape);
    }
    let mut t = Tensor::zeros(engine_shape);
    reorder_from_file(engine_shape, &stored, t.data_mut());
    t
}

/// True when this framework stores the tensor at `engine_path` in a
/// different memory order than the engine: TensorFlow's convolution
/// (HWIO) and dense (transposed) kernels.
pub(crate) fn needs_reorder(fw: FrameworkKind, engine_path: &str, engine_shape: &[usize]) -> bool {
    fw == FrameworkKind::TensorFlow && is_kernel(engine_path) && matches!(engine_shape.len(), 2 | 4)
}

/// Write TensorFlow-ordered `stored` into `out` in engine order, for a
/// kernel of `engine_shape` (OIHW convolution or `[out, in]` dense).
pub(crate) fn reorder_from_file(engine_shape: &[usize], stored: &[f32], out: &mut [f32]) {
    match *engine_shape {
        [o, i, kh, kw] => {
            for oo in 0..o {
                for ii in 0..i {
                    for h in 0..kh {
                        for w in 0..kw {
                            out[((oo * i + ii) * kh + h) * kw + w] =
                                stored[((h * kw + w) * i + ii) * o + oo];
                        }
                    }
                }
            }
        }
        [o, i] => {
            for oo in 0..o {
                for ii in 0..i {
                    out[oo * i + ii] = stored[ii * o + oo];
                }
            }
        }
        _ => unreachable!("needs_reorder admits rank-2 and rank-4 kernels only"),
    }
}

fn is_kernel(engine_path: &str) -> bool {
    engine_path.ends_with("/W")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chainer_paths_match_paper_example() {
        // Paper: "chpt_ch_vgg_e_5.h5/predictor/conv1_1".
        assert_eq!(engine_to_file_path(FrameworkKind::Chainer, "conv1_1/W"), "predictor/conv1_1/W");
        assert_eq!(
            engine_to_file_path(FrameworkKind::Chainer, "res2a/bn1/running_mean"),
            "predictor/res2a/bn1/avg_mean"
        );
    }

    #[test]
    fn tensorflow_paths_match_paper_example() {
        // Paper: "chpt_tf_vgg_e_5.h5/model_weights/_block1_conv1".
        assert_eq!(
            engine_to_file_path(FrameworkKind::TensorFlow, "block1_conv1/W"),
            "model_weights/block1_conv1/kernel"
        );
        assert_eq!(
            engine_to_file_path(FrameworkKind::TensorFlow, "bn1/running_var"),
            "model_weights/bn1/moving_variance"
        );
    }

    #[test]
    fn pytorch_paths_use_dotted_keys() {
        assert_eq!(
            engine_to_file_path(FrameworkKind::PyTorch, "conv1/W"),
            "state_dict/conv1.weight"
        );
        assert_eq!(
            engine_to_file_path(FrameworkKind::PyTorch, "res2a/bn1/gamma"),
            "state_dict/res2a.bn1.weight"
        );
        assert_eq!(
            engine_to_file_path(FrameworkKind::PyTorch, "res2a/bn1/running_var"),
            "state_dict/res2a.bn1.running_var"
        );
    }

    #[test]
    fn top_level_and_nested_paths_map_in_every_framework() {
        let cases = [
            ("W", ["predictor/W", "state_dict/weight", "model_weights/kernel"]),
            (
                "bn/running_mean",
                [
                    "predictor/bn/avg_mean",
                    "state_dict/bn.running_mean",
                    "model_weights/bn/moving_mean",
                ],
            ),
            (
                "a/b/c/beta",
                ["predictor/a/b/c/beta", "state_dict/a.b.c.bias", "model_weights/a/b/c/beta"],
            ),
            ("x/odd", ["predictor/x/odd", "state_dict/x.odd", "model_weights/x/odd"]),
        ];
        for (engine, want) in cases {
            for (fw, want) in FrameworkKind::all().into_iter().zip(want) {
                assert_eq!(engine_to_file_path(fw, engine), want, "{fw:?} {engine}");
                // Appending keeps what the buffer already held.
                let mut buf = "prefix:".to_string();
                push_file_path(fw, engine, &mut buf);
                assert_eq!(buf, format!("prefix:{want}"));
            }
        }
    }

    #[test]
    fn frameworks_give_distinct_paths_for_same_parameter() {
        let paths: Vec<String> =
            FrameworkKind::all().iter().map(|&fw| engine_to_file_path(fw, "conv1/W")).collect();
        assert_ne!(paths[0], paths[1]);
        assert_ne!(paths[1], paths[2]);
        assert_ne!(paths[0], paths[2]);
    }

    #[test]
    fn layer_locations() {
        assert_eq!(
            file_layer_location(FrameworkKind::Chainer, "conv4"),
            vec!["predictor/conv4".to_string()]
        );
        let pt = file_layer_location(FrameworkKind::PyTorch, "conv4");
        assert!(pt.contains(&"state_dict/conv4.weight".to_string()));
        let pt_block = file_layer_location(FrameworkKind::PyTorch, "res2a/conv1");
        assert!(pt_block.contains(&"state_dict/res2a.conv1.weight".to_string()));
    }

    #[test]
    fn tf_conv_kernel_roundtrip_oihw_hwio() {
        let t = Tensor::from_vec((0..2 * 3 * 2 * 2).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let (shape, data) = tensor_to_file_layout(FrameworkKind::TensorFlow, "conv1/W", &t);
        assert_eq!(shape, vec![2, 2, 3, 2]); // HWIO
        assert_ne!(data, t.data()); // actually permuted
        let back = tensor_from_file_layout(FrameworkKind::TensorFlow, "conv1/W", t.shape(), data);
        assert_eq!(back, t);
    }

    #[test]
    fn tf_dense_kernel_is_transposed() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let (shape, data) = tensor_to_file_layout(FrameworkKind::TensorFlow, "fc/W", &t);
        assert_eq!(shape, vec![3, 2]);
        assert_eq!(data, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let back = tensor_from_file_layout(FrameworkKind::TensorFlow, "fc/W", &[2, 3], data);
        assert_eq!(back, t);
    }

    #[test]
    fn non_kernels_and_other_frameworks_are_identity() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        for fw in FrameworkKind::all() {
            let (shape, data) = tensor_to_file_layout(fw, "conv1/b", &t);
            assert_eq!(shape, vec![2]);
            assert_eq!(data, t.data());
        }
        let k = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let (_, data) = tensor_to_file_layout(FrameworkKind::PyTorch, "fc/W", &k);
        assert_eq!(data, k.data());
    }
}
