//! Property-based tests for the framework layout mappings — the layer on
//! which "equivalent, not equal" injection rests.

use proptest::prelude::*;
use sefi_frameworks::{
    engine_to_file_path, tensor_from_file_layout, tensor_to_file_layout, FrameworkKind,
};
use sefi_tensor::Tensor;

fn any_framework() -> impl Strategy<Value = FrameworkKind> {
    prop_oneof![
        Just(FrameworkKind::Chainer),
        Just(FrameworkKind::PyTorch),
        Just(FrameworkKind::TensorFlow),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layout conversion must be an exact inverse for every kernel shape.
    #[test]
    fn conv_kernel_layout_roundtrips(
        fw in any_framework(),
        o in 1usize..6,
        i in 1usize..6,
        k in 1usize..4,
        seed in any::<u32>(),
    ) {
        let n = o * i * k * k;
        let data: Vec<f32> = (0..n).map(|j| ((j as u32).wrapping_mul(seed) % 1000) as f32 / 37.0).collect();
        let t = Tensor::from_vec(data, &[o, i, k, k]);
        let (shape, stored) = tensor_to_file_layout(fw, "conv/W", &t);
        prop_assert_eq!(shape.iter().product::<usize>(), n);
        let back = tensor_from_file_layout(fw, "conv/W", t.shape(), stored);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn dense_kernel_layout_roundtrips(
        fw in any_framework(),
        o in 1usize..10,
        i in 1usize..10,
    ) {
        let n = o * i;
        let data: Vec<f32> = (0..n).map(|j| j as f32 * 0.7 - 3.0).collect();
        let t = Tensor::from_vec(data, &[o, i]);
        let (_, stored) = tensor_to_file_layout(fw, "fc/W", &t);
        let back = tensor_from_file_layout(fw, "fc/W", t.shape(), stored);
        prop_assert_eq!(back, t);
    }

    /// TensorFlow's stored kernel is a permutation of the engine kernel:
    /// same multiset of values, different order (unless degenerate).
    #[test]
    fn tf_layout_is_a_value_preserving_permutation(
        o in 2usize..5,
        i in 2usize..5,
        k in 2usize..4,
    ) {
        let n = o * i * k * k;
        let data: Vec<f32> = (0..n).map(|j| j as f32).collect();
        let t = Tensor::from_vec(data.clone(), &[o, i, k, k]);
        let (_, stored) = tensor_to_file_layout(FrameworkKind::TensorFlow, "conv/W", &t);
        let mut sorted_in = data;
        let mut sorted_out = stored.clone();
        sorted_in.sort_by(f32::total_cmp);
        sorted_out.sort_by(f32::total_cmp);
        prop_assert_eq!(sorted_in, sorted_out);
        prop_assert_ne!(stored, t.data().to_vec());
    }

    /// Path mapping is injective per framework: distinct engine paths never
    /// collide in the checkpoint. (A layer owns either conv/dense leaves or
    /// batch-norm leaves, mirroring real modules — PyTorch deliberately
    /// maps `W` and `gamma` to the same `.weight` suffix, which is only
    /// unambiguous because no module has both.)
    #[test]
    fn path_mapping_is_injective(
        fw in any_framework(),
        layers in prop::collection::hash_set("[a-z][a-z0-9_]{1,8}", 2..6),
        kinds in prop::collection::vec(any::<bool>(), 6),
    ) {
        let mut seen = std::collections::HashSet::new();
        for (idx, layer) in layers.iter().enumerate() {
            let is_bn = kinds[idx % kinds.len()];
            let leaves: &[&str] = if is_bn {
                &["gamma", "beta", "running_mean", "running_var"]
            } else {
                &["W", "b"]
            };
            for leaf in leaves {
                let path = engine_to_file_path(fw, &format!("{layer}/{leaf}"));
                prop_assert!(seen.insert(path.clone()), "collision at {path}");
            }
        }
    }

    /// Every mapped path lives under the framework's root group.
    #[test]
    fn mapped_paths_are_rooted(fw in any_framework(), layer in "[a-z][a-z0-9_]{1,8}") {
        let path = engine_to_file_path(fw, &format!("{layer}/W"));
        prop_assert!(path.starts_with(fw.root_group()), "{path}");
        sefi_hdf5::validate_path(&path).unwrap();
    }
}
