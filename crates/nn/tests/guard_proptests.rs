//! Property-based tests for the activation-envelope guards.
//!
//! Two properties over randomized networks, corpora, and slack:
//! a clean model never trips envelopes calibrated on its own corpus
//! (under any re-batching — per-sample activations are batch-composition
//! invariant under the lane-stable kernel contract), and one forced
//! exponent-MSB flip of a live first-conv weight trips within one batch.

use proptest::prelude::*;
use sefi_nn::{Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU};
use sefi_rng::DetRng;
use sefi_tensor::Tensor;

fn net(seed: u64, ch: usize) -> Network {
    let mut rng = DetRng::new(seed);
    Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, ch, 3, 1, 1, &mut rng)),
        Box::new(ReLU::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2, 2)),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", ch * 4 * 4, 10, &mut rng)),
    ])
}

fn corpus(seed: u64, batches: usize, batch: usize) -> Vec<Tensor> {
    let mut rng = DetRng::new(seed).substream("corpus");
    (0..batches)
        .map(|_| {
            let mut data = vec![0.0f32; batch * 3 * 8 * 8];
            rng.fill_uniform(&mut data, -1.0, 1.0);
            Tensor::from_vec(data, &[batch, 3, 8, 8])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_forward_never_trips_any_rebatching(
        seed in 0u64..1_000_000,
        ch in 3usize..6,
        slack in 0.0f32..1.0,
    ) {
        let mut n = net(seed, ch);
        let batches = corpus(seed, 3, 4);
        let env = n.calibrate_envelopes(&batches, slack, "prop", "f32");
        let il = 3 * 8 * 8;
        for b in &batches {
            prop_assert!(n.forward_guarded(b.clone(), &env).is_ok(), "full batch tripped");
            for s in 0..4 {
                let one =
                    Tensor::from_vec(b.data()[s * il..(s + 1) * il].to_vec(), &[1, 3, 8, 8]);
                prop_assert!(n.forward_guarded(one, &env).is_ok(), "re-batched sample tripped");
            }
        }
    }

    #[test]
    fn exponent_msb_flip_trips_within_one_batch(
        seed in 0u64..1_000_000,
        pick in 0usize..1024,
        slack in 0.0f32..1.0,
    ) {
        let mut n = net(seed, 4);
        let batches = corpus(seed, 3, 4);
        let env = n.calibrate_envelopes(&batches, slack, "prop", "f32");
        {
            let mut params = n.params_mut();
            let pi = (0..params.len()).position(|i| &*params[i].name == "conv1/W").unwrap();
            let w = params[pi].value.data_mut();
            // Mid-range magnitude: exponent ≤ 126, so the flip explodes.
            let candidates: Vec<usize> =
                (0..w.len()).filter(|&i| (0.01..1.0).contains(&w[i].abs())).collect();
            prop_assume!(!candidates.is_empty());
            let i = candidates[pick % candidates.len()];
            w[i] = f32::from_bits(w[i].to_bits() ^ (1 << 30));
        }
        prop_assert!(
            n.forward_guarded(batches[0].clone(), &env).is_err(),
            "flip served a full batch untripped"
        );
    }
}
