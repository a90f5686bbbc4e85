//! Activation-guard contract across kernel generations.
//!
//! The envelopes are calibrated once and must hold at every
//! `SEFI_KERNELS` mode: a clean forward never trips (the lane-stable
//! contract makes activations bit-identical across modes, so a mode
//! switch cannot manufacture a false positive), and an exponent-MSB
//! weight flip trips within one batch at every mode. Randomized over
//! nets and corpora with `DetRng` rather than proptest so the mode loop
//! stays sequential — the kernel mode is process-global, hence this
//! test's own binary.

use sefi_nn::{Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU};
use sefi_rng::DetRng;
use sefi_tensor::{set_kernel_mode, KernelMode, Tensor};

fn random_net(rng: &mut DetRng) -> Network {
    let ch = 3 + rng.index(4); // 3..=6 conv channels
    let hidden = 8 + rng.index(17); // 8..=24 dense width
    let mut r = rng.substream("init");
    Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, ch, 3, 1, 1, &mut r)),
        Box::new(ReLU::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2, 2)),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc1", ch * 4 * 4, hidden, &mut r)),
        Box::new(ReLU::new("relu2")),
        Box::new(Dense::new("fc2", hidden, 10, &mut r)),
    ])
}

fn random_corpus(rng: &mut DetRng, batches: usize, batch: usize) -> Vec<Tensor> {
    (0..batches)
        .map(|_| {
            let mut data = vec![0.0f32; batch * 3 * 8 * 8];
            rng.fill_uniform(&mut data, -1.0, 1.0);
            Tensor::from_vec(data, &[batch, 3, 8, 8])
        })
        .collect()
}

/// Flip the exponent MSB of a random first-conv weight element with
/// magnitude in [0.01, 1): its exponent is ≤ 126, so the flip lands at
/// ≥ 2^122 — unmissable by any calibrated envelope. The first conv is
/// chosen because its inputs are raw pixels (never identically zero):
/// a flip deeper in the net can hide behind a dead ReLU unit, which is
/// exactly the masking the paper documents, not a guard failure.
fn flip_a_weight(net: &mut Network, rng: &mut DetRng) {
    let mut params = net.params_mut();
    let pi = (0..params.len()).position(|i| &*params[i].name == "conv1/W").unwrap();
    let w = params[pi].value.data_mut();
    let candidates: Vec<usize> =
        (0..w.len()).filter(|&i| (0.01..1.0).contains(&w[i].abs())).collect();
    let i = candidates[rng.index(candidates.len())];
    w[i] = f32::from_bits(w[i].to_bits() ^ (1 << 30));
}

#[test]
fn guard_contract_holds_at_every_kernel_mode() {
    for (mode, name) in
        [(KernelMode::Simd, "simd"), (KernelMode::Tiled, "tiled"), (KernelMode::Naive, "naive")]
    {
        set_kernel_mode(mode);
        for case in 0..6u64 {
            let mut rng = DetRng::new(0x6A7D_0000 + case);
            let mut net = random_net(&mut rng);
            let corpus = random_corpus(&mut rng.substream("data"), 4, 4);
            let env = net.calibrate_envelopes(&corpus, 0.25, "rand", "f32");

            // Clean forwards never trip — including single-sample
            // re-batchings of the calibration corpus.
            for b in &corpus {
                net.forward_guarded(b.clone(), &env)
                    .unwrap_or_else(|t| panic!("[{name}/{case}] clean batch tripped: {t}"));
                let il = 3 * 8 * 8;
                for s in 0..4 {
                    let one =
                        Tensor::from_vec(b.data()[s * il..(s + 1) * il].to_vec(), &[1, 3, 8, 8]);
                    net.forward_guarded(one, &env)
                        .unwrap_or_else(|t| panic!("[{name}/{case}] clean sample tripped: {t}"));
                }
            }

            // One exponent-MSB flip trips within one batch.
            flip_a_weight(&mut net, &mut rng.substream("flip"));
            assert!(
                net.forward_guarded(corpus[0].clone(), &env).is_err(),
                "[{name}/{case}] exponent-MSB flip served a full batch untripped"
            );
        }
    }
    set_kernel_mode(KernelMode::Simd);
}
