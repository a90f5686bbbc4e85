//! Steady-state training must not grow any kernel workspace: after the
//! first step has sized every buffer (im2col columns, GEMM pack panels,
//! gradient scratch), subsequent steps reuse them verbatim. This is the
//! "zero per-step kernel allocations" guarantee of the blocked kernel
//! generations (simd and tiled), enforced via the global growth counter.
//!
//! Kept in its own integration-test binary: the counter is process-global,
//! and unrelated tests running concurrently would make it drift. The tests
//! here take [`SERIAL`] so they do not drift it for each other either.

use sefi_nn::{
    softmax_cross_entropy, AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, Layer, MaxPool2d,
    Network, ReLU, Residual, Sgd, SgdConfig,
};
use sefi_rng::DetRng;
use sefi_tensor::{set_kernel_mode, workspace_alloc_events, KernelMode, Tensor};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn training_steps_allocate_no_workspace_after_warmup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_mode(KernelMode::Simd);
    let mut rng = DetRng::new(7);
    let mut net = Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, 4, 3, 1, 1, &mut rng).skip_input_grad()),
        Box::new(ReLU::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2, 2)),
        Box::new(Conv2d::new("conv2", 4, 6, 3, 1, 1, &mut rng)),
        Box::new(ReLU::new("relu2")),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", 6 * 8 * 8, 10, &mut rng)),
    ]);
    let x = Tensor::from_vec(
        (0..4 * 3 * 16 * 16).map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0).collect(),
        &[4, 3, 16, 16],
    );
    let labels: Vec<u8> = vec![0, 3, 7, 9];

    let step = |net: &mut Network| {
        let logits = net.forward(x.clone(), true);
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        net.backward(dlogits);
        net.zero_grad();
    };

    // Warm-up: first step sizes every buffer for this geometry.
    step(&mut net);
    assert!(net.workspace_bytes() > 0, "conv layers should retain workspace");
    let retained = net.workspace_bytes();

    let settled = workspace_alloc_events();
    for _ in 0..5 {
        step(&mut net);
    }
    assert_eq!(
        workspace_alloc_events(),
        settled,
        "steady-state steps must not grow any kernel workspace"
    );
    assert_eq!(net.workspace_bytes(), retained, "retained bytes must be stable");
}

/// A stem, an identity-shortcut bottleneck and a projecting one, each with
/// batch norm: every kind of scratch ResNet50 retains.
fn bn_residual_net() -> Network {
    let mut rng = DetRng::new(11);
    let rng = &mut rng;
    let identity: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv1", 8, 4, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new("bn1", 4)),
        Box::new(ReLU::new("relu1")),
        Box::new(Conv2d::new("conv2", 4, 8, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new("bn2", 8)),
    ];
    let down: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv1", 8, 12, 3, 2, 1, rng)),
        Box::new(BatchNorm2d::new("bn1", 12)),
    ];
    let proj: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("proj", 8, 12, 1, 2, 0, rng)),
        Box::new(BatchNorm2d::new("proj_bn", 12)),
    ];
    Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, 8, 3, 1, 1, rng).skip_input_grad()),
        Box::new(BatchNorm2d::new("bn1", 8)),
        Box::new(ReLU::new("relu1")),
        Box::new(Residual::new("res2a", identity, vec![])),
        Box::new(Residual::new("res3a", down, proj)),
        Box::new(AvgPool2d::new("pool", 4, 4)),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", 12, 10, rng)),
    ])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn bn_residual_scratch_is_stable_and_clones_empty_then_train_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_mode(KernelMode::Simd);
    let x = Tensor::from_vec(
        (0..4 * 3 * 8 * 8).map(|i| ((i * 53 % 97) as f32 - 48.0) / 24.0).collect(),
        &[4, 3, 8, 8],
    );
    let labels: Vec<u8> = vec![1, 4, 6, 9];
    // One SGD step; returns the logits and the input gradient.
    let step = |net: &mut Network, opt: &mut Sgd| {
        let logits = net.forward(x.clone(), true);
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        let dx = net.backward(dlogits);
        opt.step(&mut net.params_mut());
        net.zero_grad();
        (bits(&logits), bits(&dx))
    };

    let mut net = bn_residual_net();
    let mut opt = Sgd::new(SgdConfig::default());
    step(&mut net, &mut opt);
    let retained = net.workspace_bytes();
    assert!(retained > 0, "conv and batch-norm layers should retain scratch");
    for _ in 0..3 {
        step(&mut net, &mut opt);
    }
    assert_eq!(net.workspace_bytes(), retained, "retained bytes must be stable");

    // The template-clone contract: a clone of a trained network carries its
    // parameters and state but no scratch, and trains bit-identically.
    let mut twin = net.clone();
    let mut twin_opt = opt.clone();
    assert_eq!(twin.workspace_bytes(), 0, "a clone must start with empty scratch");
    for _ in 0..3 {
        assert_eq!(step(&mut twin, &mut twin_opt), step(&mut net, &mut opt));
    }
    let eval = |net: &mut Network| bits(&net.forward(x.clone(), false));
    assert_eq!(eval(&mut twin), eval(&mut net));
    let (a, b) = (twin.state_dict(), net.state_dict());
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.entries().iter().zip(b.entries()) {
        assert_eq!(ea.path, eb.path);
        assert_eq!(bits(&ea.tensor), bits(&eb.tensor), "{}", ea.path);
    }
    assert_eq!(twin.workspace_bytes(), retained);
}
