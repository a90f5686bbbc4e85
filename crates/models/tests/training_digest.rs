//! Pins the bits of training end to end: a few SGD steps and one eval
//! forward of each model at the campaign shape (scale 0.06, 16 px,
//! batch 8), folded into one FNV-1a digest over logits, loss, input and
//! parameter gradients, and the final state dict.
//!
//! The expected digests were recorded before the in-place `BatchNorm2d`
//! and copy-free `Residual`, so any layer rewrite that moves one bit of a
//! resumed training fails here. `ci.sh` runs the suite under both kernel
//! generations, so this also pins simd-versus-naive invariance.

use sefi_models::{build, ModelConfig, ModelKind};
use sefi_nn::{softmax_cross_entropy, Sgd, SgdConfig};
use sefi_rng::DetRng;
use sefi_tensor::Tensor;

const CONFIG: ModelConfig = ModelConfig { scale: 0.06, input_size: 16, num_classes: 10 };
const BATCH: usize = 8;
const STEPS: usize = 3;

struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.shape() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn batch(rng: &mut DetRng) -> (Tensor, Vec<u8>) {
    let mut x = vec![0.0f32; BATCH * 3 * CONFIG.input_size * CONFIG.input_size];
    rng.fill_normal(&mut x, 0.0, 1.0);
    let labels = (0..BATCH).map(|_| rng.below(10) as u8).collect();
    (Tensor::from_vec(x, &[BATCH, 3, CONFIG.input_size, CONFIG.input_size]), labels)
}

fn training_digest(kind: ModelKind) -> u64 {
    let mut rng = DetRng::new(19);
    let (mut net, _) = build(kind, CONFIG, &mut rng);
    let mut opt = Sgd::new(SgdConfig::default());
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for _ in 0..STEPS {
        let (x, labels) = batch(&mut rng);
        let logits = net.forward(x, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &labels);
        h.tensor(&logits);
        h.bytes(&loss.to_bits().to_le_bytes());
        h.tensor(&net.backward(dlogits));
        let mut params = net.params_mut();
        for p in &params {
            h.tensor(p.grad);
        }
        opt.step(&mut params);
        net.zero_grad();
    }
    let (x, _) = batch(&mut rng);
    h.tensor(&net.forward(x, false));
    net.visit_tensors_mut(|path, t, _| {
        h.bytes(path.as_bytes());
        h.tensor(t);
    });
    h.0
}

#[test]
fn resnet50_training_bits_are_pinned() {
    assert_eq!(format!("{:016x}", training_digest(ModelKind::ResNet50)), "ce731d4ea8e436d5");
}

#[test]
fn vgg16_training_bits_are_pinned() {
    assert_eq!(format!("{:016x}", training_digest(ModelKind::Vgg16)), "56317e914128f817");
}

#[test]
fn alexnet_training_bits_are_pinned() {
    assert_eq!(format!("{:016x}", training_digest(ModelKind::AlexNet)), "5d107eb2d8e1ba5d");
}
