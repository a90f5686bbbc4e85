//! ReLU activation.

use super::Layer;
use sefi_tensor::Tensor;

/// Rectified linear unit: `max(0, x)` elementwise.
#[derive(Clone)]
pub struct ReLU {
    name: String,
    mask: Vec<bool>,
}

impl ReLU {
    /// A named ReLU.
    pub fn new(name: &str) -> Self {
        ReLU { name: name.to_string(), mask: Vec::new() }
    }
}

impl Layer for ReLU {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        relu_forward(x.data_mut(), &mut self.mask, train);
        x
    }

    fn backward(&mut self, mut dout: Tensor) -> Tensor {
        relu_backward(dout.data_mut(), &self.mask);
        dout
    }
}

/// `max(0, x)` in place (`NaN > 0.0` is false, so NaN clamps to zero). A
/// training forward records in `mask` which elements passed; an eval
/// forward leaves `mask` empty, so a backward after it trips the "backward
/// before forward" assert instead of reading a stale mask.
///
/// The loops select rather than store conditionally: a select vectorizes
/// on every target, while a conditional store needs masked vector stores,
/// which the baseline x86-64 target lacks; there it is a branch that
/// mispredicts on about half of the random-signed activations. `resize` + `zip` reuses the
/// mask buffer across steps with no per-element capacity check.
pub(crate) fn relu_forward(x: &mut [f32], mask: &mut Vec<bool>, train: bool) {
    mask.clear();
    if !train {
        for v in x {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
        return;
    }
    mask.resize(x.len(), false);
    for (v, m) in x.iter_mut().zip(mask.iter_mut()) {
        *m = *v > 0.0;
        *v = if *m { *v } else { 0.0 };
    }
}

/// Zero the upstream gradient wherever the training forward clamped.
pub(crate) fn relu_backward(dout: &mut [f32], mask: &[bool]) {
    assert_eq!(dout.len(), mask.len(), "backward before forward");
    for (g, &pass) in dout.iter_mut().zip(mask) {
        *g = if pass { *g } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negative_and_routes_gradient() {
        let mut r = ReLU::new("r");
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]);
        let y = r.forward(x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let d = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4]);
        let dx = r.backward(d);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn nan_inputs_do_not_pass() {
        // NaN > 0.0 is false, so a corrupted activation is blocked rather
        // than propagated by ReLU (propagation happens through other paths).
        let mut r = ReLU::new("r");
        let x = Tensor::from_vec(vec![f32::NAN, 1.0], &[2]);
        let y = r.forward(x, true);
        assert_eq!(y.data()[0], 0.0);
        assert_eq!(y.data()[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_eval_forward_panics() {
        let mut r = ReLU::new("r");
        let _ = r.forward(Tensor::from_vec(vec![-1.0, 2.0], &[2]), true);
        let y = r.forward(Tensor::from_vec(vec![-1.0, 2.0], &[2]), false);
        assert_eq!(y.data(), &[0.0, 2.0]);
        r.backward(Tensor::from_vec(vec![1.0, 1.0], &[2]));
    }
}
