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

    fn forward(&mut self, mut x: Tensor, _train: bool) -> Tensor {
        // resize + zip instead of clear + push: the mask buffer is reused
        // across steps and the loop has no per-element capacity check, so
        // it vectorizes.
        self.mask.clear();
        self.mask.resize(x.len(), false);
        for (v, m) in x.data_mut().iter_mut().zip(&mut self.mask) {
            let pass = *v > 0.0;
            *m = pass;
            if !pass {
                *v = 0.0;
            }
        }
        x
    }

    fn backward(&mut self, mut dout: Tensor) -> Tensor {
        assert_eq!(dout.len(), self.mask.len(), "backward before forward");
        for (g, &pass) in dout.data_mut().iter_mut().zip(&self.mask) {
            if !pass {
                *g = 0.0;
            }
        }
        dout
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
}
