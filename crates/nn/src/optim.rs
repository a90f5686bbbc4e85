//! SGD with momentum and weight decay.

use crate::layers::ParamRefMut;
use sefi_tensor::Tensor;

/// Hyperparameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Classical momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 5e-4 }
    }
}

/// Stochastic gradient descent.
///
/// Velocity buffers are keyed by the position of each parameter in the
/// network's deterministic traversal order, so an optimizer stays attached
/// to "its" parameters across steps without interior references.
#[derive(Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// New optimizer (velocities lazily initialized on first step).
    pub fn new(config: SgdConfig) -> Self {
        Sgd { config, velocity: Vec::new() }
    }

    /// The hyperparameters.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Change the learning rate (schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// The momentum (velocity) buffers, in parameter-traversal order.
    /// Empty until the first step.
    pub fn velocities(&self) -> &[Tensor] {
        &self.velocity
    }

    /// Install velocity buffers (checkpoint restore). Shapes are validated
    /// on the next [`Sgd::step`] against the parameter set.
    pub fn set_velocities(&mut self, velocities: Vec<Tensor>) {
        self.velocity = velocities;
    }

    /// Apply one update step to parameters in traversal order.
    pub fn step(&mut self, params: &mut [ParamRefMut<'_>]) {
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer bound to a different parameter set"
        );
        let c = self.config;
        for (p, vel) in params.iter_mut().zip(&mut self.velocity) {
            let v = vel.data_mut();
            let w = p.value.data_mut();
            let g = p.grad.data();
            for ((wi, vi), &gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                let grad = gi + c.weight_decay * *wi;
                *vi = c.momentum * *vi - c.lr * grad;
                *wi += *vi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(v: &[f32]) -> (Tensor, Tensor) {
        (Tensor::from_vec(v.to_vec(), &[v.len()]), Tensor::zeros(&[v.len()]))
    }

    #[test]
    fn plain_sgd_descends() {
        let (mut w, mut g) = make(&[1.0, -2.0]);
        g.data_mut().copy_from_slice(&[0.5, -0.5]);
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 });
        opt.step(&mut [ParamRefMut { name: "w".into(), value: &mut w, grad: &mut g }]);
        assert_eq!(w.data(), &[0.95, -1.95]);
    }

    #[test]
    fn momentum_accumulates() {
        let (mut w, mut g) = make(&[0.0]);
        g.data_mut()[0] = 1.0;
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 0.0 });
        opt.step(&mut [ParamRefMut { name: "w".into(), value: &mut w, grad: &mut g }]);
        assert!((w.data()[0] - (-0.1)).abs() < 1e-7);
        opt.step(&mut [ParamRefMut { name: "w".into(), value: &mut w, grad: &mut g }]);
        // v = 0.9*(-0.1) - 0.1 = -0.19; w = -0.1 - 0.19 = -0.29
        assert!((w.data()[0] - (-0.29)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let (mut w, mut g) = make(&[10.0]);
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.1 });
        opt.step(&mut [ParamRefMut { name: "w".into(), value: &mut w, grad: &mut g }]);
        assert!((w.data()[0] - 9.9).abs() < 1e-6); // -lr * wd * w = -0.1
    }

    #[test]
    #[should_panic(expected = "different parameter set")]
    fn parameter_set_change_is_detected() {
        let (mut w, mut g) = make(&[1.0]);
        let mut opt = Sgd::new(SgdConfig::default());
        opt.step(&mut [ParamRefMut { name: "w".into(), value: &mut w, grad: &mut g }]);
        let (mut w2, mut g2) = make(&[1.0]);
        opt.step(&mut [
            ParamRefMut { name: "a".into(), value: &mut w, grad: &mut g },
            ParamRefMut { name: "b".into(), value: &mut w2, grad: &mut g2 },
        ]);
    }
}
