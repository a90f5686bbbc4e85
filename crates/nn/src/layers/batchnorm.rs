//! Batch normalization over NCHW channels.
//!
//! Running statistics are *state*, not parameters: they ride along in
//! checkpoints (so the corrupter can hit them — they are part of the model
//! file, exactly like in the real frameworks) but the optimizer never
//! touches them.

use super::{Layer, ParamRefMut, StateRefMut};
use sefi_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.9;

/// Per-channel batch normalization for rank-4 inputs.
#[derive(Clone)]
pub struct BatchNorm2d {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    // Backward cache.
    cache: Option<BnCache>,
}

#[derive(Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    centered: Tensor,
}

impl BatchNorm2d {
    /// Identity-initialized batch norm over `channels`.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            name: name.to_string(),
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }
}

impl Layer for BatchNorm2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "BatchNorm2d expects NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels(), "channel mismatch");
        let m = (n * h * w) as f32;
        let plane = h * w;
        let src = x.data();

        let (mean, var): (Vec<f32>, Vec<f32>) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut acc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &src[base..base + plane] {
                        acc += v as f64;
                    }
                }
                mean[ci] = (acc / m as f64) as f32;
                let mut vacc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &src[base..base + plane] {
                        let d = v - mean[ci];
                        vacc += (d * d) as f64;
                    }
                }
                var[ci] = (vacc / m as f64) as f32;
            }
            // Update running stats.
            for (rm, &m) in self.running_mean.data_mut().iter_mut().zip(&mean) {
                *rm = MOMENTUM * *rm + (1.0 - MOMENTUM) * m;
            }
            for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
                *rv = MOMENTUM * *rv + (1.0 - MOMENTUM) * v;
            }
            (mean, var)
        } else {
            (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut xhat = Tensor::zeros(&s);
        let mut centered = Tensor::zeros(&s);
        let mut out = Tensor::zeros(&s);
        {
            let xh = xhat.data_mut();
            let ce = centered.data_mut();
            let o = out.data_mut();
            let g = self.gamma.data();
            let b = self.beta.data();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    for k in 0..plane {
                        let idx = base + k;
                        let cent = src[idx] - mean[ci];
                        let nh = cent * inv_std[ci];
                        ce[idx] = cent;
                        xh[idx] = nh;
                        o[idx] = g[ci] * nh + b[ci];
                    }
                }
            }
        }
        if train {
            self.cache = Some(BnCache { xhat, inv_std, centered });
        }
        out
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward(train)");
        let s = dout.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let plane = h * w;
        let m = (n * plane) as f32;
        let d = dout.data();
        let xh = cache.xhat.data();
        let cent = cache.centered.data();
        let g = self.gamma.data().to_vec();

        // Per-channel reductions (f64 accumulators).
        let mut sum_d = vec![0.0f64; c];
        let mut sum_d_xhat = vec![0.0f64; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for k in 0..plane {
                    let idx = base + k;
                    sum_d[ci] += d[idx] as f64;
                    sum_d_xhat[ci] += (d[idx] * xh[idx]) as f64;
                }
            }
        }
        for ci in 0..c {
            self.dbeta.data_mut()[ci] += sum_d[ci] as f32;
            self.dgamma.data_mut()[ci] += sum_d_xhat[ci] as f32;
        }

        // dx = (gamma * inv_std / m) * (m*dout - sum_d - xhat * sum_d_xhat)
        let mut dx = Tensor::zeros(&s);
        {
            let o = dx.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    let k1 = g[ci] * cache.inv_std[ci] / m;
                    for k in 0..plane {
                        let idx = base + k;
                        o[idx] =
                            k1 * (m * d[idx] - sum_d[ci] as f32 - xh[idx] * sum_d_xhat[ci] as f32);
                    }
                }
            }
        }
        let _ = cent;
        dx
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        vec![
            ParamRefMut { name: "gamma".into(), value: &mut self.gamma, grad: &mut self.dgamma },
            ParamRefMut { name: "beta".into(), value: &mut self.beta, grad: &mut self.dbeta },
        ]
    }

    fn state_mut(&mut self) -> Vec<StateRefMut<'_>> {
        vec![
            StateRefMut { name: "running_mean".into(), value: &mut self.running_mean },
            StateRefMut { name: "running_var".into(), value: &mut self.running_var },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Tensor {
        Tensor::from_vec(
            (0..2 * 3 * 2 * 2).map(|i| ((i * 13) % 7) as f32 - 3.0).collect(),
            &[2, 3, 2, 2],
        )
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(input(), true);
        // Per-channel mean ≈ 0, var ≈ 1.
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..2 {
                for k in 0..4 {
                    vals.push(y.data()[(ni * 3 + ci) * 4 + k] as f64);
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-5, "ch {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ci} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 3);
        // Run a few training passes to move the running stats.
        for _ in 0..5 {
            let _ = bn.forward(input(), true);
        }
        let y_eval = bn.forward(input(), false);
        let y_train = bn.forward(input(), true);
        assert_ne!(y_eval.data(), y_train.data());
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = Tensor::from_vec((0..16).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 2, 2, 2]);
        let y = bn.forward(x.clone(), true);
        // Weighted-sum loss so the gradient is not trivially zero
        // (a plain sum-loss has zero input-gradient through normalization).
        let wts: Vec<f32> = (0..16).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let loss =
            |t: &Tensor| -> f64 { t.data().iter().zip(&wts).map(|(&v, &w)| (v * w) as f64).sum() };
        let _ = loss(&y);
        let dout = Tensor::from_vec(wts.clone(), &[2, 2, 2, 2]);
        let dx = bn.backward(dout);

        let eps = 1e-2f32;
        for &flat in &[0usize, 5, 9, 15] {
            let num = {
                let mut bnp = BatchNorm2d::new("bn", 2);
                let mut xp = x.clone();
                xp.data_mut()[flat] += eps;
                let lp = loss(&bnp.forward(xp, true));
                let mut bnm = BatchNorm2d::new("bn", 2);
                let mut xm = x.clone();
                xm.data_mut()[flat] -= eps;
                let lm = loss(&bnm.forward(xm, true));
                (lp - lm) / (2.0 * eps as f64)
            };
            let ana = dx.data()[flat] as f64;
            assert!((num - ana).abs() < 5e-2 * (1.0 + ana.abs()), "dx[{flat}] {num} vs {ana}");
        }
    }

    #[test]
    fn state_and_params_are_separate() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let pnames: Vec<String> = bn.params_mut().into_iter().map(|p| p.name).collect();
        assert_eq!(pnames, vec!["gamma", "beta"]);
        let snames: Vec<String> = bn.state_mut().into_iter().map(|s| s.name).collect();
        assert_eq!(snames, vec!["running_mean", "running_var"]);
    }
}
