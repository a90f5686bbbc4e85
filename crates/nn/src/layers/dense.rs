//! Fully connected layer.

use super::Layer;
use sefi_rng::DetRng;
use sefi_tensor::{he_normal, matmul, matmul_a_bt, matmul_at_b, Tensor};

/// A dense layer `y = x·Wᵀ + b` with `W: [out, in]`, matching the row-major
/// weight convention of PyTorch's `nn.Linear` (the frontends translate to
/// their own on-checkpoint layouts).
#[derive(Clone)]
pub struct Dense {
    name: String,
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    dweight: Tensor,
    dbias: Tensor,
    cached_input: Option<Tensor>, // [n, in]
}

impl Dense {
    /// He-initialized dense layer.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut DetRng) -> Self {
        Dense {
            name: name.to_string(),
            weight: he_normal(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            dweight: Tensor::zeros(&[out_features, in_features]),
            dbias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// `(in_features, out_features)`.
    pub fn features(&self) -> (usize, usize) {
        (self.weight.shape()[1], self.weight.shape()[0])
    }
}

impl Layer for Dense {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Dense expects [n, features]");
        let mut y = matmul_a_bt(&x, &self.weight); // [n, out]
        let out = self.bias.data();
        for row in y.data_mut().chunks_mut(out.len()) {
            for (v, &b) in row.iter_mut().zip(out) {
                *v += b;
            }
        }
        self.cached_input = Some(x);
        y
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        // dW = doutᵀ · x  -> [out, in]
        self.dweight.add_assign(&matmul_at_b(&dout, &x));
        // db = column sums of dout.
        let out = self.dbias.len();
        {
            let db = self.dbias.data_mut();
            for row in dout.data().chunks(out) {
                for (acc, &v) in db.iter_mut().zip(row) {
                    *acc += v;
                }
            }
        }
        // dx = dout · W -> [n, in]
        matmul(&dout, &self.weight)
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&str, &'a mut Tensor, &'a mut Tensor)) {
        f("W", &mut self.weight, &mut self.dweight);
        f("b", &mut self.bias, &mut self.dbias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut rng = DetRng::new(1);
        let mut d = Dense::new("fc", 3, 2, &mut rng);
        // Overwrite weights with known values: W = [[1,2,3],[4,5,6]], b = [10, 20].
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        d.bias = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]);
        let y = d.forward(x, true);
        assert_eq!(y.data(), &[16.0, 35.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = DetRng::new(2);
        let mut d = Dense::new("fc", 4, 3, &mut rng);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.3 - 1.0).collect(), &[2, 4]);
        let y = d.forward(x.clone(), true);
        let dout = Tensor::full(y.shape(), 1.0);
        let dx = d.backward(dout);

        let eps = 1e-2f32;
        // Numeric check on a few weight entries.
        for &flat in &[0usize, 5, 11] {
            let mut dp = Dense::new("fc", 4, 3, &mut DetRng::new(2));
            dp.weight.data_mut()[flat] += eps;
            let mut dm = Dense::new("fc", 4, 3, &mut DetRng::new(2));
            dm.weight.data_mut()[flat] -= eps;
            let num = (dp.forward(x.clone(), true).sum() - dm.forward(x.clone(), true).sum())
                / (2.0 * eps as f64);
            let ana = d.dweight.data()[flat] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "dW[{flat}] {num} vs {ana}");
        }
        // dx for a sum loss equals column sums of W.
        for (i, &g) in dx.data().iter().take(4).enumerate() {
            let want: f32 = (0..3).map(|o| d.weight.at(&[o, i])).sum();
            assert!((g - want).abs() < 1e-4);
        }
    }
}
