//! Flatten: `[n, …]` → `[n, prod(…)]` bridge between conv and dense stacks.

use super::Layer;
use sefi_tensor::Tensor;

/// Collapses all non-batch dimensions.
#[derive(Clone)]
pub struct Flatten {
    name: String,
    input_shape: Vec<usize>,
}

impl Flatten {
    /// A named flatten layer.
    pub fn new(name: &str) -> Self {
        Flatten { name: name.to_string(), input_shape: Vec::new() }
    }
}

impl Layer for Flatten {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        self.input_shape = x.shape().to_vec();
        let n = self.input_shape[0];
        let rest: usize = self.input_shape[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        assert!(!self.input_shape.is_empty(), "backward before forward");
        dout.reshape(&self.input_shape.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_restore() {
        let mut f = Flatten::new("f");
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let dx = f.backward(Tensor::zeros(&[2, 48]));
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }
}
