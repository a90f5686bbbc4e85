//! Pooling layers.

use super::Layer;
use sefi_tensor::{avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward, PoolSpec, Tensor};

/// Max pooling.
#[derive(Clone)]
pub struct MaxPool2d {
    name: String,
    spec: PoolSpec,
    arg: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Window `size`, step `stride`.
    pub fn new(name: &str, size: usize, stride: usize) -> Self {
        MaxPool2d {
            name: name.to_string(),
            spec: PoolSpec { size, stride },
            arg: Vec::new(),
            input_shape: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        self.input_shape = x.shape().to_vec();
        let (out, arg) = maxpool2d(&x, self.spec);
        self.arg = arg;
        out
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        assert!(!self.input_shape.is_empty(), "backward before forward");
        maxpool2d_backward(&dout, &self.arg, &self.input_shape)
    }
}

/// Average pooling. With `size == stride == spatial extent` this is the
/// global average pooling that closes ResNet50.
#[derive(Clone)]
pub struct AvgPool2d {
    name: String,
    spec: PoolSpec,
    input_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Window `size`, step `stride`.
    pub fn new(name: &str, size: usize, stride: usize) -> Self {
        AvgPool2d {
            name: name.to_string(),
            spec: PoolSpec { size, stride },
            input_shape: Vec::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        self.input_shape = x.shape().to_vec();
        avgpool2d(&x, self.spec)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        assert!(!self.input_shape.is_empty(), "backward before forward");
        avgpool2d_backward(&dout, &self.input_shape, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let dx = p.backward(Tensor::full(&[1, 1, 2, 2], 1.0));
        assert_eq!(dx.sum(), 4.0);
        assert_eq!(dx.at(&[0, 0, 1, 1]), 1.0);
    }

    #[test]
    fn avgpool_gradient_is_uniform() {
        let mut p = AvgPool2d::new("g", 4, 4);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 7.5).abs() < 1e-6);
        let dx = p.backward(Tensor::full(&[1, 1, 1, 1], 16.0));
        assert!(dx.data().iter().all(|&g| (g - 1.0).abs() < 1e-6));
    }
}
