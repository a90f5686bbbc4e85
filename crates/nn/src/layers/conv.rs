//! 2-D convolution layer.

use super::Layer;
use sefi_rng::DetRng;
use sefi_tensor::{conv2d_backward_ws_ex, conv2d_ws, he_normal, ConvSpec, ConvWorkspace, Tensor};

/// A convolutional layer with weights `[out_ch, in_ch, k, k]` and a bias.
///
/// Owns a [`ConvWorkspace`]: the backward pass reuses the im2col columns
/// the forward pass unfolded, and all conv scratch buffers persist across
/// steps (zero steady-state kernel allocations). A clone starts with an
/// empty workspace.
#[derive(Clone)]
pub struct Conv2d {
    name: String,
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    ws: ConvWorkspace,
    skip_input_grad: bool,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut DetRng,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let shape = [out_ch, in_ch, kernel, kernel];
        Conv2d {
            name: name.to_string(),
            weight: he_normal(&shape, fan_in, rng),
            bias: Tensor::zeros(&[out_ch]),
            dweight: Tensor::zeros(&shape),
            dbias: Tensor::zeros(&[out_ch]),
            spec: ConvSpec { stride, pad },
            cached_input: None,
            ws: ConvWorkspace::new(),
            skip_input_grad: false,
        }
    }

    /// Mark this layer as the first of its network: its input gradient is
    /// never consumed, so the backward pass skips computing it (identically
    /// under both kernel generations) and returns zeros instead.
    pub fn skip_input_grad(mut self) -> Self {
        self.skip_input_grad = true;
        self
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Weight shape `[out_ch, in_ch, k, k]`.
    pub fn weight_shape(&self) -> &[usize] {
        self.weight.shape()
    }
}

impl Layer for Conv2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        let out = conv2d_ws(&x, &self.weight, &self.bias, self.spec, &mut self.ws);
        self.cached_input = Some(x);
        out
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        let grads = conv2d_backward_ws_ex(
            &x,
            &self.weight,
            &dout,
            self.spec,
            &mut self.ws,
            !self.skip_input_grad,
        );
        self.dweight.add_assign(&grads.dw);
        self.dbias.add_assign(&grads.db);
        grads.dx
    }

    fn workspace_bytes(&self) -> usize {
        self.ws.retained_bytes()
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
    fn forward_shape_and_params() {
        let mut rng = DetRng::new(1);
        let mut c = Conv2d::new("c1", 3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = c.forward(x, true);
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
        let (names, _) = crate::layers::tensor_names(&mut c);
        assert_eq!(names, vec!["W", "b"]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = DetRng::new(2);
        let mut c = Conv2d::new("c1", 1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::full(&[1, 1, 5, 5], 1.0);
        let y = c.forward(x.clone(), true);
        let d = Tensor::full(y.shape(), 1.0);
        let _ = c.backward(d);
        let g1: f32 = c.dweight.data().iter().sum();
        // Second pass accumulates on top.
        let y = c.forward(x, true);
        let d = Tensor::full(y.shape(), 1.0);
        let _ = c.backward(d);
        let g2: f32 = c.dweight.data().iter().sum();
        assert!((g2 - 2.0 * g1).abs() < 1e-3);
        c.zero_grad();
        let g3: f32 = c.dweight.data().iter().sum();
        assert_eq!(g3, 0.0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = DetRng::new(3);
        let mut c = Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng);
        c.backward(Tensor::zeros(&[1, 1, 4, 4]));
    }
}
