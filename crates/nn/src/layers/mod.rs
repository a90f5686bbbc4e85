//! Layers: forward/backward pairs with named parameters.

mod activation;
mod batchnorm;
mod conv;
mod dense;
mod flatten;
mod pool;
mod residual;

pub use activation::ReLU;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::Residual;

use sefi_tensor::Tensor;

/// A mutable view of one trainable parameter: its qualified name (relative
/// to the layer), current value, and gradient accumulator.
pub struct ParamRefMut<'a> {
    /// Parameter name within the layer (e.g. `"W"`, `"b"`, `"gamma"`), or a
    /// slash-joined path for composite layers.
    pub name: String,
    /// The weight tensor.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the last backward pass.
    pub grad: &'a mut Tensor,
}

/// A mutable view of one non-trainable state tensor (e.g. batch-norm
/// running statistics). Included in checkpoints but not touched by the
/// optimizer.
pub struct StateRefMut<'a> {
    /// State name within the layer.
    pub name: String,
    /// The state tensor.
    pub value: &'a mut Tensor,
}

/// A differentiable layer.
///
/// `forward` caches whatever `backward` will need; `backward` consumes the
/// upstream gradient and returns the downstream one, accumulating parameter
/// gradients internally. Layers are used strictly in forward-then-backward
/// lockstep by [`crate::Network`].
/// (`Send + Sync` so whole networks can move across rayon worker threads
/// and a shared template network can be cloned from any of them — the
/// experiment harness runs independent trials in parallel.)
pub trait Layer: Send + Sync + LayerClone {
    /// The layer's instance name (unique within its network).
    fn layer_name(&self) -> &str;

    /// Compute outputs. `train` selects training behaviour (e.g. batch-norm
    /// batch statistics vs. running statistics).
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor;

    /// Propagate gradients. Must be called after `forward`.
    fn backward(&mut self, dout: Tensor) -> Tensor;

    /// Trainable parameters, in deterministic order.
    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        Vec::new()
    }

    /// Non-trainable state tensors, in deterministic order.
    fn state_mut(&mut self) -> Vec<StateRefMut<'_>> {
        Vec::new()
    }

    /// Reset accumulated gradients to zero.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.grad.data_mut().fill(0.0);
        }
    }

    /// Bytes of kernel workspace this layer retains across steps (scratch
    /// buffers reused instead of reallocated — see `sefi_tensor`'s
    /// `ConvWorkspace`). Composite layers sum their children.
    fn workspace_bytes(&self) -> usize {
        0
    }
}

/// Boxed cloning for [`Layer`] trait objects, so the containers holding
/// `Box<dyn Layer>` ([`crate::Network`], [`Residual`]) can derive `Clone`.
/// Every `Clone` layer gets it from the blanket impl.
pub trait LayerClone {
    /// A deep copy of this layer in a new box.
    fn box_clone(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn box_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        (**self).box_clone()
    }
}
