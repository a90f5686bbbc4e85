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
use std::sync::Arc;

/// A mutable view of one trainable parameter of a [`crate::Network`]: its
/// qualified `layer/param` name, current value, and gradient accumulator.
pub struct ParamRefMut<'a> {
    /// Qualified parameter name (e.g. `"conv1/W"`, `"res2a/bn1/gamma"`),
    /// shared with the network's name table — cloning it copies no bytes.
    pub name: Arc<str>,
    /// The weight tensor.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the last backward pass.
    pub grad: &'a mut Tensor,
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

    /// Lend each trainable parameter to `f` as `(name, value, gradient)`,
    /// in deterministic order. The name is relative to the layer (`"W"`,
    /// or `conv1/W` inside a composite); the tensors borrow the layer for
    /// `'a`, so a caller may keep them. A walk allocates nothing.
    fn visit_params<'a>(&'a mut self, _f: &mut dyn FnMut(&str, &'a mut Tensor, &'a mut Tensor)) {}

    /// Lend each non-trainable state tensor (e.g. batch-norm running
    /// statistics, checkpointed but never stepped by the optimizer) to `f`
    /// as `(name, value)`, in deterministic order.
    fn visit_state<'a>(&'a mut self, _f: &mut dyn FnMut(&str, &'a mut Tensor)) {}

    /// Reset accumulated gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, _, grad| grad.data_mut().fill(0.0));
    }

    /// Bytes of kernel workspace this layer retains across steps (scratch
    /// buffers reused instead of reallocated — see `sefi_tensor`'s
    /// `ConvWorkspace`). Composite layers sum their children.
    fn workspace_bytes(&self) -> usize {
        0
    }
}

/// The qualified names (`child/name`) of a container's child tensors, in
/// visit order. A container ([`crate::Network`], [`Residual`]) builds them
/// once when it is built, its clones share them, and every walk lends them,
/// so no walk formats a path.
#[derive(Default)]
pub(crate) struct ChildNames {
    params: Vec<Arc<str>>,
    state: Vec<Arc<str>>,
}

const NAMES_FIXED: &str = "a layer's tensors are fixed at construction";

impl ChildNames {
    /// Name every tensor of `children`, prefixing each child's own names
    /// with the child's name.
    pub(crate) fn of<'l>(children: impl Iterator<Item = &'l mut Box<dyn Layer>>) -> Arc<Self> {
        let mut names = ChildNames::default();
        for layer in children {
            let prefix = layer.layer_name().to_string();
            layer.visit_params(&mut |name, _, _| {
                names.params.push(format!("{prefix}/{name}").into())
            });
            layer.visit_state(&mut |name, _| names.state.push(format!("{prefix}/{name}").into()));
        }
        Arc::new(names)
    }

    /// Number of trainable parameters named.
    pub(crate) fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of tensors named.
    pub(crate) fn len(&self) -> usize {
        self.params.len() + self.state.len()
    }

    /// Lend every child's parameters, in order, under their qualified names.
    pub(crate) fn visit_params<'a>(
        &'a self,
        children: impl Iterator<Item = &'a mut Box<dyn Layer>>,
        f: &mut dyn FnMut(&'a Arc<str>, &'a mut Tensor, &'a mut Tensor),
    ) {
        let mut names = self.params.iter();
        for layer in children {
            layer.visit_params(&mut |_, value, grad| {
                f(names.next().expect(NAMES_FIXED), value, grad)
            });
        }
    }

    /// Lend every child's state tensors, in order, under their qualified
    /// names.
    pub(crate) fn visit_state<'a>(
        &'a self,
        children: impl Iterator<Item = &'a mut Box<dyn Layer>>,
        f: &mut dyn FnMut(&str, &'a mut Tensor),
    ) {
        let mut names = self.state.iter();
        for layer in children {
            layer.visit_state(&mut |_, value| f(names.next().expect(NAMES_FIXED), value));
        }
    }

    /// Lend every tensor child by child — each child's parameters, then its
    /// state — with its qualified name and whether it is trainable.
    pub(crate) fn visit_tensors<'c>(
        &self,
        children: impl Iterator<Item = &'c mut Box<dyn Layer>>,
        f: &mut dyn FnMut(&str, &mut Tensor, bool),
    ) {
        let (mut params, mut state) = (self.params.iter(), self.state.iter());
        for layer in children {
            layer
                .visit_params(&mut |_, value, _| f(params.next().expect(NAMES_FIXED), value, true));
            layer.visit_state(&mut |_, value| f(state.next().expect(NAMES_FIXED), value, false));
        }
    }
}

/// The parameter and state names a layer lends, in visit order.
#[cfg(test)]
pub(crate) fn tensor_names(layer: &mut dyn Layer) -> (Vec<String>, Vec<String>) {
    let (mut params, mut state) = (Vec::new(), Vec::new());
    layer.visit_params(&mut |name, _, _| params.push(name.to_string()));
    layer.visit_state(&mut |name, _| state.push(name.to_string()));
    (params, state)
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
