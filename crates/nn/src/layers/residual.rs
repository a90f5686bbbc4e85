//! Residual block: `y = ReLU(main(x) + shortcut(x))`.
//!
//! The paper's third model is ResNet50, "a type of network that uses
//! shortcuts or skip connections to move between layers" (Section III-A).
//! Composite layers prefix their children's parameter names, so checkpoint
//! paths look like `res2a/conv1/W`.

use super::activation::{relu_backward, relu_forward};
use super::{ChildNames, Layer};
use sefi_tensor::Tensor;
use std::sync::Arc;

/// A residual block with a main branch and an optional projection shortcut
/// (identity when `None`). A final ReLU follows the join.
#[derive(Clone)]
pub struct Residual {
    name: String,
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    relu_mask: Vec<bool>,
    /// The children's tensor names, `conv1/W` and so on.
    names: Arc<ChildNames>,
}

impl Residual {
    /// Build from branch layer stacks. An empty `shortcut` means identity.
    pub fn new(
        name: &str,
        mut main: Vec<Box<dyn Layer>>,
        mut shortcut: Vec<Box<dyn Layer>>,
    ) -> Self {
        assert!(!main.is_empty(), "residual main branch cannot be empty");
        let names = ChildNames::of(main.iter_mut().chain(shortcut.iter_mut()));
        Residual { name: name.to_string(), main, shortcut, relu_mask: Vec::new(), names }
    }
}

impl Layer for Residual {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let mut m = x.clone();
        for layer in &mut self.main {
            m = layer.forward(m, train);
        }
        let mut s = x;
        for layer in &mut self.shortcut {
            s = layer.forward(s, train);
        }
        assert_eq!(
            m.shape(),
            s.shape(),
            "residual join shape mismatch in {}: main {:?} vs shortcut {:?}",
            self.name,
            m.shape(),
            s.shape()
        );
        m.add_assign(&s);
        relu_forward(m.data_mut(), &mut self.relu_mask, train);
        m
    }

    fn backward(&mut self, mut dout: Tensor) -> Tensor {
        relu_backward(dout.data_mut(), &self.relu_mask);
        // Main branch, reversed.
        let mut dm = dout.clone();
        for layer in self.main.iter_mut().rev() {
            dm = layer.backward(dm);
        }
        // Shortcut branch (identity passes dout straight through).
        let mut ds = dout;
        for layer in self.shortcut.iter_mut().rev() {
            ds = layer.backward(ds);
        }
        dm.add_assign(&ds);
        dm
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&str, &'a mut Tensor, &'a mut Tensor)) {
        let children = self.main.iter_mut().chain(self.shortcut.iter_mut());
        self.names.visit_params(children, &mut |name, value, grad| f(name, value, grad));
    }

    fn visit_state<'a>(&'a mut self, f: &mut dyn FnMut(&str, &'a mut Tensor)) {
        self.names.visit_state(self.main.iter_mut().chain(self.shortcut.iter_mut()), f);
    }

    fn workspace_bytes(&self) -> usize {
        self.main.iter().chain(self.shortcut.iter()).map(|l| l.workspace_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, ReLU};
    use sefi_rng::DetRng;

    fn block(rng: &mut DetRng) -> Residual {
        Residual::new(
            "res1",
            vec![
                Box::new(Conv2d::new("conv1", 2, 2, 3, 1, 1, rng)),
                Box::new(ReLU::new("relu1")),
                Box::new(Conv2d::new("conv2", 2, 2, 3, 1, 1, rng)),
            ],
            vec![],
        )
    }

    #[test]
    fn identity_shortcut_preserves_shape() {
        let mut rng = DetRng::new(1);
        let mut r = block(&mut rng);
        let x = Tensor::full(&[1, 2, 4, 4], 0.5);
        let y = r.forward(x, true);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
        assert!(y.data().iter().all(|&v| v >= 0.0)); // post-join ReLU
    }

    #[test]
    fn param_names_are_prefixed() {
        let mut rng = DetRng::new(2);
        let mut r = block(&mut rng);
        let (names, _) = crate::layers::tensor_names(&mut r);
        assert_eq!(names, vec!["conv1/W", "conv1/b", "conv2/W", "conv2/b"]);
    }

    #[test]
    fn projection_shortcut_params_included() {
        let mut rng = DetRng::new(3);
        let r = Residual::new(
            "res2",
            vec![Box::new(Conv2d::new("conv1", 2, 4, 3, 2, 1, &mut rng))],
            vec![Box::new(Conv2d::new("proj", 2, 4, 1, 2, 0, &mut rng))],
        );
        let mut r = r;
        let (names, _) = crate::layers::tensor_names(&mut r);
        assert!(names.contains(&"proj/W".to_string()));
        let x = Tensor::full(&[1, 2, 8, 8], 0.3);
        let y = r.forward(x, true);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn gradient_flows_through_both_branches() {
        let mut rng = DetRng::new(4);
        let mut r = block(&mut rng);
        let x = Tensor::full(&[1, 2, 4, 4], 0.5);
        let y = r.forward(x, true);
        let dx = r.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(dx.shape(), &[1, 2, 4, 4]);
        // With identity shortcut the input gradient includes the masked
        // upstream gradient directly, so it cannot be all zeros.
        assert!(dx.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = DetRng::new(5);
        let mut r = block(&mut rng);
        let x = Tensor::full(&[1, 2, 4, 4], 0.5);
        let _ = r.forward(x.clone(), true);
        let y = r.forward(x, false);
        r.backward(Tensor::full(y.shape(), 1.0));
    }

    #[test]
    #[should_panic(expected = "main branch cannot be empty")]
    fn empty_main_rejected() {
        Residual::new("bad", vec![], vec![]);
    }
}
