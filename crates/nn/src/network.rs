//! Sequential network container.

use crate::layers::{ChildNames, Layer, ParamRefMut};
use crate::statedict::StateDict;
use sefi_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// A feed-forward stack of layers (which may themselves be composite, e.g.
/// [`crate::Residual`]) with qualified parameter naming and state-dict
/// import/export.
///
/// `Clone` deep-copies every layer's parameters and state; kernel scratch
/// (conv workspaces) starts empty in the copy.
#[derive(Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    /// Every tensor's `layer/name` path, lent by the walks.
    names: Arc<ChildNames>,
}

impl Network {
    /// Build from a layer stack.
    pub fn new(mut layers: Vec<Box<dyn Layer>>) -> Self {
        let mut names = std::collections::HashSet::new();
        for l in &layers {
            assert!(
                names.insert(l.layer_name().to_string()),
                "duplicate layer name {:?}",
                l.layer_name()
            );
        }
        let names = ChildNames::of(layers.iter_mut());
        Network { layers, names }
    }

    /// Layer names in order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.layer_name()).collect()
    }

    /// Forward through all layers.
    pub fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let mut h = x;
        for layer in &mut self.layers {
            h = layer.forward(h, train);
        }
        h
    }

    /// True per layer iff it owns trainable parameters — the "producer"
    /// layers whose outputs the activation guards reduce.
    pub fn layer_has_params(&mut self) -> Vec<bool> {
        self.layers
            .iter_mut()
            .map(|l| {
                let mut any = false;
                l.visit_params(&mut |_, _, _| any = true);
                any
            })
            .collect()
    }

    /// Forward through all layers, handing each layer's output to an
    /// observer before it feeds the next layer — the hook the activation
    /// guards ([`crate::EnvelopeSet`]) build on. An observer returning
    /// `false` aborts the pass (remaining layers never run, so a detected
    /// corruption is not propagated further) and yields `None`.
    pub fn forward_observed(
        &mut self,
        x: Tensor,
        train: bool,
        mut observe: impl FnMut(usize, &str, &Tensor) -> bool,
    ) -> Option<Tensor> {
        let mut h = x;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            h = layer.forward(h, train);
            if !observe(i, layer.layer_name(), &h) {
                return None;
            }
        }
        Some(h)
    }

    /// Backward through all layers (after a forward pass).
    pub fn backward(&mut self, dout: Tensor) -> Tensor {
        let mut d = dout;
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(d);
        }
        d
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// All trainable parameters with fully qualified `layer/param` names,
    /// in deterministic traversal order.
    pub fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        let mut out = Vec::with_capacity(self.names.param_count());
        self.names.visit_params(self.layers.iter_mut(), &mut |name, value, grad| {
            out.push(ParamRefMut { name: Arc::clone(name), value, grad })
        });
        out
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Lend every parameter and state tensor to `f` in state-dict order
    /// (per layer: parameters, then state), with its qualified
    /// `layer/name` path and whether it is trainable. Export, import,
    /// restore and the non-finite scans all walk the network through here,
    /// without copying a tensor or building a path.
    pub fn visit_tensors_mut(&mut self, mut f: impl FnMut(&str, &mut Tensor, bool)) {
        self.names.visit_tensors(self.layers.iter_mut(), &mut f);
    }

    /// Number of parameter and state tensors [`Network::visit_tensors_mut`]
    /// lends.
    pub fn num_tensors(&self) -> usize {
        self.names.len()
    }

    /// Export parameters and auxiliary state as a [`StateDict`].
    pub fn state_dict(&mut self) -> StateDict {
        let mut sd = StateDict::new();
        self.visit_tensors_mut(|path, t, trainable| {
            sd.push(path.to_string(), t.clone(), trainable)
        });
        sd
    }

    /// Load a [`StateDict`] previously produced by [`Network::state_dict`]
    /// on an identically shaped network. Every network tensor must be
    /// present with a matching shape; extra entries are rejected too —
    /// silent partial loads would invalidate experiments. The whole dict is
    /// checked before the first tensor is written, so on `Err` the network
    /// is unchanged.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), String> {
        let mut by_path: HashMap<&str, &Tensor> =
            sd.entries().iter().map(|e| (e.path.as_str(), &e.tensor)).collect();
        let mut sources = Vec::with_capacity(by_path.len());
        let mut failure = None;
        self.visit_tensors_mut(|path, t, _| {
            if failure.is_some() {
                return;
            }
            match by_path.remove(path) {
                Some(src) if src.shape() == t.shape() => sources.push(src),
                Some(src) => {
                    failure = Some(format!(
                        "shape mismatch for {path:?}: network {:?}, checkpoint {:?}",
                        t.shape(),
                        src.shape()
                    ));
                }
                None => failure = Some(format!("missing tensor {path:?} in state dict")),
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        if let Some(path) = by_path.into_keys().next() {
            return Err(format!("unexpected tensor {path:?} in state dict"));
        }
        let mut sources = sources.into_iter();
        self.visit_tensors_mut(|_, t, _| {
            t.data_mut().copy_from_slice(sources.next().expect("one source per tensor").data());
        });
        Ok(())
    }

    /// Class predictions (row argmax of the logits) for a batch.
    pub fn predict(&mut self, x: Tensor) -> Vec<usize> {
        self.forward(x, false).argmax_rows()
    }

    /// True if any parameter or state tensor holds a non-finite value.
    pub fn has_non_finite(&mut self) -> bool {
        let mut found = false;
        self.visit_tensors_mut(|_, t, _| found = found || t.has_non_finite());
        found
    }

    /// Total bytes of kernel workspace retained across steps by all layers
    /// (grow-once scratch that replaces per-step allocations).
    pub fn workspace_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.workspace_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU};
    use sefi_rng::DetRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = DetRng::new(seed);
        Network::new(vec![
            Box::new(Conv2d::new("conv1", 3, 4, 3, 1, 1, &mut rng)),
            Box::new(ReLU::new("relu1")),
            Box::new(MaxPool2d::new("pool1", 2, 2)),
            Box::new(Flatten::new("flat")),
            Box::new(Dense::new("fc", 4 * 4 * 4, 10, &mut rng)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net(1);
        let y = net.forward(Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn qualified_param_names() {
        let mut net = tiny_net(1);
        let names: Vec<String> = net.params_mut().iter().map(|p| p.name.to_string()).collect();
        assert_eq!(names, vec!["conv1/W", "conv1/b", "fc/W", "fc/b"]);
    }

    #[test]
    fn state_dict_roundtrip_restores_outputs() {
        let mut a = tiny_net(1);
        let sd = a.state_dict();
        let mut b = tiny_net(2); // different init
        let x = Tensor::full(&[1, 3, 8, 8], 0.5);
        assert_ne!(a.forward(x.clone(), false).data(), b.forward(x.clone(), false).data());
        b.load_state_dict(&sd).unwrap();
        assert_eq!(a.forward(x.clone(), false).data(), b.forward(x, false).data());
    }

    #[test]
    fn load_rejects_missing_and_extra_and_mismatched() {
        let mut net = tiny_net(1);
        let before = net.state_dict();
        // Every bad dict carries another init's values, so a partial write
        // before the error would show.
        let full = tiny_net(2).state_dict();
        // Extra entry.
        let mut sd = full.clone();
        sd.push("ghost/W".into(), Tensor::zeros(&[1]), true);
        assert!(net.load_state_dict(&sd).is_err());
        // Missing entry.
        let sd2 = {
            let mut partial = StateDict::new();
            for e in full.entries().iter().skip(1) {
                partial.push(e.path.clone(), e.tensor.clone(), e.trainable);
            }
            partial
        };
        assert!(net.load_state_dict(&sd2).is_err());
        // Shape mismatch.
        let sd3 = {
            let mut bad = StateDict::new();
            for e in full.entries() {
                let t = if e.path == "conv1/b" { Tensor::zeros(&[5]) } else { e.tensor.clone() };
                bad.push(e.path.clone(), t, e.trainable);
            }
            bad
        };
        assert!(net.load_state_dict(&sd3).unwrap_err().contains("shape mismatch"));
        assert_eq!(net.state_dict(), before, "failed loads must not write");
    }

    #[test]
    fn num_parameters_counts_scalars() {
        let mut net = tiny_net(1);
        // conv: 4*3*3*3 + 4 = 112; fc: 10*64 + 10 = 650
        assert_eq!(net.num_parameters(), 112 + 650);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_layer_names_rejected() {
        let mut rng = DetRng::new(1);
        Network::new(vec![Box::new(ReLU::new("x")), Box::new(Dense::new("x", 2, 2, &mut rng))]);
    }
}
