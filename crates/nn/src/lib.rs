//! A from-scratch deep-learning training framework.
//!
//! This is the numeric engine underneath the three framework frontends
//! (`sefi-frameworks`). It provides layers with hand-derived backprop,
//! softmax-cross-entropy loss, SGD with momentum, a deterministic training
//! loop with checkpoint export/import, and N-EV collapse detection (the
//! paper's criterion for "the training collapsed when computing some NaN or
//! extreme value", Section V-B).
//!
//! Determinism: given a seed, initialization, batch order, and every
//! numeric kernel are bit-stable (see `sefi-rng` and `sefi-tensor`), so two
//! trainings from the same checkpoint diverge *only* if their weights
//! differ — the property that makes the paper's "restarted with no change"
//! (RWC) measurements meaningful.

#![deny(missing_docs)]

mod guard;
pub mod layers;
mod loss;
mod network;
mod optim;
mod statedict;
mod train;

pub use guard::{ActivationTrip, EnvelopeSet, LayerEnvelope};
pub use layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, Layer, MaxPool2d, ParamRefMut, ReLU, Residual,
};
pub use loss::softmax_cross_entropy;
pub use network::Network;
pub use optim::{Sgd, SgdConfig};
pub use statedict::{NamedTensor, StateDict};
pub use train::{evaluate, EpochRecord, TrainConfig, TrainOutcome, Trainer};
