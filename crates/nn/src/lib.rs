//! A from-scratch CPU neural-network framework — the cuDNN substitute.
//!
//! The paper runs its convolutional surrogates with Torch7 + cuDNN 5.0
//! on a Titan X GPU. The Rust deep-learning ecosystem has no comparable
//! GPU stack, so this crate implements everything the reproduction
//! needs on the CPU (parallelised with `sfn-par`):
//!
//! * [`tensor::Tensor`] — dense `N×C×H×W` f32 tensors;
//! * [`layers`] — conv2d (same padding), dense, ReLU/sigmoid/tanh,
//!   max/average pooling, nearest-neighbour upsampling ("unpooling"),
//!   dropout, and residual skip connections;
//! * [`network::Network`] — a sequential container built from a
//!   serialisable [`spec::NetworkSpec`] (the object the §4 model
//!   transformations rewrite), with forward, backward and parameter
//!   update;
//! * [`optim`] — Adam;
//! * [`loss`] — the MSE objective (the DivNorm objective
//!   lives in `sfn-surrogate` where the fluid context is available);
//! * [`flops`] — analytic FLOP accounting per layer (Table 4);
//! * [`plan::Plan`] — the same model compiled for inference: what a
//!   simulation step runs. [`network::Network`] trains and evaluates,
//!   and its `predict` is the plan's bit-exact test oracle, never its
//!   fallback; the [`plan`] docs say who owns what and why that holds.
//!
//! Every stochastic component (initialisation, dropout) takes explicit
//! seeds, so training runs are reproducible.

#![warn(missing_docs)]

pub mod arena;
pub mod flops;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model_io;
pub mod network;
pub mod optim;
pub mod plan;
pub mod simd;
pub mod spec;
pub mod tensor;

pub use network::Network;
pub use spec::{LayerSpec, NetworkSpec};
pub use tensor::Tensor;
