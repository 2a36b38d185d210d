//! # orbit2-model
//!
//! The paper's model architectures, built on `orbit2-autograd`:
//!
//! * [`config`] — model-size configurations, including the paper's four
//!   (9.5M / 126M / 1B / 10B) with their analytic parameter and FLOP counts
//!   (the stand-in for the DeepSpeed profiler) and the scaled-down
//!   trainable twins used for the CPU accuracy experiments;
//! * [`binder`] — binds a [`orbit2_autograd::ParamStore`] onto a tape,
//!   memoizing leaf vars so each parameter gets exactly one gradient slot;
//! * [`exec`] — the execution-context trait ([`exec::Exec`]) every forward
//!   is generic over: tape-recording for training, tape-free for inference;
//! * [`infer`] — the tape-free [`infer::InferenceSession`] context, whose
//!   linears read each f32 weight by the tape's rule and each int8 weight
//!   through its resident pack;
//! * [`embed`] — per-variable patch tokenization, 2-D sinusoidal positions
//!   and the learnable resolution embedding;
//! * [`blocks`] — multi-head self-attention, MLP and transformer blocks,
//!   plus the cross-attention variable aggregation that collapses the
//!   channel axis (paper Fig. 2, purple block);
//! * [`compress`] — the adaptive spatial compression module: quad-tree
//!   structure from Canny edge density, differentiable token pool/unpool;
//! * [`paths`] — the convolutional decoder and the residual convolutional
//!   upsampling path;
//! * [`loss`] — the Bayesian training objective: latitude-weighted MSE
//!   likelihood + Markov-Random-Field total-variation prior;
//! * [`reslim`] — the assembled Reslim model (paper Sec. III-A);
//! * [`baseline`] — the upsample-first baseline ViT (paper Fig. 1), the
//!   comparator of Table II(a).

pub mod baseline;
pub mod binder;
pub mod blocks;
pub mod compress;
pub mod config;
pub mod embed;
pub mod exec;
pub mod infer;
pub mod loss;
pub mod paths;
pub mod reslim;

pub use baseline::BaselineVit;
pub use binder::Binder;
pub use config::ModelConfig;
pub use exec::Exec;
pub use infer::InferenceSession;
pub use loss::{bayesian_loss, BayesianLossCfg};
pub use orbit2_tensor::fused::WeightPrecision;
pub use reslim::ReslimModel;
