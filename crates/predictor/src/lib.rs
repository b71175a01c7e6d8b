//! The GNN-based hardware performance predictor ("use GNN to perceive
//! GNNs", paper Sec. III-D).
//!
//! Real-time measurement of every search candidate on an edge device is
//! unbearably slow; HGNAS instead *learns* the latency surface. A candidate
//! architecture is abstracted into a small directed graph (nodes = input /
//! output / operations, edges = dataflow, plus a **global node** connected
//! to everything that carries the input-data properties), node features
//! encode each operation's type and function, and a 3-layer GCN + MLP
//! regresses the latency on the target device. Training labels come from
//! the device simulator's noisy `measure`.
//!
//! The paper reports (Fig. 8) ≈6 % MAPE on RTX3080 / i7 / TX2 and ≈19 % on
//! the Raspberry Pi (noisy measurements), with >80 % of predictions inside
//! a 10 % error bound; the `fig8` harness reproduces those quantities on
//! this implementation.
//!
//! # Example
//!
//! ```no_run
//! use hgnas_device::DeviceKind;
//! use hgnas_predictor::{LatencyPredictor, PredictorConfig, PredictorContext};
//!
//! let ctx = PredictorContext::small();
//! let cfg = PredictorConfig::small();
//! let (predictor, stats) =
//!     LatencyPredictor::train(DeviceKind::Rtx3080, &ctx, &cfg);
//! println!("val MAPE: {:.1}%", stats.val_mape * 100.0);
//! ```

mod dataset;
mod features;
mod model;
mod train;

pub use dataset::{generate_dataset, LabelledArch};
pub use features::{arch_to_graph, arch_to_graph_with, ArchGraph, FEATURE_WIDTH};
pub use model::PredictorModel;
pub use train::{
    LatencyPredictor, PredictorConfig, PredictorContext, PredictorEval, PredictorSnapshot,
    TrainStats,
};
