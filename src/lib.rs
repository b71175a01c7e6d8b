//! # HGNAS-rs
//!
//! A from-scratch Rust reproduction of **"Hardware-Aware Graph Neural Network
//! Automated Design for Edge Computing Platforms"** (HGNAS, DAC 2023).
//!
//! This facade crate re-exports the full stack:
//!
//! - [`tensor`] / [`autograd`] / [`nn`] — the numerical substrate (dense f32
//!   tensors, tape-based reverse-mode AD, layers/optimizers/metrics).
//! - [`graph`] — KNN construction, CSR adjacency, neighbour lists.
//! - [`pointcloud`] — SynthNet40, a synthetic 40-class point-cloud
//!   classification dataset standing in for ModelNet40.
//! - [`device`] — the analytical edge-device simulator (RTX3080, i7-8700K,
//!   Jetson TX2, Raspberry Pi 3B+ profiles) providing latency, peak memory
//!   and execution breakdowns.
//! - [`ops`] — the fine-grained GNN operation IR (Sample / Aggregate /
//!   Combine / Connect), executor, device lowering and the DGCNN-family
//!   baselines.
//! - [`predictor`] — the GCN-based hardware performance predictor.
//! - [`core`] — the HGNAS framework itself: design space, SPOS supernet,
//!   multi-stage hierarchical evolutionary search.
//! - [`fleet`] — the multi-device search service: a long-lived
//!   preemptive fleet engine (shards × thread budget, generation-granular
//!   time slices), streaming fleet reports, asynchronous measurement oracle,
//!   cross-run artifact store (persisted predictors, resumable
//!   checkpoints, warm-start score caches).
//! - [`serve`] — search-as-a-service: a daemon speaking a framed wire
//!   protocol with multi-tenant fair-share admission, event streaming
//!   with disconnect/re-attach, idle-loop store GC and graceful drain.
//!
//! # Quickstart
//!
//! ```no_run
//! use hgnas::core::{Hgnas, SearchConfig, TaskConfig};
//! use hgnas::device::DeviceKind;
//!
//! let task = TaskConfig::tiny(42);
//! let config = SearchConfig::fast(DeviceKind::RaspberryPi3B);
//! let outcome = Hgnas::new(task, config).run();
//! println!("best architecture:\n{}", outcome.best.architecture);
//! ```

pub use hgnas_autograd as autograd;
pub use hgnas_core as core;
pub use hgnas_device as device;
pub use hgnas_fleet as fleet;
pub use hgnas_graph as graph;
pub use hgnas_nn as nn;
pub use hgnas_ops as ops;
pub use hgnas_pointcloud as pointcloud;
pub use hgnas_predictor as predictor;
pub use hgnas_serve as serve;
pub use hgnas_tensor as tensor;
