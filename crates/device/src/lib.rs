//! Analytical edge-device performance simulator for HGNAS.
//!
//! The paper measures GNN inference on four physical platforms (Nvidia
//! RTX3080, Intel i7-8700K, Jetson TX2, Raspberry Pi 3B+). Those devices are
//! replaced here by a roofline-style analytical model: a lowered
//! architecture becomes a sequence of [`WorkloadOp`]s, each carrying
//! FLOPs, memory traffic and buffer sizes, and a [`DeviceProfile`] turns
//! that into latency, an execution-time breakdown by operation class, and
//! peak memory (with out-of-memory detection).
//!
//! Profiles are *calibrated*, not derived: per-class effective rates are
//! fitted so DGCNN at 1024 points reproduces the paper's Table II latencies,
//! the Fig. 3 breakdown shapes, and the Fig. 1 memory curve (including the
//! Raspberry Pi OOM point past 1536 points). The fitted constants stay
//! physically plausible (e.g. the Pi's dense-GEMM rate is ≈4 GFLOP/s —
//! OpenBLAS-on-A53 territory; the RTX3080's gather bandwidth is far below
//! its streaming bandwidth, matching PyG scatter behaviour).
//!
//! # Example
//!
//! ```
//! use hgnas_device::{DeviceKind, Workload, WorkloadOp};
//!
//! let mut w = Workload::new();
//! w.push(WorkloadOp::knn("knn", 1024, 20, 3));
//! let report = DeviceKind::Rtx3080.profile().execute(&w);
//! assert!(report.latency_ms > 0.0);
//! ```

mod exec;
mod persona;
mod profiles;
mod workload;

pub use exec::{ExecutionReport, MeasureError};
pub use persona::{
    builtin_slug, calibrate, collect_samples, parse_spec, CalibrationSample, DevicePersona,
    PersonaError, PersonaRegistry,
};
pub use profiles::{ClassRates, DeviceKind, DeviceProfile};
pub use workload::{OpClass, Workload, WorkloadOp};
