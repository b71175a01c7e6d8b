//! HGNAS — the hardware-aware graph neural architecture search framework
//! (the paper's primary contribution, Sec. III).
//!
//! Given a task (point-cloud classification), a target edge device, and
//! hardware constraints, [`Hgnas`] explores the fine-grained operation
//! design space of `hgnas-ops` and returns architectures that co-optimise
//! task accuracy and on-device latency:
//!
//! 1. **Design-space generation** ([`space`]): function space × operation
//!    space, hierarchically decoupled (Tab. I, Sec. III-B).
//! 2. **Multi-stage hierarchical search** ([`search`], Alg. 1): Stage 1
//!    evolves a pair of half-supernet [`hgnas_ops::FunctionSet`]s to
//!    maximise supernet accuracy; Stage 2 pre-trains the single-path
//!    one-shot (SPOS) [`Supernet`] and evolves per-position operation types
//!    under the multi-objective function Eq. (3).
//! 3. **Hardware awareness**: candidate latency comes from the GCN-based
//!    `hgnas-predictor` in milliseconds per query ([`LatencyMode::Predictor`])
//!    or from simulated on-device measurement
//!    ([`LatencyMode::Measured`]) — the Fig. 9(a) ablation.
//!
//! Search cost is metered on a simulated V100 wall-clock ([`SearchClock`])
//! so the Fig. 9 "search time" axes are reproducible on any host.
//!
//! # Example
//!
//! ```no_run
//! use hgnas_core::{Hgnas, SearchConfig, TaskConfig};
//! use hgnas_device::DeviceKind;
//!
//! let outcome = Hgnas::new(
//!     TaskConfig::tiny(42),
//!     SearchConfig::fast(DeviceKind::JetsonTx2),
//! )
//! .run();
//! println!("{} @ {:.1} ms", outcome.best.score, outcome.best.latency_ms);
//! ```

mod clock;
mod ea;
pub mod eval;
mod objective;
mod pareto;
pub mod search;
pub mod space;
mod supernet;

pub use clock::SearchClock;
pub use ea::{
    evolve, evolve_with, EaConfig, EaResult, EaSnapshot, EaState, FnEvaluator, GenerationEvaluator,
};
pub use eval::{CandidateScorer, EvalStats, Evaluator};
pub use objective::{CandidateMetrics, Objective};
pub use pareto::{pareto_front, pareto_front_nd};
pub use search::{
    Checkpoint, ConfigError, Genome, Hgnas, JointGenome, LatencyMode, MeasureBackend, PrefixParams,
    PretrainedPredictor, RunOptions, RunOutput, ScoredCandidate, SearchCheckpoint, SearchConfig,
    SearchOutcome, SearchedModel, SessionSnapshot, SessionState, Strategy, TaskConfig, TaskError,
};
pub use supernet::Supernet;
