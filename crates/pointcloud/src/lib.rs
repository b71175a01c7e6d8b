//! SynthNet40 — a procedurally generated point-cloud classification dataset.
//!
//! The paper evaluates on ModelNet40 (12k CAD meshes, 40 classes), which is
//! not redistributable here; SynthNet40 stands in for it. Forty parametric
//! 3-D shape families — quadrics, polyhedra, surfaces of revolution, and
//! multi-part composites — are sampled on their surfaces, normalised to
//! the unit sphere, and augmented exactly the way
//! point-cloud pipelines augment ModelNet40 (gravity-axis rotation, jitter,
//! anisotropic scale).
//!
//! Two properties of ModelNet40 that the paper's numbers depend on are
//! engineered in:
//!
//! - **class imbalance** (test-set sizes vary per class) together with
//!   **graded per-class difficulty** (noise multipliers), so overall accuracy
//!   exceeds balanced accuracy (OA 92.9 vs mAcc 88.9 for DGCNN in Tab. II);
//! - **architecture sensitivity**: accuracy responds smoothly to model
//!   capacity, so the NAS loop has a real signal to optimise.
//!
//! # Example
//!
//! ```
//! use hgnas_pointcloud::{DatasetConfig, SynthNet40};
//!
//! let ds = SynthNet40::generate(&DatasetConfig::tiny(7));
//! assert!(ds.train.len() > 0 && ds.test.len() > 0);
//! let cloud = &ds.train[0];
//! assert_eq!(cloud.points.len(), cloud.num_points() * 3);
//! ```

mod dataset;
mod shapes;
mod task;

pub use dataset::{fresh_cache_source, Batch, DatasetConfig, PointCloud, SynthNet40};
pub use shapes::{class_name, class_spec, sample_class, NUM_CLASSES};
pub use task::{
    segment_labels, Classification, Robustness, Segmentation, Task, TaskKind,
    ROBUSTNESS_JITTER_SIGMA, ROBUSTNESS_OUTLIER_FRACTION, SEGMENTATION_PARTS,
};
