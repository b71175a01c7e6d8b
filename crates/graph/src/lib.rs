//! Graph substrate for HGNAS: KNN construction, neighbour lists, CSR
//! adjacency and small directed graphs.
//!
//! Point-cloud GNNs such as DGCNN rebuild a K-nearest-neighbour graph inside
//! every layer — the very operation the paper identifies as the dominant cost
//! on GPUs (Fig. 3). This crate provides the one KNN builder the pipeline
//! runs, [`knn_brute`] (a lane-parallel distance sweep plus a bounded
//! top-`k` selection), the random-sampling alternative from the design
//! space (Tab. I) and the graph containers the rest of the stack shares.
//!
//! # Example
//!
//! ```
//! use hgnas_graph::knn_brute;
//!
//! // Four points on a line; each point's nearest 2 neighbours.
//! let pts = [0.0, 0.0, 0.0,  1.0, 0.0, 0.0,  2.0, 0.0, 0.0,  10.0, 0.0, 0.0];
//! let nl = knn_brute(&pts, 3, 2);
//! assert_eq!(nl.neighbors(0), &[1, 2]);
//! ```

mod digraph;
mod knn;
mod neighbors;

pub use digraph::{AdjNorm, DiGraph};
pub use knn::{
    knn_brute, knn_brute_calls, knn_brute_segments, random_neighbors, random_neighbors_segments,
};
pub use neighbors::{Csr, NeighborList};
