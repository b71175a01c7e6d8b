//! Dense `f32` tensor kernels for the HGNAS reproduction.
//!
//! This crate is the numerical substrate underneath `hgnas-autograd` and the
//! rest of the stack: a row-major, heap-allocated tensor with the kernels the
//! GNN workloads actually need — register-tiled and multi-threaded matrix
//! multiply, axis reductions with arg tracking (so max/min pooling is
//! differentiable one level up), row gather/scatter for message passing,
//! and broadcast elementwise arithmetic.
//!
//! The design goal is *predictable* performance without external BLAS:
//! everything the paper's models require (EdgeConv-style message passing,
//! GCN propagation, MLP heads) reduces to the kernels here. The hot inner
//! loops are the [`simd`] kernels. Three of them — the KNN distance sweep,
//! the arg-tracked max/min and the Adam step — and the matmuls' tiled
//! bodies are each one safe source compiled twice, as plain code and for
//! AVX2, with the AVX2 compile picked per call behind runtime feature
//! detection (cargo feature `simd`, on by default); both compiles return
//! the same bits. The other kernels are plain loops. The only `unsafe` in
//! the crate is the feature-gated call into an AVX2 compile, inside the
//! [`simd`] module's dispatch macro.
//!
//! # Example
//!
//! ```
//! use hgnas_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod kernels;
pub mod matmul;
pub mod reduce;
pub mod shape;
pub mod simd;
mod tensor;
pub mod threads;

pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by [`Tensor::allclose`] and the test-suites of the
/// crates layered on top.
pub const DEFAULT_ATOL: f32 = 1e-5;
