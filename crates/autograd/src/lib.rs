//! Tape-based reverse-mode automatic differentiation for HGNAS.
//!
//! The HGNAS stack trains three kinds of models — the SPOS supernet, the
//! stand-alone searched architectures, and the GCN latency predictor — all of
//! which have *dynamic* structure (the supernet samples a random path every
//! step). A define-by-run tape is the natural fit: each training step builds
//! a fresh [`Tape`], runs the forward ops, calls [`Tape::backward`], and
//! reads gradients back out.
//!
//! The op set is exactly what graph message passing needs: dense matmul,
//! bias/elementwise arithmetic, activations, a fused edge aggregation
//! ([`Tape::edge_aggregate`]: message construction and neighbour
//! reduction in one op), row gather/repeat/concat and arg-tracked
//! reductions for the unfused form and global pooling, and the two losses
//! the paper uses (softmax cross-entropy for classification, MAPE for the
//! latency predictor).
//!
//! # Example
//!
//! ```
//! use hgnas_autograd::Tape;
//! use hgnas_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.param(Tensor::from_vec(vec![2.0], &[1, 1]));
//! let y = tape.scale(x, 3.0);
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).unwrap().data(), &[3.0]);
//! ```

mod grad_check;
mod tape;

pub use grad_check::{assert_grad_close, numerical_gradient};
pub use hgnas_tensor::reduce::Reduction;
pub use tape::{EdgeMessage, Tape, Var};
