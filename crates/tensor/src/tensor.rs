//! The core dense tensor type.

use crate::shape::Shape;
use crate::simd;
use rand::Rng;
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its storage and exposes the kernel set the HGNAS stack is
/// built on. It deliberately supports only the limited broadcasting the GNN
/// workloads need (matrix ⊕ bias-row); anything fancier belongs in the caller.
///
/// # Example
///
/// ```
/// use hgnas_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// let y = x.map(|v| v + 1.0);
/// assert_eq!(y.sum(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![v],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(rng: &mut R, dims: &[usize], lo: f32, hi: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with approximately standard-normal elements scaled by
    /// `std` (Irwin–Hall approximation: sum of 12 uniforms minus 6, which has
    /// unit variance and needs no transcendental functions).
    pub fn randn<R: Rng>(rng: &mut R, dims: &[usize], std: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let data = (0..n)
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.gen_range(0.0f32..1.0)).sum();
                (s - 6.0) * std
            })
            .collect();
        Tensor { shape, data }
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns a read-only view of the underlying storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns element `(i, j)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of bounds.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.shape.rank(), 2, "at2 requires a 2-D tensor");
        let cols = self.shape.dim(1);
        assert!(i < self.shape.dim(0) && j < cols, "index out of bounds");
        self.data[i * cols + j]
    }

    /// Returns the scalar value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise addition, supporting a 1-D bias row broadcast over the last
    /// dimension of `self`. Both the same-shape and bias-broadcast legs run
    /// [`crate::simd::add_assign`] (per row in the broadcast case, preserving
    /// the per-element order of the old modulo loop).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast compatible.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        if self.shape == other.shape {
            simd::add_assign(&mut out.data, &other.data);
            return out;
        }
        assert!(
            self.shape.broadcastable_from(&other.shape),
            "add: cannot broadcast {} into {}",
            other.shape,
            self.shape
        );
        let cols = other.shape.dim(0);
        for row in out.data.chunks_exact_mut(cols) {
            simd::add_assign(row, &other.data);
        }
        out
    }

    /// Elementwise subtraction (same shapes only).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "sub shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = self.clone();
        simd::sub_assign(&mut out.data, &other.data);
        out
    }

    /// Elementwise (Hadamard) product (same shapes only).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "mul shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = self.clone();
        simd::mul_assign(&mut out.data, &other.data);
        out
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        simd::scale(&mut out.data, s);
        out
    }

    /// Elementwise ReLU (`max`-free: anything not strictly positive becomes
    /// `+0.0`, NaN included — see [`crate::simd::relu`]).
    pub fn relu(&self) -> Tensor {
        let mut out = self.clone();
        simd::relu(&mut out.data);
        out
    }

    /// Elementwise LeakyReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        let mut out = self.clone();
        simd::leaky_relu(&mut out.data, slope);
        out
    }

    /// Sums all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Panics
    ///
    /// Never panics: shapes cannot be empty of elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element value. Returns `f32::NEG_INFINITY` only for the
    /// impossible empty case.
    pub fn max_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires a 2-D tensor");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Returns `true` if every element of `self` and `other` differs by at
    /// most `atol`.
    pub fn allclose(&self, other: &Tensor, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= atol)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.numel() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dims(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_data_len_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn add_broadcast_bias() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let r = m.add(&b);
        assert_eq!(r.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        assert!(t.transpose2().transpose2().allclose(&t, 0.0));
    }

    #[test]
    fn eye_matmul_identity_data() {
        let e = Tensor::eye(3);
        assert_eq!(e.at2(0, 0), 1.0);
        assert_eq!(e.at2(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn randn_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&mut rng, &[10_000], 1.0);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|v| v * v).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[4]);
    }
}
