//! Row-major dense `f32` matrix.
//!
//! The three GEMMs ([`Matrix::matmul`], [`Matrix::t_matmul`],
//! [`Matrix::matmul_t`]) run on one register-blocked micro-kernel
//! ([`kernels::gemm_with`]): the outer loop walks `NR`-wide column
//! panels of the right operand, so a `k × NR` panel stays in L1 while every
//! `MR`-row tile of the left operand streams past it, and each tile's sums
//! stay in registers across the whole inner dimension. The `_into` forms
//! reuse the output's allocation, which keeps a training step free of
//! allocation.

use crate::kernels::{self, Gemm, LANES};
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// Rows are stored contiguously, so `row(i)` is a cheap slice and iterating
/// samples (rows of a design matrix) never copies.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by stacking equally sized row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix from owned row vectors.
    pub fn from_row_vecs(rows: Vec<Vec<f32>>) -> Self {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::from_rows(&refs)
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Fills with samples from `N(0, std^2)` using the given deterministic RNG.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.normal() as f32 * std);
        }
        Self { rows, cols, data }
    }

    /// Fills with uniform samples in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(lo + rng.gen_f32() * (hi - lo));
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing only the rows whose indices are given.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// Gathers the rows whose indices are given into `out`, reusing its
    /// allocation.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.resize(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
    }

    /// Sets the shape to `rows × cols`, keeping the allocation when it is
    /// large enough: the flat buffer is truncated or zero-extended, so the
    /// contents are meant to be overwritten.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns a new matrix containing only the columns whose indices are given.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            for (k, &j) in idx.iter().enumerate() {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// Appends a row; the matrix must be empty or have matching width.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushed row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out`, reusing its allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Matrix product `self * other`; see [`Matrix::matmul_into`].
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self * other`, reusing `out`'s allocation. Each element is one
    /// fused multiply-add chain over the inner dimension in order from +0.0,
    /// so the result equals the sequential `mul_add` triple loop bit for bit
    /// on every kernel implementation.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        gemm(1, self.cols, &self.data, self.cols, 1, &other.data, out);
    }

    /// `self^T * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// `out = self^T * other`, reusing `out`'s allocation: the micro-kernel
    /// reads `self` with a stride, with the same per-element chain as
    /// [`Matrix::matmul_into`].
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.resize(self.cols, other.cols);
        gemm(1, self.rows, &self.data, 1, self.cols, &other.data, out);
    }

    /// `self * other^T`; see [`Matrix::matmul_dot_into`].
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(0, 0);
        self.matmul_dot_into(&other.transpose(), &mut out);
        out
    }

    /// `out = self * other` where each element is exactly
    /// [`kernels::dot`] of a row of `self` with a column of `other`: the
    /// micro-kernel runs eight fused chains per element, chain `l` over the
    /// inner steps `p ≡ l (mod 8)` in order (the dot's blocks, then its
    /// tail folded into lanes `0..k % 8`), and collapses them with the
    /// dot's `reduce8` tree. This is the input-gradient GEMM `δ · Wᵀ` with
    /// `Wᵀ` passed as `other`, bit-identical to one `dot` per element.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_dot_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul_dot shape mismatch");
        out.resize(self.rows, other.cols);
        gemm(LANES, self.cols, &self.data, self.cols, 1, &other.data, out);
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self * s` into a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// Element-wise (Hadamard) product into a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Per-column mean (length `cols`).
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f64; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        let n = self.rows.max(1) as f64;
        mean.into_iter().map(|m| (m / n) as f32).collect()
    }

    /// Per-column population standard deviation (length `cols`).
    pub fn col_std(&self) -> Vec<f32> {
        let mean = self.col_mean();
        let mut var = vec![0.0f64; self.cols];
        for row in self.iter_rows() {
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                let d = (v - m) as f64;
                *s += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        var.into_iter().map(|s| ((s / n) as f32).sqrt()).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| (v * v) as f64).sum::<f64>().sqrt() as f32
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// `out = A * B` on the active kernel, where `A(i, p) = a[i*a_rs + p*a_cs]`
/// has `k` columns and `b` is row-major `k × out.cols`.
fn gemm(lanes: usize, k: usize, a: &[f32], a_rs: usize, a_cs: usize, b: &[f32], out: &mut Matrix) {
    let (m, n) = out.shape();
    let g = Gemm { m, n, k, a_rs, a_cs, lanes };
    kernels::gemm_with(kernels::active(), g, a, b, &mut out.data);
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng64::new(7);
        let a = Matrix::randn(4, 4, 1.0, &mut rng);
        let c = a.matmul(&Matrix::identity(4));
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// The sequential fused chain every `matmul` / `t_matmul` element
    /// must reproduce bit for bit.
    fn chain_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                out[(i, j)] = (0..a.cols()).fold(0.0, |acc, p| a[(i, p)].mul_add(b[(p, j)], acc));
            }
        }
        out
    }

    #[test]
    fn gemms_reproduce_their_recipes_on_awkward_shapes() {
        let mut rng = Rng64::new(77);
        // Single rows and columns, partial row tiles and column panels,
        // inner dimensions off the 8-lane blocks.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 131, 9), (2, 300, 4), (17, 257, 33)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let chain = chain_matmul(&a, &b);
            assert_eq!(a.matmul(&b), chain, "matmul {m}x{k}x{n}");
            assert_eq!(a.transpose().t_matmul(&b), chain, "t_matmul {m}x{k}x{n}");
            let bt = b.transpose();
            let dots = a.matmul_t(&bt);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(dots[(i, j)].to_bits(), kernels::dot(a.row(i), bt.row(j)).to_bits());
                }
            }
        }
    }

    #[test]
    fn into_forms_reuse_and_reshape_the_output() {
        let mut rng = Rng64::new(78);
        let a = Matrix::randn(6, 4, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let mut out = Matrix::filled(9, 9, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.select_rows_into(&[5, 0], &mut out);
        assert_eq!(out, a.select_rows(&[5, 0]));
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(1);
        let a = Matrix::randn(3, 7, 1.0, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn col_mean_and_std() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(m.col_mean(), vec![2.0, 10.0]);
        let std = m.col_std();
        assert!((std[0] - 1.0).abs() < 1e-6);
        assert!(std[1].abs() < 1e-6);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn push_row_grows_empty_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b).row(0), &[3.0, 8.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let a = Matrix::randn(3, 3, 1.0, &mut r1);
        let b = Matrix::randn(3, 3, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
