//! CSR sparse inference (extension).
//!
//! The dense kernels in `tinynn::matrix` are deliberately branch-free: a
//! per-element `== 0.0` test in the inner loop defeats vectorization for
//! every caller, pruned or not. Pruned-network sparsity instead lives here
//! as an explicit compressed-sparse-row format: [`CsrMatrix`] stores only
//! the non-zero weights, [`SparseMlp`] runs the paper's compressed
//! Decision-maker/Calibrator over it, and [`InferenceNet`] picks the dense
//! or sparse engine per model — the `sparse_flops`-aware path the
//! controller's microsecond budget is modeled on.
//!
//! Skipping exact-zero weights never changes a dot product's value (each
//! skipped term contributes an exact `±0.0`), so the sparse forward agrees
//! with the dense forward on every finite input — enforced by tests.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::mlp::{Activation, InferScratch, Mlp};

/// A compressed-sparse-row `f32` matrix: only non-zero values are stored.
///
/// # Examples
///
/// ```
/// use tinynn::{CsrMatrix, Matrix};
///
/// let dense = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0]]);
/// let csr = CsrMatrix::from_dense(&dense);
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.to_dense(), dense);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes this row's entries.
    row_ptr: Vec<u32>,
    /// Column of each stored value, ascending within a row.
    col_idx: Vec<u32>,
    /// The non-zero values, row-major.
    vals: Vec<f32>,
}

impl CsrMatrix {
    /// Compresses a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        CsrMatrix { rows: m.rows(), cols: m.cols(), row_ptr, col_idx, vals }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) values.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of entries stored, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.vals.len() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The row-pointer array: `row_ptr()[r]..row_ptr()[r+1]` indexes row
    /// `r`'s entries (exposed so compiled decision plans can flatten the
    /// matrix into their own arenas).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of each stored value, ascending within a row.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The stored non-zero values, row-major.
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let orow = out.row_mut(r);
            for (&c, &v) in self.col_idx[start..end].iter().zip(&self.vals[start..end]) {
                orow[c as usize] = v;
            }
        }
        out
    }

    /// Sparse matrix–vector product `self @ x` into a caller-owned buffer.
    /// Each output sums its stored terms in ascending-column order, matching
    /// the dense kernel's value on finite inputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "input width mismatch");
        out.clear();
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0f32;
            for (&c, &v) in self.col_idx[start..end].iter().zip(&self.vals[start..end]) {
                acc += v * x[c as usize];
            }
            out.push(acc);
        }
    }
}

/// One sparse fully connected layer: `y = act(W_sparse @ x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseLayer {
    /// Compressed weights, `out × in`.
    pub w: CsrMatrix,
    /// Bias vector, length `out`.
    pub b: Vec<f32>,
    /// Post-affine activation.
    pub activation: Activation,
}

/// A pruned MLP compiled to CSR for single-sample inference.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tinynn::{prune_magnitude, InferScratch, Mlp, SparseMlp};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut mlp = Mlp::new(&[4, 8, 2], &mut rng);
/// prune_magnitude(&mut mlp, 0.6);
/// let sparse = SparseMlp::from_mlp(&mlp);
/// assert_eq!(sparse.flops(), mlp.sparse_flops());
/// let mut scratch = InferScratch::new();
/// let x = [0.3f32, -0.5, 0.8, 0.1];
/// assert_eq!(sparse.forward_one_into(&x, &mut scratch), &mlp.forward_one(&x)[..]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMlp {
    layers: Vec<SparseLayer>,
}

impl SparseMlp {
    /// Compiles a dense model to CSR.
    pub fn from_mlp(mlp: &Mlp) -> SparseMlp {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| SparseLayer {
                w: CsrMatrix::from_dense(&l.w),
                b: l.b.clone(),
                activation: l.activation,
            })
            .collect();
        SparseMlp { layers }
    }

    /// The compiled layers.
    pub fn layers(&self) -> &[SparseLayer] {
        &self.layers
    }

    /// FLOPs per inference counting only stored weights — by construction
    /// equal to [`Mlp::sparse_flops`] of the source model.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|l| 2 * l.w.nnz() as u64).sum()
    }

    /// Stored-weight fraction across all layers, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.w.rows() * l.w.cols()).sum();
        let nnz: usize = self.layers.iter().map(|l| l.w.nnz()).sum();
        if total == 0 {
            0.0
        } else {
            nnz as f64 / total as f64
        }
    }

    /// Output width (rows of the last layer's weight matrix).
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.w.rows())
    }

    /// Single-sample forward pass through reusable scratch buffers;
    /// allocation-free once warm, value-equal to the dense forward.
    pub fn forward_one_into<'s>(&self, x: &[f32], scratch: &'s mut InferScratch) -> &'s [f32] {
        scratch.a.clear();
        scratch.a.extend_from_slice(x);
        for layer in &self.layers {
            layer.w.mul_vec_into(&scratch.a, &mut scratch.b);
            for (v, &b) in scratch.b.iter_mut().zip(&layer.b) {
                *v += b;
                if layer.activation == Activation::Relu {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        &scratch.a
    }
}

/// Threshold below which [`InferenceNet::compile`] picks the CSR engine:
/// at half density the skipped multiplies outweigh the index indirection.
const SPARSE_DENSITY_THRESHOLD: f64 = 0.5;

#[derive(Debug, Clone)]
enum Engine {
    Dense(Mlp),
    Sparse(SparseMlp),
}

/// A model compiled for the controller hot path: dense or CSR engine plus
/// owned scratch, so every [`InferenceNet::infer`] call is allocation-free.
///
/// The engine choice never changes the produced values — both paths are
/// value-equal to [`Mlp::forward_one`] — only the work done per call.
#[derive(Debug, Clone)]
pub struct InferenceNet {
    engine: Engine,
    scratch: InferScratch,
}

impl InferenceNet {
    /// Compiles a model, selecting CSR when enough weights are pruned away
    /// (density below 0.5) and the branch-free dense kernel otherwise.
    pub fn compile(mlp: &Mlp) -> InferenceNet {
        let sparse = SparseMlp::from_mlp(mlp);
        let engine = if sparse.density() < SPARSE_DENSITY_THRESHOLD {
            Engine::Sparse(sparse)
        } else {
            Engine::Dense(mlp.clone())
        };
        InferenceNet { engine, scratch: InferScratch::new() }
    }

    /// Whether the CSR engine was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self.engine, Engine::Sparse(_))
    }

    /// FLOPs per inference on the selected engine (sparse-aware).
    pub fn flops(&self) -> u64 {
        match &self.engine {
            Engine::Dense(m) => m.flops(),
            Engine::Sparse(s) => s.flops(),
        }
    }

    /// Number of outputs per sample.
    pub fn output_size(&self) -> usize {
        match &self.engine {
            Engine::Dense(m) => m.output_size(),
            Engine::Sparse(s) => s.output_size(),
        }
    }

    /// Single-sample inference; same values as [`Mlp::forward_one`] on the
    /// source model, without per-call allocation.
    pub fn infer(&mut self, x: &[f32]) -> &[f32] {
        match &self.engine {
            Engine::Dense(m) => m.forward_one_into(x, &mut self.scratch),
            Engine::Sparse(s) => s.forward_one_into(x, &mut self.scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::prune_magnitude;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Mlp {
        let mut rng = StdRng::seed_from_u64(11);
        Mlp::new(&[5, 12, 12, 6], &mut rng)
    }

    #[test]
    fn csr_roundtrip_and_counts() {
        let dense = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[0.0, 0.0, 0.0], &[2.0, 0.0, -3.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!((csr.rows(), csr.cols()), (3, 3));
        assert!((csr.density() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn sparse_matvec_matches_dense() {
        let dense = Matrix::from_rows(&[&[0.5, 0.0, -1.0], &[0.0, 2.0, 0.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        let x = [1.0f32, -2.0, 3.0];
        let mut out = Vec::new();
        csr.mul_vec_into(&x, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let want: f32 = dense.row(r).iter().zip(&x).map(|(&w, &v)| w * v).sum();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn pruned_sparse_forward_equals_dense_forward() {
        let mut mlp = model();
        prune_magnitude(&mut mlp, 0.7);
        let sparse = SparseMlp::from_mlp(&mlp);
        let mut scratch = InferScratch::new();
        let x = [0.3f32, -0.8, 1.2, 0.0, -0.1];
        let got = sparse.forward_one_into(&x, &mut scratch).to_vec();
        assert_eq!(got, mlp.forward_one(&x));
        assert_eq!(sparse.flops(), mlp.sparse_flops());
        assert!(sparse.density() < 0.5);
    }

    #[test]
    fn inference_net_picks_engine_by_density() {
        let dense_model = model();
        let net = InferenceNet::compile(&dense_model);
        assert!(!net.is_sparse(), "unpruned model stays dense");
        assert_eq!(net.flops(), dense_model.flops());

        let mut pruned = model();
        prune_magnitude(&mut pruned, 0.8);
        let net = InferenceNet::compile(&pruned);
        assert!(net.is_sparse(), "heavily pruned model compiles to CSR");
        assert_eq!(net.flops(), pruned.sparse_flops());
    }

    #[test]
    fn inference_net_matches_forward_one_on_both_engines() {
        let x = [0.7f32, -0.3, 0.9, -1.5, 0.2];
        for prune in [0.0, 0.8] {
            let mut mlp = model();
            if prune > 0.0 {
                prune_magnitude(&mut mlp, prune);
            }
            let mut net = InferenceNet::compile(&mlp);
            for _ in 0..3 {
                assert_eq!(net.infer(&x), &mlp.forward_one(&x)[..]);
            }
        }
    }
}
