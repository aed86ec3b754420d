//! CSR sparse weights (extension).
//!
//! The dense kernels in `tinynn::matrix` are deliberately branch-free: a
//! per-element `== 0.0` test in the inner loop defeats vectorization for
//! every caller, pruned or not. Pruned-network sparsity instead lives here
//! as an explicit compressed-sparse-row format: [`CsrMatrix`] stores only
//! the non-zero weights and [`SparseMlp`] holds a pruned model's layers in
//! that form, with sparse FLOPs and density accounting. The runtime's one
//! single-sample inference path (`ssmdvfs::plan::DecisionPlan`) compiles
//! its CSR programs from these layers and owns the dense-vs-CSR choice.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::mlp::{Activation, Mlp};

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

/// A pruned MLP's layers in CSR form.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tinynn::{prune_magnitude, Mlp, SparseMlp};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut mlp = Mlp::new(&[4, 8, 2], &mut rng);
/// prune_magnitude(&mut mlp, 0.6);
/// let sparse = SparseMlp::from_mlp(&mlp);
/// assert_eq!(sparse.flops(), mlp.sparse_flops());
/// assert!(sparse.density() < 0.5);
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
    fn pruned_sparse_forward_equals_dense_forward() {
        let mut mlp = model();
        prune_magnitude(&mut mlp, 0.7);
        let sparse = SparseMlp::from_mlp(&mlp);
        assert_eq!(sparse.flops(), mlp.sparse_flops());
        assert!(sparse.density() < 0.5);
    }
}
