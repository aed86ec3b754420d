//! Multi-layer perceptrons: layers, forward/backward passes, FLOPs
//! accounting.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// The activation applied after a layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice for every hidden layer).
    Relu,
    /// No activation (output layers).
    Identity,
}

impl Activation {
    fn apply(self, m: &mut Matrix) {
        if self == Activation::Relu {
            m.map_inplace(|v| v.max(0.0));
        }
    }

    /// d(activation)/d(pre-activation), given the *post*-activation value.
    fn grad_from_output(self, out: f32) -> f32 {
        match self {
            Activation::Relu => {
                if out > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// One fully connected layer: `y = act(x @ Wᵀ + b)`.
///
/// Weights are stored as an `out × in` matrix so that row `j` is neuron
/// `j`'s incoming weight vector — the unit the paper's neuron-level pruning
/// inspects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `out × in`.
    pub w: Matrix,
    /// Bias vector, length `out`.
    pub b: Vec<f32>,
    /// Post-affine activation.
    pub activation: Activation,
}

impl Dense {
    /// Creates a layer with He-initialized weights.
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut impl Rng) -> Dense {
        let scale = (2.0 / input as f32).sqrt();
        let mut w = Matrix::zeros(output, input);
        for v in w.as_mut_slice() {
            // Uniform He-style init in [-scale, scale] * sqrt(3) keeps the
            // variance of a uniform distribution equal to the He target.
            *v = rng.gen_range(-scale * 1.732..scale * 1.732);
        }
        Dense { w, b: vec![0.0; output], activation }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.w.cols()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass over a batch (rows are samples).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`Dense::forward`] into a caller-owned buffer (resized as needed).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_transposed_into(&self.w, out);
        self.finish_affine(out);
    }

    /// [`Dense::forward_into`] through a caller-owned transposed-weights
    /// scratch: `w` is re-laid as `in × out` into `wt`, and the product
    /// runs through the fast row-streaming [`Matrix::matmul_into`] kernel.
    /// Both kernels accumulate each output over `k` in ascending order, so
    /// the result is bit-identical to [`Dense::forward_into`]; this is the
    /// batched hot path ([`Mlp::forward_cached`]) where the transpose cost
    /// is amortized over the whole minibatch.
    pub fn forward_transposed_into(&self, x: &Matrix, wt: &mut Matrix, out: &mut Matrix) {
        self.w.transpose_into(wt);
        x.matmul_into(wt, out);
        self.finish_affine(out);
    }

    fn finish_affine(&self, out: &mut Matrix) {
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.activation.apply(out);
    }

    /// Single-sample forward pass into a caller-owned buffer. Produces the
    /// same values as the batched path (each output is one ascending-`k`
    /// dot product).
    pub fn forward_vec_into(&self, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.input_size(), "input width mismatch");
        out.clear();
        for j in 0..self.w.rows() {
            let wrow = self.w.row(j);
            let mut acc = 0.0f32;
            for (&wv, &xv) in wrow.iter().zip(x) {
                acc += wv * xv;
            }
            acc += self.b[j];
            if self.activation == Activation::Relu {
                acc = acc.max(0.0);
            }
            out.push(acc);
        }
    }

    /// Dense FLOPs for one inference: a multiply and an add per weight.
    pub fn flops(&self) -> u64 {
        2 * (self.w.rows() * self.w.cols()) as u64
    }

    /// FLOPs counting only non-zero weights (what a sparse accelerator,
    /// like the paper's ASIC module, would execute).
    pub fn sparse_flops(&self) -> u64 {
        2 * self.w.as_slice().iter().filter(|v| **v != 0.0).count() as u64
    }
}

/// Gradients for every layer of an [`Mlp`], in layer order.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Per-layer `(dW, db)`.
    pub layers: Vec<(Matrix, Vec<f32>)>,
}

impl Gradients {
    /// An empty gradient set whose buffers grow on first use (see
    /// [`Mlp::backward_into`]).
    pub fn empty() -> Gradients {
        Gradients { layers: Vec::new() }
    }

    /// Overwrites `self` with `src`, reshaping buffers in place — the seed
    /// of the fixed-order shard reduction (shard 0's gradients land here,
    /// then the remaining shards [`Gradients::accumulate_into`] on top).
    pub fn assign_from(&mut self, src: &Gradients) {
        if self.layers.len() != src.layers.len() {
            self.layers.resize(src.layers.len(), (Matrix::zeros(0, 0), Vec::new()));
        }
        for ((dw, db), (sw, sb)) in self.layers.iter_mut().zip(&src.layers) {
            dw.reshape(sw.rows(), sw.cols());
            dw.as_mut_slice().copy_from_slice(sw.as_slice());
            db.clear();
            db.extend_from_slice(sb);
        }
    }

    /// Adds `self` element-wise into `dst`. Callers reduce per-shard
    /// gradients by folding shards in ascending index order — a fixed-order
    /// reduction, so the summed gradient is a pure function of the shard
    /// partition and never of which worker computed which shard.
    ///
    /// # Panics
    ///
    /// Panics if the layer shapes differ.
    pub fn accumulate_into(&self, dst: &mut Gradients) {
        assert_eq!(self.layers.len(), dst.layers.len(), "gradient layer count mismatch");
        for ((sw, sb), (dw, db)) in self.layers.iter().zip(&mut dst.layers) {
            assert_eq!((sw.rows(), sw.cols()), (dw.rows(), dw.cols()), "gradient shape mismatch");
            assert_eq!(sb.len(), db.len(), "bias gradient length mismatch");
            for (d, &s) in dw.as_mut_slice().iter_mut().zip(sw.as_slice()) {
                *d += s;
            }
            for (d, &s) in db.iter_mut().zip(sb) {
                *d += s;
            }
        }
    }

    /// Divides every gradient element by `n` — the final batch-mean step of
    /// the shard reduction (shards accumulate raw per-sample sums).
    pub fn div_scalar(&mut self, n: f32) {
        for (dw, db) in &mut self.layers {
            dw.map_inplace(|v| v / n);
            for b in db.iter_mut() {
                *b /= n;
            }
        }
    }
}

/// Cached intermediate activations from [`Mlp::forward_train`] /
/// [`Mlp::forward_into`]. Reusable: the per-layer matrices are resized in
/// place, so a warm cache makes repeated forward passes allocation-free.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i+1]` is layer `i`'s
    /// output.
    pub activations: Vec<Matrix>,
    /// Scratch for the current layer's transposed weights (`in × out`),
    /// re-laid per layer so the batched product runs through the fast
    /// [`Matrix::matmul_into`] kernel.
    pub(crate) wt: Matrix,
}

impl ForwardCache {
    /// An empty cache; buffers are created on first use.
    pub fn empty() -> ForwardCache {
        ForwardCache { activations: Vec::new(), wt: Matrix::zeros(0, 0) }
    }

    /// Mutable access to the input slot (`activations[0]`), creating it if
    /// the cache is fresh. Callers gather a minibatch directly into this
    /// buffer (e.g. via [`Matrix::select_rows_into`]) and then run
    /// [`Mlp::forward_cached`].
    pub fn input_mut(&mut self) -> &mut Matrix {
        if self.activations.is_empty() {
            self.activations.push(Matrix::zeros(0, 0));
        }
        &mut self.activations[0]
    }

    /// The network output for this pass.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("cache always holds the input")
    }
}

/// Reusable single-sample inference buffers for [`Mlp::forward_one_into`]:
/// two ping-pong activation vectors, grown once and recycled on every call.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl InferScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> InferScratch {
        InferScratch::default()
    }
}

/// A feed-forward multi-layer perceptron.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tinynn::{Matrix, Mlp};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 12, 3], &mut rng);
/// assert_eq!(mlp.input_size(), 4);
/// assert_eq!(mlp.output_size(), 3);
/// let y = mlp.forward(&Matrix::zeros(2, 4));
/// assert_eq!((y.rows(), y.cols()), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP from a size list `[input, hidden..., output]`, with
    /// ReLU on every hidden layer and an identity output layer — the
    /// architecture family of the paper's Decision-maker and Calibrator.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act =
                    if i + 2 == sizes.len() { Activation::Identity } else { Activation::Relu };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Builds an MLP from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if the layer list is empty or adjacent widths mismatch.
    pub fn from_layers(layers: Vec<Dense>) -> Mlp {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_size(),
                pair[1].input_size(),
                "adjacent layer widths must agree"
            );
        }
        Mlp { layers }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by pruning).
    pub fn layers_mut(&mut self) -> &mut Vec<Dense> {
        &mut self.layers
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers.last().expect("non-empty").output_size()
    }

    /// Layer widths as `[input, hidden..., output]`.
    pub fn sizes(&self) -> Vec<usize> {
        let mut v = vec![self.input_size()];
        v.extend(self.layers.iter().map(Dense::output_size));
        v
    }

    /// Batch forward pass (rows are samples).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut cache = ForwardCache::empty();
        self.forward_into(x, &mut cache);
        cache.activations.pop().expect("cache holds the output")
    }

    /// Single-sample forward pass.
    pub fn forward_one(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = InferScratch::new();
        self.forward_one_into(x, &mut scratch).to_vec()
    }

    /// Single-sample forward pass through reusable scratch buffers —
    /// the controller hot path. Allocation-free once the scratch is warm;
    /// produces the same values as [`Mlp::forward_one`].
    pub fn forward_one_into<'s>(&self, x: &[f32], scratch: &'s mut InferScratch) -> &'s [f32] {
        scratch.a.clear();
        scratch.a.extend_from_slice(x);
        for layer in &self.layers {
            layer.forward_vec_into(&scratch.a, &mut scratch.b);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        &scratch.a
    }

    /// Forward pass that keeps every intermediate activation for
    /// [`Mlp::backward`].
    pub fn forward_train(&self, x: &Matrix) -> ForwardCache {
        let mut cache = ForwardCache::empty();
        self.forward_into(x, &mut cache);
        cache
    }

    /// [`Mlp::forward_train`] into a reusable cache: `x` is copied into the
    /// input slot and every layer writes into a recycled activation matrix,
    /// so a warm cache runs the whole pass without heap allocation.
    pub fn forward_into(&self, x: &Matrix, cache: &mut ForwardCache) {
        let input = cache.input_mut();
        input.reshape(x.rows(), x.cols());
        input.as_mut_slice().copy_from_slice(x.as_slice());
        self.forward_cached(cache);
    }

    /// Runs the layers on whatever the caller placed in
    /// [`ForwardCache::input_mut`] — the zero-copy variant of
    /// [`Mlp::forward_into`] used by the training loop, which gathers each
    /// minibatch directly into the cache's input slot.
    ///
    /// # Panics
    ///
    /// Panics if the cache input is missing or has the wrong width.
    pub fn forward_cached(&self, cache: &mut ForwardCache) {
        assert!(!cache.activations.is_empty(), "fill ForwardCache::input_mut first");
        assert_eq!(cache.activations[0].cols(), self.input_size(), "input width mismatch");
        cache.activations.resize(self.layers.len() + 1, Matrix::zeros(0, 0));
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, after) = cache.activations.split_at_mut(l + 1);
            layer.forward_transposed_into(&before[l], &mut cache.wt, &mut after[0]);
        }
    }

    /// Backpropagates `d_out` (gradient of the loss w.r.t. the network
    /// output, same shape as the output batch) through the cached pass.
    pub fn backward(&self, cache: &ForwardCache, d_out: &Matrix) -> Gradients {
        let mut grads = Gradients::empty();
        let mut delta = d_out.clone();
        let mut delta_tmp = Matrix::zeros(0, 0);
        self.backward_into(cache, &mut delta, &mut delta_tmp, &mut grads);
        grads
    }

    /// [`Mlp::backward`] through caller-owned buffers — allocation-free
    /// once warm. On entry `delta` holds `d_out`; it is consumed as the
    /// ping-pong backprop buffer (with `delta_tmp` as its partner) and
    /// `grads` receives `(dW, db)` per layer, buffers resized in place.
    ///
    /// # Panics
    ///
    /// Panics if `delta` does not match the cached output shape.
    pub fn backward_into(
        &self,
        cache: &ForwardCache,
        delta: &mut Matrix,
        delta_tmp: &mut Matrix,
        grads: &mut Gradients,
    ) {
        let batch = delta.rows() as f32;
        self.backward_impl(cache, delta, delta_tmp, grads, Some(batch));
    }

    /// [`Mlp::backward_into`] without the batch-mean normalization: `grads`
    /// receives *raw per-sample sums* (`dW = deltaᵀ @ input`, `db = Σ
    /// delta`). This is the per-shard kernel of the data-parallel training
    /// path — each shard backpropagates its row range independently, the
    /// caller folds the shard sums in fixed index order
    /// ([`Gradients::accumulate_into`]) and divides by the *full* batch size
    /// once ([`Gradients::div_scalar`]), so the reduced gradient is
    /// identical whether one worker or many computed the shards.
    ///
    /// # Panics
    ///
    /// Panics if `delta` does not match the cached output shape.
    pub fn backward_batch_shard_into(
        &self,
        cache: &ForwardCache,
        delta: &mut Matrix,
        delta_tmp: &mut Matrix,
        grads: &mut Gradients,
    ) {
        self.backward_impl(cache, delta, delta_tmp, grads, None);
    }

    /// Shared backprop body. `normalizer = Some(batch)` divides both `dW`
    /// and `db` contributions by `batch` (the historical
    /// [`Mlp::backward_into`] arithmetic, preserved bit-for-bit);
    /// `None` leaves raw sums for the shard reduction.
    fn backward_impl(
        &self,
        cache: &ForwardCache,
        delta: &mut Matrix,
        delta_tmp: &mut Matrix,
        grads: &mut Gradients,
        normalizer: Option<f32>,
    ) {
        assert_eq!(
            (delta.rows(), delta.cols()),
            (cache.output().rows(), cache.output().cols()),
            "delta must match the cached output shape"
        );
        if grads.layers.len() != self.layers.len() {
            grads.layers.resize(self.layers.len(), (Matrix::zeros(0, 0), Vec::new()));
        }
        for (l, layer) in self.layers.iter().enumerate().rev() {
            // delta currently holds dL/d(output of layer l), post-activation.
            let out = &cache.activations[l + 1];
            for i in 0..delta.rows() {
                let drow = delta.row_mut(i);
                let orow = out.row(i);
                for (d, &o) in drow.iter_mut().zip(orow) {
                    *d *= layer.activation.grad_from_output(o);
                }
            }
            let input = &cache.activations[l];
            let (dw, db) = &mut grads.layers[l];
            // dW = deltaᵀ @ input [/ batch]  (out x in)
            delta.transposed_matmul_into(input, dw);
            if let Some(batch) = normalizer {
                dw.map_inplace(|v| v / batch);
            }
            db.clear();
            db.resize(layer.output_size(), 0.0);
            match normalizer {
                Some(batch) => {
                    for i in 0..delta.rows() {
                        for (b, &d) in db.iter_mut().zip(delta.row(i)) {
                            *b += d / batch;
                        }
                    }
                }
                None => {
                    for i in 0..delta.rows() {
                        for (b, &d) in db.iter_mut().zip(delta.row(i)) {
                            *b += d;
                        }
                    }
                }
            }
            // dL/d(input of layer l) = delta @ W  (batch x in)
            if l > 0 {
                delta.matmul_into(&layer.w, delta_tmp);
                std::mem::swap(delta, delta_tmp);
            }
        }
    }

    /// Copies another model's weights into this one without reallocating —
    /// the best-weights snapshot of the training loop.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(
                (dst.w.rows(), dst.w.cols()),
                (src.w.rows(), src.w.cols()),
                "layer shape mismatch"
            );
            dst.w.as_mut_slice().copy_from_slice(src.w.as_slice());
            dst.b.copy_from_slice(&src.b);
            dst.activation = src.activation;
        }
    }

    /// Total dense FLOPs for one inference.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(Dense::flops).sum()
    }

    /// Total FLOPs counting only non-zero weights.
    pub fn sparse_flops(&self) -> u64 {
        self.layers.iter().map(Dense::sparse_flops).sum()
    }

    /// Number of weights (excluding biases).
    pub fn weight_count(&self) -> u64 {
        self.layers.iter().map(|l| (l.w.rows() * l.w.cols()) as u64).sum()
    }

    /// Number of non-zero weights.
    pub fn nonzero_weights(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.w.as_slice().iter().filter(|v| **v != 0.0).count() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn shapes_flow_through() {
        let mlp = Mlp::new(&[5, 20, 20, 6], &mut rng());
        assert_eq!(mlp.sizes(), vec![5, 20, 20, 6]);
        let y = mlp.forward(&Matrix::zeros(7, 5));
        assert_eq!((y.rows(), y.cols()), (7, 6));
    }

    #[test]
    fn flops_formula() {
        let mlp = Mlp::new(&[5, 12, 6], &mut rng());
        assert_eq!(mlp.flops(), 2 * (5 * 12 + 12 * 6) as u64);
        assert_eq!(mlp.weight_count(), (5 * 12 + 12 * 6) as u64);
    }

    #[test]
    fn hidden_layers_are_relu_output_is_identity() {
        let mlp = Mlp::new(&[3, 4, 2], &mut rng());
        assert_eq!(mlp.layers()[0].activation, Activation::Relu);
        assert_eq!(mlp.layers()[1].activation, Activation::Identity);
    }

    #[test]
    fn relu_clamps_negative_preactivations() {
        let mut l = Dense::new(2, 2, Activation::Relu, &mut rng());
        l.w = Matrix::from_rows(&[&[-1.0, 0.0], &[1.0, 0.0]]);
        l.b = vec![0.0, 0.0];
        let y = l.forward(&Matrix::from_rows(&[&[2.0, 0.0]]));
        assert_eq!(y.row(0), &[0.0, 2.0]);
    }

    /// Numerical gradient check: analytic backward vs finite differences.
    #[test]
    fn backward_matches_finite_differences() {
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng());
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[0.1, 0.8, -0.5]]);
        // Loss = 0.5 * sum(output²); dL/dout = out.
        let loss = |m: &Mlp| -> f64 {
            let y = m.forward(&x);
            y.as_slice().iter().map(|v| 0.5 * (*v as f64) * (*v as f64)).sum()
        };
        let cache = mlp.forward_train(&x);
        let d_out = cache.output().clone();
        let grads = mlp.backward(&cache, &d_out);

        let eps = 1e-3f32;
        let batch = x.rows() as f64;
        for (li, (dw, db)) in grads.layers.iter().enumerate() {
            // Spot-check a handful of weights per layer.
            for (r, c) in [(0usize, 0usize), (1, 1), (dw.rows() - 1, dw.cols() - 1)] {
                let orig = mlp.layers[li].w[(r, c)];
                mlp.layers_mut()[li].w[(r, c)] = orig + eps;
                let hi = loss(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig - eps;
                let lo = loss(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig;
                let numeric = ((hi - lo) / (2.0 * eps as f64) / batch) as f32;
                let analytic = dw[(r, c)];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                    "layer {li} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            let orig = mlp.layers[li].b[0];
            mlp.layers_mut()[li].b[0] = orig + eps;
            let hi = loss(&mlp);
            mlp.layers_mut()[li].b[0] = orig - eps;
            let lo = loss(&mlp);
            mlp.layers_mut()[li].b[0] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64) / batch) as f32;
            assert!(
                (numeric - db[0]).abs() < 2e-2 * (1.0 + db[0].abs()),
                "layer {li} b[0]: numeric {numeric} vs analytic {}",
                db[0]
            );
        }
    }

    #[test]
    fn sparse_flops_tracks_zeros() {
        let mut mlp = Mlp::new(&[4, 4, 2], &mut rng());
        let dense = mlp.flops();
        assert_eq!(mlp.sparse_flops(), dense);
        // Zero half of the first layer.
        for (i, v) in mlp.layers_mut()[0].w.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        assert!(mlp.sparse_flops() < dense);
        assert_eq!(mlp.nonzero_weights(), mlp.sparse_flops() / 2);
    }

    #[test]
    #[should_panic(expected = "adjacent layer widths")]
    fn mismatched_layers_rejected() {
        let mut r = rng();
        let a = Dense::new(3, 4, Activation::Relu, &mut r);
        let b = Dense::new(5, 2, Activation::Identity, &mut r);
        Mlp::from_layers(vec![a, b]);
    }

    #[test]
    fn forward_one_matches_batch() {
        let mlp = Mlp::new(&[3, 6, 2], &mut rng());
        let x = [0.3f32, -0.7, 0.2];
        let single = mlp.forward_one(&x);
        let batch = mlp.forward(&Matrix::from_rows(&[&x]));
        assert_eq!(single, batch.row(0));
    }

    #[test]
    fn warm_cache_and_scratch_reproduce_fresh_results() {
        let a = Mlp::new(&[4, 10, 3], &mut rng());
        let b = Mlp::new(&[4, 10, 3], &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4], &[1.0, 0.0, -1.0, 0.5]]);
        let mut cache = ForwardCache::empty();
        let mut scratch = InferScratch::new();
        for mlp in [&a, &b, &a] {
            mlp.forward_into(&x, &mut cache);
            assert_eq!(cache.output(), &mlp.forward(&x), "warm cache must match fresh");
            let got = mlp.forward_one_into(x.row(0), &mut scratch).to_vec();
            assert_eq!(got, mlp.forward_one(x.row(0)), "warm scratch must match fresh");
        }
    }

    #[test]
    fn backward_into_reuses_buffers_bit_identically() {
        let mlp = Mlp::new(&[3, 7, 2], &mut rng());
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[0.1, 0.8, -0.5]]);
        let cache = mlp.forward_train(&x);
        let d_out = cache.output().clone();
        let fresh = mlp.backward(&cache, &d_out);
        let mut delta = Matrix::zeros(0, 0);
        let mut delta_tmp = Matrix::zeros(0, 0);
        let mut grads = Gradients::empty();
        for _ in 0..2 {
            delta.reshape(d_out.rows(), d_out.cols());
            delta.as_mut_slice().copy_from_slice(d_out.as_slice());
            mlp.backward_into(&cache, &mut delta, &mut delta_tmp, &mut grads);
            assert_eq!(grads, fresh);
        }
    }

    #[test]
    fn shard_backward_reduces_to_the_full_gradient() {
        // Raw shard sums folded in fixed order and divided by the batch
        // size must match the monolithic backward to float tolerance (the
        // summation orders differ, so equality is approximate), and the dW
        // of a single whole-batch shard must match bit-for-bit.
        let mlp = Mlp::new(&[3, 6, 2], &mut rng());
        let x = Matrix::from_rows(&[
            &[0.4, -0.2, 0.9],
            &[0.1, 0.8, -0.5],
            &[-0.3, 0.5, 0.2],
            &[0.7, -0.6, 0.1],
        ]);
        let cache = mlp.forward_train(&x);
        let d_out = cache.output().clone();
        let full = mlp.backward(&cache, &d_out);

        // One shard covering the whole batch.
        let mut delta = d_out.clone();
        let mut tmp = Matrix::zeros(0, 0);
        let mut whole = Gradients::empty();
        mlp.backward_batch_shard_into(&cache, &mut delta, &mut tmp, &mut whole);
        let mut reduced = Gradients::empty();
        reduced.assign_from(&whole);
        reduced.div_scalar(x.rows() as f32);
        for ((dw, db), (fw, fb)) in reduced.layers.iter().zip(&full.layers) {
            for (a, b) in dw.as_slice().iter().zip(fw.as_slice()) {
                assert_eq!(a, b, "single-shard dW must match backward_into exactly");
            }
            for (a, b) in db.iter().zip(fb) {
                assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
            }
        }

        // Two shards of two rows each, folded in index order.
        let mut shard_grads = Vec::new();
        for rows in [[0usize, 1], [2, 3]] {
            let sx = x.select_rows(&rows);
            let scache = mlp.forward_train(&sx);
            let mut sdelta = d_out.select_rows(&rows);
            let mut sgrads = Gradients::empty();
            mlp.backward_batch_shard_into(&scache, &mut sdelta, &mut tmp, &mut sgrads);
            shard_grads.push(sgrads);
        }
        let mut sum = Gradients::empty();
        sum.assign_from(&shard_grads[0]);
        shard_grads[1].accumulate_into(&mut sum);
        sum.div_scalar(x.rows() as f32);
        for ((dw, db), (fw, fb)) in sum.layers.iter().zip(&full.layers) {
            for (a, b) in dw.as_slice().iter().zip(fw.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "sharded {a} vs full {b}");
            }
            for (a, b) in db.iter().zip(fb) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn accumulate_shape_mismatch_rejected() {
        let mut r = rng();
        let a = Mlp::new(&[3, 5, 2], &mut r);
        let b = Mlp::new(&[3, 6, 2], &mut r);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]);
        let ca = a.forward_train(&x);
        let cb = b.forward_train(&x);
        let ga = a.backward(&ca, &ca.output().clone());
        let mut gb = b.backward(&cb, &cb.output().clone());
        ga.accumulate_into(&mut gb);
    }

    #[test]
    fn copy_weights_from_snapshots_without_structural_change() {
        let mut rng = rng();
        let src = Mlp::new(&[3, 5, 2], &mut rng);
        let mut dst = Mlp::new(&[3, 5, 2], &mut rng);
        assert_ne!(src, dst);
        dst.copy_weights_from(&src);
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "layer shape mismatch")]
    fn copy_weights_shape_mismatch_rejected() {
        let mut rng = rng();
        let src = Mlp::new(&[3, 5, 2], &mut rng);
        let mut dst = Mlp::new(&[3, 6, 2], &mut rng);
        dst.copy_weights_from(&src);
    }
}
