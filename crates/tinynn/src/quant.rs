//! Post-training INT8 quantization (extension).
//!
//! The paper's ASIC module computes in FP32; an INT8 datapath is the obvious
//! next step for a microsecond-scale inference engine (multipliers shrink
//! ~5×, SRAM per weight 4×). [`QuantizedMlp`] holds a model's symmetric
//! per-layer weight quantization for storage accounting, and
//! [`QuantizedMlp::dequantize`] measures the accuracy cost of the smaller
//! datapath. The workspace runs no integer inference: every decision is the
//! exact FP32 plan.

use serde::{Deserialize, Serialize};

use crate::mlp::{Dense, Mlp};

/// One layer's quantized weights: `w ≈ scale * q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuantizedLayer {
    /// Quantized weight values in [-127, 127], row-major `out × in`.
    q: Vec<i8>,
    /// Output width.
    rows: usize,
    /// Input width.
    cols: usize,
    /// Dequantization scale (`w = scale * q`).
    scale: f32,
    /// Biases, kept in FP32 (negligible storage, large dynamic range).
    bias: Vec<f32>,
}

/// An INT8-quantized MLP.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tinynn::{Matrix, Mlp, QuantizedMlp};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 8, 2], &mut rng);
/// let q = QuantizedMlp::quantize(&mlp);
/// let x = [0.3f32, -0.5, 0.8, 0.1];
/// let exact = mlp.forward_one(&x);
/// let approx = q.dequantize().forward_one(&x);
/// for (a, b) in exact.iter().zip(&approx) {
///     assert!((a - b).abs() < 0.1, "quantization error should be small");
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedLayer>,
    activations: Vec<crate::mlp::Activation>,
}

impl QuantizedMlp {
    /// Quantizes a model with symmetric per-layer scales
    /// (`scale = max|w| / 127`).
    pub fn quantize(mlp: &Mlp) -> QuantizedMlp {
        let layers = mlp
            .layers()
            .iter()
            .map(|layer| {
                let max = layer.w.as_slice().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
                let q = layer
                    .w
                    .as_slice()
                    .iter()
                    .map(|v| (v / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                QuantizedLayer {
                    q,
                    rows: layer.output_size(),
                    cols: layer.input_size(),
                    scale,
                    bias: layer.b.clone(),
                }
            })
            .collect();
        QuantizedMlp { layers, activations: mlp.layers().iter().map(|l| l.activation).collect() }
    }

    /// Reconstructs an FP32 model from the quantized weights (for
    /// evaluation; a real INT8 datapath would run the integer values
    /// directly).
    pub fn dequantize(&self) -> Mlp {
        let layers = self
            .layers
            .iter()
            .zip(&self.activations)
            .map(|(l, &activation)| {
                let data: Vec<f32> = l.q.iter().map(|&q| f32::from(q) * l.scale).collect();
                Dense {
                    w: crate::matrix::Matrix::from_vec(l.rows, l.cols, data),
                    b: l.bias.clone(),
                    activation,
                }
            })
            .collect();
        Mlp::from_layers(layers)
    }

    /// Storage for the quantized weights in bytes (1 per weight + 4 per
    /// bias + 4 per layer scale).
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.q.len() as u64 + 4 * l.bias.len() as u64 + 4).sum()
    }

    /// Number of non-zero quantized weights (sparsity survives
    /// quantization: a zero weight quantizes to zero).
    pub fn nonzero_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.q.iter().filter(|q| **q != 0).count() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::prune::prune_magnitude;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Mlp {
        let mut rng = StdRng::seed_from_u64(3);
        Mlp::new(&[5, 12, 6], &mut rng)
    }

    #[test]
    fn roundtrip_error_is_bounded_by_scale() {
        let mlp = model();
        let q = QuantizedMlp::quantize(&mlp);
        let deq = q.dequantize();
        for (orig, layer) in mlp.layers().iter().zip(deq.layers()) {
            let max = orig.w.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
            let step = max / 127.0;
            for (a, b) in orig.w.as_slice().iter().zip(layer.w.as_slice()) {
                assert!((a - b).abs() <= step / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn forward_outputs_stay_close() {
        let mlp = model();
        let deq = QuantizedMlp::quantize(&mlp).dequantize();
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.9, 0.0, -1.1]]);
        let a = mlp.forward(&x);
        let b = deq.forward(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 0.15, "{u} vs {v}");
        }
    }

    #[test]
    fn sparsity_survives_quantization() {
        let mut mlp = model();
        prune_magnitude(&mut mlp, 0.6);
        let q = QuantizedMlp::quantize(&mlp);
        assert_eq!(q.nonzero_weights(), mlp.nonzero_weights());
    }

    #[test]
    fn storage_is_a_quarter_of_fp32() {
        let mlp = model();
        let q = QuantizedMlp::quantize(&mlp);
        let fp32_bytes = mlp.weight_count() * 4;
        assert!(q.weight_bytes() < fp32_bytes / 2, "INT8 must at least halve storage");
    }

    #[test]
    fn zero_layer_quantizes_without_nan() {
        let mut mlp = model();
        mlp.layers_mut()[0].w.map_inplace(|_| 0.0);
        let q = QuantizedMlp::quantize(&mlp);
        let deq = q.dequantize();
        assert!(deq.layers()[0].w.as_slice().iter().all(|v| *v == 0.0));
    }
}
