//! Post-training INT8 quantization (extension).
//!
//! The paper's ASIC module computes in FP32; an INT8 datapath is the obvious
//! next step for a microsecond-scale inference engine (multipliers shrink
//! ~5×, SRAM per weight 4×). [`QuantizedMlp`] holds a model's symmetric
//! per-layer weight quantization (storage accounting, and
//! [`QuantizedMlp::dequantize`] for measuring the accuracy cost of the
//! smaller datapath); [`Int8Net`] compiles it into the integer inference
//! kernel the decision plan's quantized path runs.

use serde::{Deserialize, Serialize};

use crate::mlp::{Activation, Dense, Mlp};

/// One layer's quantized weights: `w ≈ scale * q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLayer {
    /// Quantized weight values in [-127, 127], row-major `out × in`.
    pub q: Vec<i8>,
    /// Output width.
    pub rows: usize,
    /// Input width.
    pub cols: usize,
    /// Dequantization scale (`w = scale * q`).
    pub scale: f32,
    /// Biases, kept in FP32 (negligible storage, large dynamic range).
    pub bias: Vec<f32>,
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

    /// The per-layer quantization data.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }
}

/// One layer's execution record inside an [`Int8Net`] arena: where its
/// weights and biases live, its shape, and the per-layer output rescale.
#[derive(Debug, Clone, Copy)]
struct Int8Step {
    /// Output width (unpadded).
    rows: usize,
    /// Input width (unpadded).
    cols: usize,
    /// Offset of this layer's `i8` weights in the arena. Layout: for each
    /// *pair* of inputs `(2p, 2p+1)`, a block of `2 * rows_pad` bytes
    /// interleaving the pair's weights per output —
    /// `[w[2p][0], w[2p+1][0], w[2p][1], w[2p+1][1], …]` — so one 16-byte
    /// load covers 8 outputs and a single `vpmaddwd` retires 16 MACs.
    w_off: usize,
    /// Offset of this layer's biases in the shared (padded) bias vector.
    b_off: usize,
    /// Per-layer weight dequantization scale (`w = scale * q`).
    scale: f32,
    /// ReLU floor applied after the affine map: `0.0` for ReLU layers,
    /// `-inf` (the identity under `max`) for linear ones — branchless.
    relu_floor: f32,
    /// `rows` rounded up to a whole number of 8-lane vector chunks; each
    /// weight column and the bias run are zero-padded to this length (zero
    /// weights and biases contribute nothing to the exact i32 accumulation
    /// or the affine map, so padding changes speed, never results).
    rows_pad: usize,
    /// `cols` rounded up likewise; activation buffers keep lanes beyond the
    /// live width at zero so whole-chunk loads read only zeros there.
    cols_pad: usize,
    /// Number of input pairs (`cols` rounded up to even, halved); the last
    /// pair of an odd-width layer carries a zero column.
    pairs: usize,
}

/// A compiled INT8 single-sample inference engine.
///
/// `Int8Net` runs the true integer datapath of a [`QuantizedMlp`]:
/// activations are dynamically quantized per layer (`xq = round(x * 127 /
/// max|x|)`, round-to-nearest-even), the dot products accumulate in exact
/// `i32` arithmetic over one flat `i8` weight arena (all layer offsets
/// precomputed — no per-call heap traffic, no scalar loop tails), and a
/// single per-layer rescale (`w_scale * x_scale`) converts each accumulator
/// back to `f32` before the bias and ReLU.
///
/// The kernel is compiled twice from the same arithmetic: an AVX2
/// instantiation (selected once at construction via runtime detection; the
/// workspace targets baseline x86-64, where the widening `i8` dot products
/// and the saturation-free quantization do not autovectorize) and a
/// portable scalar one. Integer accumulation is exact and every float op is
/// elementwise-identical, so the two paths produce the same bits.
///
/// Outputs differ from the [`QuantizedMlp::dequantize`]d model's forward
/// pass by the activation quantization (bounded by `max|x| / 254` per
/// element) plus scale-after-sum rounding.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tinynn::{Int8Net, Mlp};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 8, 2], &mut rng);
/// let mut net = Int8Net::compile(&mlp);
/// let x = [0.3f32, -0.5, 0.8, 0.1];
/// let exact = mlp.forward_one(&x);
/// let approx = net.infer(&x);
/// for (a, b) in exact.iter().zip(approx) {
///     assert!((a - b).abs() < 0.1, "int8 error should be small");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Int8Net {
    /// All layers' quantized weights, pair-interleaved (see
    /// [`Int8Step::w_off`]), back to back.
    wq: Vec<i8>,
    /// All layers' biases, zero-padded to each layer's `rows_pad`.
    bias: Vec<f32>,
    /// Per-layer shapes, offsets and rescales.
    steps: Vec<Int8Step>,
    /// Quantized-activation scratch, fixed at the widest padded width,
    /// stored as packed i16 pairs so the integer kernel can broadcast a
    /// pair with a single 4-byte load.
    xq: Vec<i16>,
    /// Activation ping-pong scratch, fixed at the widest padded width;
    /// lanes beyond the live layer width are kept at zero.
    act_a: Vec<f32>,
    act_b: Vec<f32>,
    /// AVX2 available (runtime-detected once at construction).
    use_avx2: bool,
}

/// Magic bias for branchless round-to-nearest-even: adding `1.5 * 2^23`
/// forces a value in ±2²² into the exponent range where one float ULP is
/// exactly 1, so the low mantissa bits ARE the rounded integer and
/// subtracting the bias bit pattern recovers it. Both `f32::round` (a libm
/// call on the baseline x86-64 target) and an `as i32` cast (a per-lane
/// saturation/NaN fixup sequence) are far too slow for a sub-100ns kernel.
const ROUND_MAGIC: f32 = 12_582_912.0;

impl Int8Net {
    /// Quantizes `mlp` and compiles the result into a flat arena.
    pub fn compile(mlp: &Mlp) -> Int8Net {
        Int8Net::from_quantized(&QuantizedMlp::quantize(mlp))
    }

    /// Compiles an existing [`QuantizedMlp`] into a flat arena.
    pub fn from_quantized(q: &QuantizedMlp) -> Int8Net {
        let mut wq = Vec::new();
        let mut bias = Vec::new();
        let mut steps = Vec::with_capacity(q.layers.len());
        let mut max_pad = 0usize;
        for (layer, &activation) in q.layers.iter().zip(&q.activations) {
            let rows_pad = layer.rows.div_ceil(8) * 8;
            let cols_pad = layer.cols.div_ceil(8) * 8;
            let pairs = layer.cols.div_ceil(2);
            steps.push(Int8Step {
                rows: layer.rows,
                cols: layer.cols,
                w_off: wq.len(),
                b_off: bias.len(),
                scale: layer.scale,
                relu_floor: if activation == Activation::Relu { 0.0 } else { f32::NEG_INFINITY },
                rows_pad,
                cols_pad,
                pairs,
            });
            // Pair-interleaved transpose (see Int8Step::w_off); reads past
            // the true shape fill with zero weights, which contribute
            // nothing to the exact integer accumulation.
            let at = |k: usize, j: usize| {
                if k < layer.cols && j < layer.rows {
                    layer.q[j * layer.cols + k]
                } else {
                    0
                }
            };
            for p in 0..pairs {
                for j in 0..rows_pad {
                    wq.push(at(2 * p, j));
                    wq.push(at(2 * p + 1, j));
                }
            }
            bias.extend_from_slice(&layer.bias);
            bias.resize(bias.len() + (rows_pad - layer.rows), 0.0);
            max_pad = max_pad.max(cols_pad).max(rows_pad);
        }
        Int8Net {
            wq,
            bias,
            steps,
            xq: vec![0; max_pad],
            act_a: vec![0.0; max_pad],
            act_b: vec![0.0; max_pad],
            use_avx2: detect_avx2(),
        }
    }

    /// Input width of the first layer.
    pub fn input_size(&self) -> usize {
        self.steps.first().map_or(0, |s| s.cols)
    }

    /// Output width of the last layer.
    pub fn output_size(&self) -> usize {
        self.steps.last().map_or(0, |s| s.rows)
    }

    /// Arena bytes for the quantized weights (1 per weight, including the
    /// zero padding that rounds each column to a whole vector chunk).
    pub fn weight_bytes(&self) -> u64 {
        self.wq.len() as u64
    }

    /// Single-sample forward pass on the integer datapath. Allocation-free
    /// once constructed; the returned slice borrows internal scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the first layer's input width.
    pub fn infer(&mut self, x: &[f32]) -> &[f32] {
        assert_eq!(x.len(), self.input_size(), "input width mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            // SAFETY: AVX2 support was confirmed by runtime detection at
            // construction.
            unsafe { self.infer_avx2(x) };
            return &self.act_a[..self.output_size()];
        }
        self.infer_portable(x);
        &self.act_a[..self.output_size()]
    }

    /// Loads `x` into the (padded) input buffer and returns the bit pattern
    /// of `max|x|` over the first layer's padded width.
    #[inline(always)]
    fn load_input(&mut self, x: &[f32]) -> u32 {
        let cols_pad = self.steps[0].cols_pad;
        self.act_a[..x.len()].copy_from_slice(x);
        self.act_a[x.len()..cols_pad].fill(0.0);
        // max|v| as an unsigned bit-pattern max: non-negative finite floats
        // order like their bit patterns, and it compiles to a 1-cycle
        // integer max instead of the NaN-aware float max sequence.
        let mut amax_bits = 0u32;
        for &v in &self.act_a[..cols_pad] {
            amax_bits = amax_bits.max(v.to_bits() & 0x7fff_ffff);
        }
        amax_bits
    }

    /// AVX2 kernel: the whole layer pipeline (quantize → integer
    /// accumulate → rescale, with the next layer's `max|x|` folded into the
    /// rescale pass) in 8-lane chunks with no scalar tails. The inter-layer
    /// chain — `max|x|` reduction, the `127 / max|x|` quantization scale and
    /// the dequantization rescale — stays entirely in the vector domain, so
    /// no layer ever round-trips through a scalar register.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn infer_avx2(&mut self, x: &[f32]) {
        use std::arch::x86_64::{
            __m128i, __m256i, _mm256_add_ps, _mm256_and_si256, _mm256_castps_si256,
            _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_loadu_ps, _mm256_max_epu32,
            _mm256_mul_ps, _mm256_packs_epi32, _mm256_permute2x128_si256, _mm256_permute4x64_epi64,
            _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_si256, _mm256_shuffle_epi32,
            _mm256_sub_epi32, _mm_storeu_si128,
        };
        // Load the input and fold its abs-max, both vectorized; activation
        // buffers keep padding lanes at zero.
        let cols0 = self.steps[0].cols_pad;
        self.act_a[..x.len()].copy_from_slice(x);
        self.act_a[x.len()..cols0].fill(0.0);
        let wq = self.wq.as_ptr();
        let bias = self.bias.as_ptr();
        let xq = self.xq.as_mut_ptr();
        let mut cur = self.act_a.as_mut_ptr();
        let mut nxt = self.act_b.as_mut_ptr();
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let magic_i = _mm256_castps_si256(magic);
        let absm = _mm256_set1_epi32(0x7fff_ffff);
        let expm = _mm256_set1_epi32(0x7f80_0000u32 as i32);
        // Exponent floor 2^-100: far below any live activation, large
        // enough that 2^(6-e) and 2^(e-6) both stay finite normals.
        let exp_min = _mm256_set1_epi32(27 << 23);
        // Bit-pattern bases for inv = 2^(133-e'): (260 << 23) wraps i32,
        // but epi32 subtraction wraps identically, so the low 32 bits — a
        // positive, normal float — come out right.
        let inv_base = _mm256_set1_epi32(0x8200_0000u32 as i32);
        let sx_bias = _mm256_set1_epi32(6 << 23);
        let mut mx = _mm256_setzero_si256();
        let mut k = 0;
        while k < cols0 {
            // SAFETY: `act_a` holds `max_pad >= cols0` lanes, a multiple of 8.
            let v = _mm256_castps_si256(_mm256_loadu_ps(cur.add(k)));
            mx = _mm256_max_epu32(mx, _mm256_and_si256(v, absm));
            k += 8;
        }
        for step in &self.steps {
            // All-lanes max of the 8 partial abs-bit maxes (stays in SIMD).
            let m = _mm256_max_epu32(mx, _mm256_permute2x128_si256::<0b0000_0001>(mx, mx));
            let m = _mm256_max_epu32(m, _mm256_shuffle_epi32::<0b0100_1110>(m));
            let m = _mm256_max_epu32(m, _mm256_shuffle_epi32::<0b1011_0001>(m));
            // Power-of-two quantization scale from the exponent of max|x|:
            // inv = 2^(6-e) puts the largest activation in [64, 128), and
            // sx = 2^(e-6) undoes it exactly — one integer subtract instead
            // of a 13-cycle divide, and the scaling multiply becomes exact.
            // Clamping the exponent bits from below handles zero/subnormal
            // activations (they quantize to zero against a huge-but-finite
            // inv, and the rescale flushes to ~0 so outputs fall back to the
            // bias) without a branch or a NaN.
            let exp = _mm256_max_epu32(_mm256_and_si256(m, expm), exp_min);
            let inv = _mm256_castsi256_ps(_mm256_sub_epi32(inv_base, exp));
            let rescale = _mm256_mul_ps(
                _mm256_set1_ps(step.scale),
                _mm256_castsi256_ps(_mm256_sub_epi32(exp, sx_bias)),
            );
            // Quantize the live activations (padding lanes hold zeros and
            // quantize to zero), packing each 8-lane chunk to i16 so the
            // accumulate loop broadcasts pairs with one 4-byte load.
            let mut k = 0;
            while k < step.cols_pad {
                // SAFETY: `act_*` hold `max_pad` lanes and `xq` holds
                // `max_pad` i16 lanes; `cols_pad <= max_pad`, multiple of 8.
                let v = _mm256_loadu_ps(cur.add(k));
                // No clamp: the power-of-two scaling is exact, so
                // |x * inv| < 128 always — well inside the i16 lanes the
                // pack saturates to and the i16 multiplies of `vpmaddwd`.
                let sc = _mm256_mul_ps(v, inv);
                let q = _mm256_sub_epi32(_mm256_castps_si256(_mm256_add_ps(sc, magic)), magic_i);
                // packs duplicates each 128-bit half; permute4x64 picks the
                // two distinct quadwords into the low 128 bits.
                let q16: __m256i = _mm256_packs_epi32(q, q);
                let q16 = _mm256_permute4x64_epi64::<0b00_00_10_00>(q16);
                _mm_storeu_si128(xq.add(k) as *mut __m128i, _mm256_castsi256_si128(q16));
                k += 8;
            }
            // Accumulate + rescale, monomorphized on the chunk count so the
            // i32 accumulators stay in vector registers across the whole
            // input loop. The paper's nets are at most 20 neurons wide, so
            // 1–3 chunks cover every real layer.
            let w = wq.add(step.w_off);
            let b = bias.add(step.b_off);
            let floor = _mm256_set1_ps(step.relu_floor);
            mx = match step.rows_pad / 8 {
                1 => int8_layer_avx2::<1>(w, xq, step.pairs, b, rescale, floor, nxt),
                2 => int8_layer_avx2::<2>(w, xq, step.pairs, b, rescale, floor, nxt),
                3 => int8_layer_avx2::<3>(w, xq, step.pairs, b, rescale, floor, nxt),
                _ => int8_layer_avx2_wide(w, xq, step.pairs, step.rows_pad, b, rescale, floor, nxt),
            };
            std::mem::swap(&mut cur, &mut nxt);
        }
        if self.steps.len() % 2 == 1 {
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
    }

    /// Portable instantiation of the same arithmetic; produces bit-identical
    /// results (see [`Int8Net`]).
    fn infer_portable(&mut self, x: &[f32]) {
        let mut amax_bits = self.load_input(x);
        for step in &self.steps {
            // Power-of-two scale from the exponent bits of max|x| — the
            // scalar spelling of the vector kernel's exponent arithmetic
            // (see infer_avx2), bit-identical by construction.
            let exp = (amax_bits & 0x7f80_0000).max(27 << 23);
            let inv = f32::from_bits(0x8200_0000u32.wrapping_sub(exp));
            let rescale = step.scale * f32::from_bits(exp - (6 << 23));
            let magic_bits = ROUND_MAGIC.to_bits() as i32;
            for (o, &v) in self.xq[..step.cols_pad].iter_mut().zip(&self.act_a) {
                let sc = v * inv;
                *o = ((sc + ROUND_MAGIC).to_bits() as i32).wrapping_sub(magic_bits) as i16;
            }
            let w = &self.wq[step.w_off..step.w_off + 2 * step.rows_pad * step.pairs];
            let b = &self.bias[step.b_off..step.b_off + step.rows_pad];
            // acc[j] += w[k][j] * xq[k], in exact i32, walking the
            // pair-interleaved arena exactly as the vector kernel does.
            let mut acc = [0i32; 32];
            let acc = &mut acc[..step.rows_pad];
            for p in 0..step.pairs {
                let x0 = i32::from(self.xq[2 * p]);
                let x1 = i32::from(self.xq[2 * p + 1]);
                let blk = &w[p * 2 * step.rows_pad..(p + 1) * 2 * step.rows_pad];
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += i32::from(blk[2 * j]) * x0 + i32::from(blk[2 * j + 1]) * x1;
                }
            }
            amax_bits = 0;
            let out = &mut self.act_b[..step.rows_pad];
            for ((o, &a), &bj) in out.iter_mut().zip(acc.iter()).zip(b) {
                let y = (a as f32 * rescale + bj).max(step.relu_floor);
                *o = y;
                amax_bits = amax_bits.max(y.to_bits() & 0x7fff_ffff);
            }
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
    }
}

/// One layer's accumulate + rescale with `C` 8-lane register accumulators.
/// Per input pair: one 4-byte broadcast load picks up the packed i16
/// activation pair, one 16-byte load covers 8 outputs' interleaved weight
/// pairs, `vpmovsxbw` widens them to i16, and a single `vpmaddwd` retires
/// 16 MACs into exact i32 lanes. The rescale pass converts the sums to
/// f32, applies the per-layer rescale, bias and ReLU floor, stores the
/// outputs and returns the 8 partial abs-bit maxes of `|y|` (the caller
/// reduces them into the next layer's quantization range, still in SIMD).
///
/// `vpmaddwd` is exact here: each product is at most `127 * 127`, so the
/// pairwise i16×i16 sum fits comfortably in its i32 lanes.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `w` holds `pairs` blocks of
/// `16 * C` interleaved weights, `bias` and `out` hold `8 * C` lanes, and
/// `xq` holds `2 * pairs` packed i16 values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int8_layer_avx2<const C: usize>(
    w: *const i8,
    xq: *const i16,
    pairs: usize,
    bias: *const f32,
    rescale: std::arch::x86_64::__m256,
    relu_floor: std::arch::x86_64::__m256,
    out: *mut f32,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_castps_si256,
        _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16, _mm256_loadu_ps, _mm256_madd_epi16,
        _mm256_max_epu32, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_storeu_ps, _mm_loadu_si128,
    };
    let mut regs = [_mm256_setzero_si256(); C];
    for p in 0..pairs {
        // SAFETY: xq holds 2*pairs packed i16 values; one aligned-enough
        // 4-byte load broadcasts the pair into every i32 lane.
        let xk = _mm256_set1_epi32(*(xq as *const i32).add(p));
        let blk = w.add(p * 16 * C);
        for (c, reg) in regs.iter_mut().enumerate() {
            // SAFETY: each pair block is 16*C bytes.
            let q16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(blk.add(16 * c) as *const __m128i));
            *reg = _mm256_add_epi32(*reg, _mm256_madd_epi16(q16, xk));
        }
    }
    let absm = _mm256_set1_epi32(0x7fff_ffff);
    let mut mx = _mm256_setzero_si256();
    for (c, reg) in regs.iter().enumerate() {
        // SAFETY: bias and out hold 8*C lanes.
        let y = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(*reg), rescale),
            _mm256_loadu_ps(bias.add(8 * c)),
        );
        let y = _mm256_max_ps(y, relu_floor);
        _mm256_storeu_ps(out.add(8 * c), y);
        mx = _mm256_max_epu32(mx, _mm256_and_si256(_mm256_castps_si256(y), absm));
    }
    mx
}

/// Fallback for layers wider than the register-resident specializations:
/// the same arithmetic, one 8-lane output chunk at a time.
///
/// # Safety
///
/// As [`int8_layer_avx2`], with `rows_pad` (a multiple of 8) in place of
/// `8 * C`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn int8_layer_avx2_wide(
    w: *const i8,
    xq: *const i16,
    pairs: usize,
    rows_pad: usize,
    bias: *const f32,
    rescale: std::arch::x86_64::__m256,
    relu_floor: std::arch::x86_64::__m256,
    out: *mut f32,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_castps_si256,
        _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16, _mm256_loadu_ps, _mm256_madd_epi16,
        _mm256_max_epu32, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_storeu_ps, _mm_loadu_si128,
    };
    let absm = _mm256_set1_epi32(0x7fff_ffff);
    let mut mx = _mm256_setzero_si256();
    for base in (0..rows_pad).step_by(8) {
        let mut reg = _mm256_setzero_si256();
        for p in 0..pairs {
            // SAFETY: as int8_layer_avx2, with each pair block spanning
            // `2 * rows_pad` bytes and this chunk starting at `2 * base`.
            let xk = _mm256_set1_epi32(*(xq as *const i32).add(p));
            let chunk = w.add(p * 2 * rows_pad + 2 * base);
            let q16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(chunk as *const __m128i));
            reg = _mm256_add_epi32(reg, _mm256_madd_epi16(q16, xk));
        }
        let y = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(reg), rescale),
            _mm256_loadu_ps(bias.add(base)),
        );
        let y = _mm256_max_ps(y, relu_floor);
        _mm256_storeu_ps(out.add(base), y);
        mx = _mm256_max_epu32(mx, _mm256_and_si256(_mm256_castps_si256(y), absm));
    }
    mx
}

/// Runtime AVX2 detection for [`Int8Net`] kernel dispatch.
#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Non-x86 targets always take the portable kernel.
#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
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
    fn int8_net_tracks_quantized_forward() {
        let mlp = model();
        let q = QuantizedMlp::quantize(&mlp);
        let mut net = Int8Net::from_quantized(&q);
        assert_eq!((net.input_size(), net.output_size()), (5, 6));
        let deq = q.dequantize();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..64 {
            let x: Vec<f32> = (0..5).map(|_| rand::Rng::gen_range(&mut rng, -2.0..2.0)).collect();
            let reference = deq.forward_one(&x);
            let got = net.infer(&x).to_vec();
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                // Activation quantization adds at most max|x|/254 per input
                // element; through these tiny layers that stays well under
                // 0.1 absolute.
                assert!((a - b).abs() < 0.1, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn int8_net_is_deterministic_and_reusable() {
        let mlp = model();
        let mut net = Int8Net::compile(&mlp);
        let x = [0.2f32, -0.4, 0.9, 0.0, -1.1];
        let first = net.infer(&x).to_vec();
        for _ in 0..8 {
            assert_eq!(net.infer(&x), &first[..], "repeat calls must be bit-identical");
        }
        // Zero input exercises the amax == 0 guard: outputs collapse to the
        // (post-activation) biases.
        let zeros = [0.0f32; 5];
        let out = net.infer(&zeros);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn int8_net_arena_is_flat() {
        let mlp = model();
        let q = QuantizedMlp::quantize(&mlp);
        let net = Int8Net::from_quantized(&q);
        let total: usize =
            q.layers().iter().map(|l| l.cols.div_ceil(2) * 2 * (l.rows.div_ceil(8) * 8)).sum();
        assert_eq!(
            net.weight_bytes(),
            total as u64,
            "one contiguous i8 arena, padded pair columns"
        );
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
