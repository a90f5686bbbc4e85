//! Batch normalization over NCHW channels.
//!
//! Running statistics are *state*, not parameters: they ride along in
//! checkpoints (so the corrupter can hit them — they are part of the model
//! file, exactly like in the real frameworks) but the optimizer never
//! touches them.
//!
//! Every per-channel statistic is an `f64` sum that starts at zero and
//! adds its terms in (n, h·w) order; that order is all its bits depend on.
//! [`channel_sums`] runs the chains of up to [`LANES`] channels side by
//! side, which hides the latency of each add without reordering any one
//! chain, so the layer gives the bits of a serial loop per channel (the
//! test oracle) at a fraction of its time. Normalization and the input
//! gradient are computed in place, in the buffers the layer is handed.

use super::Layer;
use sefi_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.9;
/// The most channel chains [`channel_sums`] reduces side by side.
const LANES: usize = 8;

/// Per-channel batch normalization for rank-4 inputs.
#[derive(Clone)]
pub struct BatchNorm2d {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    cache: BnCache,
}

/// What `backward` needs from the last training forward. The buffers are
/// reused across steps; like `ConvWorkspace` they are scratch, not state,
/// so a clone starts empty.
#[derive(Default)]
struct BnCache {
    /// The normalized input, NCHW.
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    /// A training forward has filled the buffers and no backward has
    /// consumed them yet.
    live: bool,
}

impl Clone for BnCache {
    fn clone(&self) -> Self {
        BnCache::default()
    }
}

impl BatchNorm2d {
    /// Identity-initialized batch norm over `channels`.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            name: name.to_string(),
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            cache: BnCache::default(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }
}

/// `(n, c, h·w)` of an NCHW tensor.
fn nchw(t: &Tensor) -> (usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "BatchNorm2d expects NCHW");
    (s[0], s[1], s[2] * s[3])
}

/// Each (image, channel) plane of an NCHW buffer: its channel and its
/// element range.
fn plane_ranges(
    n: usize,
    c: usize,
    plane: usize,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
    (0..n * c).map(move |r| r * plane).zip((0..c).cycle()).map(move |(at, ci)| (ci, at..at + plane))
}

/// Per-channel `f64` sums of `term(channel, a[i], b[i])` over two NCHW
/// buffers of `dims = (n, c, h·w)`. Each channel's chain starts at zero and
/// adds its terms in (n, h·w) order, exactly as a serial loop over that
/// channel would; the chains of up to [`LANES`] neighbouring channels run
/// interleaved.
fn channel_sums<const S: usize>(
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    term: impl Fn(usize, f32, f32) -> [f64; S],
) -> Vec<[f64; S]> {
    let c = dims.1;
    let mut sums = vec![[0.0; S]; c];
    let mut c0 = 0;
    while c0 < c {
        let block = &mut sums[c0..];
        c0 += match c - c0 {
            r if r >= LANES => interleaved::<LANES, S>(dims, c0, a, b, &term, block),
            r if r >= 4 => interleaved::<4, S>(dims, c0, a, b, &term, block),
            r if r >= 2 => interleaved::<2, S>(dims, c0, a, b, &term, block),
            _ => interleaved::<1, S>(dims, c0, a, b, &term, block),
        };
    }
    sums
}

/// The chains of channels `c0..c0 + W`, into `out[..W]`; returns `W`.
fn interleaved<const W: usize, const S: usize>(
    (n, c, plane): (usize, usize, usize),
    c0: usize,
    a: &[f32],
    b: &[f32],
    term: &impl Fn(usize, f32, f32) -> [f64; S],
    out: &mut [[f64; S]],
) -> usize {
    let mut acc = [[0.0f64; S]; W];
    for ni in 0..n {
        let base = (ni * c + c0) * plane;
        let rows_a: [&[f32]; W] = std::array::from_fn(|j| &a[base + j * plane..][..plane]);
        let rows_b: [&[f32]; W] = std::array::from_fn(|j| &b[base + j * plane..][..plane]);
        for k in 0..plane {
            for (j, lane) in acc.iter_mut().enumerate() {
                let t = term(c0 + j, rows_a[j][k], rows_b[j][k]);
                for (sum, t) in lane.iter_mut().zip(t) {
                    *sum += t;
                }
            }
        }
    }
    out[..W].copy_from_slice(&acc);
    W
}

impl Layer for BatchNorm2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let (n, c, plane) = nchw(&x);
        assert_eq!(c, self.channels(), "channel mismatch");
        let batch_stats: (Vec<f32>, Vec<f32>);
        let (mean, var) = if train {
            let m = (n * plane) as f32 as f64;
            let src = x.data();
            let mean: Vec<f32> = channel_sums((n, c, plane), src, src, |_, v, _| [v as f64])
                .iter()
                .map(|[acc]| (acc / m) as f32)
                .collect();
            let var: Vec<f32> = channel_sums((n, c, plane), src, src, |ci, v, _| {
                let d = v - mean[ci];
                [(d * d) as f64]
            })
            .iter()
            .map(|[acc]| (acc / m) as f32)
            .collect();
            for (rm, &m) in self.running_mean.data_mut().iter_mut().zip(&mean) {
                *rm = MOMENTUM * *rm + (1.0 - MOMENTUM) * m;
            }
            for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
                *rv = MOMENTUM * *rv + (1.0 - MOMENTUM) * v;
            }
            batch_stats = (mean, var);
            (&batch_stats.0[..], &batch_stats.1[..])
        } else {
            (self.running_mean.data(), self.running_var.data())
        };

        let cache = &mut self.cache;
        cache.live = train;
        cache.inv_std.clear();
        cache.inv_std.extend(var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
        if train {
            cache.xhat.resize(x.len(), 0.0);
        }
        let (g, b) = (self.gamma.data(), self.beta.data());
        let data = x.data_mut();
        for (ci, rows) in plane_ranges(n, c, plane) {
            let (mu, inv_std, g, b) = (mean[ci], cache.inv_std[ci], g[ci], b[ci]);
            if train {
                for (v, xh) in data[rows.clone()].iter_mut().zip(&mut cache.xhat[rows]) {
                    let nh = (*v - mu) * inv_std;
                    *xh = nh;
                    *v = g * nh + b;
                }
            } else {
                for v in &mut data[rows] {
                    *v = g * ((*v - mu) * inv_std) + b;
                }
            }
        }
        x
    }

    fn backward(&mut self, mut dout: Tensor) -> Tensor {
        let cache = &mut self.cache;
        assert!(std::mem::take(&mut cache.live), "backward before forward(train)");
        let (n, c, plane) = nchw(&dout);
        assert_eq!(dout.len(), cache.xhat.len(), "backward shape differs from forward");
        let m = (n * plane) as f32;
        let xhat = &cache.xhat[..];
        let sums =
            channel_sums((n, c, plane), dout.data(), xhat, |_, d, xh| [d as f64, (d * xh) as f64]);
        for (ci, [sum_d, sum_d_xhat]) in sums.iter().enumerate() {
            self.dbeta.data_mut()[ci] += *sum_d as f32;
            self.dgamma.data_mut()[ci] += *sum_d_xhat as f32;
        }

        // dx = (gamma * inv_std / m) * (m*dout - sum_d - xhat * sum_d_xhat)
        let g = self.gamma.data();
        let data = dout.data_mut();
        for (ci, rows) in plane_ranges(n, c, plane) {
            let k1 = g[ci] * cache.inv_std[ci] / m;
            let (sum_d, sum_d_xhat) = (sums[ci][0] as f32, sums[ci][1] as f32);
            for (d, &xh) in data[rows.clone()].iter_mut().zip(&xhat[rows]) {
                *d = k1 * (m * *d - sum_d - xh * sum_d_xhat);
            }
        }
        dout
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&str, &'a mut Tensor, &'a mut Tensor)) {
        f("gamma", &mut self.gamma, &mut self.dgamma);
        f("beta", &mut self.beta, &mut self.dbeta);
    }

    fn visit_state<'a>(&'a mut self, f: &mut dyn FnMut(&str, &'a mut Tensor)) {
        f("running_mean", &mut self.running_mean);
        f("running_var", &mut self.running_var);
    }

    fn workspace_bytes(&self) -> usize {
        (self.cache.xhat.capacity() + self.cache.inv_std.capacity()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sefi_rng::DetRng;

    fn input() -> Tensor {
        Tensor::from_vec(
            (0..2 * 3 * 2 * 2).map(|i| ((i * 13) % 7) as f32 - 3.0).collect(),
            &[2, 3, 2, 2],
        )
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(input(), true);
        // Per-channel mean ≈ 0, var ≈ 1.
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..2 {
                for k in 0..4 {
                    vals.push(y.data()[(ni * 3 + ci) * 4 + k] as f64);
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-5, "ch {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ci} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 3);
        // Run a few training passes to move the running stats.
        for _ in 0..5 {
            let _ = bn.forward(input(), true);
        }
        let y_eval = bn.forward(input(), false);
        let y_train = bn.forward(input(), true);
        assert_ne!(y_eval.data(), y_train.data());
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = Tensor::from_vec((0..16).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 2, 2, 2]);
        let y = bn.forward(x.clone(), true);
        // Weighted-sum loss so the gradient is not trivially zero
        // (a plain sum-loss has zero input-gradient through normalization).
        let wts: Vec<f32> = (0..16).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let loss =
            |t: &Tensor| -> f64 { t.data().iter().zip(&wts).map(|(&v, &w)| (v * w) as f64).sum() };
        let _ = loss(&y);
        let dout = Tensor::from_vec(wts.clone(), &[2, 2, 2, 2]);
        let dx = bn.backward(dout);

        let eps = 1e-2f32;
        for &flat in &[0usize, 5, 9, 15] {
            let num = {
                let mut bnp = BatchNorm2d::new("bn", 2);
                let mut xp = x.clone();
                xp.data_mut()[flat] += eps;
                let lp = loss(&bnp.forward(xp, true));
                let mut bnm = BatchNorm2d::new("bn", 2);
                let mut xm = x.clone();
                xm.data_mut()[flat] -= eps;
                let lm = loss(&bnm.forward(xm, true));
                (lp - lm) / (2.0 * eps as f64)
            };
            let ana = dx.data()[flat] as f64;
            assert!((num - ana).abs() < 5e-2 * (1.0 + ana.abs()), "dx[{flat}] {num} vs {ana}");
        }
    }

    #[test]
    fn state_and_params_are_separate() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let (pnames, snames) = crate::layers::tensor_names(&mut bn);
        assert_eq!(pnames, vec!["gamma", "beta"]);
        assert_eq!(snames, vec!["running_mean", "running_var"]);
    }

    #[test]
    #[should_panic(expected = "backward before forward(train)")]
    fn backward_after_eval_forward_panics() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let _ = bn.forward(input(), true);
        let _ = bn.forward(input(), false);
        bn.backward(input());
    }

    #[test]
    fn xhat_is_retained_scratch_that_clones_empty() {
        let mut bn = BatchNorm2d::new("bn", 3);
        assert_eq!(bn.workspace_bytes(), 0);
        let _ = bn.forward(input(), true);
        let retained = bn.workspace_bytes();
        assert!(retained >= input().len() * 4, "xhat must be reported: {retained}");
        let _ = bn.backward(input());
        let _ = bn.forward(input(), true);
        assert_eq!(bn.workspace_bytes(), retained, "steps reuse the buffer");
        assert_eq!(bn.clone().workspace_bytes(), 0);
    }

    /// The serial layer the interleaved one replaced, kept as its
    /// bit-exactness oracle: each channel's `f64` chains run to completion
    /// before the next channel's, into freshly allocated tensors.
    struct SerialBn {
        gamma: Tensor,
        beta: Tensor,
        dgamma: Tensor,
        dbeta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
        cache: Option<(Tensor, Vec<f32>)>,
    }

    impl SerialBn {
        fn of(bn: &BatchNorm2d) -> SerialBn {
            SerialBn {
                gamma: bn.gamma.clone(),
                beta: bn.beta.clone(),
                dgamma: bn.dgamma.clone(),
                dbeta: bn.dbeta.clone(),
                running_mean: bn.running_mean.clone(),
                running_var: bn.running_var.clone(),
                cache: None,
            }
        }

        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            let s = x.shape().to_vec();
            let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
            let m = (n * h * w) as f32;
            let plane = h * w;
            let src = x.data();
            let (mean, var): (Vec<f32>, Vec<f32>) = if train {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for ci in 0..c {
                    let mut acc = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for &v in &src[base..base + plane] {
                            acc += v as f64;
                        }
                    }
                    mean[ci] = (acc / m as f64) as f32;
                    let mut vacc = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for &v in &src[base..base + plane] {
                            let d = v - mean[ci];
                            vacc += (d * d) as f64;
                        }
                    }
                    var[ci] = (vacc / m as f64) as f32;
                }
                for (rm, &m) in self.running_mean.data_mut().iter_mut().zip(&mean) {
                    *rm = MOMENTUM * *rm + (1.0 - MOMENTUM) * m;
                }
                for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
                    *rv = MOMENTUM * *rv + (1.0 - MOMENTUM) * v;
                }
                (mean, var)
            } else {
                (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
            };
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
            let mut xhat = Tensor::zeros(&s);
            let mut out = Tensor::zeros(&s);
            {
                let (xh, o) = (xhat.data_mut(), out.data_mut());
                let (g, b) = (self.gamma.data(), self.beta.data());
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * plane;
                        for idx in base..base + plane {
                            let nh = (src[idx] - mean[ci]) * inv_std[ci];
                            xh[idx] = nh;
                            o[idx] = g[ci] * nh + b[ci];
                        }
                    }
                }
            }
            if train {
                self.cache = Some((xhat, inv_std));
            }
            out
        }

        fn backward(&mut self, dout: &Tensor) -> Tensor {
            let (xhat, inv_std) = self.cache.take().expect("oracle backward before forward");
            let s = dout.shape().to_vec();
            let (n, c, plane) = (s[0], s[1], s[2] * s[3]);
            let m = (n * plane) as f32;
            let (d, xh) = (dout.data(), xhat.data());
            let mut sum_d = vec![0.0f64; c];
            let mut sum_d_xhat = vec![0.0f64; c];
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    for idx in base..base + plane {
                        sum_d[ci] += d[idx] as f64;
                        sum_d_xhat[ci] += (d[idx] * xh[idx]) as f64;
                    }
                }
            }
            for ci in 0..c {
                self.dbeta.data_mut()[ci] += sum_d[ci] as f32;
                self.dgamma.data_mut()[ci] += sum_d_xhat[ci] as f32;
            }
            let mut dx = Tensor::zeros(&s);
            let o = dx.data_mut();
            let g = self.gamma.data();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    let k1 = g[ci] * inv_std[ci] / m;
                    for idx in base..base + plane {
                        o[idx] =
                            k1 * (m * d[idx] - sum_d[ci] as f32 - xh[idx] * sum_d_xhat[ci] as f32);
                    }
                }
            }
            dx
        }
    }

    /// Values a corrupted checkpoint feeds a layer: NaNs of both signs,
    /// infinities, subnormals, huge magnitudes and signed zeros.
    const SPECIALS: [f32; 10] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -3e-39,
        1e30,
        -1e30,
        0.0,
        -0.0,
    ];

    /// `len` values from N(0.5, 3²), each replaced by a special with
    /// probability `rate`.
    fn mixed(rng: &mut DetRng, len: usize, rate: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.bernoulli(rate) {
                    *rng.choose(&SPECIALS)
                } else {
                    rng.normal_ms(0.5, 3.0) as f32
                }
            })
            .collect()
    }

    /// The first element whose bits differ, if any. NaNs compare as one
    /// class: when an operation has two NaN operands, Rust leaves the sign
    /// and payload of its result unspecified (x86 returns the first
    /// operand's and LLVM may commute the operands), so those bits depend
    /// on code generation even for identical source.
    fn first_mismatch(a: &Tensor, b: &Tensor) -> Option<(usize, f32, f32)> {
        let key = |v: f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        assert_eq!(a.shape(), b.shape());
        let mut pairs = a.data().iter().zip(b.data()).enumerate();
        pairs.find(|(_, (&x, &y))| key(x) != key(y)).map(|(i, (&x, &y))| (i, x, y))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Channel counts straddle the interleave widths (1, 2, 4 and
        /// `LANES` = 8, and 20 = 2·8 + 4); every tensor the layer produces
        /// must carry the serial oracle's bits, over two steps at different
        /// batch sizes so the retained buffers are reused and resized.
        #[test]
        fn interleaved_layer_matches_the_serial_oracle_bit_for_bit(
            n in 1usize..=4,
            c in 1usize..=20,
            hw in 0usize..4,
            rate in 0usize..4,
            seed in any::<u64>(),
        ) {
            let (h, w) = [(1, 1), (2, 2), (3, 3), (8, 8)][hw];
            let rate = [0.0, 0.002, 0.03, 0.3][rate];
            let mut rng = DetRng::new(seed);
            let mut bn = BatchNorm2d::new("bn", c);
            for t in [&mut bn.gamma, &mut bn.beta, &mut bn.running_mean, &mut bn.running_var] {
                t.data_mut().copy_from_slice(&mixed(&mut rng, c, rate));
            }
            let mut oracle = SerialBn::of(&bn);
            for n in [n, 5 - n] {
                let shape = [n, c, h, w];
                let len = n * c * h * w;
                let x = Tensor::from_vec(mixed(&mut rng, len, rate), &shape);
                let dout = Tensor::from_vec(mixed(&mut rng, len, rate), &shape);
                let x_eval = Tensor::from_vec(mixed(&mut rng, len, rate), &shape);

                let checks = [
                    ("train output", bn.forward(x.clone(), true), oracle.forward(&x, true)),
                    ("running_mean", bn.running_mean.clone(), oracle.running_mean.clone()),
                    ("running_var", bn.running_var.clone(), oracle.running_var.clone()),
                    ("dx", bn.backward(dout.clone()), oracle.backward(&dout)),
                    ("dgamma", bn.dgamma.clone(), oracle.dgamma.clone()),
                    ("dbeta", bn.dbeta.clone(), oracle.dbeta.clone()),
                    ("eval output", bn.forward(x_eval.clone(), false), oracle.forward(&x_eval, false)),
                ];
                for (what, got, want) in checks {
                    let diff = first_mismatch(&got, &want);
                    prop_assert!(diff.is_none(), "{what} {shape:?}: (index, got, want) {diff:?}");
                }
            }
        }
    }
}
