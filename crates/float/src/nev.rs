//! NaN / extreme-value ("N-EV") classification.
//!
//! The paper (Section V-B) uses the term *extreme values* for "integers or
//! floats whose value is so large that it causes a neural network to collapse
//! when computing with the value", and reports the joint incidence of NaNs
//! and extreme values as "N-EV". This module centralizes that collapse
//! criterion so the corrupter, the training loop, and the experiment harness
//! all agree on it.

use crate::FpValue;
use serde::{Deserialize, Serialize};

/// Kind of undesirable value detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Nev {
    /// Not-a-number.
    NaN,
    /// Positive or negative infinity.
    Inf,
    /// Finite but beyond the policy's extreme-magnitude threshold.
    Extreme,
}

/// Policy deciding what counts as an N-EV.
///
/// The paper never states a numeric threshold; operationally its trainings
/// "collapse when computing some N-EV", i.e. when a weight's magnitude is so
/// large the forward pass overflows. The default threshold 1e30 sits far
/// above any trained-weight magnitude and far below f32 overflow when squared
/// (1e30² overflows f32's 3.4e38), which is exactly the "collapses the
/// network" regime; it is configurable for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NevPolicy {
    /// Finite magnitudes strictly above this are classified [`Nev::Extreme`].
    pub extreme_threshold: f64,
}

impl Default for NevPolicy {
    fn default() -> Self {
        NevPolicy { extreme_threshold: 1e30 }
    }
}

impl NevPolicy {
    /// A policy with a custom extreme-magnitude threshold.
    pub fn with_threshold(extreme_threshold: f64) -> Self {
        NevPolicy { extreme_threshold }
    }

    /// Classify an `f64` value; `None` means the value is benign.
    pub fn classify_f64(&self, v: f64) -> Option<Nev> {
        if v.is_nan() {
            Some(Nev::NaN)
        } else if v.is_infinite() {
            Some(Nev::Inf)
        } else if v.abs() > self.extreme_threshold {
            Some(Nev::Extreme)
        } else {
            None
        }
    }

    /// Classify a stored value at its own precision.
    ///
    /// NaN/Inf are judged at the storage precision (an f16 Inf is an Inf even
    /// though 65504.0 < any f64 threshold); extremeness is judged on the
    /// widened value.
    pub fn classify(&self, v: FpValue) -> Option<Nev> {
        if v.is_nan() {
            return Some(Nev::NaN);
        }
        if v.is_infinite() {
            return Some(Nev::Inf);
        }
        if v.to_f64().abs() > self.extreme_threshold {
            return Some(Nev::Extreme);
        }
        None
    }

    /// The smallest `f32` magnitude, as its bits with the sign cleared,
    /// that [`NevPolicy::classify_f64`] flags. NaN and ±∞ sit above every
    /// finite magnitude in this ordering, so "is an N-EV" becomes "the
    /// magnitude bits are at least this bound" — one integer compare.
    fn f32_nev_bound(&self) -> u32 {
        const INF_BITS: u32 = 0x7f80_0000;
        let t = self.extreme_threshold;
        if t.is_nan() || t >= f32::MAX as f64 {
            // No finite f32 compares above the threshold.
            INF_BITS
        } else if t < 0.0 {
            // Every magnitude, zero included, exceeds it.
            0
        } else {
            // `c` is the f32 nearest the threshold, so either it or its
            // successor is the first magnitude strictly above it (`+ 0.0`
            // folds a -0.0 threshold into +0.0).
            let c = (t + 0.0) as f32;
            if c as f64 > t {
                c.to_bits()
            } else {
                c.to_bits() + 1
            }
        }
    }

    /// True if any value in the slice is an N-EV.
    ///
    /// The same predicate as [`NevPolicy::classify_f64`] on each value
    /// widened to `f64`, scanned in fixed-size chunks without a branch per
    /// element: each chunk reduces to its largest magnitude bits.
    pub fn any_nev(&self, values: &[f32]) -> bool {
        let bound = self.f32_nev_bound();
        values.chunks(NEV_CHUNK).any(|chunk| {
            chunk.iter().fold(0u32, |max, v| max.max(v.to_bits() & 0x7fff_ffff)) >= bound
        })
    }

    /// Count N-EVs in the slice (the predicate of [`NevPolicy::any_nev`]).
    pub fn count_nev(&self, values: &[f32]) -> usize {
        let bound = self.f32_nev_bound();
        values.iter().map(|v| ((v.to_bits() & 0x7fff_ffff) >= bound) as usize).sum()
    }
}

/// Values per chunk of the N-EV scan: long enough for the reduction to
/// vectorize, short enough that a hit stops the scan early.
const NEV_CHUNK: usize = 256;

/// Classify with the default policy.
pub fn classify(v: f64) -> Option<Nev> {
    NevPolicy::default().classify_f64(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16;

    #[test]
    fn classifies_nan_inf_extreme() {
        let p = NevPolicy::default();
        assert_eq!(p.classify_f64(f64::NAN), Some(Nev::NaN));
        assert_eq!(p.classify_f64(f64::INFINITY), Some(Nev::Inf));
        assert_eq!(p.classify_f64(f64::NEG_INFINITY), Some(Nev::Inf));
        assert_eq!(p.classify_f64(4.49423283715579e307), Some(Nev::Extreme));
        assert_eq!(p.classify_f64(-1e31), Some(Nev::Extreme));
        assert_eq!(p.classify_f64(1e29), None);
        assert_eq!(p.classify_f64(0.0), None);
        assert_eq!(p.classify_f64(-123.456), None);
    }

    #[test]
    fn extremely_small_values_are_benign() {
        // Paper: "the extremely small values that could be generated in the
        // weights of the network are not catastrophic."
        let p = NevPolicy::default();
        assert_eq!(p.classify_f64(1e-300), None);
        assert_eq!(p.classify_f64(f64::MIN_POSITIVE), None);
    }

    #[test]
    fn storage_precision_infinity_counts() {
        let p = NevPolicy::default();
        assert_eq!(p.classify(FpValue::F16(f16::INFINITY)), Some(Nev::Inf));
        assert_eq!(p.classify(FpValue::F16(f16::MAX)), None); // 65504 is finite
        assert_eq!(p.classify(FpValue::F16(f16::NAN)), Some(Nev::NaN));
    }

    #[test]
    fn slice_helpers() {
        let p = NevPolicy::default();
        assert!(!p.any_nev(&[1.0, -2.0, 3.0]));
        assert!(p.any_nev(&[1.0, f32::NAN]));
        assert_eq!(p.count_nev(&[f32::INFINITY, 1.0, f32::NAN]), 2);
    }

    /// Thresholds at the edges of the bound derivation: zero, a subnormal
    /// below f32's range, an ordinary one, the largest finite, +∞, NaN,
    /// and negatives.
    const THRESHOLDS: [f64; 10] = [
        0.0,
        -0.0,
        5e-324,
        1e-45,
        1e30,
        3.4028234663852886e38,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        -1.0,
    ];

    #[test]
    fn slice_scans_match_classify_at_edge_thresholds() {
        // Every f32 class boundary, plus the neighbours of each threshold.
        let mut values: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1e30,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_0000),
        ];
        for t in THRESHOLDS {
            let c = t as f32;
            values.extend([
                c,
                -c,
                f32::from_bits(c.to_bits().wrapping_add(1)),
                f32::from_bits(c.to_bits().wrapping_sub(1)),
            ]);
        }
        for t in THRESHOLDS {
            let p = NevPolicy::with_threshold(t);
            for &v in &values {
                let want = p.classify_f64(v as f64).is_some();
                assert_eq!(
                    p.any_nev(&[v]),
                    want,
                    "threshold {t:e}, value {v:e} ({:#x})",
                    v.to_bits()
                );
                assert_eq!(p.count_nev(&[v]), want as usize);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn slice_scans_match_classify_on_random_bits(
            bits in proptest::prelude::prop::collection::vec(proptest::prelude::any::<u32>(), 0..700),
            pick in 0usize..10,
            hit in proptest::prelude::any::<usize>(),
        ) {
            let p = NevPolicy::with_threshold(THRESHOLDS[pick]);
            let mut values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            // Random patterns are mostly N-EVs, which would end every scan in
            // its first chunk: from a random point on, clear the sign and
            // the exponent's top bit (magnitudes below 2) so later chunks
            // are benign and get scanned too.
            for v in values.iter_mut().skip(hit % 700) {
                *v = f32::from_bits(v.to_bits() & 0x3fff_ffff);
            }
            let want: Vec<bool> = values.iter().map(|&v| p.classify_f64(v as f64).is_some()).collect();
            proptest::prop_assert_eq!(p.any_nev(&values), want.iter().any(|&w| w));
            proptest::prop_assert_eq!(p.count_nev(&values), want.iter().filter(|&&w| w).count());
        }
    }

    #[test]
    fn custom_threshold() {
        let p = NevPolicy::with_threshold(100.0);
        assert_eq!(p.classify_f64(101.0), Some(Nev::Extreme));
        assert_eq!(p.classify_f64(100.0), None);
    }
}
