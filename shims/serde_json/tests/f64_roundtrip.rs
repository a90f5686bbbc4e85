//! Property test: every f64 bit pattern survives a write/read round trip.
//!
//! Manifests and telemetry store trial metrics as JSON floats, and a
//! resumed campaign rebuilds its tables from them, so byte-identical
//! resume needs every finite value — including -0.0 and subnormals — to
//! come back bit-identical. Non-finite values are written as `null` and
//! read back as NaN, as the crate documents.

use proptest::prelude::*;

const SIGN: u64 = 1 << 63;
const EXP: u64 = 0x7FF << 52;

/// Raw bits, biased toward the classes a uniform draw rarely hits.
fn f64_bits() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u8..4).prop_map(|(bits, class)| match class {
        0 => bits,
        1 => bits & !EXP, // subnormal (or ±0.0)
        2 => bits | EXP,  // ±inf or NaN
        _ => bits & SIGN, // ±0.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn f64_bits_round_trip(bits in f64_bits()) {
        let v = f64::from_bits(bits);
        let text = serde_json::to_string(&v).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        if v.is_finite() {
            prop_assert_eq!(back.to_bits(), bits, "{} via {}", v, text);
        } else {
            prop_assert_eq!(text.as_str(), "null");
            prop_assert!(back.is_nan());
        }
    }
}
