//! Property-based tests for the checkpoint container and its SEC-DED word
//! code.

use proptest::prelude::*;
use sefi_hdf5::hamming::{decode, encode, DecodeResult};
use sefi_hdf5::{Attr, Dataset, DatasetLookup, Dtype, H5File};

fn any_dtype() -> impl Strategy<Value = Dtype> {
    prop_oneof![
        Just(Dtype::F16),
        Just(Dtype::F32),
        Just(Dtype::F64),
        Just(Dtype::I32),
        Just(Dtype::I64),
        Just(Dtype::U8),
    ]
}

/// 64-bit words whose low bytes hit the decoding edges of every float
/// width — NaN payloads (quiet and signalling), ±inf, −0.0, subnormals —
/// mixed with uniformly random words.
fn edge_word() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        any::<u64>(),
        Just(0x7FF4_0000_0000_0BADu64), // f64 signalling NaN with payload
        Just(0xFFF8_0000_0000_0001u64), // f64 negative quiet NaN
        Just(0xFFF0_0000_0000_0000u64), // f64 -inf
        Just(0x8000_0000_0000_0000u64), // f64 -0.0
        Just(0x000F_FFFF_FFFF_FFFFu64), // f64 largest subnormal
        Just(0x7FA0_0BADu64),           // f32 signalling NaN with payload
        Just(0xFFC0_0001u64),           // f32 negative quiet NaN
        Just(0xFF80_0000u64),           // f32 -inf
        Just(0x8000_0001u64),           // f32 negative subnormal
        Just(0x7D01u64),                // f16 signalling NaN
        Just(0xFC00u64),                // f16 -inf
        Just(0x8001u64),                // f16 negative subnormal
        Just(0x7F81u64),                // bf16 signalling NaN
        Just(0x8000u64),                // f16 / bf16 -0.0
        Just(0x0001u64),                // smallest subnormal at every width
    ]
}

fn path_segment() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

/// A small random file: a handful of datasets at random depths.
fn any_file() -> impl Strategy<Value = H5File> {
    let entry = (
        prop::collection::vec(path_segment(), 1..4),
        any_dtype(),
        prop::collection::vec(-1000.0f32..1000.0, 0..20),
    );
    prop::collection::vec(entry, 0..8).prop_map(|entries| {
        let mut f = H5File::new();
        for (segs, dtype, values) in entries {
            let path = segs.join("/");
            let ds = if dtype.is_float() {
                Dataset::from_f32(&values, &[values.len()], dtype).unwrap()
            } else {
                let ints: Vec<i64> = values.iter().map(|&v| v as i64).collect();
                Dataset::from_i64(&ints, &[ints.len()], dtype).unwrap()
            };
            // Collisions (dataset blocking a group or duplicate path) are
            // legitimate: skip those entries.
            let _ = f.create_dataset(&path, ds);
        }
        f
    })
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(f in any_file()) {
        let bytes = f.to_bytes();
        let g = H5File::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&f, &g);
        // Deterministic encoding: decode∘encode is byte-stable.
        prop_assert_eq!(bytes, g.to_bytes());
    }

    #[test]
    fn single_byte_corruption_never_panics_and_is_detected_or_rejected(
        f in any_file(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = f.to_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        // Any single-byte flip must produce a clean error (magic, version,
        // CRC, or structural) — never a panic, never an Ok with different
        // content accepted silently. An Ok is only possible if the flip was
        // somehow compensated, which CRC32 prevents for single bytes.
        prop_assert!(H5File::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_never_panics(f in any_file(), cut_seed in any::<usize>()) {
        let bytes = f.to_bytes();
        let cut = cut_seed % (bytes.len() + 1);
        let _ = H5File::from_bytes(&bytes[..cut]); // must not panic
    }

    #[test]
    fn entry_count_equals_sum_of_dataset_lengths(f in any_file()) {
        let total: u64 = f
            .dataset_paths()
            .iter()
            .map(|p| f.dataset(p).unwrap().len() as u64)
            .sum();
        prop_assert_eq!(f.total_entries(), total);
    }

    #[test]
    fn set_bits_get_bits_roundtrip(
        dtype in any_dtype(),
        len in 1usize..16,
        idx_seed in any::<usize>(),
        raw in any::<u64>(),
    ) {
        let mut ds = Dataset::zeros(&[len], dtype);
        let idx = idx_seed % len;
        let masked = raw & (u64::MAX >> (64 - 8 * dtype.size() as u32));
        ds.set_bits(idx, masked).unwrap();
        prop_assert_eq!(ds.get_bits(idx).unwrap(), masked);
        // Neighbours untouched.
        for i in 0..len {
            if i != idx {
                prop_assert_eq!(ds.get_bits(i).unwrap(), 0);
            }
        }
    }

    /// The group-caching lookup finds exactly what a fresh lookup finds,
    /// whatever order paths come in: real datasets, their groups, prefixes
    /// and extensions of them, and paths that go nowhere.
    #[test]
    fn dataset_lookup_matches_fresh_lookups(
        f in any_file(),
        picks in prop::collection::vec((any::<usize>(), 0u8..4, path_segment()), 0..24),
    ) {
        let paths = f.object_paths();
        let mut lookup = DatasetLookup::new(&f);
        for (i, how, seg) in picks {
            let base = if paths.is_empty() { seg.clone() } else { paths[i % paths.len()].clone() };
            let probe = match how {
                0 => base,
                1 => format!("{base}/{seg}"),
                2 => base.rsplit_once('/').map_or(seg.clone(), |(dir, _)| format!("{dir}/{seg}")),
                _ => base.split('/').next().unwrap_or("").to_string(),
            };
            let want = f.dataset(&probe).map(|d| d as *const Dataset);
            prop_assert_eq!(lookup.dataset(&probe).map(|d| d as *const Dataset), want, "{}", probe);
        }
    }

    #[test]
    fn bulk_f32_decode_matches_per_element_decode(
        dtype in prop_oneof![
            Just(Dtype::F16),
            Just(Dtype::BF16),
            Just(Dtype::F32),
            Just(Dtype::F64),
            Just(Dtype::I8Q),
        ],
        words in prop::collection::vec(edge_word(), 0..48),
        scale in 1e-6f32..1e3,
    ) {
        let w = dtype.size();
        let bytes: Vec<u8> = words.iter().flat_map(|x| x.to_le_bytes()[..w].to_vec()).collect();
        let ds = Dataset::from_raw_public(dtype, vec![words.len()], bytes).unwrap();
        let ds = if dtype == Dtype::I8Q { ds.with_scale(scale) } else { ds };
        let bulk: Vec<u32> = ds.to_f32_vec().iter().map(|v| v.to_bits()).collect();
        let each: Vec<u32> =
            (0..ds.len()).map(|i| (ds.get_f64(i).unwrap() as f32).to_bits()).collect();
        prop_assert_eq!(&bulk, &each);
        // Decoding into a reused buffer overwrites whatever it held.
        let mut reused = vec![f32::from_bits(0x7fa0_0001); ds.len()];
        ds.read_f32_into(&mut reused).unwrap();
        let into: Vec<u32> = reused.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(into, each);
        let mut short = vec![0.0f32; ds.len() + 1];
        prop_assert!(ds.read_f32_into(&mut short).is_err());
    }

    #[test]
    fn attrs_roundtrip(name in path_segment(), iv in any::<i64>(), fv in any::<f64>(), sv in ".{0,20}") {
        prop_assume!(!fv.is_nan()); // NaN != NaN under PartialEq
        let mut f = H5File::new();
        let g = f.create_group("g").unwrap();
        g.set_attr(&format!("{name}_i"), Attr::Int(iv));
        g.set_attr(&format!("{name}_f"), Attr::Float(fv));
        g.set_attr(&format!("{name}_s"), Attr::Str(sv));
        let g2 = H5File::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(f, g2);
    }
}

// The Hamming(72,64) SEC-DED word code behind the ECC sidecar.
proptest! {
    #[test]
    fn clean_words_always_decode_clean(data in any::<u64>()) {
        prop_assert_eq!(decode(data, encode(data)), DecodeResult::Clean(data));
    }

    #[test]
    fn any_single_data_flip_is_corrected_exactly(data in any::<u64>(), bit in 0u32..64) {
        let parity = encode(data);
        let corrupted = data ^ (1u64 << bit);
        match decode(corrupted, parity) {
            DecodeResult::Corrected { data: d, data_bit: true } => prop_assert_eq!(d, data),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    #[test]
    fn any_single_parity_flip_leaves_data_alone(data in any::<u64>(), bit in 0u32..8) {
        let parity = encode(data) ^ (1u8 << bit);
        match decode(data, parity) {
            DecodeResult::Corrected { data: d, data_bit: false } => prop_assert_eq!(d, data),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    #[test]
    fn any_double_data_flip_is_detected(
        data in any::<u64>(),
        a in 0u32..64,
        b in 0u32..64,
    ) {
        prop_assume!(a != b);
        let parity = encode(data);
        let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
        prop_assert_eq!(decode(corrupted, parity), DecodeResult::DoubleError(corrupted));
    }

    #[test]
    fn mixed_data_parity_double_flip_is_not_silently_clean(
        data in any::<u64>(),
        dbit in 0u32..64,
        pbit in 0u32..8,
    ) {
        let parity = encode(data) ^ (1u8 << pbit);
        let corrupted = data ^ (1u64 << dbit);
        // Detected, or miscorrected to some word — SEC-DED's contract
        // only promises detection for double errors within its own
        // coverage; a flip in the overall bit plus a data bit aliases
        // to a single data error. Either way, never Clean.
        if let DecodeResult::Clean(_) = decode(corrupted, parity) {
            return Err(TestCaseError::fail("missed".to_string()));
        }
    }
}
