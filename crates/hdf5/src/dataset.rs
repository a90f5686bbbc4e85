//! Typed n-dimensional datasets with bit-level element access.
//!
//! Elements are stored little-endian in a flat byte buffer at the declared
//! dtype's width. The corrupter reads and writes *raw bit patterns* at the
//! stored precision — exactly what "altering a checkpoint file" means — and
//! the training frameworks read/write the numeric views.

use crate::error::{Error, Result};
use sefi_float::{bf16, f16, FpValue, Precision};
use std::sync::Arc;

/// Element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE-754 binary16.
    F16,
    /// bfloat16 (binary32's exponent range, 7 mantissa bits).
    BF16,
    /// IEEE-754 binary32.
    F32,
    /// IEEE-754 binary64.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Unsigned byte.
    U8,
    /// Int8 symmetric quantization with a per-tensor scale: stored element
    /// `q ∈ [-127, 127]` represents the value `q * scale`. Not a float
    /// dtype — the injector corrupts it with integer `bin()` semantics.
    I8Q,
}

impl Dtype {
    /// Element width in bytes.
    pub const fn size(self) -> usize {
        match self {
            Dtype::F16 | Dtype::BF16 => 2,
            Dtype::F32 | Dtype::I32 => 4,
            Dtype::F64 | Dtype::I64 => 8,
            Dtype::U8 | Dtype::I8Q => 1,
        }
    }

    /// True for floating-point dtypes (I8Q is integer storage).
    pub const fn is_float(self) -> bool {
        matches!(self, Dtype::F16 | Dtype::BF16 | Dtype::F32 | Dtype::F64)
    }

    /// True for dtypes that carry logical real values — floats plus the
    /// quantized-int representation.
    pub const fn is_real(self) -> bool {
        self.is_float() || matches!(self, Dtype::I8Q)
    }

    /// The IEEE-754 precision of a float dtype.
    pub fn precision(self) -> Option<Precision> {
        match self {
            Dtype::F16 => Some(Precision::Fp16),
            Dtype::BF16 => Some(Precision::Bf16),
            Dtype::F32 => Some(Precision::Fp32),
            Dtype::F64 => Some(Precision::Fp64),
            _ => None,
        }
    }

    /// The float dtype storing a given precision.
    pub fn from_precision(p: Precision) -> Self {
        match p {
            Precision::Fp16 => Dtype::F16,
            Precision::Bf16 => Dtype::BF16,
            Precision::Fp32 => Dtype::F32,
            Precision::Fp64 => Dtype::F64,
        }
    }

    /// Stable on-disk tag.
    pub(crate) const fn tag(self) -> u8 {
        match self {
            Dtype::F16 => 1,
            Dtype::F32 => 2,
            Dtype::F64 => 3,
            Dtype::I32 => 4,
            Dtype::I64 => 5,
            Dtype::U8 => 6,
            Dtype::BF16 => 7,
            Dtype::I8Q => 8,
        }
    }

    /// Stable on-disk tag (shared by the hierarchical and flat formats).
    pub fn tag_public(self) -> u8 {
        self.tag()
    }

    /// Inverse of [`Dtype::tag_public`].
    pub fn from_tag_public(tag: u8) -> Result<Self> {
        Self::from_tag(tag)
    }

    /// Inverse of [`Dtype::tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            1 => Dtype::F16,
            2 => Dtype::F32,
            3 => Dtype::F64,
            4 => Dtype::I32,
            5 => Dtype::I64,
            6 => Dtype::U8,
            7 => Dtype::BF16,
            8 => Dtype::I8Q,
            other => return Err(Error::Malformed(format!("unknown dtype tag {other}"))),
        })
    }
}

/// A typed n-dimensional array. Scalars are rank-0 (empty shape, one entry).
///
/// The byte payload is behind an [`Arc`] with copy-on-write semantics:
/// cloning a dataset (and therefore a whole checkpoint tree) shares the
/// payload, and the first mutation through any setter copies only the
/// buffer being written. A fault-injection trial that clones a pristine
/// checkpoint and corrupts a handful of datasets pays for exactly those
/// datasets' bytes, not the full model. Equality still compares contents
/// (`Arc`'s `PartialEq` delegates to the inner `Vec<u8>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dtype: Dtype,
    shape: Vec<usize>,
    /// Entries: the shape's product, kept so element access reads no
    /// shape (an injection touches one entry of a random dataset).
    len: usize,
    /// Little-endian packed elements, `len() * dtype.size()` bytes.
    data: Arc<Vec<u8>>,
    /// Per-tensor dequantization scale. Meaningful only for [`Dtype::I8Q`]
    /// (stored value = element * scale); always `1.0` for every other
    /// dtype so derived equality is unaffected.
    scale: f32,
}

/// Number of entries implied by a shape ("the product of their dimensions").
/// Only valid for shapes already vetted by [`checked_elem_count`]; trusted
/// in-memory constructors use it after their own size checks.
fn shape_len(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// [`shape_len`] without wrap-around: `None` when the dimension product
/// overflows `usize`. Decoded shapes must go through this — each dimension
/// is individually capped by the decoders, but the *product* of up to
/// [`crate::limits::MAX_RANK`] capped dimensions can still wrap in release
/// builds and slip a short buffer past the byte-length validation.
pub(crate) fn checked_elem_count(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

impl Dataset {
    /// A dataset of zeros.
    pub fn zeros(shape: &[usize], dtype: Dtype) -> Self {
        let len = shape_len(shape);
        Dataset {
            dtype,
            shape: shape.to_vec(),
            len,
            data: Arc::new(vec![0u8; len * dtype.size()]),
            scale: 1.0,
        }
    }

    /// Build a real-valued dataset from `f32` values, narrowing/widening to
    /// `dtype` (a float type or [`Dtype::I8Q`]).
    ///
    /// Rounding contract: `F64` widens losslessly (`f32 -> f64 -> f32`
    /// round-trips exactly), `F32` is the identity, and the 16-bit formats
    /// narrow with IEEE round-to-nearest-even — `F16` rounds the 13
    /// dropped mantissa bits (overflowing > 65504 to ±∞, flushing below
    /// the subnormal range to ±0), `BF16` rounds the 16 dropped bits (same
    /// exponent range as `f32`, so only rounding carry at the very top
    /// overflows). `I8Q` quantizes symmetrically: scale = max|v|/127
    /// (1.0 for an all-zero tensor), elements = round(v/scale) clamped to
    /// [-127, 127].
    pub fn from_f32(values: &[f32], shape: &[usize], dtype: Dtype) -> Result<Self> {
        if !dtype.is_real() {
            return Err(Error::DtypeMismatch(format!("from_f32 into {dtype:?}")));
        }
        let expected = checked_elem_count(shape).ok_or_else(|| {
            Error::Malformed(format!("dataset shape {shape:?} overflows the element count"))
        })?;
        if expected != values.len() {
            return Err(Error::ShapeMismatch { expected, got: values.len() });
        }
        let mut ds = Dataset::zeros(shape, dtype);
        if dtype == Dtype::I8Q {
            let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            ds.scale = if max_abs > 0.0 && max_abs.is_finite() { max_abs / 127.0 } else { 1.0 };
        }
        for (i, &v) in values.iter().enumerate() {
            ds.write_f64_unchecked(i, v as f64);
        }
        Ok(ds)
    }

    /// Build an integer dataset from `i64` values (dtype I32/I64/U8;
    /// values are truncated to the storage width).
    pub fn from_i64(values: &[i64], shape: &[usize], dtype: Dtype) -> Result<Self> {
        if dtype.is_float() {
            return Err(Error::DtypeMismatch(format!("from_i64 into {dtype:?}")));
        }
        let expected = checked_elem_count(shape).ok_or_else(|| {
            Error::Malformed(format!("dataset shape {shape:?} overflows the element count"))
        })?;
        if expected != values.len() {
            return Err(Error::ShapeMismatch { expected, got: values.len() });
        }
        let mut ds = Dataset::zeros(shape, dtype);
        for (i, &v) in values.iter().enumerate() {
            ds.write_i64_unchecked(i, v);
        }
        Ok(ds)
    }

    /// A rank-0 I64 scalar (e.g. the checkpoint's epoch counter).
    pub fn scalar_i64(v: i64) -> Self {
        Dataset::from_i64(&[v], &[], Dtype::I64).expect("scalar shape always valid")
    }

    /// A rank-0 F64 scalar.
    pub fn scalar_f64(v: f64) -> Self {
        let mut ds = Dataset::zeros(&[], Dtype::F64);
        ds.write_f64_unchecked(0, v);
        ds
    }

    /// Reconstruct from raw parts with length validation (used by both
    /// on-disk decoders).
    pub fn from_raw_public(dtype: Dtype, shape: Vec<usize>, data: Vec<u8>) -> Result<Self> {
        Self::from_raw(dtype, shape, data)
    }

    /// Reconstruct from raw parts (used by the decoder).
    pub(crate) fn from_raw(dtype: Dtype, shape: Vec<usize>, data: Vec<u8>) -> Result<Self> {
        let (len, expected) = checked_elem_count(&shape)
            .and_then(|n| Some((n, n.checked_mul(dtype.size())?)))
            .ok_or_else(|| {
                Error::Malformed(format!("dataset shape {shape:?} overflows the element count"))
            })?;
        if data.len() != expected {
            return Err(Error::Malformed(format!(
                "dataset byte length {} does not match shape (expected {expected})",
                data.len()
            )));
        }
        Ok(Dataset { dtype, shape, len, data: Arc::new(data), scale: 1.0 })
    }

    /// Element type.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// The per-tensor dequantization scale (`1.0` for non-I8Q dtypes).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Replace the dequantization scale (decoders restoring an I8Q
    /// dataset; a non-finite or non-positive scale is coerced to `1.0`).
    pub fn with_scale(mut self, scale: f32) -> Self {
        self.scale = if scale.is_finite() && scale > 0.0 { scale } else { 1.0 };
        self
    }

    /// Shape (empty for scalars).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of entries (dimension product; 1 for scalars).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dataset holds no entries (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw byte buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Copy-on-write access to the payload: unshares the buffer if this
    /// dataset still shares it with clones. Every setter funnels through
    /// here, so reads never pay for the copy.
    fn bytes_mut(&mut self) -> &mut [u8] {
        let buf: &mut Vec<u8> = Arc::make_mut(&mut self.data);
        buf
    }

    fn check_index(&self, index: usize) -> Result<()> {
        if index >= self.len() {
            return Err(Error::IndexOutOfBounds { index, len: self.len() });
        }
        Ok(())
    }

    /// Raw bit pattern of entry `index`, zero-extended to 64 bits.
    pub fn get_bits(&self, index: usize) -> Result<u64> {
        self.check_index(index)?;
        let w = self.dtype.size();
        let off = index * w;
        let mut buf = [0u8; 8];
        buf[..w].copy_from_slice(&self.data[off..off + w]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Overwrite entry `index` with a raw bit pattern (low `size()` bytes).
    pub fn set_bits(&mut self, index: usize, bits: u64) -> Result<()> {
        self.check_index(index)?;
        let w = self.dtype.size();
        let off = index * w;
        self.bytes_mut()[off..off + w].copy_from_slice(&bits.to_le_bytes()[..w]);
        Ok(())
    }

    /// Read a float entry at its stored precision.
    pub fn get_fp(&self, index: usize) -> Result<FpValue> {
        let p = self
            .dtype
            .precision()
            .ok_or_else(|| Error::DtypeMismatch(format!("get_fp on {:?}", self.dtype)))?;
        Ok(FpValue::from_bits(p, self.get_bits(index)?))
    }

    /// Write a float entry at its stored precision.
    pub fn set_fp(&mut self, index: usize, v: FpValue) -> Result<()> {
        let p = self
            .dtype
            .precision()
            .ok_or_else(|| Error::DtypeMismatch(format!("set_fp on {:?}", self.dtype)))?;
        if v.precision() != p {
            return Err(Error::DtypeMismatch(format!(
                "value precision {:?} vs dataset {:?}",
                v.precision(),
                p
            )));
        }
        self.set_bits(index, v.to_bits())
    }

    /// Read any entry widened to `f64` (integers convert exactly for
    /// I32/U8; I8Q dequantizes through the per-tensor scale).
    pub fn get_f64(&self, index: usize) -> Result<f64> {
        match self.dtype {
            Dtype::F16 | Dtype::BF16 | Dtype::F32 | Dtype::F64 => Ok(self.get_fp(index)?.to_f64()),
            Dtype::I32 => Ok(self.get_bits(index)? as u32 as i32 as f64),
            Dtype::I64 => Ok(self.get_bits(index)? as i64 as f64),
            Dtype::U8 => Ok(self.get_bits(index)? as u8 as f64),
            Dtype::I8Q => Ok(self.get_bits(index)? as u8 as i8 as f64 * self.scale as f64),
        }
    }

    /// Write an `f64`, narrowing to the stored dtype (round-to-nearest-even
    /// for floats; saturating cast for integers).
    pub fn set_f64(&mut self, index: usize, v: f64) -> Result<()> {
        self.check_index(index)?;
        self.write_f64_unchecked(index, v);
        Ok(())
    }

    fn write_f64_unchecked(&mut self, index: usize, v: f64) {
        let bits = match self.dtype {
            Dtype::F16 => f16::from_f64(v).to_bits() as u64,
            Dtype::BF16 => bf16::from_f64(v).to_bits() as u64,
            Dtype::F32 => (v as f32).to_bits() as u64,
            Dtype::F64 => v.to_bits(),
            Dtype::I32 => (v as i32) as u32 as u64,
            Dtype::I64 => (v as i64) as u64,
            Dtype::U8 => (v as u8) as u64,
            Dtype::I8Q => {
                let q = (v / self.scale as f64).round().clamp(-127.0, 127.0);
                (q as i8) as u8 as u64
            }
        };
        let w = self.dtype.size();
        let off = index * w;
        self.bytes_mut()[off..off + w].copy_from_slice(&bits.to_le_bytes()[..w]);
    }

    /// Read an integer entry (I8Q yields the raw quantized element, not
    /// the dequantized value).
    pub fn get_i64(&self, index: usize) -> Result<i64> {
        match self.dtype {
            Dtype::I32 => Ok(self.get_bits(index)? as u32 as i32 as i64),
            Dtype::I64 => Ok(self.get_bits(index)? as i64),
            Dtype::U8 => Ok(self.get_bits(index)? as u8 as i64),
            Dtype::I8Q => Ok(self.get_bits(index)? as u8 as i8 as i64),
            _ => Err(Error::DtypeMismatch(format!("get_i64 on {:?}", self.dtype))),
        }
    }

    /// Write an integer entry (truncating to the storage width).
    pub fn set_i64(&mut self, index: usize, v: i64) -> Result<()> {
        if self.dtype.is_float() {
            return Err(Error::DtypeMismatch(format!("set_i64 on {:?}", self.dtype)));
        }
        self.check_index(index)?;
        self.write_i64_unchecked(index, v);
        Ok(())
    }

    fn write_i64_unchecked(&mut self, index: usize, v: i64) {
        let w = self.dtype.size();
        let off = index * w;
        self.bytes_mut()[off..off + w].copy_from_slice(&(v as u64).to_le_bytes()[..w]);
    }

    /// All entries widened to `f32` (the frameworks' working precision).
    ///
    /// A fresh buffer filled by [`Dataset::read_f32_into`].
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len()];
        self.read_f32_into(&mut out).expect("buffer sized to the dataset");
        out
    }

    /// Decode every entry, widened to `f32`, into `out`, which must hold
    /// exactly [`Dataset::len`] values.
    ///
    /// Decodes in bulk — one dtype dispatch per dataset, then one pass over
    /// fixed-width chunks — with [`Dataset::get_f64`]'s per-element
    /// conversion, so every result is bit-identical to `get_f64(i) as f32`
    /// (signalling NaNs come out quiet; I8Q dequantizes through its scale).
    pub fn read_f32_into(&self, out: &mut [f32]) -> Result<()> {
        fn widen<const W: usize>(bytes: &[u8], out: &mut [f32], decode: impl Fn([u8; W]) -> f64) {
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(W)) {
                *o = decode(c.try_into().expect("chunks_exact yields W bytes")) as f32;
            }
        }
        // `x as f64` for an `f32` x, as the hardware widens it: exact, but a
        // signalling NaN comes out quiet (payload kept). Spelled out because
        // the compiler may fold the `as f64 as f32` pair away and keep the
        // NaN signalling, which `get_f64(i) as f32` never does.
        fn via_f64(x: f32) -> f64 {
            if x.is_nan() {
                f32::from_bits(x.to_bits() | 0x0040_0000) as f64
            } else {
                x as f64
            }
        }
        if out.len() != self.len() {
            return Err(Error::ShapeMismatch { expected: self.len(), got: out.len() });
        }
        let bytes = self.bytes();
        let scale = self.scale as f64;
        match self.dtype {
            Dtype::F16 => {
                widen(bytes, out, |b| via_f64(f16::from_bits(u16::from_le_bytes(b)).to_f32()))
            }
            Dtype::BF16 => {
                widen(bytes, out, |b| via_f64(bf16::from_bits(u16::from_le_bytes(b)).to_f32()))
            }
            Dtype::F32 => widen(bytes, out, |b| via_f64(f32::from_le_bytes(b))),
            Dtype::F64 => widen(bytes, out, f64::from_le_bytes),
            Dtype::I32 => widen(bytes, out, |b| i32::from_le_bytes(b) as f64),
            Dtype::I64 => widen(bytes, out, |b| i64::from_le_bytes(b) as f64),
            Dtype::U8 => widen(bytes, out, |b: [u8; 1]| b[0] as f64),
            Dtype::I8Q => widen(bytes, out, |b: [u8; 1]| b[0] as i8 as f64 * scale),
        }
        Ok(())
    }

    /// All entries widened to `f64`.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get_f64(i).expect("in-bounds")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes_and_tags_roundtrip() {
        for d in [
            Dtype::F16,
            Dtype::BF16,
            Dtype::F32,
            Dtype::F64,
            Dtype::I32,
            Dtype::I64,
            Dtype::U8,
            Dtype::I8Q,
        ] {
            assert_eq!(Dtype::from_tag(d.tag()).unwrap(), d);
        }
        assert!(Dtype::from_tag(0).is_err());
        assert!(Dtype::from_tag(99).is_err());
        assert_eq!(Dtype::F16.size(), 2);
        assert_eq!(Dtype::BF16.size(), 2);
        assert_eq!(Dtype::U8.size(), 1);
        assert_eq!(Dtype::I8Q.size(), 1);
        assert!(Dtype::BF16.is_float());
        assert!(!Dtype::I8Q.is_float() && Dtype::I8Q.is_real());
    }

    #[test]
    fn f32_dataset_stores_and_reads() {
        let ds = Dataset::from_f32(&[1.5, -2.25, 0.0], &[3], Dtype::F32).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.get_f64(1).unwrap(), -2.25);
        assert_eq!(ds.to_f32_vec(), vec![1.5, -2.25, 0.0]);
    }

    #[test]
    fn f16_dataset_narrows_with_rne() {
        let ds = Dataset::from_f32(&[1.0, 65504.0, 1e-8], &[3], Dtype::F16).unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), 1.0);
        assert_eq!(ds.get_f64(1).unwrap(), 65504.0);
        assert_eq!(ds.get_f64(2).unwrap(), 0.0); // underflow to zero
        assert_eq!(ds.bytes().len(), 6);

        // RNE tie cases: halfway between two f16s with even lower mantissa
        // rounds down; odd lower mantissa rounds up.
        let tie_even = 1.0f32 + 2.0f32.powi(-11);
        let tie_odd = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        let ds = Dataset::from_f32(&[tie_even, tie_odd], &[2], Dtype::F16).unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), 1.0);
        assert_eq!(ds.get_f64(1).unwrap(), (1.0f32 + 2.0f32.powi(-9)) as f64);

        // Subnormals: min f16 subnormal survives; overflow saturates to ∞;
        // infinities pass through with sign.
        let min_sub = 5.960_464_5e-8f32; // 2^-24
        let ds = Dataset::from_f32(
            &[min_sub, -min_sub, 1e6, -1e6, f32::INFINITY, f32::NEG_INFINITY],
            &[6],
            Dtype::F16,
        )
        .unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), min_sub as f64);
        assert_eq!(ds.get_f64(1).unwrap(), -min_sub as f64);
        assert_eq!(ds.get_f64(2).unwrap(), f64::INFINITY);
        assert_eq!(ds.get_f64(3).unwrap(), f64::NEG_INFINITY);
        assert_eq!(ds.get_f64(4).unwrap(), f64::INFINITY);
        assert_eq!(ds.get_f64(5).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn bf16_dataset_narrows_with_rne() {
        // RNE ties at bfloat16's 7-bit mantissa.
        let tie_even = 1.0f32 + 2.0f32.powi(-8);
        let tie_odd = 1.0f32 + 3.0 * 2.0f32.powi(-8);
        let ds = Dataset::from_f32(&[tie_even, tie_odd], &[2], Dtype::BF16).unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), 1.0);
        assert_eq!(ds.get_f64(1).unwrap(), (1.0f32 + 2.0f32.powi(-6)) as f64);

        // bfloat16 shares f32's exponent range: 1e-38 survives as a normal
        // value where f16 flushed it; f32::MAX rounds up to ∞; f32's min
        // subnormal is below bf16's subnormal range and flushes to zero.
        let ds = Dataset::from_f32(
            &[1e-38, f32::MAX, f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(1)],
            &[5],
            Dtype::BF16,
        )
        .unwrap();
        assert!(ds.get_f64(0).unwrap() > 0.9e-38 && ds.get_f64(0).unwrap() < 1.1e-38);
        assert_eq!(ds.get_f64(1).unwrap(), f64::INFINITY);
        assert_eq!(ds.get_f64(2).unwrap(), f64::INFINITY);
        assert_eq!(ds.get_f64(3).unwrap(), f64::NEG_INFINITY);
        assert_eq!(ds.get_f64(4).unwrap(), 0.0);
    }

    #[test]
    fn f64_widen_then_narrow_is_lossless() {
        // f32 -> f64 -> f32 must round-trip exactly for every value,
        // including subnormals and infinities.
        let vals = [0.1f32, -3.5e-42, f32::MIN_POSITIVE, f32::MAX, f32::INFINITY, 1e-45];
        let ds = Dataset::from_f32(&vals, &[vals.len()], Dtype::F64).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(ds.get_f64(i).unwrap() as f32, v, "index {i}");
            assert_eq!(ds.get_f64(i).unwrap(), v as f64, "widening exact at {i}");
        }
    }

    #[test]
    fn i8q_quantizes_with_per_tensor_scale() {
        let vals = [0.5f32, -1.0, 0.0, 0.25];
        let ds = Dataset::from_f32(&vals, &[4], Dtype::I8Q).unwrap();
        assert_eq!(ds.scale(), 1.0 / 127.0);
        // Raw elements are the quantized integers…
        assert_eq!(ds.get_i64(0).unwrap(), 64); // round(0.5 * 127) = 64
        assert_eq!(ds.get_i64(1).unwrap(), -127);
        assert_eq!(ds.get_i64(2).unwrap(), 0);
        // …and get_f64 dequantizes within half a step.
        for (i, &v) in vals.iter().enumerate() {
            let err = (ds.get_f64(i).unwrap() - v as f64).abs();
            assert!(err <= 0.5 / 127.0 + 1e-9, "index {i} err {err}");
        }
        // The max-magnitude element reconstructs to within f32 scale rounding
        // (scale = max_abs/127 is itself rounded to f32, so -127 * scale is
        // close to but not bit-exactly -1.0).
        assert!((ds.get_f64(1).unwrap() - (-1.0)).abs() < 1e-7);
        // An all-zero tensor quantizes with scale 1.0.
        let z = Dataset::from_f32(&[0.0, 0.0], &[2], Dtype::I8Q).unwrap();
        assert_eq!(z.scale(), 1.0);
        assert_eq!(z.get_f64(0).unwrap(), 0.0);
        // Scale survives a with_scale round-trip; bad scales are coerced.
        let rs = Dataset::zeros(&[2], Dtype::I8Q).with_scale(0.5);
        assert_eq!(rs.scale(), 0.5);
        assert_eq!(Dataset::zeros(&[1], Dtype::I8Q).with_scale(0.0).scale(), 1.0);
        assert_eq!(Dataset::zeros(&[1], Dtype::I8Q).with_scale(f32::NAN).scale(), 1.0);
    }

    #[test]
    fn f64_dataset_is_lossless() {
        let v = 0.1f64;
        let mut ds = Dataset::zeros(&[1], Dtype::F64);
        ds.set_f64(0, v).unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), v);
    }

    #[test]
    fn scalar_has_one_entry() {
        let ds = Dataset::scalar_i64(20);
        assert_eq!(ds.shape(), &[] as &[usize]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.get_i64(0).unwrap(), 20);
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(matches!(
            Dataset::from_f32(&[1.0, 2.0], &[3], Dtype::F32),
            Err(Error::ShapeMismatch { expected: 3, got: 2 })
        ));
    }

    #[test]
    fn bit_level_access_matches_native_layout() {
        let mut ds = Dataset::from_f32(&[0.25], &[1], Dtype::F64).unwrap();
        assert_eq!(ds.get_bits(0).unwrap(), 0.25f64.to_bits());
        // Flip the exponent MSB (paper's example) via raw bits.
        ds.set_bits(0, ds.get_bits(0).unwrap() ^ (1 << 62)).unwrap();
        assert!((ds.get_f64(0).unwrap() - 4.49423283715579e307).abs() < 1e295);
    }

    #[test]
    fn out_of_bounds_is_an_error_not_a_panic() {
        let ds = Dataset::from_f32(&[1.0], &[1], Dtype::F32).unwrap();
        assert!(matches!(ds.get_bits(1), Err(Error::IndexOutOfBounds { .. })));
        assert!(matches!(ds.get_f64(5), Err(Error::IndexOutOfBounds { .. })));
    }

    #[test]
    fn dtype_mismatch_errors() {
        let ds = Dataset::scalar_i64(7);
        assert!(matches!(ds.get_fp(0), Err(Error::DtypeMismatch(_))));
        let fds = Dataset::from_f32(&[1.0], &[1], Dtype::F32).unwrap();
        assert!(matches!(fds.get_i64(0), Err(Error::DtypeMismatch(_))));
        assert!(Dataset::from_f32(&[1.0], &[1], Dtype::I32).is_err());
        assert!(Dataset::from_i64(&[1], &[1], Dtype::F32).is_err());
    }

    #[test]
    fn integer_storage_widths() {
        let ds = Dataset::from_i64(&[-5, 300], &[2], Dtype::I32).unwrap();
        assert_eq!(ds.get_i64(0).unwrap(), -5);
        assert_eq!(ds.get_i64(1).unwrap(), 300);
        let ds = Dataset::from_i64(&[200, 255], &[2], Dtype::U8).unwrap();
        assert_eq!(ds.get_i64(0).unwrap(), 200);
    }

    #[test]
    fn wrapping_shape_product_rejected_not_wrapped() {
        // 16 dimensions of 2^30 each: every dimension passes the per-dim
        // cap, but the product is 2^480 ≡ 0 (mod 2^64). An unchecked
        // `shape.iter().product()` wraps to 0 in release builds, making the
        // `elem_count * size == data.len()` validation accept an empty
        // buffer for an astronomically-sized dataset.
        let shape = vec![1usize << 30; 16];
        assert_eq!(checked_elem_count(&shape), None);
        let err = Dataset::from_raw(Dtype::F64, shape.clone(), Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Malformed(m) if m.contains("overflow")));
        // A shape that wraps exactly to a plausible small count is the
        // nastiest variant: 2^32 × 2^32 wraps to 0 == data length 0.
        let err = Dataset::from_raw(Dtype::U8, vec![1 << 32, 1 << 32], Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)));
        // from_f32 goes through the same check.
        assert!(Dataset::from_f32(&[], &shape, Dtype::F32).is_err());
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::zeros(&[0, 3], Dtype::F32);
        assert!(ds.is_empty());
        assert_eq!(ds.len(), 0);
        assert!(ds.get_f64(0).is_err());
    }

    #[test]
    fn clones_share_bytes_until_written() {
        let a = Dataset::from_f32(&[1.0, 2.0, 3.0], &[3], Dtype::F32).unwrap();
        let mut b = a.clone();
        // The clone is a pointer copy of the payload…
        assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr());
        // …until the first write, which unshares exactly this buffer.
        b.set_f64(1, 9.0).unwrap();
        assert_ne!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert_eq!(a.get_f64(1).unwrap(), 2.0);
        assert_eq!(b.get_f64(1).unwrap(), 9.0);
        assert_ne!(a, b);
        // A uniquely-owned dataset mutates in place (no copy per write).
        let before = b.bytes().as_ptr();
        b.set_f64(0, 4.0).unwrap();
        assert_eq!(b.bytes().as_ptr(), before);
    }

    #[test]
    fn set_fp_enforces_precision() {
        use sefi_float::Precision;
        let mut ds = Dataset::zeros(&[1], Dtype::F32);
        let wrong = FpValue::from_f64(Precision::Fp64, 1.0);
        assert!(ds.set_fp(0, wrong).is_err());
        let right = FpValue::from_f64(Precision::Fp32, 1.0);
        ds.set_fp(0, right).unwrap();
        assert_eq!(ds.get_f64(0).unwrap(), 1.0);
    }
}
