//! SEC-DED repair of in-memory corruption, as if it had struck storage.
//!
//! The [`sefi_core::Corrupter`] flips bits in an [`H5File`]; the
//! [`EccSidecar`] protects the stored v2 bytes of a checkpoint. A v2
//! dataset section is exactly the dataset's raw bytes, so a flip in the
//! in-memory file is a flip at the same position of the stored section,
//! and the sidecar's Hamming(72,64) words line up with it one to one.

use sefi_hdf5::sidecar::SectionRepair;
use sefi_hdf5::{EccSidecar, Error, FileIndex, H5File, Result};

/// Emulate storage damage and run the sidecar's repair over it.
///
/// `pristine` holds the v2 bytes `sidecar` was minted over. The damaged
/// file is `pristine`'s index followed by `corrupted`'s v2 payload: a
/// storage flip leaves the index (and its section CRCs) untouched. Every
/// section is then passed through
/// [`EccSidecar::repaired_section_with_report`], *without* re-checking
/// the section CRC afterwards, so odd-weight multi-bit damage that the
/// code miscorrects stays visible to the caller instead of being turned
/// into a detection.
///
/// `corrupted` must have `pristine`'s structure (same datasets, shapes
/// and dtypes), which is all a [`sefi_core::Corrupter`] can leave behind.
/// Returns the repaired v2 bytes and the summed per-section tally. The
/// repair was exact when the returned bytes equal `pristine`.
pub fn repair_as_stored(
    pristine: &[u8],
    sidecar: &EccSidecar,
    corrupted: &H5File,
) -> Result<(Vec<u8>, SectionRepair)> {
    let index = FileIndex::parse(pristine)?;
    let damaged = corrupted.to_bytes_v2();
    if damaged.len() != pristine.len() {
        return Err(Error::Malformed(
            "corrupted checkpoint has a different structure from the protected one".to_string(),
        ));
    }
    let mut repaired = Vec::with_capacity(pristine.len());
    repaired.extend_from_slice(&pristine[..index.payload_start()]);
    let mut total = SectionRepair::default();
    for (ordinal, e) in index.entries().iter().enumerate() {
        let stored = &damaged[e.offset..e.offset + e.byte_len];
        let (fixed, repair) = sidecar
            .repaired_section_with_report(ordinal, stored)
            .ok_or_else(|| Error::Malformed(format!("ECC sidecar does not cover {:?}", e.path)))?;
        repaired.extend_from_slice(&fixed);
        total.corrected_words += repair.corrected_words;
        total.uncorrectable_words += repair.uncorrectable_words;
        total.parity_faults += repair.parity_faults;
    }
    Ok((repaired, total))
}
