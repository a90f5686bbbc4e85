//! The on-disk binary format, version 2 (sectioned).
//!
//! ```text
//! superblock:  magic "SEFIH5\x89\n" (8) | version u32 LE | index_len u64 LE
//!              | index_crc32 u32 LE                       (24 bytes total)
//! index:       <group>                  (index_crc covers only these bytes)
//! group:       attr_count u32 | attrs… | child_count u32 | children…
//! child:       name str | tag u8 (1 group, 2 dataset) | body
//! dataset:     dtype u8 | rank u32 | dims u64… | [scale f32, I8Q only] |
//!              offset u64 | byte_len u64 | section_crc32 u32
//! payload:     raw dataset bytes, concatenated in index (tree) order
//! ```
//!
//! All integers little-endian; `str` and attribute encodings are shared
//! with v1. Dataset `offset` is relative to the start of the payload area
//! (superblock + index length). Encoding walks the `BTreeMap` tree, so it
//! is deterministic and encode∘decode∘encode is byte-identical.
//!
//! Where v1 keeps one CRC over the whole payload — any flip anywhere makes
//! the entire file unloadable — v2 checksums the index and each dataset
//! *section* independently. That buys three things the storage-sensitivity
//! study needs:
//!
//! * **fault localization**: a flipped payload byte is attributable to one
//!   dataset (and, through the index, to an exact entry and bit);
//! * **partial recovery**: a corrupt section can be quarantined or
//!   zero-filled ([`LoadPolicy`]) instead of failing the load, with the
//!   damage itemized in a [`LoadReport`];
//! * **lazy access**: [`IndexedFile`] reads the 24-byte superblock plus the
//!   index and then materializes single datasets on demand, so one-tensor
//!   access no longer pays a full-tree decode.
//!
//! The superblock magic is shared with v1; the version field dispatches the
//! decoder (see `format::sniff_version`).

use crate::crc::crc32;
use crate::dataset::{Dataset, Dtype};
use crate::error::{Error, Result};
use crate::format::{self, Cursor};
use crate::limits::{MAX_DEPTH, MAX_LEN};
use crate::node::{Group, Node};
use crate::sidecar::{check_binding, EccSidecar};
use crate::H5File;

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

pub(crate) const VERSION_V2: u32 = 2;

/// Byte length of the fixed v2 superblock (magic, version, index length,
/// index CRC).
pub const SUPERBLOCK_LEN: usize = 24;

// ----------------------------------------------------------------- policy

/// How the v2 loader treats a dataset section whose CRC fails.
///
/// The index itself is always verified under every policy: without a
/// trustworthy index there is no way to even attribute damage, so index or
/// superblock corruption is a hard [`Error::Malformed`] regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadPolicy {
    /// Abort the load on the first bad section with
    /// [`Error::SectionCorrupt`] (v1-equivalent all-or-nothing behavior).
    Strict,
    /// Skip the bad dataset: it is absent from the returned file and its
    /// path is recorded in [`LoadReport::quarantined`].
    Quarantine,
    /// Replace the bad dataset with zeros of the indexed shape/dtype; its
    /// path is recorded in [`LoadReport::quarantined`].
    ZeroFill,
    /// Attempt SEC-DED repair through an attached [`EccSidecar`] before
    /// condemning the section: if Hamming(72,64) correction restores the
    /// stored CRC, the dataset loads from the repaired bytes and its path
    /// is recorded in [`LoadReport::corrected`]; otherwise (multi-bit
    /// damage, miscorrection, or no sidecar attached) the section is
    /// quarantined exactly as under [`LoadPolicy::Quarantine`].
    Correct,
}

/// Per-dataset outcome of a policy-driven v2 load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Paths whose sections verified and decoded cleanly, in tree order.
    pub loaded: Vec<String>,
    /// Paths whose sections failed their CRC and were quarantined or
    /// zero-filled (empty under [`LoadPolicy::Strict`] — that policy errors
    /// instead).
    pub quarantined: Vec<String>,
    /// Paths whose sections failed their CRC but were repaired to a
    /// CRC-verified state by ECC under [`LoadPolicy::Correct`]. These
    /// datasets carry their original data, but the stored bytes are
    /// damaged — the file should be rewritten.
    pub corrected: Vec<String>,
}

impl LoadReport {
    /// True when every section verified as stored — nothing quarantined
    /// and nothing that needed ECC repair.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.corrected.is_empty()
    }
}

// --------------------------------------------------------------- encoding

pub(crate) fn encode(file: &H5File) -> Vec<u8> {
    let mut index = Vec::new();
    let mut payload = Vec::new();
    encode_group(file.root(), &mut index, &mut payload);
    let mut out = Vec::with_capacity(SUPERBLOCK_LEN + index.len() + payload.len());
    out.extend_from_slice(format::MAGIC);
    out.extend_from_slice(&VERSION_V2.to_le_bytes());
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out.extend_from_slice(&index);
    out.extend_from_slice(&payload);
    out
}

fn encode_group(g: &Group, index: &mut Vec<u8>, payload: &mut Vec<u8>) {
    format::encode_attrs(g, index);
    let children: Vec<_> = g.children().collect();
    index.extend_from_slice(&(children.len() as u32).to_le_bytes());
    for (name, node) in children {
        format::put_str(index, name);
        match node {
            Node::Group(sub) => {
                index.push(1);
                encode_group(sub, index, payload);
            }
            Node::Dataset(ds) => {
                index.push(2);
                format::encode_shape(ds, index);
                index.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                index.extend_from_slice(&(ds.bytes().len() as u64).to_le_bytes());
                index.extend_from_slice(&crc32(ds.bytes()).to_le_bytes());
                payload.extend_from_slice(ds.bytes());
            }
        }
    }
}

// --------------------------------------------------------------- decoding

/// Read a little-endian `u32` at `at`, as a clean error (never a panic)
/// when the slice is short.
pub(crate) fn read_u32_le(bytes: &[u8], at: usize) -> Result<u32> {
    let raw = at
        .checked_add(4)
        .and_then(|end| bytes.get(at..end))
        .ok_or_else(|| Error::Malformed(format!("file too short: {} bytes", bytes.len())))?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(raw);
    Ok(u32::from_le_bytes(buf))
}

/// Read a little-endian `u64` at `at`; clean error on a short slice.
pub(crate) fn read_u64_le(bytes: &[u8], at: usize) -> Result<u64> {
    let raw = at
        .checked_add(8)
        .and_then(|end| bytes.get(at..end))
        .ok_or_else(|| Error::Malformed(format!("file too short: {} bytes", bytes.len())))?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(raw);
    Ok(u64::from_le_bytes(buf))
}

/// Validate the fixed superblock; returns (end of index = payload start,
/// stored index CRC). All arithmetic is checked: a truncated (< 24 B)
/// header or an absurd `index_len` is a clean [`Error::Malformed`].
fn parse_superblock(bytes: &[u8]) -> Result<(usize, u32)> {
    if bytes.len() < SUPERBLOCK_LEN {
        return Err(Error::Malformed(format!("v2 file too short: {} bytes", bytes.len())));
    }
    if &bytes[..8] != format::MAGIC {
        return Err(Error::Malformed("bad magic — not a SEFI-H5 file".to_string()));
    }
    let version = read_u32_le(bytes, 8)?;
    if version != VERSION_V2 {
        return Err(Error::Malformed(format!("not a v2 file (version {version})")));
    }
    let index_len = read_u64_le(bytes, 12)?;
    if index_len > MAX_LEN {
        return Err(Error::Malformed(format!("index length {index_len} exceeds limit")));
    }
    let index_end =
        usize::try_from(index_len).ok().and_then(|n| SUPERBLOCK_LEN.checked_add(n)).ok_or_else(
            || Error::Malformed(format!("index length {index_len} overflows addressing")),
        )?;
    let stored_crc = read_u32_le(bytes, 20)?;
    Ok((index_end, stored_crc))
}

/// Shared state threaded through the recursive v2 decode: the payload
/// slice, the active policy, the optional ECC sidecar, and the running
/// section cursor (`next` byte offset, `section` ordinal in tree order).
struct DecodeCtx<'a> {
    payload: &'a [u8],
    policy: LoadPolicy,
    verify: bool,
    sidecar: Option<&'a EccSidecar>,
    report: LoadReport,
    next: usize,
    section: usize,
}

/// Decode v2 bytes under a policy.
///
/// `verify == false` models a *trusting* loader that skips the index and
/// section CRC checks (structure and length validation still apply) — the
/// storage experiment uses it to measure how many flips a checksum-free
/// reader would silently accept. With `verify == false` no section is ever
/// quarantined, so the policy is inert.
///
/// `sidecar`, when supplied, must bind to this checkpoint (its stored
/// index CRC must equal the superblock's) and is only consulted under
/// [`LoadPolicy::Correct`].
pub(crate) fn decode(
    bytes: &[u8],
    policy: LoadPolicy,
    verify: bool,
    sidecar: Option<&EccSidecar>,
) -> Result<(H5File, LoadReport)> {
    let (index_end, stored_crc) = parse_superblock(bytes)?;
    if index_end > bytes.len() {
        return Err(Error::Malformed("index extends past end of file".to_string()));
    }
    let index = &bytes[SUPERBLOCK_LEN..index_end];
    if verify {
        let actual = crc32(index);
        if actual != stored_crc {
            return Err(Error::Malformed(format!(
                "index checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            )));
        }
    }
    if let Some(sc) = sidecar {
        if sc.index_crc() != stored_crc {
            return Err(Error::Malformed(format!(
                "ECC sidecar binds to index CRC {:#010x}, checkpoint has {stored_crc:#010x}",
                sc.index_crc()
            )));
        }
    }
    let mut ctx = DecodeCtx {
        payload: &bytes[index_end..],
        policy,
        verify,
        sidecar,
        report: LoadReport::default(),
        next: 0,
        section: 0,
    };
    let mut cur = Cursor::new(index);
    let root = decode_group(&mut cur, 0, "", &mut ctx)?;
    if !cur.done() {
        return Err(Error::Malformed(format!("{} trailing bytes in index", cur.remaining())));
    }
    if ctx.next != ctx.payload.len() {
        return Err(Error::Malformed(format!(
            "{} unindexed trailing payload bytes",
            ctx.payload.len() - ctx.next
        )));
    }
    let mut file = H5File::new();
    *file.root_mut() = root;
    Ok((file, ctx.report))
}

/// Decode one dataset's index record: (dtype, shape, relative offset, byte
/// length, stored section CRC). Enforces that sections are contiguous and
/// in index order — `rel_offset` must equal `next` — so a flipped offset
/// or length field is structural damage, not a silent remap.
fn decode_section_meta(
    cur: &mut Cursor<'_>,
    next: usize,
    payload_len: usize,
    path: &str,
) -> Result<(Dtype, Vec<usize>, f32, usize, u32)> {
    let (dtype, shape, scale) = format::decode_shape(cur)?;
    let rel = cur.u64()?;
    let byte_len = cur.checked_len("dataset section")?;
    let stored_crc = cur.u32()?;
    if rel != next as u64 {
        return Err(Error::Malformed(format!(
            "section at {path:?} has offset {rel}, expected contiguous {next}"
        )));
    }
    if next.checked_add(byte_len).is_none_or(|end| end > payload_len) {
        return Err(Error::Malformed(format!("section at {path:?} extends past payload")));
    }
    Ok((dtype, shape, scale, byte_len, stored_crc))
}

fn decode_group(
    cur: &mut Cursor<'_>,
    depth: u32,
    prefix: &str,
    ctx: &mut DecodeCtx<'_>,
) -> Result<Group> {
    if depth > MAX_DEPTH {
        return Err(Error::Malformed("group nesting exceeds limit".to_string()));
    }
    let mut g = Group::new();
    format::decode_attrs(cur, &mut g)?;
    let child_count = cur.u32()?;
    for _ in 0..child_count {
        let name = cur.name()?;
        let path = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
        match cur.u8()? {
            1 => {
                let sub = decode_group(cur, depth + 1, &path, ctx)?;
                g.insert_node(name, Node::Group(sub))?;
            }
            2 => {
                let (dtype, shape, scale, byte_len, stored_crc) =
                    decode_section_meta(cur, ctx.next, ctx.payload.len(), &path)?;
                let section = &ctx.payload[ctx.next..ctx.next + byte_len];
                let ordinal = ctx.section;
                ctx.next += byte_len;
                ctx.section += 1;
                if ctx.verify && crc32(section) != stored_crc {
                    // Under `Correct` with a bound sidecar, attempt SEC-DED
                    // repair and accept only if the repaired bytes pass the
                    // stored CRC (guards against miscorrected multi-bit
                    // damage).
                    let repaired = match (ctx.policy, ctx.sidecar) {
                        (LoadPolicy::Correct, Some(sc)) => sc
                            .repaired_section(ordinal, section)
                            .filter(|buf| crc32(buf) == stored_crc),
                        _ => None,
                    };
                    if let Some(buf) = repaired {
                        let ds = Dataset::from_raw(dtype, shape, buf)?.with_scale(scale);
                        g.insert_node(name, Node::Dataset(ds))?;
                        ctx.report.corrected.push(path);
                    } else {
                        match ctx.policy {
                            LoadPolicy::Strict => return Err(Error::SectionCorrupt { path }),
                            LoadPolicy::Quarantine | LoadPolicy::Correct => {
                                ctx.report.quarantined.push(path)
                            }
                            LoadPolicy::ZeroFill => {
                                let ds = Dataset::from_raw(dtype, shape, vec![0u8; byte_len])?
                                    .with_scale(scale);
                                g.insert_node(name, Node::Dataset(ds))?;
                                ctx.report.quarantined.push(path);
                            }
                        }
                    }
                } else {
                    let ds = Dataset::from_raw(dtype, shape, section.to_vec())?.with_scale(scale);
                    g.insert_node(name, Node::Dataset(ds))?;
                    ctx.report.loaded.push(path);
                }
            }
            other => return Err(Error::Malformed(format!("unknown node tag {other}"))),
        }
    }
    Ok(g)
}

// ------------------------------------------------------------- file index

/// One dataset's entry in a parsed v2 index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Absolute dataset path (`model_weights/conv1/W`).
    pub path: String,
    /// Element type.
    pub dtype: Dtype,
    /// Dataset shape (empty for scalars).
    pub shape: Vec<usize>,
    /// Per-tensor dequantization scale (`1.0` unless the dtype is I8Q).
    /// `f32` is not `Eq`; the stored bit pattern keeps the entry hashable
    /// and comparable — recover the value with `f32::from_bits`.
    pub scale_bits: u32,
    /// Absolute byte offset of the section within the file.
    pub offset: usize,
    /// Section length in bytes (`elem_count * dtype.size()`).
    pub byte_len: usize,
    /// Stored CRC-32 of the section bytes.
    pub crc: u32,
}

/// The parsed index of a v2 file: where every dataset's bytes live.
///
/// This is the map a raw byte-level injector needs to attribute a flipped
/// file offset to a (dataset, entry, bit) — or to recognize it as an
/// out-of-band superblock/index hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileIndex {
    entries: Vec<IndexEntry>,
    payload_start: usize,
    file_len: usize,
    index_crc: u32,
}

impl FileIndex {
    /// Parse the index out of complete v2 file bytes. The index CRC is
    /// always verified — an untrustworthy index cannot attribute anything.
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        Self::parse_prefix(bytes, bytes.len())
    }

    /// Parse from a prefix that holds at least the superblock and index
    /// (what [`IndexedFile`] reads), with the total file length supplied
    /// separately for payload bounds validation.
    pub fn parse_prefix(prefix: &[u8], file_len: usize) -> Result<Self> {
        Self::parse_inner(prefix, file_len, false)
    }

    /// Forensic parse of possibly-truncated file bytes: the superblock and
    /// index must still be intact and CRC-verified (without a trustworthy
    /// index nothing can be attributed or salvaged), but the payload may be
    /// cut short — entries are allowed to extend past the available bytes.
    /// Compare [`FileIndex::expected_len`] against [`FileIndex::file_len`]
    /// to see how much payload is missing.
    pub fn parse_lenient(bytes: &[u8]) -> Result<Self> {
        Self::parse_inner(bytes, bytes.len(), true)
    }

    fn parse_inner(prefix: &[u8], file_len: usize, lenient: bool) -> Result<Self> {
        let (index_end, stored_crc) = parse_superblock(prefix)?;
        if index_end > prefix.len() || index_end > file_len {
            return Err(Error::Malformed("index extends past end of file".to_string()));
        }
        let index = &prefix[SUPERBLOCK_LEN..index_end];
        let actual = crc32(index);
        if actual != stored_crc {
            return Err(Error::Malformed(format!(
                "index checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            )));
        }
        let payload_len = file_len - index_end;
        // A lenient walk bounds sections only by the format-wide section
        // limit, not the bytes actually present.
        let walk_len = if lenient { usize::MAX } else { payload_len };
        let mut cur = Cursor::new(index);
        let mut entries = Vec::new();
        let mut next = 0usize;
        walk_group(&mut cur, 0, "", walk_len, index_end, &mut entries, &mut next)?;
        if !cur.done() {
            return Err(Error::Malformed(format!("{} trailing bytes in index", cur.remaining())));
        }
        if !lenient && next != payload_len {
            return Err(Error::Malformed(format!(
                "{} unindexed trailing payload bytes",
                payload_len - next
            )));
        }
        Ok(FileIndex { entries, payload_start: index_end, file_len, index_crc: stored_crc })
    }

    /// Dataset entries in tree (ascending-offset) order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Absolute offset where the payload area begins (= superblock + index
    /// length). Bytes in `[SUPERBLOCK_LEN, payload_start)` are index bytes.
    pub fn payload_start(&self) -> usize {
        self.payload_start
    }

    /// Total file length the index was validated against. Under
    /// [`FileIndex::parse_lenient`] this is the *available* length, which
    /// may be less than [`FileIndex::expected_len`].
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// The file length the index promises: payload start plus the sum of
    /// all section lengths (sections are contiguous, so this is the end of
    /// the last entry). Equals [`FileIndex::file_len`] for a strict parse.
    pub fn expected_len(&self) -> usize {
        self.entries.last().map_or(self.payload_start, |e| e.offset + e.byte_len)
    }

    /// Stored CRC-32 of the index bytes — the identity an [`EccSidecar`]
    /// binds to.
    pub fn index_crc(&self) -> u32 {
        self.index_crc
    }

    /// Entry for a dataset path.
    pub fn entry(&self, path: &str) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// The dataset section containing an absolute file offset, if any.
    /// Offsets in the superblock or index — and offsets coinciding with
    /// zero-length sections — return `None`.
    ///
    /// Binary search: sections are contiguous and sorted by offset, so
    /// their end offsets are monotone — the first entry ending after
    /// `offset` is the only candidate that can contain it.
    pub fn locate(&self, offset: usize) -> Option<&IndexEntry> {
        let i = self.entries.partition_point(|e| e.offset + e.byte_len <= offset);
        self.entries.get(i).filter(|e| e.offset <= offset && offset < e.offset + e.byte_len)
    }
}

fn walk_group(
    cur: &mut Cursor<'_>,
    depth: u32,
    prefix: &str,
    payload_len: usize,
    payload_start: usize,
    entries: &mut Vec<IndexEntry>,
    next: &mut usize,
) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(Error::Malformed("group nesting exceeds limit".to_string()));
    }
    let mut scratch = Group::new();
    format::decode_attrs(cur, &mut scratch)?;
    let child_count = cur.u32()?;
    for _ in 0..child_count {
        let name = cur.name()?;
        let path = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
        match cur.u8()? {
            1 => walk_group(cur, depth + 1, &path, payload_len, payload_start, entries, next)?,
            2 => {
                let (dtype, shape, scale, byte_len, crc) =
                    decode_section_meta(cur, *next, payload_len, &path)?;
                entries.push(IndexEntry {
                    path,
                    dtype,
                    shape,
                    scale_bits: scale.to_bits(),
                    offset: payload_start + *next,
                    byte_len,
                    crc,
                });
                *next += byte_len;
            }
            other => return Err(Error::Malformed(format!("unknown node tag {other}"))),
        }
    }
    Ok(())
}

// ------------------------------------------------------------- lazy loads

/// A v2 file opened lazily: the superblock and index are read and verified
/// at open; dataset sections are read, CRC-checked, and decoded on demand.
///
/// This is the fast path for per-trial access — touching one tensor costs
/// one seek and one section read instead of a full-tree decode.
#[derive(Debug)]
pub struct IndexedFile {
    file: std::fs::File,
    display_path: String,
    index: FileIndex,
    sidecar: Option<EccSidecar>,
}

/// How a lazily-read dataset section came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionStatus {
    /// The stored bytes matched their CRC.
    Clean,
    /// The CRC failed but the attached ECC sidecar repaired the section to
    /// a CRC-verified state.
    Corrected {
        /// Number of 64-bit code words the sidecar repaired.
        words: usize,
    },
}

/// How [`IndexedFile::dataset_correct_or_zero`] recovered a section — the
/// never-fails-on-payload-damage read used by hot quarantine-reload: ECC
/// repair first, zero substitution as the last resort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionRecovery {
    /// The stored bytes matched their CRC.
    Clean,
    /// ECC repaired the section to a CRC-verified state.
    Corrected {
        /// Number of 64-bit code words the sidecar repaired.
        words: usize,
    },
    /// Damage beyond repair: the dataset was substituted with zeros of the
    /// indexed dtype and shape (the index itself is CRC-verified at open,
    /// so the substitute's geometry is trustworthy).
    ZeroFilled,
}

impl IndexedFile {
    /// Open a v2 file and parse its index without reading any payload.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let display_path = path.as_ref().display().to_string();
        let io_err = |e: std::io::Error| Error::Io(display_path.clone(), e.to_string());
        let mut file = std::fs::File::open(path.as_ref()).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        if file_len < SUPERBLOCK_LEN as u64 {
            return Err(Error::Malformed(format!("v2 file too short: {file_len} bytes")));
        }
        let mut superblock = [0u8; SUPERBLOCK_LEN];
        file.read_exact(&mut superblock).map_err(io_err)?;
        let (index_end, _) = parse_superblock(&superblock)?;
        if index_end as u64 > file_len {
            return Err(Error::Malformed("index extends past end of file".to_string()));
        }
        let mut prefix = superblock.to_vec();
        prefix.resize(index_end, 0);
        file.read_exact(&mut prefix[SUPERBLOCK_LEN..]).map_err(io_err)?;
        let index = FileIndex::parse_prefix(&prefix, file_len as usize)?;
        Ok(IndexedFile { file, display_path, index, sidecar: None })
    }

    /// Attach an ECC parity sidecar so lazy reads run in `Correct` mode:
    /// a section whose CRC fails is SEC-DED-repaired before being given
    /// up on. The sidecar must pass [`check_binding`] against this
    /// checkpoint's index.
    pub fn attach_sidecar(&mut self, sidecar: EccSidecar) -> Result<()> {
        check_binding(&sidecar, &self.index)?;
        self.sidecar = Some(sidecar);
        Ok(())
    }

    /// The parsed index.
    pub fn index(&self) -> &FileIndex {
        &self.index
    }

    /// Dataset paths in tree order, without touching the payload.
    pub fn dataset_paths(&self) -> Vec<String> {
        self.index.entries().iter().map(|e| e.path.clone()).collect()
    }

    /// Read, verify, and decode a single dataset section.
    pub fn dataset(&mut self, path: &str) -> Result<Dataset> {
        self.dataset_with_status(path).map(|(ds, _)| ds)
    }

    /// Like [`IndexedFile::dataset`], also reporting whether the section
    /// was clean as stored or needed ECC repair through an attached
    /// sidecar. Without a sidecar, a failed CRC is
    /// [`Error::SectionCorrupt`] as before.
    pub fn dataset_with_status(&mut self, path: &str) -> Result<(Dataset, SectionStatus)> {
        let ordinal = self
            .index
            .entries()
            .iter()
            .position(|e| e.path == path)
            .ok_or_else(|| Error::NotFound(path.to_string()))?;
        let entry = self.index.entries()[ordinal].clone();
        let io_err = |e: std::io::Error| Error::Io(self.display_path.clone(), e.to_string());
        self.file.seek(SeekFrom::Start(entry.offset as u64)).map_err(io_err)?;
        let mut buf = vec![0u8; entry.byte_len];
        self.file.read_exact(&mut buf).map_err(io_err)?;
        let scale = f32::from_bits(entry.scale_bits);
        if crc32(&buf) == entry.crc {
            let ds = Dataset::from_raw(entry.dtype, entry.shape, buf)?.with_scale(scale);
            return Ok((ds, SectionStatus::Clean));
        }
        if let Some(sc) = &self.sidecar {
            if let Some((fixed, repair)) = sc.repaired_section_with_report(ordinal, &buf) {
                if crc32(&fixed) == entry.crc {
                    let ds = Dataset::from_raw(entry.dtype, entry.shape, fixed)?.with_scale(scale);
                    return Ok((ds, SectionStatus::Corrected { words: repair.corrected_words }));
                }
            }
        }
        Err(Error::SectionCorrupt { path: path.to_string() })
    }

    /// Read a dataset section for hot reload: a clean or ECC-repairable
    /// section decodes exactly ([`IndexedFile::dataset_with_status`]);
    /// damage beyond repair substitutes zeros of the indexed dtype and
    /// shape instead of failing. Only lookup and I/O problems remain
    /// errors — a serving failover path must always get *a* tensor back.
    pub fn dataset_correct_or_zero(&mut self, path: &str) -> Result<(Dataset, SectionRecovery)> {
        match self.dataset_with_status(path) {
            Ok((ds, SectionStatus::Clean)) => Ok((ds, SectionRecovery::Clean)),
            Ok((ds, SectionStatus::Corrected { words })) => {
                Ok((ds, SectionRecovery::Corrected { words }))
            }
            Err(Error::SectionCorrupt { .. }) => {
                let entry = self
                    .index
                    .entries()
                    .iter()
                    .find(|e| e.path == path)
                    .expect("SectionCorrupt implies the entry exists")
                    .clone();
                let ds = Dataset::from_raw(entry.dtype, entry.shape, vec![0u8; entry.byte_len])?
                    .with_scale(f32::from_bits(entry.scale_bits));
                Ok((ds, SectionRecovery::ZeroFilled))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Attr;
    use crate::testutil::TestDir;

    fn sample() -> H5File {
        let mut f = H5File::new();
        f.root_mut().set_attr("framework", Attr::Str("chainer".into()));
        f.create_dataset(
            "model_weights/conv1/W",
            Dataset::from_f32(&[1.0, -2.0, 3.5, 0.25], &[2, 2], Dtype::F32).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            "model_weights/conv1/b",
            Dataset::from_f32(&[0.5, -0.5], &[2], Dtype::F64).unwrap(),
        )
        .unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(20)).unwrap();
        f.create_group("empty_group").unwrap().set_attr("note", Attr::Int(7));
        f
    }

    /// Absolute offset of the first byte of a dataset's payload section.
    fn section_offset(bytes: &[u8], path: &str) -> (usize, usize) {
        let idx = FileIndex::parse(bytes).unwrap();
        let e = idx.entry(path).unwrap();
        (e.offset, e.byte_len)
    }

    #[test]
    fn v2_roundtrip_is_byte_deterministic() {
        let f = sample();
        let bytes = encode(&f);
        let (g, report) = decode(&bytes, LoadPolicy::Strict, true, None).unwrap();
        assert_eq!(f, g, "attrs, empty groups, and datasets all survive");
        assert_eq!(bytes, encode(&g), "encode∘decode∘encode is byte-identical");
        assert!(report.is_clean());
        assert_eq!(report.loaded.len(), 3);
    }

    #[test]
    fn v2_dispatches_through_from_bytes() {
        let f = sample();
        let v2 = f.to_bytes_v2();
        assert_eq!(H5File::from_bytes(&v2).unwrap(), f);
        // v1 files still load unchanged through the same entry point.
        let v1 = f.to_bytes();
        assert_ne!(v1, v2);
        assert_eq!(H5File::from_bytes(&v1).unwrap(), f);
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = H5File::new();
        let bytes = encode(&f);
        let (g, report) = decode(&bytes, LoadPolicy::Strict, true, None).unwrap();
        assert_eq!(f, g);
        assert!(report.loaded.is_empty());
    }

    #[test]
    fn payload_flip_strict_errors_with_the_dataset_path() {
        let f = sample();
        let mut bytes = encode(&f);
        let (off, _) = section_offset(&bytes, "model_weights/conv1/W");
        bytes[off] ^= 0x01;
        let err = decode(&bytes, LoadPolicy::Strict, true, None).unwrap_err();
        assert_eq!(err, Error::SectionCorrupt { path: "model_weights/conv1/W".into() });
    }

    #[test]
    fn payload_flip_quarantines_exactly_one_dataset() {
        let f = sample();
        let mut bytes = encode(&f);
        let (off, _) = section_offset(&bytes, "model_weights/conv1/W");
        bytes[off] ^= 0x80;
        let (g, report) = decode(&bytes, LoadPolicy::Quarantine, true, None).unwrap();
        assert_eq!(report.quarantined, vec!["model_weights/conv1/W".to_string()]);
        assert_eq!(report.loaded.len(), 2, "the other two datasets load");
        assert!(g.dataset("model_weights/conv1/W").is_err(), "bad dataset absent");
        assert_eq!(g.dataset("meta/epoch").unwrap(), f.dataset("meta/epoch").unwrap());
        assert_eq!(
            g.dataset("model_weights/conv1/b").unwrap(),
            f.dataset("model_weights/conv1/b").unwrap()
        );
    }

    #[test]
    fn payload_flip_zerofill_substitutes_zeros() {
        let f = sample();
        let mut bytes = encode(&f);
        let (off, len) = section_offset(&bytes, "model_weights/conv1/W");
        bytes[off + len - 1] ^= 0x40;
        let (g, report) = decode(&bytes, LoadPolicy::ZeroFill, true, None).unwrap();
        assert_eq!(report.quarantined, vec!["model_weights/conv1/W".to_string()]);
        let ds = g.dataset("model_weights/conv1/W").unwrap();
        assert_eq!(ds.shape(), &[2, 2]);
        assert_eq!(ds.dtype(), Dtype::F32);
        assert!(ds.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn index_flip_is_malformed_under_every_policy() {
        let f = sample();
        let mut bytes = encode(&f);
        bytes[SUPERBLOCK_LEN] ^= 0x01; // first index byte
        for policy in [LoadPolicy::Strict, LoadPolicy::Quarantine, LoadPolicy::ZeroFill] {
            assert!(matches!(
                decode(&bytes, policy, true, None),
                Err(Error::Malformed(m)) if m.contains("index checksum")
            ));
        }
    }

    #[test]
    fn superblock_damage_is_malformed() {
        let f = sample();
        let good = encode(&f);
        for (byte, what) in [(0usize, "magic"), (8, "version"), (12, "index length")] {
            let mut b = good.clone();
            b[byte] ^= 0xFF;
            assert!(decode(&b, LoadPolicy::Quarantine, true, None).is_err(), "flip in {what}");
        }
    }

    #[test]
    fn truncation_always_detected() {
        let b = encode(&sample());
        for cut in [0, 8, 23, 24, SUPERBLOCK_LEN + 3, b.len() / 2, b.len() - 1] {
            assert!(decode(&b[..cut], LoadPolicy::Quarantine, true, None).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut b = encode(&sample());
        b.push(0xAB);
        assert!(matches!(
            decode(&b, LoadPolicy::Strict, true, None),
            Err(Error::Malformed(m)) if m.contains("trailing payload")
        ));
    }

    #[test]
    fn unverified_decode_accepts_payload_flips() {
        let f = sample();
        let mut bytes = encode(&f);
        let (off, _) = section_offset(&bytes, "model_weights/conv1/W");
        bytes[off] ^= 0x01;
        // The trusting loader returns a silently different file.
        let (g, _) = decode(&bytes, LoadPolicy::Strict, false, None).unwrap();
        assert_ne!(f, g);
        // But structural damage still fails even without CRC checks.
        let mut trunc = encode(&f);
        trunc.truncate(trunc.len() - 1);
        assert!(decode(&trunc, LoadPolicy::Strict, false, None).is_err());
    }

    #[test]
    fn index_entries_are_contiguous_and_locatable() {
        let f = sample();
        let bytes = encode(&f);
        let idx = FileIndex::parse(&bytes).unwrap();
        assert_eq!(idx.file_len(), bytes.len());
        let mut expected = idx.payload_start();
        for e in idx.entries() {
            assert_eq!(e.offset, expected, "{}", e.path);
            expected += e.byte_len;
        }
        assert_eq!(expected, bytes.len(), "payload fully covered");
        // Every payload byte maps back to its dataset; header bytes to none.
        for e in idx.entries() {
            assert_eq!(idx.locate(e.offset).unwrap().path, e.path);
            assert_eq!(idx.locate(e.offset + e.byte_len - 1).unwrap().path, e.path);
        }
        assert!(idx.locate(0).is_none(), "superblock is out-of-band");
        assert!(idx.locate(SUPERBLOCK_LEN).is_none(), "index is out-of-band");
    }

    #[test]
    fn indexed_open_reads_single_datasets_lazily() {
        let dir = TestDir::new("hdf5_v2_lazy");
        let f = sample();
        let p = dir.file("ckpt.sefi5");
        f.save_v2(&p).unwrap();
        let mut ix = H5File::open_indexed(&p).unwrap();
        assert_eq!(
            ix.dataset_paths(),
            vec!["meta/epoch", "model_weights/conv1/W", "model_weights/conv1/b"]
        );
        let w = ix.dataset("model_weights/conv1/W").unwrap();
        assert_eq!(&w, f.dataset("model_weights/conv1/W").unwrap());
        assert!(matches!(ix.dataset("nope"), Err(Error::NotFound(_))));
    }

    #[test]
    fn indexed_open_detects_section_corruption_on_access() {
        let dir = TestDir::new("hdf5_v2_lazy_bad");
        let f = sample();
        let mut bytes = encode(&f);
        let (off, _) = section_offset(&bytes, "meta/epoch");
        bytes[off] ^= 0x10;
        let p = dir.file("bad.sefi5");
        std::fs::write(&p, &bytes).unwrap();
        let mut ix = H5File::open_indexed(&p).unwrap();
        // The intact dataset still reads fine; the damaged one is caught.
        assert!(ix.dataset("model_weights/conv1/W").is_ok());
        assert_eq!(
            ix.dataset("meta/epoch").unwrap_err(),
            Error::SectionCorrupt { path: "meta/epoch".into() }
        );
    }

    #[test]
    fn correct_or_zero_escalates_clean_corrected_zerofilled() {
        let dir = TestDir::new("hdf5_v2_lazy_cz");
        let f = sample();
        let bytes = encode(&f);
        let sidecar = crate::EccSidecar::protect(&bytes).unwrap();

        // Single flipped bit: ECC repairs the section exactly.
        let mut one = bytes.clone();
        let (off, _) = section_offset(&one, "model_weights/conv1/W");
        one[off] ^= 0x10;
        let p1 = dir.file("one.sefi5");
        std::fs::write(&p1, &one).unwrap();
        let mut ix = H5File::open_indexed(&p1).unwrap();
        ix.attach_sidecar(sidecar.clone()).unwrap();
        let (w, rec) = ix.dataset_correct_or_zero("model_weights/conv1/W").unwrap();
        assert_eq!(rec, SectionRecovery::Corrected { words: 1 });
        assert_eq!(&w, f.dataset("model_weights/conv1/W").unwrap());
        let (b, rec) = ix.dataset_correct_or_zero("model_weights/conv1/b").unwrap();
        assert_eq!(rec, SectionRecovery::Clean);
        assert_eq!(&b, f.dataset("model_weights/conv1/b").unwrap());

        // Two flips in one 64-bit word defeat SEC-DED: zeros of the
        // indexed shape come back instead of an error.
        let mut two = bytes.clone();
        two[off] ^= 0x03;
        let p2 = dir.file("two.sefi5");
        std::fs::write(&p2, &two).unwrap();
        let mut ix = H5File::open_indexed(&p2).unwrap();
        ix.attach_sidecar(sidecar).unwrap();
        let (z, rec) = ix.dataset_correct_or_zero("model_weights/conv1/W").unwrap();
        assert_eq!(rec, SectionRecovery::ZeroFilled);
        assert_eq!(z.shape(), f.dataset("model_weights/conv1/W").unwrap().shape());
        assert!(z.to_f32_vec().iter().all(|&v| v == 0.0));

        // Lookup problems still error.
        assert!(matches!(ix.dataset_correct_or_zero("nope"), Err(Error::NotFound(_))));

        // Without a sidecar, any damage goes straight to zeros.
        let mut ix = H5File::open_indexed(&p1).unwrap();
        let (_, rec) = ix.dataset_correct_or_zero("model_weights/conv1/W").unwrap();
        assert_eq!(rec, SectionRecovery::ZeroFilled);
    }

    #[test]
    fn attach_sidecar_rejects_skewed_word_counts() {
        // Right index CRC and section count, but one parity byte moved from
        // section 0 to section 1: no section's words line up with its data,
        // so the sidecar could never repair anything.
        let dir = TestDir::new("hdf5_v2_lazy_skew");
        let bytes = encode(&sample());
        let p = dir.file("ckpt.sefi5");
        std::fs::write(&p, &bytes).unwrap();
        let sidecar = crate::EccSidecar::protect(&bytes).unwrap();
        let mut sections: Vec<Vec<u8>> = (0..sidecar.section_count())
            .map(|i| sidecar.section_parities(i).unwrap().to_vec())
            .collect();
        let moved = sections[0].pop().unwrap();
        sections[1].push(moved);
        let mut ser = sidecar.to_bytes()[..crate::sidecar::SIDECAR_HEADER_LEN].to_vec();
        for s in &sections {
            ser.extend_from_slice(&(s.len() as u64).to_le_bytes());
            ser.extend_from_slice(s);
        }
        let skewed = crate::EccSidecar::from_bytes(&ser).unwrap();
        assert_eq!(skewed.index_crc(), sidecar.index_crc());
        assert_eq!(skewed.section_count(), sidecar.section_count());

        let mut ix = H5File::open_indexed(&p).unwrap();
        assert!(matches!(
            ix.attach_sidecar(skewed),
            Err(Error::Malformed(m)) if m.contains("section 0 has 0 words")
        ));
    }

    #[test]
    fn indexed_open_rejects_v1_files() {
        let dir = TestDir::new("hdf5_v2_lazy_v1");
        let p = dir.file("v1.sefi5");
        sample().save(&p).unwrap();
        assert!(matches!(
            H5File::open_indexed(&p),
            Err(Error::Malformed(m)) if m.contains("version")
        ));
    }

    #[test]
    fn from_bytes_with_policy_covers_v1_files_too() {
        let f = sample();
        let (g, report) =
            H5File::from_bytes_with_policy(&f.to_bytes(), LoadPolicy::Quarantine).unwrap();
        assert_eq!(f, g);
        assert_eq!(report.loaded.len(), 3);
        assert!(report.is_clean());
    }
}
