//! A from-scratch hierarchical checkpoint container, HDF5-style.
//!
//! The paper's injector operates on HDF5 checkpoint files: "an HDF5 file has
//! a collection of groups (i.e., folders), which are sets of objects (i.e.,
//! files) or other groups […] objects are common data types, such as
//! strings, integers, floats, arrays, datasets" (Section IV-A). Rust's HDF5
//! bindings are immature (and bind C libraries we cannot vendor), so this
//! crate rebuilds the *contract* the study depends on:
//!
//! * a tree of named **groups** containing **datasets** (typed n-dimensional
//!   arrays) and scalar **attributes**;
//! * absolute **path addressing** (`model_weights/block1_conv1/kernel`);
//! * datasets stored at a declared element precision (f16/f32/f64, plus
//!   integer types), mutable **in place** at the bit level;
//! * a binary on-disk format with a superblock, a checksummed payload, and
//!   hard failure (never panic, never silent corruption) on malformed input;
//! * tree walking and **entry counting** ("in dataset objects, the product
//!   of their dimensions represents how many entries that object has"),
//!   which the injector's `percentage` mode requires.
//!
//! Nothing in the fault-injection study depends on HDF5's B-tree/chunking
//! internals, so those are intentionally out of scope (see DESIGN.md §1).

#![deny(missing_docs)]

pub mod crc;
mod dataset;
mod error;
pub mod flat;
pub mod forensics;
mod format;
mod format_v2;
pub mod hamming;
pub mod limits;
mod node;
mod path;
pub mod sidecar;
#[cfg(test)]
mod testutil;

pub use dataset::{Dataset, Dtype};
pub use error::{Error, Result};
pub use format_v2::{
    FileIndex, IndexEntry, IndexedFile, LoadPolicy, LoadReport, SectionRecovery, SectionStatus,
    SUPERBLOCK_LEN,
};
pub use node::{Attr, Group, Node};
pub use path::{join_path, split_path, validate_path};
pub use sidecar::EccSidecar;

use std::fs;
use std::path::Path;

/// An in-memory hierarchical checkpoint file.
///
/// The root is an anonymous group; every object is addressed by a
/// `/`-separated absolute path (no leading slash).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct H5File {
    root: Group,
}

impl H5File {
    /// An empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// The root group.
    pub fn root(&self) -> &Group {
        &self.root
    }

    /// Mutable root group.
    pub fn root_mut(&mut self) -> &mut Group {
        &mut self.root
    }

    /// Create (or return existing) nested groups along `path`.
    pub fn create_group(&mut self, path: &str) -> Result<&mut Group> {
        validate_path(path)?;
        self.root.create_group_path(&split_path(path))
    }

    /// Insert a dataset at `path`, creating intermediate groups. Fails if an
    /// object already exists at that path.
    pub fn create_dataset(&mut self, path: &str, ds: Dataset) -> Result<()> {
        validate_path(path)?;
        let parts = split_path(path);
        let (name, dirs) = parts.split_last().expect("validated path is non-empty");
        let group = self.root.create_group_path(dirs)?;
        group.insert_dataset(name, ds)
    }

    /// Look up a node by absolute path.
    pub fn get(&self, path: &str) -> Option<&Node> {
        if path.is_empty() {
            return None;
        }
        self.root.get_path(path.split('/'))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Node> {
        if path.is_empty() {
            return None;
        }
        self.root.get_path_mut(path.split('/'))
    }

    /// Look up a dataset by path.
    pub fn dataset(&self, path: &str) -> Result<&Dataset> {
        match self.get(path) {
            Some(Node::Dataset(ds)) => Ok(ds),
            Some(Node::Group(_)) => Err(Error::NotADataset(path.to_string())),
            None => Err(Error::NotFound(path.to_string())),
        }
    }

    /// Mutable dataset lookup — the corrupter's entry point.
    pub fn dataset_mut(&mut self, path: &str) -> Result<&mut Dataset> {
        match self.get_mut(path) {
            Some(Node::Dataset(ds)) => Ok(ds),
            Some(Node::Group(_)) => Err(Error::NotADataset(path.to_string())),
            None => Err(Error::NotFound(path.to_string())),
        }
    }

    /// Lend every dataset mutably to `f` with its absolute path, in
    /// [`H5File::dataset_paths`] order — one walk of the tree. The path is
    /// built in one reused buffer and valid only for the call; the dataset
    /// borrows last as long as the file's, so `f` may keep them all.
    pub fn datasets_mut<'a>(&'a mut self, mut f: impl FnMut(&str, &'a mut Dataset)) {
        self.root.lend_datasets_mut(&mut String::new(), &mut f);
    }

    /// Absolute paths of every dataset, in deterministic (sorted) order.
    pub fn dataset_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.root.collect_dataset_paths("", &mut out);
        out
    }

    /// Absolute paths of all objects (groups and datasets), sorted order.
    pub fn object_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.root.collect_object_paths("", &mut out);
        out
    }

    /// Dataset paths under a location prefix: the location itself if it is a
    /// dataset, or "all sublocations inside a location" (Table I,
    /// `locations_to_corrupt`) if it is a group.
    pub fn datasets_under(&self, location: &str) -> Result<Vec<String>> {
        match self.get(location) {
            Some(Node::Dataset(_)) => Ok(vec![location.to_string()]),
            Some(Node::Group(g)) => {
                let mut out = Vec::new();
                g.collect_dataset_paths(location, &mut out);
                Ok(out)
            }
            None => Err(Error::NotFound(location.to_string())),
        }
    }

    /// Total number of corruptible numeric entries in the file (the
    /// injector's `percentage` accounting).
    pub fn total_entries(&self) -> u64 {
        self.dataset_paths()
            .iter()
            .map(|p| self.dataset(p).map(|d| d.len() as u64).unwrap_or(0))
            .sum()
    }

    /// Serialize to the on-disk binary format, version 1 (monolithic: one
    /// CRC over the whole payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode(self)
    }

    /// Serialize to the sectioned v2 format (superblock + dataset index +
    /// per-section CRCs; see `format_v2` module docs).
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        format_v2::encode(self)
    }

    /// Deserialize from the on-disk binary format. The version field in the
    /// superblock selects the decoder, so v1 and v2 files both load here.
    /// v2 files are decoded strictly (any section CRC failure is an error);
    /// use [`H5File::from_bytes_with_policy`] for partial recovery.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        match format::sniff_version(bytes) {
            Some(format_v2::VERSION_V2) => {
                format_v2::decode(bytes, LoadPolicy::Strict, true, None).map(|(f, _)| f)
            }
            _ => format::decode(bytes),
        }
    }

    /// Deserialize with an explicit [`LoadPolicy`] for corrupt dataset
    /// sections, reporting per-dataset outcomes. v1 files have a single
    /// whole-payload CRC, so for them every policy behaves like
    /// [`LoadPolicy::Strict`] and a successful load reports all datasets as
    /// loaded. Without a sidecar, [`LoadPolicy::Correct`] degrades to
    /// [`LoadPolicy::Quarantine`]; use [`H5File::from_bytes_with_ecc`] to
    /// supply one.
    pub fn from_bytes_with_policy(bytes: &[u8], policy: LoadPolicy) -> Result<(Self, LoadReport)> {
        match format::sniff_version(bytes) {
            Some(format_v2::VERSION_V2) => format_v2::decode(bytes, policy, true, None),
            _ => format::decode(bytes).map(|f| {
                let loaded = f.dataset_paths();
                (f, LoadReport { loaded, quarantined: Vec::new(), corrected: Vec::new() })
            }),
        }
    }

    /// Deserialize a v2 file with an ECC parity sidecar available for
    /// repair. The sidecar must bind to this checkpoint (matching index
    /// CRC) and is consulted only under [`LoadPolicy::Correct`]: sections
    /// whose CRC fails are SEC-DED-repaired and accepted when the repaired
    /// bytes re-verify, reported in [`LoadReport::corrected`]. v1 files are
    /// rejected — there is no sectioned layout to bind parities to.
    pub fn from_bytes_with_ecc(
        bytes: &[u8],
        policy: LoadPolicy,
        sidecar: &EccSidecar,
    ) -> Result<(Self, LoadReport)> {
        match format::sniff_version(bytes) {
            Some(format_v2::VERSION_V2) => format_v2::decode(bytes, policy, true, Some(sidecar)),
            _ => Err(Error::Malformed(
                "ECC sidecars protect the sectioned v2 format only".to_string(),
            )),
        }
    }

    /// Deserialize a v2 file *without* verifying the index or section CRCs
    /// — the trusting loader a checksum-free format would have. Structural
    /// validation (lengths, bounds, shapes) still applies. The storage
    /// experiment uses this to measure how much corruption such a reader
    /// silently accepts; v1 files fall back to the normal checked decoder.
    pub fn from_bytes_unverified(bytes: &[u8]) -> Result<Self> {
        match format::sniff_version(bytes) {
            Some(format_v2::VERSION_V2) => {
                format_v2::decode(bytes, LoadPolicy::Strict, false, None).map(|(f, _)| f)
            }
            _ => format::decode(bytes),
        }
    }

    /// Write to a file (v1 format).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| Error::Io(path.as_ref().display().to_string(), e.to_string()))
    }

    /// Write to a file in the sectioned v2 format.
    pub fn save_v2(&self, path: impl AsRef<Path>) -> Result<()> {
        fs::write(path.as_ref(), self.to_bytes_v2())
            .map_err(|e| Error::Io(path.as_ref().display().to_string(), e.to_string()))
    }

    /// Read from a file (v1 or v2, dispatched by the version field).
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = fs::read(path.as_ref())
            .map_err(|e| Error::Io(path.as_ref().display().to_string(), e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Open a v2 file lazily: parse the index now, read dataset sections on
    /// demand through the returned [`IndexedFile`].
    pub fn open_indexed(path: impl AsRef<Path>) -> Result<IndexedFile> {
        IndexedFile::open(path)
    }
}

/// Resolves many dataset paths in one file, keeping the groups the previous
/// path went through: a path that shares leading groups with the one before
/// it searches only its new segments. A walk that visits sibling datasets
/// together — a checkpoint restore — pays about one child search per
/// dataset instead of one per segment. Results and errors are
/// [`H5File::dataset`]'s.
pub struct DatasetLookup<'f> {
    root: &'f Group,
    /// The previous path.
    path: String,
    /// The groups the previous path descended through, each with the
    /// length of the path prefix naming it, trailing `/` included.
    groups: Vec<(usize, &'f Group)>,
}

impl<'f> DatasetLookup<'f> {
    /// A lookup over `file` with nothing cached.
    pub fn new(file: &'f H5File) -> Self {
        DatasetLookup { root: &file.root, path: String::new(), groups: Vec::new() }
    }

    /// The dataset at `path`, as [`H5File::dataset`] finds it.
    pub fn dataset(&mut self, path: &str) -> Result<&'f Dataset> {
        let not_found = || Err(Error::NotFound(path.to_string()));
        if path.is_empty() {
            return not_found();
        }
        while let Some(&(start, _)) = self.groups.last() {
            if path.as_bytes().get(..start) == Some(&self.path.as_bytes()[..start]) {
                break;
            }
            self.groups.pop();
        }
        self.path.clear();
        self.path.push_str(path);
        let (mut start, mut group) = self.groups.last().copied().unwrap_or((0, self.root));
        let mut segments = path[start..].split('/');
        let mut segment = segments.next().expect("split yields a first segment");
        loop {
            let Some(node) = group.child(segment) else { return not_found() };
            start += segment.len() + 1;
            match (node, segments.next()) {
                (Node::Dataset(ds), None) => return Ok(ds),
                (Node::Group(_), None) => return Err(Error::NotADataset(path.to_string())),
                (Node::Group(g), Some(next)) => {
                    self.groups.push((start, g));
                    (group, segment) = (g, next);
                }
                (Node::Dataset(_), Some(_)) => return not_found(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> H5File {
        let mut f = H5File::new();
        f.create_dataset(
            "model_weights/block1_conv1/kernel",
            Dataset::from_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3], Dtype::F32).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            "model_weights/block1_conv1/bias",
            Dataset::from_f32(&[0.1, 0.2, 0.3], &[3], Dtype::F64).unwrap(),
        )
        .unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(20)).unwrap();
        f
    }

    #[test]
    fn create_and_lookup() {
        let f = sample_file();
        assert!(matches!(f.get("model_weights"), Some(Node::Group(_))));
        assert!(matches!(f.get("model_weights/block1_conv1/kernel"), Some(Node::Dataset(_))));
        assert!(f.get("nope").is_none());
        assert!(f.get("").is_none());
        assert_eq!(f.dataset("model_weights/block1_conv1/kernel").unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn dataset_errors_are_typed() {
        let f = sample_file();
        assert!(matches!(f.dataset("model_weights"), Err(Error::NotADataset(_))));
        assert!(matches!(f.dataset("missing/x"), Err(Error::NotFound(_))));
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let mut f = sample_file();
        let err = f.create_dataset("meta/epoch", Dataset::scalar_i64(30)).unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)));
    }

    #[test]
    fn dataset_paths_sorted_and_complete() {
        let f = sample_file();
        assert_eq!(
            f.dataset_paths(),
            vec![
                "meta/epoch".to_string(),
                "model_weights/block1_conv1/bias".to_string(),
                "model_weights/block1_conv1/kernel".to_string(),
            ]
        );
    }

    #[test]
    fn datasets_mut_lends_every_dataset_in_path_order() {
        let mut f = sample_file();
        let expected = f.dataset_paths();
        let mut seen = Vec::new();
        let mut all = Vec::new();
        f.datasets_mut(|path, ds| {
            seen.push(path.to_string());
            all.push(ds);
        });
        assert_eq!(seen, expected);
        // The borrows outlive the walk: write through one of them.
        all[0].set_i64(0, 21).unwrap();
        assert_eq!(f.dataset("meta/epoch").unwrap().get_i64(0).unwrap(), 21);
        assert!(f.get("meta/epoch/deeper").is_none());
        assert!(f.get("meta//epoch").is_none());
    }

    #[test]
    fn dataset_lookup_agrees_with_dataset_in_any_order() {
        let mut f = sample_file();
        f.create_dataset("model_weights/block2/kernel", Dataset::zeros(&[1], Dtype::F32)).unwrap();
        let probes = [
            "model_weights/block1_conv1/kernel",
            "model_weights/block1_conv1/bias",
            "model_weights/block2/kernel",
            "model_weights/block1_conv1",
            "model_weights/block1_conv1/kernel/x",
            "model_weights/block1_conv1/kernel",
            "model_weights/block1_conv1x/bias",
            "meta/epoch",
            "model_weights//block2/kernel",
            "model_weights/block2/kernel",
            "",
            "meta",
            "nope/epoch",
            "meta/epoch",
        ];
        let mut lookup = DatasetLookup::new(&f);
        for round in 0..2 {
            for p in probes.iter().skip(round) {
                let want = f.dataset(p);
                let got = lookup.dataset(p);
                assert_eq!(
                    got.map(|d| d as *const Dataset),
                    want.map(|d| d as *const Dataset),
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn datasets_under_group_and_leaf() {
        let f = sample_file();
        let under = f.datasets_under("model_weights").unwrap();
        assert_eq!(under.len(), 2);
        let leaf = f.datasets_under("meta/epoch").unwrap();
        assert_eq!(leaf, vec!["meta/epoch".to_string()]);
        assert!(f.datasets_under("bogus").is_err());
    }

    #[test]
    fn entry_counting_uses_dimension_products() {
        let f = sample_file();
        // 2*3 + 3 + 1 (scalar)
        assert_eq!(f.total_entries(), 10);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let g = H5File::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
        // Byte-stability: encoding is deterministic.
        assert_eq!(bytes, g.to_bytes());
    }

    #[test]
    fn save_and_load_file() {
        let dir = crate::testutil::TestDir::new("hdf5");
        let p = dir.file("ckpt.sefi5");
        let f = sample_file();
        f.save(&p).unwrap();
        let g = H5File::load(&p).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn save_v2_and_load_dispatches_by_version() {
        let dir = crate::testutil::TestDir::new("hdf5_v2");
        let p = dir.file("ckpt_v2.sefi5");
        let f = sample_file();
        f.save_v2(&p).unwrap();
        let g = H5File::load(&p).unwrap();
        assert_eq!(f, g);
    }
}
