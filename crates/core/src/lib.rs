//! The checkpoint-alteration fault injector — the paper's contribution.
//!
//! "Contrary to the common approach of injecting a fault during the
//! execution of the application, soft errors are simulated by altering a
//! previously saved checkpoint file. Thus, when the process loads the
//! corrupted model, it continues execution normally as if nothing
//! happened." (Section IV-B)
//!
//! This crate reimplements the paper's Python `hdf5_corrupter` with every
//! setting of its Table I:
//!
//! | setting | here |
//! |---|---|
//! | `hdf5_file` | any [`sefi_hdf5::H5File`] (or a path via [`corrupt_file`]) |
//! | `injection_probability` | [`CorrupterConfig::injection_probability`] |
//! | `injection_type` / `injection_attempts` | [`InjectionAmount`] (count or percentage) |
//! | `float_precision` | [`CorrupterConfig::float_precision`] |
//! | `corruption_mode` | [`CorruptionMode`]: bit mask / bit range / scaling factor |
//! | `allow_NaN_values` | [`CorrupterConfig::allow_nan_values`] |
//! | `locations_to_corrupt` / `use_random_locations` | [`LocationSelection`] |
//!
//! plus the paper's **equivalent injection** (Section IV-C): every run can
//! emit an [`InjectionLog`] (a JSON document, like the original tool's
//! `.json` file) whose location strings can be remapped and replayed
//! against a checkpoint produced by a *different* framework, flipping the
//! same number of bits, at the same bit positions, in the same order, at
//! the equivalent location.

#![deny(missing_docs)]

mod config;
mod corrupter;
mod error;
pub mod guard;
mod log;
mod raw;
mod report;
#[cfg(test)]
mod testutil;

pub use config::{CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection, RawConfig};
pub use corrupter::{corrupt_file, Corrupter};
pub use error::CorruptError;
pub use guard::{GuardFinding, GuardReport, NevGuard, RepairPolicy};
pub use log::{InjectionLog, LogRecord};
pub use raw::RawCorrupter;
pub use report::{
    FileRegion, InjectionRecord, InjectionReport, RawFlipRecord, RawReport, RawTarget, ValueChange,
};
