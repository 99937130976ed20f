//! Simulation kernel shared by every subsystem of the stash reproduction.
//!
//! This crate provides the small, dependency-free foundation that the rest of
//! the workspace builds on:
//!
//! * [`Cycle`] — the simulated clock, plus the [`clock`] helpers for
//!   converting between the CPU and GPU clock domains of the paper's
//!   heterogeneous system (Table 2: CPU 2 GHz, GPU 700 MHz).
//! * [`config::SystemConfig`] — every parameter from Table 2 of the paper in
//!   one place, with the paper's values as defaults.
//! * [`stats`] — cheap named counters and histograms used for the
//!   instruction-count, traffic, and event accounting that the figures are
//!   built from.
//! * [`rng::SplitMix64`] — a tiny deterministic RNG so that every experiment
//!   is exactly reproducible without pulling `rand` into the core crates.
//! * [`fault`] — the seeded fault-injection schedule (message drops,
//!   delays, duplicates, word flips, lost writebacks, truncated DMAs)
//!   that the chaos harness drives through the memory system.
//! * [`trace`] — the ring-buffered, cycle-attributed event sink behind the
//!   observability layer (Perfetto export, stall attribution) in `bench`.
//! * [`snapshot`] — the versioned, checksummed binary container and
//!   crash-consistent file store behind machine-state checkpoint/restore,
//!   plus the stable identity hashes (`fnv1a`, `Fnv1aHasher`) behind
//!   program fingerprints and the daemon's cache keys.
//!
//! # Example
//!
//! ```
//! use sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::default();
//! assert_eq!(cfg.scratchpad_bytes, 16 * 1024);
//! assert_eq!(cfg.l1_bytes, 32 * 1024);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod config;
pub mod error;
pub mod fault;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use clock::{Cycle, Picos};
pub use config::SystemConfig;
pub use error::SimError;
