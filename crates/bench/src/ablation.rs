//! The ablation grid (DESIGN.md §4 and §6): the paper's design choices
//! and its §8 extensions, each run as a machine whose [`SystemConfig`]
//! differs from the paper's in at most one switch.
//!
//! The `ablation` binary prints the grid, and `tests/ablation_grid.rs`
//! pins every cell, so both read this one table.

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::SimError;
use workloads::suite;

/// One cell of the grid: a workload lowered for a configuration kind,
/// run on a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The registered workload name.
    pub workload: &'static str,
    /// The configuration kind the workload is lowered for.
    pub kind: MemConfigKind,
    /// The machine: the workload's paper machine, at most one switch
    /// thrown.
    pub sys: SystemConfig,
}

impl Cell {
    /// Simulates the cell; returns its report and the final
    /// [`gpu::memsys::MemorySystem::state_digest`].
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an unregistered workload, or the
    /// simulation's error.
    pub fn run(&self) -> Result<(RunReport, u64), SimError> {
        let w = suite::by_name(self.workload).ok_or_else(|| {
            SimError::Config(format!("workload {:?} is not registered", self.workload))
        })?;
        let mut machine = Machine::new(self.sys.clone(), self.kind);
        let report = machine.run(&(w.build)(self.kind))?;
        Ok((report, machine.memory().state_digest()))
    }
}

/// The 13 cells, in the order the `ablation` binary reads them:
///
/// * 0–1: §4.5 data replication on and off (Reuse, Stash);
/// * 2–3: word- vs line-granularity transfer (Implicit, Stash vs Cache);
/// * 4–5: eager writebacks (Reuse and Implicit, Stash; lazy is 0 and 2);
/// * 6–7: word- vs line-granularity registration (Pathfinder, Cache);
/// * 8–9: §8 `AddMap` prefetch and 8-word fetches (Implicit, Stash);
/// * 10–12: on demand, prefetch and 8-word fetches (On-demand, Stash).
#[must_use]
pub fn grid() -> Vec<Cell> {
    use MemConfigKind::{Cache, Stash};
    let micro = SystemConfig::for_microbenchmarks();
    let apps = SystemConfig::for_applications();
    let no_replication = SystemConfig {
        stash_replication: false,
        ..micro.clone()
    };
    let eager = SystemConfig {
        eager_stash_writebacks: true,
        ..micro.clone()
    };
    let line_grain = SystemConfig {
        line_grain_registration: true,
        ..apps.clone()
    };
    let prefetch = SystemConfig {
        stash_prefetch: true,
        ..micro.clone()
    };
    let wide = SystemConfig {
        stash_fetch_words: 8,
        ..micro.clone()
    };
    [
        ("reuse", Stash, &micro),
        ("reuse", Stash, &no_replication),
        ("implicit", Stash, &micro),
        ("implicit", Cache, &micro),
        ("reuse", Stash, &eager),
        ("implicit", Stash, &eager),
        ("pathfinder", Cache, &apps),
        ("pathfinder", Cache, &line_grain),
        ("implicit", Stash, &prefetch),
        ("implicit", Stash, &wide),
        ("ondemand", Stash, &micro),
        ("ondemand", Stash, &prefetch),
        ("ondemand", Stash, &wide),
    ]
    .into_iter()
    .map(|(workload, kind, sys)| Cell {
        workload,
        kind,
        sys: sys.clone(),
    })
    .collect()
}
