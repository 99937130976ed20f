//! The workload registry the bench harness iterates.

use crate::{apps, micro};
use gpu::config::MemConfigKind;
use gpu::program::Program;
use sim::config::SystemConfig;

/// Which machine a workload runs on (§5.4: microbenchmarks use 1 CU +
/// 15 CPU cores; applications use 15 CUs + 1 CPU core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSet {
    /// The four Figure 5 microbenchmarks.
    Micro,
    /// The seven Figure 6 applications.
    Apps,
}

impl WorkloadSet {
    /// The system configuration this set runs on.
    pub fn system_config(self) -> SystemConfig {
        match self {
            WorkloadSet::Micro => SystemConfig::for_microbenchmarks(),
            WorkloadSet::Apps => SystemConfig::for_applications(),
        }
    }

    /// The workload names in figure order.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            WorkloadSet::Micro => &micro::ALL,
            WorkloadSet::Apps => &apps::ALL,
        }
    }

    /// The configurations this set's figure compares (Figure 5 for the
    /// microbenchmarks, Figure 6 for the applications).
    pub fn figure_kinds(self) -> &'static [MemConfigKind] {
        match self {
            WorkloadSet::Micro => &MemConfigKind::FIGURE5,
            WorkloadSet::Apps => &MemConfigKind::FIGURE6,
        }
    }
}

/// A named workload: a program factory over memory configurations.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Registry name (lowercase).
    pub name: &'static str,
    /// Which set (and machine) it belongs to.
    pub set: WorkloadSet,
    /// Builds the program for one configuration.
    pub build: fn(MemConfigKind) -> Program,
}

impl Workload {
    /// The structural fingerprint of this workload lowered for `kind`
    /// (`gpu::machine::program_fingerprint`: the IR's derived `Hash`
    /// through `sim::snapshot::Fnv1aHasher`) — the identity of a lowered
    /// program. Across the Figure 5/6 cells two lowerings share it
    /// exactly when they are `==` (nw's Scratch and ScratchG are, and so
    /// are its Stash and StashG), which the tests below pin. It is the
    /// same value `Machine::checkpoint` stores in a snapshot's META
    /// section and the daemon uses as the program component of its
    /// result-cache key, so the three layers can never disagree about
    /// what "the same program" means.
    #[must_use]
    pub fn fingerprint(&self, kind: MemConfigKind) -> u64 {
        gpu::machine::program_fingerprint(&(self.build)(kind))
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("set", &self.set)
            .finish()
    }
}

/// All workloads, microbenchmarks first, in figure order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: micro::implicit::NAME,
            set: WorkloadSet::Micro,
            build: micro::implicit::program,
        },
        Workload {
            name: micro::pollution::NAME,
            set: WorkloadSet::Micro,
            build: micro::pollution::program,
        },
        Workload {
            name: micro::ondemand::NAME,
            set: WorkloadSet::Micro,
            build: micro::ondemand::program,
        },
        Workload {
            name: micro::reuse::NAME,
            set: WorkloadSet::Micro,
            build: micro::reuse::program,
        },
        Workload {
            name: apps::lud::NAME,
            set: WorkloadSet::Apps,
            build: apps::lud::program,
        },
        Workload {
            name: apps::surf::NAME,
            set: WorkloadSet::Apps,
            build: apps::surf::program,
        },
        Workload {
            name: apps::backprop::NAME,
            set: WorkloadSet::Apps,
            build: apps::backprop::program,
        },
        Workload {
            name: apps::nw::NAME,
            set: WorkloadSet::Apps,
            build: apps::nw::program,
        },
        Workload {
            name: apps::pathfinder::NAME,
            set: WorkloadSet::Apps,
            build: apps::pathfinder::program,
        },
        Workload {
            name: apps::sgemm::NAME,
            set: WorkloadSet::Apps,
            build: apps::sgemm::program,
        },
        Workload {
            name: apps::stencil::NAME,
            set: WorkloadSet::Apps,
            build: apps::stencil::program,
        },
    ]
}

/// Extra diagnostic workloads: analysable and runnable, but outside the
/// Figure 5/6 suites (they reproduce no paper bar and never enter the
/// default matrices or digests).
pub fn extras() -> Vec<Workload> {
    vec![Workload {
        name: micro::aliasing::NAME,
        set: WorkloadSet::Apps, // needs the multi-CU machine to alias
        build: micro::aliasing::program,
    }]
}

/// Finds a workload by name (suite first, then extras).
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().chain(extras()).find(|w| w.name == name)
}

/// The microbenchmarks in Figure 5 order.
pub fn micros() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| w.set == WorkloadSet::Micro)
        .collect()
}

/// The applications in Figure 6 order.
pub fn applications() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| w.set == WorkloadSet::Apps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(micros().len(), 4);
        assert_eq!(applications().len(), 7);
        assert_eq!(all().len(), 11);
    }

    #[test]
    fn names_are_unique_and_findable() {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_lowerings() {
        let w = by_name("reuse").unwrap();
        // Deterministic across calls...
        assert_eq!(
            w.fingerprint(MemConfigKind::Stash),
            w.fingerprint(MemConfigKind::Stash)
        );
        // ...different per lowering target and per workload.
        assert_ne!(
            w.fingerprint(MemConfigKind::Stash),
            w.fingerprint(MemConfigKind::Scratch)
        );
        let other = by_name("implicit").unwrap();
        assert_ne!(
            w.fingerprint(MemConfigKind::Stash),
            other.fingerprint(MemConfigKind::Stash)
        );
        // Across the 51 Figure 5/6 cells, two fingerprints are equal
        // exactly when the lowered programs are `==`. Only lowerings of one
        // workload can coincide (nw's Scratch/ScratchG and Stash/StashG do), so
        // programs are compared within a workload, one workload in memory
        // at a time, and fingerprints must differ across workloads.
        let mut cells = 0;
        let mut across: Vec<(u64, String)> = Vec::new();
        for w in all() {
            let lowered: Vec<(MemConfigKind, Program)> = w
                .set
                .figure_kinds()
                .iter()
                .map(|&kind| (kind, (w.build)(kind)))
                .collect();
            let fps: Vec<u64> = lowered
                .iter()
                .map(|(_, p)| gpu::machine::program_fingerprint(p))
                .collect();
            for (i, (a, pa)) in lowered.iter().enumerate() {
                for (j, (b, pb)) in lowered.iter().enumerate().skip(i + 1) {
                    assert_eq!(
                        fps[i] == fps[j],
                        pa == pb,
                        "{} {a} vs {b}: fingerprints {:#018x} / {:#018x}",
                        w.name,
                        fps[i],
                        fps[j]
                    );
                }
            }
            cells += lowered.len();
            let mut own = fps.clone();
            own.sort_unstable();
            own.dedup();
            for fp in own {
                if let Some((_, other)) = across.iter().find(|(f, _)| *f == fp) {
                    panic!("{} and {other} share fingerprint {fp:#018x}", w.name);
                }
                across.push((fp, w.name.to_string()));
            }
        }
        assert_eq!(cells, 51);
    }

    #[test]
    fn every_workload_builds_for_every_configuration() {
        for w in all() {
            for kind in MemConfigKind::ALL {
                let p = (w.build)(kind);
                assert!(
                    p.gpu_instruction_count() > 0,
                    "{} on {kind} is empty",
                    w.name
                );
            }
        }
    }
}
