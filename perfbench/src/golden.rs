//! Golden results of the Figure 5 + Figure 6 grid, kept beside the
//! benchmark in `goldens.txt`: for every cell, the sequential
//! `Machine::run` state digest and report signature (the file also lists
//! each cell's simulated cycles for the reader).

use gpu::config::MemConfigKind;
use gpu::report::RunReport;

use crate::simcounts::signature;

const GOLDENS: &str = include_str!("../goldens.txt");

/// One golden cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// `MemorySystem::state_digest` after the run.
    pub digest: u64,
    /// [`signature`] of the run's report.
    pub signature: u64,
}

impl Golden {
    /// The golden line for one finished cell.
    pub fn line(workload: &str, kind: MemConfigKind, report: &RunReport, digest: u64) -> String {
        format!(
            "{workload} {} {digest:016x} {:016x} {}",
            kind.name(),
            signature(report),
            report.gpu_cycles + report.cpu_cycles
        )
    }

    /// Checks a finished cell against its golden.
    ///
    /// # Errors
    ///
    /// Names the cell and the quantity that differs.
    pub fn check(
        workload: &str,
        kind: MemConfigKind,
        report: &RunReport,
        digest: u64,
    ) -> Result<(), String> {
        let g = lookup(workload, kind)
            .ok_or_else(|| format!("{workload}/{}: no golden in goldens.txt", kind.name()))?;
        if digest != g.digest {
            return Err(format!(
                "{workload}/{}: state digest {digest:016x}, golden {:016x}",
                kind.name(),
                g.digest
            ));
        }
        let sig = signature(report);
        if sig != g.signature {
            return Err(format!(
                "{workload}/{}: report signature {sig:016x}, golden {:016x}",
                kind.name(),
                g.signature
            ));
        }
        Ok(())
    }
}

/// The golden for `(workload, kind)`, if `goldens.txt` has one.
pub fn lookup(workload: &str, kind: MemConfigKind) -> Option<Golden> {
    GOLDENS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [w, k, digest, sig, _cycles] = f.as_slice() else {
                return None;
            };
            if *w != workload || !k.eq_ignore_ascii_case(kind.name()) {
                return None;
            }
            Some(Golden {
                digest: u64::from_str_radix(digest, 16).ok()?,
                signature: u64::from_str_radix(sig, 16).ok()?,
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite;

    #[test]
    fn every_grid_cell_has_a_golden() {
        for w in suite::micros() {
            for kind in MemConfigKind::FIGURE5 {
                assert!(lookup(w.name, kind).is_some(), "{} {kind}", w.name);
            }
        }
        for w in suite::applications() {
            for kind in MemConfigKind::FIGURE6 {
                assert!(lookup(w.name, kind).is_some(), "{} {kind}", w.name);
            }
        }
    }

    /// The Figure 5 digests agree with the ones `tests/observability.rs`
    /// pins for the repository's own test suite.
    #[test]
    fn figure5_goldens_match_the_pinned_digests() {
        let source = include_str!("../../tests/observability.rs");
        let block = source
            .split("const FIGURE5_DIGESTS")
            .nth(1)
            .and_then(|rest| rest.split("];").next())
            .expect("FIGURE5_DIGESTS block");
        let mut pinned = Vec::new();
        let mut current = None;
        for token in block.split(|c: char| !(c.is_ascii_alphanumeric() || c == '"')) {
            if let Some(name) = token.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
                current = Some(name.to_string());
            } else if let (Some(name), Ok(d)) = (&current, token.parse::<u64>()) {
                pinned.push((name.clone(), d));
            }
        }
        assert_eq!(pinned.len(), 16);
        for (i, (name, digest)) in pinned.iter().enumerate() {
            let kind = MemConfigKind::FIGURE5[i % 4];
            assert_eq!(
                lookup(name, kind).map(|g| g.digest),
                Some(*digest),
                "{name} {kind}"
            );
        }
    }
}
