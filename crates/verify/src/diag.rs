//! The unified diagnostic type shared by every static analysis in this
//! crate, and the symbol table that names arrays in its messages.
//!
//! The race and bounds passes ([`crate::dataflow`]) and the
//! access-pattern analyzer ([`crate::analyze`]) all report findings as
//! one [`Diagnostic`] carrying a [`Rule`]. Rules have **stable codes**
//! (`SR0xx`) and **severity levels**, so machine consumers (the `lint`
//! bin's SARIF-style JSON, CI baseline diffs) can match findings across
//! revisions without parsing messages:
//!
//! * `SR003` — the CPU stale-read rule (an error);
//! * `SR01x` — dataflow verdicts: proven violations are errors,
//!   data-dependent *unknowns* are warnings (the honest third state the
//!   abstract interpretation adds — neither proven safe nor proven
//!   broken);
//! * `SR02x` — advisory access-pattern notes (informational).
//!
//! Retired codes stay unassigned and are never reused, so an old report
//! that carries one cannot be mistaken for a newer finding:
//!
//! * `SR001`, `SR002` and `SR004` named the word-enumerating linter's
//!   cross-block race, CPU race and out-of-bounds rules. The dataflow
//!   passes decide the same cases, as `SR012` (races) and `SR010`
//!   (bounds), and the linter was deleted.
//! * `SR030` named a misrank of the design-space explorer's cost-model
//!   surrogate, which was deleted when [`crate::dse`] switched to
//!   ranking every point by simulation.

use mem::addr::{VAddr, WORD_BYTES};
use std::fmt;

/// How severe a finding is — drives exit codes and SARIF levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: an optimization opportunity or profile datum.
    Note,
    /// A possible problem the analysis cannot decide (data-dependent
    /// indices); fatal only under `--deny-unknown`.
    Warning,
    /// A proven violation (race, out-of-bounds); always fatal.
    Error,
}

impl Severity {
    /// SARIF-style level string.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Which rule a diagnostic comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A CPU core re-reads a word another agent overwrote while the
    /// core still held it Shared (CPUs never self-invalidate).
    CpuStaleRead,
    /// Dataflow proved an access is out of bounds on every execution.
    ProvenOob,
    /// Dataflow could not bound a data-dependent index expression —
    /// neither proven safe nor proven out of bounds.
    DataDependentBounds,
    /// Dataflow proved two thread blocks (or CPU cores) conflict, with
    /// a witness word range.
    ProvenRace,
    /// Data-dependent footprints *may* overlap — a race the analysis
    /// can neither prove nor refute.
    DataDependentRace,
    /// A strided global stream wasting transaction capacity.
    PoorCoalescing,
    /// A footprint that limits residency or exceeds a capacity.
    CapacityThrash,
    /// Data written but never re-read — lazy writeback wins.
    LazyWritebackWin,
    /// A word overwritten with no intervening read.
    DeadStore,
    /// An explicit copy loop whose data the body does not reuse.
    CopyNoReuse,
    /// A DMA transfer whose data the block never touches.
    RedundantDma,
    /// Informational reuse-scope profile of the access stream.
    ReuseProfile,
}

impl Rule {
    /// Every rule, in code order (stable; used to emit SARIF rule
    /// tables without enumerating variants at each call site).
    pub const ALL: [Rule; 12] = [
        Rule::CpuStaleRead,
        Rule::ProvenOob,
        Rule::DataDependentBounds,
        Rule::ProvenRace,
        Rule::DataDependentRace,
        Rule::PoorCoalescing,
        Rule::CapacityThrash,
        Rule::LazyWritebackWin,
        Rule::DeadStore,
        Rule::CopyNoReuse,
        Rule::RedundantDma,
        Rule::ReuseProfile,
    ];

    /// Stable display name (kebab-case).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::CpuStaleRead => "cpu-stale-read",
            Rule::ProvenOob => "proven-oob",
            Rule::DataDependentBounds => "data-dependent-bounds",
            Rule::ProvenRace => "proven-race",
            Rule::DataDependentRace => "data-dependent-race",
            Rule::PoorCoalescing => "poor-coalescing",
            Rule::CapacityThrash => "capacity-thrash",
            Rule::LazyWritebackWin => "lazy-writeback-win",
            Rule::DeadStore => "dead-store",
            Rule::CopyNoReuse => "copy-no-reuse",
            Rule::RedundantDma => "redundant-dma",
            Rule::ReuseProfile => "reuse-profile",
        }
    }

    /// Stable rule code — never renumbered or reused, only appended to.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::CpuStaleRead => "SR003",
            Rule::ProvenOob => "SR010",
            Rule::DataDependentBounds => "SR011",
            Rule::ProvenRace => "SR012",
            Rule::DataDependentRace => "SR013",
            Rule::PoorCoalescing => "SR020",
            Rule::CapacityThrash => "SR021",
            Rule::LazyWritebackWin => "SR022",
            Rule::DeadStore => "SR023",
            Rule::CopyNoReuse => "SR024",
            Rule::RedundantDma => "SR025",
            Rule::ReuseProfile => "SR026",
        }
    }

    /// The rule's severity level.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::CpuStaleRead | Rule::ProvenOob | Rule::ProvenRace => Severity::Error,
            Rule::DataDependentBounds | Rule::DataDependentRace => Severity::Warning,
            Rule::PoorCoalescing
            | Rule::CapacityThrash
            | Rule::LazyWritebackWin
            | Rule::DeadStore
            | Rule::CopyNoReuse
            | Rule::RedundantDma
            | Rule::ReuseProfile => Severity::Note,
        }
    }
}

/// One finding from any of the crate's static analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated (or advisory) rule.
    pub rule: Rule,
    /// Full human-readable message: array, word range, tasks involved.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(rule: Rule, message: impl Into<String>) -> Self {
        Self {
            rule,
            message: message.into(),
        }
    }

    /// The finding's severity — a fixed property of its rule.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule.name(), self.message)
    }
}

/// Array names for diagnostics: `(name, base, footprint)` triples.
///
/// Built from a trace workload's arrays (or any other source of symbol
/// information); an empty table degrades diagnostics to raw hex ranges.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    entries: Vec<(String, u64, u64)>, // (name, base byte addr, bytes)
}

impl Symbols {
    /// An empty table.
    pub fn new() -> Symbols {
        Symbols::default()
    }

    /// Registers an array covering `[base, base + bytes)`.
    pub fn add(&mut self, name: &str, base: VAddr, bytes: u64) {
        self.entries.push((name.to_string(), base.0, bytes));
    }

    /// The array containing byte address `addr`, with the element word
    /// index inside it.
    pub(crate) fn locate(&self, addr: u64) -> Option<(&str, u64)> {
        self.entries
            .iter()
            .find(|(_, base, bytes)| addr >= *base && addr < base + bytes)
            .map(|(name, base, _)| (name.as_str(), (addr - base) / WORD_BYTES))
    }

    /// Formats a word range `[lo, hi]` (inclusive, in global word
    /// numbers) as `name[words a..b]` or a raw address range.
    pub(crate) fn range(&self, lo: u64, hi: u64) -> String {
        match self.locate(lo * WORD_BYTES) {
            Some((name, w)) => {
                let span = hi - lo;
                format!("{name}[word {w}..{}]", w + span)
            }
            None => format!("{:#x}..{:#x}", lo * WORD_BYTES, (hi + 1) * WORD_BYTES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for r in Rule::ALL {
            assert!(seen.insert(r.code()), "duplicate code {}", r.code());
            assert!(r.code().starts_with("SR"));
            assert!(!r.name().is_empty());
        }
        // Pin a few codes: these are the stable external interface.
        assert_eq!(Rule::CpuStaleRead.code(), "SR003");
        assert_eq!(Rule::ProvenOob.code(), "SR010");
        assert_eq!(Rule::ProvenRace.code(), "SR012");
        assert_eq!(Rule::PoorCoalescing.code(), "SR020");
        // Retired codes stay unassigned.
        for retired in ["SR001", "SR002", "SR004", "SR030"] {
            assert!(Rule::ALL.iter().all(|r| r.code() != retired), "{retired}");
        }
    }

    #[test]
    fn severities_follow_rule_class() {
        assert_eq!(Rule::ProvenOob.severity(), Severity::Error);
        assert_eq!(Rule::DataDependentBounds.severity(), Severity::Warning);
        assert_eq!(Rule::ReuseProfile.severity(), Severity::Note);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn display_includes_rule_name() {
        let d = Diagnostic::new(Rule::ProvenOob, "lane 99 past the end");
        assert_eq!(d.to_string(), "[proven-oob] lane 99 past the end");
    }
}
