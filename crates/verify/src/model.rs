//! Exhaustive model checker for the DeNovo word protocol.
//!
//! The checker abstracts the protocol to its correctness-critical core:
//! **one word**, `N` cores (each holding a [`WordState`] plus a data
//! *version*), and the LLC registry tag for that word. Data values are
//! modelled as monotonically increasing version numbers — version `k` is
//! the value written by the `k`-th store — so the *data-value invariant*
//! ("a miss returns the value of the most recent serialized store")
//! becomes a checkable arithmetic property. From the reset state a BFS
//! drives every enabled protocol event (loads, stores, evictions,
//! self-invalidations, registry-transferring DMA stores, and the lazy /
//! stale writeback race), asserting the global invariants of §4.3–§4.4
//! in every reachable state.
//!
//! # The simulator's own rules
//!
//! Each transition rebuilds the simulator's own [`Llc`] for the
//! modelled word (one bank, one one-word line) and asks it, through the
//! `register_word`, `writeback_word`, `store_through` and `load_word`
//! calls the memory system makes, whom a registration revokes, whether
//! a writeback counts, whom a DMA store revokes and where a miss is
//! served from. Every registration is an L1 one
//! ([`Registration::Cache`]); registering through a stash-map entry is
//! not modelled.
//! Self-invalidation is [`WordState::after_self_invalidate`], as in the
//! L1s and the stashes. The model adds only the steps between those
//! answers (revoking the old owner's copy, the eviction writeback, the
//! forwarded read) and the data versions the invariants need; the
//! runtime oracle checks those steps in the simulator itself.
//!
//! # Invariants checked
//!
//! State-level (checked in every reachable state):
//!
//! * **I1 (SWMR)** — at most one core holds the word Registered;
//! * **I2 (registry/owner agreement)** — a core is Registered **iff**
//!   the LLC tag names exactly that core;
//! * **I3 (no lost writeback)** — when the LLC tag is Valid, the LLC
//!   data is the latest written version;
//! * **I4 (owner freshness)** — when the LLC tag names an owner, that
//!   owner's copy is the latest written version.
//!
//! Transition-level (checked while applying an event):
//!
//! * **Miss freshness (data-value invariant)** — a load *miss* (which
//!   serializes at the registry) must return the latest version; only
//!   *hits* on Shared copies may legitimately observe stale data, and
//!   only until the next self-invalidation (the DRF contract).
//! * **Read monotonicity** — no core ever reads an older version than
//!   one it previously read.
//!
//! # Scope and limits
//!
//! The model is exhaustive *within its bounds*: a single word (DeNovo
//! word states are independent across words — no sharer lists, no
//! line-state interaction except the line-granularity ablation, which
//! the runtime oracle covers), 2–3 cores, and stores bounded to
//! [`MAX_VERSION`] so the state space closes. Timing, banking and the
//! network are abstracted away; transient hazards are modelled by the
//! explicit [`Event::StaleWriteback`] race event.
//!
//! # Mutation testing
//!
//! [`check`] also accepts a [`Mutation`] that deliberately breaks one
//! transition (e.g. skipping the previous owner's invalidation on a
//! registration transfer). Every mutation must yield a counterexample —
//! this proves the checker actually discriminates, and documents the
//! minimal failure trace each protocol rule prevents. The mutations are
//! the only places where the model overrides an answer of the LLC.

use mem::addr::{LineAddr, WORD_BYTES};
use mem::coherence::WordState;
use mem::llc::{CoreId, Llc, LlcLoadOutcome, Registration};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Stores per run of the bounded model (versions `1..=MAX_VERSION`).
pub const MAX_VERSION: u8 = 3;

/// One core's view of the modelled word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CoreView {
    /// DeNovo word state in this core's L1/stash.
    state: WordState,
    /// Version held (0 = the initial memory value; normalized to 0 when
    /// Invalid so equivalent states collapse).
    version: u8,
    /// Highest version this core has ever read (read-serialization
    /// witness).
    last_read: u8,
    /// A writeback of this version is still in flight after the core's
    /// registration was revoked (the stale-writeback race, §4.4).
    pending_wb: Option<u8>,
}

impl CoreView {
    const RESET: CoreView = CoreView {
        state: WordState::Invalid,
        version: 0,
        last_read: 0,
        pending_wb: None,
    };
}

/// One global protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    cores: Vec<CoreView>,
    /// The core the LLC registry names for the word, which holds the
    /// only up-to-date copy; `None` when the LLC's data array holds it.
    owner: Option<CoreId>,
    /// Version of the copy in the LLC data array.
    llc_version: u8,
    /// Version of the most recent serialized store.
    latest: u8,
}

impl State {
    fn reset(cores: usize) -> State {
        State {
            cores: vec![CoreView::RESET; cores],
            owner: None,
            llc_version: 0,
            latest: 0,
        }
    }
}

/// The modelled word is word 0 of this line.
const LINE: LineAddr = LineAddr(0);

/// The simulator's LLC cut down to the modelled word: one bank holding
/// one one-word line, registered to `owner` when there is one.
fn registry(owner: Option<CoreId>) -> Llc {
    let mut llc = Llc::new(1, WORD_BYTES as usize);
    if let Some(o) = owner {
        llc.register_word(LINE, 0, Registration::Cache(o));
    }
    llc
}

/// A core's word state after a kernel-boundary self-invalidation: the
/// L1s' and stashes' rule, unless the mutation drops Registered words
/// too.
fn self_invalidated(state: WordState, mutation: Option<Mutation>) -> WordState {
    if mutation == Some(Mutation::SelfInvalidateRegistered) {
        WordState::Invalid
    } else {
        state.after_self_invalidate()
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.cores.iter().enumerate() {
            write!(f, "core{i}={}v{}", c.state, c.version)?;
            if let Some(v) = c.pending_wb {
                write!(f, "(wb v{v})")?;
            }
            write!(f, " ")?;
        }
        match self.owner {
            None => write!(f, "llc=Valid v{}", self.llc_version)?,
            Some(o) => write!(f, "llc=Reg({o}) v{}", self.llc_version)?,
        }
        write!(f, " latest=v{}", self.latest)
    }
}

/// One protocol event (all core indices are model core numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Core loads the word (hit or miss as its state dictates).
    Load(usize),
    /// Core stores the word, obtaining registration from the LLC.
    Store(usize),
    /// Core's L1/stash evicts the word (writeback if Registered).
    Evict(usize),
    /// Kernel-boundary self-invalidation at one core.
    SelfInvalidate(usize),
    /// A delayed writeback from a since-revoked owner arrives at the LLC.
    StaleWriteback(usize),
    /// A DMA store writes the word through to the LLC (`store_through`).
    DmaStore,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Load(c) => write!(f, "core{c}: load"),
            Event::Store(c) => write!(f, "core{c}: store"),
            Event::Evict(c) => write!(f, "core{c}: evict"),
            Event::SelfInvalidate(c) => write!(f, "core{c}: self-invalidate"),
            Event::StaleWriteback(c) => write!(f, "core{c}: stale writeback arrives"),
            Event::DmaStore => write!(f, "dma: store-through"),
        }
    }
}

/// A deliberately broken transition, for mutation-testing the checker.
///
/// Each mutation disables one rule the real protocol relies on; `check`
/// must find a counterexample for every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Registration transfer does not invalidate the previous owner
    /// (breaks the `invalidate_previous_owner` path).
    SkipOwnerInvalidation,
    /// Evicting a Registered word drops the data without telling the
    /// registry (breaks `evict_writeback`).
    DropEvictionWriteback,
    /// The LLC accepts writebacks without the registry owner check
    /// (breaks `writeback_word`'s stale-drop).
    AcceptStaleWriteback,
    /// Self-invalidation also drops Registered words (breaks
    /// `after_self_invalidate`'s Registered exemption).
    SelfInvalidateRegistered,
    /// A load miss on a registered word is served stale LLC data instead
    /// of being forwarded to the owner (breaks `LlcLoadOutcome::Forward`).
    ForwardStaleFromLlc,
}

impl Mutation {
    /// Every mutation, for exhaustive mutation tests.
    pub const ALL: [Mutation; 5] = [
        Mutation::SkipOwnerInvalidation,
        Mutation::DropEvictionWriteback,
        Mutation::AcceptStaleWriteback,
        Mutation::SelfInvalidateRegistered,
        Mutation::ForwardStaleFromLlc,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SkipOwnerInvalidation => "skip-owner-invalidation",
            Mutation::DropEvictionWriteback => "drop-eviction-writeback",
            Mutation::AcceptStaleWriteback => "accept-stale-writeback",
            Mutation::SelfInvalidateRegistered => "self-invalidate-registered",
            Mutation::ForwardStaleFromLlc => "forward-stale-from-llc",
        }
    }
}

/// A minimal violating run: the event trace from reset, the violated
/// invariant, and the state reached.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Events from the reset state, in order (BFS ⇒ shortest possible).
    pub trace: Vec<Event>,
    /// Which invariant failed, in human terms.
    pub violation: String,
    /// The violating state, rendered.
    pub state: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.violation)?;
        writeln!(
            f,
            "counterexample ({} events from reset):",
            self.trace.len()
        )?;
        for (i, e) in self.trace.iter().enumerate() {
            writeln!(f, "  {}. {e}", i + 1)?;
        }
        write!(f, "final state: {}", self.state)
    }
}

/// Exploration statistics of a clean run.
#[derive(Debug, Clone, Copy)]
pub struct CheckStats {
    /// Cores in the model.
    pub cores: usize,
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions taken (edges of the reachability graph).
    pub transitions: u64,
    /// Longest shortest-path depth from reset.
    pub max_depth: usize,
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores: {} states, {} transitions, depth {} — all invariants hold",
            self.cores, self.states, self.transitions, self.max_depth
        )
    }
}

/// The events enabled in `s` (under `mutation`).
fn enabled(s: &State, mutation: Option<Mutation>) -> Vec<Event> {
    let mut out = Vec::new();
    for (i, c) in s.cores.iter().enumerate() {
        out.push(Event::Load(i));
        if s.latest < MAX_VERSION {
            out.push(Event::Store(i));
        }
        if c.state != WordState::Invalid {
            out.push(Event::Evict(i));
        }
        // Self-invalidation is an event only where it changes the state.
        if self_invalidated(c.state, mutation) != c.state {
            out.push(Event::SelfInvalidate(i));
        }
        if c.pending_wb.is_some() {
            out.push(Event::StaleWriteback(i));
        }
    }
    if s.latest < MAX_VERSION {
        out.push(Event::DmaStore);
    }
    out
}

/// Applies `e` to `s`; `Err` is a transition-level invariant violation.
///
/// Every registry answer comes from the [`registry`] LLC rebuilt from
/// `s.owner`, and the new owner is read back from it.
fn apply(s: &State, e: Event, mutation: Option<Mutation>) -> Result<State, String> {
    let mut n = s.clone();
    let mut llc = registry(s.owner);
    match e {
        Event::Load(c) => {
            let value = if n.cores[c].state.load_hits() {
                // Hit: the local copy. Shared copies may be stale — the
                // DRF contract tolerates that until self-invalidation.
                n.cores[c].version
            } else {
                // Miss: serialized at the registry; must observe latest.
                // The mutation serves stale LLC data instead of
                // forwarding to the owner.
                let value = match llc.load_word(LINE, 0) {
                    LlcLoadOutcome::Forward(r)
                        if mutation != Some(Mutation::ForwardStaleFromLlc) =>
                    {
                        n.cores[r.core().0].version
                    }
                    _ => n.llc_version,
                };
                n.cores[c].state = WordState::Shared;
                n.cores[c].version = value;
                if value != n.latest {
                    return Err(format!(
                        "data-value invariant: core{c} load miss returned v{value}, \
                         latest serialized store is v{}",
                        n.latest
                    ));
                }
                value
            };
            if value < n.cores[c].last_read {
                return Err(format!(
                    "read monotonicity: core{c} read v{value} after having read v{}",
                    n.cores[c].last_read
                ));
            }
            n.cores[c].last_read = value;
        }
        Event::Store(c) => {
            n.latest += 1;
            // Registration transfer: revoke the previous owner (DeNovo
            // moves only the registry entry — no data moves, the new
            // owner overwrites the whole word).
            let previous = llc
                .register_word(LINE, 0, Registration::Cache(CoreId(c)))
                .previous;
            if let Some(o) = previous {
                if mutation != Some(Mutation::SkipOwnerInvalidation) {
                    let o = &mut n.cores[o.core().0];
                    o.pending_wb = Some(o.version);
                    o.state = WordState::Invalid;
                    o.version = 0;
                }
            }
            n.cores[c].state = WordState::Registered;
            n.cores[c].version = n.latest;
            // Re-registering supersedes any queued writeback of ours.
            n.cores[c].pending_wb = None;
        }
        Event::Evict(c) => {
            // Eviction writeback, subject to the LLC's owner check.
            if n.cores[c].state == WordState::Registered
                && mutation != Some(Mutation::DropEvictionWriteback)
                && llc.writeback_word(LINE, 0, CoreId(c))
            {
                n.llc_version = n.cores[c].version;
            }
            n.cores[c].state = WordState::Invalid;
            n.cores[c].version = 0;
        }
        Event::SelfInvalidate(c) => {
            // Enabled only where the copy drops to Invalid.
            n.cores[c].state = self_invalidated(n.cores[c].state, mutation);
            n.cores[c].version = 0;
        }
        Event::StaleWriteback(c) => {
            let v = n.cores[c]
                .pending_wb
                .take()
                .expect("enabled only if pending");
            // The LLC drops a writeback from a core it no longer names,
            // which in the correct protocol is every stale one, because
            // re-registration clears the queue. The mutation skips the
            // owner check: the writeback lands like a store-through.
            let accepted = if mutation == Some(Mutation::AcceptStaleWriteback) {
                llc.store_through(LINE, 0);
                true
            } else {
                llc.writeback_word(LINE, 0, CoreId(c))
            };
            if accepted {
                n.llc_version = v;
            }
        }
        Event::DmaStore => {
            n.latest += 1;
            if let Some(o) = llc.store_through(LINE, 0) {
                if mutation != Some(Mutation::SkipOwnerInvalidation) {
                    let o = &mut n.cores[o.core().0];
                    o.state = WordState::Invalid;
                    o.version = 0;
                }
            }
            n.llc_version = n.latest;
        }
    }
    n.owner = llc.registration(LINE, 0).map(Registration::core);
    Ok(n)
}

/// The first state-level invariant `s` violates, if any.
fn violated_invariant(s: &State) -> Option<String> {
    let owners: Vec<usize> = s
        .cores
        .iter()
        .enumerate()
        .filter(|(_, c)| c.state == WordState::Registered)
        .map(|(i, _)| i)
        .collect();
    if owners.len() > 1 {
        return Some(format!(
            "I1 (SWMR): cores {owners:?} are simultaneously Registered"
        ));
    }
    match (s.owner, owners.first()) {
        (Some(t), Some(&o)) if t != CoreId(o) => {
            return Some(format!(
                "I2 (registry/owner agreement): registry names {t}, core{o} is Registered"
            ));
        }
        (Some(t), None) => {
            return Some(format!(
                "I2 (registry/owner agreement): registry names {t}, which holds no \
                 Registered copy (data lost)"
            ));
        }
        (None, Some(&o)) => {
            return Some(format!(
                "I2 (registry/owner agreement): core{o} is Registered but the registry \
                 tag is Valid"
            ));
        }
        _ => {}
    }
    if s.owner.is_none() && s.llc_version != s.latest {
        return Some(format!(
            "I3 (no lost writeback): registry tag Valid but LLC holds v{}, latest is v{}",
            s.llc_version, s.latest
        ));
    }
    if let Some(o) = s.owner {
        if s.cores[o.0].version != s.latest {
            return Some(format!(
                "I4 (owner freshness): owner {o} holds v{}, latest is v{}",
                s.cores[o.0].version, s.latest
            ));
        }
    }
    None
}

/// Exhaustively explores the `cores`-core model (optionally with one
/// transition deliberately broken) from reset.
///
/// # Errors
///
/// Returns the minimal counterexample if any reachable state or
/// transition violates an invariant. A correct protocol (`mutation:
/// None`) must return `Ok`; every [`Mutation`] must return `Err`.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn check(cores: usize, mutation: Option<Mutation>) -> Result<CheckStats, Box<Counterexample>> {
    assert!(cores > 0, "model needs at least one core");
    let reset = State::reset(cores);
    let mut states: Vec<State> = vec![reset.clone()];
    let mut depths: Vec<usize> = vec![0];
    let mut parents: Vec<Option<(usize, Event)>> = vec![None];
    let mut ids: HashMap<State, usize> = HashMap::from([(reset, 0)]);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut transitions = 0u64;
    let mut max_depth = 0usize;

    let trace_to = |parents: &[Option<(usize, Event)>], mut id: usize, last: Event| {
        let mut trace = vec![last];
        while let Some((p, e)) = parents[id] {
            trace.push(e);
            id = p;
        }
        trace.reverse();
        trace
    };

    while let Some(id) = queue.pop_front() {
        let depth = depths[id];
        max_depth = max_depth.max(depth);
        for e in enabled(&states[id], mutation) {
            transitions += 1;
            let next = match apply(&states[id], e, mutation) {
                Ok(n) => n,
                Err(violation) => {
                    // Render the state the violating event started from.
                    return Err(Box::new(Counterexample {
                        trace: trace_to(&parents, id, e),
                        violation,
                        state: states[id].to_string(),
                    }));
                }
            };
            if let Some(violation) = violated_invariant(&next) {
                return Err(Box::new(Counterexample {
                    trace: trace_to(&parents, id, e),
                    violation,
                    state: next.to_string(),
                }));
            }
            if !ids.contains_key(&next) {
                let nid = states.len();
                ids.insert(next.clone(), nid);
                states.push(next);
                depths.push(depth + 1);
                parents.push(Some((id, e)));
                queue.push_back(nid);
            }
        }
    }
    Ok(CheckStats {
        cores,
        states: states.len(),
        transitions,
        max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(states, transitions, max_depth)` of a clean run.
    fn explored(cores: usize) -> (usize, u64, usize) {
        let stats = check(cores, None).expect("correct protocol has no violations");
        assert_eq!(stats.cores, cores);
        (stats.states, stats.transitions, stats.max_depth)
    }

    // The exact reachable space is pinned: a change that shrank it (a
    // lost event, a rule that collapses states) would otherwise still
    // pass as "clean".
    #[test]
    fn two_core_model_is_clean_and_exhaustive() {
        assert_eq!(explored(2), (754, 3738, 7));
    }

    #[test]
    fn three_core_model_is_clean() {
        assert_eq!(explored(3), (12413, 86310, 9));
    }

    #[test]
    fn every_mutation_yields_a_counterexample() {
        use Event::{Evict, Load, SelfInvalidate, StaleWriteback, Store};
        let expected: [(Mutation, &[Event], &str); 5] = [
            (
                Mutation::SkipOwnerInvalidation,
                &[Store(0), Store(1)],
                "I1 (SWMR)",
            ),
            (
                Mutation::DropEvictionWriteback,
                &[Store(0), Evict(0)],
                "I2 (registry/owner agreement)",
            ),
            (
                Mutation::AcceptStaleWriteback,
                &[Store(0), Store(1), StaleWriteback(0)],
                "I2 (registry/owner agreement)",
            ),
            (
                Mutation::SelfInvalidateRegistered,
                &[Store(0), SelfInvalidate(0)],
                "I2 (registry/owner agreement)",
            ),
            (
                Mutation::ForwardStaleFromLlc,
                &[Store(0), Load(1)],
                "data-value invariant",
            ),
        ];
        assert_eq!(expected.map(|(m, ..)| m), Mutation::ALL);
        for (m, trace, invariant) in expected {
            let cex = check(2, Some(m)).expect_err(m.name());
            assert_eq!(cex.trace, trace, "{}", m.name());
            assert!(
                cex.violation.starts_with(invariant),
                "{}: {}",
                m.name(),
                cex.violation
            );
        }
    }

    #[test]
    fn counterexample_displays_trace() {
        let cex = check(2, Some(Mutation::DropEvictionWriteback)).unwrap_err();
        let text = cex.to_string();
        assert!(text.contains("counterexample"));
        assert!(text.contains("1."));
    }

    #[test]
    fn stats_display_is_informative() {
        let stats = check(2, None).unwrap();
        let text = stats.to_string();
        assert!(text.contains("states"));
        assert!(text.contains("invariants hold"));
    }
}
