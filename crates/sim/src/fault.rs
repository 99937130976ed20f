//! Deterministic, seed-driven fault injection (the chaos substrate).
//!
//! A [`FaultInjector`] is a [`SplitMix64`]-seeded schedule of transient
//! faults that the memory system consults at well-defined *sites*:
//!
//! * **Message fates** ([`FaultInjector::message_fate`]) — each network
//!   send may be delivered, delayed, duplicated, or dropped. The NoC
//!   consumes the fate ([`noc`-side helper]); the memory system reacts
//!   with sequence numbers, timeouts, and bounded-exponential-backoff
//!   retries (or, with resilience disabled, an immediate watchdog trip).
//! * **Word flips** ([`FaultInjector::flip_word`]) — data words arriving
//!   at a stash or LLC may be corrupted; the parity/ECC model detects
//!   (and corrects) flips at read sites, stores silently overwrite them,
//!   and an end-of-run scrub sweeps the remainder.
//! * **Lost writebacks** ([`FaultInjector::lose_writeback`]) and
//!   **truncated DMA transfers** ([`FaultInjector::truncate_dma`]).
//!
//! Everything is a pure function of the seed and the draw order, which the
//! memory system keeps deterministic (one injector per machine, consulted
//! in program order), so a fault schedule replays bit-identically — the
//! property the chaos harness and the cross-thread determinism tests rely
//! on. Every draw that fires is appended to a [`FaultEvent`] trace that
//! those tests compare across `--threads` settings.
//!
//! A checkpoint keeps what the schedule's future depends on — the
//! rates and switches, the RNG position and the sequence counter — so a
//! resumed machine draws exactly what an uninterrupted one would. The
//! retry policy and the delay bound are this module's constants, not
//! part of a schedule. The event trace is an observation and stays out
//! of the snapshot: a resumed injector logs only what happens after the
//! barrier it resumed from, and the uninterrupted trace is the
//! checkpointed run's trace up to that barrier followed by the resumed
//! one.
//!
//! Latency/energy/traffic are *accounting* in this transaction-level
//! simulator, so injection never mutates architectural state itself; it
//! only decides which state transitions the memory system skips, repeats,
//! or flags. Recovery therefore means "architectural state converges to
//! the fault-free run"; detection means "a parity/scrub/watchdog/oracle
//! flag fired". The chaos harness enforces that every run is one or the
//! other.
//!
//! [`noc`-side helper]: FaultKind
//! [`SplitMix64`]: crate::rng::SplitMix64

use crate::rng::SplitMix64;

// The retry policy of resilient request/response messaging. A lost
// request is NACKed and re-sent after a bounded exponential backoff
// (`backoff`), the only wait a retry charges (to the
// `resilience.backoff_cycles` counter, never to an op's latency). After
// `MAX_RETRIES` retries the no-progress watchdog trips
// (`SimError::Deadlock`), so the simulator never hangs.

/// Retries after the first attempt before the watchdog trips.
pub const MAX_RETRIES: u32 = 8;
/// Backoff after the first failed attempt, in cycles (doubles per retry).
pub const BACKOFF_BASE_CYCLES: u64 = 16;
/// Upper bound on a single backoff wait, in cycles.
pub const BACKOFF_CAP_CYCLES: u64 = 4096;
/// Longest extra latency of a delayed message: 1..=this many cycles.
pub const DELAY_MAX_CYCLES: u64 = 64;

/// The bounded-exponential backoff for 1-based failed attempt `n`:
/// `min(BACKOFF_BASE_CYCLES << (n - 1), BACKOFF_CAP_CYCLES)`.
pub fn backoff(attempt: u32) -> u64 {
    let factor = 1u64
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX);
    BACKOFF_BASE_CYCLES
        .saturating_mul(factor)
        .min(BACKOFF_CAP_CYCLES)
}

/// Per-mille fault rates plus the resilience/detection switches.
///
/// Rates are drawn independently per site in a fixed order, so a config +
/// seed fully determines the schedule. The `resilience` and `parity`
/// switches exist so the chaos harness can demonstrate *non-vacuity*:
/// with them off, injected faults produce classified silent-corruption
/// escapes instead of recovery/detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Per-mille chance a message is dropped in the network.
    pub drop_per_mille: u64,
    /// Per-mille chance a message is duplicated (same sequence number).
    pub dup_per_mille: u64,
    /// Per-mille chance a message is delayed (by 1..=[`DELAY_MAX_CYCLES`]).
    pub delay_per_mille: u64,
    /// Per-mille chance a word arriving at a stash/LLC is flipped.
    pub flip_per_mille: u64,
    /// Per-mille chance a fire-and-forget writeback is lost.
    pub wb_lose_per_mille: u64,
    /// Per-mille chance a DMA transfer is truncated short.
    pub dma_truncate_per_mille: u64,
    /// Enable seq-number/timeout/retry/fallback machinery.
    pub resilience: bool,
    /// Enable the parity/ECC detection model (read checks + end scrub).
    pub parity: bool,
}

impl FaultConfig {
    /// The chaos harness's default schedule: every fault class enabled at
    /// low rates, full resilience and detection on.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_per_mille: 3,
            dup_per_mille: 2,
            delay_per_mille: 5,
            flip_per_mille: 2,
            wb_lose_per_mille: 3,
            dma_truncate_per_mille: 5,
            resilience: true,
            parity: true,
        }
    }

    /// A schedule with every rate zero (used by the overhead tests: an
    /// installed injector that never fires must not change any result).
    pub fn quiescent(seed: u64) -> Self {
        FaultConfig {
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            flip_per_mille: 0,
            wb_lose_per_mille: 0,
            dma_truncate_per_mille: 0,
            ..FaultConfig::chaos(seed)
        }
    }

    /// Same schedule with the resilience machinery disabled (first lost
    /// message trips the watchdog; lost writebacks and truncated DMAs
    /// silently skip state — the demonstrable escape classes).
    pub fn without_resilience(mut self) -> Self {
        self.resilience = false;
        self
    }

    /// Same schedule with the parity/ECC model disabled (flips go
    /// undetected — corrupt words survive to the end of the run).
    pub fn without_parity(mut self) -> Self {
        self.parity = false;
        self
    }

    /// The same rates and switches with a seed derived deterministically
    /// from this config's seed and `salt` — an independent draw stream
    /// for a forked sub-injector (e.g. one per CU in a parallel kernel).
    /// The derivation is a pure function of `(seed, salt)`, so forks are
    /// reproducible at any thread count.
    pub fn fork(&self, salt: u64) -> Self {
        let mut mix = SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultConfig {
            seed: mix.next_u64(),
            ..self.clone()
        }
    }
}

/// What the network did to one send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered normally.
    Delivered,
    /// Delivered after an extra delay of the given cycles.
    Delayed(u64),
    /// Delivered twice with the same sequence number.
    Duplicated,
    /// Lost in the network.
    Dropped,
}

/// The kind of an injected (or reacted-to) fault event, for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped.
    Drop,
    /// A message was duplicated.
    Duplicate,
    /// A message was delayed.
    Delay,
    /// A data word was flipped.
    Flip,
    /// A writeback was lost.
    WritebackLost,
    /// A DMA transfer was truncated.
    DmaTruncated,
    /// A timed-out request was retried.
    Retry,
}

/// One entry of the deterministic fault trace.
///
/// The trace is part of the determinism contract: identical seed + config
/// must yield an identical trace regardless of `--threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that drew the fault (a static label like `"cache.load"`).
    pub site: &'static str,
    /// What happened.
    pub kind: FaultKind,
    /// The sequence number of the affected request (0 for non-message
    /// faults such as flips).
    pub seq: u64,
    /// 1-based attempt number for retries (1 otherwise).
    pub attempt: u32,
}

/// A seeded fault schedule plus the per-machine sequence-number source.
///
/// One injector belongs to one machine; draws happen in the machine's
/// deterministic program order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SplitMix64,
    next_seq: u64,
    trace: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Builds an injector from a schedule config.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        FaultInjector {
            cfg,
            rng,
            next_seq: 0,
            trace: Vec::new(),
        }
    }

    /// The schedule this injector runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Allocates the next request sequence number.
    pub fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// The fault trace so far (deterministic; compared across thread
    /// counts by the property tests).
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Appends another injector's fault trace to this one (merging a
    /// forked per-CU injector's events back into the machine's trace).
    pub fn absorb_trace(&mut self, events: &[FaultEvent]) {
        self.trace.extend_from_slice(events);
    }

    /// Records a reaction event (e.g. a retry) in the trace.
    pub fn log(&mut self, site: &'static str, kind: FaultKind, seq: u64, attempt: u32) {
        self.trace.push(FaultEvent {
            site,
            kind,
            seq,
            attempt,
        });
    }

    fn chance(&mut self, per_mille: u64) -> bool {
        per_mille > 0 && self.rng.chance(per_mille, 1000)
    }

    /// Draws the fate of one message-send attempt.
    ///
    /// Draw order is fixed (drop, then duplicate, then delay) so a seed
    /// fully determines the schedule.
    pub fn message_fate(&mut self, site: &'static str, seq: u64, attempt: u32) -> MessageFate {
        if self.chance(self.cfg.drop_per_mille) {
            self.log(site, FaultKind::Drop, seq, attempt);
            return MessageFate::Dropped;
        }
        if self.chance(self.cfg.dup_per_mille) {
            self.log(site, FaultKind::Duplicate, seq, attempt);
            return MessageFate::Duplicated;
        }
        if self.chance(self.cfg.delay_per_mille) {
            let extra = 1 + self.rng.next_below(DELAY_MAX_CYCLES);
            self.log(site, FaultKind::Delay, seq, attempt);
            return MessageFate::Delayed(extra);
        }
        MessageFate::Delivered
    }

    /// Whether a data word arriving at a stash or the LLC is flipped.
    pub fn flip_word(&mut self, site: &'static str) -> bool {
        if self.chance(self.cfg.flip_per_mille) {
            self.log(site, FaultKind::Flip, 0, 1);
            return true;
        }
        false
    }

    /// Whether a fire-and-forget writeback message is lost.
    pub fn lose_writeback(&mut self, site: &'static str) -> bool {
        if self.chance(self.cfg.wb_lose_per_mille) {
            self.log(site, FaultKind::WritebackLost, 0, 1);
            return true;
        }
        false
    }

    /// Whether (and where) a DMA transfer of `words` words is cut short.
    ///
    /// Returns the number of words actually delivered (`< words`), or
    /// `None` for an intact transfer.
    pub fn truncate_dma(&mut self, site: &'static str, words: u64) -> Option<u64> {
        if words > 0 && self.chance(self.cfg.dma_truncate_per_mille) {
            self.log(site, FaultKind::DmaTruncated, 0, 1);
            return Some(self.rng.next_below(words));
        }
        None
    }

    /// Serializes what the injector's future depends on — schedule
    /// config, RNG position and sequence-number source — so a restored
    /// machine continues the exact same draw stream. The fault-event log
    /// is an observation and is not saved: a restored injector's log
    /// starts empty. The retry policy and delay bound are this module's
    /// constants, so a snapshot cannot set them.
    pub fn save(&self, w: &mut crate::snapshot::Writer) {
        let c = &self.cfg;
        w.put_u64(c.seed);
        w.put_u64(c.drop_per_mille);
        w.put_u64(c.dup_per_mille);
        w.put_u64(c.delay_per_mille);
        w.put_u64(c.flip_per_mille);
        w.put_u64(c.wb_lose_per_mille);
        w.put_u64(c.dma_truncate_per_mille);
        w.put_bool(c.resilience);
        w.put_bool(c.parity);
        w.put_u64(self.rng.state());
        w.put_u64(self.next_seq);
    }

    /// Restores an injector written by [`FaultInjector::save`], with an
    /// empty fault-event log.
    pub fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::SimError> {
        let cfg = FaultConfig {
            seed: r.take_u64()?,
            drop_per_mille: r.take_u64()?,
            dup_per_mille: r.take_u64()?,
            delay_per_mille: r.take_u64()?,
            flip_per_mille: r.take_u64()?,
            wb_lose_per_mille: r.take_u64()?,
            dma_truncate_per_mille: r.take_u64()?,
            resilience: r.take_bool()?,
            parity: r.take_bool()?,
        };
        Ok(FaultInjector {
            cfg,
            rng: SplitMix64::from_state(r.take_u64()?),
            next_seq: r.take_u64()?,
            trace: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let draw_all = |seed| {
            let mut inj = FaultInjector::new(FaultConfig::chaos(seed));
            let fates: Vec<MessageFate> = (0..2000).map(|i| inj.message_fate("t", i, 1)).collect();
            let flips: Vec<bool> = (0..500).map(|_| inj.flip_word("t")).collect();
            (fates, flips, inj.trace().to_vec())
        };
        assert_eq!(draw_all(7), draw_all(7));
        assert_ne!(draw_all(7).2, draw_all(8).2, "seeds must differ");
    }

    #[test]
    fn chaos_rates_fire_but_rarely() {
        let mut inj = FaultInjector::new(FaultConfig::chaos(1));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&i| inj.message_fate("t", i, 1) == MessageFate::Dropped)
            .count();
        // 3 per mille of 20k ≈ 60; accept a generous band.
        assert!((10..300).contains(&dropped), "dropped {dropped} of {n}");
    }

    #[test]
    fn quiescent_schedule_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::quiescent(42));
        for i in 0..5000 {
            assert_eq!(inj.message_fate("t", i, 1), MessageFate::Delivered);
            assert!(!inj.flip_word("t"));
            assert!(!inj.lose_writeback("t"));
            assert_eq!(inj.truncate_dma("t", 64), None);
        }
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        assert_eq!(backoff(1), 16);
        assert_eq!(backoff(2), 32);
        assert_eq!(backoff(3), 64);
        assert_eq!(backoff(9), 4096, "capped");
        assert_eq!(backoff(64), 4096, "shift overflow is capped too");
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotonic() {
        let mut inj = FaultInjector::new(FaultConfig::chaos(0));
        let a = inj.next_seq();
        let b = inj.next_seq();
        assert!(b > a);
    }

    #[test]
    fn injector_round_trips_through_snapshot() {
        let mut inj = FaultInjector::new(FaultConfig::chaos(77));
        for i in 0..500 {
            inj.message_fate("roundtrip.site", i, 1);
            inj.flip_word("roundtrip.flip");
        }
        inj.next_seq();
        let mut w = crate::snapshot::Writer::new();
        inj.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snapshot::Reader::new(&bytes, "fault");
        let mut back = FaultInjector::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.config(), inj.config());
        // The event log is an observation: it restarts empty, and from
        // then on logs exactly what the original logs after the save.
        assert!(back.trace().is_empty());
        let logged = inj.trace().len();
        // Future draws must continue the identical stream.
        for i in 0..200 {
            assert_eq!(
                inj.message_fate("after", i, 1),
                back.message_fate("after", i, 1)
            );
            assert_eq!(inj.next_seq(), back.next_seq());
        }
        assert_eq!(back.trace(), &inj.trace()[logged..]);
    }

    #[test]
    fn truncation_is_strictly_short() {
        let mut inj = FaultInjector::new(FaultConfig {
            dma_truncate_per_mille: 1000,
            ..FaultConfig::chaos(3)
        });
        for _ in 0..200 {
            let kept = inj.truncate_dma("t", 64).expect("certain truncation");
            assert!(kept < 64);
        }
    }

    #[test]
    fn zero_word_transfer_never_truncates_or_draws() {
        // A zero-word line (empty DMA burst) must not fire — and, just as
        // important for determinism, must not consume an RNG draw, so a
        // schedule is identical whether or not empty bursts occur.
        let mut inj = FaultInjector::new(FaultConfig {
            dma_truncate_per_mille: 1000,
            ..FaultConfig::chaos(11)
        });
        let mut twin = inj.clone();
        for _ in 0..50 {
            assert_eq!(inj.truncate_dma("t", 0), None);
        }
        assert!(inj.trace().is_empty(), "no event for zero-word transfers");
        for _ in 0..100 {
            assert_eq!(
                inj.truncate_dma("t", 16),
                twin.truncate_dma("t", 16),
                "zero-word calls must not advance the draw stream"
            );
        }
    }

    #[test]
    fn final_partial_burst_truncates_within_its_own_length() {
        // A line streamed in 16-word bursts with a final partial burst:
        // the cut point of the short tail burst must land inside it, so
        // the scrub's corrupt-word bookkeeping can never index past the
        // transfer.
        let mut inj = FaultInjector::new(FaultConfig {
            dma_truncate_per_mille: 1000,
            ..FaultConfig::chaos(5)
        });
        for tail in [1u64, 2, 3, 7, 15] {
            for _ in 0..50 {
                let kept = inj
                    .truncate_dma("dma.tail", tail)
                    .expect("certain truncation");
                assert!(kept < tail, "kept {kept} of a {tail}-word tail burst");
            }
        }
    }

    #[test]
    fn scrub_draws_continue_identically_after_restore() {
        // The end-of-run parity scrub consumes flip draws from the same
        // stream as everything else; a snapshot taken mid-schedule must
        // restore the stream exactly, or a resumed run's scrub would
        // diverge from the straight-through run it has to match.
        let mut inj = FaultInjector::new(FaultConfig {
            flip_per_mille: 500,
            ..FaultConfig::chaos(23)
        });
        for _ in 0..137 {
            inj.flip_word("scrub.pre");
        }
        let mut w = crate::snapshot::Writer::new();
        inj.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snapshot::Reader::new(&bytes, "fault");
        let mut back = FaultInjector::load(&mut r).unwrap();
        r.finish().unwrap();
        let logged = inj.trace().len();
        for _ in 0..300 {
            assert_eq!(inj.flip_word("scrub.post"), back.flip_word("scrub.post"));
            assert_eq!(
                inj.truncate_dma("scrub.dma", 9),
                back.truncate_dma("scrub.dma", 9)
            );
        }
        assert_eq!(&inj.trace()[logged..], back.trace());
    }
}
