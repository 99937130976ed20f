//! Cycle-attributed structured event tracing.
//!
//! A [`TraceSink`] is a fixed-capacity ring buffer of typed [`TraceEvent`]s
//! plus a per-CU [`StallBreakdown`] that attributes every simulated GPU
//! cycle to exactly one [`StallReason`]. Timing components own an
//! `Option<Box<TraceSink>>` and emit through an `#[inline]` is-some check,
//! so the disabled path costs one branch — no allocation, no formatting —
//! and simulated behaviour (latencies, counters, `state_digest`) is
//! identical with tracing on or off.
//!
//! The sink does not know the clock. Components that do (the warp
//! scheduler, the machine) stamp it via [`TraceSink::set_now`] before
//! emitting; latency-only components (the memory system internals) reuse
//! the last stamp. [`TraceSink::set_base`] shifts stamps by the cycles of
//! previously completed kernels so timestamps are monotone across a whole
//! run even though each kernel's scheduler restarts at cycle zero.
//!
//! A sink only observes, so it is not part of a checkpoint: a resumed
//! machine has none until the caller installs a fresh one.

/// Where a GPU cycle went. Every cycle of every CU is attributed to
/// exactly one reason; the per-CU totals sum to the kernel cycle count
/// (enforced by integration tests across the Figure 5 matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// The issue port was busy issuing an instruction (useful work).
    Issue,
    /// Waiting on an in-flight dependency after a hit or compute op.
    Scoreboard,
    /// Extra issue slots consumed by a memory op that coalesced into more
    /// than one transaction (coalescer serialization).
    CoalescerSerial,
    /// Waiting on an outstanding miss to return from the LLC/DRAM.
    MshrWait,
    /// Issue slots consumed by NoC injection backpressure (occupancy).
    NocBackpressure,
    /// Port blocked while the stash map ring processed a map prefetch.
    StashMapRing,
    /// Waiting on a stash chunk miss being fetched from the LLC.
    StashFetch,
    /// Port blocked on a DMA transfer at a stage boundary.
    DmaWait,
    /// Cycles spent in fault-injection retry/backoff. Retries are
    /// accounting-only (schedule invariance), so this stays zero today;
    /// the bucket exists so the taxonomy is closed under future changes.
    RetryBackoff,
    /// Warp waiting at a stage barrier for the rest of its block.
    Barrier,
    /// End-of-wave drain: the port is free but the wave's slowest warp
    /// has not yet completed.
    Drain,
    /// CU idle while another CU's blocks finish the kernel.
    Idle,
    /// Fixed kernel-launch overhead cycles.
    KernelLaunch,
}

impl StallReason {
    /// Number of reasons (size of a [`StallBreakdown`]).
    pub const COUNT: usize = 13;

    /// All reasons, in breakdown-index order.
    pub const ALL: [StallReason; StallReason::COUNT] = [
        StallReason::Issue,
        StallReason::Scoreboard,
        StallReason::CoalescerSerial,
        StallReason::MshrWait,
        StallReason::NocBackpressure,
        StallReason::StashMapRing,
        StallReason::StashFetch,
        StallReason::DmaWait,
        StallReason::RetryBackoff,
        StallReason::Barrier,
        StallReason::Drain,
        StallReason::Idle,
        StallReason::KernelLaunch,
    ];

    /// Index into a [`StallBreakdown`] array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in reports and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Issue => "issue",
            StallReason::Scoreboard => "scoreboard",
            StallReason::CoalescerSerial => "coalescer_serial",
            StallReason::MshrWait => "mshr_wait",
            StallReason::NocBackpressure => "noc_backpressure",
            StallReason::StashMapRing => "stash_map_ring",
            StallReason::StashFetch => "stash_fetch",
            StallReason::DmaWait => "dma_wait",
            StallReason::RetryBackoff => "retry_backoff",
            StallReason::Barrier => "barrier",
            StallReason::Drain => "drain",
            StallReason::Idle => "idle",
            StallReason::KernelLaunch => "kernel_launch",
        }
    }
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-CU cycle attribution: one counter per [`StallReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    cycles: [u64; StallReason::COUNT],
}

impl StallBreakdown {
    /// Attribute `cycles` to `reason`.
    pub fn add(&mut self, reason: StallReason, cycles: u64) {
        self.cycles[reason.index()] += cycles;
    }

    /// Cycles attributed to `reason`.
    pub fn get(&self, reason: StallReason) -> u64 {
        self.cycles[reason.index()]
    }

    /// Sum over all reasons. Equals the CU's total cycles when the
    /// instrumentation holds its exact-decomposition invariant.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `(reason, cycles)` pairs in taxonomy order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL.iter().map(|&r| (r, self.get(r)))
    }
}

/// A typed, cycle-stamped simulation event. `at` is an absolute cycle
/// (kernel-local cycle plus the sink's base offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A warp occupied the CU issue port. `issue` is port-busy cycles,
    /// `latency` the further cycles until the result is ready.
    WarpIssue {
        /// CU index.
        cu: u32,
        /// Thread-block id.
        tb: u32,
        /// Warp slot within the wave.
        warp: u32,
        /// Issue start cycle.
        at: u64,
        /// Cycles the issue port was held.
        issue: u64,
        /// Completion latency beyond the issue cycles.
        latency: u64,
    },
    /// The issue port went idle waiting on `reason`.
    StallBegin {
        /// CU index.
        cu: u32,
        /// Thread-block id of the warp the wait is attributed to.
        tb: u32,
        /// Warp slot within the wave.
        warp: u32,
        /// Stall start cycle.
        at: u64,
        /// Why the port idled.
        reason: StallReason,
    },
    /// The stall that began at the matching [`TraceEvent::StallBegin`]
    /// ended.
    StallEnd {
        /// CU index.
        cu: u32,
        /// Thread-block id of the warp the wait is attributed to.
        tb: u32,
        /// Warp slot within the wave.
        warp: u32,
        /// Stall end cycle.
        at: u64,
        /// Why the port idled.
        reason: StallReason,
    },
    /// An L1 lookup (GPU CU or CPU core cache).
    L1Access {
        /// Node index of the owning core.
        core: u32,
        /// Cycle of the access.
        at: u64,
        /// Store (true) or load (false).
        store: bool,
        /// Hit (true) or miss (false).
        hit: bool,
    },
    /// A stash access missed its chunk and fetched words from the LLC.
    StashChunkMiss {
        /// CU index.
        cu: u32,
        /// Cycle of the access.
        at: u64,
        /// Words fetched or registered to service the miss.
        words: u32,
    },
    /// An LLC bank serviced an access.
    LlcBank {
        /// Bank index.
        bank: u32,
        /// Cycle of the access.
        at: u64,
    },
    /// A packet crossed one mesh link.
    NocHop {
        /// Source node of the link.
        from: u32,
        /// Destination node of the link.
        to: u32,
        /// Cycle the packet was injected.
        at: u64,
        /// Flits carried over the link.
        flits: u64,
        /// Virtual-network class code (0 read, 1 write, 2 writeback).
        class: u8,
    },
    /// A DMA engine moved a burst of words.
    DmaBurst {
        /// CU index the transfer belongs to.
        cu: u32,
        /// Cycle the burst started.
        at: u64,
        /// Words moved.
        words: u32,
        /// Store to global memory (true) or load into the scratchpad.
        store: bool,
        /// Total burst latency in cycles.
        cycles: u64,
    },
    /// The resilience layer re-sent a dropped or timed-out message.
    RetryFired {
        /// Cycle of the retry.
        at: u64,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// Energy-epoch marker: a kernel finished and its energy was settled.
    EnergyEpoch {
        /// Cycle the kernel ended.
        at: u64,
        /// 1-based kernel ordinal within the run.
        kernel: u32,
    },
}

impl TraceEvent {
    /// The absolute cycle the event is stamped with.
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::WarpIssue { at, .. }
            | TraceEvent::StallBegin { at, .. }
            | TraceEvent::StallEnd { at, .. }
            | TraceEvent::L1Access { at, .. }
            | TraceEvent::StashChunkMiss { at, .. }
            | TraceEvent::LlcBank { at, .. }
            | TraceEvent::NocHop { at, .. }
            | TraceEvent::DmaBurst { at, .. }
            | TraceEvent::RetryFired { at, .. }
            | TraceEvent::EnergyEpoch { at, .. } => at,
        }
    }

    /// Stable snake_case name of the event type.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::WarpIssue { .. } => "warp_issue",
            TraceEvent::StallBegin { .. } => "stall_begin",
            TraceEvent::StallEnd { .. } => "stall_end",
            TraceEvent::L1Access { .. } => "l1_access",
            TraceEvent::StashChunkMiss { .. } => "stash_chunk_miss",
            TraceEvent::LlcBank { .. } => "llc_bank",
            TraceEvent::NocHop { .. } => "noc_hop",
            TraceEvent::DmaBurst { .. } => "dma_burst",
            TraceEvent::RetryFired { .. } => "retry_fired",
            TraceEvent::EnergyEpoch { .. } => "energy_epoch",
        }
    }
}

/// Default ring capacity: enough for every microbenchmark cell without
/// drops, ~10 MB of events at the top end.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Ring-buffered event sink plus per-CU stall attribution.
///
/// When the ring is full the oldest event is overwritten (`dropped` counts
/// how many were lost); the stall breakdown is exact regardless of drops.
#[derive(Debug, Clone)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
    now: u64,
    base: u64,
    breakdown: Vec<StallBreakdown>,
}

impl TraceSink {
    /// A sink holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
            now: 0,
            base: 0,
            breakdown: Vec::new(),
        }
    }

    /// Stamp the clock: events emitted next are at kernel-local cycle
    /// `rel` (plus the base offset).
    #[inline]
    pub fn set_now(&mut self, rel: u64) {
        self.now = self.base + rel;
    }

    /// The current absolute stamp.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Absolute cycle for kernel-local cycle `rel`.
    #[inline]
    pub fn abs(&self, rel: u64) -> u64 {
        self.base + rel
    }

    /// Set the base offset (total cycles of previously completed kernels
    /// plus their launch overheads).
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
        self.now = base;
    }

    /// Append an event, overwriting the oldest once at capacity.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Attribute `cycles` on CU `cu` to `reason`.
    pub fn stall(&mut self, cu: usize, reason: StallReason, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if cu >= self.breakdown.len() {
            self.breakdown.resize(cu + 1, StallBreakdown::default());
        }
        self.breakdown[cu].add(reason, cycles);
    }

    /// Retained events in emission order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Per-CU stall attribution; `None` if CU `cu` never reported.
    pub fn breakdown(&self, cu: usize) -> Option<&StallBreakdown> {
        self.breakdown.get(cu)
    }

    /// All per-CU breakdowns, indexed by CU.
    pub fn breakdowns(&self) -> &[StallBreakdown] {
        &self.breakdown
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent `n` retained events, oldest of them first. Used by
    /// the watchdog's deadlock dump to show what the machine was doing
    /// just before progress stopped.
    pub fn last_events(&self, n: usize) -> Vec<TraceEvent> {
        let all = self.events();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    /// Merges another sink into this one: its retained events are pushed
    /// in their emission order and its per-CU stall attribution is summed
    /// in. Used to fold a forked shard's trace back into the machine's
    /// sink; call in a deterministic shard order to keep the event stream
    /// reproducible.
    pub fn absorb(&mut self, other: &TraceSink) {
        for event in other.events() {
            self.push(event);
        }
        self.dropped += other.dropped;
        if other.breakdown.len() > self.breakdown.len() {
            self.breakdown
                .resize(other.breakdown.len(), StallBreakdown::default());
        }
        for (cu, theirs) in other.breakdown.iter().enumerate() {
            for (reason, cycles) in theirs.iter() {
                self.breakdown[cu].add(reason, cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_events_returns_newest_suffix() {
        let mut sink = TraceSink::new(3);
        for bank in 0..5u32 {
            sink.push(TraceEvent::LlcBank {
                bank,
                at: u64::from(bank),
            });
        }
        let last = sink.last_events(2);
        assert_eq!(
            last,
            vec![
                TraceEvent::LlcBank { bank: 3, at: 3 },
                TraceEvent::LlcBank { bank: 4, at: 4 }
            ]
        );
        assert_eq!(sink.last_events(99).len(), 3);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut sink = TraceSink::new(3);
        for bank in 0..5u32 {
            sink.push(TraceEvent::LlcBank {
                bank,
                at: u64::from(bank),
            });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let banks: Vec<u32> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::LlcBank { bank, .. } => *bank,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(banks, vec![2, 3, 4]);
    }

    #[test]
    fn base_offset_shifts_stamps() {
        let mut sink = TraceSink::new(8);
        sink.set_now(5);
        assert_eq!(sink.now(), 5);
        sink.set_base(100);
        sink.set_now(5);
        assert_eq!(sink.now(), 105);
        assert_eq!(sink.abs(7), 107);
    }

    #[test]
    fn stall_breakdown_accumulates_per_cu() {
        let mut sink = TraceSink::new(1);
        sink.stall(1, StallReason::Issue, 10);
        sink.stall(1, StallReason::MshrWait, 4);
        sink.stall(0, StallReason::Idle, 3);
        sink.stall(1, StallReason::Issue, 0); // no-op
        assert_eq!(sink.breakdown(0).unwrap().get(StallReason::Idle), 3);
        let b1 = sink.breakdown(1).unwrap();
        assert_eq!(b1.get(StallReason::Issue), 10);
        assert_eq!(b1.get(StallReason::MshrWait), 4);
        assert_eq!(b1.total(), 14);
    }

    #[test]
    fn reason_taxonomy_is_closed() {
        assert_eq!(StallReason::ALL.len(), StallReason::COUNT);
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        let mut names: Vec<&str> = StallReason::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallReason::COUNT, "duplicate reason name");
    }

    #[test]
    fn every_event_reports_stamp_and_kind() {
        let events = [
            TraceEvent::WarpIssue {
                cu: 0,
                tb: 1,
                warp: 2,
                at: 3,
                issue: 4,
                latency: 5,
            },
            TraceEvent::StallBegin {
                cu: 0,
                tb: 1,
                warp: 2,
                at: 3,
                reason: StallReason::Barrier,
            },
            TraceEvent::StallEnd {
                cu: 0,
                tb: 1,
                warp: 2,
                at: 4,
                reason: StallReason::Barrier,
            },
            TraceEvent::L1Access {
                core: 0,
                at: 3,
                store: false,
                hit: true,
            },
            TraceEvent::StashChunkMiss {
                cu: 0,
                at: 3,
                words: 8,
            },
            TraceEvent::LlcBank { bank: 7, at: 3 },
            TraceEvent::NocHop {
                from: 0,
                to: 1,
                at: 3,
                flits: 5,
                class: 0,
            },
            TraceEvent::DmaBurst {
                cu: 0,
                at: 3,
                words: 64,
                store: true,
                cycles: 90,
            },
            TraceEvent::RetryFired { at: 3, attempt: 1 },
            TraceEvent::EnergyEpoch { at: 3, kernel: 1 },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind_name).collect();
        for e in &events {
            assert!(e.at() >= 3);
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "duplicate event kind name");
    }
}
