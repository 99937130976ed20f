//! System configuration: the machine one simulation runs on.
//!
//! The defaults reproduce the simulated heterogeneous system of the paper:
//! a 4×4 mesh with CPU cores and GPU compute units at its nodes, a shared
//! banked NUCA L2, per-GPU-core L1 + 16 KB scratchpad/stash, and the DeNovo
//! coherence protocol. Every field is one the simulator acts on: the
//! Table 2 parameters it models, and the switches that select the
//! paper's design choices and §8 extensions (replication, eager
//! writebacks, line-grain registration, prefetch, fetch width, CPU
//! stashes). Table 2's L1 bank count and L2 capacity are not modelled
//! and are not fields; `table2` prints them as the paper's values.

use crate::clock::ClockDomain;

// Limits [`SystemConfig::validate`] puts on every count and size the
// memory system allocates from. Each admits the paper's machines, both
// trace machines and every `dse` space with room to spare; together
// they keep the largest valid memory system near 120 MiB (64 cores with
// 4-byte lines and CPU stashes), which is what makes a configuration
// read from a snapshot safe to build.

/// Most CPU cores plus GPU CUs (the paper's machines have 16).
pub const MAX_CORES: usize = 64;
/// Longest mesh side (the paper: 4; the `dse` spaces reach 8).
pub const MAX_MESH_SIDE: usize = 64;
/// Most LLC banks (the paper: 16; the `dse` spaces reach 32).
pub const MAX_L2_BANKS: usize = 1024;
/// Largest L1 per core in bytes (the paper: 32 KB).
pub const MAX_L1_BYTES: usize = 256 * 1024;
/// Highest L1 associativity (the paper: 8).
pub const MAX_L1_WAYS: usize = 64;
/// Largest scratchpad or stash per CU in bytes (the paper: 16 KB).
pub const MAX_SCRATCHPAD_BYTES: usize = 256 * 1024;
/// Most scratchpad and stash banks (the paper: 32).
pub const MAX_LOCAL_BANKS: usize = 1024;
/// Most stash-map entries, and most map-index-table entries per thread
/// block: a stash-map index is one byte (the paper: 64 and 4).
pub const MAX_STASH_MAP_ENTRIES: usize = 256;
/// Most VP-map entries (the paper: 64).
pub const MAX_VP_MAP_ENTRIES: usize = 4096;
/// Largest energy scale in percent (the paper's process: 100).
pub const MAX_ENERGY_SCALE_PCT: u64 = 10_000;
/// Fastest clock in MHz (the paper: 2,000 CPU and 700 GPU).
pub const MAX_CLOCK_MHZ: u64 = 1_000_000;

/// Full system configuration (Table 2 of the paper, plus the
/// memory-system switches).
///
/// Construct with [`SystemConfig::default`] for the paper's parameters, or
/// use the `for_microbenchmarks` / `for_applications` presets which select
/// the paper's core counts (15 CPU + 1 CU for microbenchmarks, 1 CPU +
/// 15 CUs for applications).
///
/// # Example
///
/// ```
/// use sim::config::SystemConfig;
///
/// let cfg = SystemConfig::for_microbenchmarks();
/// assert_eq!(cfg.gpu_cus, 1);
/// assert_eq!(cfg.cpu_cores, 15);
/// assert_eq!(cfg.gpu_cus + cfg.cpu_cores, cfg.mesh_nodes());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// CPU clock (2 GHz in the paper).
    pub cpu_clock: ClockDomain,
    /// GPU clock (700 MHz in the paper).
    pub gpu_clock: ClockDomain,
    /// Number of CPU cores on the mesh.
    pub cpu_cores: usize,
    /// Number of GPU compute units (CUs) on the mesh.
    pub gpu_cus: usize,
    /// Mesh side length; the paper uses a 4×4 mesh (16 nodes). Agents
    /// beyond the node count co-locate (core `i` sits on tile
    /// `i % nodes`), so a small mesh can still host the paper's 16 cores.
    pub mesh_side: usize,
    /// Scratchpad/stash capacity per CU in bytes (16 KB).
    pub scratchpad_bytes: usize,
    /// Number of banks in the scratchpad and the stash (32).
    pub local_banks: usize,
    /// L1 cache capacity in bytes (32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// Cache line size in bytes (64 B, i.e. 16 four-byte words).
    pub line_bytes: usize,
    /// L2 bank count (16, one per mesh node). Bank counts above the node
    /// count co-locate several banks per tile; below it, the low tiles
    /// host the banks.
    pub l2_banks: usize,
    /// Consecutive lines mapped to one bank before the interleave moves to
    /// the next (1 = classic line interleave).
    pub l2_interleave_lines: u64,
    /// L1 and stash hit latency in cycles (1).
    pub l1_hit_cycles: u64,
    /// Stash address-translation latency applied on misses (10 cycles).
    pub stash_translation_cycles: u64,
    /// Base L2 access latency at distance zero; the paper's 29–61-cycle
    /// range emerges from this base plus mesh hops.
    pub l2_base_cycles: u64,
    /// Additional round-trip latency per one-way mesh hop in the X
    /// dimension. With a 4×4 mesh (max 6 hops) and base 29 this yields the
    /// paper's 29–61 range (not exactly 61 — 29 + 6·5 = 59 — but within
    /// the published band).
    pub hop_round_trip_cycles: u64,
    /// Round-trip latency per Y-dimension hop. The paper's mesh is
    /// symmetric (equal to `hop_round_trip_cycles`); the design-space
    /// sweep also explores meshes with faster row links than column links.
    pub hop_round_trip_cycles_y: u64,
    /// Extra latency a request pays at the memory controller beyond the L2
    /// path; 168 extra cycles turns 29–61 into the paper's 197–261 band
    /// (197–227 from the L2 path plus controller-distance jitter).
    pub dram_extra_cycles: u64,
    /// Base latency for a remote L1/stash hit (three-leg forwarding).
    /// The paper's observed range is 35–83 cycles.
    pub remote_base_cycles: u64,
    /// TLB and reverse-TLB (VP-map) entries, each (64).
    pub vp_map_entries: usize,
    /// Stash-map entries (64).
    pub stash_map_entries: usize,
    /// Maximum AddMap calls (map-index-table entries) per thread block (4).
    pub max_maps_per_thread_block: usize,
    /// Page size in bytes (4 KB).
    pub page_bytes: usize,
    /// Maximum thread blocks resident on one CU at a time (8).
    pub max_blocks_per_cu: usize,
    /// Writeback chunk granularity for the stash in bytes (64 B).
    pub stash_chunk_bytes: usize,
    /// Fixed GPU cycles per kernel launch (driver + dispatch overhead;
    /// a few microseconds on Fermi-class hardware).
    pub kernel_launch_cycles: u64,
    /// Global scale on the per-event energy constants, in percent
    /// (100 = the Table 3 process node). Energy is linear in its
    /// constants; only the energy model reads them, never timing.
    pub energy_scale_pct: u64,
    /// §4.5 data replication: an `AddMap` of a tile an older stash-map
    /// entry still holds copies the data locally instead of refetching
    /// it (on in the paper).
    pub stash_replication: bool,
    /// Drain every stash's dirty data at each kernel boundary, like a
    /// scratchpad, instead of the paper's lazy writebacks at reclamation
    /// (off in the paper; §2's lazy-writeback ablation).
    pub eager_stash_writebacks: bool,
    /// Register cache store misses for the whole line (a MESI-style
    /// single writer) instead of DeNovo's single word (off in the paper;
    /// §4.3's false-sharing ablation). Stash registrations stay
    /// word-granular: a stash holds only the mapped words of a line.
    pub line_grain_registration: bool,
    /// §8 extension: fetch a mapping's words at `AddMap` time, like a
    /// DMA preload (off in the paper: stash loads are on demand).
    pub stash_prefetch: bool,
    /// §8 extension: words one stash load miss fetches, the missing word
    /// and its mapped neighbours in the chunk (1 in the paper; at most
    /// `stash_chunk_bytes / 4`).
    pub stash_fetch_words: usize,
    /// §8 extension: every CPU core gets a stash too, on a configuration
    /// kind with stashes (off in the paper). Stash indices are core IDs.
    pub cpu_stashes: bool,
}

impl SystemConfig {
    /// The paper's microbenchmark machine: 1 GPU CU and 15 CPU cores.
    pub fn for_microbenchmarks() -> Self {
        Self {
            cpu_cores: 15,
            gpu_cus: 1,
            ..Self::default()
        }
    }

    /// The paper's application machine: 15 GPU CUs and 1 CPU core.
    pub fn for_applications() -> Self {
        Self {
            cpu_cores: 1,
            gpu_cus: 15,
            ..Self::default()
        }
    }

    /// Total number of mesh nodes (`mesh_side`²).
    pub fn mesh_nodes(&self) -> usize {
        self.mesh_side * self.mesh_side
    }

    /// Number of 4-byte words in one cache line.
    pub fn words_per_line(&self) -> usize {
        self.line_bytes / 4
    }

    /// Validates internal consistency of the configuration.
    ///
    /// A configuration that passes builds a memory system without
    /// panicking, and every count and size that memory system allocates
    /// from lies under this module's `MAX_*` limits, so a configuration
    /// read from an untrusted snapshot cannot drive an unbounded
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint: the machine must
    /// have at least one agent and one mesh node (agents co-locate when
    /// they outnumber nodes), every bounded count lies in `1..=` its
    /// limit, sizes must be powers of two where the hardware requires it,
    /// the line size must be a multiple of the word size, the L1 and
    /// stash must divide evenly into sets and chunks, and a stash fetch
    /// is 1 word up to one chunk.
    pub fn validate(&self) -> Result<(), String> {
        let agents = self.cpu_cores.saturating_add(self.gpu_cus);
        for (name, v, max) in [
            ("cpu_cores + gpu_cus", agents, MAX_CORES),
            ("mesh_side", self.mesh_side, MAX_MESH_SIDE),
            ("l2_banks", self.l2_banks, MAX_L2_BANKS),
            ("l1_bytes", self.l1_bytes, MAX_L1_BYTES),
            ("l1_ways", self.l1_ways, MAX_L1_WAYS),
            (
                "scratchpad_bytes",
                self.scratchpad_bytes,
                MAX_SCRATCHPAD_BYTES,
            ),
            ("local_banks", self.local_banks, MAX_LOCAL_BANKS),
            (
                "stash_map_entries",
                self.stash_map_entries,
                MAX_STASH_MAP_ENTRIES,
            ),
            ("vp_map_entries", self.vp_map_entries, MAX_VP_MAP_ENTRIES),
            (
                "max_maps_per_thread_block",
                self.max_maps_per_thread_block,
                MAX_STASH_MAP_ENTRIES,
            ),
        ] {
            if !(1..=max).contains(&v) {
                return Err(format!("{name} ({v}) must be in 1..={max}"));
            }
        }
        for (name, v) in [
            ("line_bytes", self.line_bytes),
            ("l1_bytes", self.l1_bytes),
            ("page_bytes", self.page_bytes),
            ("scratchpad_bytes", self.scratchpad_bytes),
        ] {
            if !v.is_power_of_two() {
                return Err(format!("{name} ({v}) must be a power of two"));
            }
        }
        if !self.line_bytes.is_multiple_of(4) {
            return Err("line_bytes must be a multiple of the 4-byte word".into());
        }
        if self.line_bytes > self.l1_bytes
            || !(self.l1_bytes / self.line_bytes).is_multiple_of(self.l1_ways)
        {
            return Err("l1_bytes must divide into l1_ways-way sets of whole lines".into());
        }
        if self.stash_chunk_bytes == 0
            || !self.stash_chunk_bytes.is_multiple_of(4)
            || !self.scratchpad_bytes.is_multiple_of(self.stash_chunk_bytes)
        {
            return Err("stash_chunk_bytes must be word-aligned and divide the stash".into());
        }
        let chunk_words = self.stash_chunk_bytes / 4;
        if !(1..=chunk_words).contains(&self.stash_fetch_words) {
            return Err(format!(
                "stash_fetch_words ({}) must be in 1..={chunk_words}",
                self.stash_fetch_words
            ));
        }
        if self.l2_interleave_lines == 0 {
            return Err("l2_interleave_lines must be at least 1".into());
        }
        if !(1..=MAX_ENERGY_SCALE_PCT).contains(&self.energy_scale_pct) {
            return Err(format!(
                "energy_scale_pct ({}) must be in 1..={MAX_ENERGY_SCALE_PCT}",
                self.energy_scale_pct
            ));
        }
        Ok(())
    }

    /// Serializes every configuration field, in declaration order.
    pub fn save(&self, w: &mut crate::snapshot::Writer) {
        w.put_u64(self.cpu_clock.mhz());
        w.put_u64(self.gpu_clock.mhz());
        w.put_usize(self.cpu_cores);
        w.put_usize(self.gpu_cus);
        w.put_usize(self.mesh_side);
        w.put_usize(self.scratchpad_bytes);
        w.put_usize(self.local_banks);
        w.put_usize(self.l1_bytes);
        w.put_usize(self.l1_ways);
        w.put_usize(self.line_bytes);
        w.put_usize(self.l2_banks);
        w.put_u64(self.l2_interleave_lines);
        w.put_u64(self.l1_hit_cycles);
        w.put_u64(self.stash_translation_cycles);
        w.put_u64(self.l2_base_cycles);
        w.put_u64(self.hop_round_trip_cycles);
        w.put_u64(self.hop_round_trip_cycles_y);
        w.put_u64(self.dram_extra_cycles);
        w.put_u64(self.remote_base_cycles);
        w.put_usize(self.vp_map_entries);
        w.put_usize(self.stash_map_entries);
        w.put_usize(self.max_maps_per_thread_block);
        w.put_usize(self.page_bytes);
        w.put_usize(self.max_blocks_per_cu);
        w.put_usize(self.stash_chunk_bytes);
        w.put_u64(self.kernel_launch_cycles);
        w.put_u64(self.energy_scale_pct);
        w.put_bool(self.stash_replication);
        w.put_bool(self.eager_stash_writebacks);
        w.put_bool(self.line_grain_registration);
        w.put_bool(self.stash_prefetch);
        w.put_usize(self.stash_fetch_words);
        w.put_bool(self.cpu_stashes);
    }

    /// A stable 64-bit content hash of the configuration: FNV-1a over the
    /// canonical [`SystemConfig::save`] byte encoding, so two configs hash
    /// equal iff every field is equal, across processes and builds. This
    /// is the config component of the daemon's content-addressed
    /// result-cache key.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut w = crate::snapshot::Writer::new();
        self.save(&mut w);
        crate::snapshot::fnv1a(&w.into_bytes())
    }

    /// Restores a configuration written by [`SystemConfig::save`] and
    /// re-validates it (a snapshot carrying an invalid config is corrupt).
    pub fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::SimError> {
        let corrupt = |detail: String| crate::SimError::CheckpointCorrupt {
            what: "system config",
            detail,
        };
        let mut clock = || -> Result<ClockDomain, crate::SimError> {
            let mhz = r.take_u64()?;
            if !(1..=MAX_CLOCK_MHZ).contains(&mhz) {
                return Err(corrupt(format!(
                    "clock of {mhz} MHz is outside 1..={MAX_CLOCK_MHZ}"
                )));
            }
            Ok(ClockDomain::from_mhz(mhz))
        };
        let cpu_clock = clock()?;
        let gpu_clock = clock()?;
        let cfg = Self {
            cpu_clock,
            gpu_clock,
            cpu_cores: r.take_usize()?,
            gpu_cus: r.take_usize()?,
            mesh_side: r.take_usize()?,
            scratchpad_bytes: r.take_usize()?,
            local_banks: r.take_usize()?,
            l1_bytes: r.take_usize()?,
            l1_ways: r.take_usize()?,
            line_bytes: r.take_usize()?,
            l2_banks: r.take_usize()?,
            l2_interleave_lines: r.take_u64()?,
            l1_hit_cycles: r.take_u64()?,
            stash_translation_cycles: r.take_u64()?,
            l2_base_cycles: r.take_u64()?,
            hop_round_trip_cycles: r.take_u64()?,
            hop_round_trip_cycles_y: r.take_u64()?,
            dram_extra_cycles: r.take_u64()?,
            remote_base_cycles: r.take_u64()?,
            vp_map_entries: r.take_usize()?,
            stash_map_entries: r.take_usize()?,
            max_maps_per_thread_block: r.take_usize()?,
            page_bytes: r.take_usize()?,
            max_blocks_per_cu: r.take_usize()?,
            stash_chunk_bytes: r.take_usize()?,
            kernel_launch_cycles: r.take_u64()?,
            energy_scale_pct: r.take_u64()?,
            stash_replication: r.take_bool()?,
            eager_stash_writebacks: r.take_bool()?,
            line_grain_registration: r.take_bool()?,
            stash_prefetch: r.take_bool()?,
            stash_fetch_words: r.take_usize()?,
            cpu_stashes: r.take_bool()?,
        };
        cfg.validate().map_err(corrupt)?;
        Ok(cfg)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cpu_clock: ClockDomain::from_mhz(2000),
            gpu_clock: ClockDomain::from_mhz(700),
            cpu_cores: 15,
            gpu_cus: 1,
            mesh_side: 4,
            scratchpad_bytes: 16 * 1024,
            local_banks: 32,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            line_bytes: 64,
            l2_banks: 16,
            l2_interleave_lines: 1,
            l1_hit_cycles: 1,
            stash_translation_cycles: 10,
            l2_base_cycles: 29,
            hop_round_trip_cycles: 5,
            hop_round_trip_cycles_y: 5,
            dram_extra_cycles: 168,
            remote_base_cycles: 35,
            vp_map_entries: 64,
            stash_map_entries: 64,
            max_maps_per_thread_block: 4,
            page_bytes: 4096,
            max_blocks_per_cu: 8,
            stash_chunk_bytes: 64,
            kernel_launch_cycles: 2000,
            energy_scale_pct: 100,
            stash_replication: true,
            eager_stash_writebacks: false,
            line_grain_registration: false,
            stash_prefetch: false,
            stash_fetch_words: 1,
            cpu_stashes: false,
        }
    }
}

/// One point of the hardware design space the `dse` engine sweeps: the
/// geometry and latency/energy knobs that vary across candidate designs,
/// applied over a baseline [`SystemConfig`] (which keeps the workload-set
/// choices — core counts, clocks, capacities — fixed).
///
/// [`DesignPoint::default`] is the paper's operating point: applying it
/// to any baseline returns that baseline unchanged, which is what keeps
/// the default-geometry figures byte-identical.
///
/// # Example
///
/// ```
/// use sim::config::{DesignPoint, SystemConfig};
///
/// let base = SystemConfig::for_applications();
/// assert_eq!(DesignPoint::default().apply(&base), base);
///
/// let wide = DesignPoint { mesh_side: 8, ..DesignPoint::default() };
/// let sys = wide.apply(&base);
/// assert_eq!(sys.mesh_nodes(), 64);
/// assert!(sys.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Mesh side length (the paper: 4).
    pub mesh_side: usize,
    /// X-dimension per-hop round-trip cycles (the paper: 5).
    pub hop_x_cycles: u64,
    /// Y-dimension per-hop round-trip cycles (the paper: 5, symmetric).
    pub hop_y_cycles: u64,
    /// LLC bank count (the paper: 16).
    pub l2_banks: usize,
    /// Lines per bank before the interleave advances (the paper: 1).
    pub l2_interleave_lines: u64,
    /// Stash map-table entries per CU (the paper: 64).
    pub stash_map_entries: usize,
    /// Base LLC access latency (the paper: 29).
    pub l2_base_cycles: u64,
    /// Extra memory-controller latency past the LLC (the paper: 168).
    pub dram_extra_cycles: u64,
    /// Base three-leg remote-forward latency (the paper: 35).
    pub remote_base_cycles: u64,
    /// Stash translation latency charged on misses (the paper: 10).
    pub stash_translation_cycles: u64,
    /// Energy-constant scale in percent (the paper's process: 100).
    pub energy_scale_pct: u64,
}

impl Default for DesignPoint {
    fn default() -> Self {
        let sys = SystemConfig::default();
        Self {
            mesh_side: sys.mesh_side,
            hop_x_cycles: sys.hop_round_trip_cycles,
            hop_y_cycles: sys.hop_round_trip_cycles_y,
            l2_banks: sys.l2_banks,
            l2_interleave_lines: sys.l2_interleave_lines,
            stash_map_entries: sys.stash_map_entries,
            l2_base_cycles: sys.l2_base_cycles,
            dram_extra_cycles: sys.dram_extra_cycles,
            remote_base_cycles: sys.remote_base_cycles,
            stash_translation_cycles: sys.stash_translation_cycles,
            energy_scale_pct: sys.energy_scale_pct,
        }
    }
}

impl DesignPoint {
    /// Overlays this point's knobs on `base`, keeping everything the
    /// point does not cover (core counts, clocks, cache capacities).
    #[must_use]
    pub fn apply(&self, base: &SystemConfig) -> SystemConfig {
        SystemConfig {
            mesh_side: self.mesh_side,
            hop_round_trip_cycles: self.hop_x_cycles,
            hop_round_trip_cycles_y: self.hop_y_cycles,
            l2_banks: self.l2_banks,
            l2_interleave_lines: self.l2_interleave_lines,
            stash_map_entries: self.stash_map_entries,
            l2_base_cycles: self.l2_base_cycles,
            dram_extra_cycles: self.dram_extra_cycles,
            remote_base_cycles: self.remote_base_cycles,
            stash_translation_cycles: self.stash_translation_cycles,
            energy_scale_pct: self.energy_scale_pct,
            ..base.clone()
        }
    }

    /// Compact stable label, e.g. `m4 h5/5 b16/i1 s64 L29+168+35 t10 e100`
    /// — the key the `dse` reports print per point.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "m{} h{}/{} b{}/i{} s{} L{}+{}+{} t{} e{}",
            self.mesh_side,
            self.hop_x_cycles,
            self.hop_y_cycles,
            self.l2_banks,
            self.l2_interleave_lines,
            self.stash_map_entries,
            self.l2_base_cycles,
            self.dram_extra_cycles,
            self.remote_base_cycles,
            self.stash_translation_cycles,
            self.energy_scale_pct,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = SystemConfig::default();
        assert_eq!(c.cpu_clock.mhz(), 2000);
        assert_eq!(c.gpu_clock.mhz(), 700);
        assert_eq!(c.scratchpad_bytes, 16 * 1024);
        assert_eq!(c.local_banks, 32);
        assert_eq!(c.vp_map_entries, 64);
        assert_eq!(c.stash_map_entries, 64);
        assert_eq!(c.stash_translation_cycles, 10);
        assert_eq!(c.l1_hit_cycles, 1);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 8);
        assert_eq!(c.l2_banks, 16);
        assert!(c.validate().is_ok());
        // The switches select the paper's design.
        assert!(c.stash_replication);
        assert!(!c.eager_stash_writebacks);
        assert!(!c.line_grain_registration);
        assert!(!c.stash_prefetch);
        assert_eq!(c.stash_fetch_words, 1);
        assert!(!c.cpu_stashes);
    }

    #[test]
    fn l2_latency_band_matches_paper() {
        // 29–61 cycles in the paper; base + 6 hops * 5 = 59 ∈ [29, 61].
        let c = SystemConfig::default();
        let max_hops = 2 * (c.mesh_side as u64 - 1);
        let max = c.l2_base_cycles + max_hops * c.hop_round_trip_cycles;
        assert!(c.l2_base_cycles == 29 && (55..=61).contains(&max));
    }

    #[test]
    fn memory_latency_band_matches_paper() {
        // 197–261 in the paper: L2 band shifted by the DRAM constant.
        let c = SystemConfig::default();
        assert_eq!(c.l2_base_cycles + c.dram_extra_cycles, 197);
    }

    #[test]
    fn presets_select_paper_core_counts() {
        let m = SystemConfig::for_microbenchmarks();
        assert_eq!((m.cpu_cores, m.gpu_cus), (15, 1));
        let a = SystemConfig::for_applications();
        assert_eq!((a.cpu_cores, a.gpu_cus), (1, 15));
        assert!(m.validate().is_ok() && a.validate().is_ok());
    }

    #[test]
    fn validate_accepts_colocated_agents_and_rejects_degenerates() {
        // More agents than nodes co-locate on tiles (core i % nodes):
        // a 2×2 mesh still hosts the paper's 16 agents.
        let crowded = SystemConfig {
            mesh_side: 2,
            ..SystemConfig::default()
        };
        assert!(crowded.validate().is_ok());
        let empty = SystemConfig {
            cpu_cores: 0,
            gpu_cus: 0,
            ..SystemConfig::default()
        };
        assert!(empty.validate().is_err());
        let banks = SystemConfig {
            l2_banks: 0,
            ..SystemConfig::default()
        };
        assert!(banks.validate().is_err());
        let interleave = SystemConfig {
            l2_interleave_lines: 0,
            ..SystemConfig::default()
        };
        assert!(interleave.validate().is_err());
    }

    #[test]
    fn design_point_default_is_identity() {
        for base in [
            SystemConfig::for_microbenchmarks(),
            SystemConfig::for_applications(),
        ] {
            assert_eq!(DesignPoint::default().apply(&base), base);
        }
    }

    #[test]
    fn design_point_applies_every_dimension() {
        let p = DesignPoint {
            mesh_side: 8,
            hop_x_cycles: 3,
            hop_y_cycles: 7,
            l2_banks: 32,
            l2_interleave_lines: 4,
            stash_map_entries: 16,
            l2_base_cycles: 20,
            dram_extra_cycles: 200,
            remote_base_cycles: 50,
            stash_translation_cycles: 4,
            energy_scale_pct: 80,
        };
        let sys = p.apply(&SystemConfig::for_applications());
        assert_eq!(sys.mesh_side, 8);
        assert_eq!(sys.hop_round_trip_cycles, 3);
        assert_eq!(sys.hop_round_trip_cycles_y, 7);
        assert_eq!(sys.l2_banks, 32);
        assert_eq!(sys.l2_interleave_lines, 4);
        assert_eq!(sys.stash_map_entries, 16);
        assert_eq!(sys.l2_base_cycles, 20);
        assert_eq!(sys.dram_extra_cycles, 200);
        assert_eq!(sys.remote_base_cycles, 50);
        assert_eq!(sys.stash_translation_cycles, 4);
        assert_eq!(sys.energy_scale_pct, 80);
        // The baseline's machine choice survives the overlay.
        assert_eq!((sys.cpu_cores, sys.gpu_cus), (1, 15));
        assert!(sys.validate().is_ok());
        assert!(p.label().starts_with("m8 h3/7 b32/i4"));
    }

    #[test]
    fn stable_hash_tracks_every_field() {
        let base = SystemConfig::for_applications();
        assert_eq!(base.stable_hash(), base.stable_hash());
        assert_ne!(
            base.stable_hash(),
            SystemConfig::for_microbenchmarks().stable_hash()
        );
        // A single-field change anywhere must move the hash, a switch's
        // too.
        let tweaked = SystemConfig {
            l2_interleave_lines: 2,
            ..base.clone()
        };
        assert_ne!(base.stable_hash(), tweaked.stable_hash());
        let eager = SystemConfig {
            eager_stash_writebacks: true,
            ..base.clone()
        };
        assert_ne!(base.stable_hash(), eager.stable_hash());
        // Every design-point overlay dimension is visible too.
        let p = DesignPoint {
            stash_map_entries: 16,
            ..DesignPoint::default()
        };
        assert_ne!(base.stable_hash(), p.apply(&base).stable_hash());
    }

    #[test]
    fn config_round_trips_through_snapshot() {
        let cfg = SystemConfig {
            mesh_side: 8,
            l2_banks: 32,
            stash_replication: false,
            stash_fetch_words: 8,
            cpu_stashes: true,
            ..SystemConfig::for_applications()
        };
        let mut w = crate::snapshot::Writer::new();
        cfg.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snapshot::Reader::new(&bytes, "cfg");
        let back = SystemConfig::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_load_rejects_invalid() {
        let cfg = SystemConfig::default();
        let mut w = crate::snapshot::Writer::new();
        cfg.save(&mut w);
        let mut bytes = w.into_bytes();
        // Zero out the cpu_cores and gpu_cus fields (offsets 16 and 24):
        // a config with no agents must fail revalidation on load.
        for b in &mut bytes[16..32] {
            *b = 0;
        }
        let mut r = crate::snapshot::Reader::new(&bytes, "cfg");
        assert!(matches!(
            SystemConfig::load(&mut r).unwrap_err(),
            crate::SimError::CheckpointCorrupt {
                what: "system config",
                ..
            }
        ));
    }

    #[test]
    fn validate_bounds_every_size_the_memory_system_allocates_from() {
        let refused: [fn(&mut SystemConfig); 17] = [
            |c| c.cpu_cores = 1 << 40,
            |c| c.cpu_cores = usize::MAX,
            |c| c.mesh_side = (1 << 32) + 1,
            |c| c.l2_banks = MAX_L2_BANKS + 1,
            |c| c.l1_bytes = 1 << 40,
            |c| c.l1_ways = 0,
            |c| c.l1_ways = 3,
            |c| c.scratchpad_bytes = 1 << 40,
            |c| c.local_banks = 0,
            |c| c.stash_map_entries = 257,
            |c| c.vp_map_entries = 0,
            |c| c.max_maps_per_thread_block = 1 << 40,
            |c| c.stash_chunk_bytes = 0,
            |c| c.stash_chunk_bytes = 12,
            |c| c.energy_scale_pct = u64::MAX,
            |c| c.stash_fetch_words = 0,
            |c| c.stash_fetch_words = 17,
        ];
        for tweak in refused {
            let mut cfg = SystemConfig::for_applications();
            tweak(&mut cfg);
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
        // The widest corner the `dse` spaces reach still validates, and
        // so does a fetch of a whole 16-word chunk.
        let wide = SystemConfig {
            mesh_side: 8,
            l2_banks: 32,
            stash_map_entries: 128,
            stash_fetch_words: 16,
            ..SystemConfig::for_applications()
        };
        assert!(wide.validate().is_ok());
    }

    #[test]
    fn config_load_rejects_a_zero_clock() {
        let mut w = crate::snapshot::Writer::new();
        SystemConfig::default().save(&mut w);
        let mut bytes = w.into_bytes();
        // The CPU clock's MHz is the first field.
        bytes[..8].copy_from_slice(&0u64.to_le_bytes());
        let mut r = crate::snapshot::Reader::new(&bytes, "cfg");
        assert!(matches!(
            SystemConfig::load(&mut r),
            Err(crate::SimError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_power_of_two_line() {
        let cfg = SystemConfig {
            line_bytes: 48,
            ..SystemConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
