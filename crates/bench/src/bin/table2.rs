//! Table 2: parameters of the simulated heterogeneous system.

use sim::config::SystemConfig;

// Table 2 values the simulator does not model, so no `SystemConfig`
// field holds them: L1 banking is not modelled (an L1 access is one
// port), and the LLC holds every line it is asked for (no capacity
// misses). Printed as the paper's values, marked with `*`.

/// L1 banks (Table 2: 8).
const L1_BANKS: usize = 8;
/// Shared L2 capacity in MB (Table 2: 4 MB NUCA).
const L2_MB: usize = 4;

fn main() {
    bench::cli::finish(std::env::args().collect(), false);
    let c = SystemConfig::default();
    let micro = SystemConfig::for_microbenchmarks();
    let apps = SystemConfig::for_applications();
    println!("Table 2 — parameters of the simulated heterogeneous system\n");
    println!("CPU Parameters");
    println!("  {:<44}{} GHz", "Frequency", c.cpu_clock.mhz() / 1000);
    println!(
        "  {:<44}{}, {}",
        "Cores (microbenchmarks, apps)", micro.cpu_cores, apps.cpu_cores
    );
    println!("GPU Parameters");
    println!("  {:<44}{} MHz", "Frequency", c.gpu_clock.mhz());
    println!(
        "  {:<44}{}, {}",
        "CUs (microbenchmarks, apps)", micro.gpu_cus, apps.gpu_cus
    );
    println!(
        "  {:<44}{} KB",
        "Scratchpad/Stash Size",
        c.scratchpad_bytes / 1024
    );
    println!(
        "  {:<44}{}",
        "Number of Banks in Stash/Scratchpad", c.local_banks
    );
    println!("Memory Hierarchy Parameters");
    println!(
        "  {:<44}{} entries each",
        "TLB & RTLB (VP-map)", c.vp_map_entries
    );
    println!("  {:<44}{} entries", "Stash-map", c.stash_map_entries);
    println!(
        "  {:<44}{} cycles",
        "Stash address translation", c.stash_translation_cycles
    );
    println!(
        "  {:<44}{} cycle",
        "L1 and Stash hit latency", c.l1_hit_cycles
    );
    let max_hops = 2 * (c.mesh_side as u64 - 1);
    println!(
        "  {:<44}{}-{} cycles",
        "Remote L1 and Stash hit latency",
        c.remote_base_cycles,
        c.remote_base_cycles + 3 * max_hops * c.hop_round_trip_cycles / 2 + max_hops
    );
    println!(
        "  {:<44}{} KB ({L1_BANKS}* banks, {}-way assoc.)",
        "L1 Size",
        c.l1_bytes / 1024,
        c.l1_ways
    );
    println!(
        "  {:<44}{L2_MB}* MB ({} banks, NUCA)",
        "L2 Size", c.l2_banks
    );
    println!(
        "  {:<44}{}-{} cycles",
        "L2 hit latency",
        c.l2_base_cycles,
        c.l2_base_cycles + max_hops * c.hop_round_trip_cycles
    );
    println!(
        "  {:<44}{}-{} cycles",
        "Memory latency",
        c.l2_base_cycles + c.dram_extra_cycles,
        c.l2_base_cycles + c.dram_extra_cycles + max_hops * c.hop_round_trip_cycles
    );
    println!("\n* the paper's value; not modelled (L1 banking, L2 capacity)");
    println!("(paper values: L2 29-61, remote 35-83, memory 197-261 cycles)");
}
