//! Table 3: per-access energy for the hardware units, plus the §6.1
//! headline ratios.

use energy::model::EnergyModel;
use energy::table3;

fn main() {
    bench::cli::finish(std::env::args().collect(), false);
    let model = EnergyModel::default();
    println!("Table 3 — per-access energy for various hardware units\n");
    println!(
        "{:<16}{:>14}{:>14}",
        "Hardware Unit", "Hit Energy", "Miss Energy"
    );
    for row in table3::rows(&model) {
        println!("{:<16}{:>14}{:>14}", row.unit, row.hit, row.miss);
    }
    let (scratch_vs_l1, stash_vs_l1_miss) = table3::headline_ratios(&model);
    println!("\n§6.1 ratios:");
    println!("  scratchpad access energy = {scratch_vs_l1}% of L1 hit energy (paper: 29%)");
    println!("  stash miss energy        = {stash_vs_l1_miss}% of L1 miss energy (paper: ~41-44%)");
}
