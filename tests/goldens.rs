//! The benchmark's sequential goldens, checked by `cargo test`: each
//! sequential cell of `perfbench/goldens.txt` (the 16 Figure 5 and 35
//! Figure 6 cells) runs through `Machine::run`, and its state digest
//! and simulated cycles (`gpu_cycles + cpu_cycles`) must equal the
//! file's. The `@shard` lines belong to the benchmark's shard-engine
//! runs, and the report-signature column is computed by the benchmark's
//! own code; neither is checked here.

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use workloads::suite;

const GOLDENS: &str = include_str!("../perfbench/goldens.txt");

#[test]
fn every_sequential_cell_matches_its_golden() {
    let mut cells = 0;
    for line in GOLDENS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, config, digest, _signature, cycles] = fields[..] else {
            panic!("malformed golden line: {line}");
        };
        if workload.contains('@') {
            continue;
        }
        let w = suite::by_name(workload).unwrap_or_else(|| panic!("{workload}: not in the suite"));
        let kind = MemConfigKind::ALL
            .into_iter()
            .find(|k| k.name() == config)
            .unwrap_or_else(|| panic!("{config}: no such configuration"));
        // Lowered only when its cell runs, so one program is alive at a
        // time.
        let program = (w.build)(kind);
        let mut machine = Machine::new(w.set.system_config(), kind);
        let report = machine
            .run(&program)
            .unwrap_or_else(|e| panic!("{workload}/{config}: {e}"));
        assert_eq!(
            format!("{:016x}", machine.memory().state_digest()),
            digest,
            "{workload}/{config}: state digest"
        );
        assert_eq!(
            (report.gpu_cycles + report.cpu_cycles).to_string(),
            cycles,
            "{workload}/{config}: simulated cycles"
        );
        cells += 1;
    }
    assert_eq!(cells, 51, "16 Figure 5 and 35 Figure 6 cells");
}
