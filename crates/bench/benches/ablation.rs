//! Wall-clock benches for the design-choice ablations (DESIGN.md §4):
//! the §4.5 replication optimization on/off, and word- vs
//! line-granularity fetches on the Implicit microbenchmark.
//!
//! ```text
//! cargo bench -p bench --bench ablation
//! ```

use bench::timing;
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use sim::config::SystemConfig;
use workloads::suite;

fn main() {
    let workload = suite::by_name("reuse").expect("registered");
    let program = (workload.build)(MemConfigKind::Stash);
    timing::bench("ablation/replication/on", || {
        let mut machine = Machine::new(workload.set.system_config(), MemConfigKind::Stash);
        machine.run(&program).expect("reuse runs")
    });
    let no_replication = SystemConfig {
        stash_replication: false,
        ..workload.set.system_config()
    };
    timing::bench("ablation/replication/off", || {
        let mut machine = Machine::new(no_replication.clone(), MemConfigKind::Stash);
        machine.run(&program).expect("reuse runs")
    });

    // The stash's word-granularity fetches vs the cache's line fills on
    // the AoS-heavy Implicit microbenchmark.
    let workload = suite::by_name("implicit").expect("registered");
    for kind in [MemConfigKind::Stash, MemConfigKind::Cache] {
        let program = (workload.build)(kind);
        timing::bench(
            &format!("ablation/fetch-granularity/{}", kind.name()),
            || {
                let mut machine = Machine::new(workload.set.system_config(), kind);
                machine.run(&program).expect("implicit runs")
            },
        );
    }
}
