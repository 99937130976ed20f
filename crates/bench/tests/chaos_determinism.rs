//! Property tests for the chaos campaign (DESIGN.md §9, §15).
//!
//! * Determinism: the same seeds and attack produce bit-identical
//!   outcomes, counters, and retry traces (or kill plans and recovery
//!   points) at any `--threads` setting.
//! * Contract: with resilience and parity on, no run silently escapes.
//! * Escape classes: with resilience off, the campaign flags (or
//!   exposes) at least one run — the machinery is load-bearing.
//! * Zero-rate injection: a quiescent injector is observationally
//!   identical to running with no injector at all.

use bench::chaos::{run_campaign, Attack, Campaign, CampaignConfig, Outcome, Seeds, Target};
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use sim::fault::FaultConfig;
use workloads::suite;

const KINDS: [MemConfigKind; 2] = [MemConfigKind::Cache, MemConfigKind::Stash];

/// Runs a two-workload campaign over [`KINDS`] with seeds `1..=seeds`.
fn campaign(seeds: u64, threads: usize, attack: Attack) -> Campaign {
    let micros = suite::micros();
    let picked = [micros[0], micros[2]];
    let targets: Vec<Target<'_>> = picked
        .iter()
        .map(|w| Target {
            name: w.name.to_string(),
            sys: w.set.system_config(),
            build: &w.build,
        })
        .collect();
    let cfg = CampaignConfig {
        seeds: Seeds::new(1, seeds).unwrap(),
        threads,
        verify: false,
        attack,
    };
    run_campaign(&targets, &KINDS, &cfg).expect("golden runs clean")
}

fn faults(resilience: bool, parity: bool) -> Attack {
    Attack::Faults { resilience, parity }
}

/// Every field of every run agrees between two campaigns.
fn assert_same_runs(serial: &Campaign, threaded: &Campaign) {
    assert_eq!(serial.cells.len(), threaded.cells.len());
    for (a, b) in serial.cells.iter().zip(&threaded.cells) {
        assert_eq!(
            (a.workload.as_str(), a.kind, a.seed),
            (b.workload.as_str(), b.kind, b.seed)
        );
        assert_eq!(
            a.outcome,
            b.outcome,
            "{} on {} seed {}: outcome depends on thread count",
            a.workload,
            a.kind.name(),
            a.seed
        );
        assert_eq!(
            a.detail,
            b.detail,
            "{} on {} seed {}: digest/counters/trace or kill/recovery depend on thread count",
            a.workload,
            a.kind.name(),
            a.seed
        );
    }
}

#[test]
fn identical_seeds_are_bit_identical_across_thread_counts() {
    assert_same_runs(
        &campaign(3, 1, faults(true, true)),
        &campaign(3, 4, faults(true, true)),
    );
}

#[test]
fn crash_campaigns_are_identical_across_thread_counts() {
    let scratch = |threads: usize| Attack::Crash {
        scratch: std::env::temp_dir().join(format!(
            "chaos-determinism-crash-{threads}-{}",
            std::process::id()
        )),
    };
    let serial = campaign(3, 1, scratch(1));
    assert!(serial.escapes().is_empty(), "{:?}", serial.escapes());
    assert_same_runs(&serial, &campaign(3, 4, scratch(4)));
}

#[test]
fn resilient_campaign_never_escapes() {
    let c = campaign(4, 4, faults(true, true));
    let escapes = c.escapes();
    assert!(
        escapes.is_empty(),
        "silent escapes with full resilience: {escapes:?}"
    );
    assert!(c.tally().counters[0] > 0, "chaos rates injected nothing");
}

#[test]
fn disabling_resilience_surfaces_non_recovered_runs() {
    let c = campaign(4, 4, faults(false, true));
    let non_recovered = c
        .cells
        .iter()
        .filter(|cell| cell.outcome != Outcome::Recovered)
        .count();
    assert!(
        non_recovered > 0,
        "resilience off should trip the watchdog or leak state on some seed"
    );
}

#[test]
fn quiescent_injector_matches_fault_free_run() {
    let w = suite::micros()[0];
    for kind in KINDS {
        let program = (w.build)(kind);

        let mut plain = Machine::new(w.set.system_config(), kind);
        let plain_report = plain.run(&program).expect("fault-free run");

        let mut quiet = Machine::new(w.set.system_config(), kind);
        quiet
            .memory_mut()
            .set_fault_injector(FaultConfig::quiescent(7));
        let quiet_report = quiet.run(&program).expect("zero-rate run");

        assert_eq!(
            plain.memory().state_digest(),
            quiet.memory().state_digest(),
            "{}: zero-rate injector changed architectural state",
            kind.name()
        );
        assert_eq!(
            plain_report.total_picos,
            quiet_report.total_picos,
            "{}: zero-rate injector changed timing",
            kind.name()
        );
        assert_eq!(
            plain_report.counters,
            quiet_report.counters,
            "{}: zero-rate injector changed counters",
            kind.name()
        );
    }
}
