//! The parallel harness's contract: thread count and scheduling never
//! change results. The full Figure 5 matrix at 1, 2, and N threads must
//! produce equal `RunReport`s — every cycle count, counter, energy and
//! traffic figure — and byte-identical CSV output.

use bench::{csv_bytes, run_matrix_checked, MatrixRow, MatrixStats};
use gpu::config::MemConfigKind;
use workloads::suite::{self, Workload};

fn run_matrix(
    workloads: &[Workload],
    kinds: &[MemConfigKind],
    threads: usize,
) -> (Vec<MatrixRow>, MatrixStats) {
    run_matrix_checked(workloads, kinds, threads, false).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn fig5_matrix_is_identical_at_any_thread_count() {
    let workloads = suite::micros();
    let kinds = MemConfigKind::FIGURE5;

    let (serial, _) = run_matrix(&workloads, &kinds, 1);
    let n = bench::cli::default_threads().max(3);
    for threads in [2, n] {
        let (parallel, stats) = run_matrix(&workloads, &kinds, threads);
        assert_eq!(stats.threads, threads);
        assert_eq!(stats.jobs, workloads.len() * kinds.len());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload, p.workload);
            for ((sk, sr), (pk, pr)) in s.reports.iter().zip(&p.reports) {
                assert_eq!(sk, pk);
                // Exact equality over the whole report: cycles, energy,
                // traffic, and every event counter.
                assert_eq!(
                    sr, pr,
                    "{} on {sk} diverged at {threads} threads",
                    s.workload
                );
            }
        }
        assert_eq!(
            csv_bytes(&serial, &kinds),
            csv_bytes(&parallel, &kinds),
            "CSV bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn pool_reports_throughput_counters() {
    // One small workload: the stats must still be internally consistent.
    let workloads = &suite::micros()[..1];
    let kinds = [MemConfigKind::Scratch, MemConfigKind::Stash];
    let (rows, stats) = run_matrix(workloads, &kinds, 2);
    assert_eq!(rows.len(), 1);
    assert_eq!(stats.jobs, 2);
    let cycles: u64 = rows[0]
        .reports
        .iter()
        .map(|(_, r)| r.gpu_cycles + r.cpu_cycles)
        .sum();
    assert_eq!(stats.sim_cycles, cycles);
    assert!(stats.jobs_per_sec() > 0.0);
    assert!(stats.sim_cycles_per_sec() > 0.0);
    assert!(!stats.summary().is_empty());
}
