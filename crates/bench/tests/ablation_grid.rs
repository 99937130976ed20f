//! Pins every cell of the ablation grid (`bench::ablation::grid`, the
//! table the `ablation` binary prints): the final state digest, GPU
//! cycles, total energy and each counter the binary reports. The values
//! were recorded when the switches were still setters on the memory
//! system, so they also hold the switches-as-configuration machine to
//! the old one.

use bench::ablation;
use bench::pool::JobPool;
use noc::MsgClass;

/// What one cell must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    gpu_cycles: u64,
    energy: u64,
    fetch_words: u64,
    wb_stash_words: u64,
    forwards: u64,
    false_sharing: u64,
    read_crossings: u64,
    write_crossings: u64,
}

#[rustfmt::skip]
const PINS: [Pin; 13] = [
    /*  0 */ Pin { digest: 0xd283_d14b_2215_283d, gpu_cycles: 28877, energy: 4_637_970_800, fetch_words: 2048, wb_stash_words: 0, forwards: 2048, false_sharing: 0, read_crossings: 73130, write_crossings: 12288 },
    /*  1 */ Pin { digest: 0x7405_502b_b546_bb3d, gpu_cycles: 79536, energy: 17_072_210_800, fetch_words: 16384, wb_stash_words: 14336, forwards: 2048, false_sharing: 0, read_crossings: 202_154, write_crossings: 98304 },
    /*  2 */ Pin { digest: 0x1d75_420d_48a6_3abd, gpu_cycles: 10204, energy: 4_082_930_600, fetch_words: 4096, wb_stash_words: 2048, forwards: 2048, false_sharing: 0, read_crossings: 103_335, write_crossings: 12288 },
    /*  3 */ Pin { digest: 0xaea1_5c8c_3199_05a5, gpu_cycles: 17734, energy: 5_142_573_600, fetch_words: 0, wb_stash_words: 0, forwards: 1024, false_sharing: 0, read_crossings: 109_612, write_crossings: 12288 },
    /*  4 */ Pin { digest: 0xf18f_0905_e0f5_65bd, gpu_cycles: 65200, energy: 17_222_839_200, fetch_words: 16384, wb_stash_words: 16384, forwards: 0, false_sharing: 0, read_crossings: 177_852, write_crossings: 98304 },
    /*  5 */ Pin { digest: 0xf18f_0905_e0f5_65bd, gpu_cycles: 10204, energy: 3_903_127_600, fetch_words: 4096, wb_stash_words: 4096, forwards: 0, false_sharing: 0, read_crossings: 79026, write_crossings: 12288 },
    /*  6 */ Pin { digest: 0xe38d_831b_c3df_d17c, gpu_cycles: 128_926, energy: 349_367_113_000, fetch_words: 0, wb_stash_words: 0, forwards: 5018, false_sharing: 0, read_crossings: 1_996_316, write_crossings: 446_204 },
    /*  7 */ Pin { digest: 0x8c1f_9d93_95e0_56dd, gpu_cycles: 131_044, energy: 347_412_851_000, fetch_words: 0, wb_stash_words: 0, forwards: 15377, false_sharing: 24024, read_crossings: 2_080_727, write_crossings: 441_636 },
    /*  8 */ Pin { digest: 0x1d75_420d_48a6_3abd, gpu_cycles: 10764, energy: 4_078_721_000, fetch_words: 4096, wb_stash_words: 2048, forwards: 2048, false_sharing: 0, read_crossings: 103_335, write_crossings: 12288 },
    /*  9 */ Pin { digest: 0x1d75_420d_48a6_3abd, gpu_cycles: 10204, energy: 4_082_930_600, fetch_words: 5888, wb_stash_words: 2048, forwards: 2048, false_sharing: 0, read_crossings: 103_335, write_crossings: 12288 },
    /* 10 */ Pin { digest: 0x6c70_c25d_cb6f_23e2, gpu_cycles: 5038, energy: 738_914_200, fetch_words: 128, wb_stash_words: 33, forwards: 95, false_sharing: 0, read_crossings: 8639, write_crossings: 752 },
    /* 11 */ Pin { digest: 0xd8b1_9c38_8560_afa4, gpu_cycles: 9201, energy: 1_303_844_600, fetch_words: 4096, wb_stash_words: 64, forwards: 64, false_sharing: 0, read_crossings: 25551, write_crossings: 752 },
    /* 12 */ Pin { digest: 0x380a_3d89_b1d9_531f, gpu_cycles: 5735, energy: 857_149_200, fetch_words: 1024, wb_stash_words: 33, forwards: 95, false_sharing: 0, read_crossings: 11828, write_crossings: 752 },
];

#[test]
fn every_ablation_cell_reproduces_its_pinned_run() {
    let grid = ablation::grid();
    assert_eq!(grid.len(), PINS.len());
    let pool = JobPool::new(bench::cli::default_threads());
    let jobs: Vec<_> = grid
        .iter()
        .map(|cell| move || cell.run().expect("ablation cell runs"))
        .collect();
    for (i, (result, want)) in pool.run(jobs).into_iter().zip(&PINS).enumerate() {
        let (report, digest) = result.value;
        let counter = |name| report.counters.get(name);
        let got = Pin {
            digest,
            gpu_cycles: report.gpu_cycles,
            energy: report.total_energy(),
            fetch_words: counter("stash.fetch_words"),
            wb_stash_words: counter("wb.stash_words"),
            forwards: counter("remote.forward"),
            false_sharing: counter("coherence.false_sharing_revocation"),
            read_crossings: report.traffic.crossings(MsgClass::Read),
            write_crossings: report.traffic.crossings(MsgClass::Write),
        };
        assert_eq!(&got, want, "ablation cell {i}: {:?}", grid[i]);
    }
}
