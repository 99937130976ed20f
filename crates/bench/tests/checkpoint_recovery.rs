//! The pinned resume==straight-through contract (DESIGN.md §15).
//!
//! For every Figure 5/6 matrix cell and every ablation-grid cell (a
//! machine with a switch off the paper's default), checkpointing at each
//! phase barrier and restoring from a mid-program snapshot yields
//! byte-identical reports (counters included) and state digests versus
//! an uninterrupted run — on the sequential seed path and on the
//! parallel path across thread counts {1, 8}. Alongside it: the
//! store-level recovery contract (truncated and corrupt snapshots are
//! rejected with the right error, old format versions are a version
//! mismatch rather than damage, and `latest_valid` falls back to the
//! newest good file), and crafted snapshots that must come back as
//! typed errors, never as an abort.

use bench::pool::JobPool;
use gpu::config::MemConfigKind;
use gpu::machine::{Machine, ParallelConfig, RunCursor};
use sim::config::SystemConfig;
use sim::snapshot::{read_snapshot, CheckpointStore, Reader, Snapshot, Writer};
use sim::SimError;
use workloads::suite;

/// One cell's verdicts on machine `sys`; empty = the contract holds.
fn check_cell(w: &suite::Workload, kind: MemConfigKind, sys: &SystemConfig) -> Vec<String> {
    let program = (w.build)(kind);
    let mut failures = Vec::new();
    let resume_at = (program.phases.len() / 2).max(1);

    // Sequential seed path: golden, then checkpoint-at-every-barrier,
    // then resume from the mid-program snapshot.
    let mut golden = Machine::new(sys.clone(), kind);
    let golden_report = golden
        .run(&program)
        .unwrap_or_else(|e| panic!("{}/{kind} golden failed: {e}", w.name));
    let golden_digest = golden.memory().state_digest();

    let mut first = Machine::new(sys.clone(), kind);
    let mut cursor = RunCursor::default();
    let mut snap = None;
    let mut barriers = 0usize;
    let full = first
        .run_from(&program, None, &mut cursor, |m, c| {
            // Serialize at every barrier (the acceptance contract); keep
            // only the mid-program one for the resume leg.
            let s = m.checkpoint(&program, *c);
            barriers += 1;
            if c.next_phase == resume_at {
                snap = Some(s);
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{}/{kind} run_from failed: {e}", w.name));
    if full != golden_report {
        failures.push(format!("{}/{kind}: run_from report != run report", w.name));
    }
    if barriers != program.phases.len() {
        failures.push(format!("{}/{kind}: missed a barrier", w.name));
    }
    let snap = snap.expect("mid-program snapshot captured");
    let (mut resumed, mut rc) =
        Machine::resume(&snap, &program).unwrap_or_else(|e| panic!("{}/{kind}: {e}", w.name));
    let resumed_report = resumed
        .run_from(&program, None, &mut rc, |_, _| Ok(()))
        .unwrap_or_else(|e| panic!("{}/{kind} resumed run failed: {e}", w.name));
    if resumed_report != golden_report {
        failures.push(format!(
            "{}/{kind}: sequential resumed report diverged",
            w.name
        ));
    }
    if resumed.memory().state_digest() != golden_digest {
        failures.push(format!(
            "{}/{kind}: sequential resumed digest diverged",
            w.name
        ));
    }

    // Parallel path, threads 1 vs 8: straight-through at 1 thread is the
    // golden; the interrupted run checkpoints at 1 thread and resumes at
    // 8 — crossing the thread count over the snapshot boundary.
    let mut pgolden = Machine::new(sys.clone(), kind);
    let pgolden_report = pgolden
        .run_parallel(&program, &ParallelConfig::with_threads(1))
        .unwrap_or_else(|e| panic!("{}/{kind} parallel golden failed: {e}", w.name));
    let pgolden_digest = pgolden.memory().state_digest();

    let mut pfirst = Machine::new(sys.clone(), kind);
    let mut pcursor = RunCursor::default();
    let mut psnap = None;
    let one = ParallelConfig::with_threads(1);
    pfirst
        .run_from(&program, Some(&one), &mut pcursor, |m, c| {
            if c.next_phase == resume_at {
                psnap = Some(m.checkpoint(&program, *c));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{}/{kind} parallel run_from failed: {e}", w.name));
    let (mut presumed, mut prc) = Machine::resume(&psnap.expect("parallel snapshot"), &program)
        .unwrap_or_else(|e| panic!("{}/{kind}: {e}", w.name));
    let eight = ParallelConfig::with_threads(8);
    let presumed_report = presumed
        .run_from(&program, Some(&eight), &mut prc, |_, _| Ok(()))
        .unwrap_or_else(|e| panic!("{}/{kind} parallel resumed run failed: {e}", w.name));
    if presumed_report != pgolden_report {
        failures.push(format!(
            "{}/{kind}: parallel resumed report (8 threads) diverged from \
             straight-through (1 thread)",
            w.name
        ));
    }
    if presumed.memory().state_digest() != pgolden_digest {
        failures.push(format!(
            "{}/{kind}: parallel resumed digest diverged",
            w.name
        ));
    }
    failures
}

#[test]
fn resume_equals_straight_through_across_the_matrix() {
    let matrix = suite::all().into_iter().flat_map(|w| {
        w.set
            .figure_kinds()
            .iter()
            .map(move |&kind| (w, kind, w.set.system_config()))
    });
    let grid = bench::ablation::grid().into_iter().map(|cell| {
        let w = suite::by_name(cell.workload).expect("registered");
        (w, cell.kind, cell.sys)
    });
    let cells: Vec<(suite::Workload, MemConfigKind, SystemConfig)> = matrix.chain(grid).collect();
    let pool = JobPool::new(bench::cli::default_threads());
    let jobs: Vec<_> = cells
        .iter()
        .map(|(w, kind, sys)| move || check_cell(w, *kind, sys))
        .collect();
    let failures: Vec<String> = pool.run(jobs).into_iter().flat_map(|r| r.value).collect();
    assert!(
        failures.is_empty(),
        "resume==straight-through violated in {} cell check(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A small real snapshot to damage in the store tests.
fn real_snapshot() -> (Snapshot, gpu::program::Program, SystemConfig) {
    let w = suite::micros()[0];
    let sys = w.set.system_config();
    let program = (w.build)(MemConfigKind::Stash);
    let mut machine = Machine::new(sys.clone(), MemConfigKind::Stash);
    let mut cursor = RunCursor::default();
    let mut snap = None;
    machine
        .run_from(&program, None, &mut cursor, |m, c| {
            if snap.is_none() {
                snap = Some(m.checkpoint(&program, *c));
            }
            Ok(())
        })
        .unwrap();
    (snap.unwrap(), program, sys)
}

#[test]
fn truncated_and_corrupt_snapshots_are_rejected_with_fallback() {
    let (snap, program, _sys) = real_snapshot();
    let dir = std::env::temp_dir().join(format!("stash-ckpt-reject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();

    let good_seq = store.save(&snap).unwrap();
    let torn_seq = store.save(&snap).unwrap();
    let flipped_seq = store.save(&snap).unwrap();

    // Tear the middle file, flip a payload byte in the newest.
    let bytes = std::fs::read(store.path_for(torn_seq)).unwrap();
    std::fs::write(store.path_for(torn_seq), &bytes[..bytes.len() / 3]).unwrap();
    let mut flipped = std::fs::read(store.path_for(flipped_seq)).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(store.path_for(flipped_seq), &flipped).unwrap();

    // Direct reads report corruption, not version trouble.
    for seq in [torn_seq, flipped_seq] {
        match read_snapshot(&store.path_for(seq)) {
            Err(SimError::CheckpointCorrupt { .. }) => {}
            other => panic!("damaged ckpt-{seq:04} must be CheckpointCorrupt, got {other:?}"),
        }
    }

    // The store falls back to the oldest intact snapshot, reporting both
    // rejects, and the survivor still resumes.
    let (seq, recovered, rejected) = store.latest_valid().expect("good snapshot survives");
    assert_eq!(seq, good_seq);
    assert_eq!(
        rejected.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![flipped_seq, torn_seq],
        "rejects reported newest-first"
    );
    let (_, cursor) = Machine::resume(&recovered, &program).expect("survivor resumes");
    assert_eq!(cursor.next_phase, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A round trip would pass a format change that reads back what it
/// writes, so the bytes themselves are pinned: the FNV-1a of the first
/// micro snapshot ([`real_snapshot`]) and of lud on StashG at its 23rd of
/// 46 barriers. Both values come from a build that wrote every word tag
/// and word state one byte at a time, so a bulk append that changes a
/// byte fails here.
#[test]
fn snapshot_bytes_are_pinned() {
    let (snap, _, _) = real_snapshot();
    assert_eq!(sim::snapshot::fnv1a(&snap.to_bytes()), REAL_SNAPSHOT_FNV);

    let w = suite::all().into_iter().find(|w| w.name == "lud").unwrap();
    let kind = MemConfigKind::StashG;
    let program = (w.build)(kind);
    let mut machine = Machine::new(w.set.system_config(), kind);
    let mut cursor = RunCursor::default();
    let (mut barriers, mut mid) = (0, None);
    machine
        .run_from(&program, None, &mut cursor, |m, c| {
            barriers += 1;
            if barriers == 23 {
                mid = Some(m.checkpoint(&program, *c));
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(barriers, 46);
    let mid = mid.unwrap().to_bytes();
    assert_eq!(sim::snapshot::fnv1a(&mid), LUD_STASHG_MID_FNV);
}

const REAL_SNAPSHOT_FNV: u64 = 6_813_311_847_518_519_250;
const LUD_STASHG_MID_FNV: u64 = 1_545_791_600_191_766_630;

#[test]
fn future_format_version_is_a_version_mismatch_not_corruption() {
    let (snap, _, _) = real_snapshot();
    let bytes = snap.to_bytes();
    // A newer format; version 3, which wrote the memory-system switches
    // apart from the configuration; version 2, whose memory-system
    // section repeated the geometry in every structure; and version 1,
    // whose META fingerprint hashed the program's debug text. An old
    // file is not damage.
    for version in [sim::snapshot::FORMAT_VERSION + 1, 3, 2, 1] {
        let mut patched = bytes.clone();
        // Version lives at offset 8 (after the 8-byte magic), LE u32.
        patched[8..12].copy_from_slice(&version.to_le_bytes());
        match Snapshot::from_bytes(&patched) {
            Err(SimError::CheckpointVersionMismatch { found, expected }) => {
                assert_eq!(expected, sim::snapshot::FORMAT_VERSION);
                assert_eq!(found, version);
            }
            other => panic!("version {version}: expected CheckpointVersionMismatch, got {other:?}"),
        }
    }
}

/// A crafted section payload restored into a structure built from the
/// paper's configuration, its result reduced to ok-or-error.
type Restore = fn(&mut Reader<'_>) -> Result<(), SimError>;

/// A section payload of little-endian `u64` fields, as `Writer` lays
/// out counts.
fn fields(values: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    for &v in values {
        w.put_u64(v);
    }
    w.into_bytes()
}

/// Restore functions must not trust a declared count: a few bytes that
/// claim 2^40 entries must come back as a typed error or a small `Ok`,
/// never a multi-terabyte reservation that aborts the process. The CRC
/// cannot stop this — whoever writes a snapshot file can also write a
/// valid CRC. Each payload goes to a structure built with the paper's
/// geometry, the way `MemorySystem::restore` builds them.
#[test]
fn crafted_section_counts_never_drive_unbounded_allocation() {
    let huge = 1u64 << 40;
    let traffic = [0u64; 9];
    let network = |side: u64, n: u64| {
        let mut v = vec![side, 5, 5];
        v.extend_from_slice(&traffic);
        v.push(n);
        fields(&v)
    };
    // A fresh stash ends with two zero counts (thread-block tables, then
    // corrupt words); swap in a huge table count.
    let mut w = Writer::new();
    stash::Stash::new(stash::StashConfig::default()).save(&mut w);
    let mut stash_tables = w.into_bytes();
    stash_tables.truncate(stash_tables.len() - 16);
    stash_tables.extend_from_slice(&fields(&[huge]));
    let cases: Vec<(&'static str, Restore, Vec<u8>)> = vec![
        (
            "vp map",
            |r| stash::vpmap::VpMap::new(64, 4096).restore(r),
            fields(&[huge, 4096, huge]),
        ),
        (
            "map index table",
            |r| stash::index_table::MapIndexTable::new(4).restore(r),
            fields(&[1 << 44, 0]),
        ),
        (
            "stash storage",
            |r| stash::storage::StashStorage::new(16 * 1024, 64).restore(r),
            fields(&[1, huge]),
        ),
        (
            "denovo l1",
            |r| mem::cache::DenovoCache::new(32 * 1024, 8, 64).restore(r),
            fields(&[1 << 20, 1 << 20, 64, huge]),
        ),
        (
            "denovo l1 overflow",
            |r| mem::cache::DenovoCache::new(32 * 1024, 8, 64).restore(r),
            fields(&[1 << 32, 1 << 32, 64, 0]),
        ),
        (
            "network",
            |r| noc::Network::new(noc::Mesh::new(4), 5).restore(r),
            network(1 << 20, huge),
        ),
        (
            "stash tables",
            |r| stash::Stash::new(stash::StashConfig::default()).restore(r),
            stash_tables,
        ),
        (
            "network overflow",
            |r| noc::Network::new(noc::Mesh::new(4), 5).restore(r),
            network((1 << 32) + 1, (1 << 32) + 1),
        ),
        (
            "llc slots",
            |r| mem::llc::Llc::new(16, 64).restore(r, 16, 1, 64),
            fields(&[huge, huge]),
        ),
        (
            "llc word tags",
            |r| mem::llc::Llc::new(16, 64).restore(r, 16, 1, 64),
            fields(&[0, huge]),
        ),
    ];
    for (what, restore, bytes) in cases {
        match restore(&mut Reader::new(&bytes, what)) {
            Ok(()) | Err(SimError::CheckpointCorrupt { .. }) => {}
            Err(other) => panic!("{what}: expected CheckpointCorrupt, got {other:?}"),
        }
    }
}

/// The configuration is the only source of sizes, so a CRC-valid
/// snapshot whose configuration claims 2^40 CPU cores must fail
/// validation before anything is built from it. The bytes after the
/// configuration are what a reader that trusted counts took for a 4x4
/// network, an empty LLC and 2^40 + 1 L1s, a reservation of 88 TiB.
#[test]
fn a_configuration_claiming_2_40_cores_is_corrupt_not_an_abort() {
    let (snap, program, sys) = real_snapshot();
    let mut w = Writer::new();
    SystemConfig {
        cpu_cores: 1 << 40,
        ..sys
    }
    .save(&mut w);
    w.put_u8(MemConfigKind::Stash.code());
    let network = [[4, 5, 5].as_slice(), &[0; 9], &[16], &[0; 16]].concat();
    let llc = [16, 64, 1, 0, 0, 0, 0, 0];
    for v in [network.as_slice(), &llc, &[(1 << 40) + 1]].concat() {
        w.put_u64(v);
    }
    let mut crafted = Snapshot::new();
    let meta = snap.section(gpu::machine::SECTION_META, "META").unwrap();
    crafted.push_section(gpu::machine::SECTION_META, meta.to_vec());
    crafted.push_section(gpu::machine::SECTION_MSYS, w.into_bytes());
    let reread = Snapshot::from_bytes(&crafted.to_bytes()).expect("CRC-valid");
    match Machine::resume(&reread, &program) {
        Err(SimError::CheckpointCorrupt { .. }) => {}
        Err(other) => panic!("expected CheckpointCorrupt, got {other:?}"),
        Ok(_) => panic!("a 2^40-core configuration resumed"),
    }
}

/// A CRC-valid snapshot whose LLC registry names an owner the machine
/// lacks must not resume: the first forward or invalidation would index
/// that owner's L1 or stash out of bounds. The snapshot is a real one
/// with one registration re-pointed at core 1000.
#[test]
fn a_registration_naming_a_missing_core_is_corrupt_not_a_panic() {
    let (snap, program, sys) = real_snapshot();
    let msys = snap.section(gpu::machine::SECTION_MSYS, "MSYS").unwrap();
    let cores = sys.gpu_cus + sys.cpu_cores;
    // Walk the payload with the restore entry points up to and through
    // the LLC, so the splice needs no knowledge of their byte layout.
    let mut r = Reader::new(msys, "MSYS");
    let cfg = SystemConfig::load(&mut r).unwrap();
    let kind = MemConfigKind::from_code(r.take_u8().unwrap()).unwrap();
    assert_eq!(kind, MemConfigKind::Stash);
    let stashes = if cfg.cpu_stashes { cores } else { cfg.gpu_cus };
    noc::Network::new(noc::Mesh::new(cfg.mesh_side), cfg.hop_round_trip_cycles)
        .restore(&mut r)
        .unwrap();
    let llc_start = msys.len() - r.remaining();
    let mut llc =
        mem::llc::Llc::with_interleave(cfg.l2_banks, cfg.line_bytes, cfg.l2_interleave_lines);
    llc.restore(&mut r, cores, stashes, cfg.stash_map_entries)
        .unwrap();
    let llc_end = msys.len() - r.remaining();

    let (line, word, _) = llc.registered_words()[0];
    llc.register_word(
        line,
        word,
        mem::llc::Registration::Cache(mem::llc::CoreId(1000)),
    );
    let mut w = Writer::new();
    llc.save(&mut w);
    let payload = [&msys[..llc_start], &w.into_bytes(), &msys[llc_end..]].concat();
    let mut crafted = Snapshot::new();
    let meta = snap.section(gpu::machine::SECTION_META, "META").unwrap();
    crafted.push_section(gpu::machine::SECTION_META, meta.to_vec());
    crafted.push_section(gpu::machine::SECTION_MSYS, payload);
    let reread = Snapshot::from_bytes(&crafted.to_bytes()).expect("CRC-valid");
    match Machine::resume(&reread, &program) {
        Err(SimError::CheckpointCorrupt { .. }) => {}
        Err(other) => panic!("expected CheckpointCorrupt, got {other:?}"),
        Ok(_) => panic!("a registration to core 1000 resumed"),
    }
}
