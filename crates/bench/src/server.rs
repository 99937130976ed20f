//! The resident simulation daemon core (`stashd`).
//!
//! A daemon process keeps lowered [`Program`] IRs **resident** across
//! requests and memoizes finished results in a **content-addressed
//! cache**, so a repeated request costs a key lookup instead of a
//! process start, a lowering, and a simulation. The protocol is
//! line-delimited JSON over stdin/stdout or a Unix-domain socket — no
//! network dependencies (see `DESIGN.md` §16 for the full grammar).
//!
//! # Cache key
//!
//! A result is addressed by the canonical byte string built in
//! [`Server::request_key`]: the compiled-in [`CODE_VERSION`], the
//! request kind, the structural fingerprint of every lowered program the
//! request touches, the [`sim::config::SystemConfig::stable_hash`] of
//! every machine it runs, and the request's own parameters (seeds,
//! configuration names, inline trace text). Anything that could change
//! the answer is in the key, so a hit is — by construction and by test
//! (`tests/server_cache.rs`) — byte-identical to recomputation.
//!
//! # Entry format
//!
//! Disk entries reuse the checkpoint container ([`Snapshot`]): a `RQKY`
//! section holding the full key bytes (verified on every hit, so an FNV
//! collision reads as a miss, never a wrong answer) and a `RSLT`
//! section holding the payload. Each section carries the container's
//! CRC-32, so a corrupted entry is *detected*, dropped, and recomputed
//! — the same damage discipline as `sim::snapshot` checkpoints.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use sim::snapshot::{fnv1a, write_atomic, Snapshot, Writer};
use workloads::suite::{self, Workload};

use crate::chaos::{self, Seeds};
use crate::cli::json_escape;
use crate::json::Value;
use crate::pool::JobPool;
use crate::{csv_bytes, MatrixRow};

/// The code-version string baked into every cache key. Bumping the
/// crate version (or this protocol suffix) invalidates every cached
/// result, because a different build may compute different bytes.
pub const CODE_VERSION: &str = concat!("stash-repro/", env!("CARGO_PKG_VERSION"), "/proto2");

/// Tag of the cache-entry section holding the full request key bytes.
pub const TAG_KEY: u32 = u32::from_le_bytes(*b"RQKY");

/// Tag of the cache-entry section holding the result payload.
pub const TAG_RESULT: u32 = u32::from_le_bytes(*b"RSLT");

/// Default bound on disk cache entries before oldest-first eviction.
pub const DEFAULT_CACHE_MAX: usize = 512;

/// Longest request line the daemon reads, newline excluded (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next request line from `input` and buffers at most `cap`
/// bytes of it. Returns `None` at the end of input, `Some(Ok(line))`
/// for a line of at most `cap` bytes of UTF-8 (its `\n` or `\r\n`
/// removed), and `Some(Err(message))` for a longer line or one that is
/// not UTF-8. Either way the next call starts after the line's newline.
///
/// # Errors
///
/// Propagates a read error from `input`.
pub fn read_line(
    input: &mut impl std::io::BufRead,
    cap: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    let mut too_long = false;
    let mut ended = false;
    let mut read_any = false;
    while !ended {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let (body, used) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                ended = true;
                (&chunk[..i], i + 1)
            }
            None => (chunk, chunk.len()),
        };
        if too_long || line.len() + body.len() > cap {
            too_long = true;
            line = Vec::new();
        } else {
            line.extend_from_slice(body);
        }
        input.consume(used);
    }
    if !read_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Err(format!("request line longer than {cap} bytes"))));
    }
    if ended && line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(String::from_utf8(line).map_err(|_| {
        "request line is not valid UTF-8".to_string()
    })))
}

/// The 16-hex-digit content address of a key byte string.
pub fn key_hex(key: &[u8]) -> String {
    format!("{:016x}", fnv1a(key))
}

/// One parsed daemon request (the `cmd` line minus its `id`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The Figure 5 microbenchmark matrix as CSV.
    Fig5,
    /// The Figure 6 application matrix as CSV.
    Fig6,
    /// Access-pattern notes, measured runtimes and the measured-best
    /// configuration for one suite workload's figure row.
    Advise {
        /// Registry name of the workload.
        workload: String,
    },
    /// A fault-injection chaos campaign over one suite workload's
    /// figure matrix.
    Chaos {
        /// Registry name of the workload.
        workload: String,
        /// The fault seeds to run.
        seeds: Seeds,
    },
    /// An inline trace run across a configuration list.
    RunTrace {
        /// The trace file text, inline.
        trace: String,
        /// Configurations to run (empty was rejected at parse).
        kinds: Vec<MemConfigKind>,
    },
}

impl Request {
    /// The wire name of this request kind.
    pub fn cmd_name(&self) -> &'static str {
        match self {
            Request::Fig5 => "fig5",
            Request::Fig6 => "fig6",
            Request::Advise { .. } => "advise",
            Request::Chaos { .. } => "chaos",
            Request::RunTrace { .. } => "run-trace",
        }
    }
}

/// Resolves a configuration name case-insensitively, without exiting
/// the process (unlike `cli::config_by_name`, which wraps it — a daemon
/// answers bad requests with an error event and keeps serving).
pub fn config_named(name: &str) -> Option<MemConfigKind> {
    MemConfigKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

/// Parses one request object (already JSON-decoded). The `id` member is
/// the transport's concern; this validates the command and its
/// parameters against the workload/configuration registries.
///
/// # Errors
///
/// Returns a human-readable message for the `error` event: unknown
/// command, missing parameter, or unknown workload/configuration name.
pub fn parse_request(v: &Value) -> Result<Request, String> {
    let cmd = v
        .get_str("cmd")
        .ok_or_else(|| "request object needs a string \"cmd\" member".to_string())?;
    match cmd {
        "fig5" => Ok(Request::Fig5),
        "fig6" => Ok(Request::Fig6),
        "advise" => {
            let workload = named_workload(v)?;
            Ok(Request::Advise { workload })
        }
        "chaos" => {
            let workload = named_workload(v)?;
            let seed = optional_u64(v, "seed", 1)?;
            let count = optional_u64(v, "seeds", 2)?.clamp(1, 64);
            let seeds = Seeds::new(seed, count).map_err(|e| format!("chaos: {e}"))?;
            Ok(Request::Chaos { workload, seeds })
        }
        "run-trace" => {
            let trace = v
                .get_str("trace")
                .ok_or_else(|| "run-trace needs an inline \"trace\" string".to_string())?
                .to_string();
            let kinds = match v.get("configs") {
                None => MemConfigKind::ALL.to_vec(),
                Some(list) => {
                    let names = list
                        .as_arr()
                        .ok_or_else(|| "\"configs\" must be an array of names".to_string())?;
                    let mut kinds = Vec::new();
                    for n in names {
                        let name = n
                            .as_str()
                            .ok_or_else(|| "\"configs\" must be an array of names".to_string())?;
                        kinds.push(config_named(name).ok_or_else(|| {
                            format!("unknown configuration {name:?} in \"configs\"")
                        })?);
                    }
                    if kinds.is_empty() {
                        return Err("\"configs\" must not be empty".to_string());
                    }
                    kinds
                }
            };
            Ok(Request::RunTrace { trace, kinds })
        }
        other => Err(format!(
            "unknown command {other:?} (expected fig5, fig6, advise, chaos, run-trace, \
             stats, or shutdown)"
        )),
    }
}

/// An optional integer member: `default` when absent, an error when
/// present but not an integer a JSON number holds exactly.
fn optional_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    v.get(key).map_or(Ok(default), |n| {
        n.as_u64()
            .ok_or_else(|| format!("\"{key}\" must be an integer in 0..=2^53"))
    })
}

fn named_workload(v: &Value) -> Result<String, String> {
    let name = v
        .get_str("workload")
        .ok_or_else(|| "request needs a \"workload\" name".to_string())?;
    if suite::by_name(name).is_none() {
        return Err(format!("unknown workload {name:?}"));
    }
    Ok(name.to_string())
}

/// Cache traffic counters, reported by the `stats` command.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Disk entries dropped because validation failed (CRC damage,
    /// framing damage, or a key mismatch under an FNV collision).
    pub corrupt_dropped: u64,
}

/// A two-layer content-addressed result cache: an in-memory map in
/// front of an optional on-disk directory of [`Snapshot`]-framed
/// entries named by the key's FNV-64 address.
#[derive(Debug)]
pub struct ResultCache {
    enabled: bool,
    dir: Option<PathBuf>,
    max_entries: usize,
    mem: HashMap<Vec<u8>, String>,
    /// Traffic counters.
    pub stats: CacheStats,
}

impl ResultCache {
    /// A memory-only cache (no persistence across daemon restarts).
    pub fn in_memory() -> Self {
        ResultCache {
            enabled: true,
            dir: None,
            max_entries: DEFAULT_CACHE_MAX,
            mem: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// A disk-backed cache rooted at `dir` (created if missing),
    /// bounded to `max_entries` files with oldest-mtime-first eviction.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn on_disk(dir: &Path, max_entries: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            enabled: true,
            dir: Some(dir.to_path_buf()),
            max_entries: max_entries.max(1),
            mem: HashMap::new(),
            stats: CacheStats::default(),
        })
    }

    /// A cache that never hits and never stores (`--no-cache`).
    pub fn disabled() -> Self {
        ResultCache {
            enabled: false,
            ..ResultCache::in_memory()
        }
    }

    fn entry_path(dir: &Path, key: &[u8]) -> PathBuf {
        dir.join(format!("{}.rc", key_hex(key)))
    }

    /// Looks the key up (memory first, then disk). A disk entry that
    /// fails validation — torn frame, CRC mismatch, or stored key bytes
    /// differing from `key` — is dropped and reads as a miss: damage is
    /// recomputed, never served.
    pub fn lookup(&mut self, key: &[u8]) -> Option<String> {
        if !self.enabled {
            return None;
        }
        if let Some(payload) = self.mem.get(key) {
            self.stats.hits += 1;
            return Some(payload.clone());
        }
        if let Some(dir) = self.dir.clone() {
            let path = Self::entry_path(&dir, key);
            if path.exists() {
                match Self::read_entry(&path, key) {
                    Ok(payload) => {
                        self.stats.hits += 1;
                        self.mem.insert(key.to_vec(), payload.clone());
                        return Some(payload);
                    }
                    Err(_) => {
                        self.stats.corrupt_dropped += 1;
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    fn read_entry(path: &Path, key: &[u8]) -> Result<String, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let stored = snap
            .section(TAG_KEY, "cache entry key")
            .map_err(|e| e.to_string())?;
        if stored != key {
            return Err("stored key differs (FNV address collision)".to_string());
        }
        let payload = snap
            .section(TAG_RESULT, "cache entry payload")
            .map_err(|e| e.to_string())?;
        String::from_utf8(payload.to_vec()).map_err(|e| e.to_string())
    }

    /// Stores a computed payload under `key` (memory + disk, both
    /// best-effort: a full disk never fails a request).
    pub fn store(&mut self, key: &[u8], payload: &str) {
        if !self.enabled {
            return;
        }
        if self.mem.len() >= self.max_entries.max(1) * 2 {
            // The in-memory layer flushes wholesale when it doubles the
            // disk bound; the disk layer below is the durable tier.
            self.mem.clear();
        }
        self.mem.insert(key.to_vec(), payload.to_string());
        if let Some(dir) = self.dir.clone() {
            let mut snap = Snapshot::new();
            snap.push_section(TAG_KEY, key.to_vec());
            snap.push_section(TAG_RESULT, payload.as_bytes().to_vec());
            let _ = write_atomic(&Self::entry_path(&dir, key), &snap.to_bytes());
            self.evict(&dir);
        }
    }

    /// Oldest-mtime-first eviction down to `max_entries` files.
    fn evict(&self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "rc"))
            .filter_map(|e| {
                let t = e.metadata().ok()?.modified().ok()?;
                Some((t, e.path()))
            })
            .collect();
        if files.len() <= self.max_entries {
            return;
        }
        files.sort();
        let excess = files.len() - self.max_entries;
        for (_, path) in files.into_iter().take(excess) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Number of entries currently resident in the memory layer.
    pub fn resident_entries(&self) -> usize {
        self.mem.len()
    }
}

/// One computed work unit inside a request's plan.
enum Unit {
    /// A simulated matrix cell.
    Report(Box<RunReport>),
    /// A self-contained rendered fragment.
    Text(String),
    /// The static analyzer's notes for an advise request.
    Notes(Vec<verify::Note>),
}

type Job = Box<dyn FnOnce() -> Result<Unit, String> + Send>;
type Assemble = Box<dyn FnOnce(Vec<Unit>) -> Result<String, String>>;

/// A planned computation: independent pool jobs plus the closure that
/// assembles their outputs into the request's payload text.
struct Plan {
    jobs: Vec<Job>,
    assemble: Assemble,
}

/// How one request in a batch resolved before/after computation.
enum Pending {
    Done {
        key: Vec<u8>,
        payload: String,
    },
    Failed(String),
    Computing {
        key: Vec<u8>,
        assemble: Assemble,
        jobs: usize,
    },
}

/// The daemon core: resident programs, the result cache, and the batch
/// executor. Transports (stdin/stdout, Unix socket) live in the
/// `stashd` binary; this type is transport-agnostic and fully testable
/// in-process.
pub struct Server {
    pool: JobPool,
    cache: ResultCache,
    programs: HashMap<(String, MemConfigKind), (Arc<Program>, u64)>,
}

impl Server {
    /// Creates a server with `threads` pool workers and `cache`.
    pub fn new(threads: usize, cache: ResultCache) -> Self {
        Server {
            pool: JobPool::new(threads),
            cache,
            programs: HashMap::new(),
        }
    }

    /// The cache (for stats reporting).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Number of lowered programs held resident.
    pub fn resident_programs(&self) -> usize {
        self.programs.len()
    }

    /// The resident lowered program for `(workload, kind)`, lowering on
    /// first use and holding the IR for every later request.
    fn resident(&mut self, w: &Workload, kind: MemConfigKind) -> Arc<Program> {
        self.resident_entry(w, kind).0
    }

    /// Resident program plus its structural fingerprint. The fingerprint is
    /// computed once at lowering time so cache-key derivation on the
    /// hit path costs a map probe, not a rehash of the whole IR.
    fn resident_entry(&mut self, w: &Workload, kind: MemConfigKind) -> (Arc<Program>, u64) {
        self.programs
            .entry((w.name.to_string(), kind))
            .or_insert_with(|| {
                let program = Arc::new((w.build)(kind));
                let fingerprint = gpu::machine::program_fingerprint(&program);
                (program, fingerprint)
            })
            .clone()
    }

    /// The canonical cache-key bytes for `req` under the compiled-in
    /// [`CODE_VERSION`].
    ///
    /// # Errors
    ///
    /// Fails when the request's inputs cannot be resolved (an inline
    /// trace that does not parse, a workload no longer registered).
    pub fn request_key(&mut self, req: &Request) -> Result<Vec<u8>, String> {
        self.request_key_versioned(CODE_VERSION, req)
    }

    /// [`Server::request_key`] with an explicit version string — the
    /// test seam proving a code-version bump misses the cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Server::request_key`].
    pub fn request_key_versioned(
        &mut self,
        version: &str,
        req: &Request,
    ) -> Result<Vec<u8>, String> {
        let mut w = Writer::new();
        w.put_str(version);
        w.put_str(req.cmd_name());
        match req {
            Request::Fig5 => {
                self.key_matrix(&mut w, &suite::micros(), &MemConfigKind::FIGURE5);
            }
            Request::Fig6 => {
                self.key_matrix(&mut w, &suite::applications(), &MemConfigKind::FIGURE6);
            }
            Request::Advise { workload } => {
                let wl = lookup_workload(workload)?;
                self.key_matrix(&mut w, &[wl], wl.set.figure_kinds());
            }
            Request::Chaos { workload, seeds } => {
                let wl = lookup_workload(workload)?;
                self.key_matrix(&mut w, &[wl], wl.set.figure_kinds());
                w.put_u64(seeds.first());
                w.put_u64(seeds.count());
            }
            Request::RunTrace { trace, kinds } => {
                let tw = workloads::trace::parse_trace(trace)
                    .map_err(|e| format!("trace does not parse: {e}"))?;
                w.put_u64(tw.set().system_config().stable_hash());
                w.put_str(trace);
                for k in kinds {
                    w.put_str(k.name());
                }
            }
        }
        Ok(w.into_bytes())
    }

    /// Writes the program fingerprints and machine-configuration hashes
    /// of a `(workloads × kinds)` matrix into the key.
    fn key_matrix(&mut self, w: &mut Writer, workloads: &[Workload], kinds: &[MemConfigKind]) {
        for wl in workloads {
            w.put_str(wl.name);
            w.put_u64(wl.set.system_config().stable_hash());
            for &kind in kinds {
                w.put_str(kind.name());
                w.put_u64(self.resident_entry(wl, kind).1);
            }
        }
    }

    fn plan(&mut self, req: &Request) -> Result<Plan, String> {
        match req {
            Request::Fig5 => Ok(self.plan_matrix(suite::micros(), &MemConfigKind::FIGURE5)),
            Request::Fig6 => Ok(self.plan_matrix(suite::applications(), &MemConfigKind::FIGURE6)),
            Request::Advise { workload } => {
                let wl = lookup_workload(workload)?;
                Ok(self.plan_advise(wl))
            }
            Request::Chaos { workload, seeds } => {
                let wl = lookup_workload(workload)?;
                Ok(plan_chaos(wl, *seeds))
            }
            Request::RunTrace { trace, kinds } => plan_trace(trace, kinds),
        }
    }

    /// A figure matrix: one pool job per `(workload, configuration)`
    /// cell over resident programs; the payload is the figure's CSV
    /// (identical bytes to the `fig5`/`fig6` binaries' `--csv` output).
    fn plan_matrix(&mut self, workloads: Vec<Workload>, kinds: &'static [MemConfigKind]) -> Plan {
        let mut jobs: Vec<Job> = Vec::new();
        for wl in &workloads {
            let sys = wl.set.system_config();
            for &kind in kinds {
                let program = self.resident(wl, kind);
                let sys = sys.clone();
                jobs.push(Box::new(move || {
                    let mut machine = Machine::new(sys, kind);
                    machine
                        .run(&program)
                        .map(|r| Unit::Report(Box::new(r)))
                        .map_err(|e| e.to_string())
                }));
            }
        }
        let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
        Plan {
            jobs,
            assemble: Box::new(move |units| {
                let mut it = units.into_iter();
                let mut rows = Vec::new();
                for &name in &names {
                    let mut reports = Vec::new();
                    for &k in kinds {
                        let Some(Unit::Report(r)) = it.next() else {
                            return Err("internal: unit shape mismatch".to_string());
                        };
                        reports.push((k, *r));
                    }
                    rows.push(MatrixRow {
                        workload: name,
                        reports,
                    });
                }
                Ok(csv_bytes(&rows, kinds))
            }),
        }
    }

    /// Advise: the static notes as one job, the measured figure row as
    /// one job per configuration; assembly picks the fastest cell.
    fn plan_advise(&mut self, wl: Workload) -> Plan {
        let sys = wl.set.system_config();
        let kinds = wl.set.figure_kinds();
        let build = wl.build;
        let mut jobs: Vec<Job> = Vec::new();
        jobs.push(Box::new({
            let sys = sys.clone();
            move || {
                let symbols = verify::Symbols::new();
                Ok(Unit::Notes(verify::workload_notes(
                    build, &sys, kinds, &symbols,
                )))
            }
        }));
        for &kind in kinds {
            let program = self.resident(&wl, kind);
            let sys = sys.clone();
            jobs.push(Box::new(move || {
                let mut machine = Machine::new(sys, kind);
                machine
                    .run(&program)
                    .map(|r| Unit::Report(Box::new(r)))
                    .map_err(|e| e.to_string())
            }));
        }
        let name = wl.name;
        Plan {
            jobs,
            assemble: Box::new(move |units| {
                let mut it = units.into_iter();
                let Some(Unit::Notes(notes)) = it.next() else {
                    return Err("internal: unit shape mismatch".to_string());
                };
                let mut measured = Vec::new();
                for &kind in kinds {
                    let Some(Unit::Report(r)) = it.next() else {
                        return Err("internal: unit shape mismatch".to_string());
                    };
                    measured.push((kind, r.total_picos));
                }
                Ok(render_advise(name, &notes, &measured))
            }),
        }
    }

    /// Runs a whole batch: cache lookups first, then every miss's jobs
    /// as one pooled batch (so concurrent requests share the workers),
    /// streaming `progress` events while simulating and emitting one
    /// `result`/`error` event per request in input order.
    ///
    /// Every failure mode — bad request, failed simulation, panicking
    /// job — becomes an `error` event; the daemon never aborts.
    pub fn handle_batch(&mut self, batch: &[(u64, Request)], emit: &mut dyn FnMut(&str)) {
        let mut all_jobs: Vec<(usize, Job)> = Vec::new();
        let mut pending: Vec<Pending> = Vec::new();
        for (i, (_, req)) in batch.iter().enumerate() {
            match self.request_key(req) {
                Err(e) => pending.push(Pending::Failed(e)),
                Ok(key) => {
                    if let Some(payload) = self.cache.lookup(&key) {
                        pending.push(Pending::Done { key, payload });
                        // Cached results still announce themselves once
                        // below; no progress events for a pure lookup.
                        continue;
                    }
                    match self.plan(req) {
                        Err(e) => pending.push(Pending::Failed(e)),
                        Ok(plan) => {
                            let jobs = plan.jobs.len();
                            for job in plan.jobs {
                                all_jobs.push((i, job));
                            }
                            pending.push(Pending::Computing {
                                key,
                                assemble: plan.assemble,
                                jobs,
                            });
                        }
                    }
                }
            }
        }

        let units = self.run_jobs(batch, &pending, all_jobs, emit);

        let mut unit_iter = units.into_iter();
        for ((id, req), state) in batch.iter().zip(pending) {
            let cmd = req.cmd_name();
            match state {
                Pending::Done { key, payload } => {
                    emit(&result_event(*id, cmd, true, &key, &payload));
                }
                Pending::Failed(e) => emit(&error_event(*id, cmd, &e)),
                Pending::Computing {
                    key,
                    assemble,
                    jobs,
                } => {
                    let collected: Result<Vec<Unit>, String> =
                        unit_iter.by_ref().take(jobs).collect();
                    match collected.and_then(assemble) {
                        Ok(payload) => {
                            self.cache.store(&key, &payload);
                            emit(&result_event(*id, cmd, false, &key, &payload));
                        }
                        Err(e) => emit(&error_event(*id, cmd, &e)),
                    }
                }
            }
        }
    }

    /// Runs the concatenated miss jobs on the pool while the calling
    /// thread streams per-request `progress` events from a channel the
    /// jobs tick on completion.
    fn run_jobs(
        &self,
        batch: &[(u64, Request)],
        pending: &[Pending],
        all_jobs: Vec<(usize, Job)>,
        emit: &mut dyn FnMut(&str),
    ) -> Vec<Result<Unit, String>> {
        if all_jobs.is_empty() {
            return Vec::new();
        }
        let totals: HashMap<usize, usize> = pending
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Pending::Computing { jobs, .. } => Some((i, *jobs)),
                _ => None,
            })
            .collect();
        let pool = self.pool;
        let (tx, rx) = mpsc::channel::<usize>();
        let raw = std::thread::scope(|scope| {
            let jobs: Vec<_> = all_jobs
                .into_iter()
                .map(|(ri, job)| {
                    let tx = tx.clone();
                    move || {
                        let out = job();
                        let _ = tx.send(ri);
                        out
                    }
                })
                .collect();
            drop(tx);
            let handle = scope.spawn(move || pool.run_catching(jobs));
            let mut done: HashMap<usize, usize> = HashMap::new();
            for ri in rx {
                let d = done.entry(ri).or_insert(0);
                *d += 1;
                emit(&format!(
                    "{{\"event\":\"progress\",\"id\":{},\"done\":{},\"total\":{}}}",
                    batch[ri].0,
                    d,
                    totals.get(&ri).copied().unwrap_or(0),
                ));
            }
            handle.join()
        });
        match raw {
            Ok(results) => results
                .into_iter()
                .map(|r| match r {
                    Ok(job) => job.value,
                    Err(p) => Err(format!("job panicked: {}", p.message)),
                })
                .collect(),
            // The pool thread itself died (not a job — those are
            // caught). Shape-mismatch errors surface per request.
            Err(_) => Vec::new(),
        }
    }

    /// The `stats` event line.
    pub fn stats_event(&self) -> String {
        let s = self.cache.stats;
        format!(
            "{{\"event\":\"stats\",\"code_version\":\"{}\",\"threads\":{},\
             \"resident_programs\":{},\"cache_entries\":{},\"hits\":{},\"misses\":{},\
             \"corrupt_dropped\":{}}}",
            json_escape(CODE_VERSION),
            self.pool.threads(),
            self.programs.len(),
            self.cache.resident_entries(),
            s.hits,
            s.misses,
            s.corrupt_dropped,
        )
    }
}

fn lookup_workload(name: &str) -> Result<Workload, String> {
    suite::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Chaos runs as one unit job: `run_campaign` already fans golden and
/// injected runs out internally, but inside a daemon batch it runs
/// serially within its slot so it composes with the shared pool.
fn plan_chaos(wl: Workload, seeds: Seeds) -> Plan {
    let kinds = wl.set.figure_kinds();
    let build = wl.build;
    let sys = wl.set.system_config();
    let name = wl.name.to_string();
    let job: Job = Box::new(move || {
        let target = chaos::Target {
            name,
            sys,
            build: &build,
        };
        let cfg = chaos::CampaignConfig {
            seeds,
            threads: 1,
            verify: false,
            attack: chaos::Attack::Faults {
                resilience: true,
                parity: true,
            },
        };
        let campaign = chaos::run_campaign(&[target], kinds, &cfg)?;
        Ok(Unit::Text(render_campaign(&campaign)))
    });
    Plan {
        jobs: vec![job],
        assemble: Box::new(|units| match units.into_iter().next() {
            Some(Unit::Text(t)) => Ok(t),
            _ => Err("internal: unit shape mismatch".to_string()),
        }),
    }
}

/// An inline trace across a configuration list: one job per
/// configuration, each rendering its own self-contained line.
fn plan_trace(trace: &str, kinds: &[MemConfigKind]) -> Result<Plan, String> {
    let tw = Arc::new(
        workloads::trace::parse_trace(trace).map_err(|e| format!("trace does not parse: {e}"))?,
    );
    let mut jobs: Vec<Job> = Vec::new();
    for &kind in kinds {
        let tw = Arc::clone(&tw);
        jobs.push(Box::new(move || {
            let mut machine = Machine::new(tw.set().system_config(), kind);
            let report = machine.run(&tw.build(kind)).map_err(|e| e.to_string())?;
            Ok(Unit::Text(format!(
                "config {} time_ps {} energy_fj {} instrs {} flits {} state_digest {:016x}\n",
                kind.name(),
                report.total_picos,
                report.total_energy(),
                report.gpu_instructions,
                report.traffic.total_flits(),
                machine.memory().state_digest(),
            )))
        }));
    }
    let n = kinds.len();
    Ok(Plan {
        jobs,
        assemble: Box::new(move |units| {
            let mut out = format!("trace configs {n}\n");
            for u in units {
                let Unit::Text(line) = u else {
                    return Err("internal: unit shape mismatch".to_string());
                };
                out.push_str(&line);
            }
            Ok(out)
        }),
    })
}

fn render_advise(name: &str, notes: &[verify::Note], measured: &[(MemConfigKind, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("workload {name}\n");
    for note in notes {
        writeln!(out, "note {} {}", note.rule.code(), note.message)
            .expect("writing to String cannot fail");
    }
    for &(kind, picos) in measured {
        writeln!(out, "config {} measured_ps {picos}", kind.name())
            .expect("writing to String cannot fail");
    }
    let recommended = verify::measured_best(measured).map_or("-", MemConfigKind::name);
    writeln!(out, "recommended {recommended}").expect("writing to String cannot fail");
    out
}

fn render_campaign(campaign: &chaos::Campaign) -> String {
    use std::fmt::Write as _;
    let t = campaign.tally();
    let mut out = format!(
        "cells {} recovered {} detected {} escapes {} injected {} retries {}\n",
        t.runs, t.recovered, t.detected, t.escapes, t.counters[0], t.counters[1],
    );
    for c in &campaign.cells {
        let fingerprint = match &c.detail {
            chaos::Detail::Faults { fingerprint, .. } => fingerprint.as_str(),
            chaos::Detail::Crash { .. } => "",
        };
        writeln!(
            out,
            "cell {} {} seed {} {} fp {}",
            c.workload,
            c.kind.name(),
            c.seed,
            c.outcome.label(),
            fnv1a(fingerprint.as_bytes()),
        )
        .expect("writing to String cannot fail");
    }
    out
}

fn result_event(id: u64, cmd: &str, cached: bool, key: &[u8], payload: &str) -> String {
    format!(
        "{{\"event\":\"result\",\"id\":{id},\"cmd\":\"{cmd}\",\"cached\":{cached},\
         \"key\":\"{}\",\"payload\":\"{}\"}}",
        key_hex(key),
        json_escape(payload),
    )
}

/// The `error` event answering request `id`; `cmd` is the request's
/// command name, or `"?"` when the line named none.
pub fn error_event(id: u64, cmd: &str, message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"id\":{id},\"cmd\":\"{}\",\"error\":\"{}\"}}",
        json_escape(cmd),
        json_escape(message),
    )
}

/// The path of a sibling binary of the currently running one (the way
/// the `perfbench` serve workload finds `stashd` without any
/// configuration).
///
/// # Errors
///
/// Propagates `std::env::current_exe` failure.
pub fn sibling_binary(name: &str) -> std::io::Result<PathBuf> {
    let mut path = std::env::current_exe()?;
    path.set_file_name(name);
    Ok(path)
}

/// The hot request templates of the `perfbench` serve workload: every
/// microbenchmark's advise, the Figure 5 matrix, and a small chaos
/// campaign. Each template is a JSON object without an `id`.
pub fn mix_templates() -> Vec<String> {
    let mut t: Vec<String> = suite::micros()
        .iter()
        .map(|w| format!("{{\"cmd\":\"advise\",\"workload\":\"{}\"}}", w.name))
        .collect();
    t.push("{\"cmd\":\"fig5\"}".to_string());
    t.push("{\"cmd\":\"chaos\",\"workload\":\"implicit\",\"seed\":1,\"seeds\":2}".to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn read_line_bounds_each_line_and_resumes_after_it() {
        let input = b"{}\r\n12345\n\xff\xfe\n1234\nlast";
        let mut r = std::io::BufReader::with_capacity(2, &input[..]);
        let mut lines = Vec::new();
        while let Some(line) = read_line(&mut r, 4).unwrap() {
            lines.push(line);
        }
        assert_eq!(
            lines,
            [
                Ok("{}".to_string()),
                Err("request line longer than 4 bytes".to_string()),
                Err("request line is not valid UTF-8".to_string()),
                Ok("1234".to_string()),
                Ok("last".to_string()),
            ]
        );
    }

    #[test]
    fn parse_request_validates_names() {
        let v = json::parse(r#"{"id":1,"cmd":"advise","workload":"reuse"}"#).unwrap();
        assert_eq!(
            parse_request(&v).unwrap(),
            Request::Advise {
                workload: "reuse".to_string()
            }
        );
        let bad = json::parse(r#"{"cmd":"advise","workload":"nope"}"#).unwrap();
        assert!(parse_request(&bad)
            .unwrap_err()
            .contains("unknown workload"));
        let unknown = json::parse(r#"{"cmd":"frobnicate"}"#).unwrap();
        assert!(parse_request(&unknown)
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn run_trace_configs_resolve_case_insensitively() {
        let v =
            json::parse(r#"{"cmd":"run-trace","trace":"x","configs":["stash","CACHE"]}"#).unwrap();
        let Request::RunTrace { kinds, .. } = parse_request(&v).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(kinds, vec![MemConfigKind::Stash, MemConfigKind::Cache]);
        let bad = json::parse(r#"{"cmd":"run-trace","trace":"x","configs":["nope"]}"#).unwrap();
        assert!(parse_request(&bad)
            .unwrap_err()
            .contains("unknown configuration"));
    }

    #[test]
    fn keys_are_content_addressed() {
        let mut server = Server::new(1, ResultCache::disabled());
        let a = server.request_key(&Request::Fig5).unwrap();
        let b = server.request_key(&Request::Fig5).unwrap();
        assert_eq!(a, b, "same request, same key");
        let c = server.request_key(&Request::Fig6).unwrap();
        assert_ne!(a, c, "different command, different key");
        let v1 = server.request_key_versioned("v1", &Request::Fig5).unwrap();
        let v2 = server.request_key_versioned("v2", &Request::Fig5).unwrap();
        assert_ne!(v1, v2, "code version is part of the key");
        assert_eq!(key_hex(&a).len(), 16);
    }

    #[test]
    fn chaos_seed_components_change_the_key() {
        let mut server = Server::new(1, ResultCache::disabled());
        let req = |seed, count| Request::Chaos {
            workload: "implicit".to_string(),
            seeds: Seeds::new(seed, count).unwrap(),
        };
        let a = server.request_key(&req(1, 2)).unwrap();
        assert_ne!(a, server.request_key(&req(2, 2)).unwrap());
        assert_ne!(a, server.request_key(&req(1, 3)).unwrap());
    }

    #[test]
    fn chaos_seeds_are_clamped_or_refused_never_wrapped() {
        let seeds = |line: &str| match parse_request(&json::parse(line).unwrap()) {
            Ok(Request::Chaos { seeds, .. }) => Ok((seeds.first(), seeds.count())),
            Ok(other) => panic!("{other:?}"),
            Err(e) => Err(e),
        };
        let chaos = |fields: &str| format!(r#"{{"cmd":"chaos","workload":"implicit"{fields}}}"#);
        assert_eq!(seeds(&chaos("")), Ok((1, 2)));
        assert_eq!(seeds(&chaos(r#","seeds":0"#)), Ok((1, 1)));
        assert_eq!(seeds(&chaos(r#","seeds":1000"#)), Ok((1, 64)));
        let top = 1u64 << 53;
        let last = chaos(&format!(r#","seed":{top},"seeds":64"#));
        assert_eq!(seeds(&last), Ok((top, 64)));
        for bad in [
            r#","seed":18446744073709551615"#,
            r#","seed":-1"#,
            r#","seed":"1""#,
            r#","seeds":1.5"#,
        ] {
            let err = seeds(&chaos(bad)).unwrap_err();
            assert!(
                err.contains("must be an integer in 0..=2^53"),
                "{bad}: {err}"
            );
        }
        // A range past u64::MAX cannot even be built for the daemon.
        assert!(Seeds::new(u64::MAX, 2).is_err());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cache = ResultCache::disabled();
        cache.store(b"k", "payload");
        assert_eq!(cache.lookup(b"k"), None);
        assert_eq!(cache.stats.hits, 0);
    }

    #[test]
    fn memory_cache_round_trips() {
        let mut cache = ResultCache::in_memory();
        assert_eq!(cache.lookup(b"k"), None);
        cache.store(b"k", "payload");
        assert_eq!(cache.lookup(b"k").as_deref(), Some("payload"));
        assert_eq!(cache.stats.hits, 1);
        assert_eq!(cache.stats.misses, 1);
    }
}
