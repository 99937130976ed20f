//! Crash-consistent machine-state snapshots.
//!
//! The environment is offline, so the format is a hand-rolled, versioned,
//! checksummed binary container — no serde, no external codecs. A snapshot
//! is a header plus a sequence of tagged sections:
//!
//! ```text
//! magic    8 bytes   b"STSHSNAP"
//! version  u32 LE    FORMAT_VERSION
//! count    u32 LE    number of sections
//! section  repeated: tag u32 LE | len u64 LE | crc32 u32 LE | payload
//! ```
//!
//! Every integer in the container (and in section payloads built with
//! [`Writer`]) is little-endian. Each section carries its own CRC-32 so a
//! torn tail or a flipped word is detected at the section that holds it,
//! and the reader reports [`SimError::CheckpointCorrupt`] naming the spot.
//! A version that does not match [`FORMAT_VERSION`] is reported as
//! [`SimError::CheckpointVersionMismatch`] instead — an old file is not
//! damage.
//!
//! Crash consistency on the write side is two-phase: [`write_atomic`]
//! writes the full byte image to a `*.tmp` sibling, syncs it, then renames
//! it over the destination. A crash before the rename leaves the previous
//! snapshot untouched; a crash during the rename leaves (on POSIX) either
//! the old or the new file, never a blend. [`CheckpointStore`] layers
//! numbered `ckpt-NNNN.snap` files on top and scans newest-first past any
//! torn or corrupt file, so recovery always lands on the latest snapshot
//! that validates end to end.
//!
//! Besides the container, the module holds the repo's two stable 64-bit
//! identity hashes: [`fnv1a`] over byte strings (cache keys, config
//! hashes) and [`Fnv1aHasher`] over `#[derive(Hash)]` values (program
//! fingerprints).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::SimError;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"STSHSNAP";

/// Snapshot format version written and accepted by this build.
///
/// Version 2 changed what the checkpoint META fingerprint means (the
/// structural [`Fnv1aHasher`] hash of the program, not FNV-1a over its
/// debug text), so a version-1 file reads as
/// [`SimError::CheckpointVersionMismatch`] rather than as a snapshot of
/// some other program. Version 3 states the machine's geometry once, in
/// its configuration, and drops what is only observed (trace sink, stall
/// attribution, fault-event log, oracle switch) and the energy model the
/// configuration implies; version-2 files are a version mismatch too.
/// Version 4 moves the memory-system switches into the configuration,
/// drops the six configuration fields nothing read, and takes the
/// retry policy and delay bound out of the fault schedule; version-3
/// files are a version mismatch.
pub const FORMAT_VERSION: u32 = 4;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the CRC with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice.
///
/// Slice-by-8: eight bytes per step through eight 256-entry tables
/// built at compile time, then a byte-at-a-time tail. The values are
/// the standard IEEE ones, so every section written by any build of the
/// container validates the same way.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the stable 64-bit content hash used wherever
/// the repo needs an *identity* of bytes rather than an error-detecting
/// code — the daemon's content-addressed result-cache keys and
/// `SystemConfig::stable_hash`. (CRC-32 stays the per-section damage
/// detector; FNV is the addressing hash. Structured values such as a
/// program are hashed with [`Fnv1aHasher`] instead.)
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable [`std::hash::Hasher`] for structural identities, such as the
/// program fingerprint a checkpoint's META section stores: derive `Hash`
/// on a type and feed a value through this hasher.
///
/// It uses FNV-1a's constants, but each integer write is a single
/// xor-multiply step on the whole value widened to `u64`, not one step
/// per byte. `write(&[u8])` (the path a `Vec<u32>`'s elements take, as
/// one slice of their in-memory bytes) steps once per 8-byte
/// little-endian chunk; a shorter tail is zero-padded with its length in
/// the top byte, so `[0]`, `[0, 0]` and `[]` all differ. A value
/// therefore costs about one multiply per field. The output is *not*
/// [`fnv1a`] of any byte string, and because those element bytes are in
/// host order, a value is the same on every little-endian host only.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, whose output
/// Rust leaves unspecified across releases, every step here is fixed.
/// What can still move is how `#[derive(Hash)]` feeds a value in (the
/// width of an enum discriminant, the length prefix of a slice), which
/// is why `gpu::machine`'s tests pin one program's fingerprint.
#[derive(Debug, Clone)]
pub struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1aHasher {
    #[inline]
    fn step(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }
}

impl std::hash::Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.step(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.step(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.step(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }
}

/// Append-only little-endian byte sink for section payloads.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends every byte of `bytes`, reserving once: the same output as
    /// one [`Writer::put_u8`] per byte, for long runs (a state array, a
    /// run of equal tags).
    pub fn put_u8s(&mut self, bytes: impl IntoIterator<Item = u8>) {
        self.buf.extend(bytes);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a section payload produced by [`Writer`].
///
/// Every `take_*` underflow or malformed field surfaces as
/// [`SimError::CheckpointCorrupt`] tagged with the section name the
/// reader was constructed with, so load errors name the damaged section.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wraps a payload; `what` names the section in error reports.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: String) -> SimError {
        SimError::CheckpointCorrupt {
            what: self.what,
            detail,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            self.corrupt(format!("length overflow reading {n} bytes at {}", self.pos))
        })?;
        if end > self.buf.len() {
            return Err(self.corrupt(format!(
                "truncated: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SimError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.remaining())))
        }
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SimError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SimError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SimError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("value {v} exceeds usize")))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    pub fn take_bool(&mut self) -> Result<bool, SimError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("bool byte {v}"))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SimError> {
        let n = self.take_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, SimError> {
        let b = self.take_bytes()?;
        std::str::from_utf8(b).map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
    }
}

/// An in-memory snapshot container: ordered, tagged, checksummed sections.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section; tags may repeat (lookup returns the first).
    pub fn push_section(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// The `(tag, payload)` pairs in write order.
    pub fn sections(&self) -> &[(u32, Vec<u8>)] {
        &self.sections
    }

    /// Returns the first section with `tag`, or a corruption error naming
    /// `what` if the snapshot does not contain one.
    pub fn section(&self, tag: u32, what: &'static str) -> Result<&[u8], SimError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
            .ok_or(SimError::CheckpointCorrupt {
                what,
                detail: format!("missing section tag {tag:#010x}"),
            })
    }

    /// Serializes the container to its byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 8
                + self
                    .sections
                    .iter()
                    .map(|(_, p)| p.len() + 16)
                    .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(
            &(u32::try_from(self.sections.len()).unwrap_or(u32::MAX)).to_le_bytes(),
        );
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and fully validates a byte image: magic, version, section
    /// framing, and every section CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let corrupt = |detail: String| SimError::CheckpointCorrupt {
            what: "snapshot header",
            detail,
        };
        if bytes.len() < MAGIC.len() + 8 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..], "snapshot header");
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(SimError::CheckpointVersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.take_u32()? as usize;
        let mut sections = Vec::with_capacity(count.min(1024));
        for i in 0..count {
            let section_corrupt = |detail: String| SimError::CheckpointCorrupt {
                what: "snapshot section table",
                detail,
            };
            let tag = r
                .take_u32()
                .map_err(|_| section_corrupt(format!("truncated header of section {i}")))?;
            let len = r
                .take_usize()
                .map_err(|_| section_corrupt(format!("truncated length of section {i}")))?;
            let want_crc = r
                .take_u32()
                .map_err(|_| section_corrupt(format!("truncated crc of section {i}")))?;
            if len > r.remaining() {
                return Err(section_corrupt(format!(
                    "section {i} (tag {tag:#010x}) claims {len} bytes, {} remain",
                    r.remaining()
                )));
            }
            let payload = r
                .take_bytes_raw(len)
                .map_err(|_| section_corrupt(format!("truncated payload of section {i}")))?;
            let got_crc = crc32(payload);
            if got_crc != want_crc {
                return Err(section_corrupt(format!(
                    "section {i} (tag {tag:#010x}) crc mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
                )));
            }
            sections.push((tag, payload.to_vec()));
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(Self { sections })
    }
}

impl Reader<'_> {
    fn take_bytes_raw(&mut self, n: usize) -> Result<&[u8], SimError> {
        self.take(n)
    }
}

/// Writes `bytes` to `path` crash-consistently: temp-file sibling, sync,
/// atomic rename. A crash at any point leaves either the previous file or
/// the complete new one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Loads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SimError> {
    let bytes = fs::read(path).map_err(|e| SimError::CheckpointCorrupt {
        what: "snapshot file",
        detail: format!("{}: {e}", path.display()),
    })?;
    Snapshot::from_bytes(&bytes)
}

/// A directory of numbered snapshots with torn-file fallback.
///
/// Snapshots are written as `ckpt-NNNN.snap` with monotonically increasing
/// sequence numbers. [`CheckpointStore::latest_valid`] scans newest-first
/// and returns the first file that passes full validation, skipping (and
/// reporting) torn or corrupt newer files — the recovery contract after a
/// mid-write crash.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a given sequence number maps to.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:04}.snap"))
    }

    /// Sequence numbers of present snapshot files, ascending. Includes
    /// torn/corrupt files — presence, not validity.
    pub fn list(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| parse_seq(&entry.file_name().to_string_lossy()))
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    /// Atomically writes `snap` under the next free sequence number and
    /// returns that number.
    pub fn save(&self, snap: &Snapshot) -> std::io::Result<u64> {
        let seq = self.list().last().map_or(0, |s| s + 1);
        write_atomic(&self.path_for(seq), &snap.to_bytes())?;
        Ok(seq)
    }

    /// Loads the newest snapshot that validates, skipping torn/corrupt
    /// newer files. Returns the winning sequence number, the snapshot, and
    /// the errors of every newer file that was rejected (newest first).
    ///
    /// Returns `None` if no file validates (or none exist).
    #[allow(clippy::type_complexity)]
    pub fn latest_valid(&self) -> Option<(u64, Snapshot, Vec<(u64, SimError)>)> {
        let mut rejected = Vec::new();
        for seq in self.list().into_iter().rev() {
            match read_snapshot(&self.path_for(seq)) {
                Ok(snap) => return Some((seq, snap, rejected)),
                Err(e) => rejected.push((seq, e)),
            }
        }
        None
    }
}

fn parse_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(".snap")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(b"stash"), fnv1a(b"stasH"));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The reference: IEEE CRC-32 one bit at a time, straight from the
    /// definition, sharing nothing with the table-driven version.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_alignment() {
        let mut rng = crate::rng::SplitMix64::new(0x5eed_c3c3);
        let buf: Vec<u8> = (0..8 + 64).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "length {len} at offset {start}");
            }
        }
        let big: Vec<u8> = (0..4099).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    fn hash_of(f: impl FnOnce(&mut Fnv1aHasher)) -> u64 {
        use std::hash::Hasher as _;
        let mut h = Fnv1aHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn structural_hasher_steps_once_per_integer_and_per_chunk() {
        use std::hash::Hasher as _;
        let step = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
        assert_eq!(hash_of(|_| {}), FNV_OFFSET);
        // Every integer width is one step on the value widened to u64.
        let one = step(FNV_OFFSET, 0xAB);
        assert_eq!(hash_of(|h| h.write_u8(0xAB)), one);
        assert_eq!(hash_of(|h| h.write_u16(0xAB)), one);
        assert_eq!(hash_of(|h| h.write_u32(0xAB)), one);
        assert_eq!(hash_of(|h| h.write_u64(0xAB)), one);
        assert_eq!(hash_of(|h| h.write_usize(0xAB)), one);
        // Bytes go in 8-byte little-endian chunks.
        let bytes: Vec<u8> = (1..=16).collect();
        let lo = u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
        let hi = u64::from_le_bytes([9, 10, 11, 12, 13, 14, 15, 16]);
        assert_eq!(hash_of(|h| h.write(&bytes)), step(step(FNV_OFFSET, lo), hi));
        // A short tail carries its length: no padding collisions.
        let tails: Vec<u64> = (0..=7)
            .map(|n| hash_of(|h| h.write(&vec![0u8; n])))
            .collect();
        for (i, a) in tails.iter().enumerate() {
            for b in &tails[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("stash");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.take_str().unwrap(), "stash");
        r.finish().unwrap();
    }

    #[test]
    fn reader_underflow_is_corrupt() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes, "short");
        let err = r.take_u64().unwrap_err();
        assert!(matches!(
            err,
            SimError::CheckpointCorrupt { what: "short", .. }
        ));
    }

    #[test]
    fn reader_rejects_bad_bool_and_trailing() {
        let mut r = Reader::new(&[7], "b");
        assert!(matches!(
            r.take_bool().unwrap_err(),
            SimError::CheckpointCorrupt { .. }
        ));
        let r = Reader::new(&[0, 0], "t");
        assert!(matches!(
            r.finish().unwrap_err(),
            SimError::CheckpointCorrupt { .. }
        ));
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = Snapshot::new();
        s.push_section(0x4D45_5441, b"meta-bytes".to_vec());
        s.push_section(0x4C4C_4300, vec![0; 1000]);
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.section_count(), 2);
        assert_eq!(back.section(0x4D45_5441, "meta").unwrap(), b"meta-bytes");
        assert_eq!(back.section(0x4C4C_4300, "llc").unwrap(), &[0u8; 1000][..]);
        assert!(matches!(
            back.section(0x9999_9999, "nope").unwrap_err(),
            SimError::CheckpointCorrupt { what: "nope", .. }
        ));
    }

    #[test]
    fn bad_magic_and_version_are_distinguished() {
        let mut bytes = Snapshot::new().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&wrong_magic).unwrap_err(),
            SimError::CheckpointCorrupt { .. }
        ));
        // Patch the version field (bytes 8..12).
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SimError::CheckpointVersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn truncation_and_bitflip_are_detected() {
        let mut s = Snapshot::new();
        s.push_section(1, (0..255u8).collect());
        let bytes = s.to_bytes();
        // Every truncation point must fail validation, never panic.
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A payload bit flip must trip the section CRC.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped).unwrap_err(),
            SimError::CheckpointCorrupt { .. }
        ));
    }

    #[test]
    fn store_numbers_saves_and_recovers_past_torn_file() {
        let dir = std::env::temp_dir().join(format!(
            "stash-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.latest_valid().is_none());

        let mut a = Snapshot::new();
        a.push_section(1, b"first".to_vec());
        let mut b = Snapshot::new();
        b.push_section(1, b"second".to_vec());
        assert_eq!(store.save(&a).unwrap(), 0);
        assert_eq!(store.save(&b).unwrap(), 1);
        assert_eq!(store.list(), vec![0, 1]);

        // Simulate a crash mid-write of snapshot 2: torn prefix on disk.
        let torn = b.to_bytes();
        fs::write(store.path_for(2), &torn[..torn.len() / 2]).unwrap();
        let (seq, snap, rejected) = store.latest_valid().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(snap.section(1, "s").unwrap(), b"second");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, 2);

        // Next save must not reuse the torn file's number.
        assert_eq!(store.save(&a).unwrap(), 3);
        let (seq, _, _) = store.latest_valid().unwrap();
        assert_eq!(seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("stash-snap-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.snap");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"twotwo").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"twotwo");
        // No stray temp file is left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
