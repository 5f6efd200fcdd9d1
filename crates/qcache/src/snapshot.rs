//! Persistent cache tier: the memo table's snapshot file.
//!
//! The 176× warm-cache win is process-local without this module — a
//! worker restart (crash, deploy, failover respawn) starts cold. The
//! snapshot serializes the resident entries to a file next to the job
//! journals so a restarted worker reloads its memo table in one
//! streaming pass. Both entry kinds persist: positive replacements
//! (circuit + true unitary) and known-failure markers, the latter
//! scoped by the persisted budget-profile stamp so a restart under a
//! *different* synthesis budget expires them exactly as a live profile
//! change would.
//!
//! # File format (`QCSNAP1`)
//!
//! ```text
//! magic            8 bytes      b"QCSNAP1\n"
//! profile stamp    u64 LE       QCache budget-profile fingerprint
//! record*          [u32 len LE][u64 checksum LE][payload: len bytes]
//! ```
//!
//! The checksum covers the payload bytes. A payload starts with a
//! record-type byte and the fingerprint:
//!
//! ```text
//! type             u8           0 = positive, 1 = negative
//! fp.hash          u64 LE
//! fp.dim           u32 LE
//! gate-set id      u8           (dense index, `GateSet::id`)
//! -- positive --
//! qubits           u32 LE       circuit width
//! delta len        u32 LE
//! delta            ASCII        `CircuitDelta::diff(empty, circuit)` line
//! unitary          dim² × (re f64-bits LE, im f64-bits LE)
//! -- negative --
//! eps              f64-bits LE  loosest observed failing tolerance
//! max_len          u64 LE       failing replacement-length budget
//! ```
//!
//! The circuit rides as a [`CircuitDelta`] against the empty circuit —
//! the same bit-exact (hex IEEE-754 parameters) codec the v2 wire
//! protocol trusts — and the unitary as raw `f64` bit patterns, so the
//! reloaded entry verifies against future queries with exactly the
//! matrix the original synthesis measured.
//!
//! # Corruption tolerance
//!
//! Loading is streaming and *damage-skipping*: a record whose checksum
//! does not match its payload is skipped and the scan continues at the
//! declared record boundary. A corrupted **length** field desyncs the
//! stream — every subsequent pseudo-record then fails its checksum
//! (2⁻⁶⁴ per frame to pass by fluke) and the tail is effectively
//! abandoned; an insane length (over [`MAX_RECORD_BYTES`] or past EOF)
//! abandons the tail immediately. Either way the load returns the
//! checksum-valid prefix records and never panics, and even a record
//! whose corruption survives the checksum is harmless: the table
//! verifies every served entry against the query unitary
//! ([`QCache::lookup`] verify-on-hit), so the worst a poisoned
//! positive costs is one `verify_reject`, and a poisoned negative can
//! only suppress an optimization ("no replacement" is always sound),
//! never corrupt a circuit.
//!
//! Saving writes the full snapshot to a `.tmp` sibling, fsyncs, then
//! atomically renames over the destination — a crash mid-flush leaves
//! the previous snapshot intact, never a half-written file.

use crate::fingerprint::{mix, Fingerprint};
use crate::table::{EntryView, QCache};
use qcir::{Circuit, CircuitDelta, GateSet};
use qmath::{Mat, C64};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Leading magic of a snapshot file (versioned: a format change bumps
/// the digit and old files simply fail the magic check → cold start).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"QCSNAP1\n";

/// Upper bound on one record's declared payload length. Far above any
/// real entry (a 6-qubit window's unitary is 64 KiB) and low enough
/// that a corrupted length field cannot provoke a giant allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 26;

const RECORD_POSITIVE: u8 = 0;
const RECORD_NEGATIVE: u8 = 1;

/// Outcome counters of a snapshot save or load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Records written (save) or restored into the table (load).
    pub records: usize,
    /// Damaged records skipped by their checksum, plus one for a
    /// missing/garbage header, plus one for an abandoned tail (save: 0).
    pub skipped: usize,
    /// Bytes written (save) or consumed (load).
    pub bytes: u64,
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = 0x51AB_CAFE_F00D_D154;
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    mix(h, payload.len() as u64)
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_payload(fp: &Fingerprint, view: &EntryView<'_>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.push(match view {
        EntryView::Positive(_) => RECORD_POSITIVE,
        EntryView::Negative { .. } => RECORD_NEGATIVE,
    });
    push_u64(&mut buf, fp.hash());
    push_u32(&mut buf, fp.dim() as u32);
    buf.push(fp.gate_set().id() as u8);
    match view {
        EntryView::Positive(entry) => {
            let circuit = entry.circuit();
            let delta = CircuitDelta::diff(&Circuit::new(circuit.num_qubits()), &circuit).encode();
            let cells = entry.unitary().as_slice();
            buf.reserve(12 + delta.len() + cells.len() * 16);
            push_u32(&mut buf, circuit.num_qubits() as u32);
            push_u32(&mut buf, delta.len() as u32);
            buf.extend_from_slice(delta.as_bytes());
            for z in cells {
                push_u64(&mut buf, z.re.to_bits());
                push_u64(&mut buf, z.im.to_bits());
            }
        }
        EntryView::Negative { eps, max_len } => {
            push_u64(&mut buf, eps.to_bits());
            push_u64(&mut buf, *max_len as u64);
        }
    }
    buf
}

/// A forgiving little-endian cursor: every accessor returns `None`
/// past the end instead of panicking, so a checksum-valid-by-fluke or
/// future-versioned payload decodes to "skip", never to an abort.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.buf.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

// Variant sizes differ by design: a positive record carries a full
// circuit + unitary, a negative one just the failure envelope. The
// value lives only for the span of one decode, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
enum Decoded {
    Positive(Fingerprint, Circuit, Mat),
    Negative(Fingerprint, f64, usize),
}

/// Decodes one checksum-valid payload. `None` means structurally
/// damaged (skip the record); sanity checks are deliberately strict —
/// a record that cannot round-trip exactly is worthless, because the
/// whole point of the stored unitary is exact verify-on-hit.
fn decode_payload(payload: &[u8]) -> Option<Decoded> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let kind = cur.u8()?;
    let hash = cur.u64()?;
    let dim = cur.u32()?;
    let set = GateSet::from_id(cur.u8()? as usize)?;
    let fp = Fingerprint::from_raw(hash, dim, set);
    let decoded = match kind {
        RECORD_POSITIVE => {
            let qubits = cur.u32()? as usize;
            if qubits > 16 || dim as usize != 1usize << qubits {
                return None;
            }
            let delta_len = cur.u32()? as usize;
            let delta = std::str::from_utf8(cur.take(delta_len)?).ok()?;
            let mut circuit = Circuit::new(qubits);
            CircuitDelta::decode(delta).ok()?.apply(&mut circuit).ok()?;
            let cells = (dim as usize) * (dim as usize);
            let mut data = Vec::with_capacity(cells);
            for _ in 0..cells {
                let re = f64::from_bits(cur.u64()?);
                let im = f64::from_bits(cur.u64()?);
                data.push(C64::new(re, im));
            }
            let unitary = Mat::from_vec(dim as usize, dim as usize, data);
            Decoded::Positive(fp, circuit, unitary)
        }
        RECORD_NEGATIVE => {
            let eps = f64::from_bits(cur.u64()?);
            if !eps.is_finite() || eps < 0.0 {
                return None;
            }
            let max_len = usize::try_from(cur.u64()?).ok()?;
            Decoded::Negative(fp, eps, max_len)
        }
        _ => return None, // future record type: skip, don't guess
    };
    if cur.at != payload.len() {
        return None; // trailing garbage: not a record we wrote
    }
    Some(decoded)
}

impl QCache {
    /// Serializes every resident entry to `path`, atomically: the
    /// snapshot is first written (and fsynced) to a `path + ".tmp"`
    /// sibling, then renamed into place, so a crash at any instant
    /// leaves either the old snapshot or the new one — never a torn
    /// file. Entries are written per stripe in LRU → MRU order so a
    /// reload reproduces each stripe's eviction order; stale-epoch
    /// negatives are excluded.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, syncing, or renaming the
    /// temporary file.
    pub fn save_snapshot(&self, path: &Path) -> io::Result<SnapshotStats> {
        let tmp = {
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let mut out = BufWriter::new(File::create(&tmp)?);
        out.write_all(SNAPSHOT_MAGIC)?;
        let mut stats = SnapshotStats::default();
        let mut failure = out.write_all(&self.profile_stamp_raw().to_le_bytes()).err();
        stats.bytes = (SNAPSHOT_MAGIC.len() + 8) as u64;
        self.for_each_entry(|fp, view| {
            if failure.is_some() {
                return;
            }
            let payload = encode_payload(fp, &view);
            let mut frame = Vec::with_capacity(12 + payload.len());
            push_u32(&mut frame, payload.len() as u32);
            push_u64(&mut frame, checksum(&payload));
            frame.extend_from_slice(&payload);
            match out.write_all(&frame) {
                Ok(()) => {
                    stats.records += 1;
                    stats.bytes += frame.len() as u64;
                }
                Err(e) => failure = Some(e),
            }
        });
        if let Some(e) = failure {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(stats)
    }

    /// Streams `path` into the table, restoring every checksum-valid
    /// record and **skipping** anything damaged — wrong magic, a torn
    /// or bit-flipped record, a desynced tail. Corruption is an
    /// expected input (that is the point of the format), so it is
    /// reported in [`SnapshotStats::skipped`], not as an error; the
    /// load itself never panics. The persisted budget-profile stamp is
    /// adopted if this cache has not observed a profile of its own, so
    /// restored failure markers expire on the first *different*
    /// profile declaration, exactly like the originals.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (the file exists but cannot be read).
    /// A missing file is a normal cold start: `Ok` with zero records.
    pub fn load_snapshot(&self, path: &Path) -> io::Result<SnapshotStats> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(SnapshotStats::default()),
            Err(e) => return Err(e),
        };
        let mut input = BufReader::new(file);
        let mut stats = SnapshotStats::default();
        let mut head = [0u8; 16];
        match read_exact_or_eof(&mut input, &mut head)? {
            n if n < head.len() || head[..8] != *SNAPSHOT_MAGIC => {
                stats.skipped += 1;
                stats.bytes += n as u64;
                return Ok(stats); // not (or no longer) a snapshot: cold start
            }
            n => stats.bytes += n as u64,
        }
        self.adopt_profile_stamp(u64::from_le_bytes(head[8..16].try_into().expect("8 bytes")));
        let mut header = [0u8; 12];
        loop {
            match read_exact_or_eof(&mut input, &mut header)? {
                0 => break, // clean end
                n if n < header.len() => {
                    // Torn mid-header (crash during a pre-atomic-rename
                    // writer, or a truncation fault): abandon the tail.
                    stats.skipped += 1;
                    stats.bytes += n as u64;
                    break;
                }
                n => stats.bytes += n as u64,
            }
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
            if len > MAX_RECORD_BYTES {
                // A corrupted length field; nothing downstream of it can
                // be trusted (or even safely sized). Abandon the tail.
                stats.skipped += 1;
                break;
            }
            let mut payload = vec![0u8; len];
            match read_exact_or_eof(&mut input, &mut payload)? {
                n if n < len => {
                    stats.skipped += 1;
                    stats.bytes += n as u64;
                    break; // truncated inside the payload
                }
                n => stats.bytes += n as u64,
            }
            if checksum(&payload) != sum {
                stats.skipped += 1;
                continue; // damaged record; the boundary may still hold
            }
            match decode_payload(&payload) {
                Some(Decoded::Positive(fp, circuit, unitary)) => {
                    self.insert_loaded(fp, &circuit, unitary);
                    stats.records += 1;
                }
                Some(Decoded::Negative(fp, eps, max_len)) => {
                    self.insert_failure(fp, eps, max_len);
                    stats.records += 1;
                }
                None => stats.skipped += 1, // checksum-valid but malformed
            }
        }
        Ok(stats)
    }
}

/// `read_exact` that reports a clean-or-torn EOF as a short count
/// instead of an error: returns how many bytes were read (`buf.len()`
/// means complete).
fn read_exact_or_eof(input: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match input.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(n) => at += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::table::QCacheOpts;
    use qcir::Gate;

    fn sample_cache(entries: usize) -> (QCache, Vec<(Fingerprint, Mat)>) {
        let cache = QCache::new(QCacheOpts::default());
        let mut keys = Vec::new();
        for k in 0..entries {
            let mut c = Circuit::new(2);
            c.push(Gate::Rz(0.1 + k as f64 * 0.37), &[0]);
            c.push(Gate::Cx, &[0, 1]);
            c.push(Gate::H, &[1]);
            let u = c.unitary();
            let fp = fingerprint(&u, GateSet::Nam);
            cache.insert(fp, &c, u.clone());
            keys.push((fp, u));
        }
        (cache, keys)
    }

    #[test]
    fn round_trip_restores_every_entry() {
        let dir = std::env::temp_dir().join("qcsnap-roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qcs");
        let (cache, keys) = sample_cache(5);
        let saved = cache.save_snapshot(&path).unwrap();
        assert_eq!(saved.records, 5);
        assert_eq!(saved.skipped, 0);

        let fresh = QCache::new(QCacheOpts::default());
        let loaded = fresh.load_snapshot(&path).unwrap();
        assert_eq!(loaded.records, 5);
        assert_eq!(loaded.skipped, 0);
        assert_eq!(loaded.bytes, saved.bytes);
        for (fp, u) in &keys {
            let hit = fresh
                .lookup(fp, u, 1e-9, usize::MAX)
                .hit()
                .expect("reloaded entry must serve");
            assert!(hit.epsilon < 1e-12);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let cache = QCache::new(QCacheOpts::default());
        let stats = cache
            .load_snapshot(Path::new("/nonexistent/dir/cache.qcs"))
            .unwrap();
        assert_eq!(stats, SnapshotStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn negative_entries_survive_with_their_profile_scope() {
        let dir = std::env::temp_dir().join("qcsnap-negative");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qcs");
        let cache = QCache::new(QCacheOpts::default());
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0.8), &[0]);
        let u = c.unitary();
        let fp = fingerprint(&u, GateSet::Nam);
        cache.note_budget_profile(31);
        cache.insert_failure(fp, 1e-6, 8);
        assert_eq!(cache.save_snapshot(&path).unwrap().records, 1);

        // Restart under the SAME profile: the failure marker is served.
        let same = QCache::new(QCacheOpts::default());
        assert_eq!(same.load_snapshot(&path).unwrap().records, 1);
        same.note_budget_profile(31);
        assert!(same.lookup(&fp, &u, 1e-6, 8).is_known_failure());

        // Restart under a DIFFERENT profile: the marker expires, the
        // caller retries with its own budget.
        let other = QCache::new(QCacheOpts::default());
        assert_eq!(other.load_snapshot(&path).unwrap().records, 1);
        other.note_budget_profile(99);
        assert!(matches!(
            other.lookup(&fp, &u, 1e-6, 8),
            crate::Lookup::Miss
        ));

        // Stale-epoch negatives are not persisted at all.
        cache.note_budget_profile(99);
        assert_eq!(cache.save_snapshot(&path).unwrap().records, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_preserves_lru_order_across_reload() {
        // Single stripe, tight budget: insert 3, reload into an equally
        // tight cache, insert a 4th — the same (oldest) entry must be
        // the eviction victim on both sides of the snapshot.
        let opts = || QCacheOpts {
            gate_budget: 9,
            stripes: 1,
        };
        let entry = |theta: f64| {
            let mut c = Circuit::new(1);
            for j in 0..3 {
                c.push(Gate::Rz(theta + j as f64 * 0.01), &[0]);
            }
            let u = c.unitary();
            let fp = fingerprint(&u, GateSet::Nam);
            (c, u, fp)
        };
        let cache = QCache::new(opts());
        let (c0, u0, fp0) = entry(0.4);
        let (c1, u1, fp1) = entry(1.4);
        let (c2, u2, fp2) = entry(2.4);
        cache.insert(fp0, &c0, u0.clone());
        cache.insert(fp1, &c1, u1.clone());
        cache.insert(fp2, &c2, u2.clone());
        // Refresh fp0 so fp1 is the LRU entry.
        assert!(cache.lookup(&fp0, &u0, 1e-9, usize::MAX).hit().is_some());

        let dir = std::env::temp_dir().join("qcsnap-lru");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qcs");
        cache.save_snapshot(&path).unwrap();
        let fresh = QCache::new(opts());
        assert_eq!(fresh.load_snapshot(&path).unwrap().records, 3);

        let (c3, u3, fp3) = entry(3.4);
        fresh.insert(fp3, &c3, u3);
        assert!(
            fresh.lookup(&fp1, &u1, 1e-9, usize::MAX).hit().is_none(),
            "the pre-snapshot LRU entry must still be the eviction victim"
        );
        assert!(fresh.lookup(&fp0, &u0, 1e-9, usize::MAX).hit().is_some());
        assert!(fresh.lookup(&fp2, &u2, 1e-9, usize::MAX).hit().is_some());
        let _ = fs::remove_file(&path);
    }
}
