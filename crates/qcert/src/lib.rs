//! Window-granular local-optimality certificates (POPQC-style).
//!
//! A plateaued search burns its remaining budget re-probing regions that
//! stopped improving long ago. This crate gives the optimizer a way to
//! *prove* it is done with a region instead: a [`CertMap`] tracks
//! "certified locally optimal at budget B" stamps over contiguous gate
//! windows, an invalidation index clears every stamp whose window
//! overlaps an accepted patch (so certificates can never go stale), and
//! a serializable [`Certificate`] summarizes the surviving stamps when a
//! run finishes. After a client edit, [`Certificate::rebase`] drops only
//! the stamps dirtied by the edit script — re-optimization then pays
//! O(edit), not O(circuit).
//!
//! # Why positions, not ids
//!
//! Stamps are keyed by **position windows** `[lo, hi)`, not by the
//! arena's gate ids. Ids look like the natural key (they survive edits
//! elsewhere in the circuit) but they are only *usually* stable: a
//! mid-circuit insertion whose free-slot gap is too small triggers a
//! full arena rebuild that re-ids every gate, and journal replay in
//! another process allocates ids in a different order entirely.
//! Positions are unambiguous in both worlds; the cost is an
//! O(#stamps) shift per accepted patch ([`CertMap::commit_patch`]),
//! which only certification-enabled runs pay — and the same fold is
//! exactly what re-expressing a serialized certificate across a client
//! edit script needs ([`Certificate::rebase`]), so the two paths cannot
//! disagree.

#![warn(missing_docs)]

use qcir::edit::Patch;

/// Gates of padding around an edit window when deciding which stamps it
/// dirties. An accepted patch can enable new matches that *straddle* its
/// boundary, so the neighborhood — not just the window itself — loses
/// its certificate (POPQC's O(1)-neighborhood re-verification).
pub const CERT_PAD: usize = 2;

/// Name of the counter tallying windows stamped as certified.
pub const CERTIFIED_COUNTER: &str = "qcert_windows_certified_total";
/// Name of the counter tallying stamps cleared by overlapping edits.
pub const INVALIDATED_COUNTER: &str = "qcert_windows_invalidated_total";
/// Name of the counter tallying anchor draws skipped because they landed
/// in a certified window (bumped by the core sampler, defined here so
/// every layer agrees on the spelling).
pub const ANCHOR_SKIPS_COUNTER: &str = "qcert_anchor_skips_total";

/// The global certified-windows counter.
pub fn certified_counter() -> &'static qtrace::Counter {
    qtrace::counter(CERTIFIED_COUNTER)
}

/// The global invalidated-windows counter.
pub fn invalidated_counter() -> &'static qtrace::Counter {
    qtrace::counter(INVALIDATED_COUNTER)
}

/// The global certified-anchor-skip counter.
pub fn anchor_skips_counter() -> &'static qtrace::Counter {
    qtrace::counter(ANCHOR_SKIPS_COUNTER)
}

/// One certified window: the gates at positions `[lo, hi)` survived an
/// exhaustive local probe of `budget` attempts without a single strict
/// improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// First certified position (inclusive).
    pub lo: usize,
    /// One past the last certified position (exclusive).
    pub hi: usize,
    /// Probe attempts the window survived.
    pub budget: u64,
}

impl Stamp {
    /// Gates covered by this stamp.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the stamp covers no gates.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    fn overlaps(&self, lo: usize, hi: usize) -> bool {
        self.lo < hi && lo < self.hi
    }
}

/// Folds one patch into a sorted stamp list: drops stamps overlapping
/// the `pad`-widened window (returning how many), shifts stamps past it
/// by the length delta. The shared kernel of [`CertMap::commit_patch`]
/// and [`Certificate::rebase`].
fn fold_patch(stamps: &mut Vec<Stamp>, op: &Patch, pad: usize) -> u64 {
    let (wlo, whi) = op.window();
    let (plo, phi) = (wlo.saturating_sub(pad), whi + pad);
    let before = stamps.len();
    stamps.retain(|s| !s.overlaps(plo, phi));
    let dropped = (before - stamps.len()) as u64;
    let shift = op.len_delta();
    for s in stamps.iter_mut() {
        // Survivors never straddle the window: they sit fully on one
        // side of it, so a whole-stamp shift is exact.
        if s.lo >= phi {
            s.lo = (s.lo as isize + shift) as usize;
            s.hi = (s.hi as isize + shift) as usize;
        }
    }
    dropped
}

/// A local-optimality certificate for a finished circuit: the surviving
/// per-window stamps, ascending and pairwise disjoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Probe budget of the certification sweep that produced this
    /// certificate (stamps seeded from a prior certificate may carry
    /// their own, different budgets).
    pub budget: u64,
    /// Gate count of the circuit the stamps index into.
    pub total_gates: usize,
    /// Certified windows, ascending by `lo`, pairwise disjoint.
    pub stamps: Vec<Stamp>,
}

impl Certificate {
    /// Fraction of gates covered by a stamp (`1.0` for an empty
    /// circuit — nothing left to certify).
    pub fn coverage(&self) -> f64 {
        if self.total_gates == 0 {
            return 1.0;
        }
        self.certified_gates() as f64 / self.total_gates as f64
    }

    /// Gates covered by a stamp.
    pub fn certified_gates(&self) -> usize {
        self.stamps.iter().map(Stamp::len).sum()
    }

    /// Re-expresses the certificate after an edit script: every stamp
    /// overlapping an op's `pad`-widened window is dropped (tallied on
    /// [`invalidated_counter`]), and surviving stamps past the edit
    /// shift by its length delta. `ops` is an in-order
    /// [`qcir::delta::CircuitDelta`] script — each op indexes the
    /// circuit state left by the previous one, exactly as
    /// `CircuitDelta::apply` does.
    pub fn rebase(&self, ops: &[Patch], pad: usize) -> Certificate {
        let mut stamps = self.stamps.clone();
        let mut total = self.total_gates as isize;
        let mut dropped = 0u64;
        for op in ops {
            dropped += fold_patch(&mut stamps, op, pad);
            total += op.len_delta();
        }
        if dropped > 0 {
            invalidated_counter().add(dropped);
        }
        Certificate {
            budget: self.budget,
            total_gates: total.max(0) as usize,
            stamps,
        }
    }

    /// Serializes to the `job-<id>.cert` side-file format: a `QCERT1`
    /// header line followed by one `lo hi budget` line per stamp.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "QCERT1 budget={} gates={} stamps={}\n",
            self.budget,
            self.total_gates,
            self.stamps.len()
        );
        for s in &self.stamps {
            out.push_str(&format!("{} {} {}\n", s.lo, s.hi, s.budget));
        }
        out
    }

    /// Parses the [`Self::encode`] format.
    pub fn decode(text: &str) -> Result<Certificate, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty certificate")?;
        let mut budget = None;
        let mut gates = None;
        let mut count = None;
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some("QCERT1") {
            return Err("missing QCERT1 header".into());
        }
        for field in fields {
            let (key, value) = field.split_once('=').ok_or("malformed header field")?;
            let value: u64 = value.parse().map_err(|_| format!("bad {key}"))?;
            match key {
                "budget" => budget = Some(value),
                "gates" => gates = Some(value as usize),
                "stamps" => count = Some(value as usize),
                _ => {} // forward-compatible: ignore unknown fields
            }
        }
        let (budget, gates, count) = (
            budget.ok_or("missing budget")?,
            gates.ok_or("missing gates")?,
            count.ok_or("missing stamps")?,
        );
        // `count` is untrusted: let the vector grow with the lines that
        // are really there instead of reserving for it up front.
        let mut stamps = Vec::new();
        for line in lines.take(count) {
            let mut parts = line.split_ascii_whitespace();
            let mut next = || -> Result<u64, String> {
                parts
                    .next()
                    .ok_or("short stamp line")?
                    .parse()
                    .map_err(|_| "bad stamp field".to_string())
            };
            let (lo, hi, b) = (next()? as usize, next()? as usize, next()?);
            if lo >= hi || hi > gates {
                return Err(format!("stamp [{lo}, {hi}) out of range"));
            }
            stamps.push(Stamp { lo, hi, budget: b });
        }
        if stamps.len() != count {
            return Err("truncated certificate".into());
        }
        Ok(Certificate {
            budget,
            total_gates: gates,
            stamps,
        })
    }
}

/// The live certificate index a search carries: stamp windows that
/// survive a probe, ask whether an anchor position is certified, and
/// clear everything an accepted patch dirties. Stamps are kept sorted
/// and disjoint; membership queries are O(log #stamps), commits are
/// O(#stamps).
#[derive(Debug, Default, Clone)]
pub struct CertMap {
    stamps: Vec<Stamp>,
}

impl CertMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a map from a previously serialized certificate for a
    /// circuit of `len` gates. Out-of-range stamps — a certificate for
    /// a different circuit — are skipped; overlapping stamps after the
    /// first are dropped so the sorted-disjoint invariant holds even
    /// for adversarial input.
    pub fn seed(len: usize, cert: &Certificate) -> Self {
        let mut stamps: Vec<Stamp> = cert
            .stamps
            .iter()
            .copied()
            .filter(|s| !s.is_empty() && s.hi <= len)
            .collect();
        stamps.sort_by_key(|s| s.lo);
        let mut end = 0;
        stamps.retain(|s| {
            let keep = s.lo >= end;
            if keep {
                end = s.hi;
            }
            keep
        });
        CertMap { stamps }
    }

    /// Stamps positions `[lo, hi)` as certified at `budget`, tallying
    /// on [`certified_counter`]. The window must not overlap an
    /// existing stamp (certification sweeps only probe uncertified
    /// spans).
    pub fn stamp(&mut self, lo: usize, hi: usize, budget: u64) {
        if hi <= lo {
            return;
        }
        let at = self.stamps.partition_point(|s| s.hi <= lo);
        debug_assert!(
            self.stamps.get(at).is_none_or(|s| s.lo >= hi),
            "stamp [{lo}, {hi}) overlaps an existing window"
        );
        self.stamps.insert(at, Stamp { lo, hi, budget });
        certified_counter().inc();
    }

    /// True when position `pos` sits inside a certified window.
    #[inline]
    pub fn contains(&self, pos: usize) -> bool {
        let at = self.stamps.partition_point(|s| s.hi <= pos);
        self.stamps.get(at).is_some_and(|s| s.lo <= pos)
    }

    /// The first uncertified position at or after `pos`, or `None` when
    /// every position up to `len` is certified.
    pub fn next_uncertified(&self, pos: usize, len: usize) -> Option<usize> {
        let mut p = pos;
        let mut at = self.stamps.partition_point(|s| s.hi <= p);
        while let Some(s) = self.stamps.get(at) {
            if p < s.lo {
                break;
            }
            p = s.hi;
            at += 1;
        }
        (p < len).then_some(p)
    }

    /// The maximal uncertified span starting at the first uncertified
    /// position at or after `pos`: `(lo, hi)` where `hi` is the start
    /// of the next stamp (or `len`). Certification sweeps size their
    /// probe windows inside this span so a fresh stamp can never
    /// overrun into a seeded one.
    pub fn uncertified_span(&self, pos: usize, len: usize) -> Option<(usize, usize)> {
        let lo = self.next_uncertified(pos, len)?;
        let at = self.stamps.partition_point(|s| s.hi <= lo);
        let hi = self.stamps.get(at).map_or(len, |s| s.lo.min(len));
        Some((lo, hi))
    }

    /// Live stamped windows.
    pub fn windows(&self) -> usize {
        self.stamps.len()
    }

    /// Gates currently covered by a stamp.
    pub fn certified_gates(&self) -> usize {
        self.stamps.iter().map(Stamp::len).sum()
    }

    /// True when no window is stamped.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Drops every stamp, tallying the cleared windows as invalidated.
    /// For whole-circuit replacements (async resynthesis accepts),
    /// where no patch describes the edit.
    pub fn clear(&mut self) {
        if !self.stamps.is_empty() {
            invalidated_counter().add(self.stamps.len() as u64);
        }
        self.stamps.clear();
    }

    /// Folds an accepted patch into the map: clears every stamp
    /// overlapping its `pad`-widened pre-patch window (tallying on
    /// [`invalidated_counter`]) and shifts stamps past it by the length
    /// delta, keeping every surviving stamp aligned with the post-patch
    /// circuit. Order relative to `Circuit::apply_patch` is irrelevant —
    /// only the patch itself is consulted.
    pub fn commit_patch(&mut self, patch: &Patch, pad: usize) {
        let dropped = fold_patch(&mut self.stamps, patch, pad);
        if dropped > 0 {
            invalidated_counter().add(dropped);
        }
    }

    /// Converts the live map to a serializable [`Certificate`] for a
    /// circuit of `total_gates` gates. `budget` is recorded as the
    /// certificate-level probe budget.
    pub fn to_certificate(&self, total_gates: usize, budget: u64) -> Certificate {
        Certificate {
            budget,
            total_gates,
            stamps: self.stamps.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Circuit, Gate};

    fn cert(stamps: &[(usize, usize)], gates: usize) -> Certificate {
        Certificate {
            budget: 8,
            total_gates: gates,
            stamps: stamps
                .iter()
                .map(|&(lo, hi)| Stamp { lo, hi, budget: 8 })
                .collect(),
        }
    }

    #[test]
    fn coverage_counts_covered_gates() {
        let c = cert(&[(0, 4), (8, 12)], 16);
        assert_eq!(c.certified_gates(), 8);
        assert!((c.coverage() - 0.5).abs() < 1e-12);
        assert_eq!(cert(&[], 0).coverage(), 1.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = cert(&[(0, 4), (8, 12)], 16);
        let decoded = Certificate::decode(&c.encode()).unwrap();
        assert_eq!(decoded, c);
        assert!(Certificate::decode("garbage").is_err());
        assert!(Certificate::decode("QCERT1 budget=1 gates=4 stamps=1\n2 9 1\n").is_err());
    }

    #[test]
    fn huge_stamp_count_is_truncated_not_reserved() {
        // Reserving 10^11 stamps aborted the process before any line
        // was read.
        assert_eq!(
            Certificate::decode("QCERT1 budget=1 gates=1 stamps=100000000000\n"),
            Err("truncated certificate".to_string())
        );
    }

    #[test]
    fn rebase_drops_dirty_and_shifts_survivors() {
        let c = cert(&[(0, 4), (10, 14)], 20);
        // Remove gate 11: overlaps the second stamp only.
        let op = Patch::new(vec![11], Vec::new(), 11);
        let r = c.rebase(&[op], CERT_PAD);
        assert_eq!(
            r.stamps,
            vec![Stamp {
                lo: 0,
                hi: 4,
                budget: 8
            }]
        );
        assert_eq!(r.total_gates, 19);
        // Insert at 6: dirties neither stamp (pad 2 reaches 4..8), the
        // second shifts right.
        let mut donor = Circuit::new(2);
        donor.push(Gate::X, &[0]);
        let op = Patch::new(Vec::new(), vec![donor.instruction(0)], 6);
        let r = c.rebase(&[op], CERT_PAD);
        assert_eq!(r.stamps.len(), 2);
        assert_eq!((r.stamps[1].lo, r.stamps[1].hi), (11, 15));
        assert_eq!(r.total_gates, 21);
    }

    #[test]
    fn map_roundtrips_through_certificate() {
        let prior = cert(&[(0, 4), (6, 10)], 12);
        let map = CertMap::seed(12, &prior);
        assert_eq!(map.windows(), 2);
        assert_eq!(map.certified_gates(), 8);
        assert!(map.contains(1));
        assert!(!map.contains(5));
        assert!(map.contains(9));
        assert!(!map.contains(11));
        assert_eq!(map.to_certificate(12, 8), prior);
    }

    #[test]
    fn seed_skips_out_of_range_and_overlapping_stamps() {
        let prior = cert(&[(0, 4), (2, 6), (8, 20)], 12);
        let map = CertMap::seed(12, &prior);
        assert_eq!(map.windows(), 1);
        assert_eq!(map.certified_gates(), 4);
    }

    #[test]
    fn commit_clears_only_overlapping_windows() {
        let prior = cert(&[(0, 4), (6, 10)], 12);
        let mut map = CertMap::seed(12, &prior);
        // Remove position 7 — inside the second window.
        let patch = Patch::new(vec![7], Vec::new(), 7);
        map.commit_patch(&patch, CERT_PAD);
        assert_eq!(map.windows(), 1);
        assert!(map.contains(0));
        assert!(!map.contains(6));
        let back = map.to_certificate(11, 8);
        assert_eq!(
            back.stamps,
            vec![Stamp {
                lo: 0,
                hi: 4,
                budget: 8
            }]
        );
    }

    #[test]
    fn padded_commit_reaches_neighbors() {
        let mut map = CertMap::seed(12, &cert(&[(0, 4)], 12));
        // An edit at position 5 is outside the stamp but within CERT_PAD.
        let patch = Patch::new(vec![5], Vec::new(), 5);
        map.commit_patch(&patch, CERT_PAD);
        assert!(map.is_empty());
    }

    #[test]
    fn uncertified_span_is_clamped_by_the_next_stamp() {
        let map = CertMap::seed(20, &cert(&[(0, 4), (6, 10)], 20));
        // The gap between the stamps, however wide a window the caller
        // wanted.
        assert_eq!(map.uncertified_span(0, 20), Some((4, 6)));
        // The open tail after the last stamp runs to `len`.
        assert_eq!(map.uncertified_span(7, 20), Some((10, 20)));
        assert_eq!(map.uncertified_span(0, 4), None);
        assert_eq!(CertMap::new().uncertified_span(0, 5), Some((0, 5)));
    }

    #[test]
    fn next_uncertified_walks_over_stamped_runs() {
        let map = CertMap::seed(12, &cert(&[(0, 4), (6, 10)], 12));
        assert_eq!(map.next_uncertified(0, 12), Some(4));
        assert_eq!(map.next_uncertified(4, 12), Some(4));
        assert_eq!(map.next_uncertified(5, 12), Some(5));
        assert_eq!(map.next_uncertified(6, 12), Some(10));
        assert_eq!(map.next_uncertified(10, 12), Some(10));
        assert_eq!(map.next_uncertified(0, 4), None);
        let full = CertMap::seed(6, &cert(&[(0, 6)], 6));
        assert_eq!(full.next_uncertified(0, 6), None);
    }

    #[test]
    fn stamping_keeps_sorted_disjoint_order() {
        let mut map = CertMap::new();
        map.stamp(8, 12, 4);
        map.stamp(0, 4, 4);
        map.stamp(4, 8, 4);
        assert_eq!(map.windows(), 3);
        assert_eq!(map.certified_gates(), 12);
        assert_eq!(map.next_uncertified(0, 12), None);
        assert_eq!(map.next_uncertified(0, 13), Some(12));
    }
}
