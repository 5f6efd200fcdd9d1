//! The lock-striped, bounded, LRU-evicting resynthesis memo table.

use crate::fingerprint::Fingerprint;
use qcir::{Circuit, Instruction};
use qmath::dist::accurate_hs_distance;
use qmath::Mat;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Configuration for a [`QCache`].
#[derive(Debug, Clone)]
pub struct QCacheOpts {
    /// Size budget, measured in **gates across all cached replacement
    /// circuits** (an empty replacement weighs 1). The budget is split
    /// evenly over the stripes; each stripe evicts least-recently-used
    /// entries once it exceeds its share, always retaining at least its
    /// most recent entry.
    pub gate_budget: usize,
    /// Number of lock stripes. Concurrent engines (shard workers,
    /// parallel service jobs) contend per stripe, not per cache.
    /// Clamped to ≥ 1.
    pub stripes: usize,
}

impl Default for QCacheOpts {
    fn default() -> Self {
        QCacheOpts {
            gate_budget: 65_536,
            stripes: 16,
        }
    }
}

/// Counter snapshot of a [`QCache`] (see [`QCache::stats`]).
///
/// `hits`, `negative_hits`, `misses` and `verify_rejects` partition
/// the lookups: a lookup either verified and served a replacement
/// (hit), served a known-failure marker (negative hit), found nothing
/// servable (miss), or found an entry that failed the exact-matrix
/// check (reject — a fingerprint collision or an entry coarser than
/// the requested ε).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served a replacement from the cache (after matrix
    /// verification).
    pub hits: u64,
    /// Lookups served a known-failure (negative) entry — the saved
    /// instantiation work of a hit, without a replacement.
    pub negative_hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups whose entry failed the verify-on-hit matrix check.
    pub verify_rejects: u64,
    /// Entries inserted (including overwrites of an existing key).
    pub inserts: u64,
    /// Entries evicted by the LRU size bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total gate weight currently resident.
    pub gates: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.negative_hits + self.misses + self.verify_rejects;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.negative_hits) as f64 / total as f64
        }
    }
}

/// The three outcomes of a [`QCache::lookup`].
// `Hit` dwarfs the unit variants because `CacheHit` carries the served
// circuit; callers immediately destructure it, so boxing would only
// add an allocation to the cache-hit fast path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Lookup {
    /// A verified replacement was served.
    Hit(CacheHit),
    /// Synthesis of this fingerprint is known to fail at the queried ε
    /// (or looser) under the queried length budget (or roomier) — the
    /// caller should skip the instantiation and treat the call as a
    /// failed synthesis.
    KnownFailure,
    /// Nothing (servable) cached; the caller synthesizes and inserts.
    Miss,
}

impl Lookup {
    /// The served replacement, if this outcome is a [`Lookup::Hit`].
    pub fn hit(self) -> Option<CacheHit> {
        match self {
            Lookup::Hit(hit) => Some(hit),
            _ => None,
        }
    }

    /// True for [`Lookup::KnownFailure`].
    pub fn is_known_failure(&self) -> bool {
        matches!(self, Lookup::KnownFailure)
    }
}

/// A verified cache hit.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached replacement circuit (native to the fingerprint's gate
    /// set).
    pub circuit: Circuit,
    /// **Measured** Hilbert–Schmidt distance between the query target
    /// and the replacement's unitary — exact ε accounting for the hit,
    /// independent of what the original synthesis measured.
    pub epsilon: f64,
}

/// A resident entry's payload. Every map slot pays the enum's inline
/// size, so the positive payload lives behind one box and stores only
/// the gate list of its circuit (the `Circuit` arena is rebuilt on a
/// hit): a negative entry costs its slot and nothing more.
enum Stored {
    /// A synthesized replacement circuit plus its true unitary (stored
    /// so verification costs one small matrix comparison instead of a
    /// circuit simulation).
    Positive(Box<Replacement>),
    /// Synthesis *failed* for this fingerprint at tolerance `eps` under
    /// a replacement-length budget of `max_len` — the loosest (ε,
    /// budget) a failure has been observed at. Served for queries at
    /// that ε or tighter **and** that length budget or tighter (a
    /// caller with a roomier budget may succeed where the capped
    /// attempt failed): skipping a known-failing instantiation saves
    /// the same numerical work as a positive hit, and "no replacement"
    /// is always a sound answer (the optimizer just makes no move).
    ///
    /// `epoch` stamps the synthesis-budget *profile* the failure was
    /// observed under (see [`QCache::note_budget_profile`]): a failure
    /// recorded under a small profile (few restarts/iterations) stops
    /// being served once the profile grows — stale-epoch entries read
    /// as misses, so the caller retries with its stronger budget.
    Negative {
        eps: f64,
        max_len: usize,
        epoch: u64,
    },
}

/// A positive entry's payload: the replacement circuit as its gate list,
/// and the circuit's true unitary.
pub(crate) struct Replacement {
    n_qubits: usize,
    instrs: Box<[Instruction]>,
    unitary: Mat,
}

impl Replacement {
    fn new(circuit: &Circuit, unitary: Mat) -> Box<Self> {
        Box::new(Replacement {
            n_qubits: circuit.num_qubits(),
            instrs: circuit.instructions().into(),
            unitary,
        })
    }

    /// The replacement circuit, rebuilt from its gate list.
    pub(crate) fn circuit(&self) -> Circuit {
        Circuit::from_instructions(self.n_qubits, self.instrs.to_vec())
    }

    /// The circuit's true unitary.
    pub(crate) fn unitary(&self) -> &Mat {
        &self.unitary
    }

    fn weight(&self) -> usize {
        self.instrs.len().max(1)
    }
}

struct Entry {
    stored: Stored,
    weight: usize,
    stamp: u64,
}

/// A borrowed view of one resident entry, as yielded by
/// [`QCache::for_each_entry`] (the snapshot writer's iteration).
pub(crate) enum EntryView<'a> {
    /// A synthesized replacement and its true unitary.
    Positive(&'a Replacement),
    /// A current-epoch known-failure marker.
    Negative { eps: f64, max_len: usize },
}

#[derive(Default)]
struct Stripe {
    map: HashMap<Fingerprint, Entry>,
    gates: usize,
    clock: u64,
}

/// One tallied cache event: a per-instance [`qtrace::Counter`] (so
/// [`QCache::stats`] stays an exact per-cache delta, which the engine
/// tests and `GuoqResult`'s per-run cache fields depend on) mirrored
/// into the process-wide registry series of the same event (so a
/// Prometheus scrape sees all caches' traffic without bespoke atomics).
struct Tally {
    local: qtrace::Counter,
    global: &'static qtrace::Counter,
}

impl Tally {
    fn new(global_name: &'static str) -> Self {
        Tally {
            local: qtrace::Counter::new(),
            global: qtrace::counter(global_name),
        }
    }

    fn inc(&self) {
        self.local.inc();
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.get()
    }
}

/// The concurrent memo table mapping [`Fingerprint`] → synthesized
/// replacement circuit. See the [crate docs](crate) for the design;
/// the essentials:
///
/// * **Lock-striped**: the fingerprint hash selects one of
///   [`QCacheOpts::stripes`] independently locked shards.
/// * **Bounded**: total replacement gates are capped by
///   [`QCacheOpts::gate_budget`]; least-recently-used entries are
///   evicted per stripe.
/// * **Verify-on-hit**: [`lookup`](Self::lookup) compares the query
///   target against the entry's stored unitary and serves the entry
///   only within the caller's ε — collisions are harmless, and the
///   returned [`CacheHit::epsilon`] is measured, not assumed.
///
/// The one integrity contract sits on [`insert`](Self::insert): the
/// supplied unitary must be the circuit's true unitary (debug builds
/// assert it). Everything downstream — including poisoned or colliding
/// entries — is covered by the verification.
pub struct QCache {
    stripes: Vec<Mutex<Stripe>>,
    stripe_budget: usize,
    hits: Tally,
    negative_hits: Tally,
    misses: Tally,
    verify_rejects: Tally,
    inserts: Tally,
    evictions: Tally,
    /// Current negative-entry epoch: entries stamped with an older
    /// epoch are stale (recorded under a different synthesis-budget
    /// profile) and read as misses.
    negative_epoch: AtomicU64,
    /// Fingerprint of the last budget profile observed by
    /// [`note_budget_profile`](Self::note_budget_profile) (0 = none
    /// yet).
    profile_stamp: AtomicU64,
}

impl QCache {
    /// Creates a cache from options.
    pub fn new(opts: QCacheOpts) -> Self {
        let n = opts.stripes.max(1);
        QCache {
            stripes: (0..n).map(|_| Mutex::new(Stripe::default())).collect(),
            stripe_budget: opts.gate_budget / n,
            hits: Tally::new("qcache_hits_total"),
            negative_hits: Tally::new("qcache_negative_hits_total"),
            misses: Tally::new("qcache_misses_total"),
            verify_rejects: Tally::new("qcache_verify_rejects_total"),
            inserts: Tally::new("qcache_inserts_total"),
            evictions: Tally::new("qcache_evictions_total"),
            negative_epoch: AtomicU64::new(0),
            profile_stamp: AtomicU64::new(0),
        }
    }

    /// Declares the synthesis-budget profile (an opaque fingerprint of
    /// whatever knobs bound synthesis power — restarts, iterations,
    /// replacement-length caps) behind the caller's lookups. A *change*
    /// of profile bumps the negative-entry epoch
    /// ([`bump_negative_epoch`](Self::bump_negative_epoch)): "fails at
    /// (ε, budget)" was observed under the old profile, and a grown
    /// profile deserves a retry. The first observation sets the stamp
    /// without invalidating anything; alternating profiles over one
    /// shared cache degrade gracefully (negatives keep expiring —
    /// sound, just less negative-cache leverage). Positive entries are
    /// untouched: a verified replacement is correct under any budget
    /// within the caller's length cap.
    pub fn note_budget_profile(&self, fingerprint: u64) {
        let prev = self.profile_stamp.swap(fingerprint, Ordering::Relaxed);
        if prev != 0 && prev != fingerprint {
            self.bump_negative_epoch();
        }
    }

    /// Expires every resident *negative* entry: subsequent lookups
    /// treat them as misses until a fresh failure is recorded under
    /// the new epoch. (The entries stay resident until LRU eviction or
    /// a re-failure overwrites them; staleness is checked at lookup.)
    pub fn bump_negative_epoch(&self) {
        self.negative_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Creates a cache with the default stripe count and the given gate
    /// budget.
    pub fn with_gate_budget(gate_budget: usize) -> Self {
        QCache::new(QCacheOpts {
            gate_budget,
            ..QCacheOpts::default()
        })
    }

    fn stripe(&self, fp: &Fingerprint) -> &Mutex<Stripe> {
        &self.stripes[(fp.hash() % self.stripes.len() as u64) as usize]
    }

    /// Looks up `fp` for `target`: serves a replacement only if its
    /// stored unitary is within `eps` of `target` (the verify-on-hit
    /// check that makes fingerprint collisions harmless) and its length
    /// is within the caller's `max_len` budget (so a hit never hands
    /// back a circuit the caller's own synthesis budget could not have
    /// produced — pass `usize::MAX` for no cap), serves
    /// [`Lookup::KnownFailure`] if synthesis is recorded failing at
    /// this ε (or looser) under this length budget (or looser), and
    /// [`Lookup::Miss`] otherwise. A served entry has its LRU stamp
    /// refreshed.
    pub fn lookup(&self, fp: &Fingerprint, target: &Mat, eps: f64, max_len: usize) -> Lookup {
        let mut stripe = self.stripe(fp).lock().expect("qcache stripe poisoned");
        let stripe = &mut *stripe;
        let Some(entry) = stripe.map.get_mut(fp) else {
            self.misses.inc();
            return Lookup::Miss;
        };
        match &entry.stored {
            Stored::Negative {
                eps: failed_at,
                max_len: failed_len,
                epoch,
            } => {
                if *epoch != self.negative_epoch.load(Ordering::Relaxed) {
                    // Stale: recorded under a previous budget profile.
                    // The grown (or otherwise changed) budget deserves
                    // a fresh attempt.
                    self.misses.inc();
                    Lookup::Miss
                } else if eps <= *failed_at && max_len <= *failed_len {
                    stripe.clock += 1;
                    entry.stamp = stripe.clock;
                    self.negative_hits.inc();
                    Lookup::KnownFailure
                } else {
                    // A looser request (in ε or in length budget) might
                    // succeed where the tighter one failed; let the
                    // caller try.
                    self.misses.inc();
                    Lookup::Miss
                }
            }
            Stored::Positive(rep) => {
                if rep.instrs.len() > max_len {
                    // Producible-by-fresh-synthesis contract: the entry
                    // (synthesized under some other window's budget) is
                    // longer than this caller's own synthesis could
                    // return; let it synthesize within its budget.
                    self.misses.inc();
                    return Lookup::Miss;
                }
                if rep.unitary.rows() != target.rows() {
                    // Cannot happen through `fingerprint` (the dim is
                    // part of the key), but a defensive reject beats a
                    // panic.
                    self.verify_rejects.inc();
                    return Lookup::Miss;
                }
                let measured = accurate_hs_distance(target, &rep.unitary);
                if measured > eps {
                    self.verify_rejects.inc();
                    return Lookup::Miss;
                }
                let hit = CacheHit {
                    circuit: rep.circuit(),
                    epsilon: measured,
                };
                stripe.clock += 1;
                entry.stamp = stripe.clock;
                self.hits.inc();
                Lookup::Hit(hit)
            }
        }
    }

    /// Inserts (or overwrites) the replacement for `fp`. `unitary` must
    /// be `circuit`'s true unitary — it is what every future
    /// verification trusts. Evicts least-recently-used entries while
    /// the stripe exceeds its gate budget (always retaining the newest
    /// entry).
    pub fn insert(&self, fp: Fingerprint, circuit: &Circuit, unitary: Mat) {
        debug_assert!(
            circuit.is_empty() || accurate_hs_distance(&circuit.unitary(), &unitary) < 1e-9,
            "insert contract violated: supplied unitary is not the circuit's"
        );
        debug_assert_eq!(unitary.rows(), fp.dim(), "unitary/fingerprint dim mismatch");
        let entry = Replacement::new(circuit, unitary);
        let weight = entry.weight();
        self.store(fp, Stored::Positive(entry), weight);
    }

    /// Inserts a positive entry restored from a persisted snapshot.
    ///
    /// Unlike [`insert`](Self::insert) this does not assert the
    /// circuit/unitary contract even in debug builds: a snapshot is
    /// external input and may carry a poisoned pair despite a valid
    /// checksum (e.g. a bit flip inside one record's payload that
    /// happens to keep its checksum — or simply an attacker-written
    /// file). Verify-on-hit makes any such entry a harmless
    /// `verify_reject`; aborting the load would turn a recoverable
    /// corruption into downtime.
    pub(crate) fn insert_loaded(&self, fp: Fingerprint, circuit: &Circuit, unitary: Mat) {
        let entry = Replacement::new(circuit, unitary);
        let weight = entry.weight();
        self.store(fp, Stored::Positive(entry), weight);
    }

    /// The raw budget-profile stamp (see
    /// [`note_budget_profile`](Self::note_budget_profile); 0 = none
    /// observed yet). Persisted in snapshots so restored negative
    /// entries keep their profile scoping across a restart.
    pub(crate) fn profile_stamp_raw(&self) -> u64 {
        self.profile_stamp.load(Ordering::Relaxed)
    }

    /// Adopts a snapshot's persisted profile stamp, but only if this
    /// cache has not observed a profile of its own yet — a snapshot
    /// loaded into a live table must not un-declare the live profile.
    /// After adoption, [`note_budget_profile`](Self::note_budget_profile)
    /// with a *different* profile expires the loaded negatives exactly
    /// as it would have expired the originals.
    pub(crate) fn adopt_profile_stamp(&self, stamp: u64) {
        let _ = self
            .profile_stamp
            .compare_exchange(0, stamp, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Visits every resident non-stale entry in stripe-major,
    /// ascending-recency order (least recently used first), so a
    /// consumer that replays the visit order through inserts — the
    /// snapshot save/load cycle — reproduces each stripe's LRU order.
    /// Negative entries from an expired epoch are skipped: they are
    /// already dead to lookups and a restart must not revive them.
    ///
    /// Holds one stripe lock at a time; entries inserted or evicted
    /// concurrently may be missed (a snapshot is a best-effort
    /// checkpoint, not a consistent dump).
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(&Fingerprint, EntryView<'_>)) {
        let epoch = self.negative_epoch.load(Ordering::Relaxed);
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("qcache stripe poisoned");
            let mut entries: Vec<_> = stripe
                .map
                .iter()
                .filter_map(|(fp, e)| {
                    let view = match &e.stored {
                        Stored::Positive(rep) => EntryView::Positive(rep),
                        Stored::Negative {
                            eps,
                            max_len,
                            epoch: entry_epoch,
                        } => {
                            if *entry_epoch != epoch {
                                return None;
                            }
                            EntryView::Negative {
                                eps: *eps,
                                max_len: *max_len,
                            }
                        }
                    };
                    Some((e.stamp, fp, view))
                })
                .collect();
            entries.sort_by_key(|(stamp, ..)| *stamp);
            for (_, fp, view) in entries {
                f(fp, view);
            }
        }
    }

    /// Records that synthesizing `fp` **failed** at tolerance `eps`
    /// under a replacement-length budget of `max_len`, so future
    /// lookups at that (ε, budget) or tighter skip the doomed
    /// instantiation (a failed numerical synthesis costs the same
    /// multi-restart budget as a successful one — on repeat traffic the
    /// failures dominate the misses without this). Never displaces a
    /// positive entry; repeated failures keep the loosest failing
    /// (ε, budget) pair.
    pub fn insert_failure(&self, fp: Fingerprint, eps: f64, max_len: usize) {
        let epoch = self.negative_epoch.load(Ordering::Relaxed);
        let mut stripe = self.stripe(&fp).lock().expect("qcache stripe poisoned");
        let (eps, max_len) = match stripe.map.get(&fp) {
            Some(Entry {
                stored: Stored::Positive(_),
                ..
            }) => return, // a servable replacement trumps a failure marker
            Some(Entry {
                stored:
                    Stored::Negative {
                        eps: prior_eps,
                        max_len: prior_len,
                        epoch: prior_epoch,
                    },
                ..
            }) if *prior_epoch == epoch => {
                // Only replace when the new observation dominates the
                // stored one — a componentwise max would fabricate an
                // (ε, budget) failure that was never observed.
                if eps >= *prior_eps && max_len >= *prior_len {
                    (eps, max_len)
                } else {
                    return;
                }
            }
            // A stale-epoch marker carries no information about the
            // current profile: the fresh observation replaces it.
            Some(_) | None => (eps, max_len),
        };
        self.store_locked(
            &mut stripe,
            fp,
            Stored::Negative {
                eps,
                max_len,
                epoch,
            },
            1,
        );
    }

    fn store(&self, fp: Fingerprint, stored: Stored, weight: usize) {
        let mut stripe = self.stripe(&fp).lock().expect("qcache stripe poisoned");
        self.store_locked(&mut stripe, fp, stored, weight);
    }

    fn store_locked(&self, stripe: &mut Stripe, fp: Fingerprint, stored: Stored, weight: usize) {
        stripe.clock += 1;
        let stamp = stripe.clock;
        let old = stripe.map.insert(
            fp,
            Entry {
                stored,
                weight,
                stamp,
            },
        );
        stripe.gates += weight;
        if let Some(old) = old {
            stripe.gates -= old.weight;
        }
        self.inserts.inc();

        while stripe.gates > self.stripe_budget && stripe.map.len() > 1 {
            // LRU scan: stripes stay small (a few hundred entries at
            // most under the default budget), so a linear min-stamp
            // scan beats maintaining an intrusive list.
            let lru = *stripe
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
                .expect("non-empty stripe");
            let evicted = stripe.map.remove(&lru).expect("lru key present");
            stripe.gates -= evicted.weight;
            self.evictions.inc();
        }
    }

    /// A consistent-enough counter snapshot (entries/gates are summed
    /// per stripe; concurrent mutation may skew totals by in-flight
    /// operations).
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut gates = 0;
        for s in &self.stripes {
            let s = s.lock().expect("qcache stripe poisoned");
            entries += s.map.len();
            gates += s.gates;
        }
        CacheStats {
            hits: self.hits.get(),
            negative_hits: self.negative_hits.get(),
            misses: self.misses.get(),
            verify_rejects: self.verify_rejects.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            entries,
            gates,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for QCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("QCache")
            .field("entries", &s.entries)
            .field("gates", &s.gates)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("verify_rejects", &s.verify_rejects)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use qcir::{Gate, GateSet};
    use std::sync::Arc;

    fn rz_circuit(theta: f64) -> (Circuit, Mat) {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(theta), &[0]);
        let u = c.unitary();
        (c, u)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let cache = QCache::new(QCacheOpts::default());
        let (c, u) = rz_circuit(0.7);
        let fp = fingerprint(&u, GateSet::Nam);
        assert!(cache.lookup(&fp, &u, 1e-9, usize::MAX).hit().is_none());
        cache.insert(fp, &c, u.clone());
        let hit = cache
            .lookup(&fp, &u, 1e-9, usize::MAX)
            .hit()
            .expect("hit after insert");
        assert_eq!(hit.circuit, c);
        assert!(hit.epsilon < 1e-12);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.verify_rejects), (1, 1, 0));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn map_values_stay_compact() {
        // Every slot of a stripe's map pays the value's inline size,
        // negative entries included; a positive payload sits behind one
        // box.
        let size = std::mem::size_of::<Entry>();
        assert!(size <= 64, "map value is {size} bytes inline");
    }

    #[test]
    fn poisoned_entry_is_rejected_by_verification() {
        // Simulate a fingerprint collision: the key says Rz(0.3) but the
        // stored pair is a (self-consistent) Rz(2.9) entry. The lookup's
        // exact-matrix verification must refuse to serve it.
        let cache = QCache::new(QCacheOpts::default());
        let (_, target) = rz_circuit(0.3);
        let (poison_c, poison_u) = rz_circuit(2.9);
        let fp = fingerprint(&target, GateSet::Nam);
        cache.insert(fp, &poison_c, poison_u);
        assert!(cache.lookup(&fp, &target, 1e-6, usize::MAX).hit().is_none());
        let s = cache.stats();
        assert_eq!(s.verify_rejects, 1);
        assert_eq!(s.hits, 0);
        // A fresh (honest) insert under the same key repairs the slot.
        let (good_c, good_u) = rz_circuit(0.3);
        cache.insert(fp, &good_c, good_u);
        assert!(cache.lookup(&fp, &target, 1e-6, usize::MAX).hit().is_some());
    }

    #[test]
    fn entry_coarser_than_requested_eps_is_rejected() {
        let cache = QCache::new(QCacheOpts::default());
        let (_, target) = rz_circuit(0.5);
        let (near_c, near_u) = rz_circuit(0.5 + 1e-4);
        let fp = fingerprint(&target, GateSet::Nam);
        cache.insert(fp, &near_c, near_u);
        // Loose ε: served, with the measured (nonzero) distance.
        let hit = cache
            .lookup(&fp, &target, 1e-3, usize::MAX)
            .hit()
            .expect("loose eps hit");
        assert!(hit.epsilon > 0.0 && hit.epsilon <= 1e-3);
        // Tight ε: the same entry no longer qualifies.
        assert!(cache.lookup(&fp, &target, 1e-9, usize::MAX).hit().is_none());
        assert_eq!(cache.stats().verify_rejects, 1);
    }

    #[test]
    fn lru_eviction_respects_gate_budget() {
        // One stripe, budget 6 gates; 3-gate entries → at most 2 fit.
        let cache = QCache::new(QCacheOpts {
            gate_budget: 6,
            stripes: 1,
        });
        let mut fps = Vec::new();
        for k in 0..3 {
            let mut c = Circuit::new(1);
            for j in 0..3 {
                c.push(Gate::Rz(0.1 + k as f64 + j as f64 * 0.01), &[0]);
            }
            let u = c.unitary();
            let fp = fingerprint(&u, GateSet::Nam);
            cache.insert(fp, &c, u.clone());
            fps.push((fp, u));
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.gates <= 6);
        // The oldest entry (k = 0) is the evicted one.
        assert!(cache
            .lookup(&fps[0].0, &fps[0].1, 1e-9, usize::MAX)
            .hit()
            .is_none());
        assert!(cache
            .lookup(&fps[2].0, &fps[2].1, 1e-9, usize::MAX)
            .hit()
            .is_some());
    }

    #[test]
    fn lookup_refreshes_lru_order() {
        let cache = QCache::new(QCacheOpts {
            gate_budget: 6,
            stripes: 1,
        });
        let entry = |theta: f64| {
            let mut c = Circuit::new(1);
            for j in 0..3 {
                c.push(Gate::Rz(theta + j as f64 * 0.01), &[0]);
            }
            let u = c.unitary();
            let fp = fingerprint(&u, GateSet::Nam);
            (c, u, fp)
        };
        let (c0, u0, fp0) = entry(0.2);
        let (c1, u1, fp1) = entry(1.2);
        cache.insert(fp0, &c0, u0.clone());
        cache.insert(fp1, &c1, u1.clone());
        // Touch the older entry, then overflow: the *untouched* one goes.
        assert!(cache.lookup(&fp0, &u0, 1e-9, usize::MAX).hit().is_some());
        let (c2, u2, fp2) = entry(2.2);
        cache.insert(fp2, &c2, u2);
        assert!(cache.lookup(&fp0, &u0, 1e-9, usize::MAX).hit().is_some());
        assert!(cache.lookup(&fp1, &u1, 1e-9, usize::MAX).hit().is_none());
    }

    #[test]
    fn known_failures_are_served_and_yield_to_positives() {
        let cache = QCache::new(QCacheOpts::default());
        let (c, u) = rz_circuit(1.1);
        let fp = fingerprint(&u, GateSet::Nam);
        cache.insert_failure(fp, 1e-6, 8);
        // Same or tighter (ε, length budget): the failure is served.
        assert!(cache.lookup(&fp, &u, 1e-6, 8).is_known_failure());
        assert!(cache.lookup(&fp, &u, 1e-9, 4).is_known_failure());
        // Looser ε might succeed: treated as a miss.
        assert!(matches!(cache.lookup(&fp, &u, 1e-3, 8), Lookup::Miss));
        // So might a roomier length budget.
        assert!(matches!(cache.lookup(&fp, &u, 1e-6, 20), Lookup::Miss));
        // Repeated dominating failures widen the stored pair.
        cache.insert_failure(fp, 1e-4, 8);
        assert!(cache.lookup(&fp, &u, 1e-4, 8).is_known_failure());
        let s = cache.stats();
        assert_eq!(s.negative_hits, 3);
        assert_eq!(s.misses, 2);
        // A later success overwrites the failure marker…
        cache.insert(fp, &c, u.clone());
        assert!(cache.lookup(&fp, &u, 1e-9, usize::MAX).hit().is_some());
        // …and a subsequent failure report cannot displace it.
        cache.insert_failure(fp, 1.0, usize::MAX);
        assert!(cache.lookup(&fp, &u, 1e-9, usize::MAX).hit().is_some());
    }

    #[test]
    fn negative_entries_expire_when_the_budget_profile_changes() {
        let cache = QCache::new(QCacheOpts::default());
        let (c, u) = rz_circuit(0.9);
        let fp = fingerprint(&u, GateSet::Nam);
        // First profile observation: stamps without invalidating.
        cache.note_budget_profile(11);
        cache.insert_failure(fp, 1e-6, 8);
        assert!(cache.lookup(&fp, &u, 1e-6, 8).is_known_failure());
        // Re-declaring the same profile changes nothing.
        cache.note_budget_profile(11);
        assert!(cache.lookup(&fp, &u, 1e-6, 8).is_known_failure());
        // A grown budget profile expires the failure: the caller
        // retries instead of being served a stale "fails".
        cache.note_budget_profile(42);
        assert!(matches!(cache.lookup(&fp, &u, 1e-6, 8), Lookup::Miss));
        // A re-failure under the new profile is cached (replacing the
        // stale-epoch marker outright, no dominance check) and served
        // again.
        cache.insert_failure(fp, 1e-6, 8);
        assert!(cache.lookup(&fp, &u, 1e-6, 8).is_known_failure());
        // Positive entries never expire with the profile.
        cache.note_budget_profile(77);
        cache.insert(fp, &c, u.clone());
        assert!(cache.lookup(&fp, &u, 1e-9, usize::MAX).hit().is_some());
        cache.note_budget_profile(78);
        assert!(cache.lookup(&fp, &u, 1e-9, usize::MAX).hit().is_some());
    }

    #[test]
    fn explicit_epoch_bump_expires_negatives() {
        let cache = QCache::new(QCacheOpts::default());
        let (_, u) = rz_circuit(0.2);
        let fp = fingerprint(&u, GateSet::Nam);
        cache.insert_failure(fp, 1e-6, 8);
        assert!(cache.lookup(&fp, &u, 1e-6, 8).is_known_failure());
        cache.bump_negative_epoch();
        assert!(matches!(cache.lookup(&fp, &u, 1e-6, 8), Lookup::Miss));
    }

    #[test]
    fn negative_entries_participate_in_lru() {
        let cache = QCache::new(QCacheOpts {
            gate_budget: 2,
            stripes: 1,
        });
        let (_, u1) = rz_circuit(0.1);
        let (_, u2) = rz_circuit(0.2);
        let (_, u3) = rz_circuit(0.3);
        cache.insert_failure(fingerprint(&u1, GateSet::Nam), 1e-6, 4);
        cache.insert_failure(fingerprint(&u2, GateSet::Nam), 1e-6, 4);
        cache.insert_failure(fingerprint(&u3, GateSet::Nam), 1e-6, 4);
        let s = cache.stats();
        assert_eq!(s.entries, 2, "weight-1 negatives must evict at budget 2");
        assert_eq!(s.evictions, 1);
        assert!(!cache
            .lookup(&fingerprint(&u1, GateSet::Nam), &u1, 1e-6, 4)
            .is_known_failure());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(QCache::new(QCacheOpts {
            gate_budget: 4096,
            stripes: 4,
        }));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for k in 0..200 {
                        let (c, u) = rz_circuit(0.01 * (k % 50) as f64 + t as f64);
                        let fp = fingerprint(&u, GateSet::Nam);
                        if let Lookup::Hit(hit) = cache.lookup(&fp, &u, 1e-9, usize::MAX) {
                            assert!(hit.epsilon < 1e-9);
                        } else {
                            cache.insert(fp, &c, u);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses + s.verify_rejects, 800);
        assert!(s.hits > 0, "repeated keys must hit: {s:?}");
    }
}
