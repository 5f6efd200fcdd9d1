//! The persistent cache tier end to end: a snapshot written after a
//! repeat-mix warmup and loaded into a **fresh** table serves the same
//! repeat mix exactly like the still-resident in-process table — the
//! warm-restart guarantee behind `qserve --cache-snapshot`. A restarted
//! server pointed at its snapshot must behave as if it never stopped:
//! hit rate within 1% of the in-process warm rate, and ≥90% of
//! resynthesis consults served from the snapshot.

use guoq::cost::GateCount;
use guoq::{Budget, Guoq, GuoqOpts, QCache};
use qsim::circuits_equivalent;
use std::sync::Arc;
use workloads::generators::rotation_comb;

const JOBS: usize = 3;
const ITERS: u64 = 500;

/// One repeat-mix pass (the qcache bench's `repeat` mix: every job is
/// the same circuit + seed — recurring service traffic) through a
/// shared cache handle. Returns per-job terminal results.
fn run_mix(cache: &Arc<QCache>) -> Vec<(qcir::Circuit, f64, u64, u64)> {
    let circuit = rotation_comb(6, 240, 0xC0FFEE);
    (0..JOBS)
        .map(|_| {
            let opts = GuoqOpts {
                budget: Budget::Iterations(ITERS),
                eps_total: 1e-6,
                seed: 0xBEEF,
                // Resynthesis-heavy regime — the slow path the cache
                // exists for (see benches/qcache.rs).
                resynth_probability: 0.25,
                cache: Some(cache.clone()),
                ..Default::default()
            };
            let r = Guoq::for_gate_set(qcir::GateSet::Nam, opts).optimize(&circuit, &GateCount);
            (r.circuit, r.cost, r.cache_hits, r.cache_misses)
        })
        .collect()
}

#[test]
fn snapshot_warmed_table_matches_in_process_warm_replay() {
    let input = rotation_comb(6, 240, 0xC0FFEE);

    // Cold pass warms the in-process table…
    let resident = Arc::new(QCache::with_gate_budget(65_536));
    let cold = run_mix(&resident);
    let after_cold = resident.stats();
    assert!(
        after_cold.inserts > 0,
        "cold pass never exercised the cache; the test proves nothing"
    );

    // …the warm in-process replay is the baseline a restart competes
    // against…
    let warm_resident = run_mix(&resident);
    let after_warm = resident.stats();
    let warm_hits =
        (after_warm.hits + after_warm.negative_hits) - (after_cold.hits + after_cold.negative_hits);
    let warm_total = warm_hits
        + (after_warm.misses - after_cold.misses)
        + (after_warm.verify_rejects - after_cold.verify_rejects);
    let resident_rate = warm_hits as f64 / warm_total.max(1) as f64;

    // …and the snapshot round-trip is the restart: save, load into a
    // fresh table (a brand-new worker process), replay the mix.
    let path = std::env::temp_dir().join(format!(
        "qcache-warm-{}-{:?}.qcs",
        std::process::id(),
        std::thread::current().id()
    ));
    let saved = resident.save_snapshot(&path).expect("snapshot saves");
    assert!(saved.records > 0);
    assert_eq!(saved.skipped, 0);

    let restarted = Arc::new(QCache::with_gate_budget(65_536));
    let loaded = restarted.load_snapshot(&path).expect("snapshot loads");
    assert_eq!(loaded.records, saved.records, "every record restored");
    assert_eq!(loaded.skipped, 0, "clean snapshot, nothing damaged");

    let warm_snapshot = run_mix(&restarted);
    let snap = restarted.stats();
    let snap_hits = snap.hits + snap.negative_hits;
    let snap_total = snap_hits + snap.misses + snap.verify_rejects;
    let snapshot_rate = snap_hits as f64 / snap_total.max(1) as f64;

    // The restart is indistinguishable from never having died: the
    // snapshot-warmed trajectory is bit-for-bit the in-process warm
    // trajectory (RNG decoupling: hit and miss consume the same draw).
    for (j, (a, b)) in warm_resident.iter().zip(&warm_snapshot).enumerate() {
        assert_eq!(a.0, b.0, "job {j}: circuits diverged after restart");
        assert_eq!(a.1, b.1, "job {j}: costs diverged after restart");
        assert_eq!(
            (a.2, a.3),
            (b.2, b.3),
            "job {j}: cache counters diverged after restart"
        );
    }
    // Hit rate within 1% of the in-process table…
    assert!(
        (snapshot_rate - resident_rate).abs() <= 0.01,
        "snapshot warm rate {snapshot_rate:.4} strays from in-process {resident_rate:.4}"
    );
    // …and the warm-restart floor: ≥90% of consults served from the
    // snapshot.
    assert!(
        snapshot_rate >= 0.90,
        "warm restart served only {:.1}% of consults from the snapshot",
        100.0 * snapshot_rate
    );
    // Sanity on the results themselves: never worse than cold, still
    // equivalent to the input.
    for ((_, cold_cost, _, _), (circ, warm_cost, _, _)) in cold.iter().zip(&warm_snapshot) {
        assert!(warm_cost <= cold_cost);
        assert!(circuits_equivalent(&input, circ, 1e-4));
    }
    let _ = std::fs::remove_file(&path);
}
