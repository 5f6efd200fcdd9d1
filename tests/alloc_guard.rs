//! Allocation guard for the incremental-engine hot path.
//!
//! ISSUE 7's arena refactor promises that a *rejected* iteration — probe
//! an anchor, fail to propose (or propose nothing), move on — performs
//! **zero heap allocations**: anchor walks ride the arena's embedded
//! id/wire links, the matcher reuses its scratch, and Clifford+T fusion
//! streams phase steps against a static lookup table instead of
//! collecting runs.
//!
//! The guard measures it directly with a counting global allocator.
//! Absolute counts are useless (driver setup, scratch warm-up, and the
//! one-time rule corpus all allocate), so the test differences two
//! deterministic runs of K and 2K iterations on a workload where every
//! proposal fails: the extra K iterations must add exactly zero
//! allocations.
//!
//! The workload is a period-3 CX ladder — `CX(0,1) CX(1,2) CX(2,3)`
//! repeated. No Clifford+T rule matches it (adjacent pairs share
//! neither control nor target; wire-adjacent equal pairs are blocked on
//! the other wire), fusion needs a 1-qubit anchor, cleanup needs an
//! identity, and commutation finds no inverse/mergeable pair. The test
//! asserts `accepted == 0` so a corpus change that starts matching the
//! ladder fails loudly rather than silently weakening the guard.
//!
//! The guard runs with `qtrace` instrumentation **enabled** (pinned
//! explicitly, in case the default ever changes): the telemetry layer
//! promises the hot path stays allocation-free — per-family tallies are
//! plain field adds, slow spans read a monotonic clock into a local,
//! and the one registry flush happens at `finish`, outside the
//! iteration loop. Each run asserts the profile actually measured time
//! so a regression that silently disables instrumentation cannot turn
//! the guard into a no-op.

use guoq::cost::GateCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{Circuit, Gate, GateSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn cx_ladder(gates: usize) -> Circuit {
    let mut c = Circuit::new(4);
    for i in 0..gates {
        let a = (i % 3) as u32;
        c.push(Gate::Cx, &[a, a + 1]);
    }
    c
}

fn opts(iterations: u64) -> GuoqOpts {
    GuoqOpts {
        budget: Budget::Iterations(iterations),
        temperature: 0.0,
        resynth_probability: 0.0,
        record_history: false,
        engine: Engine::Serial,
        seed: 7,
        ..Default::default()
    }
}

/// Runs the rewrite-only serial engine and returns (allocations, accepted).
fn counted_run(circuit: &Circuit, iterations: u64) -> (u64, u64) {
    let g = Guoq::rewrite_only(GateSet::CliffordT, opts(iterations));
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = g.optimize(circuit, &GateCount);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(r.iterations, iterations, "budget not honoured");
    assert!(
        r.profile.total_ns > 0,
        "instrumentation was not live during the counted run"
    );
    (after - before, r.accepted)
}

#[test]
fn rejected_iterations_allocate_nothing() {
    const K: u64 = 4096;
    // The zero-allocation guarantee must hold with telemetry ON: the
    // counted runs below record tallies and flush a profile into the
    // global registry, and still may not allocate per iteration.
    qtrace::set_enabled(true);
    let circuit = cx_ladder(96);

    // Warm-up: builds the shared rule corpus and any other one-time
    // lazies so they don't skew the measured runs.
    let (_, warm_accepted) = counted_run(&circuit, 64);
    assert_eq!(warm_accepted, 0, "workload must be rejection-only");

    let (allocs_k, accepted_k) = counted_run(&circuit, K);
    let (allocs_2k, accepted_2k) = counted_run(&circuit, 2 * K);
    assert_eq!(accepted_k, 0, "workload must be rejection-only");
    assert_eq!(accepted_2k, 0, "workload must be rejection-only");

    // Identical setup + 2x the rejected iterations: any per-iteration
    // allocation shows up K times over.
    assert_eq!(
        allocs_2k,
        allocs_k,
        "rejected iterations allocated: {} extra allocations over {} iterations",
        allocs_2k as i64 - allocs_k as i64,
        K
    );
}
