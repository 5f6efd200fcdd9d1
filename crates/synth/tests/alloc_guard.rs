//! Allocation guard for numerical instantiation.
//!
//! `qsynth::instantiate` sizes one workspace per call — prefix and
//! suffix stacks, the gradient matrix, the unitary double buffer and
//! the Levenberg–Marquardt buffers — and every Adam step, restart and
//! polish reuses it. So the number of heap allocations of a call must
//! not depend on how many Adam iterations it runs.
//!
//! The guard counts allocations with a counting global allocator and
//! runs the same call with K and with 2K iterations per restart, on a
//! target the template cannot reach: the distance never enters the
//! Levenberg–Marquardt basin, so each restart runs its full iteration
//! count, and the closing polish runs in both calls. The extra K
//! iterations per restart must add exactly zero allocations.

use qmath::Mat;
use qsynth::instantiate::{instantiate, InstantiateOpts, Template};
use rand::rngs::SmallRng;
use rand::SeedableRng;
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

/// Instantiates `template` against `target` with `iters` Adam steps per
/// restart and returns (allocations, distance).
fn counted(template: &Template, target: &Mat, iters: usize) -> (u64, f64) {
    let opts = InstantiateOpts {
        restarts: 2,
        iters,
        ..InstantiateOpts::default()
    };
    let mut rng = SmallRng::seed_from_u64(17);
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = instantiate(template, target, &opts, &mut rng);
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, r.distance)
}

#[test]
fn adam_iterations_allocate_nothing() {
    const K: usize = 60;
    // No CX cannot make CX, and one CX cannot make a Toffoli.
    let cases = [
        (Template::with_cx_sequence(2, &[]), qmath::gates::cx()),
        (
            Template::with_cx_sequence(3, &[(0, 1)]),
            qmath::gates::ccx(),
        ),
    ];
    for (template, target) in &cases {
        let (allocs_k, d_k) = counted(template, target, K);
        let (allocs_2k, d_2k) = counted(template, target, 2 * K);
        assert!(d_k > 1e-2 && d_2k > 1e-2, "target must stay out of reach");
        assert_eq!(
            allocs_2k,
            allocs_k,
            "{}-qubit instantiation allocated {} more times over {K} extra iterations per restart",
            template.n_qubits(),
            allocs_2k as i64 - allocs_k as i64
        );
    }
}
