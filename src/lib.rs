//! Umbrella crate for the GUOQ reproduction workspace.
//!
//! Re-exports the public crates so the examples and integration tests can
//! use a single dependency. See the individual crates for the actual APIs:
//!
//! * [`qmath`] — complex linear algebra and distance metrics
//! * [`qcir`] — circuit IR, gate sets, rebasing, QASM I/O, and the
//!   patch-based edit layer (`qcir::edit`) over a slot arena with
//!   embedded per-wire links
//! * [`qsim`] — statevector simulation and equivalence checking
//! * [`qrewrite`] — rewrite rules: matching, application, synthesis;
//!   patch-producing variants of every pass for the incremental engine
//! * [`qsynth`] — unitary synthesis (continuous and finite gate sets)
//! * [`qfold`] — phase-polynomial rotation folding (PyZX stand-in)
//! * [`qcache`] — shared per-gate-set setup registry and the
//!   memoized-resynthesis cache (fingerprint + verified memo table)
//! * [`qcert`] — local-optimality window certificates: stamp maps the
//!   serial driver folds accepted patches into, rebased across
//!   `CircuitDelta`s for incremental re-optimization
//! * [`guoq`] — the GUOQ optimizer and all baseline optimizers
//! * [`workloads`] — benchmark circuit generators
//!
//! # The edit-engine architecture
//!
//! GUOQ's inner loop is an anytime stochastic search whose quality is
//! proportional to iterations per second, so the workspace has one
//! candidate path. A `guoq::SearchCtx` owns one working circuit whose
//! wire adjacency lives in the circuit's slot arena
//! (`qcir::Circuit::next_on_wire` and friends). Transformations propose
//! `qcir::edit::Patch`es, `guoq::CostFn::delta` prices each in O(edit
//! span), and accepted edits are applied in place by
//! `Circuit::apply_patch`, which relinks only the wires crossing the
//! edit window (`crates/bench/benches/guoq_iter.rs` measures the loop).
//! `guoq::Engine` only schedules that loop — serially, with
//! certification, with asynchronous resynthesis, or one loop per shard —
//! and each variant carries exactly the settings its engine reads.
//! `tests/patch_differential.rs` checks the patches against the
//! materializing rewrite passes and every engine for semantics,
//! drift-free costs and ε within budget; `tests/trajectory_pin.rs` pins
//! the serial, certifying and sharded trajectories.

pub use guoq;
pub use qcache;
pub use qcert;
pub use qcir;
pub use qfold;
pub use qmath;
pub use qrewrite;
pub use qsim;
pub use qsynth;
pub use workloads;
