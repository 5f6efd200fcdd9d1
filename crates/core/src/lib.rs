//! `guoq` — the GUOQ quantum-circuit optimizer (ASPLOS 2025 reproduction).
//!
//! GUOQ ("Good Unified Optimizations for Quantum") unifies *fast* rewrite
//! rules and *slow* unitary resynthesis behind a single closed-box
//! transformation abstraction (`τ_ε`), then drives them with a
//! lightweight simulated-annealing-style loop (Algorithm 1).
//!
//! * [`transform`]: the `τ_ε` abstraction and its instantiations
//! * [`cost`] / [`fidelity`]: optimization objectives (§5.1, §6)
//! * [`driver`]: the single-shard search driver — Algorithm 1's
//!   Metropolis/budget state, shared by every engine
//! * [`guoq`]: Algorithm 1 with exact ε-budget accounting (Thm. 4.2/5.3),
//!   the typed [`Engine`] choice, and the §5.3 async-resynthesis engine
//! * [`observe`]: the event-sourced optimization stream — typed
//!   [`OptEvent`]s with [`qcir::delta::CircuitDelta`] payloads, the
//!   [`OptRun`] handle ([`Guoq::run`]), the synchronous sink
//!   ([`Guoq::optimize_events`]) and cooperative cancellation
//!   ([`CancelToken`]) — the hooks the `qserve` service layer builds on
//! * [`sharded`]: the region-partitioned parallel engine
//!   ([`Engine::Sharded`]) over the `qpar` worker pool
//! * [`baselines`]: re-implemented archetypes of the comparison tools
//!   (fixed pipelines, partition+resynth, beam search, bandit scheduler)
//!
//! ```
//! use guoq::{Guoq, GuoqOpts, Budget, cost::TwoQubitCount};
//! use qcir::{Circuit, Gate, GateSet};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[0, 1]);
//! let opts = GuoqOpts { budget: Budget::Iterations(100), ..Default::default() };
//! let result = Guoq::for_gate_set(GateSet::Nam, opts).optimize(&c, &TwoQubitCount);
//! assert_eq!(result.circuit.two_qubit_count(), 0);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod cost;
pub mod driver;
pub mod fidelity;
pub mod guoq;
pub mod observe;
pub mod sharded;
pub mod transform;

pub use cost::CostFn;
pub use driver::ShardDriver;
pub use fidelity::CalibrationModel;
pub use guoq::{
    Budget, Engine, Guoq, GuoqOpts, GuoqResult, HistoryPoint, DEFAULT_SLICE_ITERATIONS,
};
pub use observe::{CancelToken, OptEvent, OptRun};
pub use qcache::{CacheStats, QCache, QCacheOpts};
pub use qcert::{CertMap, Certificate, Stamp};
pub use qpar::WorkerStats;
pub use qtrace::{Family, FamilyStats, Profile};
pub use transform::{PatchApplied, SearchCtx, Transformation};
