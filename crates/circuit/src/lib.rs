//! `qcir` — quantum circuit IR for the GUOQ reproduction.
//!
//! The crate provides:
//!
//! * [`Gate`]: the gate alphabet covering all five evaluation gate sets
//! * [`Circuit`] / [`Instruction`]: the ordered-list IR with O(1) cached
//!   gate-count metrics, per-wire DAG links embedded in its slot arena
//!   ([`Circuit::next_on_wire`] and friends) and dense-unitary semantics
//! * [`edit::Patch`]: local edits with in-place
//!   [`Circuit::apply_patch`]/[`Circuit::revert_patch`] — the substrate
//!   of the incremental optimizer loop
//! * [`delta::CircuitDelta`]: a stable, versioned serialized form of
//!   edit scripts (apply / compose / diff + a compact line codec) — the
//!   wire and journal currency of the event-sourced optimization API
//! * [`region::Region`]: convex subcircuits — extraction and sound
//!   replacement (the substrate for both rewrite application and
//!   resynthesis)
//! * [`shard::ShardPlan`]: contiguous-window partitioning with boundary
//!   rotation and patch re-offsetting — the substrate for sharded
//!   parallel optimization
//! * [`gateset::GateSet`] and [`rebase::rebase`]: the paper's Table 2 gate
//!   sets and verified decompositions into them
//! * [`qasm`]: OpenQASM 2.0 subset I/O
//!
//! # Example
//!
//! ```
//! use qcir::{Circuit, Gate, gateset::GateSet, rebase::rebase};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::Ccx, &[0, 1, 2]);
//! let native = rebase(&c, GateSet::IbmEagle)?;
//! assert!(native.iter().all(|i| GateSet::IbmEagle.contains(i.gate)));
//! # Ok::<(), qcir::rebase::RebaseError>(())
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod delta;
pub mod edit;
pub mod gate;
pub mod gateset;
pub mod qasm;
pub mod rebase;
pub mod region;
pub mod shard;

pub use circuit::{Circuit, GateCounts, Instruction, Qubit};
pub use delta::{CircuitDelta, DeltaError};
pub use edit::{Patch, PatchUndo};
pub use gate::{Gate, GateKind, Params};
pub use gateset::GateSet;
pub use region::Region;
pub use shard::{ShardPlan, ShardSpec};
