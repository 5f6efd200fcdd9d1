//! `workloads` — benchmark circuit generators and suite assembly.
//!
//! Reproduces the families of the paper's 247-circuit suite: near- and
//! long-term algorithms (QAOA, VQE, QPE, QFT, Grover, adders, Toffoli
//! networks, Hamiltonian simulation, quantum-volume-style random
//! circuits) with deterministic seeds, plus per-gate-set suite assembly
//! with automatic rebasing.
//!
//! ```
//! use workloads::{suite, SuiteScale};
//! use qcir::GateSet;
//! let s = suite(GateSet::IbmEagle, SuiteScale::Smoke);
//! assert!(s.iter().all(|b| b.circuit.iter().all(|i| GateSet::IbmEagle.contains(i.gate))));
//! ```

#![warn(missing_docs)]

pub mod generators;
pub mod suite;

/// The gate sets [`suite`] assembles for, nameable without a direct
/// dependency on `qcir`.
pub use qcir::GateSet;
pub use suite::{suite, Benchmark, SuiteScale};
