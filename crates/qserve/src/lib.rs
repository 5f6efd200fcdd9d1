//! `qserve` — a streaming optimization service over the GUOQ engines.
//!
//! GUOQ is an *anytime* optimizer: quality is a function of wall-clock
//! budget, which is exactly the shape of a long-lived service. `qserve`
//! accepts OpenQASM jobs over a line-delimited protocol
//! ([`protocol`]), multiplexes N concurrent jobs onto a bounded worker
//! budget ([`server`]), runs each through the serial or sharded engine,
//! and **streams best-so-far improvements** to the client on every
//! strict cost improvement — wired through the event-sourced
//! [`guoq::Guoq::optimize_events`] stream, whose
//! [`guoq::OptEvent::Improved`] events carry
//! [`qcir::delta::CircuitDelta`] edit scripts from all engines.
//! Protocol **v2** peers (`HELLO` negotiation) receive those deltas on
//! the wire (O(edits) per improvement instead of O(circuit)) with
//! periodic full-snapshot checkpoints; v1 peers keep getting full-QASM
//! `SNAPSHOT` frames, byte-compatible with earlier releases. With
//! `--journal-dir` every job also appends its lossless event stream to
//! a per-job [`journal`], and `RESUME` rebuilds a crashed job's best
//! and restarts the search with the remaining budget.
//!
//! Transports ([`transport`]): stdin/stdout for batch use and a TCP
//! listener for shared deployments. Both are thin byte-stream pumps
//! around the same [`Server`]; the in-process differential tests drive
//! the [`ServerHandle`] directly.
//!
//! With `--cache-snapshot` the process's resynthesis memo cache is
//! persisted as a `QCSNAP1` snapshot and warm-loaded at start, so a
//! restarted server resumes its journaled jobs with a warm cache.
//!
//! Guarantees (differentially tested in `tests/differential.rs`):
//!
//! * A served job's result is **identical** to calling
//!   `Guoq::optimize` directly with the same options and seed
//!   (iteration-budgeted jobs are deterministic end to end) — for the
//!   serial *and* the sharded engine.
//! * The snapshot stream is monotonically decreasing in cost: one
//!   initial snapshot at the input cost, then strict improvements.
//! * Every result is unitary-equivalent to the submitted circuit
//!   within its ε budget, and never worse under the objective.
//! * Cancellation (CANCEL frame, timeout, client disconnect) yields a
//!   terminal `DONE cancelled=1` carrying the valid best-so-far, and
//!   returns the job's worker slots to the pool (`tests/cancel.rs`).
//! * A malformed frame, QASM payload or `EDIT` delta gets a typed
//!   `ERROR` for its job id and the process keeps serving: the
//!   decoders return errors instead of panicking (`tests/poison.rs`).

#![warn(missing_docs)]

pub mod journal;
pub mod protocol;
pub mod server;
pub mod transport;

pub use protocol::{
    EngineSel, Frame, FrameDecoder, JobRequest, JobSummary, Objective, StatsSnapshot,
    PROTOCOL_VERSION,
};
pub use server::{ServeOpts, Server, ServerHandle};
pub use transport::{pump_stream, serve_stdio, serve_tcp};
