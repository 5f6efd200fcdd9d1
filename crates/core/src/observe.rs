//! Search observation: the event-sourced optimization stream.
//!
//! GUOQ is an anytime algorithm — its natural output is not one final
//! circuit but a *stream of strict improvements*. Since the incremental
//! engine landed, every improvement is already a patch internally; this
//! module makes that stream the API. A run emits typed [`OptEvent`]s:
//!
//! * [`OptEvent::Started`] — once, at the input circuit's cost.
//! * [`OptEvent::Improved`] — on every strict best-cost improvement,
//!   carrying a [`qcir::delta::CircuitDelta`] from the *previous* best
//!   to the new one (O(edits), not O(circuit)): the serial engines
//!   package the accepted patches since the last improvement, the async
//!   engine diffs across a wholesale resynthesis replacement, and the
//!   sharded engine diffs consecutive committed masters.
//! * [`OptEvent::EpochCommitted`] — the sharded engine's per-epoch
//!   commit heartbeat (serial engines never emit it).
//! * [`OptEvent::CacheStats`] — the run's final resynthesis memo-cache
//!   traffic, just before the stream ends.
//! * [`OptEvent::Stats`] — periodic telemetry heartbeat with the run's
//!   cumulative fast/slow [`qtrace::Profile`] (side-channel only —
//!   replay consumers must skip it).
//! * [`OptEvent::Certified`] — at most once, just before the stream
//!   ends: a certification-enabled run reached its coverage target and
//!   terminated early with a [`qcert::Certificate`] instead of burning
//!   the rest of its budget (side-channel — no cost, skipped by replay).
//! * [`OptEvent::Finished`] — once, with the complete [`GuoqResult`].
//!
//! Replaying the deltas of the `Improved` events onto the input circuit
//! reconstructs every best-so-far — and therefore the final best — bit
//! for bit (asserted per engine in this module's tests and end-to-end
//! in the `qserve` differential suite).
//!
//! Two consumption styles:
//!
//! * **Synchronous sink** — [`Guoq::optimize_events`](crate::Guoq::optimize_events)
//!   invokes a callback `FnMut(&OptEvent, &Circuit)` inline on the
//!   search (or coordinator) thread; the second argument is the
//!   best-so-far circuit at that event, so consumers that want full
//!   snapshots (a v1 wire peer) need not replay deltas themselves. An
//!   expensive sink slows the search — hand events off (serialize and
//!   push into a bounded channel) rather than doing I/O inline.
//! * **Handle** — [`Guoq::run`](crate::Guoq::run) spawns the search on
//!   a worker thread and returns an [`OptRun`] that yields owned
//!   events ([`Iterator`]); the consumer paces the stream.
//!
//! [`Guoq::optimize`](crate::Guoq::optimize) is the blocking
//! convenience entry point: the same run with the stream discarded.
//!
//! Strict improvements are bounded by the total cost descent — not the
//! accept rate — so event traffic is small even for long runs, and the
//! `Improved` cost sequence any sink sees is strictly decreasing — with
//! one exception: a certification-enabled run that completes its sweep
//! may emit a final *equal*-cost `Improved` pinning the certified
//! working circuit as the best (equal-cost plateau accepts can drift
//! the working circuit away from the recorded best; the certificate
//! describes the former). Replay still reconstructs the final best
//! exactly.

use crate::guoq::GuoqResult;
use crossbeam_channel::Receiver;
use qcir::delta::CircuitDelta;
use qcir::Circuit;
use std::thread::JoinHandle;

pub use qpar::CancelToken;

/// One typed event of an optimization run. See the [module docs](self)
/// for the stream grammar and delivery contract.
// `Finished(GuoqResult)` carries the terminal result circuit and is
// emitted exactly once per run; boxing it would push an allocation and
// an indirection onto every sink for the benefit of the per-event
// variants that are already small.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum OptEvent {
    /// The run began: the input circuit is the first best-so-far.
    Started {
        /// Cost of the input circuit under the search objective.
        cost: f64,
        /// Instruction count of the input circuit.
        gates: usize,
    },
    /// The best-so-far cost strictly decreased.
    Improved {
        /// Edit script from the previous best-so-far circuit (the
        /// input circuit for the first improvement) to the new one.
        delta: CircuitDelta,
        /// The new best cost.
        cost: f64,
        /// Accumulated approximation error of the new best (≤ `ε_f`).
        epsilon: f64,
        /// Iterations performed when the improvement landed.
        iterations: u64,
        /// Seconds since the search started.
        seconds: f64,
    },
    /// The sharded engine committed an epoch (fires once per commit,
    /// improving or not — the parallel engine's progress heartbeat).
    EpochCommitted {
        /// Epoch just committed (1-based).
        epoch: u64,
        /// Cost of the committed master (not necessarily a best).
        cost: f64,
        /// Total iterations so far.
        iterations: u64,
        /// Seconds since the search started.
        seconds: f64,
    },
    /// The run's resynthesis memo-cache traffic (fires once, before
    /// [`OptEvent::Finished`]; both counters are 0 without
    /// [`crate::GuoqOpts::cache`]).
    CacheStats {
        /// Resynthesis calls served from the cache.
        hits: u64,
        /// Resynthesis calls that consulted the cache and missed.
        misses: u64,
    },
    /// Periodic telemetry heartbeat: the run's fast/slow time split and
    /// per-family accept tallies so far (a cumulative snapshot, not a
    /// delta). Purely observational — it carries no cost and consumers
    /// replaying the improvement stream must ignore it.
    Stats {
        /// Cumulative [`qtrace::Profile`] since the run started.
        profile: qtrace::Profile,
    },
    /// A certification-enabled run hit its coverage target: enough of
    /// the circuit is stamped locally optimal that the search stops
    /// early with a proof instead of spending the rest of its budget.
    /// Fires at most once, right before [`OptEvent::Finished`]; the
    /// full per-window certificate rides on
    /// [`GuoqResult::certificate`].
    Certified {
        /// Fraction of gates covered by surviving stamps.
        coverage: f64,
        /// Number of surviving stamped windows.
        windows: usize,
        /// Probe attempts each window survived.
        budget: u64,
        /// Iterations performed when certification completed.
        iterations: u64,
        /// Seconds since the search started.
        seconds: f64,
    },
    /// The run ended; the final result in full.
    Finished(GuoqResult),
}

impl OptEvent {
    /// The event's best-so-far cost, when it carries one.
    pub fn cost(&self) -> Option<f64> {
        match self {
            OptEvent::Started { cost, .. }
            | OptEvent::Improved { cost, .. }
            | OptEvent::EpochCommitted { cost, .. } => Some(*cost),
            OptEvent::Finished(r) => Some(r.cost),
            OptEvent::CacheStats { .. } | OptEvent::Stats { .. } | OptEvent::Certified { .. } => {
                None
            }
        }
    }
}

/// The synchronous event sink's trait-object type: invoked with each
/// [`OptEvent`] and the best-so-far circuit at that event (the input
/// circuit for `Started`, the final best for `CacheStats`/`Finished`).
/// Passed around as `&mut EventSink<'_>` — the borrow and the captured
/// state share one lifetime, which keeps `&mut`-invariance from
/// infecting every signature it threads through.
pub type EventSink<'a> = dyn FnMut(&OptEvent, &Circuit) + 'a;

/// A running optimization: the handle returned by
/// [`Guoq::run`](crate::Guoq::run). Yields owned [`OptEvent`]s
/// ([`Iterator`]); the stream ends (yields `None`) after
/// [`OptEvent::Finished`].
///
/// Delivery is consumer-paced over a bounded channel: a handle that is
/// read slowly backpressures the search thread at the channel bound
/// (lossless, unlike a serving layer's lossy fan-out). Dropping the
/// handle without draining detaches the search — it keeps running to
/// its budget on the worker thread with further events discarded; raise
/// [`cancel`](Self::cancel) first for a prompt stop.
pub struct OptRun {
    events: Receiver<OptEvent>,
    cancel: Option<CancelToken>,
    handle: Option<JoinHandle<()>>,
}

impl OptRun {
    pub(crate) fn new(
        events: Receiver<OptEvent>,
        cancel: Option<CancelToken>,
        handle: JoinHandle<()>,
    ) -> Self {
        OptRun {
            events,
            cancel,
            handle: Some(handle),
        }
    }

    /// Requests cooperative cancellation. Returns `false` (and does
    /// nothing) when the underlying [`crate::GuoqOpts::cancel`] is
    /// unset — build the `Guoq` with a [`CancelToken`] to make its
    /// runs cancellable.
    pub fn cancel(&self) -> bool {
        match &self.cancel {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Blocks until the next event, or `None` once the stream ended.
    pub fn next_event(&mut self) -> Option<OptEvent> {
        self.events.recv().ok()
    }

    /// Drains the stream to completion and returns the final result
    /// (`None` only if the search thread panicked).
    pub fn wait(mut self) -> Option<GuoqResult> {
        let mut result = None;
        while let Ok(ev) = self.events.recv() {
            if let OptEvent::Finished(r) = ev {
                result = Some(r);
            }
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        result
    }
}

impl Iterator for OptRun {
    type Item = OptEvent;

    fn next(&mut self) -> Option<OptEvent> {
        self.next_event()
    }
}

impl Drop for OptRun {
    fn drop(&mut self) {
        // Detach, never block: an undrained handle must not stall its
        // dropper for the rest of the search budget. The worker thread
        // discards events once the receiver is gone and exits at the
        // budget (or promptly, if `cancel` was raised).
        if let Some(h) = self.handle.take() {
            if h.is_finished() {
                let _ = h.join();
            }
        }
    }
}
