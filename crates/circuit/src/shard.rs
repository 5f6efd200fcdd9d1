//! Contiguous-window shard partitioning for parallel optimization.
//!
//! A large circuit is split into disjoint, contiguous instruction
//! windows ("shards") that together cover the whole instruction list.
//! Each shard can be [extracted](ShardPlan::extract) as a standalone
//! circuit over the full qubit register and optimized independently:
//! because the windows are disjoint slices of one topological order, any
//! semantics-preserving rewrite of a shard's instruction sequence is a
//! semantics-preserving rewrite of the parent — the parent circuit is
//! exactly the concatenation of its shards
//! ([`ShardPlan::reassemble`]).
//!
//! Shard-local edits expressed as [`Patch`]es lift into parent
//! coordinates with [`ShardSpec::lift`] (an index
//! [offset](Patch::offset) by the window start). The `qpar` coordinator
//! commits whole optimized shards via [`ShardPlan::reassemble`] rather
//! than individual lifted patches; lifting is the finer-grained API —
//! property-tested to compose identically — for consumers that stream
//! single edits (e.g. a future patch-journal commit path).
//!
//! Fixed boundaries would permanently block optimizations that span two
//! shards (a cancelling CX pair split by a cut, say). Following POPQC's
//! managed-boundary strategy, a plan takes a rotation `phase`: odd
//! phases shift every interior cut by half a window, so instructions
//! sitting on a boundary in one epoch are interior in the next.

use crate::circuit::Circuit;
use crate::edit::Patch;

/// One contiguous instruction window of a [`ShardPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    lo: usize,
    hi: usize,
}

impl ShardSpec {
    /// Position of this shard within its plan.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Start of the instruction window (inclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// End of the instruction window (exclusive).
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of instructions in the window.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the window contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Lifts a shard-local patch (indices relative to the extracted
    /// shard circuit) into parent-circuit coordinates.
    pub fn lift(&self, patch: &Patch) -> Patch {
        patch.offset(self.lo)
    }
}

/// A partition of a circuit's instruction list into contiguous shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    num_qubits: usize,
    circuit_len: usize,
    shards: Vec<ShardSpec>,
}

impl ShardPlan {
    /// Splits `circuit` into up to `shards` near-equal contiguous
    /// windows. `phase` rotates the interior boundaries: even phases use
    /// the base cuts, odd phases shift every interior cut right by half
    /// a window (POPQC-style), so no gate pair stays split across epochs.
    ///
    /// The number of shards is clamped to the instruction count (an
    /// empty circuit yields a single empty shard), so no returned shard
    /// is empty unless the circuit is.
    pub fn partition(circuit: &Circuit, shards: usize, phase: usize) -> ShardPlan {
        let len = circuit.len();
        let k = shards.max(1).min(len.max(1));
        let base = len / k;
        let shift = if base >= 2 {
            (phase % 2) * (base / 2)
        } else {
            0
        };
        let mut cuts = Vec::with_capacity(k + 1);
        cuts.push(0);
        for i in 1..k {
            cuts.push((i * len / k + shift).min(len));
        }
        cuts.push(len);

        let shards = cuts
            .windows(2)
            .enumerate()
            .map(|(s, w)| ShardSpec {
                index: s,
                lo: w[0],
                hi: w[1],
            })
            .collect();
        ShardPlan {
            num_qubits: circuit.num_qubits(),
            circuit_len: len,
            shards,
        }
    }

    /// The shards in index order (windows are ascending and disjoint,
    /// covering `0..circuit_len`).
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the plan holds no shards (never produced by
    /// [`Self::partition`]).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Instruction count of the partitioned circuit.
    pub fn circuit_len(&self) -> usize {
        self.circuit_len
    }

    /// Extracts shard `index` as a standalone circuit over the full
    /// qubit register (qubit indices unchanged, so shard-local patches
    /// lift to the parent by index offset alone).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `circuit` does not match the
    /// plan's length.
    pub fn extract(&self, circuit: &Circuit, index: usize) -> Circuit {
        assert_eq!(circuit.len(), self.circuit_len, "circuit/plan mismatch");
        let s = &self.shards[index];
        Circuit::from_instructions(self.num_qubits, circuit.instructions()[s.lo..s.hi].to_vec())
    }

    /// Reassembles a full circuit from per-shard circuits (one per
    /// shard, in index order): the concatenation of the parts.
    ///
    /// The parts need not have the lengths of the original windows —
    /// shard optimization shrinks them — only the same qubit register.
    ///
    /// # Panics
    ///
    /// Panics if the part count or a qubit register differs from the
    /// plan.
    pub fn reassemble(&self, parts: &[Circuit]) -> Circuit {
        assert_eq!(parts.len(), self.shards.len(), "one part per shard");
        let mut out = Circuit::new(self.num_qubits);
        for part in parts {
            assert_eq!(part.num_qubits(), self.num_qubits, "register mismatch");
            out.extend_from(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Qubit;
    use crate::gate::Gate;

    fn chain(len: usize) -> Circuit {
        let mut c = Circuit::new(4);
        for i in 0..len {
            match i % 3 {
                0 => c.push(Gate::H, &[(i % 4) as Qubit]),
                1 => c.push(Gate::Cx, &[(i % 4) as Qubit, ((i + 1) % 4) as Qubit]),
                _ => c.push(Gate::T, &[(i % 4) as Qubit]),
            }
        }
        c
    }

    #[test]
    fn partition_covers_and_is_disjoint() {
        let c = chain(23);
        for k in 1..=8 {
            for phase in 0..4 {
                let plan = ShardPlan::partition(&c, k, phase);
                assert_eq!(plan.shards()[0].lo(), 0);
                assert_eq!(plan.shards().last().unwrap().hi(), c.len());
                for w in plan.shards().windows(2) {
                    assert_eq!(w[0].hi(), w[1].lo(), "windows must tile");
                    assert!(w[0].lo() < w[0].hi(), "no empty shard");
                }
            }
        }
    }

    #[test]
    fn rotation_moves_interior_cuts() {
        let c = chain(40);
        let even = ShardPlan::partition(&c, 4, 0);
        let odd = ShardPlan::partition(&c, 4, 1);
        for (a, b) in even.shards()[1..].iter().zip(&odd.shards()[1..]) {
            assert_ne!(a.lo(), b.lo(), "odd phase must shift interior cuts");
        }
        // And phase is 2-periodic.
        let even2 = ShardPlan::partition(&c, 4, 2);
        assert_eq!(even.shards(), even2.shards());
    }

    #[test]
    fn extract_reassemble_roundtrip() {
        let c = chain(17);
        for phase in 0..2 {
            let plan = ShardPlan::partition(&c, 3, phase);
            let parts: Vec<Circuit> = (0..plan.len()).map(|i| plan.extract(&c, i)).collect();
            assert_eq!(plan.reassemble(&parts), c);
        }
    }

    #[test]
    fn more_shards_than_gates_clamps() {
        let c = chain(3);
        let plan = ShardPlan::partition(&c, 16, 0);
        assert_eq!(plan.len(), 3);
        let empty = Circuit::new(2);
        let plan = ShardPlan::partition(&empty, 4, 1);
        assert_eq!(plan.len(), 1);
        assert!(plan.shards()[0].is_empty());
    }

    #[test]
    fn lifted_patch_equals_parent_edit() {
        let c = chain(12);
        let plan = ShardPlan::partition(&c, 3, 0);
        let s = &plan.shards()[1];
        let shard = plan.extract(&c, 1);
        // Remove the shard's first two instructions.
        let local = Patch::new(vec![0, 1], Vec::new(), 0);
        let lifted = s.lift(&local);
        let mut parts: Vec<Circuit> = (0..plan.len()).map(|i| plan.extract(&c, i)).collect();
        parts[1] = shard.with_patch(&local);
        assert_eq!(plan.reassemble(&parts), c.with_patch(&lifted));
    }
}
