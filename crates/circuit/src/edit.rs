//! Patch-based circuit edits.
//!
//! The GUOQ inner loop performs thousands of tiny, local edits per second.
//! Rebuilding a fresh [`Circuit`] for every candidate edit makes each
//! iteration O(circuit); a [`Patch`] instead describes an edit *relative*
//! to the current circuit — which instructions go away, what replaces
//! them, and where — so applying, costing, and reverting all scale with
//! the size of the edit span rather than the whole instruction list.
//!
//! A patch is **sound** when the replacement instructions may legally sit
//! at `insert_at`: every producer of the patch in this workspace (rule
//! matches, fusion runs, commutation pairs, resynthesis regions) derives
//! patches from convex subcircuits, where every unmatched instruction
//! inside the edit span acts on disjoint qubits and therefore commutes
//! with the replacement.
//!
//! ```
//! use qcir::{Circuit, Gate};
//! use qcir::edit::Patch;
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::H, &[0]);
//! c.push(Gate::Cx, &[0, 1]);
//! // Remove the trailing CX and the H in one edit.
//! let patch = Patch::new(vec![1, 2], Vec::new(), 1);
//! let undo = c.apply_patch(&patch);
//! assert_eq!(c.len(), 1);
//! c.revert_patch(&undo);
//! assert_eq!(c.len(), 3);
//! ```

use crate::circuit::{Circuit, Instruction};

/// A local edit: remove some instructions, splice replacements in.
///
/// Indices refer to the circuit the patch is applied to (the *pre-patch*
/// indexing). `removed` must be strictly ascending; `insert_at` is the
/// pre-patch index before which the replacement instructions are placed
/// (`insert_at == len` appends).
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    removed: Vec<usize>,
    replacement: Vec<Instruction>,
    insert_at: usize,
}

impl Patch {
    /// Creates a patch from parts.
    ///
    /// # Panics
    ///
    /// Panics if `removed` is not strictly ascending.
    pub fn new(removed: Vec<usize>, replacement: Vec<Instruction>, insert_at: usize) -> Self {
        for w in removed.windows(2) {
            assert!(w[0] < w[1], "removed indices must be strictly ascending");
        }
        Patch {
            removed,
            replacement,
            insert_at,
        }
    }

    /// The pre-patch indices this patch removes (strictly ascending).
    pub fn removed(&self) -> &[usize] {
        &self.removed
    }

    /// The instructions this patch splices in.
    pub fn replacement(&self) -> &[Instruction] {
        &self.replacement
    }

    /// The pre-patch index before which the replacement is inserted.
    pub fn insert_at(&self) -> usize {
        self.insert_at
    }

    /// Change in instruction count caused by this patch.
    pub fn len_delta(&self) -> isize {
        self.replacement.len() as isize - self.removed.len() as isize
    }

    /// The half-open pre-patch index window `[lo, hi)` this patch touches.
    ///
    /// Everything before `lo` keeps its index; everything at or after `hi`
    /// shifts by [`Self::len_delta`].
    pub fn window(&self) -> (usize, usize) {
        let lo = self
            .removed
            .first()
            .copied()
            .unwrap_or(self.insert_at)
            .min(self.insert_at);
        let hi = self
            .removed
            .last()
            .map(|&i| i + 1)
            .unwrap_or(self.insert_at)
            .max(self.insert_at);
        (lo, hi)
    }

    /// Visits the post-patch contents of the edit window in order:
    /// retained window instructions interleaved with the replacement at
    /// `insert_at`. `circuit` must be in its pre-patch state.
    ///
    /// This is the *single* definition of the emission order —
    /// [`Circuit::apply_patch`] builds on it, so the instruction list and
    /// the arena's wire links cannot disagree about where the
    /// replacement lands.
    pub fn visit_window<F: FnMut(&Instruction)>(&self, circuit: &Circuit, mut f: F) {
        let (wlo, whi) = self.window();
        let mut rem = self.removed.iter().peekable();
        let mut ids = circuit.ids_from(wlo);
        for i in wlo..whi {
            let id = ids.next().expect("patch window within circuit");
            if i == self.insert_at {
                for ins in &self.replacement {
                    f(ins);
                }
            }
            if rem.peek() == Some(&&i) {
                rem.next();
                continue;
            }
            f(&circuit.instruction_by_id(id));
        }
        if self.insert_at == whi {
            for ins in &self.replacement {
                f(ins);
            }
        }
    }

    /// Re-expresses the patch in the coordinates of an enclosing circuit
    /// in which this patch's frame begins at index `by`: every removed
    /// index and the insertion point shift right by `by`.
    ///
    /// This lifts a patch produced against a *shard* — a contiguous
    /// instruction window extracted from a parent circuit (see
    /// [`crate::shard`]) — back into the parent: the shard's local
    /// index `i` names the parent instruction `lo + i`, so a sound
    /// shard-local patch lifts to a sound parent patch as long as the
    /// parent window content is unchanged. (The shipped coordinator
    /// commits whole shard circuits instead; lifting is the
    /// edit-granular alternative, property-tested to compose to the
    /// same result.)
    pub fn offset(&self, by: usize) -> Patch {
        Patch {
            removed: self.removed.iter().map(|&i| i + by).collect(),
            replacement: self.replacement.clone(),
            insert_at: self.insert_at + by,
        }
    }

    /// Maps a retained pre-patch index to its post-patch index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `i` is a removed index.
    pub fn map_index(&self, i: usize) -> usize {
        debug_assert!(
            self.removed.binary_search(&i).is_err(),
            "index {i} is removed by the patch"
        );
        let removed_before = self.removed.partition_point(|&r| r < i);
        let inserted_before = if i >= self.insert_at {
            self.replacement.len()
        } else {
            0
        };
        i - removed_before + inserted_before
    }
}

/// The information needed to undo an applied patch.
///
/// Returned by [`Circuit::apply_patch`]; consumed by
/// [`Circuit::revert_patch`].
#[derive(Debug, Clone, PartialEq)]
pub struct PatchUndo {
    /// The removed instructions with their pre-patch indices (ascending).
    pub removed: Vec<(usize, Instruction)>,
    /// Number of instructions the patch spliced in.
    pub replacement_len: usize,
    /// The pre-patch insertion index of the patch.
    pub insert_at: usize,
}

impl Circuit {
    /// Applies `patch` in place, returning the undo record.
    ///
    /// Only the patch window is rewritten; instructions outside it are
    /// moved at most once (a single `Vec::splice`). Cached gate counts
    /// are maintained incrementally.
    ///
    /// # Panics
    ///
    /// Panics if a removed index or `insert_at` is out of range, or if a
    /// replacement instruction references a qubit out of range.
    pub fn apply_patch(&mut self, patch: &Patch) -> PatchUndo {
        let n = self.len();
        assert!(
            patch.insert_at <= n,
            "insert_at {} out of range",
            patch.insert_at
        );
        if let Some(&last) = patch.removed.last() {
            assert!(last < n, "removed index {last} out of range");
        }
        for ins in &patch.replacement {
            for &q in ins.qubits() {
                assert!(
                    (q as usize) < self.num_qubits(),
                    "replacement qubit {q} out of range"
                );
            }
        }
        let (wlo, whi) = patch.window();

        // Record undo info and update cached counts. Reads go through
        // the id map, not the materialized list — a patch application
        // never forces an O(circuit) rebuild of the compact view.
        let mut removed = Vec::with_capacity(patch.removed.len());
        for &i in &patch.removed {
            let ins = self.instruction(i);
            self.counts_mut().remove(&ins);
            removed.push((i, ins));
        }
        for ins in &patch.replacement {
            self.counts_mut().add(ins);
        }

        // Build the new window contents and splice once.
        let window_len = (whi - wlo) + patch.replacement.len() - patch.removed.len();
        let mut new_window: Vec<Instruction> = Vec::with_capacity(window_len);
        patch.visit_window(self, |ins| new_window.push(*ins));
        self.splice_raw(wlo..whi, new_window);

        PatchUndo {
            removed,
            replacement_len: patch.replacement.len(),
            insert_at: patch.insert_at,
        }
    }

    /// Reverts a patch previously applied with [`Self::apply_patch`].
    ///
    /// # Panics
    ///
    /// Panics if `undo` does not correspond to the circuit's current
    /// state (e.g. indices out of range after unrelated edits).
    pub fn revert_patch(&mut self, undo: &PatchUndo) {
        // Post-patch window coordinates.
        let removed_before_insert = undo
            .removed
            .iter()
            .take_while(|&&(i, _)| i < undo.insert_at)
            .count();
        let insert_pos = undo.insert_at - removed_before_insert;
        let (old_wlo, old_whi) = {
            let lo = undo
                .removed
                .first()
                .map(|&(i, _)| i)
                .unwrap_or(undo.insert_at)
                .min(undo.insert_at);
            let hi = undo
                .removed
                .last()
                .map(|&(i, _)| i + 1)
                .unwrap_or(undo.insert_at)
                .max(undo.insert_at);
            (lo, hi)
        };
        let new_whi = (old_whi + undo.replacement_len) - undo.removed.len();
        assert!(new_whi <= self.len(), "undo record does not match circuit");

        // Update cached counts.
        for i in insert_pos..insert_pos + undo.replacement_len {
            let ins = self.instruction(i);
            self.counts_mut().remove(&ins);
        }
        for (_, ins) in &undo.removed {
            self.counts_mut().add(ins);
        }

        // Rebuild the original window: retained instructions are the
        // current window minus the replacement block, with the removed
        // instructions re-inserted at their original offsets.
        let mut retained: Vec<Instruction> = Vec::with_capacity(new_whi - old_wlo);
        for (i, id) in (old_wlo..new_whi).zip(self.ids_from(old_wlo)) {
            if i >= insert_pos && i < insert_pos + undo.replacement_len {
                continue;
            }
            retained.push(self.instruction_by_id(id));
        }
        let mut original: Vec<Instruction> = Vec::with_capacity(old_whi - old_wlo);
        let mut rem = undo.removed.iter().peekable();
        let mut ret = retained.into_iter();
        for i in old_wlo..old_whi {
            if let Some(&&(ri, ins)) = rem.peek() {
                if ri == i {
                    rem.next();
                    original.push(ins);
                    continue;
                }
            }
            original.push(ret.next().expect("undo record does not match circuit"));
        }
        self.splice_raw(old_wlo..new_whi, original);
    }

    /// Returns a new circuit with `patch` applied (the pristine-clone
    /// path; prefer [`Self::apply_patch`] in hot loops).
    pub fn with_patch(&self, patch: &Patch) -> Circuit {
        let mut c = self.clone();
        c.apply_patch(patch);
        c
    }
}

/// Applies several patches with pairwise-disjoint `removed` sets to a
/// fresh copy of `circuit` in one walk.
///
/// All patches are expressed against `circuit`'s indexing; each
/// replacement is emitted just before the (retained) instruction at its
/// `insert_at`. This reproduces the emission order of a full rewrite
/// pass, where every disjoint match becomes one patch.
///
/// # Panics
///
/// Panics if a removed index repeats across patches or any index is out
/// of range.
pub fn apply_disjoint(circuit: &Circuit, patches: &[Patch]) -> Circuit {
    let n = circuit.len();
    let mut removed = vec![false; n];
    let mut insert_here: Vec<Option<usize>> = vec![None; n + 1];
    for (pi, patch) in patches.iter().enumerate() {
        for &i in patch.removed() {
            assert!(i < n, "removed index {i} out of range");
            assert!(!removed[i], "patches overlap at index {i}");
            removed[i] = true;
        }
        assert!(patch.insert_at() <= n, "insert_at out of range");
        assert!(
            insert_here[patch.insert_at()].is_none(),
            "two patches insert at the same position"
        );
        insert_here[patch.insert_at()] = Some(pi);
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for (pos, ins) in circuit.iter().enumerate() {
        if let Some(pi) = insert_here[pos] {
            for rep in patches[pi].replacement() {
                out.push_instruction(*rep);
            }
        }
        if !removed[pos] {
            out.push_instruction(*ins);
        }
    }
    if let Some(pi) = insert_here[n] {
        for rep in patches[pi].replacement() {
            out.push_instruction(*rep);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]); // 0
        c.push(Gate::Cx, &[0, 1]); // 1
        c.push(Gate::T, &[2]); // 2
        c.push(Gate::Cx, &[0, 1]); // 3
        c.push(Gate::Tdg, &[2]); // 4
        c
    }

    #[test]
    fn remove_pair() {
        let mut c = sample();
        let undo = c.apply_patch(&Patch::new(vec![1, 3], Vec::new(), 1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.two_qubit_count(), 0);
        assert_eq!(c.t_count(), 2);
        c.revert_patch(&undo);
        assert_eq!(c, sample());
    }

    #[test]
    fn replace_with_other_gates() {
        let mut c = sample();
        let rep = vec![
            Instruction::new(Gate::Rz(0.5), &[0]),
            Instruction::new(Gate::Cz, &[0, 1]),
        ];
        let patch = Patch::new(vec![1], rep, 1);
        let undo = c.apply_patch(&patch);
        assert_eq!(c.len(), 6);
        assert_eq!(c.instructions()[1].gate, Gate::Rz(0.5));
        assert_eq!(c.instructions()[2].gate, Gate::Cz);
        c.revert_patch(&undo);
        assert_eq!(c, sample());
    }

    #[test]
    fn insert_only_patch() {
        let mut c = sample();
        let patch = Patch::new(Vec::new(), vec![Instruction::new(Gate::X, &[2])], 5);
        let undo = c.apply_patch(&patch);
        assert_eq!(c.len(), 6);
        assert_eq!(c.instructions()[5].gate, Gate::X);
        c.revert_patch(&undo);
        assert_eq!(c, sample());
    }

    #[test]
    fn insert_at_front() {
        let mut c = sample();
        let patch = Patch::new(Vec::new(), vec![Instruction::new(Gate::X, &[0])], 0);
        let undo = c.apply_patch(&patch);
        assert_eq!(c.instructions()[0].gate, Gate::X);
        c.revert_patch(&undo);
        assert_eq!(c, sample());
    }

    #[test]
    fn matches_full_rebuild() {
        // apply_patch must agree with the naive remove-then-insert.
        let c = sample();
        let patch = Patch::new(vec![0, 3], vec![Instruction::new(Gate::S, &[1])], 2);
        let fast = c.with_patch(&patch);
        let mut naive: Vec<Instruction> = Vec::new();
        for (i, ins) in c.iter().enumerate() {
            if i == 2 {
                naive.push(Instruction::new(Gate::S, &[1]));
            }
            if i != 0 && i != 3 {
                naive.push(*ins);
            }
        }
        let naive = Circuit::from_instructions(3, naive);
        assert_eq!(fast, naive);
        assert_eq!(fast.two_qubit_count(), naive.two_qubit_count());
        assert_eq!(fast.t_count(), naive.t_count());
    }

    #[test]
    fn map_index_consistent() {
        let patch = Patch::new(vec![1, 3], vec![Instruction::new(Gate::S, &[1])], 2);
        // Post-patch layout: [0] [rep] [2] [4] → old 0 ↦ 0, old 2 ↦ 2, old 4 ↦ 3.
        assert_eq!(patch.map_index(0), 0);
        assert_eq!(patch.map_index(2), 2);
        assert_eq!(patch.map_index(4), 3);
    }

    #[test]
    fn offset_matches_manual_shift() {
        // A patch against the sub-list starting at parent index 2 must,
        // once offset, act on the parent exactly as it acted locally.
        let parent = sample();
        let shard = Circuit::from_instructions(3, parent.instructions()[2..].to_vec());
        let local = Patch::new(vec![0, 2], vec![Instruction::new(Gate::S, &[2])], 1);
        let lifted = local.offset(2);
        assert_eq!(lifted.removed(), &[2, 4]);
        assert_eq!(lifted.insert_at(), 3);
        let shard_out = shard.with_patch(&local);
        let parent_out = parent.with_patch(&lifted);
        assert_eq!(
            &parent_out.instructions()[2..],
            shard_out.instructions(),
            "lifted patch must rewrite the parent window identically"
        );
        assert_eq!(&parent_out.instructions()[..2], &parent.instructions()[..2]);
    }

    #[test]
    fn window_spans_edit() {
        let p = Patch::new(vec![1, 3], Vec::new(), 1);
        assert_eq!(p.window(), (1, 4));
        let q = Patch::new(Vec::new(), vec![Instruction::new(Gate::X, &[0])], 2);
        assert_eq!(q.window(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_removed_panics() {
        let _ = Patch::new(vec![3, 1], Vec::new(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_removed_panics() {
        let mut c = sample();
        c.apply_patch(&Patch::new(vec![9], Vec::new(), 0));
    }
}
