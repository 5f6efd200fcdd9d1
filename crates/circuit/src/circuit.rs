//! The circuit IR: a sequence of gate applications in a slot arena.
//!
//! A [`Circuit`] is an ordered list of [`Instruction`]s over `n` qubits.
//! The order is one valid topological order of the circuit DAG; the DAG
//! structure itself lives in per-wire predecessor/successor links
//! embedded in the arena (see [`Circuit::next_on_wire`] and friends).
//!
//! # Storage: the slot arena
//!
//! Internally the instruction list lives in a structure-of-arrays *slot
//! arena*: gate kinds, packed operands, and parameter slots are separate
//! contiguous arrays indexed by **slot id**. Slots obey one invariant —
//! ascending slot order is program order — and are *stable*: removing an
//! instruction tombstones its slot (O(1), no memmove, no index
//! invalidation), and insertions claim dead slots between their logical
//! neighbours. A Fenwick tree over the liveness bitset converts between
//! logical position and slot id in O(log n), so the public,
//! position-indexed API is unchanged while local edits cost
//! O(edit-span · log n) instead of O(circuit).
//!
//! Per-wire predecessor/successor links are threaded through the slots,
//! so wire-ordered walks never require a positional rebuild. The compact
//! positional view served by [`Circuit::instructions`] is materialized
//! lazily and cached until the next mutation.

use crate::gate::{Gate, GateKind};
use qmath::statevec::{apply_gate_slice, zero_state};
use qmath::{Mat, C64};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A qubit index within a circuit.
pub type Qubit = u32;

/// A single gate application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The gate being applied.
    pub gate: Gate,
    qs: [Qubit; 3],
}

impl Instruction {
    /// Creates an instruction from a gate and its operand qubits.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len()` differs from the gate arity or if a qubit
    /// repeats.
    pub fn new(gate: Gate, qubits: &[Qubit]) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {gate} expects {} operands, got {}",
            gate.arity(),
            qubits.len()
        );
        for (i, &q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(&q),
                "repeated operand qubit {q} for gate {gate}"
            );
        }
        let mut qs = [0; 3];
        qs[..qubits.len()].copy_from_slice(qubits);
        Instruction { gate, qs }
    }

    /// The operand qubits, in gate order (controls first for `CX`/`CCX`).
    #[inline]
    pub fn qubits(&self) -> &[Qubit] {
        &self.qs[..self.gate.arity()]
    }

    /// True if the instruction acts on qubit `q`.
    #[inline]
    pub fn acts_on(&self, q: Qubit) -> bool {
        self.qubits().contains(&q)
    }

    /// True if the instruction shares at least one qubit with `other`.
    pub fn overlaps(&self, other: &Instruction) -> bool {
        self.qubits().iter().any(|q| other.acts_on(*q))
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits().iter().map(|q| format!("q{q}")).collect();
        write!(f, "{} {}", self.gate, qs.join(","))
    }
}

/// Cached gate statistics of a circuit, maintained incrementally.
///
/// Every mutation of a [`Circuit`] (push, patch, revert) updates these
/// counters, so the hot-loop metrics ([`Circuit::two_qubit_count`],
/// [`Circuit::t_count`], [`Circuit::kind_count`]) are O(1) instead of a
/// scan over the instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    by_kind: [u32; GateKind::COUNT],
    multi_qubit: u32,
    t_family: u32,
}

impl GateCounts {
    #[inline]
    pub(crate) fn add(&mut self, ins: &Instruction) {
        self.by_kind[ins.gate.kind() as usize] += 1;
        if ins.gate.arity() >= 2 {
            self.multi_qubit += 1;
        }
        if matches!(ins.gate, Gate::T | Gate::Tdg) {
            self.t_family += 1;
        }
    }

    #[inline]
    pub(crate) fn remove(&mut self, ins: &Instruction) {
        self.by_kind[ins.gate.kind() as usize] -= 1;
        if ins.gate.arity() >= 2 {
            self.multi_qubit -= 1;
        }
        if matches!(ins.gate, Gate::T | Gate::Tdg) {
            self.t_family -= 1;
        }
    }

    /// Number of gates of `kind`.
    #[inline]
    pub fn of_kind(&self, kind: GateKind) -> usize {
        self.by_kind[kind as usize] as usize
    }

    /// Number of gates acting on two or more qubits.
    #[inline]
    pub fn multi_qubit(&self) -> usize {
        self.multi_qubit as usize
    }

    /// Number of `T`/`T†` gates.
    #[inline]
    pub fn t_family(&self) -> usize {
        self.t_family as usize
    }
}

/// Sentinel for "no link" in the packed slot/wire index arrays.
const NONE: u32 = u32::MAX;

/// The structure-of-arrays slot store behind [`Circuit`].
///
/// Invariant: ascending **slot id** order is program order, and a slot id
/// never changes while its instruction is alive. `fen` is a Fenwick tree
/// over the liveness bitset, giving O(log n) rank (slot → logical
/// position) and select (logical position → slot).
#[derive(Debug, Clone)]
struct Arena {
    /// Gate kind per slot.
    kinds: Vec<GateKind>,
    /// Gate parameters per slot, zero-padded to three.
    params: Vec<[f64; 3]>,
    /// Operand qubits per slot, zero-padded to three.
    qs: Vec<[Qubit; 3]>,
    /// Liveness bitset, one bit per slot.
    alive: Vec<u64>,
    /// `next[s][pos]`: slot of the next instruction on the wire used by
    /// operand `pos` of slot `s` (`NONE` at the wire tail).
    next: Vec<[u32; 3]>,
    /// `prev[s][pos]`: same, for the previous instruction on that wire.
    prev: Vec<[u32; 3]>,
    /// First live slot on each qubit wire.
    first: Vec<u32>,
    /// Last live slot on each qubit wire.
    last: Vec<u32>,
    /// Fenwick tree over `alive` (1-indexed, length `capacity + 1`).
    fen: Vec<u32>,
    /// Number of live slots.
    live: usize,
}

impl Arena {
    fn new(n_qubits: usize) -> Self {
        Arena {
            kinds: Vec::new(),
            params: Vec::new(),
            qs: Vec::new(),
            alive: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            first: vec![NONE; n_qubits],
            last: vec![NONE; n_qubits],
            fen: vec![0],
            live: 0,
        }
    }

    /// Total number of slots, live or dead.
    #[inline]
    fn capacity(&self) -> usize {
        self.kinds.len()
    }

    #[inline]
    fn is_live(&self, s: usize) -> bool {
        self.alive[s >> 6] >> (s & 63) & 1 == 1
    }

    #[inline]
    fn arity(&self, s: usize) -> usize {
        self.kinds[s].arity()
    }

    /// Reconstructs the instruction stored in live slot `s`.
    fn instruction_at(&self, s: usize) -> Instruction {
        let kind = self.kinds[s];
        let gate = kind
            .with_params(&self.params[s][..kind.num_params()])
            .expect("arena slot holds params of its own kind");
        Instruction {
            gate,
            qs: self.qs[s],
        }
    }

    /// Live slots in ascending (= program) order.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((w << 6) | b)
            })
        })
    }

    /// The compact positional instruction list.
    fn materialize(&self) -> Vec<Instruction> {
        let mut out = Vec::with_capacity(self.live);
        for s in self.live_slots() {
            out.push(self.instruction_at(s));
        }
        out
    }

    /// Structural equality of the live content, without materializing.
    fn content_eq(&self, other: &Arena) -> bool {
        if self.live != other.live {
            return false;
        }
        let mut ita = self.live_slots();
        let mut itb = other.live_slots();
        for _ in 0..self.live {
            let (a, b) = (
                ita.next().expect("live count out of sync"),
                itb.next().expect("live count out of sync"),
            );
            if self.kinds[a] != other.kinds[b]
                || self.params[a] != other.params[b]
                || self.qs[a] != other.qs[b]
            {
                return false;
            }
        }
        true
    }

    // ---- Fenwick rank/select -----------------------------------------

    fn fen_add(&mut self, slot: usize, delta: i32) {
        let n = self.fen.len();
        let mut i = slot + 1;
        while i < n {
            self.fen[i] = (self.fen[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live slots with slot id `< i`.
    fn prefix(&self, mut i: usize) -> usize {
        let mut s = 0usize;
        while i > 0 {
            s += self.fen[i] as usize;
            i &= i - 1;
        }
        s
    }

    /// Logical position of live slot `s`.
    #[inline]
    fn rank(&self, s: usize) -> usize {
        self.prefix(s)
    }

    /// Slot id of the live slot at logical position `k`.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.live, "select past the live count");
        let cap = self.fen.len() - 1;
        let mut pos = 0usize;
        let mut rem = (k + 1) as u32;
        let mut mask = if cap == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - cap.leading_zeros())
        };
        while mask > 0 {
            let npos = pos + mask;
            if npos <= cap && self.fen[npos] < rem {
                rem -= self.fen[npos];
                pos = npos;
            }
            mask >>= 1;
        }
        debug_assert!(pos < cap && self.is_live(pos));
        pos
    }

    /// Next live slot after `s` (caller guarantees one exists).
    fn next_live_after(&self, s: usize) -> usize {
        let mut t = s + 1;
        while !self.is_live(t) {
            t += 1;
        }
        t
    }

    // ---- wire links ---------------------------------------------------

    /// Operand position of wire `q` within live slot `s`.
    fn wire_pos(&self, s: usize, q: Qubit) -> usize {
        self.qs[s][..self.arity(s)]
            .iter()
            .position(|&x| x == q)
            .expect("arena wire links out of sync")
    }

    #[inline]
    fn acts_on(&self, s: usize, q: Qubit) -> bool {
        self.qs[s][..self.arity(s)].contains(&q)
    }

    /// Threads slot `s` (operand `pos`, wire `q`) into the wire list.
    fn link(&mut self, s: usize, pos: usize, q: Qubit) {
        let qi = q as usize;
        let lastq = self.last[qi];
        if lastq == NONE || (lastq as usize) < s {
            // Appending to the wire: O(1) via the wire tail.
            self.prev[s][pos] = lastq;
            if lastq == NONE {
                self.first[qi] = s as u32;
            } else {
                let lp = lastq as usize;
                let ls = self.wire_pos(lp, q);
                self.next[lp][ls] = s as u32;
            }
            self.last[qi] = s as u32;
            return;
        }
        // Mid-wire insertion: the predecessor is the nearest live slot
        // below `s` acting on `q` (slot order is program order).
        let mut t = s;
        let pred = loop {
            if t == 0 {
                break None;
            }
            t -= 1;
            if self.is_live(t) && self.acts_on(t, q) {
                break Some(t);
            }
        };
        match pred {
            Some(p) => {
                let ps = self.wire_pos(p, q);
                let nx = self.next[p][ps];
                debug_assert_ne!(nx, NONE, "wire tail must be past s here");
                self.next[p][ps] = s as u32;
                self.prev[s][pos] = p as u32;
                self.next[s][pos] = nx;
                let np = nx as usize;
                let ns = self.wire_pos(np, q);
                self.prev[np][ns] = s as u32;
            }
            None => {
                let of = self.first[qi];
                debug_assert_ne!(of, NONE, "wire tail must be past s here");
                self.first[qi] = s as u32;
                self.next[s][pos] = of;
                let np = of as usize;
                let ns = self.wire_pos(np, q);
                self.prev[np][ns] = s as u32;
            }
        }
    }

    // ---- mutation -----------------------------------------------------

    /// Tombstones live slot `s`: unlink every wire, clear liveness.
    /// O(1) — no other slot moves or is renumbered.
    fn kill(&mut self, s: usize) {
        debug_assert!(self.is_live(s));
        let arity = self.arity(s);
        for pos in 0..arity {
            let q = self.qs[s][pos];
            let qi = q as usize;
            let p = self.prev[s][pos];
            let nx = self.next[s][pos];
            if p == NONE {
                self.first[qi] = nx;
            } else {
                let pp = p as usize;
                let ps = self.wire_pos(pp, q);
                self.next[pp][ps] = nx;
            }
            if nx == NONE {
                self.last[qi] = p;
            } else {
                let np = nx as usize;
                let ns = self.wire_pos(np, q);
                self.prev[np][ns] = p;
            }
        }
        self.alive[s >> 6] &= !(1u64 << (s & 63));
        self.fen_add(s, -1);
        self.live -= 1;
    }

    /// Claims dead slot `s` for `ins` and threads its wires.
    fn fill(&mut self, s: usize, ins: &Instruction) {
        debug_assert!(!self.is_live(s));
        self.kinds[s] = ins.gate.kind();
        let mut ps = [0.0f64; 3];
        let prm = ins.gate.params();
        ps[..prm.len()].copy_from_slice(&prm);
        self.params[s] = ps;
        self.qs[s] = ins.qs;
        self.next[s] = [NONE; 3];
        self.prev[s] = [NONE; 3];
        self.alive[s >> 6] |= 1 << (s & 63);
        self.fen_add(s, 1);
        self.live += 1;
        for (pos, &q) in ins.qubits().iter().enumerate() {
            self.link(s, pos, q);
        }
    }

    /// Appends one fresh dead slot, growing every array.
    fn push_back_slot(&mut self) -> usize {
        let s = self.capacity();
        self.kinds.push(GateKind::X);
        self.params.push([0.0; 3]);
        self.qs.push([0; 3]);
        self.next.push([NONE; 3]);
        self.prev.push([NONE; 3]);
        if s & 63 == 0 {
            self.alive.push(0);
        }
        // Fenwick append: the new node covers `(p - lowbit(p), p]`. With
        // no tombstones every slot it covers but the new one is live.
        let p = self.fen.len();
        let lb = p & p.wrapping_neg();
        let v = if self.live == s {
            lb - 1
        } else {
            self.live - self.prefix(p - lb)
        };
        self.fen.push(v as u32);
        s
    }

    /// Inserts `instrs` (in order) immediately before live slot `anchor`
    /// (`None` = append), claiming dead slots between the anchor and its
    /// live predecessor. Falls back to a compact rebuild when the gap is
    /// too small — which only happens for edits that *grow* the circuit
    /// beyond the slots the same edit freed (no rewrite rule does).
    fn insert_before(&mut self, anchor: Option<usize>, instrs: &[Instruction]) {
        if instrs.is_empty() {
            return;
        }
        match anchor {
            Some(a) => {
                let r = self.rank(a);
                let gap_lo = if r == 0 { 0 } else { self.select(r - 1) + 1 };
                if a - gap_lo < instrs.len() {
                    let mut list = self.materialize();
                    list.splice(r..r, instrs.iter().copied());
                    self.rebuild(&list);
                    return;
                }
                for (i, ins) in instrs.iter().enumerate() {
                    self.fill(gap_lo + i, ins);
                }
            }
            None => {
                // Without tombstones the tail slot is the next one: O(1).
                let mut s = if self.live == self.capacity() {
                    self.capacity()
                } else if self.live == 0 {
                    0
                } else {
                    self.select(self.live - 1) + 1
                };
                for ins in instrs {
                    if s >= self.capacity() {
                        s = self.push_back_slot();
                    }
                    self.fill(s, ins);
                    s += 1;
                }
            }
        }
    }

    /// Rebuilds the arena compactly from a positional instruction list.
    fn rebuild(&mut self, instrs: &[Instruction]) {
        let n = instrs.len();
        let nq = self.first.len();
        self.kinds.clear();
        self.params.clear();
        self.qs.clear();
        self.next.clear();
        self.prev.clear();
        self.kinds.reserve(n);
        self.params.reserve(n);
        self.qs.reserve(n);
        self.next.reserve(n);
        self.prev.reserve(n);
        self.alive.clear();
        self.alive.resize(n.div_ceil(64), !0u64);
        if n & 63 != 0 {
            if let Some(w) = self.alive.last_mut() {
                *w = (1u64 << (n & 63)) - 1;
            }
        }
        self.first.clear();
        self.first.resize(nq, NONE);
        self.last.clear();
        self.last.resize(nq, NONE);
        self.fen = vec![0u32; n + 1];
        for i in 1..=n {
            self.fen[i] += 1;
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                self.fen[j] += self.fen[i];
            }
        }
        self.live = n;
        let mut last_slot = vec![0u8; nq];
        for (i, ins) in instrs.iter().enumerate() {
            self.kinds.push(ins.gate.kind());
            let mut ps = [0.0f64; 3];
            let prm = ins.gate.params();
            ps[..prm.len()].copy_from_slice(&prm);
            self.params.push(ps);
            self.qs.push(ins.qs);
            self.next.push([NONE; 3]);
            self.prev.push([NONE; 3]);
            for (slot, &q) in ins.qubits().iter().enumerate() {
                let qi = q as usize;
                let p = self.last[qi];
                if p != NONE {
                    self.prev[i][slot] = p;
                    self.next[p as usize][last_slot[qi] as usize] = i as u32;
                } else {
                    self.first[qi] = i as u32;
                }
                self.last[qi] = i as u32;
                last_slot[qi] = slot as u8;
            }
        }
    }

    /// Compacts the arena once tombstones dominate, bounding memory and
    /// per-walk overhead at 2× the live size.
    fn maybe_compact(&mut self) {
        if self.capacity() > 64 && self.live * 2 < self.capacity() {
            let list = self.materialize();
            self.rebuild(&list);
        }
    }
}

/// Word-at-a-time iterator over live slots from a starting slot
/// (inclusive) — the workhorse behind [`Circuit::ids_from`] and
/// [`Circuit::next_id`]. Each step is O(1) amortized: dead slots are
/// skipped 64 at a time.
struct LiveSlots<'a> {
    alive: &'a [u64],
    word: usize,
    bits: u64,
}

impl<'a> LiveSlots<'a> {
    fn from_slot(alive: &'a [u64], start: usize) -> Self {
        let word = start >> 6;
        let bits = if word < alive.len() {
            alive[word] & (!0u64 << (start & 63))
        } else {
            0
        };
        LiveSlots { alive, word, bits }
    }
}

impl Iterator for LiveSlots<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.alive.len() {
                return None;
            }
            self.bits = self.alive[self.word];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word << 6) | b)
    }
}

/// A quantum circuit: `n` qubits and an ordered gate list.
///
/// ```
/// use qcir::{Circuit, Gate};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_count(), 1);
/// ```
#[derive(Debug)]
pub struct Circuit {
    n_qubits: usize,
    arena: Arena,
    counts: GateCounts,
    /// Lazily materialized compact view; invalidated on every mutation.
    cache: OnceLock<Vec<Instruction>>,
}

impl Clone for Circuit {
    fn clone(&self) -> Self {
        Circuit {
            n_qubits: self.n_qubits,
            arena: self.arena.clone(),
            counts: self.counts,
            cache: OnceLock::new(),
        }
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new(0)
    }
}

/// Equality is structural: same qubit count, same instruction list (the
/// cached counts are a pure function of the instructions).
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.n_qubits == other.n_qubits && self.arena.content_eq(&other.arena)
    }
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            arena: Arena::new(n_qubits),
            counts: GateCounts::default(),
            cache: OnceLock::new(),
        }
    }

    /// Creates a circuit from parts.
    ///
    /// # Panics
    ///
    /// Panics if any instruction references a qubit `≥ n_qubits`.
    pub fn from_instructions(n_qubits: usize, instrs: Vec<Instruction>) -> Self {
        let c = Circuit::from_slice(n_qubits, &instrs);
        let _ = c.cache.set(instrs);
        c
    }

    /// Builds the arena compactly from `instrs` in one pass, without
    /// keeping a positional copy of them.
    ///
    /// # Panics
    ///
    /// Panics if any instruction references a qubit `≥ n_qubits`.
    pub(crate) fn from_slice(n_qubits: usize, instrs: &[Instruction]) -> Self {
        let mut counts = GateCounts::default();
        for ins in instrs {
            for &q in ins.qubits() {
                assert!(
                    (q as usize) < n_qubits,
                    "instruction {ins} out of range for {n_qubits} qubits"
                );
            }
            counts.add(ins);
        }
        let mut arena = Arena::new(n_qubits);
        arena.rebuild(instrs);
        Circuit {
            n_qubits,
            arena,
            counts,
            cache: OnceLock::new(),
        }
    }

    /// Mutable access to the cached counts (patch machinery only).
    #[inline]
    pub(crate) fn counts_mut(&mut self) -> &mut GateCounts {
        &mut self.counts
    }

    /// Replaces a logical index range of the instruction list without
    /// touching the cached counts (the caller has already accounted for
    /// them). Slots of the range are tombstoned and the replacement
    /// claims dead slots in the freed gap — O(edit-span · log n).
    pub(crate) fn splice_raw(&mut self, range: Range<usize>, replacement: Vec<Instruction>) {
        self.cache.take();
        let (lo, hi) = (range.start, range.end);
        debug_assert!(lo <= hi && hi <= self.arena.live, "splice out of range");
        let anchor = if hi < self.arena.live {
            Some(self.arena.select(hi))
        } else {
            None
        };
        if lo < hi {
            let mut s = self.arena.select(lo);
            for i in lo..hi {
                let cur = s;
                if i + 1 < hi {
                    s = self.arena.next_live_after(cur);
                }
                self.arena.kill(cur);
            }
        }
        self.arena.insert_before(anchor, &replacement);
        self.arena.maybe_compact();
    }

    /// The cached gate statistics.
    #[inline]
    pub fn counts(&self) -> &GateCounts {
        &self.counts
    }

    /// Number of gates of the given kind — O(1) from the cached counts.
    #[inline]
    pub fn kind_count(&self, kind: GateKind) -> usize {
        self.counts.of_kind(kind)
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of instructions (total gate count).
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.live
    }

    /// True when the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.live == 0
    }

    /// Appends a gate application.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range or operands repeat.
    pub fn push(&mut self, gate: Gate, qubits: &[Qubit]) {
        for &q in qubits {
            assert!(
                (q as usize) < self.n_qubits,
                "qubit {q} out of range for {} qubits",
                self.n_qubits
            );
        }
        let ins = Instruction::new(gate, qubits);
        self.counts.add(&ins);
        self.cache.take();
        self.arena.insert_before(None, std::slice::from_ref(&ins));
    }

    /// Appends an already-built instruction.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range.
    pub fn push_instruction(&mut self, ins: Instruction) {
        for &q in ins.qubits() {
            assert!(
                (q as usize) < self.n_qubits,
                "qubit {q} out of range for {} qubits",
                self.n_qubits
            );
        }
        self.counts.add(&ins);
        self.cache.take();
        self.arena.insert_before(None, std::slice::from_ref(&ins));
    }

    /// Appends every instruction of `other` (same qubit indexing).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses qubits out of range for `self`.
    pub fn extend_from(&mut self, other: &Circuit) {
        for ins in other.iter() {
            self.push_instruction(*ins);
        }
    }

    /// Appends `other` with its local qubit `i` mapped to `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is too short or maps out of range.
    pub fn extend_mapped(&mut self, other: &Circuit, mapping: &[Qubit]) {
        assert!(
            mapping.len() >= other.num_qubits(),
            "mapping covers {} qubits but circuit has {}",
            mapping.len(),
            other.num_qubits()
        );
        for ins in other.iter() {
            let qs: Vec<Qubit> = ins.qubits().iter().map(|&q| mapping[q as usize]).collect();
            self.push(ins.gate, &qs);
        }
    }

    /// The instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions().iter()
    }

    /// Calls `f(kind, params, qubits)` for every instruction in program
    /// order, straight from the arena: nothing is materialized or cached.
    pub(crate) fn for_each_slot(&self, mut f: impl FnMut(GateKind, &[f64], &[Qubit])) {
        let a = &self.arena;
        for s in a.live_slots() {
            let kind = a.kinds[s];
            f(
                kind,
                &a.params[s][..kind.num_params()],
                &a.qs[s][..kind.arity()],
            );
        }
    }

    /// The instructions as a slice (materialized lazily from the arena
    /// and cached until the next mutation).
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        self.cache.get_or_init(|| self.arena.materialize())
    }

    // ---- stable-id access ---------------------------------------------
    //
    // Ids name arena slots. A live instruction keeps its id across edits
    // anywhere else in the circuit — no index invalidation, no memmove —
    // and ascending id order *is* program order. The id ↔ topological
    // position map (`id_at`/`pos_of_id`, Fenwick rank/select) is what
    // positional consumers (QASM emission, shard planning, `Patch`
    // coordinates) convert through. The incremental engine's matcher and
    // patch machinery read the circuit exclusively through these
    // accessors, so nothing on the hot path ever materializes the
    // compact list.

    /// The stable id of the instruction at logical position `pos`.
    /// O(log n).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `pos >= self.len()`.
    #[inline]
    pub fn id_at(&self, pos: usize) -> usize {
        self.arena.select(pos)
    }

    /// The logical position of live id `id` (inverse of
    /// [`Self::id_at`]). O(log n).
    #[inline]
    pub fn pos_of_id(&self, id: usize) -> usize {
        debug_assert!(self.is_live_id(id), "dead or out-of-range id {id}");
        self.arena.rank(id)
    }

    /// True when `id` names a live instruction of this circuit.
    #[inline]
    pub fn is_live_id(&self, id: usize) -> bool {
        id < self.arena.capacity() && self.arena.is_live(id)
    }

    /// The instruction stored at live id `id`. O(1).
    #[inline]
    pub fn instruction_by_id(&self, id: usize) -> Instruction {
        self.arena.instruction_at(id)
    }

    /// The instruction at logical position `pos` without materializing
    /// the compact list. O(log n).
    #[inline]
    pub fn instruction(&self, pos: usize) -> Instruction {
        self.arena.instruction_at(self.arena.select(pos))
    }

    /// Operand count of the gate at live id `id`. O(1).
    #[inline]
    pub fn arity_by_id(&self, id: usize) -> usize {
        self.arena.arity(id)
    }

    /// The operand qubits of the instruction at live id `id`. O(1).
    #[inline]
    pub fn qubits_by_id(&self, id: usize) -> &[Qubit] {
        &self.arena.qs[id][..self.arena.arity(id)]
    }

    /// The next live id after `id` in program order.
    #[inline]
    pub fn next_id(&self, id: usize) -> Option<usize> {
        LiveSlots::from_slot(&self.arena.alive, id + 1).next()
    }

    /// Live ids in program order, starting at logical position `pos`
    /// (empty when `pos >= self.len()`). O(1) amortized per step.
    pub fn ids_from(&self, pos: usize) -> impl Iterator<Item = usize> + '_ {
        let start = if pos < self.arena.live {
            self.arena.select(pos)
        } else {
            self.arena.capacity()
        };
        LiveSlots::from_slot(&self.arena.alive, start)
    }

    /// Live ids in program order, starting at live id `id` (inclusive).
    pub fn ids_from_id(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        LiveSlots::from_slot(&self.arena.alive, id)
    }

    /// The id of the next instruction on wire `q` after live id `id`,
    /// via the arena's embedded per-wire links. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not act on `q`.
    #[inline]
    pub fn next_on_wire(&self, id: usize, q: Qubit) -> Option<usize> {
        let nx = self.arena.next[id][self.arena.wire_pos(id, q)];
        (nx != NONE).then_some(nx as usize)
    }

    /// The id of the previous instruction on wire `q` before live id
    /// `id`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not act on `q`.
    #[inline]
    pub fn prev_on_wire(&self, id: usize, q: Qubit) -> Option<usize> {
        let pv = self.arena.prev[id][self.arena.wire_pos(id, q)];
        (pv != NONE).then_some(pv as usize)
    }

    /// The id of the first instruction acting on wire `q`. O(1).
    #[inline]
    pub fn first_on_wire(&self, q: Qubit) -> Option<usize> {
        let f = self.arena.first[q as usize];
        (f != NONE).then_some(f as usize)
    }

    /// The id of the last instruction acting on wire `q`. O(1).
    #[inline]
    pub fn last_on_wire(&self, q: Qubit) -> Option<usize> {
        let l = self.arena.last[q as usize];
        (l != NONE).then_some(l as usize)
    }

    /// The adjoint circuit (gates reversed and inverted).
    pub fn inverse(&self) -> Circuit {
        let instrs = self
            .iter()
            .rev()
            .map(|ins| Instruction::new(ins.gate.adjoint(), ins.qubits()))
            .collect();
        Circuit::from_instructions(self.n_qubits, instrs)
    }

    // ---- metrics ------------------------------------------------------

    /// Number of gates acting on two or more qubits — O(1), cached.
    #[inline]
    pub fn two_qubit_count(&self) -> usize {
        self.counts.multi_qubit()
    }

    /// Number of `T`/`T†` gates (the FTQC cost driver of §6 Q4) — O(1),
    /// cached.
    #[inline]
    pub fn t_count(&self) -> usize {
        self.counts.t_family()
    }

    /// Number of gates satisfying a predicate.
    pub fn count_where<F: Fn(&Instruction) -> bool>(&self, pred: F) -> usize {
        self.iter().filter(|i| pred(i)).count()
    }

    /// Circuit depth: length of the longest wire-ordered chain.
    pub fn depth(&self) -> usize {
        let mut wire_depth = vec![0usize; self.n_qubits];
        let mut max = 0;
        for ins in self.iter() {
            let d = ins
                .qubits()
                .iter()
                .map(|&q| wire_depth[q as usize])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in ins.qubits() {
                wire_depth[q as usize] = d;
            }
            max = max.max(d);
        }
        max
    }

    /// Set of qubits that at least one gate acts on.
    pub fn used_qubits(&self) -> Vec<Qubit> {
        let mut used = vec![false; self.n_qubits];
        for ins in self.iter() {
            for &q in ins.qubits() {
                used[q as usize] = true;
            }
        }
        (0..self.n_qubits as Qubit)
            .filter(|&q| used[q as usize])
            .collect()
    }

    // ---- semantics ----------------------------------------------------

    /// Maximum qubit count for dense unitary construction.
    pub const MAX_UNITARY_QUBITS: usize = 11;

    /// Computes the dense `2^n × 2^n` unitary of the circuit.
    ///
    /// Built column-by-column with statevector kernels, which is far
    /// cheaper than chained matrix products.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than [`Self::MAX_UNITARY_QUBITS`]
    /// qubits (the dense representation would not fit in memory).
    pub fn unitary(&self) -> Mat {
        assert!(
            self.n_qubits <= Self::MAX_UNITARY_QUBITS,
            "dense unitary limited to {} qubits, circuit has {}",
            Self::MAX_UNITARY_QUBITS,
            self.n_qubits
        );
        let dim = 1usize << self.n_qubits;
        let mut m = Mat::zeros(dim, dim);
        let mut col = vec![C64::ZERO; dim];
        for j in 0..dim {
            for z in col.iter_mut() {
                *z = C64::ZERO;
            }
            col[j] = C64::ONE;
            self.apply_to_state(&mut col);
            for i in 0..dim {
                m[(i, j)] = col[i];
            }
        }
        m
    }

    /// Applies the circuit to a statevector in place.
    ///
    /// Allocation-free per gate: unitaries come from the stack gate
    /// table ([`Gate::unitary_into`]) and go through the slice kernels.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^n`.
    pub fn apply_to_state(&self, state: &mut [C64]) {
        assert_eq!(state.len(), 1usize << self.n_qubits, "state length");
        let mut buf = [C64::ZERO; 64];
        let mut qs = [0usize; 3];
        for ins in self.iter() {
            let k = ins.qubits().len();
            for (d, &q) in qs.iter_mut().zip(ins.qubits()) {
                *d = q as usize;
            }
            let dim = ins.gate.unitary_into(&mut buf);
            apply_gate_slice(state, self.n_qubits, &qs[..k], &buf[..dim * dim]);
        }
    }

    /// Runs the circuit on `|0…0⟩` and returns the final state.
    pub fn run_on_zero(&self) -> Vec<C64> {
        let mut s = zero_state(self.n_qubits);
        self.apply_to_state(&mut s);
        s
    }

    /// Histogram of gate mnemonics to counts, sorted by name.
    pub fn gate_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for ins in self.iter() {
            *counts.entry(ins.gate.name()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} gates]", self.n_qubits, self.len())?;
        for ins in self.iter() {
            writeln!(f, "  {ins}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::Patch;
    use qmath::hs_distance;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn fig4_circuit() -> Circuit {
        // The running example from the paper's Fig. 4/5:
        // Rz(π/2) q0; CX q0,q1; H q1; Rz(π/2) q0
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(FRAC_PI_2), &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::H, &[1]);
        c.push(Gate::Rz(FRAC_PI_2), &[0]);
        c
    }

    #[test]
    fn paper_fig5_resynthesis_target() {
        // Fig. 5: the circuit is equivalent to Rz(π) q0; CX; H q1.
        let lhs = fig4_circuit();
        let mut rhs = Circuit::new(2);
        rhs.push(Gate::Rz(PI), &[0]);
        rhs.push(Gate::Cx, &[0, 1]);
        rhs.push(Gate::H, &[1]);
        assert!(hs_distance(&lhs.unitary(), &rhs.unitary()) < 1e-7);
    }

    #[test]
    fn metrics() {
        let c = fig4_circuit();
        assert_eq!(c.len(), 4);
        assert_eq!(c.two_qubit_count(), 1);
        assert_eq!(c.t_count(), 0);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.used_qubits(), vec![0, 1]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let c = fig4_circuit();
        let mut both = c.clone();
        both.extend_from(&c.inverse());
        let u = both.unitary();
        assert!(hs_distance(&u, &Mat::identity(4)) < 1e-7);
    }

    #[test]
    fn unitary_matches_embedding_chain() {
        use qmath::{embed, gates};
        let c = fig4_circuit();
        let expect = embed(&gates::rz(FRAC_PI_2), 2, &[0])
            .matmul(&embed(&gates::h(), 2, &[1]))
            .matmul(&gates::cx())
            .matmul(&embed(&gates::rz(FRAC_PI_2), 2, &[0]));
        assert!(c.unitary().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn extend_mapped_remaps() {
        let mut small = Circuit::new(2);
        small.push(Gate::Cx, &[0, 1]);
        let mut big = Circuit::new(4);
        big.extend_mapped(&small, &[3, 1]);
        assert_eq!(big.instructions()[0].qubits(), &[3, 1]);
    }

    #[test]
    fn depth_parallel_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[1]);
        c.push(Gate::H, &[2]);
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cx, &[0, 1]);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn run_on_zero_bell() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let s = c.run_on_zero();
        assert!((s[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((s[3].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn gate_histogram_sorted() {
        let c = fig4_circuit();
        let h = c.gate_histogram();
        assert_eq!(h, vec![("cx", 1), ("h", 1), ("rz", 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut c = Circuit::new(1);
        c.push(Gate::Cx, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "repeated operand")]
    fn repeated_operand_panics() {
        let _ = Instruction::new(Gate::Cx, &[0, 0]);
    }

    // ---- arena invariants --------------------------------------------

    /// Tiny deterministic generator for the differential tests below.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_instruction(rng: &mut Lcg, nq: usize) -> Instruction {
        let pool = [
            Gate::H,
            Gate::X,
            Gate::T,
            Gate::Tdg,
            Gate::S,
            Gate::Rz(0.25),
        ];
        match rng.below(3) {
            0 | 1 => Instruction::new(pool[rng.below(pool.len())], &[rng.below(nq) as Qubit]),
            _ => {
                let a = rng.below(nq);
                let mut b = rng.below(nq - 1);
                if b >= a {
                    b += 1;
                }
                Instruction::new(Gate::Cx, &[a as Qubit, b as Qubit])
            }
        }
    }

    /// Full structural audit of the arena: rank/select, slot contents,
    /// and every wire link against a positional per-wire scan.
    fn check_arena(c: &Circuit) {
        let a = &c.arena;
        assert_eq!(a.live, c.len());
        let slot_of: Vec<usize> = a.live_slots().collect();
        for (li, &s) in slot_of.iter().enumerate() {
            assert_eq!(
                (a.rank(s), a.select(li)),
                (li, s),
                "rank/select at slot {s}"
            );
            assert_eq!(a.instruction_at(s), c.instructions()[li], "slot content");
        }
        let link = |v: u32| (v != NONE).then_some(v as usize);
        for q in 0..c.num_qubits() {
            let wire: Vec<usize> = (0..c.len())
                .filter(|&i| c.instructions()[i].acts_on(q as Qubit))
                .map(|i| slot_of[i])
                .collect();
            assert_eq!(link(a.first[q]), wire.first().copied(), "first on wire {q}");
            assert_eq!(link(a.last[q]), wire.last().copied(), "last on wire {q}");
            for (k, &s) in wire.iter().enumerate() {
                let ins = a.instruction_at(s);
                let pos = ins.qubits().iter().position(|&w| w as usize == q).unwrap();
                let prev = k.checked_sub(1).map(|j| wire[j]);
                assert_eq!(link(a.prev[s][pos]), prev, "prev on wire {q}");
                assert_eq!(
                    link(a.next[s][pos]),
                    wire.get(k + 1).copied(),
                    "next on wire {q}"
                );
            }
        }
    }

    #[test]
    fn wire_links() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::T, &[2]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::H, &[0]);
        let id = |p: usize| c.id_at(p);
        assert_eq!(c.first_on_wire(0), Some(id(0)));
        assert_eq!(c.next_on_wire(id(0), 0), Some(id(1)));
        assert_eq!(c.next_on_wire(id(1), 0), Some(id(4)));
        assert_eq!(c.next_on_wire(id(1), 1), Some(id(3)));
        assert_eq!(c.prev_on_wire(id(3), 2), Some(id(2)));
        assert_eq!(c.next_on_wire(id(4), 0), None);
        assert_eq!(c.last_on_wire(2), Some(id(3)));
        assert_eq!(c.last_on_wire(0), Some(id(4)));
        check_arena(&c);
    }

    #[test]
    fn empty_wires() {
        let c = Circuit::new(4);
        assert_eq!((c.first_on_wire(3), c.last_on_wire(3)), (None, None));
        check_arena(&c);
    }

    #[test]
    fn arena_matches_vec_model_on_random_patches() {
        let nq = 5;
        let mut rng = Lcg(0x12345678);
        let mut model: Vec<Instruction> =
            (0..40).map(|_| random_instruction(&mut rng, nq)).collect();
        let mut c = Circuit::from_instructions(nq, model.clone());
        for step in 0..400 {
            let n = model.len();
            let mut removed: Vec<usize> = Vec::new();
            if n > 0 {
                let k = rng.below(4.min(n) + 1);
                let mut cand: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
                cand.sort_unstable();
                cand.dedup();
                removed = cand;
            }
            let m = rng.below(4);
            let replacement: Vec<Instruction> =
                (0..m).map(|_| random_instruction(&mut rng, nq)).collect();
            let insert_at = rng.below(n + 1);
            let patch = Patch::new(removed.clone(), replacement.clone(), insert_at);

            // Vec model: naive replay of the visit-window semantics.
            let mut next_model: Vec<Instruction> = Vec::new();
            for (i, ins) in model.iter().enumerate() {
                if i == insert_at {
                    next_model.extend(replacement.iter().copied());
                }
                if !removed.contains(&i) {
                    next_model.push(*ins);
                }
            }
            if insert_at == n {
                next_model.extend(replacement.iter().copied());
            }

            let undo = c.apply_patch(&patch);
            if step % 3 == 0 {
                c.revert_patch(&undo);
                assert_eq!(
                    c,
                    Circuit::from_instructions(nq, model.clone()),
                    "revert diverged at step {step}"
                );
                c.apply_patch(&patch);
            }
            model = next_model;
            let expect = Circuit::from_instructions(nq, model.clone());
            assert_eq!(c, expect, "apply diverged at step {step}");
            assert_eq!(c.two_qubit_count(), expect.two_qubit_count());
            assert_eq!(c.t_count(), expect.t_count());
            assert_eq!(c.instructions(), expect.instructions());
            if step % 25 == 0 {
                check_arena(&c);
            }
        }
    }

    #[test]
    fn arena_wire_links_survive_patch_churn() {
        let nq = 4;
        let mut rng = Lcg(0xABCDEF);
        let mut c = Circuit::new(nq);
        for _ in 0..30 {
            let ins = random_instruction(&mut rng, nq);
            c.push_instruction(ins);
        }
        check_arena(&c);
        for _ in 0..60 {
            let n = c.len();
            if n < 3 {
                break;
            }
            let i = rng.below(n - 1);
            let patch = Patch::new(vec![i], vec![random_instruction(&mut rng, nq)], i);
            c.apply_patch(&patch);
            check_arena(&c);
        }
    }

    #[test]
    fn patch_probe_churn_never_grows_the_arena() {
        let mut c = Circuit::new(2);
        for _ in 0..32 {
            c.push(Gate::H, &[0]);
            c.push(Gate::Cx, &[0, 1]);
        }
        let cap0 = c.arena.capacity();
        for i in 0..1000 {
            let at = i % (c.len() - 1);
            let patch = Patch::new(vec![at], vec![Instruction::new(Gate::X, &[0])], at);
            let undo = c.apply_patch(&patch);
            c.revert_patch(&undo);
        }
        assert_eq!(c.arena.capacity(), cap0, "probe churn must reuse slots");
    }

    #[test]
    fn compaction_bounds_capacity_and_preserves_content() {
        let mut c = Circuit::new(3);
        for i in 0..200 {
            c.push(Gate::T, &[(i % 3) as Qubit]);
        }
        let full = c.clone();
        let undo_all: Vec<_> = (0..180)
            .map(|_| c.apply_patch(&Patch::new(vec![0], Vec::new(), 0)))
            .collect();
        assert_eq!(c.len(), 20);
        assert!(
            c.arena.capacity() <= 64,
            "tombstone-heavy arena must compact (capacity {})",
            c.arena.capacity()
        );
        check_arena(&c);
        for undo in undo_all.iter().rev() {
            c.revert_patch(undo);
        }
        assert_eq!(c, full);
        check_arena(&c);
    }

    #[test]
    fn growing_patch_falls_back_to_rebuild() {
        let mut c = Circuit::new(2);
        for _ in 0..8 {
            c.push(Gate::H, &[0]);
        }
        let rep = vec![
            Instruction::new(Gate::X, &[0]),
            Instruction::new(Gate::Y, &[0]),
            Instruction::new(Gate::X, &[0]),
        ];
        let patch = Patch::new(vec![3], rep, 3);
        let undo = c.apply_patch(&patch);
        assert_eq!(c.len(), 10);
        check_arena(&c);
        c.revert_patch(&undo);
        assert_eq!(c.len(), 8);
        check_arena(&c);
    }

    /// Slot-for-slot equality of two arenas.
    fn assert_same_arena(a: &Arena, b: &Arena) {
        assert_eq!(a.kinds, b.kinds, "kinds");
        assert_eq!(a.params, b.params, "params");
        assert_eq!(a.qs, b.qs, "operands");
        assert_eq!(a.alive, b.alive, "liveness");
        assert_eq!(a.next, b.next, "next links");
        assert_eq!(a.prev, b.prev, "prev links");
        assert_eq!((&a.first, &a.last), (&b.first, &b.last), "wire ends");
        assert_eq!(a.fen, b.fen, "Fenwick tree");
        assert_eq!(a.live, b.live, "live count");
    }

    #[test]
    fn appends_build_the_compact_arena() {
        let mut rng = Lcg(0x5EED);
        for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 300] {
            let list: Vec<Instruction> = (0..n).map(|_| random_instruction(&mut rng, 5)).collect();
            let mut appended = Circuit::new(5);
            for &ins in &list {
                appended.push_instruction(ins);
            }
            let built = Circuit::from_instructions(5, list);
            assert_same_arena(&appended.arena, &built.arena);
            check_arena(&appended);
            for pos in 0..n {
                assert_eq!(appended.id_at(pos), built.id_at(pos));
            }
        }
    }

    #[test]
    fn append_after_a_removal_takes_the_general_path() {
        let mut rng = Lcg(0xD1CE);
        let list: Vec<Instruction> = (0..70).map(|_| random_instruction(&mut rng, 4)).collect();
        // A dead tail slot is reused rather than left behind.
        let mut c = Circuit::from_instructions(4, list.clone());
        c.apply_patch(&Patch::new(vec![69], Vec::new(), 69));
        c.push(Gate::H, &[2]);
        assert_eq!(c.arena.capacity(), 70);
        assert_eq!(c.id_at(69), 69);
        check_arena(&c);
        // A dead slot mid-arena: appends go past the tail, and every
        // Fenwick node they add counts the hole.
        let mut c = Circuit::from_instructions(4, list);
        c.apply_patch(&Patch::new(vec![10], Vec::new(), 10));
        for _ in 0..60 {
            c.push_instruction(random_instruction(&mut rng, 4));
        }
        assert_eq!(c.arena.capacity(), 130);
        assert!(!c.is_live_id(10));
        check_arena(&c);
    }

    #[test]
    fn clone_and_equality_ignore_slot_layout() {
        // Same content through different edit histories ⇒ equal, even
        // though tombstone layout differs.
        let mut a = Circuit::new(2);
        a.push(Gate::H, &[0]);
        a.push(Gate::Cx, &[0, 1]);
        a.push(Gate::T, &[1]);
        let mut b = a.clone();
        let undo = b.apply_patch(&Patch::new(vec![1], Vec::new(), 1));
        b.revert_patch(&undo);
        assert_eq!(a, b);
        assert_eq!(a.instructions(), b.instructions());
    }
}
