//! `CircuitDelta` — a stable, versioned serialized form of circuit
//! edits.
//!
//! The incremental engine's native currency is the [`Patch`]: a local
//! edit against the current circuit. A [`CircuitDelta`] packages an
//! *ordered sequence* of patches as a value with a stable wire
//! encoding, so an edit script can leave the process — streamed to a
//! client as a `DELTA` frame, appended to a job journal, replayed
//! after a restart — and still reproduce the exact circuit it was
//! recorded against, bit for bit.
//!
//! Why a sequence and not a single patch? Between two best-so-far
//! improvements the search accepts many moves (plateau and worsening
//! accepts included), so the edit from one served best to the next is
//! in general *not* expressible as one `(removed, replacement,
//! insert_at)` patch — single patches are not closed under
//! composition. An op *list* is: [`compose`](CircuitDelta::compose) is
//! concatenation, and applying a composed delta equals applying the
//! parts in order. That closure property is what makes checkpoint +
//! delta-stream framing work (see the `qserve` protocol v2): any
//! suffix of a stream re-applies cleanly onto the last full-circuit
//! checkpoint.
//!
//! # Encoding
//!
//! One line of ASCII, no `\n`/`\r` (so it can travel as the free-form
//! tail field of a line-delimited protocol frame):
//!
//! ```text
//! CD1 b=<base_len> n=<new_len> <op> <op> ...
//! op    = -<removed csv>@<insert_at>+<instr(;instr)*>
//! instr = <name>[(<hex-f64>(,<hex-f64>)*)]:<qubit(,qubit)*>
//! ```
//!
//! Gate parameters are encoded as the hexadecimal of their IEEE-754
//! bit pattern (`f64::to_bits`), so decoding reproduces the exact
//! float — no shortest-round-trip or precision subtleties, which is
//! what "replaying the stream reconstructs the served circuit bit for
//! bit" rests on.
//!
//! ```
//! use qcir::{Circuit, Gate};
//! use qcir::delta::CircuitDelta;
//! use qcir::edit::Patch;
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[0, 1]);
//! let delta = CircuitDelta::from_ops(2, vec![Patch::new(vec![0, 1], Vec::new(), 0)]);
//! let wire = delta.encode();
//! let back = CircuitDelta::decode(&wire).unwrap();
//! let mut replayed = c.clone();
//! back.apply(&mut replayed).unwrap();
//! assert!(replayed.is_empty());
//! ```

use crate::circuit::{Circuit, Instruction, Qubit};
use crate::edit::Patch;
use crate::gate::Gate;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// The current encoding version (the `CD1` tag). Decoders reject
/// versions they do not know; the version only changes when the wire
/// grammar does.
pub const DELTA_VERSION: u32 = 1;

/// A malformed or inapplicable delta.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta error: {}", self.message)
    }
}

impl Error for DeltaError {}

fn derr(message: impl Into<String>) -> DeltaError {
    DeltaError {
        message: message.into(),
    }
}

/// A versioned, serializable edit script: an ordered list of
/// [`Patch`]es applied to a circuit of a declared length. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitDelta {
    base_len: usize,
    new_len: usize,
    ops: Vec<Patch>,
}

impl CircuitDelta {
    /// An empty delta over a circuit of `len` instructions (applies as
    /// a no-op).
    pub fn identity(len: usize) -> Self {
        CircuitDelta {
            base_len: len,
            new_len: len,
            ops: Vec::new(),
        }
    }

    /// Packages an op sequence against a base circuit of `base_len`
    /// instructions. The resulting length is derived from the ops'
    /// [`Patch::len_delta`]s.
    pub fn from_ops(base_len: usize, ops: Vec<Patch>) -> Self {
        let new_len = ops.iter().fold(base_len as isize, |n, op| {
            debug_assert!(n + op.len_delta() >= 0, "op shrinks below empty");
            n + op.len_delta()
        });
        CircuitDelta {
            base_len,
            new_len: new_len.max(0) as usize,
            ops,
        }
    }

    /// The minimal single-op delta turning `old` into `new`: the
    /// common prefix and suffix are trimmed and one op replaces the
    /// differing middle window. Used where only the before/after
    /// circuits are available (e.g. the sharded engine's per-epoch
    /// commits, which reassemble the master from shard results instead
    /// of producing patches).
    ///
    /// # Panics
    ///
    /// Panics if the circuits disagree on qubit count (a delta never
    /// changes the register).
    pub fn diff(old: &Circuit, new: &Circuit) -> Self {
        assert_eq!(
            old.num_qubits(),
            new.num_qubits(),
            "delta cannot change the register size"
        );
        let a = old.instructions();
        let b = new.instructions();
        let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        let max_suffix = a.len().min(b.len()) - prefix;
        let suffix = (0..max_suffix)
            .take_while(|&k| a[a.len() - 1 - k] == b[b.len() - 1 - k])
            .count();
        if a.len() == b.len() && prefix == a.len() {
            return Self::identity(a.len());
        }
        let removed: Vec<usize> = (prefix..a.len() - suffix).collect();
        let replacement: Vec<Instruction> = b[prefix..b.len() - suffix].to_vec();
        CircuitDelta {
            base_len: a.len(),
            new_len: b.len(),
            ops: vec![Patch::new(removed, replacement, prefix)],
        }
    }

    /// Instruction count of the circuit this delta applies to.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Instruction count after applying this delta.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[Patch] {
        &self.ops
    }

    /// True when applying this delta is a no-op.
    pub fn is_identity(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the delta to `circuit` in place.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] (leaving the circuit possibly partially
    /// edited only on an internally inconsistent delta; a length or
    /// bounds mismatch on the *first* op leaves it untouched) when the
    /// circuit's length differs from [`Self::base_len`] or an op's
    /// indices/qubits fall out of range.
    pub fn apply(&self, circuit: &mut Circuit) -> Result<(), DeltaError> {
        if circuit.len() != self.base_len {
            return Err(derr(format!(
                "delta expects a {}-instruction base, circuit has {}",
                self.base_len,
                circuit.len()
            )));
        }
        for op in &self.ops {
            let n = circuit.len();
            if op.insert_at() > n {
                return Err(derr(format!("insert_at {} out of range", op.insert_at())));
            }
            if let Some(&last) = op.removed().last() {
                if last >= n {
                    return Err(derr(format!("removed index {last} out of range")));
                }
            }
            for ins in op.replacement() {
                for &q in ins.qubits() {
                    if q as usize >= circuit.num_qubits() {
                        return Err(derr(format!("replacement qubit {q} out of range")));
                    }
                }
            }
            circuit.apply_patch(op);
        }
        if circuit.len() != self.new_len {
            return Err(derr(format!(
                "delta declared {} resulting instructions, got {}",
                self.new_len,
                circuit.len()
            )));
        }
        Ok(())
    }

    /// Composes `self` (applied first) with `next`: the returned delta
    /// maps `self`'s base directly to `next`'s result. Composition is
    /// op-list concatenation — applying the composed delta to a
    /// checkpoint equals replaying the stream op by op (the property
    /// the round-trip suite pins down).
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] when the lengths do not chain
    /// (`self.new_len() != next.base_len()`).
    pub fn compose(&self, next: &CircuitDelta) -> Result<CircuitDelta, DeltaError> {
        if self.new_len != next.base_len {
            return Err(derr(format!(
                "cannot compose: first delta yields {} instructions, second expects {}",
                self.new_len, next.base_len
            )));
        }
        let mut ops = self.ops.clone();
        ops.extend(next.ops.iter().cloned());
        Ok(CircuitDelta {
            base_len: self.base_len,
            new_len: next.new_len,
            ops,
        })
    }

    /// Serializes the delta as one newline-free ASCII line (see the
    /// [module docs](self) for the grammar).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(32 + self.ops.len() * 24);
        let _ = write!(
            s,
            "CD{DELTA_VERSION} b={} n={}",
            self.base_len, self.new_len
        );
        for op in &self.ops {
            s.push_str(" -");
            for (i, r) in op.removed().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{r}");
            }
            let _ = write!(s, "@{}+", op.insert_at());
            for (i, ins) in op.replacement().iter().enumerate() {
                if i > 0 {
                    s.push(';');
                }
                encode_instruction(&mut s, ins);
            }
        }
        debug_assert!(!s.contains('\n') && !s.contains('\r'));
        s
    }

    /// Parses a delta previously produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] on an unknown version tag or any
    /// grammatical or consistency violation (non-ascending removed
    /// indices, malformed instructions, a declared `n=` that the ops do
    /// not produce).
    pub fn decode(line: &str) -> Result<CircuitDelta, DeltaError> {
        let mut tokens = line.split(' ').filter(|t| !t.is_empty());
        match tokens.next() {
            Some(tag) if tag == format!("CD{DELTA_VERSION}") => {}
            Some(tag) if tag.starts_with("CD") => {
                return Err(derr(format!("unsupported delta version `{tag}`")))
            }
            other => return Err(derr(format!("missing CD version tag, got {other:?}"))),
        }
        let base_len = parse_tagged(tokens.next(), "b")?;
        let new_len = parse_tagged(tokens.next(), "n")?;
        let mut ops = Vec::new();
        for tok in tokens {
            ops.push(decode_op(tok)?);
        }
        // Wide enough that no declared length or op count can overflow.
        let derived = ops
            .iter()
            .fold(base_len as i128, |n, op: &Patch| n + op.len_delta() as i128);
        if derived != new_len as i128 {
            return Err(derr(format!(
                "ops produce {derived} instructions but n={new_len} declared"
            )));
        }
        Ok(CircuitDelta {
            base_len,
            new_len,
            ops,
        })
    }
}

fn parse_tagged(tok: Option<&str>, key: &str) -> Result<usize, DeltaError> {
    let tok = tok.ok_or_else(|| derr(format!("missing `{key}=` field")))?;
    let val = tok
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| derr(format!("expected `{key}=`, got `{tok}`")))?;
    val.parse()
        .map_err(|_| derr(format!("bad integer in `{tok}`")))
}

fn encode_instruction(s: &mut String, ins: &Instruction) {
    s.push_str(ins.gate.name());
    let params = ins.gate.params();
    if !params.is_empty() {
        s.push('(');
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{:x}", p.to_bits());
        }
        s.push(')');
    }
    s.push(':');
    for (i, q) in ins.qubits().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{q}");
    }
}

fn decode_op(tok: &str) -> Result<Patch, DeltaError> {
    let body = tok
        .strip_prefix('-')
        .ok_or_else(|| derr(format!("op must start with `-`: `{tok}`")))?;
    let at = body
        .find('@')
        .ok_or_else(|| derr(format!("op missing `@`: `{tok}`")))?;
    let removed_csv = &body[..at];
    let rest = &body[at + 1..];
    let plus = rest
        .find('+')
        .ok_or_else(|| derr(format!("op missing `+`: `{tok}`")))?;
    let insert_at: usize = rest[..plus]
        .parse()
        .map_err(|_| derr(format!("bad insert index in `{tok}`")))?;
    let mut removed: Vec<usize> = Vec::new();
    if !removed_csv.is_empty() {
        for part in removed_csv.split(',') {
            let idx: usize = part
                .parse()
                .map_err(|_| derr(format!("bad removed index `{part}`")))?;
            if let Some(&prev) = removed.last() {
                if idx <= prev {
                    return Err(derr("removed indices must be strictly ascending"));
                }
            }
            removed.push(idx);
        }
    }
    let mut replacement = Vec::new();
    let instrs = &rest[plus + 1..];
    if !instrs.is_empty() {
        for itok in instrs.split(';') {
            replacement.push(decode_instruction(itok)?);
        }
    }
    Ok(Patch::new(removed, replacement, insert_at))
}

fn decode_instruction(tok: &str) -> Result<Instruction, DeltaError> {
    let colon = tok
        .rfind(':')
        .ok_or_else(|| derr(format!("instruction missing `:`: `{tok}`")))?;
    let head = &tok[..colon];
    let (name, params) = match head.find('(') {
        Some(open) => {
            let after = &head[open + 1..];
            let close = after
                .rfind(')')
                .ok_or_else(|| derr(format!("unclosed parameter list in `{tok}`")))?;
            let mut params = Vec::new();
            for p in after[..close].split(',') {
                let bits = u64::from_str_radix(p, 16)
                    .map_err(|_| derr(format!("bad hex parameter `{p}`")))?;
                params.push(f64::from_bits(bits));
            }
            (&head[..open], params)
        }
        None => (head, Vec::new()),
    };
    let gate = Gate::from_name(name, &params)
        .ok_or_else(|| derr(format!("unknown gate or parameter count in `{tok}`")))?;
    let mut qubits: Vec<Qubit> = Vec::new();
    for q in tok[colon + 1..].split(',') {
        let q: Qubit = q
            .parse()
            .map_err(|_| derr(format!("bad qubit index in `{tok}`")))?;
        if qubits.contains(&q) {
            return Err(derr(format!("repeated qubit {q} in `{tok}`")));
        }
        qubits.push(q);
    }
    if qubits.len() != gate.arity() {
        return Err(derr(format!(
            "gate {name} expects {} operands, got {}",
            gate.arity(),
            qubits.len()
        )));
    }
    Ok(Instruction::new(gate, &qubits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.123_456_789_012_345_67), &[2]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::U3(0.3, -1.7, std::f64::consts::PI), &[1]);
        c
    }

    #[test]
    fn roundtrip_preserves_ops_and_floats_exactly() {
        let ops = vec![
            Patch::new(vec![1, 3], Vec::new(), 1),
            Patch::new(
                vec![0],
                vec![
                    Instruction::new(Gate::Rz(1e-17 + 0.7), &[2]),
                    Instruction::new(Gate::Cx, &[2, 0]),
                ],
                0,
            ),
        ];
        let d = CircuitDelta::from_ops(5, ops);
        let back = CircuitDelta::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        // Bit-exact parameters survive the hex codec.
        match back.ops()[1].replacement()[0].gate {
            Gate::Rz(a) => assert_eq!(a.to_bits(), (1e-17f64 + 0.7).to_bits()),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn apply_matches_direct_patches() {
        let base = sample();
        let ops = vec![
            Patch::new(vec![1, 3], Vec::new(), 1),
            Patch::new(vec![2], vec![Instruction::new(Gate::T, &[0])], 1),
        ];
        let mut direct = base.clone();
        for op in &ops {
            direct.apply_patch(op);
        }
        let d = CircuitDelta::from_ops(base.len(), ops);
        let wire = d.encode();
        let mut replayed = base.clone();
        CircuitDelta::decode(&wire)
            .unwrap()
            .apply(&mut replayed)
            .unwrap();
        assert_eq!(replayed, direct);
        assert_eq!(d.new_len(), direct.len());
    }

    #[test]
    fn compose_equals_sequential_application() {
        let base = sample();
        let d1 = CircuitDelta::from_ops(5, vec![Patch::new(vec![0], Vec::new(), 0)]);
        let d2 = CircuitDelta::from_ops(
            4,
            vec![Patch::new(
                vec![1, 2],
                vec![Instruction::new(Gate::X, &[1])],
                1,
            )],
        );
        let composed = d1.compose(&d2).unwrap();
        let mut seq = base.clone();
        d1.apply(&mut seq).unwrap();
        d2.apply(&mut seq).unwrap();
        let mut one = base.clone();
        composed.apply(&mut one).unwrap();
        assert_eq!(one, seq);
        // Mismatched chaining is refused.
        assert!(d2.compose(&d2).is_err());
    }

    #[test]
    fn diff_reconstructs_and_trims() {
        let old = sample();
        let mut new = Circuit::new(3);
        new.push(Gate::H, &[0]); // shared prefix
        new.push(Gate::Z, &[2]); // differing middle
        new.push(Gate::U3(0.3, -1.7, std::f64::consts::PI), &[1]); // shared suffix
        let d = CircuitDelta::diff(&old, &new);
        assert_eq!(d.base_len(), old.len());
        assert_eq!(d.new_len(), new.len());
        assert_eq!(d.ops().len(), 1);
        // Prefix (1) and suffix (1) are outside the op window.
        assert_eq!(d.ops()[0].removed(), &[1, 2, 3]);
        let mut replayed = old.clone();
        d.apply(&mut replayed).unwrap();
        assert_eq!(replayed, new);
        // Equal circuits diff to the identity.
        assert!(CircuitDelta::diff(&old, &old).is_identity());
    }

    #[test]
    fn apply_validates_base_and_bounds() {
        let mut short = Circuit::new(3);
        short.push(Gate::H, &[0]);
        let d = CircuitDelta::from_ops(5, vec![Patch::new(vec![4], Vec::new(), 0)]);
        assert!(d.apply(&mut short).is_err());
        let mut base = sample();
        let oob = CircuitDelta::from_ops(
            5,
            vec![Patch::new(
                vec![0],
                vec![Instruction::new(Gate::X, &[9])],
                0,
            )],
        );
        assert!(oob.apply(&mut base).is_err());
        assert_eq!(base, sample(), "failed eligibility check must not edit");
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "CD9 b=0 n=0",
            "CD1 b=x n=0",
            "CD1 b=0",
            "CD1 b=2 n=0 -0,0@0+",
            "CD1 b=2 n=1 -@0+x:0",       // n inconsistent with ops
            "CD1 b=2 n=2 -0@0+frob:0",   // unknown gate
            "CD1 b=2 n=2 -0@0+cx:1,1",   // repeated qubit
            "CD1 b=2 n=2 -0@0+rz(zz):0", // bad hex
        ] {
            assert!(CircuitDelta::decode(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn decode_rejects_reversed_parameter_parens() {
        assert!(CircuitDelta::decode("CD1 b=0 n=1 -@0+h)(:0").is_err());
        assert!(CircuitDelta::decode("CD1 b=0 n=1 -@0+rz)0(:0").is_err());
    }

    #[test]
    fn decode_rejects_lengths_that_wrap() {
        for base in [isize::MAX as usize, usize::MAX] {
            let line = format!("CD1 b={base} n=0 -@0+h:0");
            assert!(CircuitDelta::decode(&line).is_err(), "accepted `{line}`");
        }
    }

    #[test]
    fn identity_roundtrip() {
        let d = CircuitDelta::identity(7);
        assert!(d.is_identity());
        let back = CircuitDelta::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        let mut c = Circuit::new(1);
        for _ in 0..7 {
            c.push(Gate::X, &[0]);
        }
        back.apply(&mut c).unwrap();
        assert_eq!(c.len(), 7);
    }
}
