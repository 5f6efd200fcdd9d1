//! The gate alphabet.
//!
//! [`Gate`] covers every gate used by the five evaluation gate sets of the
//! paper (Table 2) plus the common composite gates (`CCX`, `SWAP`, …) that
//! benchmark generators produce before rebasing.

use qmath::angle::normalize;
use qmath::{gates as gm, Mat, Mat2, Mat4, C64};
use std::fmt;
use std::ops::Deref;

/// Inline rotation-parameter list of a gate (at most three angles).
///
/// Dereferences to `&[f64]`, so every slice API (`is_empty`, `iter`,
/// indexing) works unchanged; it also iterates by value. Unlike the
/// `Vec<f64>` it replaced, building one never touches the heap — which
/// matters because the matcher compares parameters on every probe of
/// the inner loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    vals: [f64; 3],
    len: u8,
}

impl Params {
    const EMPTY: Params = Params {
        vals: [0.0; 3],
        len: 0,
    };

    const fn one(a: f64) -> Params {
        Params {
            vals: [a, 0.0, 0.0],
            len: 1,
        }
    }

    const fn two(a: f64, b: f64) -> Params {
        Params {
            vals: [a, b, 0.0],
            len: 2,
        }
    }

    const fn three(a: f64, b: f64, c: f64) -> Params {
        Params {
            vals: [a, b, c],
            len: 3,
        }
    }
}

impl Deref for Params {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.vals[..self.len as usize]
    }
}

impl IntoIterator for Params {
    type Item = f64;
    type IntoIter = std::iter::Take<std::array::IntoIter<f64, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vals.into_iter().take(self.len as usize)
    }
}

/// A quantum gate, possibly parameterized by rotation angles (radians).
///
/// Angle parameters are plain `f64`; symbolic angles exist only inside the
/// rewrite-rule engine (`qrewrite`), keeping the IR concrete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// X rotation.
    Rx(f64),
    /// Y rotation.
    Ry(f64),
    /// Z rotation.
    Rz(f64),
    /// Phase gate `diag(1, e^{iλ})` (a.k.a. `U1`).
    P(f64),
    /// OpenQASM `U2(φ, λ)`.
    U2(f64, f64),
    /// OpenQASM `U3(θ, φ, λ)`.
    U3(f64, f64, f64),
    /// Controlled-X (control is the first operand).
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled phase `diag(1,1,1,e^{iλ})`.
    Cp(f64),
    /// Controlled `Rz`.
    Crz(f64),
    /// SWAP.
    Swap,
    /// XX rotation (Mølmer–Sørensen-style interaction).
    Rxx(f64),
    /// YY rotation.
    Ryy(f64),
    /// ZZ rotation.
    Rzz(f64),
    /// Toffoli (controls are the first two operands).
    Ccx,
    /// Doubly-controlled Z.
    Ccz,
}

impl Gate {
    /// Number of qubits the gate acts on (1, 2, or 3).
    pub fn arity(self) -> usize {
        use Gate::*;
        match self {
            X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | Rx(_) | Ry(_) | Rz(_) | P(_)
            | U2(..) | U3(..) => 1,
            Cx | Cz | Cp(_) | Crz(_) | Swap | Rxx(_) | Ryy(_) | Rzz(_) => 2,
            Ccx | Ccz => 3,
        }
    }

    /// Lower-case OpenQASM-style mnemonic.
    pub fn name(self) -> &'static str {
        self.kind().name()
    }

    /// Rotation parameters of the gate, in declaration order.
    pub fn params(self) -> Params {
        use Gate::*;
        match self {
            Rx(a) | Ry(a) | Rz(a) | P(a) | Cp(a) | Crz(a) | Rxx(a) | Ryy(a) | Rzz(a) => {
                Params::one(a)
            }
            U2(a, b) => Params::two(a, b),
            U3(a, b, c) => Params::three(a, b, c),
            _ => Params::EMPTY,
        }
    }

    /// True if the gate carries at least one continuous parameter.
    pub fn is_parameterized(self) -> bool {
        !self.params().is_empty()
    }

    /// The unitary matrix of the gate (`2^arity × 2^arity`).
    pub fn matrix(self) -> Mat {
        use Gate::*;
        match self {
            X => gm::x(),
            Y => gm::y(),
            Z => gm::z(),
            H => gm::h(),
            S => gm::s(),
            Sdg => gm::sdg(),
            T => gm::t(),
            Tdg => gm::tdg(),
            Sx => gm::sx(),
            Sxdg => gm::sxdg(),
            Rx(a) => gm::rx(a),
            Ry(a) => gm::ry(a),
            Rz(a) => gm::rz(a),
            P(a) => gm::p(a),
            U2(a, b) => gm::u2(a, b),
            U3(a, b, c) => gm::u3(a, b, c),
            Cx => gm::cx(),
            Cz => gm::cz(),
            Cp(a) => gm::cp(a),
            Crz(a) => gm::crz(a),
            Swap => gm::swap(),
            Rxx(a) => gm::rxx(a),
            Ryy(a) => gm::ryy(a),
            Rzz(a) => gm::rzz(a),
            Ccx => gm::ccx(),
            Ccz => gm::ccz(),
        }
    }

    /// The unitary of a one-qubit gate as a stack-allocated [`Mat2`]
    /// (bit-identical entries to [`matrix`](Self::matrix)), or `None`
    /// for wider gates.
    pub fn unitary2(self) -> Option<Mat2> {
        use Gate::*;
        Some(match self {
            X => gm::small::x(),
            Y => gm::small::y(),
            Z => gm::small::z(),
            H => gm::small::h(),
            S => gm::small::s(),
            Sdg => gm::small::sdg(),
            T => gm::small::t(),
            Tdg => gm::small::tdg(),
            Sx => gm::small::sx(),
            Sxdg => gm::small::sxdg(),
            Rx(a) => gm::small::rx(a),
            Ry(a) => gm::small::ry(a),
            Rz(a) => gm::small::rz(a),
            P(a) => gm::small::p(a),
            U2(a, b) => gm::small::u2(a, b),
            U3(a, b, c) => gm::small::u3(a, b, c),
            _ => return None,
        })
    }

    /// The unitary of a two-qubit gate as a stack-allocated [`Mat4`]
    /// (bit-identical entries to [`matrix`](Self::matrix)), or `None`
    /// for other arities.
    pub fn unitary4(self) -> Option<Mat4> {
        use Gate::*;
        Some(match self {
            Cx => gm::small::cx(),
            Cz => gm::small::cz(),
            Cp(a) => gm::small::cp(a),
            Crz(a) => gm::small::crz(a),
            Swap => gm::small::swap(),
            Rxx(a) => gm::small::rxx(a),
            Ryy(a) => gm::small::ryy(a),
            Rzz(a) => gm::small::rzz(a),
            _ => return None,
        })
    }

    /// Writes the row-major unitary into the head of `buf` without
    /// allocating, returning the matrix dimension (2, 4, or 8). The
    /// entries are bit-identical to [`matrix`](Self::matrix).
    pub fn unitary_into(self, buf: &mut [C64; 64]) -> usize {
        if let Some(m) = self.unitary2() {
            buf[..4].copy_from_slice(m.as_slice());
            return 2;
        }
        if let Some(m) = self.unitary4() {
            buf[..16].copy_from_slice(m.as_slice());
            return 4;
        }
        // The 8×8 gates (CCX / CCZ): identity with a patched corner.
        for (i, z) in buf.iter_mut().enumerate() {
            *z = if i % 9 == 0 { C64::ONE } else { C64::ZERO };
        }
        match self {
            Gate::Ccx => {
                buf[6 * 8 + 6] = C64::ZERO;
                buf[7 * 8 + 7] = C64::ZERO;
                buf[6 * 8 + 7] = C64::ONE;
                buf[7 * 8 + 6] = C64::ONE;
            }
            Gate::Ccz => buf[7 * 8 + 7] = -C64::ONE,
            _ => unreachable!("every gate is 1, 2, or 3 qubits"),
        }
        8
    }

    /// The inverse gate (`g · g.adjoint() = I`), staying within the alphabet.
    pub fn adjoint(self) -> Gate {
        use Gate::*;
        match self {
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            Rx(a) => Rx(-a),
            Ry(a) => Ry(-a),
            Rz(a) => Rz(-a),
            P(a) => P(-a),
            U2(a, b) => U3(-std::f64::consts::FRAC_PI_2, -b, -a),
            U3(a, b, c) => U3(-a, -c, -b),
            Cp(a) => Cp(-a),
            Crz(a) => Crz(-a),
            Rxx(a) => Rxx(-a),
            Ryy(a) => Ryy(-a),
            Rzz(a) => Rzz(-a),
            g => g, // self-inverse: X, Y, Z, H, CX, CZ, SWAP, CCX, CCZ
        }
    }

    /// True when permuting the operands leaves the unitary unchanged
    /// (e.g. `CZ`, `SWAP`, `Rzz`).
    pub fn is_symmetric(self) -> bool {
        use Gate::*;
        matches!(self, Cz | Cp(_) | Swap | Rxx(_) | Ryy(_) | Rzz(_) | Ccz)
    }

    /// True when the unitary is diagonal in the computational basis.
    pub fn is_diagonal(self) -> bool {
        use Gate::*;
        matches!(
            self,
            Z | S | Sdg | T | Tdg | Rz(_) | P(_) | Cz | Cp(_) | Crz(_) | Rzz(_) | Ccz
        )
    }

    /// Canonicalizes rotation parameters into `(-π, π]`.
    ///
    /// The result is equivalent to the original modulo global phase (for
    /// the `Rz/Rx/Ry/Rxx/...` families a `2π` shift flips the sign of the
    /// matrix, which is a pure global phase).
    pub fn normalized(self) -> Gate {
        use Gate::*;
        match self {
            Rx(a) => Rx(normalize(a)),
            Ry(a) => Ry(normalize(a)),
            Rz(a) => Rz(normalize(a)),
            P(a) => P(normalize(a)),
            Cp(a) => Cp(normalize(a)),
            Crz(a) => Crz(normalize(a)),
            Rxx(a) => Rxx(normalize(a)),
            Ryy(a) => Ryy(normalize(a)),
            Rzz(a) => Rzz(normalize(a)),
            U2(a, b) => U2(normalize(a), normalize(b)),
            U3(a, b, c) => U3(normalize(a), normalize(b), normalize(c)),
            g => g,
        }
    }

    /// Reconstructs a gate from its [`name`](Self::name) mnemonic and
    /// parameter list — the inverse of `(name(), params())`, used by
    /// serialized-circuit codecs (see [`crate::delta`]). Accepts the
    /// canonical mnemonics plus the OpenQASM aliases `u1`/`cu1`/`u`.
    /// Returns `None` for unknown names or a wrong parameter count.
    pub fn from_name(name: &str, params: &[f64]) -> Option<Gate> {
        use Gate::*;
        let fixed = |g: Gate| if params.is_empty() { Some(g) } else { None };
        let one = |f: fn(f64) -> Gate| match params {
            [a] => Some(f(*a)),
            _ => None,
        };
        match name {
            "x" => fixed(X),
            "y" => fixed(Y),
            "z" => fixed(Z),
            "h" => fixed(H),
            "s" => fixed(S),
            "sdg" => fixed(Sdg),
            "t" => fixed(T),
            "tdg" => fixed(Tdg),
            "sx" => fixed(Sx),
            "sxdg" => fixed(Sxdg),
            "rx" => one(Rx),
            "ry" => one(Ry),
            "rz" => one(Rz),
            "p" | "u1" => one(P),
            "u2" => match params {
                [a, b] => Some(U2(*a, *b)),
                _ => None,
            },
            "u3" | "u" => match params {
                [a, b, c] => Some(U3(*a, *b, *c)),
                _ => None,
            },
            "cx" => fixed(Cx),
            "cz" => fixed(Cz),
            "cp" | "cu1" => one(Cp),
            "crz" => one(Crz),
            "swap" => fixed(Swap),
            "rxx" => one(Rxx),
            "ryy" => one(Ryy),
            "rzz" => one(Rzz),
            "ccx" => fixed(Ccx),
            "ccz" => fixed(Ccz),
            _ => None,
        }
    }

    /// True when the gate is the identity up to global phase within `tol`
    /// (e.g. `Rz(0)`, `P(2π)`, `U3(0,λ,−λ)`).
    pub fn is_identity(self, tol: f64) -> bool {
        use Gate::*;
        match self {
            Rx(a) | Ry(a) | Rz(a) | Rxx(a) | Ryy(a) | Rzz(a) => {
                qmath::angle::approx_eq_mod_2pi(a, 0.0, tol)
                    || qmath::angle::approx_eq_mod_2pi(a, 2.0 * std::f64::consts::PI, tol)
            }
            P(a) | Cp(a) | Crz(a) => qmath::angle::approx_eq_mod_2pi(a, 0.0, tol),
            U3(a, b, c) => {
                qmath::angle::approx_eq_mod_2pi(a, 0.0, tol)
                    && qmath::angle::approx_eq_mod_2pi(b + c, 0.0, tol)
            }
            _ => false,
        }
    }
}

/// A gate discriminant without parameters, used by pattern matching and
/// enumeration (the rewrite engine and rule synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum GateKind {
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    Sx,
    Sxdg,
    Rx,
    Ry,
    Rz,
    P,
    U2,
    U3,
    Cx,
    Cz,
    Cp,
    Crz,
    Swap,
    Rxx,
    Ryy,
    Rzz,
    Ccx,
    Ccz,
}

impl Gate {
    /// The parameter-less discriminant of this gate.
    pub fn kind(self) -> GateKind {
        use Gate::*;
        match self {
            X => GateKind::X,
            Y => GateKind::Y,
            Z => GateKind::Z,
            H => GateKind::H,
            S => GateKind::S,
            Sdg => GateKind::Sdg,
            T => GateKind::T,
            Tdg => GateKind::Tdg,
            Sx => GateKind::Sx,
            Sxdg => GateKind::Sxdg,
            Rx(_) => GateKind::Rx,
            Ry(_) => GateKind::Ry,
            Rz(_) => GateKind::Rz,
            P(_) => GateKind::P,
            U2(..) => GateKind::U2,
            U3(..) => GateKind::U3,
            Cx => GateKind::Cx,
            Cz => GateKind::Cz,
            Cp(_) => GateKind::Cp,
            Crz(_) => GateKind::Crz,
            Swap => GateKind::Swap,
            Rxx(_) => GateKind::Rxx,
            Ryy(_) => GateKind::Ryy,
            Rzz(_) => GateKind::Rzz,
            Ccx => GateKind::Ccx,
            Ccz => GateKind::Ccz,
        }
    }
}

// Compile-time guard: adding a GateKind variant must bump COUNT, or every
// dense per-kind table (e.g. `GateCounts`) would index out of bounds.
const _: () = assert!(GateKind::Ccz as usize + 1 == GateKind::COUNT);

impl GateKind {
    /// Number of distinct gate kinds (for dense per-kind tables).
    pub const COUNT: usize = 26;

    /// Lower-case OpenQASM-style mnemonic of gates of this kind.
    pub fn name(self) -> &'static str {
        use GateKind::*;
        match self {
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx => "rx",
            Ry => "ry",
            Rz => "rz",
            P => "p",
            U2 => "u2",
            U3 => "u3",
            Cx => "cx",
            Cz => "cz",
            Cp => "cp",
            Crz => "crz",
            Swap => "swap",
            Rxx => "rxx",
            Ryy => "ryy",
            Rzz => "rzz",
            Ccx => "ccx",
            Ccz => "ccz",
        }
    }

    /// Number of qubits gates of this kind act on.
    pub fn arity(self) -> usize {
        use GateKind::*;
        match self {
            X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | Rx | Ry | Rz | P | U2 | U3 => 1,
            Cx | Cz | Cp | Crz | Swap | Rxx | Ryy | Rzz => 2,
            Ccx | Ccz => 3,
        }
    }

    /// Number of angle parameters this kind carries.
    pub fn num_params(self) -> usize {
        use GateKind::*;
        match self {
            Rx | Ry | Rz | P | Cp | Crz | Rxx | Ryy | Rzz => 1,
            U2 => 2,
            U3 => 3,
            _ => 0,
        }
    }

    /// Builds the concrete gate from parameter values.
    ///
    /// Returns `None` if `params.len()` differs from [`Self::num_params`].
    pub fn with_params(self, params: &[f64]) -> Option<Gate> {
        use GateKind::*;
        if params.len() != self.num_params() {
            return None;
        }
        Some(match self {
            X => Gate::X,
            Y => Gate::Y,
            Z => Gate::Z,
            H => Gate::H,
            S => Gate::S,
            Sdg => Gate::Sdg,
            T => Gate::T,
            Tdg => Gate::Tdg,
            Sx => Gate::Sx,
            Sxdg => Gate::Sxdg,
            Rx => Gate::Rx(params[0]),
            Ry => Gate::Ry(params[0]),
            Rz => Gate::Rz(params[0]),
            P => Gate::P(params[0]),
            U2 => Gate::U2(params[0], params[1]),
            U3 => Gate::U3(params[0], params[1], params[2]),
            Cx => Gate::Cx,
            Cz => Gate::Cz,
            Cp => Gate::Cp(params[0]),
            Crz => Gate::Crz(params[0]),
            Swap => Gate::Swap,
            Rxx => Gate::Rxx(params[0]),
            Ryy => Gate::Ryy(params[0]),
            Rzz => Gate::Rzz(params[0]),
            Ccx => Gate::Ccx,
            Ccz => Gate::Ccz,
        })
    }

    /// True when operand order does not matter for this kind.
    pub fn is_symmetric(self) -> bool {
        use GateKind::*;
        matches!(self, Cz | Cp | Swap | Rxx | Ryy | Rzz | Ccz)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.params();
        if ps.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = ps.iter().map(|p| format!("{p:.9}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::hs_distance;
    use std::f64::consts::PI;

    const ALL: &[Gate] = &[
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Rx(0.7),
        Gate::Ry(-0.4),
        Gate::Rz(1.9),
        Gate::P(0.3),
        Gate::U2(0.1, 0.2),
        Gate::U3(0.5, 1.0, -1.5),
        Gate::Cx,
        Gate::Cz,
        Gate::Cp(0.8),
        Gate::Crz(-0.6),
        Gate::Swap,
        Gate::Rxx(0.5),
        Gate::Ryy(0.9),
        Gate::Rzz(-1.1),
        Gate::Ccx,
        Gate::Ccz,
    ];

    #[test]
    fn kind_names_read_back_as_the_gate() {
        for &g in ALL {
            let params: Vec<f64> = g.params().into_iter().collect();
            assert_eq!(Gate::from_name(g.kind().name(), &params), Some(g));
        }
    }

    #[test]
    fn adjoint_inverts() {
        for &g in ALL {
            let m = g.matrix();
            let inv = g.adjoint().matrix();
            let prod = m.matmul(&inv);
            assert!(
                hs_distance(&prod, &Mat::identity(prod.rows())) < 1e-7,
                "adjoint failed for {g}"
            );
        }
    }

    #[test]
    fn arity_matches_matrix_size() {
        for &g in ALL {
            assert_eq!(g.matrix().rows(), 1 << g.arity(), "gate {g}");
        }
    }

    #[test]
    fn symmetric_gates_really_symmetric() {
        use qmath::embed;
        for &g in ALL {
            if g.arity() != 2 {
                continue;
            }
            let m = g.matrix();
            let swapped = embed(&m, 2, &[1, 0]);
            let symmetric = m.approx_eq(&swapped, 1e-12);
            assert_eq!(symmetric, g.is_symmetric(), "gate {g}");
        }
    }

    #[test]
    fn diagonal_gates_really_diagonal() {
        for &g in ALL {
            let m = g.matrix();
            let mut diag = true;
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    if i != j && m[(i, j)].abs() > 1e-15 {
                        diag = false;
                    }
                }
            }
            assert_eq!(diag, g.is_diagonal(), "gate {g}");
        }
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::Rz(0.0).is_identity(1e-9));
        assert!(Gate::Rz(2.0 * PI).is_identity(1e-9));
        assert!(Gate::P(0.0).is_identity(1e-9));
        assert!(Gate::U3(0.0, 0.7, -0.7).is_identity(1e-9));
        assert!(!Gate::Rz(0.1).is_identity(1e-9));
        assert!(!Gate::X.is_identity(1e-9));
        // P(2π) really is the identity matrix (no phase).
        assert!(Gate::P(2.0 * PI).is_identity(1e-6));
    }

    #[test]
    fn normalized_preserves_semantics() {
        for &g in ALL {
            let n = g.normalized();
            assert!(
                hs_distance(&g.matrix(), &n.matrix()) < 1e-7,
                "normalization changed {g}"
            );
        }
        let g = Gate::Rz(7.0 * PI);
        assert!(hs_distance(&g.matrix(), &g.normalized().matrix()) < 1e-7);
    }

    #[test]
    fn stack_unitaries_bit_identical_to_matrix() {
        for &g in ALL {
            let mut buf = [qmath::C64::ZERO; 64];
            let dim = g.unitary_into(&mut buf);
            let m = g.matrix();
            assert_eq!(dim, m.rows(), "dimension for {g}");
            assert_eq!(&buf[..dim * dim], m.as_slice(), "entries for {g}");
            match g.arity() {
                1 => assert_eq!(g.unitary2().unwrap().as_slice(), m.as_slice()),
                2 => assert_eq!(g.unitary4().unwrap().as_slice(), m.as_slice()),
                _ => assert!(g.unitary2().is_none() && g.unitary4().is_none()),
            }
        }
    }

    #[test]
    fn kind_tables_match_gate_semantics() {
        // The direct `GateKind` tables must stay in lockstep with the
        // per-`Gate` implementations they replaced.
        for &g in ALL {
            assert_eq!(g.kind().arity(), g.arity(), "arity table for {g}");
            assert_eq!(
                g.kind().is_symmetric(),
                g.is_symmetric(),
                "symmetry table for {g}"
            );
        }
    }

    #[test]
    fn params_round_trip_and_iterate() {
        for &g in ALL {
            let ps = g.params();
            assert_eq!(ps.len(), g.kind().num_params(), "param count for {g}");
            let by_value: Vec<f64> = ps.into_iter().collect();
            let by_ref: Vec<f64> = ps.iter().copied().collect();
            assert_eq!(by_value, by_ref, "iteration mismatch for {g}");
            assert_eq!(g.kind().with_params(&ps), Some(g), "round trip for {g}");
        }
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(format!("{}", Gate::X), "x");
        assert!(format!("{}", Gate::Rz(0.25)).starts_with("rz(0.25"));
    }
}
