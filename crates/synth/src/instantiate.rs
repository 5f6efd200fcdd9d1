//! Template circuits and numerical parameter instantiation.
//!
//! This is the numerical core of continuous-gate-set synthesis, mirroring
//! BQSKit's QSearch instantiation step: a *template* is a fixed circuit
//! structure (CX placements interleaved with parameterized `U3` gates);
//! *instantiation* finds angles minimizing the distance to a target
//! unitary with Adam over analytic gradients.
//!
//! # The kernel
//!
//! Every evaluation — the template unitary, the prefix and suffix
//! products behind the analytic gradient, each partial derivative, the
//! Levenberg–Marquardt Jacobian and every distance check — runs on a few
//! kernels over row-major `D×D` arrays (`D` = 2, 4 or 8, fixed at compile
//! time): a `U3`, a `U3` partial or a CX applied from the left or the
//! right in O(D²), plus one dense product for `(suffix·∂U3)·prefix`. One
//! workspace per [`instantiate`] call holds every buffer, so Adam steps,
//! restarts and polishes allocate nothing.
//!
//! The kernels are bit-identical to the dense formulation (embed each op
//! into a 2ⁿ×2ⁿ [`Mat`] with [`qmath::embed`] and multiply with
//! [`Mat::matmul`]): every output entry sums the same products, in the
//! same order, from the same `+0`, skipping the same zero left operands.
//! The only products a kernel leaves out are the dense product's `x·0`
//! terms, and under round-to-nearest a sum that starts at `+0` never
//! becomes `−0`, so adding `±0` cannot change it. Instantiated
//! parameters, measured distances and so every search trajectory are
//! the same as with the dense formulation, which the `oracle` tests hold
//! to `to_bits` equality.

use qmath::dist::accurate_hs_distance_entries;
use qmath::{c64, Mat, C64};
use rand::Rng;

/// One operation in a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TOp {
    /// A parameterized `U3` gate; its three angles live at
    /// `params[pidx..pidx+3]`.
    U3 {
        /// Target qubit.
        qubit: usize,
        /// Offset of (θ, φ, λ) in the parameter vector.
        pidx: usize,
    },
    /// A fixed CX gate.
    Cx {
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
}

/// A parameterized circuit structure.
#[derive(Debug, Clone)]
pub struct Template {
    n_qubits: usize,
    ops: Vec<TOp>,
    n_params: usize,
}

impl Template {
    /// Builds the standard QSearch-style template: a `U3` on every qubit,
    /// then for each CX placement a CX followed by `U3`s on both involved
    /// qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`MAX_RESYNTH_QUBITS`](crate::MAX_RESYNTH_QUBITS)
    /// or a CX placement is out of range or repeats a qubit.
    pub fn with_cx_sequence(n_qubits: usize, cx: &[(usize, usize)]) -> Self {
        assert!(
            n_qubits <= crate::MAX_RESYNTH_QUBITS,
            "templates act on at most {} qubits",
            crate::MAX_RESYNTH_QUBITS
        );
        let mut ops = Vec::new();
        let mut pidx = 0;
        for q in 0..n_qubits {
            ops.push(TOp::U3 { qubit: q, pidx });
            pidx += 3;
        }
        for &(c, t) in cx {
            assert!(c < n_qubits && t < n_qubits && c != t, "bad CX placement");
            ops.push(TOp::Cx { c, t });
            for q in [c, t] {
                ops.push(TOp::U3 { qubit: q, pidx });
                pidx += 3;
            }
        }
        Template {
            n_qubits,
            ops,
            n_params: pidx,
        }
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of CX gates in the structure.
    pub fn cx_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, TOp::Cx { .. }))
            .count()
    }

    /// The operations.
    pub fn ops(&self) -> &[TOp] {
        &self.ops
    }

    /// Evaluates the unitary at the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_params`.
    pub fn unitary(&self, params: &[f64]) -> Mat {
        fn eval<const D: usize>(ops: &[TOp], params: &[f64]) -> Mat {
            let mut unitary = UnitaryBuf::<D>::new();
            let v = unitary.eval(ops, params).as_flattened().to_vec();
            Mat::from_vec(D, D, v)
        }
        assert_eq!(params.len(), self.n_params, "parameter count");
        match self.n_qubits {
            0 => eval::<1>(&self.ops, params),
            1 => eval::<2>(&self.ops, params),
            2 => eval::<4>(&self.ops, params),
            _ => eval::<8>(&self.ops, params),
        }
    }

    /// Converts instantiated parameters into a `qcir` circuit of
    /// `U3` + `CX` gates.
    pub fn to_circuit(&self, params: &[f64]) -> qcir::Circuit {
        let mut c = qcir::Circuit::new(self.n_qubits);
        for op in &self.ops {
            match *op {
                TOp::U3 { qubit, pidx } => c.push(
                    qcir::Gate::U3(params[pidx], params[pidx + 1], params[pidx + 2]),
                    &[qubit as qcir::Qubit],
                ),
                TOp::Cx { c: cc, t } => {
                    c.push(qcir::Gate::Cx, &[cc as qcir::Qubit, t as qcir::Qubit])
                }
            }
        }
        c
    }
}

/// A row-major `D×D` complex matrix: the kernels' operand.
type Sq<const D: usize> = [[C64; D]; D];

fn identity<const D: usize>() -> Sq<D> {
    let mut m = [[C64::ZERO; D]; D];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = C64::ONE;
    }
    m
}

/// The state-index bit of `qubit` in dimension `D` (qubit 0 is the most
/// significant bit, as in [`qmath::embed`]).
fn bit<const D: usize>(qubit: usize) -> usize {
    D.trailing_zeros() as usize - 1 - qubit
}

/// `Mat::matmul`'s zero-skip test.
fn is_zero(z: C64) -> bool {
    z.re == 0.0 && z.im == 0.0
}

/// The CX permutation: flips bit `t` of `i` when bit `c` is set.
fn cx_image(i: usize, c: usize, t: usize) -> usize {
    i ^ ((i >> c & 1) << t)
}

/// `dst = G·src` for the row-major 2×2 `g` on state-index bit `b`. Row
/// `i` of the embedded gate holds `g`'s row `r` (the bit of `i`) at the
/// two columns that differ from `i` only in bit `b`, lower one first.
fn left_1q<const D: usize>(g: &[C64; 4], b: usize, src: &Sq<D>, dst: &mut Sq<D>) {
    for (i, row) in dst.iter_mut().enumerate() {
        let r = 2 * (i >> b & 1);
        *row = [C64::ZERO; D];
        for (gk, k) in [(g[r], i & !(1 << b)), (g[r + 1], i | 1 << b)] {
            if !is_zero(gk) {
                for (o, s) in row.iter_mut().zip(&src[k]) {
                    *o += gk * *s;
                }
            }
        }
    }
}

/// `dst = src·G` for the row-major 2×2 `g` on state-index bit `b`.
/// Column `j` of the embedded gate holds `g`'s column (the bit of `j`)
/// at the two rows that differ from `j` only in bit `b`, lower one first.
fn right_1q<const D: usize>(src: &Sq<D>, g: &[C64; 4], b: usize, dst: &mut Sq<D>) {
    for (srow, row) in src.iter().zip(dst.iter_mut()) {
        for (j, o) in row.iter_mut().enumerate() {
            let c = j >> b & 1;
            let mut acc = C64::ZERO;
            for (s, gk) in [(srow[j & !(1 << b)], g[c]), (srow[j | 1 << b], g[2 + c])] {
                if !is_zero(s) {
                    acc += s * gk;
                }
            }
            *o = acc;
        }
    }
}

/// `dst = CX·src`, control on state-index bit `c`, target on bit `t`.
fn left_cx<const D: usize>(c: usize, t: usize, src: &Sq<D>, dst: &mut Sq<D>) {
    for (i, row) in dst.iter_mut().enumerate() {
        for (o, s) in row.iter_mut().zip(&src[cx_image(i, c, t)]) {
            *o = C64::ZERO + C64::ONE * *s;
        }
    }
}

/// `dst = src·CX`, control on state-index bit `c`, target on bit `t`.
fn right_cx<const D: usize>(src: &Sq<D>, c: usize, t: usize, dst: &mut Sq<D>) {
    for (srow, row) in src.iter().zip(dst.iter_mut()) {
        for (j, o) in row.iter_mut().enumerate() {
            let s = srow[cx_image(j, c, t)];
            *o = if is_zero(s) {
                C64::ZERO
            } else {
                C64::ZERO + s * C64::ONE
            };
        }
    }
}

/// `out = a·b` with [`Mat::matmul`]'s loop order and zero-skip.
fn matmul<const D: usize>(a: &Sq<D>, b: &Sq<D>, out: &mut Sq<D>) {
    for (arow, orow) in a.iter().zip(out.iter_mut()) {
        *orow = [C64::ZERO; D];
        for (&aik, brow) in arow.iter().zip(b) {
            if !is_zero(aik) {
                for (o, x) in orow.iter_mut().zip(brow) {
                    *o += aik * *x;
                }
            }
        }
    }
}

/// `Tr(U†M) = Σᵢⱼ conj(Uᵢⱼ)·Mᵢⱼ` in row-major order.
fn overlap<const D: usize>(target: &[C64], m: &Sq<D>) -> C64 {
    let mut w = C64::ZERO;
    for (a, b) in target.iter().zip(m.as_flattened()) {
        w += a.conj() * *b;
    }
    w
}

fn u3(params: &[f64], pidx: usize) -> [C64; 4] {
    qmath::gates::small::u3(params[pidx], params[pidx + 1], params[pidx + 2]).into_array()
}

/// Partial derivatives of the `U3` matrix with respect to (θ, φ, λ),
/// row-major.
fn u3_partials(params: &[f64], pidx: usize) -> [[C64; 4]; 3] {
    let (theta, phi, lambda) = (params[pidx], params[pidx + 1], params[pidx + 2]);
    let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    let (ep, el, epl) = (C64::cis(phi), C64::cis(lambda), C64::cis(phi + lambda));
    let i = C64::I;
    [
        [
            c64(-st / 2.0, 0.0),
            el.scale(-ct / 2.0),
            ep.scale(ct / 2.0),
            epl.scale(-st / 2.0),
        ],
        [C64::ZERO, C64::ZERO, i * ep.scale(st), i * epl.scale(ct)],
        [C64::ZERO, i * el.scale(-st), C64::ZERO, i * epl.scale(ct)],
    ]
}

/// `dst = M·src` for one template op at `params`.
fn apply_left<const D: usize>(op: TOp, params: &[f64], src: &Sq<D>, dst: &mut Sq<D>) {
    match op {
        TOp::U3 { qubit, pidx } => left_1q(&u3(params, pidx), bit::<D>(qubit), src, dst),
        TOp::Cx { c, t } => left_cx(bit::<D>(c), bit::<D>(t), src, dst),
    }
}

/// `dst = src·M` for one template op at `params`.
fn apply_right<const D: usize>(src: &Sq<D>, op: TOp, params: &[f64], dst: &mut Sq<D>) {
    match op {
        TOp::U3 { qubit, pidx } => right_1q(src, &u3(params, pidx), bit::<D>(qubit), dst),
        TOp::Cx { c, t } => right_cx(src, bit::<D>(c), bit::<D>(t), dst),
    }
}

/// The unitary double buffer: `V(θ)` evaluated op by op.
struct UnitaryBuf<const D: usize>([Sq<D>; 2]);

impl<const D: usize> UnitaryBuf<D> {
    fn new() -> Self {
        UnitaryBuf([[[C64::ZERO; D]; D]; 2])
    }

    /// `V(params) = M_{g-1}…M_0`, left-applied one op at a time.
    fn eval(&mut self, ops: &[TOp], params: &[f64]) -> &Sq<D> {
        let [a, b] = &mut self.0;
        let (mut cur, mut next) = (a, b);
        *cur = identity();
        for &op in ops {
            apply_left(op, params, cur, next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Accurate Hilbert–Schmidt distance from `target` to `V(params)`.
    fn distance(&mut self, ops: &[TOp], target: &[C64], params: &[f64]) -> f64 {
        accurate_hs_distance_entries(target, self.eval(ops, params).as_flattened(), D)
    }
}

/// The prefix and suffix products of a template and the buffers one
/// partial derivative is formed in.
struct Stacks<const D: usize> {
    /// `pre[i] = M_{i-1}…M_0` (`pre[0] = I`, so `pre[g] = V`).
    pre: Vec<Sq<D>>,
    /// `suf[i] = M_{g-1}…M_{i+1}` (`suf[g-1] = I`).
    suf: Vec<Sq<D>>,
    /// `suf[i]·∂U3` of the partial being formed.
    half: Sq<D>,
    /// `∂V/∂θ` of the partial being formed.
    dv: Sq<D>,
}

impl<const D: usize> Stacks<D> {
    fn new(ops: usize) -> Self {
        Stacks {
            pre: vec![[[C64::ZERO; D]; D]; ops + 1],
            suf: vec![[[C64::ZERO; D]; D]; ops],
            half: [[C64::ZERO; D]; D],
            dv: [[C64::ZERO; D]; D],
        }
    }

    /// Fills both stacks at `params`.
    fn build(&mut self, ops: &[TOp], params: &[f64]) {
        let g = ops.len();
        self.pre[0] = identity();
        for (i, &op) in ops.iter().enumerate() {
            let (done, rest) = self.pre.split_at_mut(i + 1);
            apply_left(op, params, &done[i], &mut rest[0]);
        }
        self.suf[g - 1] = identity();
        for i in (0..g - 1).rev() {
            let (head, tail) = self.suf.split_at_mut(i + 1);
            apply_right(&tail[0], ops[i + 1], params, &mut head[i]);
        }
    }

    /// `V` at the parameters of the last [`build`](Self::build).
    fn value(&self) -> &Sq<D> {
        self.pre.last().expect("non-empty prefix")
    }

    /// Forms `∂V/∂θ_k = suf[i]·∂U3·pre[i]` for every parameter, in
    /// order, and hands each to `fold` as soon as it is formed. Needs a
    /// [`build`](Self::build) at the same `params` first.
    fn partials(&mut self, ops: &[TOp], params: &[f64], mut fold: impl FnMut(usize, &Sq<D>)) {
        for (i, &op) in ops.iter().enumerate() {
            if let TOp::U3 { qubit, pidx } = op {
                for (k, dg) in u3_partials(params, pidx).iter().enumerate() {
                    right_1q(&self.suf[i], dg, bit::<D>(qubit), &mut self.half);
                    matmul(&self.half, &self.pre[i], &mut self.dv);
                    fold(pidx + k, &self.dv);
                }
            }
        }
    }
}

/// `out[l] = Σᵢ x[i]·ys[l][i]` for several `ys` in one pass over `x`.
/// Each sum runs in index order from `Iterator::sum`'s starting value,
/// so each equals `x.iter().zip(y).map(|(a, b)| a * b).sum()` bit for
/// bit; running several at once only overlaps their latency chains.
fn dots<const L: usize>(x: &[f64], ys: [&[f64]; L]) -> [f64; L] {
    let start: f64 = std::iter::empty::<f64>().sum();
    let ys = ys.map(|y| &y[..x.len()]);
    let mut acc = [start; L];
    for (i, &a) in x.iter().enumerate() {
        for (s, y) in acc.iter_mut().zip(&ys) {
            *s += a * y[i];
        }
    }
    acc
}

/// Gaussian elimination with partial pivoting, in place: `a` (`n×n`) is
/// destroyed and `x` turns from the right-hand side into the solution.
/// Returns `false` on a (numerically) singular pivot.
fn solve_dense(a: &mut [f64], x: &mut [f64], n: usize) -> bool {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for row in col + 1..n {
            if a[row * n + col].abs() > a[piv * n + col].abs() {
                piv = row;
            }
        }
        if a[piv * n + col].abs() < 1e-300 {
            return false;
        }
        if piv != col {
            for k in 0..n {
                a.swap(col * n + k, piv * n + k);
            }
            x.swap(col, piv);
        }
        let d = a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            x[row] -= f * x[col];
        }
    }
    for col in (0..n).rev() {
        let mut acc = x[col];
        for k in col + 1..n {
            acc -= a[col * n + k] * x[k];
        }
        x[col] = acc / a[col * n + col];
    }
    true
}

/// Every buffer one [`instantiate`] call evaluates into, sized once for
/// its template and reused by all Adam steps, restarts and polishes.
struct Workspace<'a, const D: usize> {
    ops: &'a [TOp],
    target: &'a [C64],
    stacks: Stacks<D>,
    unitary: UnitaryBuf<D>,
    /// Adam's gradient.
    grad: Vec<f64>,
    /// Levenberg–Marquardt slots of `2D²` reals each: one Jacobian
    /// column per parameter, the global-phase column, then the residual.
    cols: Vec<f64>,
    /// `JᵀJ`, row-major.
    jtj: Vec<f64>,
    /// `Jᵀr`.
    jtr: Vec<f64>,
    /// The damped system, eliminated in place.
    sys: Vec<f64>,
    /// Right-hand side, then the solved step.
    step: Vec<f64>,
    /// Candidate parameters of one damped step.
    cand: Vec<f64>,
}

impl<'a, const D: usize> Workspace<'a, D> {
    /// Real rows of one Levenberg–Marquardt slot.
    const ROWS: usize = 2 * D * D;

    fn new(template: &'a Template, target: &'a Mat) -> Self {
        let np = template.n_params();
        let nv = np + 1;
        Workspace {
            ops: template.ops(),
            target: target.as_slice(),
            stacks: Stacks::new(template.ops().len()),
            unitary: UnitaryBuf::new(),
            grad: vec![0.0; np],
            cols: vec![0.0; (nv + 1) * Self::ROWS],
            jtj: vec![0.0; nv * nv],
            jtr: vec![0.0; nv],
            sys: vec![0.0; nv * nv],
            step: vec![0.0; nv],
            cand: vec![0.0; np],
        }
    }

    fn distance(&mut self, params: &[f64]) -> f64 {
        self.unitary.distance(self.ops, self.target, params)
    }

    /// Gradient of `C(θ) = 1 − |Tr(U†V(θ))| / N` into `self.grad`.
    fn cost_gradient(&mut self, params: &[f64]) {
        self.stacks.build(self.ops, params);
        let w = overlap(self.target, self.stacks.value());
        let n = D as f64;
        let wabs = w.abs().max(1e-30);
        let wdir = c64(w.re / wabs, w.im / wabs);
        let (target, grad) = (self.target, &mut self.grad);
        self.stacks.partials(self.ops, params, |k, dv| {
            // d(1 − |w|/N) = −Re(conj(wdir)·dw)/N
            grad[k] = -(wdir.conj() * overlap(target, dv)).re / n;
        });
    }

    /// Levenberg–Marquardt polish on the phase-aligned residuals
    /// `vec(e^{-iφ}V(θ) − U)` — converges quadratically once inside the
    /// basin, which Adam alone cannot do at 1e-10 scales. Returns the
    /// accurate distance at the (possibly improved) `params`.
    fn polish(&mut self, params: &mut [f64], iters: usize) -> f64 {
        let np = params.len();
        let nv = np + 1;
        let rows = Self::ROWS;
        let mut best_d = self.distance(params);
        let mut lambda = 1e-9;
        for _ in 0..iters {
            self.stacks.build(self.ops, params);
            let v = self.stacks.value();
            let w = overlap(self.target, v);
            if w.abs() < 1e-12 {
                break;
            }
            let phase = C64::cis(-w.arg());
            // Residual r and Jacobian J (real view, 2N² rows). The global
            // phase is a nuisance parameter: include its derivative
            // column (−i·e^{-iφ}V) so the solve is exact Gauss–Newton on
            // the quotient space (its δ component is simply discarded —
            // the next realignment absorbs it).
            let (phase_col, resid) = self.cols[np * rows..].split_at_mut(rows);
            for (((a, b), p), r) in self
                .target
                .iter()
                .zip(v.as_flattened())
                .zip(phase_col.chunks_exact_mut(2))
                .zip(resid.chunks_exact_mut(2))
            {
                let e = (-C64::I) * (*b * phase);
                (p[0], p[1]) = (e.re, e.im);
                let e = *b * phase - *a;
                (r[0], r[1]) = (e.re, e.im);
            }
            let cols = &mut self.cols;
            self.stacks.partials(self.ops, params, |k, dv| {
                let col = &mut cols[k * rows..(k + 1) * rows];
                for (c, z) in col.chunks_exact_mut(2).zip(dv.as_flattened()) {
                    let e = *z * phase;
                    (c[0], c[1]) = (e.re, e.im);
                }
            });
            self.normal_equations(nv);
            // Damped solve with step-halving fallback.
            let mut improved = false;
            for _attempt in 0..6 {
                self.sys.copy_from_slice(&self.jtj);
                for a in 0..nv {
                    self.sys[a * nv + a] += lambda * (1.0 + self.jtj[a * nv + a]);
                }
                self.step.copy_from_slice(&self.jtr);
                if solve_dense(&mut self.sys, &mut self.step, nv) {
                    for ((c, p), d) in self.cand.iter_mut().zip(params.iter()).zip(&self.step) {
                        *c = p - d;
                    }
                    let d = self.unitary.distance(self.ops, self.target, &self.cand);
                    if d < best_d {
                        params.copy_from_slice(&self.cand);
                        best_d = d;
                        lambda = (lambda * 0.3).max(1e-14);
                        improved = true;
                        break;
                    }
                }
                lambda *= 10.0;
            }
            if !improved || best_d < 1e-14 {
                break;
            }
        }
        best_d
    }

    /// `JᵀJ` and `Jᵀr` from the slots in `self.cols`, four dot products
    /// per pass.
    fn normal_equations(&mut self, nv: usize) {
        let rows = Self::ROWS;
        let slot = |b: usize| &self.cols[b * rows..(b + 1) * rows];
        // Slot `nv` is the residual: its dot with column `a` is `Jᵀr[a]`.
        let mut put = |a: usize, b: usize, dot: f64| {
            if b == nv {
                self.jtr[a] = dot;
            } else {
                self.jtj[a * nv + b] = dot;
                self.jtj[b * nv + a] = dot;
            }
        };
        for a in 0..nv {
            let mut b = a;
            while b + 4 <= nv + 1 {
                let d = dots(slot(a), [slot(b), slot(b + 1), slot(b + 2), slot(b + 3)]);
                for (l, dot) in d.into_iter().enumerate() {
                    put(a, b + l, dot);
                }
                b += 4;
            }
            for b in b..=nv {
                let [dot] = dots(slot(a), [slot(b)]);
                put(a, b, dot);
            }
        }
    }
}

/// Result of an instantiation run.
#[derive(Debug, Clone)]
pub struct Instantiation {
    /// Optimized parameters.
    pub params: Vec<f64>,
    /// Accurate Hilbert–Schmidt distance to the target at `params`.
    pub distance: f64,
}

/// Accurate Hilbert–Schmidt distance, immune to the `1 − |w|/N`
/// cancellation (now shared with the cache's verify-on-hit path as
/// [`qmath::dist::accurate_hs_distance`]; re-exported here for the
/// existing synthesis call sites).
pub use qmath::dist::accurate_hs_distance;

/// Options for [`instantiate`].
#[derive(Debug, Clone)]
pub struct InstantiateOpts {
    /// Number of random restarts.
    pub restarts: usize,
    /// Adam iterations per restart.
    pub iters: usize,
    /// Initial learning rate.
    pub lr: f64,
    /// Stop early once the accurate distance falls below this.
    pub target: f64,
    /// Warm start for the first restart (zeros when `None`).
    pub init: Option<Vec<f64>>,
}

impl Default for InstantiateOpts {
    fn default() -> Self {
        InstantiateOpts {
            restarts: 4,
            iters: 400,
            lr: 0.15,
            target: 1e-10,
            init: None,
        }
    }
}

/// Optimizes template parameters to approximate `target` (up to global
/// phase), returning the best instantiation found.
///
/// # Panics
///
/// Panics if the target dimension does not match the template.
pub fn instantiate<R: Rng + ?Sized>(
    template: &Template,
    target: &Mat,
    opts: &InstantiateOpts,
    rng: &mut R,
) -> Instantiation {
    let dim = 1usize << template.n_qubits();
    assert_eq!(target.rows(), dim, "target dimension mismatch");
    if template.n_params() == 0 {
        let d = accurate_hs_distance(target, &template.unitary(&[]));
        return Instantiation {
            params: vec![],
            distance: d,
        };
    }
    match template.n_qubits() {
        1 => adam::<2, R>(Workspace::new(template, target), opts, rng),
        2 => adam::<4, R>(Workspace::new(template, target), opts, rng),
        _ => adam::<8, R>(Workspace::new(template, target), opts, rng),
    }
}

/// [`instantiate`]'s restarts of Adam, each ending in a
/// Levenberg–Marquardt polish once inside the basin.
fn adam<const D: usize, R: Rng + ?Sized>(
    mut ws: Workspace<'_, D>,
    opts: &InstantiateOpts,
    rng: &mut R,
) -> Instantiation {
    let np = ws.grad.len();
    let mut best = Instantiation {
        params: vec![0.0; np],
        distance: f64::INFINITY,
    };
    let mut params = vec![0.0; np];
    let mut polished = vec![0.0; np];
    let mut m = vec![0.0; np];
    let mut vv = vec![0.0; np];
    for restart in 0..opts.restarts {
        match &opts.init {
            Some(init) if restart == 0 && init.len() == np => params.copy_from_slice(init),
            _ if restart == 0 => params.fill(0.0),
            _ => {
                for p in params.iter_mut() {
                    *p = (rng.random::<f64>() - 0.5) * 2.0 * std::f64::consts::PI;
                }
            }
        }
        m.fill(0.0);
        vv.fill(0.0);
        let (b1, b2, eps) = (0.9, 0.999, 1e-9);
        let mut lr = opts.lr;
        for it in 0..opts.iters {
            ws.cost_gradient(&params);
            let grad = &ws.grad;
            for k in 0..np {
                m[k] = b1 * m[k] + (1.0 - b1) * grad[k];
                vv[k] = b2 * vv[k] + (1.0 - b2) * grad[k] * grad[k];
                let mh = m[k] / (1.0 - b1.powi(it as i32 + 1));
                let vh = vv[k] / (1.0 - b2.powi(it as i32 + 1));
                params[k] -= lr * mh / (vh.sqrt() + eps);
            }
            lr *= 0.995;
            if it % 25 == 24 || it + 1 == opts.iters {
                let d = ws.distance(&params);
                if d < best.distance {
                    best.params.copy_from_slice(&params);
                    best.distance = d;
                }
                if d <= opts.target {
                    return best;
                }
                // Once Adam is inside the basin, Levenberg–Marquardt
                // closes the remaining gap quadratically.
                if d < 1e-2 {
                    polished.copy_from_slice(&params);
                    let pd = ws.polish(&mut polished, 25);
                    if pd < best.distance {
                        best.params.copy_from_slice(&polished);
                        best.distance = pd;
                    }
                    if best.distance <= opts.target {
                        return best;
                    }
                    break; // LM stalled: continue with the next restart
                }
            }
        }
    }
    // Final LM attempt from the overall best point.
    if best.distance.is_finite() && best.distance > opts.target {
        polished.copy_from_slice(&best.params);
        let pd = ws.polish(&mut polished, 40);
        if pd < best.distance {
            best.params.copy_from_slice(&polished);
            best.distance = pd;
        }
    }
    best
}

/// Snaps parameters to nearby multiples of π/4 when doing so does not
/// worsen the distance to `target` (keeps synthesized circuits clean and
/// helps downstream rebasing drop trivial rotations).
///
/// # Panics
///
/// Panics if `params.len() != n_params` or the target dimension does not
/// match the template.
pub fn snap_params(template: &Template, target: &Mat, params: &mut [f64], tol: f64) {
    fn snap<const D: usize>(ops: &[TOp], target: &[C64], params: &mut [f64], tol: f64) {
        let mut unitary = UnitaryBuf::<D>::new();
        let quarter = std::f64::consts::FRAC_PI_4;
        let mut current = unitary.distance(ops, target, params);
        for k in 0..params.len() {
            let snapped = (params[k] / quarter).round() * quarter;
            if (snapped - params[k]).abs() < 1e-4 && snapped != params[k] {
                let old = params[k];
                params[k] = snapped;
                let d = unitary.distance(ops, target, params);
                if d <= current.max(tol) {
                    current = d.min(current);
                } else {
                    params[k] = old;
                }
            }
        }
    }
    assert_eq!(params.len(), template.n_params(), "parameter count");
    let (ops, t) = (template.ops(), target.as_slice());
    match template.n_qubits() {
        0 => snap::<1>(ops, t, params, tol),
        1 => snap::<2>(ops, t, params, tol),
        2 => snap::<4>(ops, t, params, tol),
        _ => snap::<8>(ops, t, params, tol),
    }
}

/// The dense formulation the kernels replace — each op embedded into a
/// 2ⁿ×2ⁿ [`Mat`] and multiplied in with [`Mat::matmul`] — kept as the
/// tests' bit-for-bit reference.
#[cfg(test)]
mod oracle {
    use super::*;
    use qmath::embed;

    pub fn op_matrix(template: &Template, op: &TOp, params: &[f64]) -> Mat {
        match *op {
            TOp::U3 { qubit, pidx } => embed(
                &qmath::gates::u3(params[pidx], params[pidx + 1], params[pidx + 2]),
                template.n_qubits(),
                &[qubit],
            ),
            TOp::Cx { c, t } => embed(&qmath::gates::cx(), template.n_qubits(), &[c, t]),
        }
    }

    pub fn unitary(template: &Template, params: &[f64]) -> Mat {
        let dim = 1usize << template.n_qubits();
        let mut v = Mat::identity(dim);
        for op in template.ops() {
            let m = op_matrix(template, op, params);
            v = m.matmul(&v);
        }
        v
    }

    /// Partial derivatives of the `U3` matrix with respect to (θ, φ, λ).
    fn u3_grads(theta: f64, phi: f64, lambda: f64) -> [Mat; 3] {
        let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let (ep, el, epl) = (C64::cis(phi), C64::cis(lambda), C64::cis(phi + lambda));
        let dtheta = Mat::mat2(
            c64(-st / 2.0, 0.0),
            el.scale(-ct / 2.0),
            ep.scale(ct / 2.0),
            epl.scale(-st / 2.0),
        );
        let i = C64::I;
        let dphi = Mat::mat2(C64::ZERO, C64::ZERO, i * ep.scale(st), i * epl.scale(ct));
        let dlambda = Mat::mat2(C64::ZERO, i * el.scale(-st), C64::ZERO, i * epl.scale(ct));
        [dtheta, dphi, dlambda]
    }

    /// The template unitary and `∂V/∂θ_k` for every parameter (via
    /// prefix/suffix products).
    pub fn value_and_grads(template: &Template, params: &[f64]) -> (Mat, Vec<Mat>) {
        let dim = 1usize << template.n_qubits();
        let ops = template.ops();
        let g = ops.len();
        // Prefix products: pre[i] = M_{i-1} … M_0 (pre[0] = I).
        let mut pre = Vec::with_capacity(g + 1);
        pre.push(Mat::identity(dim));
        for op in ops {
            let m = op_matrix(template, op, params);
            let last = pre.last().expect("non-empty prefix");
            pre.push(m.matmul(last));
        }
        // Suffix products: suf[i] = M_{g-1} … M_{i+1} (suf[g-1] = I).
        let mut suf = vec![Mat::identity(dim); g];
        for i in (0..g.saturating_sub(1)).rev() {
            let m = op_matrix(template, &ops[i + 1], params);
            suf[i] = suf[i + 1].matmul(&m);
        }
        let v = pre.last().expect("non-empty prefix").clone();
        let mut grads = vec![Mat::zeros(dim, dim); params.len()];
        for (i, op) in ops.iter().enumerate() {
            if let TOp::U3 { qubit, pidx } = *op {
                let partials = u3_grads(params[pidx], params[pidx + 1], params[pidx + 2]);
                for (k, dm2) in partials.iter().enumerate() {
                    let dm = embed(dm2, template.n_qubits(), &[qubit]);
                    grads[pidx + k] = suf[i].matmul(&dm).matmul(&pre[i]);
                }
            }
        }
        (v, grads)
    }

    /// Gradient of `C(θ) = 1 − |Tr(U†V(θ))| / N`.
    pub fn cost_gradient(template: &Template, target: &Mat, params: &[f64]) -> Vec<f64> {
        let dim = 1usize << template.n_qubits();
        let (v, dvs) = value_and_grads(template, params);
        let mut w = C64::ZERO;
        for (a, b) in target.as_slice().iter().zip(v.as_slice()) {
            w += a.conj() * *b;
        }
        let n = dim as f64;
        let wabs = w.abs().max(1e-30);
        let wdir = c64(w.re / wabs, w.im / wabs);
        let mut grad = vec![0.0; params.len()];
        for (k, dv) in dvs.iter().enumerate() {
            let mut dw = C64::ZERO;
            for (a, b) in target.as_slice().iter().zip(dv.as_slice()) {
                dw += a.conj() * *b;
            }
            grad[k] = -(wdir.conj() * dw).re / n;
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::random::random_unitary;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::f64::consts::FRAC_PI_4;

    fn bits(m: &[C64]) -> Vec<(u64, u64)> {
        m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// One parameter: an exact ±0, a multiple of π/4 (where `U3`
    /// entries turn into exact ±0 or ±1), or a generic angle.
    fn draw_param(rng: &mut SmallRng) -> f64 {
        match rng.random_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => rng.random_range(-8i32..=8) as f64 * FRAC_PI_4,
            _ => (rng.random::<f64>() - 0.5) * 4.0 * std::f64::consts::PI,
        }
    }

    /// Unitary, value, every `∂V/∂θ` and the cost gradient of the
    /// kernel path, against the dense oracle, bit for bit.
    fn check_against_oracle<const D: usize>(tpl: &Template, target: &Mat, params: &[f64]) {
        assert_eq!(
            bits(tpl.unitary(params).as_slice()),
            bits(oracle::unitary(tpl, params).as_slice()),
            "unitary"
        );
        let (v, dvs) = oracle::value_and_grads(tpl, params);
        let mut ws = Workspace::<D>::new(tpl, target);
        ws.stacks.build(tpl.ops(), params);
        assert_eq!(
            bits(ws.stacks.value().as_flattened()),
            bits(v.as_slice()),
            "value"
        );
        let mut formed = 0;
        ws.stacks.partials(tpl.ops(), params, |k, dv| {
            assert_eq!(formed, k, "partials out of order");
            assert_eq!(
                bits(dv.as_flattened()),
                bits(dvs[k].as_slice()),
                "dV/dθ_{k}"
            );
            formed += 1;
        });
        assert_eq!(formed, dvs.len());
        ws.cost_gradient(params);
        let want = oracle::cost_gradient(tpl, target, params);
        for (k, (got, want)) in ws.grad.iter().zip(&want).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "gradient {k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn kernels_match_the_dense_oracle_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut pairs_seen = HashSet::new();
        for case in 0..420 {
            let n = 2 + case % 2;
            let cx: Vec<(usize, usize)> = (0..rng.random_range(0..=6))
                .map(|_| {
                    let c = rng.random_range(0..n);
                    let t = (c + rng.random_range(1..n)) % n;
                    pairs_seen.insert((n, c, t));
                    (c, t)
                })
                .collect();
            let tpl = Template::with_cx_sequence(n, &cx);
            let params: Vec<f64> = (0..tpl.n_params()).map(|_| draw_param(&mut rng)).collect();
            let target = random_unitary(1 << n, &mut rng);
            if n == 2 {
                check_against_oracle::<4>(&tpl, &target, &params);
            } else {
                check_against_oracle::<8>(&tpl, &target, &params);
            }
        }
        assert_eq!(pairs_seen.len(), 2 + 6, "every directed pair drawn");
    }

    #[test]
    fn batched_dots_match_iterator_sum() {
        let mut rng = SmallRng::seed_from_u64(20);
        for len in [0, 1, 7, 32, 128] {
            let mut vector = |zeros_only: bool| -> Vec<f64> {
                (0..len)
                    .map(|_| match rng.random_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ if zeros_only => -0.0,
                        _ => rng.random::<f64>() * 2.0 - 1.0,
                    })
                    .collect()
            };
            let x = vector(false);
            let ys = [vector(false), vector(true), vector(false), vector(true)];
            let got = dots(&x, [&ys[0], &ys[1], &ys[2], &ys[3]]);
            for (y, got) in ys.iter().zip(got) {
                let want: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
                let [single] = dots(&x, [y]);
                assert_eq!(single.to_bits(), want.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(2);
        let tpl = Template::with_cx_sequence(2, &[(0, 1)]);
        let target = random_unitary(4, &mut rng);
        let params: Vec<f64> = (0..tpl.n_params()).map(|k| 0.3 * k as f64 - 1.0).collect();
        let mut ws = Workspace::<4>::new(&tpl, &target);
        ws.cost_gradient(&params);
        let grad = &ws.grad;
        let cost = |p: &[f64]| {
            let v = tpl.unitary(p);
            let mut w = C64::ZERO;
            for (a, b) in target.as_slice().iter().zip(v.as_slice()) {
                w += a.conj() * *b;
            }
            1.0 - w.abs() / 4.0
        };
        let h = 1e-6;
        for k in 0..params.len() {
            let mut up = params.clone();
            up[k] += h;
            let mut dn = params.clone();
            dn[k] -= h;
            let fd = (cost(&up) - cost(&dn)) / (2.0 * h);
            assert!(
                (fd - grad[k]).abs() < 1e-5,
                "param {k}: fd {fd} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn instantiates_identity_with_zero_cx() {
        let mut rng = SmallRng::seed_from_u64(3);
        let tpl = Template::with_cx_sequence(2, &[]);
        let target = Mat::identity(4);
        let r = instantiate(&tpl, &target, &InstantiateOpts::default(), &mut rng);
        assert!(r.distance < 1e-8, "distance {}", r.distance);
    }

    #[test]
    fn instantiates_product_of_1q_gates() {
        let mut rng = SmallRng::seed_from_u64(4);
        let u0 = random_unitary(2, &mut rng);
        let u1 = random_unitary(2, &mut rng);
        let target = u0.kron(&u1);
        let tpl = Template::with_cx_sequence(2, &[]);
        let r = instantiate(&tpl, &target, &InstantiateOpts::default(), &mut rng);
        assert!(r.distance < 1e-8, "distance {}", r.distance);
    }

    #[test]
    fn instantiates_cx_itself() {
        let mut rng = SmallRng::seed_from_u64(5);
        let tpl = Template::with_cx_sequence(2, &[(0, 1)]);
        let target = qmath::gates::cx();
        let r = instantiate(&tpl, &target, &InstantiateOpts::default(), &mut rng);
        assert!(r.distance < 1e-8, "distance {}", r.distance);
    }

    #[test]
    fn three_cx_reaches_random_two_qubit_unitary() {
        let mut rng = SmallRng::seed_from_u64(6);
        let target = random_unitary(4, &mut rng);
        let tpl = Template::with_cx_sequence(2, &[(0, 1), (1, 0), (0, 1)]);
        let opts = InstantiateOpts {
            restarts: 8,
            iters: 800,
            ..InstantiateOpts::default()
        };
        let r = instantiate(&tpl, &target, &opts, &mut rng);
        assert!(r.distance < 1e-6, "distance {}", r.distance);
    }

    #[test]
    fn to_circuit_matches_template_unitary() {
        let mut rng = SmallRng::seed_from_u64(7);
        let tpl = Template::with_cx_sequence(2, &[(0, 1)]);
        let params: Vec<f64> = (0..tpl.n_params())
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect();
        let c = tpl.to_circuit(&params);
        let d = accurate_hs_distance(&tpl.unitary(&params), &c.unitary());
        assert!(d < 1e-10);
    }

    #[test]
    fn accurate_distance_handles_tiny_gaps() {
        let u = qmath::gates::rz(1.0);
        let v = qmath::gates::rz(1.0 + 1e-9);
        let d = accurate_hs_distance(&u, &v);
        // sin-like scaling: Δ ≈ θerr/2 · sqrt(…): must be ~5e-10, not 0 or 1e-8 noise.
        assert!(d > 1e-11 && d < 1e-8, "d = {d}");
    }

    #[test]
    fn snapping_cleans_near_zero_angles() {
        let tpl = Template::with_cx_sequence(1, &[]);
        let target = qmath::gates::u3(std::f64::consts::FRAC_PI_2, 0.0, 0.0);
        let mut params = vec![std::f64::consts::FRAC_PI_2 + 1e-9, 1e-9, -1e-9];
        snap_params(&tpl, &target, &mut params, 1e-8);
        assert_eq!(params[1], 0.0);
        assert_eq!(params[2], 0.0);
        assert!((params[0] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }
}
