//! Distance metrics between unitaries.
//!
//! The central metric is the Hilbert–Schmidt distance (paper Def. 3.2),
//! which is invariant under global phase and cheap to compute:
//!
//! `Δ(U, V) = sqrt(1 − |Tr(U†V)|² / N²)`

use crate::complex::C64;
use crate::matrix::Mat;

/// Normalized trace overlap `|Tr(U†V)| / N` in `[0, 1]`.
///
/// Equal to 1 exactly when `U = e^{iφ} V`.
///
/// # Panics
///
/// Panics if the matrices are not square with equal dimensions.
pub fn trace_overlap(u: &Mat, v: &Mat) -> f64 {
    assert_eq!(u.rows(), u.cols(), "trace_overlap requires square matrices");
    assert_eq!(u.rows(), v.rows(), "dimension mismatch in trace_overlap");
    assert_eq!(v.rows(), v.cols(), "trace_overlap requires square matrices");
    let n = u.rows() as f64;
    // Tr(U†V) = Σ_ij conj(U_ij) V_ij — avoids forming the product.
    let mut t = C64::ZERO;
    for (a, b) in u.as_slice().iter().zip(v.as_slice()) {
        t += a.conj() * *b;
    }
    (t.abs() / n).min(1.0)
}

/// Hilbert–Schmidt distance `Δ(U, V)` from Definition 3.2 of the paper.
///
/// Ranges over `[0, 1]`; zero iff the unitaries are equal up to global
/// phase.
///
/// ```
/// use qmath::{gates, dist::hs_distance};
/// assert!(hs_distance(&gates::x(), &gates::x()) < 1e-15);
/// assert!(hs_distance(&gates::x(), &gates::z()) > 0.9);
/// ```
pub fn hs_distance(u: &Mat, v: &Mat) -> f64 {
    let o = trace_overlap(u, v);
    (1.0 - o * o).max(0.0).sqrt()
}

/// [`hs_distance`] with full precision near zero.
///
/// The plain formula `sqrt(1 − o²)` catastrophically cancels for
/// near-identical unitaries: an overlap `o = 1 − 1e-16` (pure float
/// noise) already reads as Δ ≈ 1.5e-8, which would swamp ε budgets in
/// the 1e-9 range. This variant phase-aligns `V` to `U`, accumulates
/// the elementwise squared distance `d² = Σ|V'ᵢⱼ − Uᵢⱼ|²` (exactly 0
/// for identical inputs), and maps it through
/// `Δ = sqrt(x·(2−x))` with `x = 1 − o = d²/2N`. Use it wherever the
/// measured distance is charged against a tight ε budget (resynthesis
/// accounting, cache verify-on-hit).
///
/// # Panics
///
/// Panics if the matrices are not square with equal dimensions.
pub fn accurate_hs_distance(u: &Mat, v: &Mat) -> f64 {
    assert_eq!(
        u.rows(),
        u.cols(),
        "accurate_hs_distance needs square matrices"
    );
    assert_eq!(
        u.rows(),
        v.rows(),
        "dimension mismatch in accurate_hs_distance"
    );
    assert_eq!(
        v.rows(),
        v.cols(),
        "accurate_hs_distance needs square matrices"
    );
    accurate_hs_distance_entries(u.as_slice(), v.as_slice(), u.rows())
}

/// [`accurate_hs_distance`] over the row-major entries of two `dim × dim`
/// matrices, for callers that keep their matrices outside [`Mat`].
///
/// # Panics
///
/// Panics if either slice does not hold `dim²` entries.
pub fn accurate_hs_distance_entries(u: &[C64], v: &[C64], dim: usize) -> f64 {
    assert_eq!(
        u.len(),
        dim * dim,
        "dimension mismatch in accurate_hs_distance"
    );
    assert_eq!(
        v.len(),
        dim * dim,
        "dimension mismatch in accurate_hs_distance"
    );
    let n = dim as f64;
    let mut w = C64::ZERO;
    for (a, b) in u.iter().zip(v) {
        w += a.conj() * *b;
    }
    if w.abs() < 1e-12 {
        return 1.0;
    }
    let phase = C64::cis(-w.arg());
    let mut d2 = 0.0;
    for (a, b) in u.iter().zip(v) {
        d2 += (*b * phase - *a).norm_sqr();
    }
    // 1 − |w|/N = d² / (2N); Δ = sqrt(x·(2−x)) with x = 1 − |w|/N.
    let x = (d2 / (2.0 * n)).min(1.0);
    (x * (2.0 - x)).max(0.0).sqrt()
}

/// True when `U ≡_ε V` (approximate equivalence, paper Def. 3.3).
pub fn approx_equiv(u: &Mat, v: &Mat, eps: f64) -> bool {
    hs_distance(u, v) <= eps
}

/// True when `U ≡ V` up to global phase within numerical tolerance `tol`
/// measured in Hilbert–Schmidt distance.
pub fn phase_equiv(u: &Mat, v: &Mat, tol: f64) -> bool {
    hs_distance(u, v) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn distance_zero_for_equal() {
        let u = gates::u3(0.4, 1.1, -0.3);
        assert!(hs_distance(&u, &u) < 1e-15);
    }

    #[test]
    fn distance_invariant_to_global_phase() {
        let u = gates::u3(0.4, 1.1, -0.3);
        let v = u.scaled(C64::cis(2.1));
        assert!(hs_distance(&u, &v) < 1e-7);
        assert!(phase_equiv(&u, &v, 1e-7));
    }

    #[test]
    fn distance_symmetric() {
        let u = gates::rx(0.3);
        let v = gates::ry(0.8);
        assert!((hs_distance(&u, &v) - hs_distance(&v, &u)).abs() < 1e-15);
    }

    #[test]
    fn orthogonal_paulis_are_far() {
        assert!((hs_distance(&gates::x(), &gates::y()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_perturbation_small_distance() {
        let u = gates::rz(1.0);
        let v = gates::rz(1.0 + 1e-6);
        let d = hs_distance(&u, &v);
        assert!(d < 1e-5, "d = {d}");
        assert!(approx_equiv(&u, &v, 1e-5));
    }

    #[test]
    fn triangle_like_additivity() {
        // The paper's Thm 4.2 relies on Δ(U, W) ≤ Δ(U, V) + Δ(V, W).
        let u = gates::rz(0.2);
        let v = gates::rz(0.2 + 1e-3);
        let w = gates::rz(0.2 + 2e-3);
        assert!(hs_distance(&u, &w) <= hs_distance(&u, &v) + hs_distance(&v, &w) + 1e-12);
    }
}
