//! Problem definition: objective trait and the box-plus-equality polytope.

use crate::{Result, SolverError};
use nws_linalg::Vector;

/// A twice continuously differentiable concave objective to *maximize*.
///
/// The solver needs values, gradients, and — for the Newton line search —
/// the second directional derivative `d²/dt² f(p + t·s)` at `t = 0`, which
/// for the separable-per-OD utilities of the paper is cheap to evaluate
/// directly (`Σ_k M_k''(ρ_k)·(r_k·s)²`) without forming a Hessian.
pub trait Objective {
    /// Objective value at `p`.
    fn value(&self, p: &Vector) -> f64;

    /// Gradient at `p`.
    fn gradient(&self, p: &Vector) -> Vector;

    /// Second directional derivative along `s` evaluated at `p`:
    /// `sᵀ·∇²f(p)·s`. Must be ≤ 0 for a concave objective.
    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64;

    /// Writes the gradient at `p` into `out`, resizing it if needed.
    ///
    /// The solver loop calls this once per iteration with a reused buffer;
    /// objectives with an allocation-free evaluation path (e.g. sparse-row
    /// accumulation into a caller buffer) should override it. The default
    /// delegates to [`Objective::gradient`].
    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        *out = self.gradient(p);
    }

    /// First directional derivative along `s` at `p`: `∇f(p)·s`.
    ///
    /// The Newton line search evaluates this several times per step; the
    /// default materializes the full gradient, while separable objectives
    /// can compute the contraction directly without forming it. Overrides
    /// must agree with `gradient(p).dot(s)` up to float rounding.
    fn directional_derivative(&self, p: &Vector, s: &Vector) -> f64 {
        self.gradient(p).dot(s)
    }

    /// The restriction of the objective to the line `p + t·s`: a probe
    /// `t ↦ (φ'(t), φ''(t))` with `φ(t) = f(p + t·s)`.
    ///
    /// The Newton line search builds one probe per search and evaluates it
    /// at every trial step, so per-search set-up work is paid once and each
    /// probe only pays for what depends on `t`. Objectives whose restriction
    /// has a cheap closed form (e.g. a separable sum over terms that are
    /// affine along the line) should override it. The default evaluates
    /// [`Objective::directional_derivative`] and
    /// [`Objective::curvature_along`] at the trial point, held in one
    /// buffer reused by every probe of the search; overrides must agree
    /// with it up to float rounding.
    fn line_probe<'a>(
        &'a self,
        p: &'a Vector,
        s: &'a Vector,
    ) -> impl FnMut(f64) -> (f64, f64) + 'a {
        let mut x = p.clone();
        move |t| {
            x.copy_from(p);
            x.axpy(t, s);
            (
                self.directional_derivative(&x, s),
                self.curvature_along(&x, s),
            )
        }
    }

    /// Writes the gradient at `p` into `out` (resizing if needed) and
    /// returns the objective value at `p`.
    ///
    /// The solve loop needs both once per iteration when it records the
    /// objective trajectory; fused-kernel objectives should override this to
    /// produce the pair in one sweep. The default performs two evaluations.
    fn value_and_gradient_into(&self, p: &Vector, out: &mut Vector) -> f64 {
        self.gradient_into(p, out);
        self.value(p)
    }
}

/// The feasible polytope of the placement problem (paper eqs. (3)–(5), with
/// (5) tightened to an equality per §IV-B eq. (8)):
///
/// ```text
/// 0 ≤ p_i ≤ upper_i        (bounds: α_i)
/// Σ_i a_i·p_i = rhs        (capacity: a_i = U_i link loads, rhs = θ)
/// ```
#[derive(Debug, Clone)]
pub struct BoxLinearProblem {
    upper: Vector,
    eq_normal: Vector,
    eq_rhs: f64,
}

impl BoxLinearProblem {
    /// Creates and validates a problem.
    ///
    /// # Errors
    /// [`SolverError::InvalidProblem`] when dimensions mismatch, a bound is
    /// non-positive, an equality coefficient is non-positive (a link with no
    /// load cannot consume capacity and must be excluded by the caller), or
    /// anything is non-finite. [`SolverError::Infeasible`] when
    /// `rhs > Σ a_i·upper_i` (not enough headroom) or `rhs < 0`.
    pub fn new(upper: Vector, eq_normal: Vector, eq_rhs: f64) -> Result<Self> {
        if upper.len() != eq_normal.len() {
            return Err(SolverError::InvalidProblem(format!(
                "upper bounds ({}) and equality normal ({}) lengths differ",
                upper.len(),
                eq_normal.len()
            )));
        }
        if upper.is_empty() {
            return Err(SolverError::InvalidProblem(
                "zero-dimensional problem".into(),
            ));
        }
        if !upper.is_finite() || !eq_normal.is_finite() || !eq_rhs.is_finite() {
            return Err(SolverError::InvalidProblem("non-finite parameter".into()));
        }
        if let Some(i) = upper.iter().position(|&u| u <= 0.0) {
            return Err(SolverError::InvalidProblem(format!(
                "upper bound at index {i} must be positive"
            )));
        }
        if let Some(i) = eq_normal.iter().position(|&a| a <= 0.0) {
            return Err(SolverError::InvalidProblem(format!(
                "equality coefficient at index {i} must be positive \
                 (exclude zero-load links before building the problem)"
            )));
        }
        if eq_rhs < 0.0 {
            return Err(SolverError::InvalidProblem(
                "equality rhs must be ≥ 0".into(),
            ));
        }
        let max_achievable = upper.hadamard(&eq_normal).sum();
        if eq_rhs > max_achievable {
            return Err(SolverError::Infeasible {
                rhs: eq_rhs,
                max_achievable,
            });
        }
        Ok(BoxLinearProblem {
            upper,
            eq_normal,
            eq_rhs,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.upper.len()
    }

    /// Upper bounds (the `α_i`).
    pub fn upper(&self) -> &Vector {
        &self.upper
    }

    /// Equality-constraint normal (the link loads `U_i`).
    pub fn eq_normal(&self) -> &Vector {
        &self.eq_normal
    }

    /// Equality right-hand side (the capacity `θ`).
    pub fn eq_rhs(&self) -> f64 {
        self.eq_rhs
    }

    /// A strictly feasible starting point: the uniform scaling `c·upper`
    /// with `c = rhs / Σ a_i·upper_i ∈ [0, 1]`, which satisfies the equality
    /// exactly and sits inside the box (on its boundary only when the
    /// problem admits a single point).
    pub fn feasible_start(&self) -> Vector {
        let max_achievable = self.upper.hadamard(&self.eq_normal).sum();
        let c = self.eq_rhs / max_achievable;
        self.upper.scaled(c)
    }

    /// Euclidean projection of `p` onto the feasible set
    /// `{x : 0 ≤ x ≤ upper, a·x = rhs}`.
    ///
    /// The projection is `x_i(μ) = clamp(p_i − μ·a_i, 0, upper_i)` for the
    /// unique multiplier `μ` with `a·x(μ) = rhs`; `a·x(μ)` is continuous and
    /// nonincreasing in `μ`, spanning `[0, Σ a_i·upper_i] ∋ rhs`, so monotone
    /// bisection converges unconditionally. Non-finite coordinates of `p`
    /// are treated as 0 before projecting, so a corrupted warm-start vector
    /// degrades gracefully instead of poisoning the solve.
    ///
    /// This is the warm-start re-projection hook: after an event changes
    /// `rhs` (a `set_theta`) or the bounds/dimension (a link failure), the
    /// previous solution generally violates the budget equality or the caps;
    /// projecting recovers the *nearest* feasible point, which preserves the
    /// active-set structure far better than rescaling.
    ///
    /// # Panics
    /// Panics if `p`'s length differs from the problem dimension.
    pub fn project_onto(&self, p: &Vector) -> Vector {
        assert_eq!(p.len(), self.dim(), "projection input length mismatch");
        let sanitized: Vector = p
            .iter()
            .map(|&v| if v.is_finite() { v } else { 0.0 })
            .collect();
        let consumed = |mu: f64| -> f64 {
            (0..self.dim())
                .map(|i| {
                    self.eq_normal[i]
                        * (sanitized[i] - mu * self.eq_normal[i]).clamp(0.0, self.upper[i])
                })
                .sum()
        };
        // Bracket the multiplier by doubling outwards from [-1, 1].
        let (mut lo, mut hi) = (-1.0_f64, 1.0_f64);
        while consumed(lo) < self.eq_rhs {
            lo *= 2.0;
            if lo < -1e30 {
                break;
            }
        }
        while consumed(hi) > self.eq_rhs {
            hi *= 2.0;
            if hi > 1e30 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if consumed(mid) > self.eq_rhs {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mu = 0.5 * (lo + hi);
        (0..self.dim())
            .map(|i| (sanitized[i] - mu * self.eq_normal[i]).clamp(0.0, self.upper[i]))
            .collect()
    }

    /// True iff `p` satisfies all constraints to within `tol` (bounds
    /// absolutely, equality relative to `rhs`).
    pub fn is_feasible(&self, p: &Vector, tol: f64) -> bool {
        if p.len() != self.dim() {
            return false;
        }
        for i in 0..p.len() {
            if p[i] < -tol || p[i] > self.upper[i] + tol {
                return false;
            }
        }
        let eq = self.eq_normal.dot(p);
        (eq - self.eq_rhs).abs() <= tol * self.eq_rhs.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(p) = −½‖p‖²; gradient −p.
    struct NegHalfNormSq;
    impl Objective for NegHalfNormSq {
        fn value(&self, p: &Vector) -> f64 {
            -0.5 * p.dot(p)
        }
        fn gradient(&self, p: &Vector) -> Vector {
            p.scaled(-1.0)
        }
        fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
            -s.dot(s)
        }
    }

    #[test]
    fn provided_methods_match_gradient() {
        let obj = NegHalfNormSq;
        let p = Vector::from(vec![1.0, -2.0, 3.0]);
        let s = Vector::from(vec![0.5, 0.25, -1.0]);
        let mut out = Vector::zeros(1); // wrong size on purpose; must be replaced
        obj.gradient_into(&p, &mut out);
        assert_eq!(out, obj.gradient(&p));
        assert_eq!(obj.directional_derivative(&p, &s), obj.gradient(&p).dot(&s));
        let mut probe = obj.line_probe(&p, &s);
        for t in [0.0, 0.5, -2.0] {
            let mut x = p.clone();
            x.axpy(t, &s);
            assert_eq!(
                probe(t),
                (
                    obj.directional_derivative(&x, &s),
                    obj.curvature_along(&x, &s)
                )
            );
        }
        let mut g = Vector::zeros(1);
        let v = obj.value_and_gradient_into(&p, &mut g);
        assert_eq!(v, obj.value(&p));
        assert_eq!(g, obj.gradient(&p));
    }

    fn simple() -> BoxLinearProblem {
        BoxLinearProblem::new(
            Vector::from(vec![1.0, 1.0, 1.0]),
            Vector::from(vec![10.0, 20.0, 30.0]),
            12.0,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let p = simple();
        assert_eq!(p.dim(), 3);
        assert_eq!(p.eq_rhs(), 12.0);
        assert_eq!(p.upper().as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(p.eq_normal().as_slice(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn feasible_start_is_feasible() {
        let p = simple();
        let x0 = p.feasible_start();
        assert!(p.is_feasible(&x0, 1e-12));
        // c = 12/60 = 0.2
        assert!(x0.approx_eq(&Vector::filled(3, 0.2), 1e-12));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(3, 1.0), 1.0).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn empty_rejected() {
        let err = BoxLinearProblem::new(Vector::zeros(0), Vector::zeros(0), 0.0).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn zero_load_coefficient_rejected() {
        let err = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 0.0]), 1.0)
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn negative_bound_rejected() {
        let err = BoxLinearProblem::new(Vector::from(vec![1.0, -0.5]), Vector::filled(2, 1.0), 0.5)
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn infeasible_detected() {
        let err =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 31.0)
                .unwrap_err();
        assert_eq!(
            err,
            SolverError::Infeasible {
                rhs: 31.0,
                max_achievable: 30.0
            }
        );
    }

    #[test]
    fn boundary_rhs_feasible() {
        // rhs exactly at the maximum: single feasible point = upper.
        let p = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 30.0)
            .unwrap();
        let x0 = p.feasible_start();
        assert!(x0.approx_eq(&Vector::filled(2, 1.0), 1e-12));
        assert!(p.is_feasible(&x0, 1e-9));
    }

    #[test]
    fn projection_lands_on_feasible_set() {
        let p = simple();
        for point in [
            Vector::from(vec![0.9, 0.9, 0.9]),  // over budget
            Vector::from(vec![0.0, 0.0, 0.01]), // under budget
            Vector::from(vec![5.0, -3.0, 0.5]), // outside the box
            Vector::zeros(3),                   // degenerate
        ] {
            let x = p.project_onto(&point);
            assert!(p.is_feasible(&x, 1e-9), "projection of {point:?} -> {x:?}");
        }
    }

    #[test]
    fn projection_fixes_feasible_points() {
        let p = simple();
        let x0 = p.feasible_start();
        let x = p.project_onto(&x0);
        assert!(x.approx_eq(&x0, 1e-9), "{x:?} != {x0:?}");
    }

    #[test]
    fn projection_is_nearest_among_probes() {
        // The Euclidean projection must be at least as close as any other
        // feasible probe point.
        let p = simple();
        let point = Vector::from(vec![1.5, 0.0, 0.0]);
        let dist = |a: &Vector, b: &Vector| -> f64 {
            let mut d = a.clone();
            d.axpy(-1.0, b);
            d.norm2()
        };
        let x = p.project_onto(&point);
        let d_proj = dist(&x, &point);
        for probe in [
            p.feasible_start(),
            p.project_onto(&Vector::from(vec![0.0, 1.5, 0.0])),
            p.project_onto(&Vector::from(vec![0.0, 0.0, 1.5])),
        ] {
            assert!(p.is_feasible(&probe, 1e-9));
            let d = dist(&probe, &point);
            assert!(d_proj <= d + 1e-9, "{d_proj} > {d} for {probe:?}");
        }
    }

    #[test]
    fn projection_sanitizes_non_finite_input() {
        let p = simple();
        let x = p.project_onto(&Vector::from(vec![f64::NAN, f64::INFINITY, 0.2]));
        assert!(x.is_finite());
        assert!(p.is_feasible(&x, 1e-9));
    }

    #[test]
    fn projection_handles_boundary_budget() {
        // rhs at the ceiling: the only feasible point is `upper`.
        let p = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 30.0)
            .unwrap();
        let x = p.project_onto(&Vector::from(vec![0.1, 0.0]));
        assert!(x.approx_eq(&Vector::filled(2, 1.0), 1e-7), "{x:?}");
    }

    #[test]
    #[should_panic(expected = "projection input length mismatch")]
    fn projection_length_checked() {
        simple().project_onto(&Vector::zeros(2));
    }

    #[test]
    fn is_feasible_rejects_violations() {
        let p = simple();
        assert!(!p.is_feasible(&Vector::from(vec![2.0, 0.0, 0.0]), 1e-9)); // above upper
        assert!(!p.is_feasible(&Vector::from(vec![-0.1, 0.3, 0.3]), 1e-9)); // below zero
        assert!(!p.is_feasible(&Vector::filled(3, 0.5), 1e-9)); // equality off
        assert!(!p.is_feasible(&Vector::filled(2, 0.2), 1e-9)); // wrong dim
    }
}
