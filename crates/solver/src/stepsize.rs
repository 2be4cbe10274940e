//! Pluggable step-size rules for the solve loop.
//!
//! The solver's 1-D subproblem — pick `t ∈ [0, t_max]` along a search
//! direction — is decoupled from the loop behind the [`StepSize`] trait, in
//! the spirit of gradient-descent frameworks that treat the step-size rule
//! as an interchangeable component. The paper's exact Newton search
//! ([`NewtonLineSearch`]) is the default and what every production path
//! uses; [`BacktrackingStep`] is the classical inexact Armijo rule, useful
//! for ablations and for objectives whose curvature is unreliable.

use crate::{LineSearchOutcome, NewtonLineSearch, Objective, Result};
use nws_linalg::Vector;
use nws_obs::Recorder;

/// A rule producing the step length along a search direction.
///
/// Implementations maximize (exactly or approximately) `φ(t) = f(p + t·s)`
/// over `[0, t_max]` and report the outcome in the solver's vocabulary:
/// an interior step, "still ascending at the boundary", or "no progress".
/// The solve loop is generic over this trait ([`crate::Solver::maximize_with`]),
/// so swapping the rule requires no changes to the active-set machinery.
pub trait StepSize {
    /// Picks a step along `s` from `p` over `t ∈ [0, t_max]`, recording the
    /// rule's own counters into `rec` (the Newton search counts its probes
    /// in `solver_line_probes_total`).
    ///
    /// # Errors
    /// [`crate::SolverError::NonFiniteObjective`] when the objective or its
    /// derivatives are non-finite along the segment.
    fn maximize<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        s: &Vector,
        t_max: f64,
        rec: &Recorder,
    ) -> Result<LineSearchOutcome>;
}

/// The exact Newton search is the canonical step-size rule.
impl StepSize for NewtonLineSearch {
    fn maximize<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        s: &Vector,
        t_max: f64,
        rec: &Recorder,
    ) -> Result<LineSearchOutcome> {
        NewtonLineSearch::maximize(self, obj, p, s, t_max, rec)
    }
}

/// Inexact Armijo backtracking: start at `t_max` and shrink geometrically
/// until the sufficient-increase condition
/// `φ(t) ≥ φ(0) + c₁·t·φ'(0)` holds.
///
/// One value evaluation per trial, no curvature required — cheaper per probe
/// than the Newton search but typically needing more solver iterations,
/// since accepted steps are not 1-D maximizers (the conjugate Polak–Ribière
/// mixing in the loop partially compensates). Accepting the very first
/// trial (`t = t_max`) reports [`LineSearchOutcome::ReachedMax`] so the
/// caller activates the bound that produced `t_max`, exactly as with the
/// exact search.
#[derive(Debug, Clone, Copy)]
pub struct BacktrackingStep {
    /// Sufficient-increase coefficient `c₁ ∈ (0, 1)` (Armijo).
    pub armijo: f64,
    /// Geometric shrink factor per rejected trial, in `(0, 1)`.
    pub shrink: f64,
    /// Maximum trials before giving up ([`LineSearchOutcome::NoProgress`]).
    pub max_trials: usize,
}

impl Default for BacktrackingStep {
    fn default() -> Self {
        BacktrackingStep {
            armijo: 1e-4,
            shrink: 0.5,
            max_trials: 40,
        }
    }
}

impl StepSize for BacktrackingStep {
    fn maximize<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        s: &Vector,
        t_max: f64,
        _rec: &Recorder,
    ) -> Result<LineSearchOutcome> {
        assert!(t_max >= 0.0, "t_max must be ≥ 0, got {t_max}");
        let d0 = obj.directional_derivative(p, s);
        if !d0.is_finite() {
            return Err(crate::SolverError::NonFiniteObjective(
                "φ'(0) is not finite".into(),
            ));
        }
        if d0 <= 0.0 || t_max == 0.0 {
            return Ok(LineSearchOutcome::NoProgress);
        }
        let f0 = obj.value(p);
        let mut x = p.clone();
        let mut t = t_max;
        for trial in 0..self.max_trials {
            x.copy_from(p);
            x.axpy(t, s);
            let f = obj.value(&x);
            if !f.is_finite() {
                return Err(crate::SolverError::NonFiniteObjective(format!(
                    "φ({t}) is not finite"
                )));
            }
            if f >= f0 + self.armijo * t * d0 {
                return Ok(if trial == 0 {
                    LineSearchOutcome::ReachedMax
                } else {
                    LineSearchOutcome::Interior(t)
                });
            }
            t *= self.shrink;
        }
        Ok(LineSearchOutcome::NoProgress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(p) = −Σ (p_i − c_i)².
    struct Quad {
        c: Vec<f64>,
    }
    impl Objective for Quad {
        fn value(&self, p: &Vector) -> f64 {
            -(0..p.len())
                .map(|i| (p[i] - self.c[i]) * (p[i] - self.c[i]))
                .sum::<f64>()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            (0..p.len()).map(|i| -2.0 * (p[i] - self.c[i])).collect()
        }
        fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
            -2.0 * s.dot(s)
        }
    }

    #[test]
    fn newton_search_implements_the_trait() {
        let obj = Quad { c: vec![1.0] };
        let out = StepSize::maximize(
            &NewtonLineSearch::default(),
            &obj,
            &Vector::zeros(1),
            &Vector::from(vec![1.0]),
            10.0,
            &Recorder::disabled(),
        )
        .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => assert!((t - 1.0).abs() < 1e-9),
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn backtracking_accepts_boundary_when_still_ascending() {
        // Max at t = 5, segment capped at 2: the first trial satisfies
        // Armijo and is the boundary.
        let obj = Quad { c: vec![5.0] };
        let out = BacktrackingStep::default()
            .maximize(
                &obj,
                &Vector::zeros(1),
                &Vector::from(vec![1.0]),
                2.0,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out, LineSearchOutcome::ReachedMax);
    }

    #[test]
    fn backtracking_shrinks_past_the_maximizer() {
        // Max at t = 1, segment up to 16: t = 16 overshoots so badly the
        // objective decreases; backtracking must shrink into (0, 2) where
        // Armijo holds, and report an interior step.
        let obj = Quad { c: vec![1.0] };
        let out = BacktrackingStep::default()
            .maximize(
                &obj,
                &Vector::zeros(1),
                &Vector::from(vec![1.0]),
                16.0,
                &Recorder::disabled(),
            )
            .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => {
                assert!(t > 0.0 && t < 2.0, "t = {t}");
                assert!(obj.value(&Vector::from(vec![t])) > obj.value(&Vector::zeros(1)));
            }
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn backtracking_rejects_descent_directions() {
        let obj = Quad { c: vec![-1.0] };
        let out = BacktrackingStep::default()
            .maximize(
                &obj,
                &Vector::zeros(1),
                &Vector::from(vec![1.0]),
                1.0,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
        let out = BacktrackingStep::default()
            .maximize(
                &obj,
                &Vector::zeros(1),
                &Vector::from(vec![-1.0]),
                0.0,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
    }
}
