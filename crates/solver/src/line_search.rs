//! Exact one-dimensional maximization along a search direction.

use crate::{Objective, Result, SolverError};
use nws_linalg::Vector;
use nws_obs::Recorder;

/// Result of a line search along a direction `s` from `p` over `t ∈ [0, t_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineSearchOutcome {
    /// The 1-D maximizer lies strictly inside the segment at the given step.
    Interior(f64),
    /// The objective is still increasing at `t_max`: step to the boundary
    /// (the caller activates the bound that produced `t_max`).
    ReachedMax,
    /// The direction is not an ascent direction (`φ'(0) ≤ 0`); no step taken.
    NoProgress,
}

/// Newton's method on `φ(t) = f(p + t·s)` with a bisection safeguard.
///
/// The paper chooses Newton for the 1-D search because the utility is C²
/// (§IV-C makes it so by construction); concavity of `f` makes `φ` concave,
/// so `φ'` is decreasing and the root of `φ'` is unique. The safeguard
/// maintains a sign-changing bracket `[lo, hi]` (`φ'(lo) > 0 > φ'(hi)`) and
/// falls back to bisection whenever a Newton step leaves it — guaranteeing
/// convergence even where curvature information is locally poor (e.g. at the
/// utility's quadratic-splice boundary).
#[derive(Debug, Clone, Copy)]
pub struct NewtonLineSearch {
    /// Convergence tolerance on `|φ'(t)|`, relative to `|φ'(0)|`.
    pub grad_tol: f64,
    /// Maximum Newton/bisection iterations before accepting the midpoint.
    pub max_iters: usize,
}

impl Default for NewtonLineSearch {
    fn default() -> Self {
        NewtonLineSearch {
            grad_tol: 1e-12,
            max_iters: 100,
        }
    }
}

impl NewtonLineSearch {
    /// Maximizes `φ(t) = f(p + t·s)` over `[0, t_max]`, adding the number
    /// of `(φ', φ'')` probes it evaluated to the `solver_line_probes_total`
    /// counter of `rec`.
    ///
    /// # Errors
    /// [`SolverError::NonFiniteObjective`] if a derivative evaluates to a
    /// non-finite value along the segment.
    pub fn maximize<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        s: &Vector,
        t_max: f64,
        rec: &Recorder,
    ) -> Result<LineSearchOutcome> {
        assert!(t_max >= 0.0, "t_max must be ≥ 0, got {t_max}");
        // One restriction of the objective to the search line serves every
        // evaluation of this search, the boundary check at `t_max`
        // included: objectives that override `line_probe` pay their per-line
        // set-up once, and each probe then costs only what depends on `t`.
        let mut restriction = obj.line_probe(p, s);
        let mut probes = 0_u64;
        let mut phi = |t: f64| -> Result<(f64, f64)> {
            probes += 1;
            let (d, c) = restriction(t);
            if !d.is_finite() {
                return Err(SolverError::NonFiniteObjective(format!(
                    "φ'({t}) is not finite"
                )));
            }
            if !c.is_finite() {
                return Err(SolverError::NonFiniteObjective(format!(
                    "φ''({t}) is not finite"
                )));
            }
            Ok((d, c))
        };
        let outcome = self.search(&mut phi, t_max);
        rec.counter_add("solver_line_probes_total", probes);
        outcome
    }

    /// The safeguarded Newton iteration over a `(φ', φ'')` probe.
    fn search(
        &self,
        phi: &mut impl FnMut(f64) -> Result<(f64, f64)>,
        t_max: f64,
    ) -> Result<LineSearchOutcome> {
        let (d0, c0) = phi(0.0)?;
        if d0 <= 0.0 {
            return Ok(LineSearchOutcome::NoProgress);
        }
        if t_max == 0.0 {
            return Ok(LineSearchOutcome::NoProgress);
        }
        let (d_end, _) = phi(t_max)?;
        if d_end >= 0.0 {
            return Ok(LineSearchOutcome::ReachedMax);
        }

        // Bracketed Newton: φ'(lo) > 0 > φ'(hi).
        let tol = self.grad_tol * d0.max(1e-300);
        let (mut lo, mut hi) = (0.0_f64, t_max);
        // First iterate from the quadratic model at 0.
        let mut t = if c0 < 0.0 {
            (-d0 / c0).clamp(t_max * 1e-12, t_max * (1.0 - 1e-12))
        } else {
            0.5 * t_max
        };
        for _ in 0..self.max_iters {
            let (d, c) = phi(t)?;
            if d.abs() <= tol {
                return Ok(LineSearchOutcome::Interior(t));
            }
            if d > 0.0 {
                lo = t;
            } else {
                hi = t;
            }
            let newton = if c < 0.0 { t - d / c } else { f64::NAN };
            t = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if hi - lo <= f64::EPSILON * t_max {
                break;
            }
        }
        Ok(LineSearchOutcome::Interior(0.5 * (lo + hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(p) = −Σ w_i (p_i − c_i)²; separable strictly concave quadratic.
    struct Quad {
        w: Vec<f64>,
        c: Vec<f64>,
    }
    impl Objective for Quad {
        fn value(&self, p: &Vector) -> f64 {
            -(0..p.len())
                .map(|i| self.w[i] * (p[i] - self.c[i]) * (p[i] - self.c[i]))
                .sum::<f64>()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            (0..p.len())
                .map(|i| -2.0 * self.w[i] * (p[i] - self.c[i]))
                .collect()
        }
        fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
            -(0..s.len())
                .map(|i| 2.0 * self.w[i] * s[i] * s[i])
                .sum::<f64>()
        }
    }

    #[test]
    fn quadratic_interior_maximum_one_newton_step() {
        // φ(t) along s from 0 towards c: max at t* = 1 for p=0, s=c.
        let obj = Quad {
            w: vec![1.0, 2.0],
            c: vec![1.0, 0.5],
        };
        let p = Vector::zeros(2);
        let s = Vector::from(vec![1.0, 0.5]);
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 10.0, &Recorder::disabled())
            .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => assert!((t - 1.0).abs() < 1e-9, "t = {t}"),
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn observed_search_counts_its_probes() {
        // φ'(0), the boundary check at t_max, then one exact Newton step.
        let obj = Quad {
            w: vec![1.0, 2.0],
            c: vec![1.0, 0.5],
        };
        let rec = Recorder::enabled();
        let out = NewtonLineSearch::default()
            .maximize(
                &obj,
                &Vector::zeros(2),
                &Vector::from(vec![1.0, 0.5]),
                10.0,
                &rec,
            )
            .unwrap();
        assert!(matches!(out, LineSearchOutcome::Interior(_)));
        assert_eq!(rec.snapshot().counter("solver_line_probes_total"), Some(3));
    }

    #[test]
    fn boundary_hit_when_max_outside() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![5.0],
        };
        let p = Vector::zeros(1);
        let s = Vector::from(vec![1.0]);
        // Max at t=5 but t_max = 2: still increasing at the boundary.
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 2.0, &Recorder::disabled())
            .unwrap();
        assert_eq!(out, LineSearchOutcome::ReachedMax);
    }

    #[test]
    fn descent_direction_no_progress() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![-1.0],
        };
        let p = Vector::zeros(1);
        let s = Vector::from(vec![1.0]); // moving away from the max
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 1.0, &Recorder::disabled())
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
    }

    #[test]
    fn zero_t_max_no_progress() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![1.0],
        };
        let out = NewtonLineSearch::default()
            .maximize(
                &obj,
                &Vector::zeros(1),
                &Vector::from(vec![1.0]),
                0.0,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
    }

    /// Non-quadratic concave objective: f(p) = Σ ln(1 + p_i).
    struct Log;
    impl Objective for Log {
        fn value(&self, p: &Vector) -> f64 {
            p.iter().map(|x| (1.0 + x).ln()).sum()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            p.iter().map(|x| 1.0 / (1.0 + x)).collect()
        }
        fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
            -(0..s.len())
                .map(|i| s[i] * s[i] / ((1.0 + p[i]) * (1.0 + p[i])))
                .sum::<f64>()
        }
    }

    #[test]
    fn mixed_sign_direction_on_log_objective() {
        // φ(t) = ln(1+2t) + ln(1 − t): φ'(t) = 2/(1+2t) − 1/(1−t);
        // root: 2(1−t) = 1+2t → t = 1/4.
        let p = Vector::zeros(2);
        let s = Vector::from(vec![2.0, -1.0]);
        let out = NewtonLineSearch::default()
            .maximize(&Log, &p, &s, 0.9, &Recorder::disabled())
            .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => assert!((t - 0.25).abs() < 1e-9, "t = {t}"),
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_gradient_reported() {
        struct Bad;
        impl Objective for Bad {
            fn value(&self, _p: &Vector) -> f64 {
                0.0
            }
            fn gradient(&self, _p: &Vector) -> Vector {
                Vector::from(vec![f64::NAN])
            }
            fn curvature_along(&self, _p: &Vector, _s: &Vector) -> f64 {
                -1.0
            }
        }
        let err = NewtonLineSearch::default()
            .maximize(
                &Bad,
                &Vector::zeros(1),
                &Vector::from(vec![1.0]),
                1.0,
                &Recorder::disabled(),
            )
            .unwrap_err();
        assert!(matches!(err, SolverError::NonFiniteObjective(_)));
    }
}
