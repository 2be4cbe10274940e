//! Cross-KKT certification: does a rate vector satisfy the KKT conditions
//! of a task's placement problem, whichever solve produced it? The check
//! runs the solver's own certification steps with its default tolerances
//! (`ActiveSet::classify` → `project_gradient` → `compute_multipliers`), so
//! two solves that took different iterate paths can each be certified on
//! the other's problem instead of being compared through an objective band.
//!
//! Shared by test crates with `#[path = ".../support/cross_kkt.rs"] mod`.

use nws_solver::{
    compute_multipliers, project_gradient, ActiveSet, BoxLinearProblem, Objective, SolverOptions,
};

/// Certifies the reduced rate vector `rates` on `problem` with objective
/// `obj`: feasible, projected gradient within the solver's `grad_tol`
/// (relative to the gradient's infinity norm) and no negative bound
/// multiplier.
///
/// # Errors
/// A description of the first violated condition.
pub fn certify<O: Objective>(
    obj: &O,
    problem: &BoxLinearProblem,
    rates: &[f64],
) -> Result<(), String> {
    let options = SolverOptions::default();
    // Built from the bound vector so that callers without a direct
    // `nws-linalg` dependency can pass plain slices.
    let mut p = problem.upper().clone();
    p.as_mut_slice().copy_from_slice(rates);
    let p = &p;
    if !problem.is_feasible(p, 1e-9) {
        return Err("rates are not feasible".into());
    }
    let active = ActiveSet::classify(p, problem, options.bound_snap_tol);
    let g = obj.gradient(p);
    let projected = project_gradient(&g, &active, problem).norm_inf();
    let bound = options.grad_tol * g.norm_inf().max(1.0);
    if projected > bound {
        return Err(format!("projected gradient {projected:e} > {bound:e}"));
    }
    let report = compute_multipliers(&g, &active, problem, options.multiplier_tol);
    if !report.negative.is_empty() {
        return Err(format!(
            "negative bound multipliers at variables {:?}",
            report.negative
        ));
    }
    Ok(())
}
