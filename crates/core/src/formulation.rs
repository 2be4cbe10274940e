//! Translation of a [`MeasurementTask`] into a solver problem.
//!
//! The objective stores its per-OD sparse routing rows in CSR (compressed
//! sparse row) form — one flat `(variable, fraction)` array plus row offsets
//! — and evaluates value/gradient/curvature with serial row sweeps. A fused
//! single-pass kernel ([`PlacementObjective::eval_fused`]) produces value,
//! gradient, and both directional derivatives from one CSR sweep. The Newton
//! line search evaluates the objective's restriction to the search line
//! ([`Objective::line_probe`]): under the approximate rate model one CSR
//! sweep per search, then probes that touch no CSR entry at all.

use crate::{CoreError, MeasurementTask, SreUtility, Utility};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{BoxLinearProblem, Objective};
use nws_topo::LinkId;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// How the effective sampling rate `ρ_k(p)` is modelled inside the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateModel {
    /// The paper's working approximation `ρ_k = Σ_i r_{k,i}·p_i` (eq. (7)) —
    /// linear, keeps the objective strictly concave, and accurate in the
    /// low-rate/few-monitors regime the solution lives in (§IV-B).
    #[default]
    Approximate,
    /// The exact union probability `ρ_k = 1 − Π_i (1 − p_i)^{r_{k,i}}`
    /// (eq. (1)). Exact for unique paths (binary `r`); under ECMP the
    /// fractional exponent is a geometric-interpolation approximation.
    ///
    /// Note: composed with the utility this is *not* guaranteed concave over
    /// the whole box, so KKT certification only attests stationarity; in the
    /// low-rate regime the curvature from `M''` dominates and the solver
    /// behaves identically. Provided for the §V-B validation ablation.
    Exact,
}

/// Mapping between the task's candidate links and dense variable indices.
#[derive(Debug, Clone)]
pub struct ReducedIndex {
    links: Vec<LinkId>,
    pos: HashMap<LinkId, usize>,
}

impl ReducedIndex {
    /// Builds the index over the task's candidate links.
    pub fn new(task: &MeasurementTask) -> Self {
        let links = task.candidate_links().to_vec();
        let pos = links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        ReducedIndex { links, pos }
    }

    /// Number of optimization variables.
    pub fn dim(&self) -> usize {
        self.links.len()
    }

    /// The link of variable `v`.
    pub fn link(&self, v: usize) -> LinkId {
        self.links[v]
    }

    /// The variable of `link`, if it is a candidate.
    pub fn var(&self, link: LinkId) -> Option<usize> {
        self.pos.get(&link).copied()
    }

    /// Expands a reduced rate vector to a full per-topology-link vector
    /// (zero on non-candidate links).
    pub fn expand(&self, reduced: &Vector, num_links: usize) -> Vec<f64> {
        let mut full = vec![0.0; num_links];
        for (v, &l) in self.links.iter().enumerate() {
            full[l.index()] = reduced[v];
        }
        full
    }
}

/// Result of a fused single-pass evaluation
/// ([`PlacementObjective::eval_fused`]): objective value plus the first and
/// second directional derivatives along the probe direction (zero when no
/// direction was given).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedEval {
    /// Objective value `f(p)`.
    pub value: f64,
    /// First directional derivative `∇f(p)·s` (`0.0` without a direction).
    pub derivative: f64,
    /// Second directional derivative `sᵀ∇²f(p)s` (`0.0` without a direction).
    pub curvature: f64,
}

/// The paper's objective `Σ_k w_k·M_k(ρ_k(p))` over the reduced variables,
/// generic over the per-OD utility type (the paper's [`SreUtility`] by
/// default; any [`Utility`] works — §VI anticipates anomaly-detection and
/// performance-analysis utilities).
pub struct PlacementObjective<U: Utility = SreUtility> {
    utilities: Vec<U>,
    /// Per-OD nonnegative weights (1 for the paper's formulation; composite
    /// multi-task problems weight their sub-tasks).
    weights: Vec<f64>,
    /// CSR row offsets: OD `k`'s entries span
    /// `row_entries[row_offsets[k]..row_offsets[k + 1]]`.
    row_offsets: Vec<usize>,
    /// Flattened `(variable, r_{k,i})` pairs of all ODs, grouped by OD.
    row_entries: Vec<(usize, f64)>,
    rate_model: RateModel,
    dim: usize,
    /// Observability sink (disabled by default — a single branch per
    /// evaluation). See [`PlacementObjective::with_recorder`].
    recorder: Recorder,
    /// Line-search scratch, lent to one [`LineProbe`] at a time and
    /// returned when it drops, so steady-state searches do not allocate.
    line_scratch: Mutex<LineScratch>,
}

/// Buffers of one line search ([`Objective::line_probe`]).
#[derive(Default)]
struct LineScratch {
    /// `(k, a_k, b_k)` per OD the direction moves, where
    /// `ρ_k(p + t·s) = a_k + t·b_k` under [`RateModel::Approximate`].
    rows: Vec<(usize, f64, f64)>,
    /// The trial point `p + t·s` of a [`RateModel::Exact`] probe.
    trial: Vector,
}

impl PlacementObjective<SreUtility> {
    /// Builds the paper's objective for `task` under the given rate model.
    pub fn new(task: &MeasurementTask, index: &ReducedIndex, rate_model: RateModel) -> Self {
        let utilities: Vec<SreUtility> = task
            .ods()
            .iter()
            .map(|o| SreUtility::new(o.inv_mean_size))
            .collect();
        let rows = task_rows(task, index);
        let weights = vec![1.0; utilities.len()];
        PlacementObjective::from_parts(utilities, weights, rows, rate_model, index.dim())
    }
}

/// The sparse `(variable, r_{k,i})` rows of a task against an index.
pub(crate) fn task_rows(task: &MeasurementTask, index: &ReducedIndex) -> Vec<Vec<(usize, f64)>> {
    let routing = task.routing();
    (0..routing.num_ods())
        .map(|k| {
            routing
                .row(k)
                .iter()
                .filter_map(|&(l, r)| index.var(l).map(|v| (v, r)))
                .collect()
        })
        .collect()
}

impl<U: Utility> PlacementObjective<U> {
    /// Builds an objective from explicit parts: per-OD utilities, weights,
    /// sparse routing rows and the variable count. Used by composite
    /// multi-task problems and custom measurement tasks.
    ///
    /// # Panics
    /// Panics if lengths disagree, a weight is negative, or a row references
    /// a variable ≥ `dim`.
    pub fn from_parts(
        utilities: Vec<U>,
        weights: Vec<f64>,
        rows: Vec<Vec<(usize, f64)>>,
        rate_model: RateModel,
        dim: usize,
    ) -> Self {
        assert_eq!(
            utilities.len(),
            rows.len(),
            "utilities/rows length mismatch"
        );
        assert_eq!(
            utilities.len(),
            weights.len(),
            "utilities/weights length mismatch"
        );
        assert!(weights.iter().all(|&w| w >= 0.0), "weights must be ≥ 0");
        for row in &rows {
            for &(v, r) in row {
                assert!(v < dim, "row references variable {v} ≥ dim {dim}");
                assert!(
                    (0.0..=1.0).contains(&r),
                    "routing fraction {r} out of [0,1]"
                );
            }
        }
        // Flatten to CSR: one contiguous entry array plus row offsets.
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut row_entries = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_offsets.push(0);
        for row in rows {
            row_entries.extend(row);
            row_offsets.push(row_entries.len());
        }
        PlacementObjective {
            utilities,
            weights,
            row_offsets,
            row_entries,
            rate_model,
            dim,
            recorder: Recorder::disabled(),
            line_scratch: Mutex::default(),
        }
    }

    /// Attaches an observability recorder (builder style; the default is the
    /// disabled no-op sink). With a live recorder, every evaluation bumps
    /// `eval_calls_total`, and fused-kernel calls additionally
    /// `eval_fused_calls_total`. A line search ([`Objective::line_probe`])
    /// counts one evaluation in all under [`RateModel::Approximate`] — its
    /// set-up sweep; the probes touch no CSR entry — and one fused call per
    /// probe under [`RateModel::Exact`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Number of OD rows.
    pub fn num_ods(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total `(variable, fraction)` entries across all rows.
    pub fn nnz(&self) -> usize {
        self.row_entries.len()
    }

    /// Number of optimization variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-OD utilities.
    pub fn utilities(&self) -> &[U] {
        &self.utilities
    }

    /// The per-OD weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The sparse routing row of OD `k`: `(variable, r_{k,i})` pairs over
    /// the candidate links it traverses.
    pub fn row(&self, k: usize) -> &[(usize, f64)] {
        &self.row_entries[self.row_offsets[k]..self.row_offsets[k + 1]]
    }

    /// Effective sampling rate of OD `k` at rates `p` under this objective's
    /// rate model, clamped into `[0, 1]`.
    pub fn effective_rate(&self, k: usize, p: &Vector) -> f64 {
        match self.rate_model {
            RateModel::Approximate => self
                .row(k)
                .iter()
                .map(|&(v, r)| r * p[v])
                .sum::<f64>()
                .clamp(0.0, 1.0),
            RateModel::Exact => {
                let miss: f64 = self
                    .row(k)
                    .iter()
                    .map(|&(v, r)| (1.0 - p[v]).powf(r))
                    .product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
        }
    }

    /// All per-OD effective rates at `p`.
    pub fn effective_rates(&self, p: &Vector) -> Vec<f64> {
        (0..self.num_ods())
            .map(|k| self.effective_rate(k, p))
            .collect()
    }

    /// Objective value restricted to the OD rows in `ks`.
    fn value_over(&self, ks: Range<usize>, p: &Vector) -> f64 {
        ks.map(|k| self.weights[k] * self.utilities[k].value(self.effective_rate(k, p)))
            .sum()
    }

    /// Adds the gradient contributions of the OD rows in `ks` onto `out`.
    fn accumulate_gradient_over(&self, ks: Range<usize>, p: &Vector, out: &mut [f64]) {
        for k in ks {
            let rho = self.effective_rate(k, p);
            let m1 = self.weights[k] * self.utilities[k].d1(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    for &(v, r) in self.row(k) {
                        out[v] += m1 * r;
                    }
                }
                RateModel::Exact => {
                    // ∂ρ/∂p_v = r·(1−ρ)/(1−p_v)
                    let miss = 1.0 - rho;
                    for &(v, r) in self.row(k) {
                        let denom = (1.0 - p[v]).max(1e-12);
                        out[v] += m1 * r * miss / denom;
                    }
                }
            }
        }
    }

    /// Second directional derivative restricted to the OD rows in `ks`.
    fn curvature_over(&self, ks: Range<usize>, p: &Vector, s: &Vector) -> f64 {
        let mut total = 0.0;
        for k in ks {
            let rho = self.effective_rate(k, p);
            let w = self.weights[k];
            let (m1, m2) = (w * self.utilities[k].d1(rho), w * self.utilities[k].d2(rho));
            match self.rate_model {
                RateModel::Approximate => {
                    let drho: f64 = self.row(k).iter().map(|&(v, r)| r * s[v]).sum();
                    total += m2 * drho * drho;
                }
                RateModel::Exact => {
                    // With m(t) = Π(1−p_v−t·s_v)^r = 1−ρ(t):
                    //   ρ'  = m·σ₁,   ρ'' = m·(σ₂ − σ₁²)
                    // where σ₁ = Σ r·s_v/(1−p_v), σ₂ = Σ r·s_v²/(1−p_v)².
                    let miss = 1.0 - rho;
                    let mut s1 = 0.0;
                    let mut s2 = 0.0;
                    for &(v, r) in self.row(k) {
                        let q = (1.0 - p[v]).max(1e-12);
                        s1 += r * s[v] / q;
                        s2 += r * s[v] * s[v] / (q * q);
                    }
                    let drho = miss * s1;
                    let ddrho = miss * (s2 - s1 * s1);
                    total += m2 * drho * drho + m1 * ddrho;
                }
            }
        }
        total
    }

    /// First directional derivative restricted to the OD rows in `ks`.
    /// Algebraically identical to contracting the row's gradient with `s`,
    /// but without materializing a gradient vector.
    fn dir_derivative_over(&self, ks: Range<usize>, p: &Vector, s: &Vector) -> f64 {
        ks.map(|k| {
            let rho = self.effective_rate(k, p);
            let m1 = self.weights[k] * self.utilities[k].d1(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    m1 * self.row(k).iter().map(|&(v, r)| r * s[v]).sum::<f64>()
                }
                RateModel::Exact => {
                    let miss = 1.0 - rho;
                    m1 * miss
                        * self
                            .row(k)
                            .iter()
                            .map(|&(v, r)| r * s[v] / (1.0 - p[v]).max(1e-12))
                            .sum::<f64>()
                }
            }
        })
        .sum()
    }

    /// Fused single-pass kernel over the OD rows in `ks`: value, `φ'(0)` and
    /// `φ''(0)` along `s` (when given), and the gradient accumulated into
    /// `grad` (when given) — with `ρ_k`, `M'`, `M''` computed **once** per
    /// row instead of once per kernel. Returns `(value, derivative,
    /// curvature)`.
    ///
    /// Memory-traffic argument: for nnz-dominated instances each of the four
    /// separate kernels streams the whole CSR entry array through the cache;
    /// the fused kernel streams it once and amortizes the utility-derivative
    /// evaluations, so an exact-model line-search probe (`φ'` + `φ''`) costs
    /// one sweep instead of two, and the solver's per-iteration
    /// value+gradient costs one instead of two.
    fn fused_over(
        &self,
        ks: Range<usize>,
        p: &Vector,
        s: Option<&Vector>,
        mut grad: Option<&mut [f64]>,
    ) -> (f64, f64, f64) {
        let (mut value, mut derivative, mut curvature) = (0.0_f64, 0.0_f64, 0.0_f64);
        for k in ks {
            let rho = self.effective_rate(k, p);
            let w = self.weights[k];
            let u = &self.utilities[k];
            value += w * u.value(rho);
            let m1 = w * u.d1(rho);
            let m2 = w * u.d2(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    let mut drho = 0.0;
                    for &(v, r) in self.row(k) {
                        if let Some(g) = grad.as_deref_mut() {
                            g[v] += m1 * r;
                        }
                        if let Some(s) = s {
                            drho += r * s[v];
                        }
                    }
                    derivative += m1 * drho;
                    curvature += m2 * drho * drho;
                }
                RateModel::Exact => {
                    let miss = 1.0 - rho;
                    let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
                    for &(v, r) in self.row(k) {
                        let q = (1.0 - p[v]).max(1e-12);
                        if let Some(g) = grad.as_deref_mut() {
                            g[v] += m1 * r * miss / q;
                        }
                        if let Some(s) = s {
                            s1 += r * s[v] / q;
                            s2 += r * s[v] * s[v] / (q * q);
                        }
                    }
                    let drho = miss * s1;
                    let ddrho = miss * (s2 - s1 * s1);
                    derivative += m1 * drho;
                    curvature += m2 * drho * drho + m1 * ddrho;
                }
            }
        }
        (value, derivative, curvature)
    }

    /// Writes the full gradient into `out` (length `dim`).
    fn gradient_into_slice(&self, p: &Vector, out: &mut [f64]) {
        self.recorder.counter_add("eval_calls_total", 1);
        out.fill(0.0);
        self.accumulate_gradient_over(0..self.num_ods(), p, out);
    }

    /// Fused single-CSR-pass evaluation: the objective value, the first and
    /// second directional derivatives along `s` (when given), and the full
    /// gradient written into `grad` (when given) — all from **one** sweep
    /// over the rows, with `ρ_k` and the utility derivatives computed once
    /// per row. The solve loop uses this for its value+gradient iterations
    /// and [`RateModel::Exact`] line-search probes for their `φ'`/`φ''`,
    /// halving the CSR traffic of those paths.
    pub fn eval_fused(
        &self,
        p: &Vector,
        s: Option<&Vector>,
        grad: Option<&mut Vector>,
    ) -> FusedEval {
        self.recorder.counter_add("eval_calls_total", 1);
        self.recorder.counter_add("eval_fused_calls_total", 1);
        let dim = self.dim;
        let gslice = grad.map(|g| {
            if g.len() != dim {
                *g = Vector::zeros(dim);
            } else {
                g.as_mut_slice().fill(0.0);
            }
            g.as_mut_slice()
        });
        let (value, derivative, curvature) = self.fused_over(0..self.num_ods(), p, s, gslice);
        FusedEval {
            value,
            derivative,
            curvature,
        }
    }
}

impl<U: Utility> Objective for PlacementObjective<U> {
    fn value(&self, p: &Vector) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        self.value_over(0..self.num_ods(), p)
    }

    fn gradient(&self, p: &Vector) -> Vector {
        let mut g = Vector::zeros(self.dim);
        self.gradient_into_slice(p, g.as_mut_slice());
        g
    }

    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        self.curvature_over(0..self.num_ods(), p, s)
    }

    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        if out.len() != self.dim {
            *out = Vector::zeros(self.dim);
        }
        self.gradient_into_slice(p, out.as_mut_slice());
    }

    fn directional_derivative(&self, p: &Vector, s: &Vector) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        self.dir_derivative_over(0..self.num_ods(), p, s)
    }

    fn line_probe<'a>(
        &'a self,
        p: &'a Vector,
        s: &'a Vector,
    ) -> impl FnMut(f64) -> (f64, f64) + 'a {
        let mut probe = LineProbe::new(self, p, s);
        move |t| probe.at(t)
    }

    fn value_and_gradient_into(&self, p: &Vector, out: &mut Vector) -> f64 {
        self.eval_fused(p, None, Some(out)).value
    }
}

/// The objective restricted to the line `p + t·s` (see
/// [`Objective::line_probe`]).
///
/// Under [`RateModel::Approximate`] (eq. (7)) each OD's rate is affine along
/// the line, `ρ_k(p + t·s) = a_k + t·b_k` with `a_k = Σ r·p_v` and
/// `b_k = Σ r·s_v`, so one CSR sweep at construction records `(a_k, b_k)`
/// and every probe evaluates
/// `φ'(t) = Σ w·M'(ρ)·b_k`, `φ''(t) = Σ w·M''(ρ)·b_k²` over the ODs with
/// `b_k ≠ 0` — the others contribute exact zeros. The exact union rate is
/// not affine in `t`, so [`RateModel::Exact`] probes run the fused CSR
/// kernel at the trial point.
struct LineProbe<'a, U: Utility> {
    obj: &'a PlacementObjective<U>,
    p: &'a Vector,
    s: &'a Vector,
    scratch: LineScratch,
}

impl<'a, U: Utility> LineProbe<'a, U> {
    fn new(obj: &'a PlacementObjective<U>, p: &'a Vector, s: &'a Vector) -> Self {
        let mut scratch = std::mem::take(
            &mut *obj
                .line_scratch
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        match obj.rate_model {
            RateModel::Approximate => {
                obj.recorder.counter_add("eval_calls_total", 1);
                scratch.rows.clear();
                for k in 0..obj.num_ods() {
                    let (mut a, mut b) = (0.0_f64, 0.0_f64);
                    for &(v, r) in obj.row(k) {
                        a += r * p[v];
                        b += r * s[v];
                    }
                    if b != 0.0 {
                        scratch.rows.push((k, a, b));
                    }
                }
            }
            RateModel::Exact => {
                if scratch.trial.len() != p.len() {
                    scratch.trial = Vector::zeros(p.len());
                }
            }
        }
        LineProbe { obj, p, s, scratch }
    }

    /// `(φ'(t), φ''(t))`.
    fn at(&mut self, t: f64) -> (f64, f64) {
        let obj = self.obj;
        match obj.rate_model {
            RateModel::Approximate => {
                let (mut derivative, mut curvature) = (0.0_f64, 0.0_f64);
                for &(k, a, b) in &self.scratch.rows {
                    let rho = (a + t * b).clamp(0.0, 1.0);
                    let (w, u) = (obj.weights[k], &obj.utilities[k]);
                    derivative += w * u.d1(rho) * b;
                    curvature += w * u.d2(rho) * b * b;
                }
                (derivative, curvature)
            }
            RateModel::Exact => {
                let x = &mut self.scratch.trial;
                x.copy_from(self.p);
                x.axpy(t, self.s);
                let fused = obj.eval_fused(x, Some(self.s), None);
                (fused.derivative, fused.curvature)
            }
        }
    }
}

impl<U: Utility> Drop for LineProbe<'_, U> {
    fn drop(&mut self) {
        *self
            .obj
            .line_scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = std::mem::take(&mut self.scratch);
    }
}

/// Builds the reduced [`BoxLinearProblem`] (bounds `α`, loads `U`, capacity
/// `θ`) for `task`.
///
/// # Errors
/// Propagates [`nws_solver::SolverError`] — notably `Infeasible` when
/// `θ > Σ α_i·U_i` over the candidate links, i.e. the capacity exceeds what
/// the candidate monitors could ever sample.
pub fn build_problem(
    task: &MeasurementTask,
    index: &ReducedIndex,
) -> Result<BoxLinearProblem, CoreError> {
    let upper: Vector = (0..index.dim())
        .map(|v| task.alpha()[index.link(v).index()])
        .collect();
    let loads: Vector = (0..index.dim())
        .map(|v| task.link_loads()[index.link(v).index()])
        .collect();
    Ok(BoxLinearProblem::new(upper, loads, task.theta())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_routing::OdPair;
    use nws_topo::geant;

    fn small_task() -> MeasurementTask {
        let topo = geant();
        let janet = topo.require_node("JANET").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let lu = topo.require_node("LU").unwrap();
        MeasurementTask::builder(topo)
            .track("JANET-NL", OdPair::new(janet, nl), 9e6)
            .track("JANET-LU", OdPair::new(janet, lu), 6e3)
            .theta(50_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn reduced_index_roundtrip() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        assert_eq!(idx.dim(), task.candidate_links().len());
        for v in 0..idx.dim() {
            assert_eq!(idx.var(idx.link(v)), Some(v));
        }
        // Access link is not in the index.
        let access = nws_topo::janet_access_link(task.topology());
        assert_eq!(idx.var(access), None);

        let reduced: Vector = (0..idx.dim()).map(|v| v as f64 + 1.0).collect();
        let full = idx.expand(&reduced, task.topology().num_links());
        assert_eq!(full.len(), task.topology().num_links());
        for v in 0..idx.dim() {
            assert_eq!(full[idx.link(v).index()], v as f64 + 1.0);
        }
        assert_eq!(full[access.index()], 0.0);
    }

    #[test]
    fn effective_rates_models_agree_at_low_rates() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let approx = PlacementObjective::new(&task, &idx, RateModel::Approximate);
        let exact = PlacementObjective::new(&task, &idx, RateModel::Exact);
        let p = Vector::filled(idx.dim(), 1e-3);
        for k in 0..2 {
            let ra = approx.effective_rate(k, &p);
            let re = exact.effective_rate(k, &p);
            // Union bound, modulo one-ulp float noise on single-link paths.
            assert!(ra >= re - 1e-12, "union bound: {ra} < {re}");
            assert!((ra - re) / re < 1e-2, "k={k}: {ra} vs {re}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences_both_models() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p: Vector = (0..idx.dim()).map(|v| 1e-3 * (v as f64 + 1.0)).collect();
            let g = obj.gradient(&p);
            for v in 0..idx.dim() {
                let h = 1e-9;
                let mut pp = p.clone();
                pp[v] += h;
                let mut pm = p.clone();
                pm[v] -= h;
                let fd = (obj.value(&pp) - obj.value(&pm)) / (2.0 * h);
                assert!(
                    (fd - g[v]).abs() <= 1e-4 * g[v].abs().max(1.0),
                    "{model:?} var {v}: fd {fd} vs g {}",
                    g[v]
                );
            }
        }
    }

    #[test]
    fn curvature_matches_finite_differences_both_models() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
            let s: Vector = (0..idx.dim())
                .map(|v| if v % 2 == 0 { 1e-3 } else { -5e-4 })
                .collect();
            let c = obj.curvature_along(&p, &s);
            let h = 1e-3;
            let at = |t: f64| {
                let mut x = p.clone();
                x.axpy(t, &s);
                obj.value(&x)
            };
            let fd = (at(h) - 2.0 * at(0.0) + at(-h)) / (h * h);
            assert!(
                (fd - c).abs() <= 1e-3 * c.abs().max(1e-9),
                "{model:?}: fd {fd} vs curvature {c}"
            );
        }
    }

    #[test]
    fn curvature_negative_in_operating_regime() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p = Vector::filled(idx.dim(), 5e-3);
            let s = Vector::filled(idx.dim(), 1.0);
            assert!(obj.curvature_along(&p, &s) < 0.0, "{model:?}");
        }
    }

    #[test]
    fn fused_kernel_matches_separate_kernels() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim())
            .map(|v| if v % 3 == 0 { 1.0 } else { -0.4 })
            .collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let mut grad = Vector::zeros(idx.dim());
            let fused = obj.eval_fused(&p, Some(&s), Some(&mut grad));
            let tol = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
            assert!(tol(fused.value, obj.value(&p)), "{model:?} value");
            assert!(
                tol(fused.derivative, obj.directional_derivative(&p, &s)),
                "{model:?} derivative: {} vs {}",
                fused.derivative,
                obj.directional_derivative(&p, &s)
            );
            assert!(
                tol(fused.curvature, obj.curvature_along(&p, &s)),
                "{model:?} curvature"
            );
            let g = obj.gradient(&p);
            for v in 0..idx.dim() {
                assert!(tol(grad[v], g[v]), "{model:?} grad var {v}");
            }
            // Trait-level fused entry points agree too.
            let (d, c) = obj.line_probe(&p, &s)(0.0);
            assert!(tol(d, fused.derivative) && tol(c, fused.curvature));
            let mut g2 = Vector::zeros(idx.dim());
            let v2 = obj.value_and_gradient_into(&p, &mut g2);
            assert!(tol(v2, fused.value));
            assert_eq!(g2, obj.gradient(&p));
        }
    }

    #[test]
    fn line_search_eval_counts_per_model() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p = Vector::filled(idx.dim(), 1e-3);
        let s: Vector = (0..idx.dim())
            .map(|v| if v % 2 == 0 { 1e-3 } else { -1e-3 })
            .collect();
        for (model, expected) in [(RateModel::Approximate, 1), (RateModel::Exact, 5)] {
            let rec = Recorder::enabled();
            let obj = PlacementObjective::new(&task, &idx, model).with_recorder(rec.clone());
            let mut probe = obj.line_probe(&p, &s);
            for i in 0..5 {
                probe(0.1 * i as f64);
            }
            assert_eq!(
                rec.snapshot().counter("eval_calls_total"),
                Some(expected),
                "{model:?}"
            );
        }
    }

    #[test]
    fn gradient_into_reuses_buffer_and_matches() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let mut out = Vector::zeros(idx.dim());
            for step in 1..4 {
                let p = Vector::filled(idx.dim(), 1e-3 * step as f64);
                obj.gradient_into(&p, &mut out);
                assert_eq!(out, obj.gradient(&p), "{model:?} step {step}");
            }
            // Wrong-size buffers are resized rather than rejected.
            let mut small = Vector::zeros(1);
            let p = Vector::filled(idx.dim(), 1e-3);
            obj.gradient_into(&p, &mut small);
            assert_eq!(small.len(), idx.dim());
        }
    }

    #[test]
    fn directional_derivative_matches_gradient_contraction() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 1e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim()).map(|v| (v as f64) - 3.0).collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let direct = obj.directional_derivative(&p, &s);
            let contracted = obj.gradient(&p).dot(&s);
            assert!(
                (direct - contracted).abs() <= 1e-10 * contracted.abs().max(1.0),
                "{model:?}: {direct} vs {contracted}"
            );
        }
    }

    #[test]
    fn csr_rows_match_task_traversals() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let obj = PlacementObjective::new(&task, &idx, RateModel::Approximate);
        assert_eq!(obj.num_ods(), task.ods().len());
        assert_eq!(obj.dim(), idx.dim());
        let total: usize = (0..obj.num_ods()).map(|k| obj.row(k).len()).sum();
        assert_eq!(obj.nnz(), total);
        for k in 0..obj.num_ods() {
            for &(v, r) in obj.row(k) {
                let link = idx.link(v);
                assert!(task.routing().traverses(k, link));
                assert_eq!(r, task.routing().entry(k, link));
            }
        }
    }

    #[test]
    fn problem_construction_and_infeasibility() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let pb = build_problem(&task, &idx).unwrap();
        assert_eq!(pb.dim(), idx.dim());
        assert_eq!(pb.eq_rhs(), 50_000.0);

        // θ larger than all candidate loads combined → infeasible.
        let total: f64 = task
            .candidate_links()
            .iter()
            .map(|l| task.link_loads()[l.index()])
            .sum();
        let too_big = task.with_theta(total * 1.01).unwrap();
        let err = build_problem(&too_big, &ReducedIndex::new(&too_big)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Solver(nws_solver::SolverError::Infeasible { .. })
        ));
    }
}
