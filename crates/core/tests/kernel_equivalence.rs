//! Property tests pinning the fused single-pass kernel and the buffer-reusing
//! gradient to the separate kernels: for random synthetic tasks, value,
//! gradient, curvature and directional derivative must agree to 1e-12
//! relative under both rate models. The line-search probe is pinned to the
//! fused kernel at the trial point the same way, and solves through it are
//! cross-certified against solves through the trait's default probe.

#[path = "support/cross_kkt.rs"]
mod cross_kkt;

use nws_core::{
    build_problem, MeasurementTask, PlacementConfig, PlacementObjective, RateModel, ReducedIndex,
    SreUtility,
};
use nws_linalg::Vector;
use nws_routing::{OdPair, Router};
use nws_solver::{Objective, Solver};
use nws_topo::random::ring_with_chords;
use nws_topo::{NodeId, Topology};
use nws_traffic::demand::DemandMatrix;
use proptest::prelude::*;

/// One random OD term: sparse row over the variables, weight, utility `c`.
type OdSpec = (Vec<(usize, f64)>, f64, f64);

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// A random synthetic objective: per OD a sparse row over `dim` variables, a
/// weight, and an SRE utility constant, plus an evaluation point `p` and a
/// direction `s`. Rates stay in the low-rate regime ([0, 0.02]) where the
/// exact model is well away from its `p → 1` singularities.
fn objective_parts() -> impl Strategy<Value = (usize, Vec<OdSpec>, Vec<f64>, Vec<f64>)> {
    (2usize..24).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec(
                (
                    prop::collection::vec((0..dim, 0.05f64..1.0), 1..6),
                    0.1f64..2.0,
                    1e-6f64..1e-2,
                ),
                1..40,
            ),
            prop::collection::vec(0.0f64..0.02, dim..=dim),
            prop::collection::vec(-1.0f64..1.0, dim..=dim),
        )
    })
}

fn build(dim: usize, ods: &[OdSpec], model: RateModel) -> PlacementObjective {
    let utilities: Vec<SreUtility> = ods.iter().map(|&(_, _, c)| SreUtility::new(c)).collect();
    let weights: Vec<f64> = ods.iter().map(|&(_, w, _)| w).collect();
    let rows: Vec<Vec<(usize, f64)>> = ods.iter().map(|(row, _, _)| row.clone()).collect();
    PlacementObjective::from_parts(utilities, weights, rows, model, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_kernel_agrees_with_separate_kernels((dim, ods, p, s) in objective_parts()) {
        let p: Vector = p.into_iter().collect();
        let s: Vector = s.into_iter().collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = build(dim, &ods, model);
            let value = obj.value(&p);
            let gradient = obj.gradient(&p);
            let curvature = obj.curvature_along(&p, &s);
            let dir_scale = gradient.norm_inf() * s.norm_inf() * dim as f64;
            let mut g = Vector::zeros(dim);
            let fused = obj.eval_fused(&p, Some(&s), Some(&mut g));
            prop_assert!(
                rel_close(value, fused.value, 1e-12),
                "{model:?}: value {value} vs {}",
                fused.value
            );
            prop_assert!(
                (fused.derivative - gradient.dot(&s)).abs() <= 1e-12 * dir_scale.max(1.0),
                "{model:?}: derivative {} vs {}",
                fused.derivative,
                gradient.dot(&s)
            );
            prop_assert!(
                rel_close(curvature, fused.curvature, 1e-12),
                "{model:?}: curvature {curvature} vs {}",
                fused.curvature
            );
            for v in 0..dim {
                prop_assert!(
                    rel_close(gradient[v], g[v], 1e-12),
                    "{model:?} var {v}: {} vs {}",
                    gradient[v],
                    g[v]
                );
            }
        }
    }

    #[test]
    fn gradient_into_and_directional_agree((dim, ods, p, s) in objective_parts()) {
        let p: Vector = p.into_iter().collect();
        let s: Vector = s.into_iter().collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = build(dim, &ods, model);
            let gradient = obj.gradient(&p);
            let mut out = Vector::zeros(dim);
            obj.gradient_into(&p, &mut out);
            for v in 0..dim {
                prop_assert!(
                    rel_close(gradient[v], out[v], 1e-12),
                    "{model:?} var {v}: {} vs {}",
                    gradient[v],
                    out[v]
                );
            }
            // The contraction identity carries float-cancellation noise,
            // so the tolerance is absolute in the gradient's scale.
            let direct = obj.directional_derivative(&p, &s);
            let contracted = gradient.dot(&s);
            let scale = gradient.norm_inf() * s.norm_inf() * dim as f64;
            prop_assert!(
                (direct - contracted).abs() <= 1e-12 * scale.max(1.0),
                "{model:?}: {direct} vs {contracted}"
            );
        }
    }
}

/// [`objective_parts`] plus a random step `t` and a step that drives OD 0's
/// affine rate below zero (when the direction moves it at all), so probes
/// land on both sides of the `ρ = 0` clamp. Points sit in a wider box than
/// the kernel tests' so that steps of either sign stay in the exact
/// model's domain (`p + t·s < 1`).
fn probe_parts() -> impl Strategy<Value = (usize, Vec<OdSpec>, Vec<f64>, Vec<f64>, f64)> {
    (objective_parts(), 0.0f64..1.0, -0.2f64..0.2).prop_map(|((dim, ods, p, s), spread, t)| {
        let p = p.into_iter().map(|x| x * (1.0 + 4.0 * spread)).collect();
        (dim, ods, p, s, t)
    })
}

/// A step that moves OD 0's approximate rate `a + t·b` to `−a`, if that
/// step keeps every coordinate of `p + t·s` within `[−0.5, 0.5]`.
fn clamping_step(ods: &[OdSpec], p: &Vector, s: &Vector) -> Option<f64> {
    let (row, _, _) = &ods[0];
    let a: f64 = row.iter().map(|&(v, r)| r * p[v]).sum();
    let b: f64 = row.iter().map(|&(v, r)| r * s[v]).sum();
    let t = -2.0 * a / b;
    (t.is_finite() && t != 0.0 && (0..p.len()).all(|v| (p[v] + t * s[v]).abs() <= 0.5)).then_some(t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_probe_agrees_with_fused_kernel_at_trial_point(
        (dim, ods, p, s, t) in probe_parts()
    ) {
        let p: Vector = p.into_iter().collect();
        let s: Vector = s.into_iter().collect();
        let steps: Vec<f64> = [Some(0.0), Some(t), clamping_step(&ods, &p, &s)]
            .into_iter()
            .flatten()
            .collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = build(dim, &ods, model);
            let mut probe = obj.line_probe(&p, &s);
            for &t in &steps {
                let mut x = p.clone();
                x.axpy(t, &s);
                let mut g = Vector::zeros(dim);
                let fused = obj.eval_fused(&x, Some(&s), Some(&mut g));
                let (d, c) = probe(t);
                let dir_scale = g.norm_inf() * s.norm_inf() * dim as f64;
                prop_assert!(
                    (d - fused.derivative).abs() <= 1e-12 * dir_scale.max(1.0),
                    "{model:?} t={t}: derivative {d} vs {}",
                    fused.derivative
                );
                prop_assert!(
                    rel_close(c, fused.curvature, 1e-12),
                    "{model:?} t={t}: curvature {c} vs {}",
                    fused.curvature
                );
            }
        }
    }
}

/// Forwards every [`Objective`] method to a placement objective except
/// `line_probe`, so the Newton search takes the trait's default probe: a
/// trial point and separate `φ'`/`φ''` CSR sweeps per probe.
struct DefaultProbe<'a>(&'a PlacementObjective);

impl Objective for DefaultProbe<'_> {
    fn value(&self, p: &Vector) -> f64 {
        self.0.value(p)
    }
    fn gradient(&self, p: &Vector) -> Vector {
        self.0.gradient(p)
    }
    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
        self.0.curvature_along(p, s)
    }
    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        self.0.gradient_into(p, out);
    }
    fn directional_derivative(&self, p: &Vector, s: &Vector) -> f64 {
        self.0.directional_derivative(p, s)
    }
    fn value_and_gradient_into(&self, p: &Vector, out: &mut Vector) -> f64 {
        self.0.value_and_gradient_into(p, out)
    }
}

/// Seeded ring-with-chords task: each PoP `sources` picks tracks every
/// reachable destination with heavy-tailed sizes (scaled by `jitter`), over
/// capacity-weighted gravity background, `θ` at 0.2% of the tracked volume.
fn ring_task(
    chords: usize,
    sources: impl FnOnce(&Topology) -> Vec<NodeId>,
    background_seed: u64,
    mut jitter: impl FnMut() -> f64,
) -> MeasurementTask {
    let topo = ring_with_chords(160, chords, 42);
    let router = Router::new(&topo);
    let mut tracked = Vec::new();
    for src in sources(&topo) {
        let mut rank = 0usize;
        for dst in topo.node_ids().filter(|&d| d != src) {
            let od = OdPair::new(src, dst);
            if router.path(od).is_none() {
                continue;
            }
            let size = (9_000_000.0 / ((rank + 1) as f64).powf(1.2)).max(600.0) * jitter();
            rank += 1;
            tracked.push((format!("{}>{}", src.index(), dst.index()), od, size));
        }
    }
    drop(router);
    let background =
        DemandMatrix::gravity_capacity_weighted(&topo, 3e8, 0.5, background_seed).link_loads(&topo);
    let total: f64 = tracked.iter().map(|t| t.2).sum();
    let mut builder = MeasurementTask::builder(topo);
    for (name, od, size) in tracked {
        builder = builder.track(name, od, size);
    }
    builder
        .background_loads(&background)
        .theta(total * 0.002)
        .build()
        .expect("generated task is valid")
}

/// `random160`: 160 PoPs with 320 chords; the (last) maximum-degree PoP
/// tracks every destination, unjittered sizes.
fn random160() -> MeasurementTask {
    let ingress = |topo: &Topology| {
        let top = topo.node_ids().max_by_key(|&v| topo.out_links(v).count());
        vec![top.expect("nodes exist")]
    };
    ring_task(320, ingress, 7, || 1.0)
}

/// `ring160x4`: 160 PoPs with 160 chords; the four highest-degree PoPs
/// (ties to the lower index) each track every destination, sizes jittered
/// into `[0.95, 1.05)` by a splitmix64 stream seeded with 42.
fn ring160x4() -> MeasurementTask {
    let top4 = |topo: &Topology| {
        let mut nodes: Vec<NodeId> = topo.node_ids().collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(topo.out_links(v).count()), v.index()));
        nodes.truncate(4);
        nodes
    };
    let mut state = 42u64;
    ring_task(160, top4, 42, move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        0.95 + 0.1 * ((z >> 11) as f64 / (1u64 << 53) as f64)
    })
}

#[test]
fn restricted_line_search_solves_cross_certify_with_default_probe() {
    for (name, task, num_ods) in [
        ("random160", random160(), 159),
        ("ring160x4", ring160x4(), 636),
    ] {
        assert_eq!(task.ods().len(), num_ods, "{name}: instance drifted");
        let index = ReducedIndex::new(&task);
        let problem = build_problem(&task, &index).expect("feasible");
        let objective = PlacementObjective::new(&task, &index, RateModel::Approximate);
        let solver = Solver::new(PlacementConfig::default().solver);
        let restricted = solver.maximize(&objective, &problem).expect("solve");
        let default = solver
            .maximize(&DefaultProbe(&objective), &problem)
            .expect("solve");
        assert!(restricted.kkt_verified, "{name}: restricted solve");
        assert!(default.kkt_verified, "{name}: default-probe solve");
        for (label, sol) in [("restricted", &restricted), ("default", &default)] {
            if let Err(why) = cross_kkt::certify(&objective, &problem, sol.p.as_slice()) {
                panic!("{name}: {label} rates fail KKT on the shared problem: {why}");
            }
        }
    }
}
