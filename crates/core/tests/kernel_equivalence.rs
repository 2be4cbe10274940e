//! Property tests pinning the fused single-pass kernel and the buffer-reusing
//! gradient to the separate kernels: for random synthetic tasks, value,
//! gradient, curvature and directional derivative must agree to 1e-12
//! relative under both rate models.

use nws_core::{PlacementObjective, RateModel, SreUtility};
use nws_linalg::Vector;
use nws_solver::Objective;
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
