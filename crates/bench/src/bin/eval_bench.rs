//! Micro-benchmark of the objective-evaluation engine: `value`/`gradient`/
//! `curvature_along`, the fused single-pass kernel vs the three separate
//! kernels, one line-search probe through the objective's line restriction
//! vs a fused CSR probe at the trial point, the cost of a live
//! observability recorder, the task build (routing matrix, loads,
//! candidates) behind each case, plus solver end-to-end timings, on GEANT,
//! Abilene, and a ~500-node random topology.
//!
//! Dependency-free (`std::time::Instant` only); emits machine-readable JSON
//! (default `BENCH_eval.json`) that `scripts/check_bench.py` validates and
//! gates in CI. Solver cases record iteration counts and objectives, so a
//! change to the kernels or the solver that moves the iterate path shows
//! up in the committed report.
//!
//! Flags: `--quick` (smaller instances, fewer reps — the CI smoke mode),
//! `--out PATH`.

use nws_bench::{banner, footer};
use nws_core::scenarios::{abilene_task, janet_task};
use nws_core::{
    solve_placement, MeasurementTask, PlacementConfig, PlacementObjective, RateModel, ReducedIndex,
    SreUtility, TaskBuilder,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_routing::{OdPair, Router};
use nws_solver::Objective;
use nws_topo::random::ring_with_chords;
use nws_topo::NodeId;
use std::hint::black_box;
use std::time::Instant;

struct EvalCase {
    name: String,
    model: RateModel,
    objective: PlacementObjective,
    point: Vector,
}

struct EvalResult {
    name: String,
    model: &'static str,
    num_ods: usize,
    nnz: usize,
    dim: usize,
    value_ms: f64,
    gradient_ms: f64,
    curvature_ms: f64,
}

struct FusedResult {
    name: String,
    model: &'static str,
    /// The three separate kernels (value + gradient + curvature) back to
    /// back.
    separate_ms: f64,
    /// Same quantities via one `eval_fused` sweep.
    fused_ms: f64,
}

struct ProbeResult {
    name: String,
    model: &'static str,
    /// One `(φ', φ'')` probe as a fused CSR sweep at the trial point
    /// `p + t·s` (copy, axpy, `eval_fused`).
    csr_probe_ms: f64,
    /// One probe of the line restriction, built once per search.
    restricted_probe_ms: f64,
    /// Building the line restriction (once per search).
    setup_ms: f64,
}

struct RoutingResult {
    name: String,
    num_ods: usize,
    /// Stored `(link, fraction)` entries of the task's routing matrix.
    nnz: usize,
    /// One `TaskBuilder::build`: routing matrix, link loads, candidates.
    task_build_ms: f64,
}

struct SolverResult {
    name: String,
    num_ods: usize,
    solve_ms: f64,
    iterations: usize,
    objective: f64,
}

struct ObsResult {
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_ratio: f64,
}

/// The median of `samples` (upper median for even lengths).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Median wall time of `reps` calls to `f`, in milliseconds (one warmup).
fn time_median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

fn model_name(model: RateModel) -> &'static str {
    match model {
        RateModel::Approximate => "approximate",
        RateModel::Exact => "exact",
    }
}

/// A low-rate evaluation point with some per-coordinate variation.
fn eval_point(dim: usize) -> Vector {
    (0..dim).map(|v| 1e-3 * (1.0 + (v % 7) as f64)).collect()
}

fn task_case(name: &str, task: &MeasurementTask, model: RateModel) -> EvalCase {
    let idx = ReducedIndex::new(task);
    EvalCase {
        name: name.to_string(),
        model,
        objective: PlacementObjective::new(task, &idx, model),
        point: eval_point(idx.dim()),
    }
}

/// The large synthetic case as a measurement task: a ring-with-chords
/// topology where every node is a source tracking `dsts_per_src`
/// destinations, sizes heavy-tailed by OD rank, θ a share of the tracked
/// volume, no background load.
fn random_eval_task(n: usize, chords: usize, dsts_per_src: usize) -> MeasurementTask {
    let topo = ring_with_chords(n, chords, 42);
    let router = Router::new(&topo);
    let mut ods = Vec::new();
    for src in topo.node_ids() {
        for j in 1..=dsts_per_src {
            // Deterministic destination spread around the ring.
            let dst_index = (src.index() + j * (n / (dsts_per_src + 1)).max(1) + j) % n;
            if dst_index == src.index() {
                continue;
            }
            let od = OdPair::new(src, NodeId::from_index(dst_index));
            if router.path(od).is_none() {
                continue;
            }
            // Heavy-tailed sizes: a few elephants, many mice.
            let rank = ods.len() + 1;
            ods.push((od, (9_000_000.0 / (rank as f64).powf(1.2)).max(600.0)));
        }
    }
    drop(router);
    let total: f64 = ods.iter().map(|&(_, size)| size).sum();
    let mut b = MeasurementTask::builder(topo);
    for (od, size) in ods {
        b = b.track(format!("F{}-{}", od.src.index(), od.dst.index()), od, size);
    }
    b.theta(total * 0.002)
        .build()
        .expect("synthetic task is valid")
}

/// The raw (utilities, weights, routing rows, dim) of an objective.
type ObjectiveParts = (Vec<SreUtility>, Vec<f64>, Vec<Vec<(usize, f64)>>, usize);

/// A task's objective parts straight from its routing rows, with every
/// link a variable (no candidate filtering), so several objectives can be
/// built over identical data.
fn task_parts(task: &MeasurementTask) -> ObjectiveParts {
    let routing = task.routing();
    let rows: Vec<Vec<(usize, f64)>> = (0..routing.num_ods())
        .map(|k| {
            routing
                .row(k)
                .iter()
                .map(|&(l, f)| (l.index(), f))
                .collect()
        })
        .collect();
    let utilities = task
        .ods()
        .iter()
        .map(|o| SreUtility::new(o.inv_mean_size))
        .collect();
    let weights = vec![1.0; rows.len()];
    (utilities, weights, rows, routing.num_links())
}

fn random_case(task: &MeasurementTask, model: RateModel) -> EvalCase {
    let (utilities, weights, rows, dim) = task_parts(task);
    EvalCase {
        name: format!("random{}", task.topology().num_nodes()),
        model,
        objective: PlacementObjective::from_parts(utilities, weights, rows, model, dim),
        point: eval_point(dim),
    }
}

fn run_eval_case(case: &EvalCase, reps: usize) -> EvalResult {
    let obj = &case.objective;
    let (num_ods, nnz, dim) = (obj.num_ods(), obj.nnz(), obj.dim());
    let p = &case.point;
    let s: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();

    let value_ms = time_median_ms(reps, || {
        black_box(obj.value(black_box(p)));
    });
    let mut g = Vector::zeros(dim);
    let gradient_ms = time_median_ms(reps, || {
        obj.gradient_into(black_box(p), &mut g);
        black_box(&g);
    });
    let curvature_ms = time_median_ms(reps, || {
        black_box(obj.curvature_along(black_box(p), black_box(&s)));
    });
    EvalResult {
        name: case.name.clone(),
        model: model_name(case.model),
        num_ods,
        nnz,
        dim,
        value_ms,
        gradient_ms,
        curvature_ms,
    }
}

/// Times the fused single-pass kernel (value + φ' + φ'' + gradient in one
/// CSR sweep) against the three separate kernels producing the same
/// quantities. `fusion_gain = separate_ms / fused_ms` is the
/// memory-traffic win.
fn run_fused_case(case: &EvalCase, reps: usize) -> FusedResult {
    let obj = &case.objective;
    let dim = obj.dim();
    let p = &case.point;
    let s: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    let mut g = Vector::zeros(dim);
    let separate_ms = time_median_ms(reps, || {
        black_box(obj.value(black_box(p)));
        obj.gradient_into(black_box(p), &mut g);
        black_box(&g);
        black_box(obj.curvature_along(black_box(p), black_box(&s)));
    });
    let fused_ms = time_median_ms(reps, || {
        black_box(obj.eval_fused(black_box(p), Some(black_box(&s)), Some(&mut g)));
        black_box(&g);
    });
    FusedResult {
        name: case.name.clone(),
        model: model_name(case.model),
        separate_ms,
        fused_ms,
    }
}

/// Times one Newton line-search probe two ways: through the objective's
/// line restriction ([`Objective::line_probe`], set up once) and as a fused
/// CSR sweep at a materialized trial point. Each sample evaluates a batch
/// of probes at spread-out steps (above timer noise on the small cases);
/// the two paths' samples interleave so host drift hits both alike.
/// `probe_gain = csr_probe_ms / restricted_probe_ms`; CI gates it at
/// `PROBE_FLOOR`.
fn run_probe_case(case: &EvalCase, reps: usize) -> ProbeResult {
    const BATCH: usize = 64;
    let obj = &case.objective;
    let dim = obj.dim();
    let p = &case.point;
    let s: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    let steps: Vec<f64> = (0..BATCH).map(|i| 1e-4 * i as f64).collect();
    let mut trial = p.clone();
    let mut probe = obj.line_probe(p, &s);
    let mut restricted = || {
        let t0 = Instant::now();
        for &t in &steps {
            black_box(probe(black_box(t)));
        }
        t0.elapsed().as_secs_f64() * 1e3 / BATCH as f64
    };
    let mut csr = || {
        let t0 = Instant::now();
        for &t in &steps {
            trial.copy_from(p);
            trial.axpy(black_box(t), &s);
            black_box(obj.eval_fused(&trial, Some(&s), None));
        }
        t0.elapsed().as_secs_f64() * 1e3 / BATCH as f64
    };
    restricted(); // warmup
    csr();
    let mut r_samples = Vec::with_capacity(reps);
    let mut c_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        r_samples.push(restricted());
        c_samples.push(csr());
    }
    // Hands the objective's scratch back, so the set-up timing reuses it
    // as a solve's later searches do.
    drop(probe);
    // Building and dropping a restriction: the per-search overhead.
    let setup_ms = time_median_ms(reps, || {
        let restriction = black_box(obj.line_probe(black_box(p), black_box(&s)));
        drop(restriction);
    });
    ProbeResult {
        name: case.name.clone(),
        model: model_name(case.model),
        csr_probe_ms: median(&mut c_samples),
        restricted_probe_ms: median(&mut r_samples),
        setup_ms,
    }
}

/// Random-topology measurement task for the solver end-to-end case: the
/// max-degree node tracks every reachable destination.
fn random_task(n: usize, chords: usize) -> MeasurementTask {
    let topo = ring_with_chords(n, chords, 42);
    let ingress = topo
        .node_ids()
        .max_by_key(|&v| topo.out_links(v).count())
        .expect("nodes exist");
    let router = Router::new(&topo);
    let mut tracked = Vec::new();
    for (rank, dst) in topo.node_ids().filter(|&d| d != ingress).enumerate() {
        if router.path(OdPair::new(ingress, dst)).is_none() {
            continue;
        }
        let size = (9_000_000.0 / ((rank + 1) as f64).powf(1.2)).max(600.0);
        tracked.push((dst, size));
    }
    drop(router);
    let bg = nws_traffic::demand::DemandMatrix::gravity_capacity_weighted(&topo, 3e8, 0.5, 7)
        .link_loads(&topo);
    let total: f64 = tracked.iter().map(|&(_, s)| s).sum();
    let mut b = MeasurementTask::builder(topo);
    for (dst, size) in tracked {
        b = b.track(format!("F{}", dst.index()), OdPair::new(ingress, dst), size);
    }
    b.background_loads(&bg)
        .theta(total * 0.002)
        .build()
        .expect("synthetic task is valid")
}

/// A fresh builder for `task`: its topology, tracked ODs and θ, with its
/// total link loads as background. The build routes the same ODs over the
/// same topology, so it does the same routing work.
fn rebuilder(task: &MeasurementTask) -> TaskBuilder {
    let mut b = MeasurementTask::builder(task.topology().clone());
    for o in task.ods() {
        b = b.track_with_c(o.name.clone(), o.od, o.size, o.inv_mean_size);
    }
    b.background_loads(task.link_loads()).theta(task.theta())
}

/// Times `TaskBuilder::build` for `task`'s specification (the builder is
/// assembled outside the timed region) and records its routing nnz.
fn run_routing_case(name: &str, task: &MeasurementTask, reps: usize) -> RoutingResult {
    let mut samples: Vec<f64> = (0..=reps)
        .map(|_| {
            let builder = rebuilder(task);
            let t0 = Instant::now();
            let built = builder.build().expect("rebuilt task is valid");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            black_box(built);
            ms
        })
        .skip(1) // warmup
        .collect();
    RoutingResult {
        name: name.to_string(),
        num_ods: task.ods().len(),
        nnz: task.routing().nnz(),
        task_build_ms: median(&mut samples),
    }
}

fn run_solver_case(name: &str, task: &MeasurementTask, max_iterations: usize) -> SolverResult {
    let mut config = PlacementConfig::default();
    config.solver.max_iterations = max_iterations;
    let t0 = Instant::now();
    let sol = solve_placement(task, &config).expect("solve succeeds");
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    SolverResult {
        name: name.to_string(),
        num_ods: task.ods().len(),
        solve_ms,
        iterations: sol.diagnostics.iterations,
        objective: sol.objective,
    }
}

/// Measures recorder overhead on the evaluation hot path: the same
/// objective (identical data) with the default no-op sink vs an enabled
/// `nws-obs` recorder. Run on the large random case — the scale the engine
/// targets; on toy instances the fixed per-call counter bump dwarfs the
/// sub-microsecond gradient itself. Samples interleave the two objectives
/// (so frequency/thermal drift hits both equally) and each sample times a
/// batch of gradient evaluations to stay above timer noise. CI gates
/// `overhead_ratio` at 1.05.
fn run_obs_overhead(
    disabled: &PlacementObjective,
    enabled: &PlacementObjective,
    reps: usize,
) -> ObsResult {
    const BATCH: usize = 8;
    let dim = disabled.dim();
    let p = eval_point(dim);
    let mut g = Vector::zeros(dim);
    let mut sample = |obj: &PlacementObjective| {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            obj.gradient_into(black_box(&p), &mut g);
            black_box(&g);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    sample(disabled); // warmup
    sample(enabled);
    let mut d_samples = Vec::with_capacity(reps);
    let mut e_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        d_samples.push(sample(disabled));
        e_samples.push(sample(enabled));
    }
    let disabled_ms = median(&mut d_samples);
    let enabled_ms = median(&mut e_samples);
    ObsResult {
        disabled_ms,
        enabled_ms,
        overhead_ratio: enabled_ms / disabled_ms,
    }
}

fn render_json(
    quick: bool,
    evals: &[EvalResult],
    fused: &[FusedResult],
    probes: &[ProbeResult],
    routing: &[RoutingResult],
    solvers: &[SolverResult],
    obs: &ObsResult,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"eval_bench\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"available_cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"obs\": {{\"disabled_ms\": {:.6}, \"enabled_ms\": {:.6}, \"overhead_ratio\": {:.6}}},\n",
        obs.disabled_ms, obs.enabled_ms, obs.overhead_ratio
    ));
    out.push_str("  \"eval_cases\": [\n");
    for (i, e) in evals.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"num_ods\": {}, \"nnz\": {}, \
             \"dim\": {},\n     \"value_ms\": {:.6}, \"gradient_ms\": {:.6}, \"curvature_ms\": {:.6}}}{}\n",
            e.name,
            e.model,
            e.num_ods,
            e.nnz,
            e.dim,
            e.value_ms,
            e.gradient_ms,
            e.curvature_ms,
            if i + 1 < evals.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"fused\": [\n");
    for (i, f) in fused.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"separate_ms\": {:.6}, \
             \"fused_ms\": {:.6}, \"fusion_gain\": {:.6}}}{}\n",
            f.name,
            f.model,
            f.separate_ms,
            f.fused_ms,
            f.separate_ms / f.fused_ms,
            if i + 1 < fused.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"line_probe\": [\n");
    for (i, p) in probes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"csr_probe_ms\": {:.6}, \
             \"restricted_probe_ms\": {:.6}, \"setup_ms\": {:.6}, \"probe_gain\": {:.6}}}{}\n",
            p.name,
            p.model,
            p.csr_probe_ms,
            p.restricted_probe_ms,
            p.setup_ms,
            p.csr_probe_ms / p.restricted_probe_ms,
            if i + 1 < probes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"routing\": [\n");
    for (i, r) in routing.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"num_ods\": {}, \"nnz\": {}, \"task_build_ms\": {:.6}}}{}\n",
            r.name,
            r.num_ods,
            r.nnz,
            r.task_build_ms,
            if i + 1 < routing.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"solver_cases\": [\n");
    for (i, s) in solvers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"num_ods\": {}, \"solve_ms\": {:.3}, \
             \"iterations\": {}, \"objective\": {:e}}}{}\n",
            s.name,
            s.num_ods,
            s.solve_ms,
            s.iterations,
            s.objective,
            if i + 1 < solvers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_eval.json".to_string());

    let t0 = banner(
        "eval_bench",
        "objective-evaluation engine: kernels, fusion, line probes, task build, obs overhead, \
         solver end-to-end",
    );
    let reps = if quick { 3 } else { 7 };
    let (rand_n, rand_chords, dsts) = if quick {
        (160, 320, 12)
    } else {
        (500, 1000, 40)
    };

    let janet = janet_task();
    let abilene = abilene_task(40_000.0, 7).expect("valid theta");

    let rand_eval = random_eval_task(rand_n, rand_chords, dsts);
    let eval_cases = vec![
        task_case("geant_janet", &janet, RateModel::Approximate),
        task_case("abilene", &abilene, RateModel::Approximate),
        random_case(&rand_eval, RateModel::Approximate),
        random_case(&rand_eval, RateModel::Exact),
    ];

    println!(
        "{:<16} {:<12} {:>8} {:>9} | gradient ms",
        "case", "model", "ods", "nnz"
    );
    let mut evals = Vec::new();
    for case in &eval_cases {
        let r = run_eval_case(case, reps);
        println!(
            "{:<16} {:<12} {:>8} {:>9} | {:.6}",
            r.name, r.model, r.num_ods, r.nnz, r.gradient_ms
        );
        evals.push(r);
    }

    println!();
    println!("fused kernel vs separate kernels:");
    let mut fused = Vec::new();
    for case in &eval_cases {
        let f = run_fused_case(case, reps);
        println!(
            "{:<16} {:<12} separate {:>9.3} ms   fused {:>9.3} ms   gain {:.2}x",
            f.name,
            f.model,
            f.separate_ms,
            f.fused_ms,
            f.separate_ms / f.fused_ms
        );
        fused.push(f);
    }

    println!();
    println!("line-search probe: line restriction vs fused CSR sweep at the trial point:");
    let mut probes = Vec::new();
    for case in &eval_cases {
        let p = run_probe_case(case, if quick { 25 } else { 41 });
        println!(
            "{:<16} {:<12} csr {:>9.6} ms   restricted {:>9.6} ms   gain {:.2}x   setup {:.6} ms",
            p.name,
            p.model,
            p.csr_probe_ms,
            p.restricted_probe_ms,
            p.csr_probe_ms / p.restricted_probe_ms,
            p.setup_ms
        );
        probes.push(p);
    }

    println!();
    println!("task build (routing matrix, loads, candidates):");
    let routing = vec![
        run_routing_case("geant_janet", &janet, reps),
        run_routing_case("abilene", &abilene, reps),
        run_routing_case(&format!("random{rand_n}"), &rand_eval, reps),
    ];
    for r in &routing {
        println!(
            "{:<16} {:>8} ods {:>9} nnz   build {:>9.3} ms",
            r.name, r.num_ods, r.nnz, r.task_build_ms
        );
    }

    println!();
    println!("solver end-to-end:");
    let solver_iters = if quick { 20 } else { 60 };
    let rand_task = random_task(rand_n, rand_chords);
    let solvers = vec![
        run_solver_case("geant_janet", &janet, 2000),
        run_solver_case("abilene", &abilene, 2000),
        run_solver_case(&format!("random{rand_n}"), &rand_task, solver_iters),
    ];
    for s in &solvers {
        println!(
            "{:<16} {:>9.1} ms   {:>5} iterations   objective {:e}",
            s.name, s.solve_ms, s.iterations, s.objective
        );
    }

    println!();
    let (utilities, weights, rows, dim) = task_parts(&rand_eval);
    let obs_disabled = PlacementObjective::from_parts(
        utilities.clone(),
        weights.clone(),
        rows.clone(),
        RateModel::Approximate,
        dim,
    );
    let obs_enabled =
        PlacementObjective::from_parts(utilities, weights, rows, RateModel::Approximate, dim)
            .with_recorder(Recorder::enabled());
    let obs = run_obs_overhead(&obs_disabled, &obs_enabled, if quick { 15 } else { 25 });
    println!(
        "obs overhead (gradient, batched): disabled {:.3} ms   enabled {:.3} ms   ratio {:.4}",
        obs.disabled_ms, obs.enabled_ms, obs.overhead_ratio
    );

    let json = render_json(quick, &evals, &fused, &probes, &routing, &solvers, &obs);
    std::fs::write(&out_path, &json).expect("write JSON report");
    println!();
    println!("wrote {out_path}");
    footer(t0);
}
