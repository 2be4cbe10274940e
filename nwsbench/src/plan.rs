//! `plan-large`: in-process planning on the large instance. A cold solve
//! per set-up, then a seeded replan sequence through
//! `ServiceState::apply_event`, each replan checked against a cold solve
//! of the same spec.
//!
//! The demand sizes are the repository's own traffic model: days from
//! `nws_scenario::generate_trace` (diurnal demand with staggered peaks,
//! lognormal noise, flash crowds), each trace tick delivered as batched
//! `update_demands` of 5% of the ODs at a time. Structural events ride on
//! them in a fixed [`CYCLE`].

use crate::calib::{self, HostSpeed};
use crate::instance::{self, SplitMix, RING160X16, THETA_SHARE};
use crate::layers;
use crate::report::Report;
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use nws_core::{MeasurementTask, PlacementConfig};
use nws_scenario::{generate_trace, GeneratorConfig, Trace};
use nws_service::protocol::Request;
use nws_service::{ServiceState, SnapshotCell};
use std::time::Instant;

/// Set-ups before the window and again after it; `setup_s` is the median
/// of all of them. With two at each end, the nearest-rank median is the
/// second fastest, so one slow phase of the host at either end does not
/// move it.
const SETUPS: usize = 2;

/// Tail percentile of the run's replans: with the ~45 replans of a 40 s
/// run, the highest level that leaves ten replans beyond it.
pub const REPLAN_TAIL: f64 = 75.0;

/// The kinds of state-changing event in a replan sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A batched `update_demands` of 5% of the ODs to their trace sizes.
    Demand,
    /// `fail_link` of a fibre whose loss strands no OD.
    FailLink,
    /// `restore_link` of the fibre failed last.
    RestoreLink,
    /// `add_od` of an untracked pair.
    AddOd,
    /// `remove_od` of the pair added last.
    RemoveOd,
    /// `set_theta` to the instance's share of the tracked volume.
    SetTheta,
}

impl Kind {
    /// Short label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Demand => "demand",
            Kind::FailLink => "fail_link",
            Kind::RestoreLink => "restore_link",
            Kind::AddOd => "add_od",
            Kind::RemoveOd => "remove_od",
            Kind::SetTheta => "set_theta",
        }
    }
}

/// One replan cycle: two demand batches per structural event, each
/// structural kind once. Demand churn is most of the traffic model, and
/// every kind must recur in a run to be measured: a cycle takes ~11 s on
/// the tuning host, so a 40 s run replans each kind three or four times.
/// A failed fibre is restored, and an added OD removed, nine events later.
pub const CYCLE: [Kind; 15] = [
    Kind::Demand,
    Kind::FailLink,
    Kind::Demand,
    Kind::Demand,
    Kind::AddOd,
    Kind::Demand,
    Kind::Demand,
    Kind::SetTheta,
    Kind::Demand,
    Kind::Demand,
    Kind::RestoreLink,
    Kind::Demand,
    Kind::Demand,
    Kind::RemoveOd,
    Kind::Demand,
];

/// One event of each kind, for the traced run's sweep on workloads that
/// do not replan in process.
pub const SWEEP: [Kind; 6] = [
    Kind::Demand,
    Kind::FailLink,
    Kind::RestoreLink,
    Kind::AddOd,
    Kind::RemoveOd,
    Kind::SetTheta,
];

/// Share of the ODs a demand batch updates.
const BATCH_SHARE: f64 = 0.05;

/// Seeded generator of valid state-changing requests for a state, its
/// demand drawn from a generated trace of the state's ODs.
#[derive(Debug, Clone)]
pub struct EventGen {
    rng: SplitMix,
    /// The state the trace is generated for (its ODs and base sizes).
    base: ServiceState,
    /// The current trace day and its index.
    day: (u64, Trace),
    nodes: Vec<String>,
    failed: Option<(String, String)>,
    added: Option<String>,
    next_added: usize,
    /// OD updates handed out, and the OD order within a tick.
    handed: usize,
    order: Vec<usize>,
}

impl EventGen {
    /// A generator for `state`'s ODs and topology, seeded with `seed`.
    pub fn new(state: &ServiceState, seed: u64) -> Self {
        let mut nodes: Vec<String> = state
            .fibres()
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        nodes.sort();
        nodes.dedup();
        let mut rng = SplitMix::new(seed ^ 0xe7e7_0001);
        let mut order: Vec<usize> = (0..state.ods().len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        EventGen {
            rng,
            base: state.clone(),
            day: (0, trace_day(state, 0)),
            nodes,
            failed: None,
            added: None,
            next_added: 0,
            handed: 0,
            order,
        }
    }

    /// The demands of trace tick `t`; tick 0 is the starting point.
    fn demands(&mut self, t: u64) -> &[(String, f64)] {
        let per_day = GeneratorConfig::default().ticks;
        if self.day.0 != t / per_day {
            self.day = (t / per_day, trace_day(&self.base, t / per_day));
        }
        &self.day.1.ticks[(t % per_day) as usize].demands
    }

    /// The starting point: every OD at trace tick 0.
    pub fn start(&mut self) -> Request {
        Request::UpdateDemands {
            updates: self.demands(0).to_vec(),
        }
    }

    /// The next `k` OD updates: the trace's ticks from tick 1 on, each
    /// delivered one OD at a time in a seeded OD order.
    fn updates(&mut self, k: usize) -> Vec<(String, f64)> {
        let n = self.order.len();
        (0..k)
            .map(|_| {
                let t = 1 + (self.handed / n) as u64;
                let od = self.order[self.handed % n];
                self.handed += 1;
                self.demands(t)[od].clone()
            })
            .collect()
    }

    /// The next request of kind `kind`, valid for `state`. Kinds that need
    /// an earlier event (restore, remove) fall back to a demand batch when
    /// there is nothing to undo.
    pub fn next(&mut self, state: &ServiceState, kind: Kind) -> (Kind, Request) {
        match kind {
            Kind::Demand => (Kind::Demand, self.demand_batch()),
            Kind::FailLink => match self.safe_fibre(state) {
                Some((a, b)) => {
                    self.failed = Some((a.clone(), b.clone()));
                    (Kind::FailLink, Request::FailLink { a, b })
                }
                None => (Kind::Demand, self.demand_batch()),
            },
            Kind::RestoreLink => match self.failed.take() {
                Some((a, b)) => (Kind::RestoreLink, Request::RestoreLink { a, b }),
                None => (Kind::Demand, self.demand_batch()),
            },
            Kind::AddOd => {
                let name = format!("bench-added-{}", self.next_added);
                self.next_added += 1;
                let (src, dst) = loop {
                    let s = self.rng.below(self.nodes.len());
                    let d = self.rng.below(self.nodes.len());
                    let (src, dst) = (&self.nodes[s], &self.nodes[d]);
                    let taken = state.ods().iter().any(|o| o.src == *src && o.dst == *dst);
                    if s != d && !taken {
                        break (src.clone(), dst.clone());
                    }
                };
                // As large as a tracked OD drawn at random.
                let ods = state.ods();
                let size = ods[self.rng.below(ods.len())].size;
                self.added = Some(name.clone());
                (
                    Kind::AddOd,
                    Request::AddOd {
                        name,
                        src,
                        dst,
                        size,
                    },
                )
            }
            Kind::RemoveOd => match self.added.take() {
                Some(name) => (Kind::RemoveOd, Request::RemoveOd { name }),
                None => (Kind::Demand, self.demand_batch()),
            },
            Kind::SetTheta => {
                // The budget re-derived from the current demand, as the
                // instance derives it.
                let volume: f64 = state.ods().iter().map(|o| o.size).sum();
                (
                    Kind::SetTheta,
                    Request::SetTheta {
                        theta: volume * THETA_SHARE,
                    },
                )
            }
        }
    }

    /// The next [`BATCH_SHARE`] of the OD updates, as one batch.
    pub fn demand_batch(&mut self) -> Request {
        let n = self.order.len();
        let k = ((n as f64 * BATCH_SHARE).round() as usize).clamp(1, n);
        Request::UpdateDemands {
            updates: self.updates(k),
        }
    }

    /// The next OD update alone (the serving workload's update).
    pub fn demand_one(&mut self) -> Request {
        let (od, size) = self.updates(1).remove(0);
        Request::UpdateDemand { od, size }
    }

    /// A fibre whose failure leaves every OD routable (checked on a copy
    /// of the spec).
    pub fn safe_fibre(&mut self, state: &ServiceState) -> Option<(String, String)> {
        let fibres = state.fibres();
        for _ in 0..32 {
            let (a, b) = fibres[self.rng.below(fibres.len())].clone();
            if state.failed_fibres().contains(&(a.clone(), b.clone())) {
                continue;
            }
            let mut probe = state.clone();
            let req = Request::FailLink {
                a: a.clone(),
                b: b.clone(),
            };
            if probe.mutate_spec(&req).is_ok() && probe.check_spec().is_ok() {
                return Some((a, b));
            }
        }
        None
    }
}

/// Day `d` of the trace for `base`'s ODs: the generator's default shape
/// (48 ticks of 30 min), without its link flaps. Like the instance, the
/// trace is fixed (generated from [`instance::INSTANCE_SEED`]): where its
/// flash crowds fall moves replan times by up to 20% between runs, which would
/// swamp run-to-run comparisons. The workload seed drives the order in
/// which the ODs' updates arrive and the structural events.
fn trace_day(base: &ServiceState, d: u64) -> Trace {
    let cfg = GeneratorConfig {
        link_flaps: 0,
        seed: instance::INSTANCE_SEED.wrapping_add(d.wrapping_mul(0x9e37_79b9)),
        ..GeneratorConfig::default()
    };
    generate_trace(base, &cfg)
}

/// A state for `task` at trace tick 0, not yet solved, and the event
/// generator that continues from it.
pub fn initial(task: &MeasurementTask, seed: u64) -> (ServiceState, EventGen) {
    let mut state = ServiceState::from_task(task, PlacementConfig::default());
    let mut gen = EventGen::new(&state, seed);
    state
        .mutate_spec(&gen.start())
        .expect("trace tick 0 updates tracked ODs only");
    (state, gen)
}

/// Relative objective gap allowed between a warm replan and a cold solve
/// of the same spec: the solver stops once the projected gradient is
/// within `grad_tol` (relative) of zero, so each coordinate may sit up to
/// that slack from the optimum; summed over the problem's dimension this
/// bounds the relative objective gap.
pub fn objective_tolerance(dim: usize) -> f64 {
    PlacementConfig::default().solver.grad_tol * dim as f64
}

/// A set-up: instance, state at trace tick 0 and its cold startup solve.
struct Setup {
    task: MeasurementTask,
    state: ServiceState,
    gen: EventGen,
    build_ms: f64,
    cold_ms: f64,
    cold_kkt: bool,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let task = instance::build(RING160X16);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut state, gen) = initial(&task, seed);
    let report = state
        .resolve(false)
        .expect("startup solve of the generated instance");
    Setup {
        task,
        state,
        gen,
        build_ms,
        cold_ms: report.wall_ms,
        cold_kkt: report.kkt,
    }
}

/// A timing and the factor that brings it to reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When, seconds on the run's clock.
    pub at_s: f64,
    /// The raw value.
    pub value: f64,
    /// The factor to reference speed when measured beside the timing
    /// itself; `None` takes it from the kernel timings nearest `at_s`.
    pub scale: Option<f64>,
}

/// The values of `xs`, sorted: raw (`speed` `None`) or at reference speed.
pub fn values(xs: &[Timed], speed: Option<&HostSpeed>) -> Vec<f64> {
    let mut v: Vec<f64> = xs
        .iter()
        .map(|x| {
            let scale = speed.map_or(1.0, |h| x.scale.unwrap_or_else(|| h.scale_at(x.at_s)));
            x.value * scale
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// One set-up, timed between two calibration timings; its time and its
/// cold solve go into `setup_s` and `cold_ms`.
fn timed_setup(
    seed: u64,
    setup_s: &mut Vec<Timed>,
    cold_ms: &mut Vec<Timed>,
    rep: &mut Report,
) -> Setup {
    let (s, secs, scale) = calib::bracketed(|| setup(seed));
    let timed = |value| Timed {
        at_s: f64::NAN,
        value,
        scale: Some(scale),
    };
    setup_s.push(timed(secs));
    cold_ms.push(timed(s.cold_ms));
    rep.attempt(s.cold_kkt, || "set-up solve not KKT-verified".into());
    s
}

/// Runs `plan-large` for `seconds` and fills `rep`; with `trace`, also the
/// per-layer metrics.
pub fn run(seed: u64, seconds: u64, trace: bool, rep: &mut Report, root: &std::path::Path) {
    let clock = Instant::now();
    let now = || clock.elapsed().as_secs_f64();
    let mut speed = HostSpeed::default();
    let mut setup_s: Vec<Timed> = Vec::new();
    let mut cold_ms: Vec<Timed> = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        last = Some(timed_setup(seed, &mut setup_s, &mut cold_ms, rep));
    }
    let Setup {
        task,
        mut state,
        mut gen,
        build_ms,
        ..
    } = last.expect("at least one set-up");
    layers::describe_instance(rep, RING160X16.name, &task, &state);
    let start_state = state.clone();

    let dim = task.topology().num_links();
    let tol = objective_tolerance(dim);
    let mut tracer = Tracer::new(trace);
    // The cold twin carries the same spec but never installs a solution,
    // so every resolve on a copy of it is a cold solve.
    let (mut twin, _) = initial(&task, seed);
    let cell = SnapshotCell::new(layers::read_snapshot(&state, 1));
    let mut epoch = 1u64;
    let mut replan: Vec<Timed> = Vec::new();
    let mut replan_by_kind: Vec<(Kind, Samples)> = Vec::new();
    let mut visible: Vec<Timed> = Vec::new();
    let mut kinds: Vec<(Kind, usize, usize)> = Vec::new();
    let mut max_gap = 0.0f64;
    let mut events: Vec<Request> = Vec::new();
    let origin = Instant::now();
    let mut i = 0usize;
    // Whole cycles only, so every run replans the same mix of events.
    while origin.elapsed().as_secs_f64() < seconds as f64 || !i.is_multiple_of(CYCLE.len()) {
        let (kind, req) = gen.next(&state, CYCLE[i % CYCLE.len()]);
        i += 1;
        speed.sample(now());
        let root_span = tracer.open("plan.event", i as u64);
        let t0 = Instant::now();
        let applied = tracer.time("state.apply_event", i as u64, || {
            state.apply_event(&req, false)
        });
        let replan_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = match applied {
            Ok(r) => r,
            Err(e) => {
                tracer.close(root_span);
                rep.attempt(false, || format!("{} rejected: {e}", req.name()));
                continue;
            }
        };
        epoch += 1;
        tracer.time("read_path.publish", i as u64, || {
            cell.publish(layers::read_snapshot(&state, epoch))
        });
        let seen = tracer.time("read_path.load", i as u64, || cell.load().epoch);
        let visible_ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.close(root_span);
        let at_s = now();
        replan.push(Timed {
            at_s,
            value: replan_ms,
            scale: None,
        });
        visible.push(Timed {
            at_s,
            value: visible_ms,
            scale: None,
        });
        match replan_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, s)) => s.push(replan_ms),
            None => {
                let mut s = Samples::new();
                s.push(replan_ms);
                replan_by_kind.push((kind, s));
            }
        }
        events.push(req.clone());

        let twin_ok = twin.mutate_spec(&req).is_ok();
        let mut cold = twin.clone();
        let check = tracer.time("solver.cold_check", i as u64, || cold.resolve(false));
        speed.sample(now());
        rep.attempt(seen == epoch && twin_ok, || {
            format!(
                "event {i} ({}): published epoch {epoch} read back as {seen}",
                req.name()
            )
        });
        rep.attempt(report.kkt, || {
            format!("event {i} ({}): warm replan not KKT-verified", req.name())
        });
        match check {
            Ok(c) => {
                cold_ms.push(Timed {
                    at_s: now(),
                    value: c.wall_ms,
                    scale: None,
                });
                rep.attempt(c.kkt, || {
                    format!("event {i} ({}): cold solve not KKT-verified", req.name())
                });
                let gap = (report.objective - c.objective).abs() / c.objective.abs().max(1.0);
                max_gap = max_gap.max(gap);
                rep.attempt(gap <= tol, || {
                    format!(
                        "event {i} ({}): warm objective {} vs cold {} (rel gap {gap:.3e} > {tol:.3e})",
                        req.name(),
                        report.objective,
                        c.objective
                    )
                });
                kinds.push((kind, report.iterations, c.iterations));
            }
            Err(e) => rep.attempt(false, || format!("event {i}: cold check failed: {e}")),
        }
    }
    rep.fact(
        "events",
        format!("{} cycles of {} events", i / CYCLE.len(), CYCLE.len()),
    );
    for _ in 0..SETUPS {
        timed_setup(seed, &mut setup_s, &mut cold_ms, rep);
    }

    let h = Some(&speed);
    let pct = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
    rep.metric_noted(
        "setup_s",
        pct(&values(&setup_s, h), 50.0),
        "s",
        setup_s.len(),
        "median of set-ups before and after the window, at reference speed",
    );
    rep.metric(
        "raw.setup_s",
        pct(&values(&setup_s, None), 50.0),
        "s",
        setup_s.len(),
    );
    for (name, xs, q, what) in [
        ("cold_solve_ms_p50", &cold_ms, 50.0, "cold solve p50"),
        ("latency_ms_p50", &replan, 50.0, "replan p50"),
        ("latency_ms_tail", &replan, REPLAN_TAIL, "replan p75"),
        ("visible_ms_p50", &visible, 50.0, "event to visible p50"),
    ] {
        let norm = pct(&values(xs, h), q);
        let raw = pct(&values(xs, None), q);
        let note = format!("{what} over the run, at reference speed");
        rep.metric_noted(name, norm, "ms", xs.len(), &note);
        rep.metric(&format!("raw.{name}"), raw, "ms", xs.len());
    }
    let raw_replans = values(&replan, None);
    rep.metric("replan_ms_p50", pct(&raw_replans, 50.0), "ms", replan.len());
    rep.metric_noted(
        "replan_ms_p90",
        pct(&raw_replans, 90.0),
        "ms",
        replan.len(),
        "all replans of the run, raw",
    );
    for (kind, s) in &replan_by_kind {
        rep.metric(
            &format!("replan_ms_p50.{}", kind.label()),
            s.p50().unwrap_or(0.0),
            "ms",
            s.len(),
        );
    }
    rep.metric("check.max_objective_gap", max_gap, "ratio", kinds.len());
    rep.metric("check.objective_tolerance", tol, "ratio", 1);
    rep.metric_noted(
        "host.kernel_ms_p50",
        speed.median_ms(),
        "ms",
        speed.len(),
        &format!("calibration kernel; reference {} ms", calib::REF_MS),
    );

    if trace {
        events.truncate(12);
        let visible_p50 = rep.get("raw.visible_ms_p50").unwrap_or(0.0);
        let mut lt = layers::LayerInputs {
            task: &task,
            state: &start_state,
            gen: None,
            build_ms,
            kinds,
            events,
            net: None,
            stages: &["state.apply_event", "read_path.publish"],
            e2e_ms: visible_p50,
            window_ms: 0.0,
            root,
            seed,
        };
        layers::run_all(&mut lt, &mut tracer, rep);
        layers::finish_trace(&tracer, rep, root, "plan-large", seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_core::scenarios::janet_task;

    #[test]
    fn demand_walks_trace_ticks_one_od_at_a_time() {
        let task = janet_task();
        let (state, mut gen) = initial(&task, 7);
        let n = state.ods().len();
        let trace = trace_day(
            &ServiceState::from_task(&task, PlacementConfig::default()),
            0,
        );
        // The set-up installed tick 0.
        for (od, (name, size)) in state.ods().iter().zip(&trace.ticks[0].demands) {
            assert_eq!((&od.name, od.size), (name, *size));
        }
        // The next n updates deliver tick 1, every OD once.
        let mut seen: Vec<(String, f64)> = (0..n)
            .map(|_| match gen.demand_one() {
                Request::UpdateDemand { od, size } => (od, size),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        let mut tick1 = trace.ticks[1].demands.clone();
        tick1.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(seen, tick1);
        // A batch carries 5% of the ODs (at least one).
        match gen.demand_batch() {
            Request::UpdateDemands { updates } => {
                assert_eq!(updates.len(), ((n as f64 * 0.05).round() as usize).max(1));
                assert_eq!(
                    updates[0].1,
                    trace.ticks[2]
                        .demands
                        .iter()
                        .find(|d| d.0 == updates[0].0)
                        .unwrap()
                        .1
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
