//! The traced run's per-layer measurements: calls into each layer's public
//! functions, timed from the benchmark's own code on the workload's
//! instance and request stream.

use crate::host;
use crate::plan::{EventGen, Kind, SWEEP};
use crate::report::Report;
use crate::serve;
use crate::stats::Samples;
use crate::trace::{self, Tracer};
use nws_core::scenarios::janet_task;
use nws_core::{
    solve_placement, solve_placement_observed, MeasurementTask, PlacementConfig,
    PlacementObjective, RateModel, ReducedIndex,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_service::json::{obj, Json};
use nws_service::metrics::Metrics;
use nws_service::protocol::Request;
use nws_service::{
    parse_incoming, PersistConfig, ReadSnapshot, ServiceState, SnapshotCell, StateStore,
};
use nws_store::{FsyncPolicy, Store, StoreOptions};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload. Printed beside the metric in every traced report.
pub const MOVES: [(&str, &str); 23] = [
    ("routing.task_build_ms", "setup_s [all]"),
    (
        "routing.rebuild_ms_p50",
        "latency_ms_p50 [plan-large, serve-update]",
    ),
    (
        "routing.rebuild_share",
        "latency_ms_p50 [plan-large, serve-update]",
    ),
    ("core.eval_fused_us", "cold_solve_ms_p50 [all]"),
    ("solver.warm_over_cold.", "latency_ms_tail [plan-large]"),
    ("solver.direction_ms", "cold_solve_ms_p50 [all]"),
    ("solver.projection_ms", "cold_solve_ms_p50 [all]"),
    ("solver.line_search_ms", "cold_solve_ms_p50 [all]"),
    ("solver.kkt_ms", "cold_solve_ms_p50 [all]"),
    ("solver.kkt_verified_frac", "failed operations [all]"),
    (
        "state.apply_event_ms_p50",
        "latency_ms_p50 [plan-large, serve-update]",
    ),
    ("state.clone_ms", "latency_ms_p50 [serve-update]"),
    ("daemon.unattributed_ms", "latency_ms_p50 [serve-update]"),
    ("store.append_us_", "latency_ms_tail [serve-update]"),
    ("persist.snapshot_ms", "latency_ms_tail [serve-update]"),
    ("persist.recover_ms", "recover_s (report) [serve-update]"),
    (
        "persist.replayed_events",
        "recover_s (report) [serve-update]",
    ),
    ("protocol.parse_us.", "read_ms_p50 (report) [serve-update]"),
    ("json.encode_us.", "read_ms_p50 (report) [serve-update]"),
    ("read_path.publish_us", "visible_ms_p50 [serve-update]"),
    ("read_path.load_ns_", "read_ms_p99 (report) [serve-update]"),
    ("net.", "read_ms_p50 (report) [serve-update]"),
    ("obs.", "read_ms_p99 (report) [serve-update]"),
];

/// The end-to-end metric a per-layer metric should move, if listed.
pub fn moves(metric: &str) -> Option<&'static str> {
    MOVES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map(|(_, target)| *target)
}

/// Prints the instance shape as run facts.
pub fn describe_instance(
    rep: &mut Report,
    shape: &str,
    task: &MeasurementTask,
    state: &ServiceState,
) {
    let idx = ReducedIndex::new(task);
    let obj = PlacementObjective::new(task, &idx, RateModel::default());
    rep.fact(
        "instance",
        format!(
            "{shape}: {} ODs, {} links, nnz {}, dim {}, {} active monitors",
            task.ods().len(),
            task.topology().num_links(),
            obj.nnz(),
            obj.dim(),
            state.installed().map_or(0, |i| i.active_monitors)
        ),
    );
}

/// The read snapshot the daemon would publish for `state` at `epoch`.
pub fn read_snapshot(state: &ServiceState, epoch: u64) -> ReadSnapshot {
    let monitors = match state.active_rates() {
        Ok(rates) => Json::Arr(
            rates
                .iter()
                .map(|(label, p)| {
                    obj(vec![
                        ("link", Json::Str(label.clone())),
                        ("rate", Json::Num(*p)),
                    ])
                })
                .collect(),
        ),
        Err(_) => Json::Arr(Vec::new()),
    };
    ReadSnapshot {
        epoch,
        theta: state.theta(),
        objective: state.installed().map(|i| i.objective),
        monitors,
        ods: state.ods().len(),
        persistence: "durable",
        persistence_degraded: false,
        persistence_error: None,
        serving_uncertified: state.installed().is_some_and(|i| !i.kkt),
        degraded_solves: 0,
        last_good_fallbacks: 0,
        stats: Metrics::default().to_json(),
        wal_stats: Json::Null,
        queue_capacity: 64,
    }
}

/// The `query_rates` answer as the read path builds it.
fn query_rates_response(snap: &ReadSnapshot) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("cmd", Json::Str("query_rates".into())),
        ("epoch", Json::UInt(snap.epoch)),
        ("theta", Json::Num(snap.theta)),
        ("objective", snap.objective.map_or(Json::Null, Json::Num)),
        ("monitors", snap.monitors.clone()),
    ])
}

/// What a socket run (or the probe session) measured about the network
/// and the daemon.
#[derive(Debug, Default)]
pub struct NetFacts {
    /// `(command, round-trip p50 ms, response bytes)`.
    pub round_trips: Vec<(&'static str, f64, usize)>,
    /// Counters and histogram sums scraped from `metrics`.
    pub counters: HashMap<String, f64>,
    /// Mutations acknowledged in the session.
    pub mutations_acked: f64,
    /// `update_demand` ack p50, ms.
    pub ack_p50_ms: f64,
    /// The session's updates when they are not the workload's own events
    /// (the probe session), replayed to attribute the ack.
    pub updates: Option<Vec<Request>>,
}

/// Inputs of the per-layer suite.
pub struct LayerInputs<'a> {
    /// The workload's instance.
    pub task: &'a MeasurementTask,
    /// Its state after the startup solve.
    pub state: &'a ServiceState,
    /// The workload's event generator as it stood at `state`, for the
    /// sweep over every event kind; `None` when `kinds` is filled.
    pub gen: Option<EventGen>,
    /// `MeasurementTask` build time of the instance, ms.
    pub build_ms: f64,
    /// `(kind, warm iterations, cold iterations)` the workload observed;
    /// empty means the suite sweeps every kind itself.
    pub kinds: Vec<(Kind, usize, usize)>,
    /// The workload's state-changing requests, replayed layer by layer.
    pub events: Vec<Request>,
    /// Network facts from the workload's socket run; `None` runs a short
    /// probe session.
    pub net: Option<NetFacts>,
    /// The stages whose p50s are summed against `e2e_ms`.
    pub stages: &'static [&'static str],
    /// The end-to-end p50 the stage sum explains, ms.
    pub e2e_ms: f64,
    /// Coalesce window counted as a stage, ms.
    pub window_ms: f64,
    /// Scratch directory for stores.
    pub root: &'a Path,
    /// Workload seed.
    pub seed: u64,
}

/// Times `f` `n` times and returns the median, in µs.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::new();
    for _ in 0..n {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s.p50().unwrap_or(0.0)
}

/// Per-call time of `f` in ns, median over `batches` batches of `per`.
fn per_call_ns(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::new();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per {
            f();
        }
        s.push(t.elapsed().as_secs_f64() * 1e9 / per as f64);
    }
    s.p50().unwrap_or(0.0)
}

/// Per-call time of `f` in ns with `threads` threads calling it at once.
fn contended_ns(threads: usize, per: usize, f: impl Fn() + Sync) -> f64 {
    let t = Instant::now();
    std::thread::scope(|sc| {
        for _ in 0..threads {
            sc.spawn(|| {
                for _ in 0..per {
                    f();
                }
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e9 / per as f64
}

/// Self time per solve of each solver phase, ms, from a recorder's span
/// tree (preorder with depths).
fn solver_phase_ms(rec: &Recorder) -> HashMap<&'static str, f64> {
    let spans = rec.snapshot().spans;
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    let solves = spans
        .iter()
        .filter(|s| s.name == "solve")
        .map(|s| s.count)
        .sum::<u64>()
        .max(1) as f64;
    for (i, s) in spans.iter().enumerate() {
        let children: f64 = spans[i + 1..]
            .iter()
            .take_while(|c| c.depth > s.depth)
            .filter(|c| c.depth == s.depth + 1)
            .map(|c| c.total_ms)
            .sum();
        *out.entry(s.name).or_default() += (s.total_ms - children).max(0.0) / solves;
    }
    out
}

/// Stage timings of one layer-by-layer replay, ms.
#[derive(Debug, Default)]
struct Stages {
    by_name: HashMap<&'static str, Samples>,
    total_ms: f64,
}

impl Stages {
    fn push(&mut self, name: &'static str, ms: f64) {
        self.by_name.entry(name).or_default().push(ms);
    }

    fn p50(&self, name: &str) -> f64 {
        self.by_name.get(name).and_then(Samples::p50).unwrap_or(0.0)
    }

    fn len(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Samples::len)
    }
}

/// Replays `events` on a copy of `state` one layer at a time: parse, then
/// `apply_event` (with the full rebuild and the state clone timed beside
/// it), then `record_applied`, then publish, then encode.
fn replay(
    state: &ServiceState,
    events: &[Request],
    store_dir: Option<&Path>,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Stages {
    let mut st = Stages::default();
    let mut s = state.clone();
    let mut store = store_dir.and_then(|d| {
        let _ = std::fs::remove_dir_all(d);
        let mut cfg = PersistConfig::new(d);
        cfg.fsync = FsyncPolicy::Always;
        match StateStore::open(&cfg, &mut s, &Recorder::disabled()) {
            Ok((store, _)) => Some(store),
            Err(e) => {
                rep.attempt(false, || format!("replay store: {e}"));
                None
            }
        }
    });
    let cell = SnapshotCell::new(read_snapshot(&s, 1));
    let mut epoch = 1;
    let origin = Instant::now();
    for (i, req) in events.iter().enumerate() {
        let id = i as u64 + 1;
        let line = req.to_json().encode();
        let root = tracer.open("replay.request", id);
        let mut stage = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            let end = Instant::now();
            tracer.record(name, id, t, end);
            st.push(name, (end - t).as_secs_f64() * 1e3);
        };
        let mut parsed = None;
        stage(tracer, "protocol.parse_incoming", &mut || {
            parsed = Some(parse_incoming(&line))
        });
        let inc = match parsed.expect("parse ran") {
            Ok(inc) => inc,
            Err(e) => {
                rep.attempt(false, || {
                    format!("replay: request {id} does not parse: {e}")
                });
                tracer.close(root);
                continue;
            }
        };
        let mut applied = None;
        stage(tracer, "state.apply_event", &mut || {
            applied = Some(s.apply_event(&inc.req, false))
        });
        match applied.expect("apply ran") {
            Ok(r) => rep.attempt(r.kkt, || {
                format!("replay: request {id} solve not KKT-verified")
            }),
            Err(e) => {
                rep.attempt(false, || format!("replay: request {id} rejected: {e}"));
                tracer.close(root);
                continue;
            }
        }
        stage(tracer, "routing.check_spec", &mut || {
            black_box(s.check_spec().is_ok());
        });
        stage(tracer, "state.clone", &mut || {
            black_box(s.clone());
        });
        if let Some(store) = store.as_mut() {
            let mut res = Ok(());
            stage(tracer, "persist.record_applied", &mut || {
                res = store.record_applied(&inc.req, &s, &[])
            });
            if let Err(e) = res {
                rep.attempt(false, || format!("replay: journal failed: {e}"));
            }
        }
        epoch += 1;
        stage(tracer, "read_path.publish", &mut || {
            cell.publish(read_snapshot(&s, epoch));
        });
        stage(tracer, "json.encode", &mut || {
            let snap = cell.load();
            let ack = obj(vec![
                ("ok", Json::Bool(true)),
                ("seq", Json::Num(id as f64)),
                ("cmd", Json::Str(inc.req.name().into())),
                ("epoch", Json::UInt(epoch)),
            ]);
            black_box(ack.encode());
            black_box(query_rates_response(&snap).encode());
        });
        tracer.close(root);
    }
    st.total_ms = origin.elapsed().as_secs_f64() * 1e3;
    st
}

/// Runs every per-layer measurement and adds it to `rep`.
pub fn run_all(lt: &mut LayerInputs<'_>, tracer: &mut Tracer, rep: &mut Report) {
    let nproc = host::nproc();
    let cfg = PlacementConfig::default();
    let task = lt.task;

    // routing / core
    rep.metric("routing.task_build_ms", lt.build_ms, "ms", 1);
    let idx = ReducedIndex::new(task);
    let objective = PlacementObjective::new(task, &idx, RateModel::default());
    let dim = objective.dim();
    rep.metric("core.nnz", objective.nnz() as f64, "count", 1);
    rep.metric("core.dim", dim as f64, "count", 1);
    let p: Vector = (0..dim).map(|v| 1e-3 * (1.0 + (v % 7) as f64)).collect();
    let dir: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    let mut g = Vector::zeros(dim);
    let fused = median_us(200, || {
        black_box(objective.eval_fused(black_box(&p), Some(&dir), Some(&mut g)));
    });
    rep.metric("core.eval_fused_us", fused, "us", 200);

    // solver: cold solves with the phase span tree, and Table I
    let mut kkt = (0usize, 0usize);
    let rec = Recorder::enabled();
    let mut cold_its = 0;
    for _ in 0..3 {
        match solve_placement_observed(task, &cfg, &rec) {
            Ok(sol) => {
                cold_its = sol.diagnostics.iterations;
                kkt.0 += usize::from(sol.kkt_verified);
                kkt.1 += 1;
                rep.attempt(sol.kkt_verified, || "cold solve not KKT-verified".into());
            }
            Err(e) => rep.attempt(false, || format!("cold solve failed: {e}")),
        }
    }
    rep.metric("solver.cold_iterations", cold_its as f64, "count", 3);
    let phases = solver_phase_ms(&rec);
    for (metric, span) in [
        ("solver.direction_ms", "direction"),
        ("solver.projection_ms", "projection"),
        ("solver.line_search_ms", "line_search"),
        ("solver.kkt_ms", "kkt_check"),
    ] {
        rep.metric(metric, phases.get(span).copied().unwrap_or(0.0), "ms", 3);
    }
    match solve_placement(&janet_task(), &cfg) {
        Ok(sol) => {
            rep.metric(
                "solver.cold_iterations_geant_janet",
                sol.diagnostics.iterations as f64,
                "count",
                1,
            );
            kkt.0 += usize::from(sol.kkt_verified);
            kkt.1 += 1;
            rep.attempt(sol.kkt_verified, || {
                "geant-janet solve not KKT-verified".into()
            });
        }
        Err(e) => rep.attempt(false, || format!("geant-janet solve failed: {e}")),
    }

    // solver: warm against cold per event kind
    if lt.kinds.is_empty() {
        let mut s = lt.state.clone();
        let mut gen = lt
            .gen
            .clone()
            .unwrap_or_else(|| EventGen::new(&s, lt.seed ^ 0x5eeb));
        for k in SWEEP {
            let (kind, req) = gen.next(&s, k);
            match s.apply_event(&req, true) {
                Ok(r) => {
                    kkt.0 += usize::from(r.kkt);
                    kkt.1 += 1;
                    rep.attempt(r.kkt, || format!("sweep {}: not KKT-verified", req.name()));
                    if let Some(c) = r.cold {
                        lt.kinds.push((kind, r.iterations, c.iterations));
                    }
                }
                Err(e) => rep.attempt(false, || format!("sweep {}: rejected: {e}", req.name())),
            }
        }
    }
    let mut warm = Samples::new();
    for &(_, w, _) in &lt.kinds {
        warm.push(w as f64);
    }
    rep.metric(
        "solver.warm_iterations_p50",
        warm.p50().unwrap_or(0.0),
        "count",
        warm.len(),
    );
    for kind in [
        Kind::Demand,
        Kind::FailLink,
        Kind::RestoreLink,
        Kind::AddOd,
        Kind::SetTheta,
    ] {
        let (w, cold, n) = lt
            .kinds
            .iter()
            .filter(|e| e.0 == kind)
            .fold((0, 0, 0), |acc, e| (acc.0 + e.1, acc.1 + e.2, acc.2 + 1));
        let ratio = if cold == 0 {
            0.0
        } else {
            w as f64 / cold as f64
        };
        rep.metric(
            &format!("solver.warm_over_cold.{}", kind.label()),
            ratio,
            "ratio",
            n,
        );
    }
    rep.metric(
        "solver.kkt_verified_frac",
        kkt.0 as f64 / kkt.1.max(1) as f64,
        "ratio",
        kkt.1,
    );

    // state / routing / persist / read path / json: the layer replay
    let replay_dir = lt.root.join(format!("replay-{}", lt.seed));
    let st = replay(lt.state, &lt.events, Some(&replay_dir), tracer, rep);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let apply = st.p50("state.apply_event");
    let rebuild = st.p50("routing.check_spec");
    let n = st.len("state.apply_event");
    rep.metric("state.apply_event_ms_p50", apply, "ms", n);
    rep.metric(
        "routing.rebuild_ms_p50",
        rebuild,
        "ms",
        st.len("routing.check_spec"),
    );
    rep.metric(
        "routing.rebuild_share",
        if apply > 0.0 { rebuild / apply } else { 0.0 },
        "ratio",
        n,
    );
    rep.metric(
        "state.clone_ms",
        st.p50("state.clone"),
        "ms",
        st.len("state.clone"),
    );
    rep.metric(
        "persist.record_applied_ms_p50",
        st.p50("persist.record_applied"),
        "ms",
        st.len("persist.record_applied"),
    );

    // tracing overhead: the same replay (no store) with spans off and on
    let k = lt.events.len().min(16);
    let mut off_t = Tracer::new(false);
    let mut on_t = Tracer::new(true);
    let mut quiet = Report::default();
    let off = replay(lt.state, &lt.events[..k], None, &mut off_t, &mut quiet);
    let on = replay(lt.state, &lt.events[..k], None, &mut on_t, &mut quiet);
    rep.metric(
        "trace.overhead_ratio",
        if off.total_ms > 0.0 {
            on.total_ms / off.total_ms
        } else {
            1.0
        },
        "ratio",
        k,
    );

    // store: raw appends with fsync always
    let record = lt.events.first().map_or_else(
        || "{\"cmd\":\"ping\"}".to_string(),
        |r| r.to_json().encode(),
    );
    rep.metric("store.record_bytes", record.len() as f64, "bytes", 1);
    let store_dir = lt.root.join(format!("store-{}", lt.seed));
    let _ = std::fs::remove_dir_all(&store_dir);
    match Store::open(
        &store_dir,
        StoreOptions {
            fsync: FsyncPolicy::Always,
        },
        &Recorder::disabled(),
    ) {
        Ok((mut store, _)) => {
            let mut s = Samples::new();
            let t0 = Instant::now();
            while s.len() < 1000 && t0.elapsed().as_secs_f64() < 3.0 {
                let t = Instant::now();
                let ok = store.append(&record).is_ok();
                s.push(t.elapsed().as_secs_f64() * 1e6);
                rep.attempt(ok, || "store append failed".into());
            }
            rep.metric("store.append_us_p50", s.p50().unwrap_or(0.0), "us", s.len());
            rep.metric(
                "store.append_us_p99",
                s.pct(99.0).unwrap_or(0.0),
                "us",
                s.len(),
            );
        }
        Err(e) => rep.attempt(false, || format!("store open failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    persist_layers(lt, rep);

    // read path
    let snap = read_snapshot(lt.state, 1);
    let cell = SnapshotCell::new(snap.clone());
    let mut next: Vec<ReadSnapshot> = (2..202)
        .map(|e| ReadSnapshot {
            epoch: e,
            ..snap.clone()
        })
        .collect();
    next.reverse();
    let publish = median_us(200, || {
        let s = next.pop().expect("200 snapshots prepared");
        black_box(cell.publish(s));
    });
    rep.metric("read_path.publish_us", publish, "us", 200);
    rep.metric(
        "read_path.load_ns_1t",
        per_call_ns(10, 100_000, || {
            black_box(cell.load());
        }),
        "ns",
        10,
    );
    rep.metric(
        "read_path.load_ns_nt",
        contended_ns(nproc, 500_000, || {
            black_box(cell.load());
        }),
        "ns",
        nproc,
    );

    // protocol / json
    let od = &lt.state.ods()[0];
    let update_line = Request::UpdateDemand {
        od: od.name.clone(),
        size: od.size * 1.01,
    }
    .to_json()
    .encode();
    for (kind, line) in [
        ("query_rates", "{\"cmd\":\"query_rates\"}".to_string()),
        ("health", "{\"cmd\":\"health\"}".to_string()),
        ("stats", "{\"cmd\":\"stats\"}".to_string()),
        ("update_demand", update_line),
    ] {
        let ns = per_call_ns(10, 2000, || {
            black_box(parse_incoming(black_box(&line)).is_ok());
        });
        rep.metric(&format!("protocol.parse_us.{kind}"), ns / 1e3, "us", 10);
    }
    let rates = query_rates_response(&snap);
    rep.metric(
        "json.encode_us.query_rates",
        per_call_ns(10, 200, || {
            black_box(rates.encode());
        }) / 1e3,
        "us",
        10,
    );
    let stats = obj(vec![
        ("ok", Json::Bool(true)),
        ("cmd", Json::Str("stats".into())),
        ("epoch", Json::UInt(1)),
        ("stats", Metrics::default().to_json()),
    ]);
    rep.metric(
        "json.encode_us.stats",
        per_call_ns(10, 500, || {
            black_box(stats.encode());
        }) / 1e3,
        "us",
        10,
    );

    // obs
    let rec = Recorder::enabled();
    for i in 0..24 {
        // A registry about as full as the daemon's.
        rec.counter_add(["a", "b", "c", "d", "e", "f", "g", "h"][i % 8], 0);
    }
    rep.metric(
        "obs.counter_add_ns_1t",
        per_call_ns(10, 100_000, || {
            rec.counter_add("daemon_reads_served_lockfree_total", 1)
        }),
        "ns",
        10,
    );
    rep.metric(
        "obs.counter_add_ns_nt",
        contended_ns(nproc, 300_000, || {
            rec.counter_add("daemon_reads_served_lockfree_total", 1)
        }),
        "ns",
        nproc,
    );
    rep.metric(
        "obs.observe_labeled_ns_1t",
        per_call_ns(10, 100_000, || {
            rec.observe_labeled("daemon_command_latency_ms", "cmd", "query_rates", 0.25)
        }),
        "ns",
        10,
    );
    rep.metric(
        "obs.observe_labeled_ns_nt",
        contended_ns(nproc, 300_000, || {
            rec.observe_labeled("daemon_command_latency_ms", "cmd", "query_rates", 0.25)
        }),
        "ns",
        nproc,
    );

    // net / daemon
    let net = match lt.net.take() {
        Some(n) => n,
        None => serve::probe(task, lt.root, lt.seed, rep),
    };
    for (cmd, p50, bytes) in &net.round_trips {
        rep.metric(&format!("net.{cmd}_ms_p50"), *p50, "ms", serve::ROUND_TRIPS);
        if *cmd == "query_rates" {
            rep.metric("net.query_rates_bytes", *bytes as f64, "bytes", 1);
        }
    }
    let c = |k: &str| net.counters.get(k).copied().unwrap_or(0.0);
    let flushes = c("daemon_coalesce_flushes_total");
    rep.metric(
        "daemon.coalesce_batch_mean",
        if flushes > 0.0 {
            c("daemon_coalesced_updates_total") / flushes
        } else {
            0.0
        },
        "ratio",
        flushes as usize,
    );
    // The startup solve is one rebuild that no mutation paid for.
    rep.metric(
        "daemon.epoch_rebuilds_per_update",
        (c("state_epoch_rebuilds_total") - 1.0).max(0.0) / net.mutations_acked.max(1.0),
        "ratio",
        net.mutations_acked as usize,
    );
    rep.metric("daemon.shed", c("daemon_overload_shed_total"), "count", 1);
    // The ack's known stages, from a replay of the very updates acked.
    let probe_stages = net.updates.as_ref().map(|updates| {
        let dir = lt.root.join(format!("replay-probe-{}", lt.seed));
        let out = replay(lt.state, updates, Some(&dir), &mut Tracer::new(false), rep);
        let _ = std::fs::remove_dir_all(&dir);
        out
    });
    let acked = probe_stages.as_ref().unwrap_or(&st);
    let window = if probe_stages.is_some() {
        serve::COALESCE_MS as f64
    } else {
        lt.window_ms
    };
    let (apply_ack, record, publish) = (
        acked.p50("state.apply_event"),
        acked.p50("persist.record_applied"),
        acked.p50("read_path.publish"),
    );
    rep.metric_noted(
        "daemon.unattributed_ms",
        net.ack_p50_ms - (window + apply_ack + record + publish),
        "ms",
        1,
        &format!(
            "ack p50 {:.3} - (window {window:.1} + apply_event {apply_ack:.3} + record_applied {record:.3} + publish {publish:.3})",
            net.ack_p50_ms
        ),
    );

    // the stage sum against the end-to-end p50
    let mut sum = 0.0;
    let mut parts = Vec::new();
    for &name in lt.stages {
        let v = if name == "coalesce.window" {
            lt.window_ms
        } else {
            st.p50(name)
        };
        sum += v;
        parts.push(format!("{name} {v:.3}"));
    }
    rep.metric_noted("trace.stage_sum_ms", sum, "ms", n, &parts.join(" + "));
    rep.metric("trace.e2e_p50_ms", lt.e2e_ms, "ms", 1);
    rep.metric(
        "trace.stage_share",
        if lt.e2e_ms > 0.0 {
            sum / lt.e2e_ms
        } else {
            0.0
        },
        "ratio",
        1,
    );
}

/// `write_snapshot` and `StateStore::open` recovery of a journal.
fn persist_layers(lt: &LayerInputs<'_>, rep: &mut Report) {
    let cfg = PlacementConfig::default();
    let dir = lt.root.join(format!("persist-{}", lt.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let mut pcfg = PersistConfig::new(&dir);
    // Journal every event; no periodic snapshot, so recovery replays them.
    pcfg.snapshot_every = u64::MAX;
    let mut original = ServiceState::from_task(lt.task, cfg);
    let opened = StateStore::open(&pcfg, &mut original, &Recorder::disabled());
    let Ok((mut store, _)) = opened else {
        rep.attempt(false, || "persist store open failed".into());
        return;
    };
    if let Err(e) = original.resolve(false) {
        rep.attempt(false, || format!("persist startup solve failed: {e}"));
        return;
    }
    let events = &lt.events[..lt.events.len().min(16)];
    for req in events {
        let ok = original.apply_event(req, false).is_ok()
            && store.record_applied(req, &original, &[]).is_ok();
        rep.attempt(ok, || format!("persist: journaling {} failed", req.name()));
    }
    drop(store);
    let mut recovered = ServiceState::from_task(lt.task, cfg);
    let t = Instant::now();
    match StateStore::open(&pcfg, &mut recovered, &Recorder::disabled()) {
        Ok((mut store, report)) => {
            rep.metric(
                "persist.recover_ms",
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
                1,
            );
            rep.metric(
                "persist.replayed_events",
                report.replayed_events as f64,
                "count",
                1,
            );
            let same = recovered.installed().map(|i| i.objective.to_bits())
                == original.installed().map(|i| i.objective.to_bits());
            rep.attempt(same, || {
                "recovered objective differs from the journaled state".into()
            });
            let mut snap_ms = Samples::new();
            for _ in 0..5 {
                let t = Instant::now();
                let ok = store.write_snapshot(&recovered).is_ok();
                snap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rep.attempt(ok, || "write_snapshot failed".into());
            }
            rep.metric("persist.snapshot_ms", snap_ms.p50().unwrap_or(0.0), "ms", 5);
        }
        Err(e) => rep.attempt(false, || format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the traced run's spans and prints self time per layer call.
pub fn finish_trace(tracer: &Tracer, rep: &mut Report, root: &Path, workload: &str, seed: u64) {
    let path = root.join(format!("trace-{workload}-{seed}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => rep.fact("trace_file", path.display()),
        Err(e) => rep.fact("trace_file", format!("not written: {e}")),
    }
    for (name, (ms, count)) in trace::self_ms_by_name(tracer.spans()) {
        rep.fact(
            &format!("self time {name}"),
            format!("{ms:.3} ms total over {count} spans"),
        );
    }
}
