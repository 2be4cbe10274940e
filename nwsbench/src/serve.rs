//! The serving workload: an in-process `Daemon::serve` on loopback TCP,
//! driven open loop by one generator thread for every connection. Each
//! lane sends its requests on a fixed schedule, reads responses as they
//! come and times each request from when it was due.

use crate::calib::{self, HostSpeed};
use crate::instance::{self, SplitMix, RING160X4};
use crate::layers;
use crate::plan::{initial, objective_tolerance, EventGen};
use crate::report::Report;
use crate::stats::{self, Ack, Poll, Samples};
use crate::trace::Tracer;
use nws_core::MeasurementTask;
use nws_service::json::{parse, Json};
use nws_service::protocol::Request;
use nws_service::{
    Daemon, DaemonOptions, DaemonSummary, NetOptions, PersistConfig, Server, ServiceError,
    ServiceState,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups before the window and again after it; `setup_s` is the median
/// of all of them (see `plan::SETUPS`).
const SETUPS: usize = 2;
/// Reference cold solves per set-up (run after its timing).
const REF_SOLVES: usize = 10;
/// Coalesce window the daemon runs with, ms (the serving default).
pub const COALESCE_MS: u64 = 5;
/// Connections a serving workload drives, each with a receiver thread;
/// one generator thread sends on all of them.
pub const LANES: usize = 2;

/// A daemon serving on an ephemeral loopback port from a thread of this
/// process.
pub struct RunningDaemon {
    /// Where it listens.
    pub addr: SocketAddr,
    handle: JoinHandle<Result<DaemonSummary, ServiceError>>,
}

/// Starts a daemon on `state`, durable under `dir` when given.
pub fn start(state: ServiceState, dir: Option<&Path>) -> Result<RunningDaemon, String> {
    let opts = DaemonOptions {
        coalesce_ms: COALESCE_MS,
        persist: dir.map(PersistConfig::new),
        ..DaemonOptions::default()
    };
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".into()),
        ..NetOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.tcp_addr().ok_or("no tcp address")?;
    let mut daemon = Daemon::new(state, opts);
    let handle = std::thread::spawn(move || daemon.serve(server));
    Ok(RunningDaemon { addr, handle })
}

impl RunningDaemon {
    /// Sends `shutdown` and waits for the daemon thread to end.
    pub fn shutdown(self) -> Result<DaemonSummary, String> {
        let mut c = Conn::connect(self.addr)?;
        let bye = c.request("{\"cmd\":\"shutdown\"}")?;
        if !bye.contains("\"bye\":true") {
            return Err(format!("unexpected shutdown answer: {bye}"));
        }
        drop(c);
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// A blocking line-oriented client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects and reads the `hello` line.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut c = Conn {
            stream,
            buf: Vec::new(),
        };
        c.read_line()?; // the per-connection hello
        Ok(c)
    }

    /// Reads one response line.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut chunk = [0u8; 65536];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|e| e.to_string());
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// One closed-loop round trip.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_line()
    }
}

/// What a scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// `query_rates`.
    QueryRates,
    /// `update_demand`.
    Update,
    /// `fail_link`.
    FailLink,
    /// `restore_link`.
    RestoreLink,
}

impl ReqKind {
    fn cmd(self) -> &'static str {
        match self {
            ReqKind::QueryRates => "query_rates",
            ReqKind::Update => "update_demand",
            ReqKind::FailLink => "fail_link",
            ReqKind::RestoreLink => "restore_link",
        }
    }

    fn is_read(self) -> bool {
        self == ReqKind::QueryRates
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, seconds after the lanes' common origin.
    pub due_s: f64,
    /// The request line (no newline).
    pub line: String,
    /// What it is.
    pub kind: ReqKind,
}

/// What became of one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Actual send time, s (`None`: never sent, the write failed first).
    pub sent_s: Option<f64>,
    /// Response time, s (`None`: never answered).
    pub recv_s: Option<f64>,
    /// `"ok":true` and the expected command.
    pub ok: bool,
    /// Epoch the response carried.
    pub epoch: Option<u64>,
    /// Hash of a `query_rates` payload (everything after the epoch).
    pub fingerprint: u64,
    /// For mutations: whether the ack's solve was KKT-verified.
    pub kkt: bool,
    /// The start of an error response.
    pub error: Option<String>,
}

/// A lane's results.
#[derive(Debug, Default)]
pub struct LaneResult {
    /// One per planned request, same order.
    pub outcomes: Vec<Outcome>,
    /// Outstanding requests halfway through the schedule and at its end.
    pub backlog: (usize, usize),
    /// Protocol errors (unparseable or surplus lines, lost connection).
    pub protocol_errors: Vec<String>,
}

fn epoch_of(line: &str) -> Option<(u64, usize)> {
    let at = line.find("\"epoch\":")? + "\"epoch\":".len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok().map(|e| (e, at + digits))
}

fn summarize(line: &str, kind: ReqKind, out: &mut Outcome) {
    let head = &line[..line.len().min(96)];
    out.ok =
        line.starts_with("{\"ok\":true") && head.contains(&format!("\"cmd\":\"{}\"", kind.cmd()));
    let ep = epoch_of(line);
    out.epoch = ep.map(|(e, _)| e);
    if !out.ok {
        out.error = Some(line.chars().take(160).collect());
    } else if kind == ReqKind::QueryRates {
        if let Some((_, end)) = ep {
            let mut h = DefaultHasher::new();
            line[end..].hash(&mut h);
            out.fingerprint = h.finish();
        }
    } else if !kind.is_read() {
        out.kkt = line.contains("\"kkt\":true") && line.contains("\"degraded\":false");
    }
}

/// Drives `lanes` open loop, one connection each, every lane's requests
/// in due order: a single generator thread sleeps until each request is
/// due and sends it, and one receiver thread per connection stamps
/// responses as they arrive (responses on a connection come back in
/// request order). The generator samples each lane's backlog halfway
/// through the schedule and at its end.
pub fn run_lanes(addr: SocketAddr, lanes: &[&[Planned]], origin: Instant) -> Vec<LaneResult> {
    let mut results: Vec<LaneResult> = lanes
        .iter()
        .map(|l| LaneResult {
            outcomes: vec![Outcome::default(); l.len()],
            ..LaneResult::default()
        })
        .collect();
    let mut conns = Vec::new();
    for res in &mut results {
        match Conn::connect(addr) {
            Ok(c) => conns.push(c),
            Err(e) => {
                res.protocol_errors.push(e);
                return results;
            }
        }
    }
    let received: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let total: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    let mut writers = Vec::new();
    for c in &conns {
        match c.stream.try_clone() {
            Ok(w) => writers.push(w),
            Err(e) => {
                results[0]
                    .protocol_errors
                    .push(format!("clone stream: {e}"));
                return results;
            }
        }
    }
    let drain_until = lanes
        .iter()
        .filter_map(|l| l.last())
        .map(|p| p.due_s)
        .fold(0.0, f64::max)
        + DRAIN_S;
    let (sent, backlogs, send_errors) = std::thread::scope(|sc| {
        let receivers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let (received, total) = (&received[i], &total[i]);
                let plan = lanes[i];
                sc.spawn(move || receive(conn, plan, origin, received, total, drain_until))
            })
            .collect();
        let sender = generate(&mut writers, lanes, origin, &received);
        for (i, n) in sender.0.iter().map(|s| s.len()).enumerate() {
            total[i].store(n, Ordering::SeqCst);
        }
        let received_lanes: Vec<_> = receivers
            .into_iter()
            .map(|r| r.join().expect("receiver thread panicked"))
            .collect();
        for (res, (outcomes, errors)) in results.iter_mut().zip(received_lanes) {
            res.outcomes = outcomes;
            res.protocol_errors.extend(errors);
        }
        sender
    });
    for (i, res) in results.iter_mut().enumerate() {
        for (o, t) in res.outcomes.iter_mut().zip(&sent[i]) {
            o.sent_s = Some(*t);
        }
        res.backlog = backlogs[i];
        res.protocol_errors.extend(send_errors[i].iter().cloned());
    }
    results
}

/// How long receivers wait for answers after the last request is due, s.
const DRAIN_S: f64 = 10.0;

type Sent = (Vec<Vec<f64>>, Vec<(usize, usize)>, Vec<Vec<String>>);

/// The generator: sends every lane's requests at their due times; returns
/// per lane the send times, the backlog halfway and at the end, and write
/// errors.
fn generate(
    writers: &mut [TcpStream],
    lanes: &[&[Planned]],
    origin: Instant,
    received: &[AtomicUsize],
) -> Sent {
    let n = lanes.len();
    let mut sent: Vec<Vec<f64>> = lanes.iter().map(|l| Vec::with_capacity(l.len())).collect();
    let mut backlogs = vec![(0, 0); n];
    let mut errors: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut stop: Vec<usize> = lanes.iter().map(|l| l.len()).collect();
    let end_s = lanes
        .iter()
        .filter_map(|l| l.last())
        .map(|p| p.due_s)
        .fold(0.0, f64::max);
    let checkpoints = [0.5 * end_s, end_s];
    let mut checked = 0;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let now = origin.elapsed().as_secs_f64();
        while checked < checkpoints.len() && now >= checkpoints[checked] {
            for i in 0..n {
                let outstanding =
                    sent[i].len() - received[i].load(Ordering::SeqCst).min(sent[i].len());
                if checked == 0 {
                    backlogs[i].0 = outstanding;
                } else {
                    backlogs[i].1 = outstanding;
                }
            }
            checked += 1;
        }
        for i in 0..n {
            buf.clear();
            let plan = lanes[i];
            while sent[i].len() < stop[i] && plan[sent[i].len()].due_s <= now {
                buf.extend_from_slice(plan[sent[i].len()].line.as_bytes());
                buf.push(b'\n');
                sent[i].push(now);
            }
            if !buf.is_empty() && errors[i].is_empty() {
                if let Err(e) = writers[i].write_all(&buf) {
                    errors[i].push(format!("write: {e}"));
                    stop[i] = sent[i].len();
                }
            }
        }
        let next_due = (0..n)
            .filter(|&i| sent[i].len() < stop[i])
            .map(|i| lanes[i][sent[i].len()].due_s)
            .fold(f64::INFINITY, f64::min);
        if !next_due.is_finite() {
            break;
        }
        let wait = next_due - origin.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    (sent, backlogs, errors)
}

type Received = (Vec<Outcome>, Vec<String>);

/// A receiver: reads one connection's responses and matches the k-th to
/// the k-th request, until `total` (set once the generator is done) have
/// come back or the drain deadline passes.
fn receive(
    mut conn: Conn,
    plan: &[Planned],
    origin: Instant,
    received: &AtomicUsize,
    total: &AtomicUsize,
    drain_until: f64,
) -> Received {
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let mut errors = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    // The timeout only bounds how often termination is checked; a
    // response wakes the read at once.
    let _ = conn
        .stream
        .set_read_timeout(Some(Duration::from_millis(50)));
    let mut k = 0usize;
    loop {
        if k >= total.load(Ordering::SeqCst) {
            break;
        }
        if origin.elapsed().as_secs_f64() > drain_until {
            errors.push(format!(
                "{} requests unanswered at the drain deadline",
                total.load(Ordering::SeqCst).min(plan.len()) - k
            ));
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                if k < total.load(Ordering::SeqCst) {
                    errors.push("connection closed by the daemon".into());
                }
                break;
            }
            Ok(n) => {
                let t = origin.elapsed().as_secs_f64();
                conn.buf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(pos) = conn.buf[start..].iter().position(|&b| b == b'\n') {
                    let line = &conn.buf[start..start + pos];
                    start += pos + 1;
                    if k >= plan.len() {
                        errors.push("response with no request".into());
                        continue;
                    }
                    let o = &mut outcomes[k];
                    o.recv_s = Some(t);
                    match std::str::from_utf8(line) {
                        Ok(text) => summarize(text, plan[k].kind, o),
                        Err(_) => errors.push("non-UTF-8 response".into()),
                    }
                    k += 1;
                    received.store(k, Ordering::SeqCst);
                }
                conn.buf.drain(..start);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                errors.push(format!("read: {e}"));
                break;
            }
        }
    }
    (outcomes, errors)
}

/// Requests evenly spaced at `rate` over `[from_s, to_s)`, starting at a
/// seeded phase, built by `make`.
fn evenly(
    rng: &mut SplitMix,
    rate: f64,
    from_s: f64,
    to_s: f64,
    mut make: impl FnMut(&mut SplitMix) -> (String, ReqKind),
) -> Vec<Planned> {
    let gap = 1.0 / rate;
    let mut t = from_s + gap * rng.unit();
    let mut out = Vec::new();
    while t < to_s {
        let (line, kind) = make(rng);
        out.push(Planned {
            due_s: t,
            line,
            kind,
        });
        t += gap;
    }
    out
}

fn query_rates_only(_: &mut SplitMix) -> (String, ReqKind) {
    ("{\"cmd\":\"query_rates\"}".into(), ReqKind::QueryRates)
}

/// A set-up of the serving workload.
struct Setup {
    task: MeasurementTask,
    /// The daemon's starting state (trace tick 0, not yet solved).
    state: ServiceState,
    gen: EventGen,
    build_ms: f64,
    daemon: RunningDaemon,
    dir: PathBuf,
    /// The objective of the startup plan the daemon served first.
    served: Option<f64>,
}

/// Instance, starting state, a durable daemon in a fresh `dir`, and its
/// first read.
fn setup(dir: PathBuf, seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let task = instance::build(RING160X4);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let (state, gen) = initial(&task, seed);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("state dir: {e}"))?;
    let daemon = start(state.clone(), Some(&dir))?;
    let mut c = Conn::connect(daemon.addr)?;
    let rates = c.request("{\"cmd\":\"query_rates\"}")?;
    let served = parse(&rates)
        .ok()
        .and_then(|j| j.get("objective").and_then(Json::as_f64));
    Ok(Setup {
        task,
        state,
        gen,
        build_ms,
        daemon,
        dir,
        served,
    })
}

/// `n` reference (cold) solves of `state`'s spec, each checked for KKT
/// and timed between two calibration timings: `(raw ms, ms at reference
/// speed)` per solve, and the optimum's objective.
fn reference_solves(
    state: &ServiceState,
    n: usize,
    rep: &mut Report,
) -> Result<(Vec<(f64, f64)>, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut objective = f64::NAN;
    for _ in 0..n {
        let mut cold = state.clone();
        let (sol, _, scale) = calib::bracketed(|| cold.resolve(false));
        let sol = sol.map_err(|e| format!("reference solve: {e}"))?;
        times.push((sol.wall_ms, sol.wall_ms * scale));
        rep.attempt(sol.kkt, || "reference solve not KKT-verified".into());
        objective = sol.objective;
    }
    Ok((times, objective))
}

/// One set-up, timed between two calibration timings, then reference
/// solves of its spec while the daemon idles; the startup plan must be
/// their optimum. The set-up time and the solves go into `setup_s` and
/// `cold_ms` as `(raw, at reference speed)` pairs.
fn timed_setup(
    dir: PathBuf,
    seed: u64,
    setup_s: &mut Vec<(f64, f64)>,
    cold_ms: &mut Vec<(f64, f64)>,
    rep: &mut Report,
) -> Result<Setup, String> {
    let (s, raw, scale) = calib::bracketed(|| setup(dir, seed));
    setup_s.push((raw, raw * scale));
    let s = s?;
    let (times, reference) = reference_solves(&s.state, REF_SOLVES, rep)?;
    cold_ms.extend(times);
    let tol = objective_tolerance(s.task.topology().num_links());
    let served = s.served;
    rep.attempt(
        served.is_some_and(|o| (o - reference).abs() / reference.abs().max(1.0) <= tol),
        || format!("startup objective {served:?} differs from the reference {reference}"),
    );
    Ok(s)
}

/// Counters scraped from the daemon's `metrics` answer.
pub fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut c = Conn::connect(addr)?;
    let line = c.request("{\"cmd\":\"metrics\"}")?;
    let doc = parse(&line)?;
    let m = doc
        .get("metrics")
        .ok_or("metrics answer without 'metrics'")?;
    let mut out = HashMap::new();
    if let Some(Json::Obj(pairs)) = m.get("counters") {
        for (k, v) in pairs {
            if let Some(x) = v.as_f64() {
                out.insert(k.clone(), x);
            }
        }
    }
    if let Some(hs) = m.get("histograms").and_then(Json::as_arr) {
        for h in hs {
            if let (Some(name), Some(count), Some(sum)) = (
                h.get("name").and_then(Json::as_str),
                h.get("count").and_then(Json::as_f64),
                h.get("sum").and_then(Json::as_f64),
            ) {
                out.insert(format!("{name}:count"), count);
                out.insert(format!("{name}:sum"), sum);
            }
        }
    }
    Ok(out)
}

/// Closed-loop round trips per read command: `(command, p50 ms, bytes)`.
pub fn round_trips(addr: SocketAddr, n: usize) -> Result<Vec<(&'static str, f64, usize)>, String> {
    let mut c = Conn::connect(addr)?;
    let mut out = Vec::new();
    for cmd in ["ping", "query_rates", "health", "stats"] {
        let line = format!("{{\"cmd\":\"{cmd}\"}}");
        let mut s = Samples::new();
        let mut bytes = 0;
        for _ in 0..n {
            let t = Instant::now();
            let r = c.request(&line)?;
            s.push(t.elapsed().as_secs_f64() * 1e3);
            bytes = r.len() + 1;
        }
        out.push((cmd, s.p50().unwrap_or(0.0), bytes));
    }
    Ok(out)
}

/// Everything the lanes of one serving run produced, analysed.
pub struct Analysis {
    /// Read latency samples (scheduled send to response), ms.
    pub reads: Samples,
    /// Ack latency of `update_demand`, ms.
    pub acks: Samples,
    /// The same acks as `(due s, latency ms)`.
    pub timed_acks: Vec<(f64, f64)>,
    /// Update-to-visible latency, ms.
    pub visible: Samples,
    /// The same as `(due s, latency ms)`.
    pub timed_visible: Vec<(f64, f64)>,
    /// Generator lateness, ms.
    pub late: Samples,
    /// Ack latency of `fail_link`/`restore_link`, ms.
    pub link_acks: Samples,
    /// Largest epoch seen.
    pub max_epoch: u64,
}

/// Checks and tallies the outcomes of a read lane and an update lane.
fn analyse(
    rep: &mut Report,
    reads_plan: &[Planned],
    reads: &LaneResult,
    upd_plan: &[Planned],
    upd: &LaneResult,
) -> Analysis {
    let mut a = Analysis {
        reads: Samples::new(),
        acks: Samples::new(),
        timed_acks: Vec::new(),
        visible: Samples::new(),
        timed_visible: Vec::new(),
        late: Samples::new(),
        link_acks: Samples::new(),
        max_epoch: 0,
    };
    for e in reads.protocol_errors.iter().chain(&upd.protocol_errors) {
        rep.attempt(false, || format!("protocol: {e}"));
    }
    let mut polls: Vec<Poll> = Vec::new();
    let mut acks: Vec<Ack> = Vec::new();
    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for (plan, lane) in [(reads_plan, reads), (upd_plan, upd)] {
        let mut epochs = Vec::new();
        for (p, o) in plan.iter().zip(&lane.outcomes) {
            let Some(sent) = o.sent_s else { continue };
            a.late.push((sent - p.due_s) * 1e3);
            let Some(recv) = o.recv_s else {
                rep.attempt(false, || {
                    format!("{} due at {:.3}s never answered", p.kind.cmd(), p.due_s)
                });
                continue;
            };
            let lat = (recv - p.due_s) * 1e3;
            let mut ok = o.ok;
            if let Some(e) = o.epoch {
                epochs.push(e);
                a.max_epoch = a.max_epoch.max(e);
            } else if o.ok {
                ok = false;
            }
            if p.kind == ReqKind::QueryRates && o.ok {
                let e = o.epoch.unwrap_or(0);
                let fp = *by_epoch.entry(e).or_insert(o.fingerprint);
                if fp != o.fingerprint {
                    rep.attempt(false, || {
                        format!("two different rate sets served at epoch {e}")
                    });
                }
            }
            if !p.kind.is_read() && o.ok && !o.kkt {
                rep.attempt(false, || {
                    format!(
                        "{} ack at {:.3}s: solve not KKT-verified",
                        p.kind.cmd(),
                        recv
                    )
                });
            }
            rep.attempt(ok, || {
                format!(
                    "{} due at {:.3}s: {}",
                    p.kind.cmd(),
                    p.due_s,
                    o.error
                        .clone()
                        .unwrap_or_else(|| "malformed response".into())
                )
            });
            if !ok {
                continue;
            }
            match p.kind {
                k if k.is_read() => {
                    a.reads.push(lat);
                    polls.push(Poll {
                        sent_s: sent,
                        recv_s: recv,
                        epoch: o.epoch.unwrap_or(0),
                    });
                }
                ReqKind::Update => {
                    a.acks.push(lat);
                    a.timed_acks.push((p.due_s, lat));
                    acks.push(Ack {
                        sent_s: p.due_s,
                        acked_s: recv,
                        epoch: o.epoch.unwrap_or(0),
                    });
                }
                _ => a.link_acks.push(lat),
            }
        }
        for at in stats::epoch_regressions(&epochs) {
            rep.attempt(false, || {
                format!("epoch went backwards on a connection at response {at}")
            });
        }
    }
    polls.sort_by(|x, y| x.recv_s.total_cmp(&y.recv_s));
    // An update after the last read goes unobserved: no sample, and not
    // a violation.
    for (ack, v) in acks.iter().zip(stats::visible_latencies(&acks, &polls)) {
        if let Some(ms) = v {
            a.visible.push(ms);
            a.timed_visible.push((ack.sent_s, ms));
        }
    }
    let ryw = stats::read_your_writes_violations(&acks, &polls);
    for (ai, pi) in ryw.iter().take(5) {
        let (ack, poll) = (acks[*ai], polls[*pi]);
        rep.attempt(false, || {
            format!(
                "read sent at {:.4}s returned epoch {} after an ack of epoch {} at {:.4}s",
                poll.sent_s, poll.epoch, ack.epoch, ack.acked_s
            )
        });
    }
    if ryw.len() > 5 {
        for _ in 5..ryw.len() {
            rep.attempt(false, || "read-your-writes violation".into());
        }
    }
    a
}

fn state_dir(root: &Path, seed: u64, k: usize) -> PathBuf {
    root.join(format!("state-serve-update-{seed}-{k}"))
}

/// Whether `t` (s after the lanes' origin) falls in the last `len` s
/// before a whole second: a lane's calibration pause.
fn in_pause(t: f64, len: f64) -> bool {
    t.floor() + 1.0 - t <= len
}

/// Runs `serve-update`.
pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    rep: &mut Report,
    root: &Path,
) -> Result<(), String> {
    let workload = "serve-update";
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if LANES > nproc {
        return Err(format!(
            "{workload} drives {LANES} connections; this host has nproc = {nproc}"
        ));
    }
    rep.fact(
        "generator",
        format!("open loop: 1 generator thread, {LANES} connections with a receiver thread each (nproc {nproc})"),
    );

    let clock = Instant::now();
    let mut speed = HostSpeed::default();
    // `(raw, at reference speed)` per set-up and per reference solve.
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut cold_ms: Vec<(f64, f64)> = Vec::new();
    let mut current: Option<Setup> = None;
    for k in 0..SETUPS {
        if let Some(prev) = current.take() {
            prev.daemon.shutdown()?;
            let _ = std::fs::remove_dir_all(prev.dir);
        }
        let dir = state_dir(root, seed, k);
        current = Some(timed_setup(dir, seed, &mut setup_s, &mut cold_ms, rep)?);
    }
    let Setup {
        task,
        state: start_state,
        mut gen,
        build_ms,
        daemon,
        dir,
        ..
    } = current.expect("at least one set-up");
    rep.fact("state_dir_fs", crate::host::fs_type(&dir));

    // The benchmark's own copy of the spec, for choosing valid events.
    let mut mirror = start_state.clone();
    mirror.resolve(false).map_err(|e| e.to_string())?;
    layers::describe_instance(rep, RING160X4.name, &task, &mirror);
    let sweep_gen = trace.then(|| gen.clone());
    let mut rng = SplitMix::new(seed ^ 0x00de_c0de);
    let s = seconds as f64;
    let lead = 0.3;

    // update_demand at a fixed rate, a fail_link then restore_link every
    // 5 s, query_rates polled on the second lane; neither lane sends in
    // the calibration pauses. The fibre is fixed like the instance: the
    // link is down for half the run, and which fibre it is moved the ack
    // p50 by up to 30% between runs.
    let fibre = EventGen::new(&mirror, instance::INSTANCE_SEED)
        .safe_fibre(&mirror)
        .ok_or("no fibre can fail without stranding an OD")?;
    let mut upd_plan = evenly(&mut rng, UPDATE_RATE, lead, s, |_| {
        (String::new(), ReqKind::Update)
    });
    upd_plan.retain(|p| !in_pause(p.due_s, UPDATE_PAUSE_S));
    let (mut next_fail, mut next_restore) = (LINK_FAIL_AT_S, LINK_FAIL_AT_S + LINK_DOWN_S);
    for p in &mut upd_plan {
        let (line, kind) = if p.due_s >= next_fail {
            next_fail += LINK_PERIOD_S;
            let (a, b) = fibre.clone();
            (
                Request::FailLink { a, b }.to_json().encode(),
                ReqKind::FailLink,
            )
        } else if p.due_s >= next_restore {
            next_restore += LINK_PERIOD_S;
            let (a, b) = fibre.clone();
            (
                Request::RestoreLink { a, b }.to_json().encode(),
                ReqKind::RestoreLink,
            )
        } else {
            (gen.demand_one().to_json().encode(), ReqKind::Update)
        };
        p.line = line;
        p.kind = kind;
    }
    let mut reads_plan = evenly(&mut rng, POLL_RATE, lead, s, query_rates_only);
    reads_plan.retain(|p| !in_pause(p.due_s, POLL_PAUSE_S));

    let origin = Instant::now();
    let offset = origin.duration_since(clock).as_secs_f64();
    let addr = daemon.addr;
    // While the lanes run, this thread times the calibration kernel in
    // each pause, when the daemon has answered what was in flight: the
    // kernel never shares the CPU with the daemon.
    let done = std::sync::atomic::AtomicBool::new(false);
    let lanes = std::thread::scope(|sc| {
        let lanes = sc.spawn(|| {
            let out = run_lanes(addr, &[&reads_plan, &upd_plan], origin);
            done.store(true, Ordering::SeqCst);
            out
        });
        let mut k = 1.0;
        while k <= s && !done.load(Ordering::SeqCst) {
            let at = k - KERNEL_LEAD_S;
            let wait = at - origin.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            for _ in 0..PAUSE_KERNELS {
                speed.sample(offset + at);
            }
            k += 1.0;
        }
        lanes.join().expect("lane thread panicked")
    });
    rep.fact(
        "calibration",
        format!(
            "kernel timed {PAUSE_KERNELS}x {KERNEL_LEAD_S} s before each whole second; updates pause {UPDATE_PAUSE_S} s and polls {POLL_PAUSE_S} s before it"
        ),
    );
    let mut lanes = lanes.into_iter();
    let (reads, upd) = (
        lanes.next().expect("read lane"),
        lanes.next().expect("update lane"),
    );
    let a = analyse(rep, &reads_plan, &reads, &upd_plan, &upd);
    for (name, plan, lane) in [("poll", &reads_plan, &reads), ("update", &upd_plan, &upd)] {
        let (mid, end) = lane.backlog;
        rep.fact(
            &format!("backlog {name}"),
            format!("{mid} outstanding halfway, {end} at the end"),
        );
        let rate = plan.len() as f64 / s;
        rep.attempt(!stats::backlog_grows(mid, end, rate), || {
            format!("{name} lane backlog grew from {mid} to {end}: the rate saturates the daemon")
        });
    }

    let counters = scrape(addr)?;
    let last_served = {
        let mut c = Conn::connect(addr)?;
        let line = c.request("{\"cmd\":\"query_rates\"}")?;
        epoch_of(&line).map(|(_, end)| line[end..].to_string())
    };
    let rtt = if trace {
        Some(round_trips(addr, ROUND_TRIPS)?)
    } else {
        None
    };
    daemon.shutdown()?;

    // Reopen the same directory: time until the first read answers.
    let t = Instant::now();
    let again = start(start_state.clone(), Some(&dir))?;
    let mut c = Conn::connect(again.addr)?;
    let line = c.request("{\"cmd\":\"query_rates\"}")?;
    let recover_s = t.elapsed().as_secs_f64();
    drop(c);
    rep.metric("recover_s", recover_s, "s", 1);
    let after = epoch_of(&line).map(|(_, end)| line[end..].to_string());
    rep.attempt(after.is_some() && after == last_served, || {
        "query_rates after recovery differs from the last rates served".into()
    });
    again.shutdown()?;
    let _ = std::fs::remove_dir_all(&dir);

    // Set up again after the window: set-up time and cold solves are
    // sampled at two moments half a minute apart.
    for k in 0..SETUPS {
        let again = timed_setup(
            state_dir(root, seed, SETUPS + k),
            seed,
            &mut setup_s,
            &mut cold_ms,
            rep,
        )?;
        again.daemon.shutdown()?;
        let _ = std::fs::remove_dir_all(again.dir);
    }

    // Every time is brought to reference speed (see `calib`), each ack and
    // visibility sample by the mean of the kernel timings nearest it;
    // window figures are then taken as the median over windows.
    let h = Some(&speed);
    let median = |xs: &[(f64, f64)], norm: bool| {
        let mut v: Vec<f64> = xs.iter().map(|x| if norm { x.1 } else { x.0 }).collect();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 50.0).unwrap_or(0.0)
    };
    rep.metric_noted(
        "setup_s",
        median(&setup_s, true),
        "s",
        setup_s.len(),
        "median of set-ups before and after the window, at reference speed",
    );
    rep.metric("raw.setup_s", median(&setup_s, false), "s", setup_s.len());
    rep.metric_noted(
        "cold_solve_ms_p50",
        median(&cold_ms, true),
        "ms",
        cold_ms.len(),
        "reference solves at the set-ups before and after the window, at reference speed",
    );
    rep.metric(
        "raw.cold_solve_ms_p50",
        median(&cold_ms, false),
        "ms",
        cold_ms.len(),
    );
    let at_speed = |xs: &[(f64, f64)], hs: Option<&HostSpeed>| -> Vec<(f64, f64)> {
        xs.iter()
            .map(|&(t, v)| {
                let scale = hs.map_or(1.0, |h| h.mean_scale_at(offset + t, SCALE_NEAREST));
                (t, v * scale)
            })
            .collect()
    };
    for (name, xs, q, what) in [
        (
            "latency_ms_p50",
            &a.timed_acks,
            50.0,
            "update_demand ack p50",
        ),
        (
            "latency_ms_tail",
            &a.timed_acks,
            ACK_TAIL,
            "update_demand ack p75",
        ),
        (
            "visible_ms_p50",
            &a.timed_visible,
            50.0,
            "update to visible p50",
        ),
    ] {
        let norm = figure(&at_speed(xs, h), q);
        let raw = figure(&at_speed(xs, None), q);
        rep.metric_noted(
            name,
            norm,
            "ms",
            xs.len(),
            &format!("{what}, {ACK_WINDOW_S} s windows: median over windows of each window's figure, at reference speed"),
        );
        rep.metric(&format!("raw.{name}"), raw, "ms", xs.len());
    }
    rep.metric_noted(
        "host.kernel_ms_p50",
        speed.median_ms(),
        "ms",
        speed.len(),
        &format!("calibration kernel; reference {} ms", crate::calib::REF_MS),
    );
    // Report-only: the issue's serving metrics under their own names.
    for (name, xs, q) in [
        ("read_ms_p50", &a.reads, 50.0),
        ("read_ms_p99", &a.reads, 99.0),
        ("update_ack_ms_p50", &a.acks, 50.0),
        ("update_ack_ms_p99", &a.acks, 99.0),
        ("update_visible_ms_p50", &a.visible, 50.0),
        ("update_visible_ms_p99", &a.visible, 99.0),
        ("link_event_ack_ms_p50", &a.link_acks, 50.0),
        ("net.gen_late_ms_p99", &a.late, 99.0),
    ] {
        if !xs.is_empty() {
            rep.metric(name, xs.pct(q).unwrap_or(0.0), "ms", xs.len());
        }
    }
    rep.metric("epochs_committed", a.max_epoch as f64, "count", 1);

    if trace {
        let mut tracer = Tracer::new(true);
        let events: Vec<Request> = upd_plan
            .iter()
            .filter_map(|p| nws_service::parse_request(&p.line).ok())
            .take(120)
            .collect();
        let mut lt = layers::LayerInputs {
            task: &task,
            state: &mirror,
            gen: sweep_gen,
            build_ms,
            kinds: Vec::new(),
            events,
            net: Some(layers::NetFacts {
                round_trips: rtt.unwrap_or_default(),
                counters,
                mutations_acked: (a.acks.len() + a.link_acks.len()) as f64,
                ack_p50_ms: a.acks.p50().unwrap_or(0.0),
                updates: None,
            }),
            stages: &SERVE_STAGES,
            e2e_ms: a.acks.p50().unwrap_or(0.0),
            window_ms: COALESCE_MS as f64,
            root,
            seed,
        };
        layers::run_all(&mut lt, &mut tracer, rep);
        layers::finish_trace(&tracer, rep, root, workload, seed);
    }
    Ok(())
}

/// The stages of an acknowledged update, summed against the ack p50.
pub const SERVE_STAGES: [&str; 6] = [
    "protocol.parse_incoming",
    "coalesce.window",
    "state.apply_event",
    "persist.record_applied",
    "read_path.publish",
    "json.encode",
];
/// Closed-loop round trips per command in a traced run.
pub const ROUND_TRIPS: usize = 200;

/// A short serving session on `task` for workloads with no socket run of
/// their own: a durable daemon, `update_demand` at 2/s and `query_rates`
/// at 100/s for 4 s, then round trips and the daemon's counters.
pub fn probe(task: &MeasurementTask, root: &Path, seed: u64, rep: &mut Report) -> layers::NetFacts {
    let dir = root.join(format!("probe-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let facts = (|| -> Result<layers::NetFacts, String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (state, mut gen) = initial(task, seed ^ 0x9be);
        let daemon = start(state, Some(&dir))?;
        let mut rng = SplitMix::new(seed ^ 0x9be);
        let upd = evenly(&mut rng, 2.0, 0.3, 4.3, |_| {
            (gen.demand_one().to_json().encode(), ReqKind::Update)
        });
        let reads = evenly(&mut rng, 100.0, 0.3, 4.3, query_rates_only);
        // The schedule starts once the daemon answers (after its startup
        // solve).
        Conn::connect(daemon.addr)?.request("{\"cmd\":\"query_rates\"}")?;
        let origin = Instant::now();
        let addr = daemon.addr;
        let mut lanes = run_lanes(addr, &[&reads, &upd], origin).into_iter();
        let (r, u) = (
            lanes.next().expect("read lane"),
            lanes.next().expect("update lane"),
        );
        let a = analyse(rep, &reads, &r, &upd, &u);
        rep.metric(
            "net.gen_late_ms_p99",
            a.late.pct(99.0).unwrap_or(0.0),
            "ms",
            a.late.len(),
        );
        let facts = layers::NetFacts {
            round_trips: round_trips(addr, ROUND_TRIPS)?,
            counters: scrape(addr)?,
            mutations_acked: a.acks.len() as f64,
            ack_p50_ms: a.acks.p50().unwrap_or(0.0),
            updates: Some(
                upd.iter()
                    .filter_map(|p| nws_service::parse_request(&p.line).ok())
                    .collect(),
            ),
        };
        daemon.shutdown()?;
        Ok(facts)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    facts.unwrap_or_else(|e| {
        rep.attempt(false, || format!("probe session failed: {e}"));
        layers::NetFacts::default()
    })
}

/// Percentile `q` of `(due s, ms)` samples per [`ACK_WINDOW_S`] window,
/// the median over windows; over the whole run when no window holds
/// [`ACK_WINDOW_MIN`] samples (a run shorter than a window).
fn figure(xs: &[(f64, f64)], q: f64) -> f64 {
    stats::windowed(xs, ACK_WINDOW_S, q, ACK_WINDOW_MIN)
        .or_else(|| {
            let mut v: Vec<f64> = xs.iter().map(|x| x.1).collect();
            v.sort_by(f64::total_cmp);
            stats::percentile(&v, q)
        })
        .unwrap_or(0.0)
}

/// Tail percentile of the acks in a window: with ~70 acks a window, a
/// p75 leaves ~18 beyond it, a p90 only 7, and window p90s spread 15%
/// more than p75s across runs of the same code on the tuning host.
const ACK_TAIL: f64 = 75.0;
/// Window for ack and visibility figures, s.
pub const ACK_WINDOW_S: f64 = 8.0;
/// Fewest samples an ack or visibility window needs.
const ACK_WINDOW_MIN: usize = 20;
/// Offered `update_demand` rate, 1/s (before the calibration pauses).
pub const UPDATE_RATE: f64 = 10.0;
/// First `fail_link`, s into the window.
pub const LINK_FAIL_AT_S: f64 = 2.0;
/// How long the fibre stays down before `restore_link`, s.
pub const LINK_DOWN_S: f64 = 2.5;
/// Period of the fail/restore pair, s.
pub const LINK_PERIOD_S: f64 = 5.0;
/// `query_rates` poll rate, 1/s (before the calibration pauses).
pub const POLL_RATE: f64 = 250.0;
/// The update lane sends nothing in the last `UPDATE_PAUSE_S` of each
/// second, s: longer than the daemon takes to ack an update (ack p90
/// ~40 ms on the tuning host).
const UPDATE_PAUSE_S: f64 = 0.1;
/// The poll lane sends nothing in the last `POLL_PAUSE_S` of each second,
/// s, so that it still sees the updates acked before the update pause.
const POLL_PAUSE_S: f64 = 0.04;
/// The kernel is timed `KERNEL_LEAD_S` before each whole second, s.
const KERNEL_LEAD_S: f64 = 0.03;
/// Kernel timings per pause.
const PAUSE_KERNELS: usize = 6;
/// Kernel timings whose mean scales each ack or visibility sample: as
/// many as one pause takes. Host stalls come and go within seconds, and
/// in a noisy phase of the tuning host the six nearest timings held the
/// ack p75's spread over ten runs to 0.07, the twelve nearest to 0.11.
const SCALE_NEAREST: usize = PAUSE_KERNELS;
