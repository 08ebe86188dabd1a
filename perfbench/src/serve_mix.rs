//! `serve-mix`: a closed-loop client (one connection at a time) against an
//! in-process `mcm serve` on an ephemeral port, with a fresh store, one job
//! slot and one worker thread. Each epoch sends every entry of a fixed
//! pool five times, in an order drawn from the seed: the first send of a
//! simulated entry misses the store, the other four hit it, and the
//! statically infeasible entries are refused with a 422 witness. An op is
//! one `POST /runs` through to its final result document.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcm_core::{Experiment, RunOptions};
use mcm_fault::FaultPlan;
use mcm_load::{HdOperatingPoint, Workload};
use mcm_serve::{ResultStore, ServeConfig, Server};
use mcm_sweep::{content_key, PointRecord};
use mcm_verify::TraceAuditOptions;

use crate::layers::{self, Counts};
use crate::report::{Check, Layers, Report, Run, Timed, OUT_DIR};
use crate::stats::{self, Digest};
use crate::trace::Tracer;

/// Operations each simulated request is limited to.
const OP_LIMIT: u64 = 50_000;
/// Sends of every pool entry per epoch: one miss, four store hits. Hits
/// are then about two thirds of all requests, so the median request is a
/// hit well inside the hit times and the 90th percentile a miss well
/// inside the miss times.
const REPEATS: usize = 5;
/// Fixed interval between job polls. Every poll is a new connection that
/// leaves a socket in TIME_WAIT for a minute; at 2 ms, back-to-back runs
/// pile up enough of them to slow every later connect, so the client polls
/// at a rate that keeps them few, at a cost of at most 10 ms per miss.
const POLL: Duration = Duration::from_millis(10);
/// `GET /healthz` round trips timed for `serve.http_us`.
const HTTP_PROBES: usize = 50;
/// Replays of each job in the traced run; their mean is its cost. The
/// first runs between the bare and the traced epoch, the rest after both,
/// so the job costs sample the host over the same stretch as the epochs.
const JOB_REPLAYS: usize = 3;

/// One pool entry: a `POST /runs` body and the experiment it names.
#[derive(Debug, Clone)]
struct Entry {
    label: &'static str,
    format: &'static str,
    channels: u32,
    workload: &'static str,
    verify: bool,
    fault_seed: Option<u64>,
}

const fn entry(
    label: &'static str,
    format: &'static str,
    channels: u32,
    workload: &'static str,
) -> Entry {
    Entry {
        label,
        format,
        channels,
        workload,
        verify: false,
        fault_seed: None,
    }
}

/// The fixed request pool.
fn pool() -> Vec<Entry> {
    vec![
        entry("h264-1080p30-4ch", "1080p30", 4, "h264-record"),
        entry("h264-720p30-2ch", "720p30", 2, "h264-record"),
        entry("hevc-1080p30-4ch", "1080p30", 4, "hevc-record"),
        entry("vvc-1080p30-8ch", "1080p30", 8, "vvc-record"),
        entry("stochastic7-1080p30-4ch", "1080p30", 4, "stochastic:7"),
        entry("stochastic11-720p60-2ch", "720p60", 2, "stochastic:11"),
        entry("tenants2-1080p30-4ch", "1080p30", 4, "multi-tenant:2"),
        entry("tenants4-1080p60-8ch", "1080p60", 8, "multi-tenant:4"),
        Entry {
            verify: true,
            ..entry("verify-h264-1080p30-4ch", "1080p30", 4, "h264-record")
        },
        Entry {
            verify: true,
            ..entry("verify-hevc-720p60-4ch", "720p60", 4, "hevc-record")
        },
        Entry {
            fault_seed: Some(7),
            ..entry("fault7-h264-1080p30-4ch", "1080p30", 4, "h264-record")
        },
        Entry {
            fault_seed: Some(11),
            ..entry("fault11-h264-1080p60-8ch", "1080p60", 8, "h264-record")
        },
        entry("infeasible-2160p30-1ch", "2160p30", 1, "h264-record"),
        entry("infeasible-1080p60-1ch", "1080p60", 1, "h264-record"),
    ]
}

fn point(format: &str) -> HdOperatingPoint {
    match format {
        "720p30" => HdOperatingPoint::Hd720p30,
        "720p60" => HdOperatingPoint::Hd720p60,
        "1080p30" => HdOperatingPoint::Hd1080p30,
        "1080p60" => HdOperatingPoint::Hd1080p60,
        _ => HdOperatingPoint::Uhd2160p30,
    }
}

impl Entry {
    fn faults(&self) -> Result<Option<FaultPlan>, String> {
        self.fault_seed
            .map(|s| FaultPlan::seeded(s, self.channels).map_err(|e| e.to_string()))
            .transpose()
    }

    /// The request body.
    fn body(&self) -> Result<String, String> {
        let mut body = serde_json::json!({
            "label": self.label,
            "format": self.format,
            "channels": self.channels,
            "clock_mhz": 400,
            "workload": self.workload,
            "op_limit": OP_LIMIT,
            "run": { "verify": self.verify }
        });
        if let (Some(plan), serde::Value::Object(m)) = (self.faults()?, &mut body) {
            m.insert(
                "faults".to_string(),
                serde_json::to_value(&plan).map_err(|e| format!("{e:?}"))?,
            );
        }
        serde_json::to_string(&body).map_err(|e| format!("{e:?}"))
    }

    /// The experiment and run options the server derives from the body.
    fn job(&self) -> Result<(Experiment, RunOptions), String> {
        let mut exp = Experiment::builder()
            .point(point(self.format))
            .channels(self.channels)
            .clock_mhz(400)
            .workload(Workload::parse(self.workload).map_err(|e| e.to_string())?)
            .build()
            .map_err(|e| e.to_string())?;
        exp.op_limit = Some(OP_LIMIT);
        let mut run = RunOptions::default().with_verify(self.verify);
        if let Some(plan) = self.faults()? {
            run = run.with_faults(plan);
        }
        Ok((exp, run))
    }
}

/// The request order of epoch `epoch` under `seed`: every pool index
/// [`REPEATS`] times, shuffled by a splitmix64 stream.
fn sequence(seed: u64, epoch: u64, pool_len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool_len).flat_map(|i| [i; REPEATS]).collect();
    let mut state = seed ^ epoch.wrapping_mul(0xa076_1d64_78bd_642f);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Sends one request on a fresh connection and reads the whole reply.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, serde::Value), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed reply {raw:?}"))?;
    let text = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).trim();
    let doc = if text.is_empty() {
        serde::Value::Null
    } else {
        serde_json::from_str(text).map_err(|e| format!("reply is not JSON: {e:?}"))?
    };
    Ok((status, doc))
}

/// This run's directory for server stores. The stores are left in place:
/// deleting files on a filesystem mounted with `discard` slows every file
/// the next runs create, and a hit writes one. Delete `.bench_out` when
/// done benchmarking.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        Scratch(PathBuf::from(OUT_DIR).join(format!("serve-{}-{stamp}", std::process::id())))
    }
}

/// A running in-process server with a fresh store.
struct Service {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<(), String>>>,
}

static SERVICES: AtomicU64 = AtomicU64::new(0);

impl Service {
    fn start(scratch: &Scratch) -> Result<Service, String> {
        let n = SERVICES.fetch_add(1, Relaxed);
        let dir = scratch.0.join(format!("store-{n}"));
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: dir,
            max_jobs: 1,
            threads: Some(1),
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        Ok(Service {
            addr,
            thread: Some(thread),
        })
    }

    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = call(self.addr, "POST", "/shutdown", "");
        let joined = thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        sent?;
        joined
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// How the store treated a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Refused,
}

/// One finished request.
#[derive(Debug)]
struct Done {
    entry: usize,
    kind: Kind,
    wall_ms: f64,
    polls: u32,
    /// Wall time from the 202 to the final document, and the job's own
    /// elapsed time from that document (misses only).
    after_accept_ms: f64,
    job_ms: f64,
    simulated_bytes: u64,
    digest: Result<String, String>,
}

/// The digest of a final document, without job ids, cache flags or timing:
/// the content key, the record and the error. A miss also folds in the
/// recorder summary its job produced (a hit has none).
fn doc_digest(status: u16, doc: &serde::Value, kind: Kind) -> Result<String, String> {
    let text = |v: Option<&serde::Value>| {
        v.map(|v| serde_json::to_string(v).unwrap_or_default())
            .unwrap_or_default()
    };
    if status == 422 {
        return Ok(Digest::default()
            .text("422")
            .text(&text(doc.get("error")))
            .text(&text(doc.get("witness")))
            .hex());
    }
    let result = doc.get("result").ok_or("document has no result")?;
    let digest = Digest::default()
        .text(&text(doc.get("status")))
        .text(&text(doc.get("label")))
        .text(&text(result.get("key")))
        .text(&text(result.get("record")))
        .text(&text(result.get("error")));
    if kind != Kind::Miss {
        return Ok(digest.hex());
    }
    match result.get("obs") {
        Some(obs) if !obs.is_null() => Ok(digest.text(&text(Some(obs))).hex()),
        _ => Err("simulated run has no recorder summary".to_string()),
    }
}

/// The expected-digest label of a request: a miss, whose document also
/// carries a recorder summary, is checked under `<label>/miss`.
fn check_label(label: &str, kind: Kind) -> String {
    match kind {
        Kind::Miss => format!("{label}/miss"),
        Kind::Hit | Kind::Refused => label.to_string(),
    }
}

/// Submits `entry` and waits for its final document.
fn submit(addr: SocketAddr, index: usize, body: &str) -> Result<Done, String> {
    let started = Instant::now();
    let (status, doc) = call(addr, "POST", "/runs", body)?;
    let mut done = Done {
        entry: index,
        kind: Kind::Hit,
        wall_ms: 0.0,
        polls: 0,
        after_accept_ms: 0.0,
        job_ms: 0.0,
        simulated_bytes: 0,
        digest: Err(String::new()),
    };
    let (status, doc) = match status {
        200 => (status, doc),
        422 => {
            done.kind = Kind::Refused;
            (status, doc)
        }
        202 => {
            done.kind = Kind::Miss;
            let accepted = Instant::now();
            let id = doc
                .get("job")
                .and_then(|v| v.as_u64())
                .ok_or("202 without a job id")?;
            let path = format!("/jobs/{id}");
            loop {
                std::thread::sleep(POLL);
                done.polls += 1;
                let (s, d) = call(addr, "GET", &path, "")?;
                let state = d.get("status").and_then(|v| v.as_str()).unwrap_or("");
                if s != 200 || matches!(state, "done" | "failed" | "cancelled") {
                    done.after_accept_ms = accepted.elapsed().as_secs_f64() * 1e3;
                    let result = d.get("result");
                    done.job_ms = result
                        .and_then(|r| r.get("elapsed_ms"))
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0);
                    done.simulated_bytes = result
                        .and_then(|r| r.get("record"))
                        .and_then(|r| r.get("simulated_bytes"))
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0);
                    break (s, d);
                }
            }
        }
        other => return Err(format!("POST /runs answered {other}: {doc:?}")),
    };
    done.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    done.digest = doc_digest(status, &doc, done.kind);
    Ok(done)
}

/// Sends one request and waits for its final document.
type Send<'a> = dyn FnMut() -> Result<Done, String> + 'a;

struct Epoch {
    done: Vec<Done>,
    /// Request-phase wall time, seconds.
    wall: f64,
}

/// One epoch on a fresh server; `wrap` runs around each request (the
/// traced run opens a span there).
fn epoch(
    scratch: &Scratch,
    bodies: &[String],
    order: &[usize],
    wrap: &mut dyn FnMut(usize, &mut Send) -> Result<Done, String>,
) -> Result<Epoch, String> {
    let service = Service::start(scratch)?;
    let started = Instant::now();
    let mut done = Vec::with_capacity(order.len());
    for &i in order {
        let mut send = || submit(service.addr, i, &bodies[i]);
        done.push(wrap(i, &mut send)?);
    }
    let wall = started.elapsed().as_secs_f64();
    service.stop()?;
    Ok(Epoch { done, wall })
}

fn plain(_: usize, send: &mut Send) -> Result<Done, String> {
    send()
}

fn bodies(pool: &[Entry]) -> Result<Vec<String>, String> {
    pool.iter().map(Entry::body).collect()
}

/// Each pool entry's digests, from one epoch that sends the pool twice in
/// pool order: misses (and refusals) first, then store hits.
pub fn digests() -> Result<Vec<(String, String)>, String> {
    let pool = pool();
    let scratch = Scratch::new();
    let bodies = bodies(&pool)?;
    let order: Vec<usize> = (0..pool.len()).chain(0..pool.len()).collect();
    let e = epoch(&scratch, &bodies, &order, &mut plain)?;
    e.done
        .into_iter()
        .map(|d| Ok((check_label(pool[d.entry].label, d.kind), d.digest?)))
        .collect()
}

/// Binds a server, opens its store, and sends one small untimed miss.
fn set_up(scratch: &Scratch) -> Result<(), String> {
    let service = Service::start(scratch)?;
    let warm = serde_json::to_string(&serde_json::json!({
        "label": "warm-up",
        "format": "720p30",
        "channels": 2,
        "op_limit": 5_000
    }))
    .map_err(|e| format!("{e:?}"))?;
    let done = submit(service.addr, usize::MAX, &warm)?;
    if done.kind != Kind::Miss {
        return Err(format!(
            "warm-up request was not simulated: {:?}",
            done.kind
        ));
    }
    service.stop()
}

fn tally(check: &mut Check, pool: &[Entry], e: &Epoch, samples: &mut Vec<f64>, bytes: &mut u64) {
    for d in &e.done {
        if check.op(&check_label(pool[d.entry].label, d.kind), d.digest.clone()) {
            samples.push(d.wall_ms);
            *bytes += d.simulated_bytes;
        }
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let pool = pool();
    let scratch = Scratch::new();
    let bodies = bodies(&pool)?;
    let mut check = Check::new("serve-mix");
    let mut timed = Timed::default();
    let mut epochs = 0u64;
    while !timed.enough(run) {
        timed.set_up(|| set_up(&scratch))?;
        let order = sequence(run.seed, epochs, pool.len());
        let started = Instant::now();
        timed.round(
            |samples| match epoch(&scratch, &bodies, &order, &mut plain) {
                Ok(e) => {
                    let mut bytes = 0u64;
                    tally(&mut check, &pool, &e, samples, &mut bytes);
                    (e.wall, bytes)
                }
                Err(e) => {
                    check.fail_all(order.len(), &e);
                    (started.elapsed().as_secs_f64(), 0)
                }
            },
        );
        epochs += 1;
    }
    report.end_to_end(&timed)?;
    report.note(format!(
        "{epochs} epochs of {} requests (pool of {} × {REPEATS}), each after its own set-ups, \
         closed loop, one connection; op = one POST /runs to its final document",
        pool.len() * REPEATS,
        pool.len()
    ));
    report.finish(check);
    Ok(report)
}

/// Per-entry replay times, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
struct EntryCost {
    verdict: f64,
    key: f64,
    get: f64,
    run: f64,
    put: f64,
}

pub fn traced(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let pool = pool();
    let scratch = Scratch::new();
    let bodies = bodies(&pool)?;
    set_up(&scratch)?;
    let mut check = Check::new("serve-mix");
    let tracer = Tracer::default();
    let mut layers = Layers::default();
    let order = sequence(run.seed, 0, pool.len());

    // Tracing overhead: one epoch bare, one with a span per request.
    let bare = epoch(&scratch, &bodies, &order, &mut plain)?;
    let mut runs = vec![Vec::with_capacity(JOB_REPLAYS); pool.len()];
    for (i, e) in pool.iter().enumerate() {
        if simulated(e)? {
            runs[i].push(replay_job(&tracer, e, i as u64)?.0);
        }
    }
    let mut wrap = |i: usize, send: &mut Send| tracer.span("serve.request", None, i as u64, send).0;
    let traced_epoch = epoch(&scratch, &bodies, &order, &mut wrap)?;
    let (mut samples, mut bytes) = (Vec::new(), 0u64);
    tally(&mut check, &pool, &bare, &mut samples, &mut bytes);
    tally(&mut check, &pool, &traced_epoch, &mut samples, &mut bytes);
    let wall_sum = |e: &Epoch| e.done.iter().map(|d| d.wall_ms).sum::<f64>();
    layers.set(
        "trace.overhead_ratio",
        wall_sum(&traced_epoch) / wall_sum(&bare),
    );

    let done = &traced_epoch.done;
    let of = |k: Kind| done.iter().filter(move |d| d.kind == k);
    let mean = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let hits = of(Kind::Hit).count() as f64;
    let misses = of(Kind::Miss).count() as f64;
    layers.set("serve.hit_ratio", hits / (hits + misses));
    layers.set(
        "serve.hit_ms",
        mean(of(Kind::Hit).map(|d| d.wall_ms).collect()),
    );
    layers.set(
        "serve.miss_ms",
        mean(of(Kind::Miss).map(|d| d.wall_ms).collect()),
    );
    layers.set(
        "serve.queue_wait_ms",
        mean(
            of(Kind::Miss)
                .map(|d| d.after_accept_ms - d.job_ms)
                .collect(),
        ),
    );
    layers.set(
        "serve.polls_per_req",
        mean(done.iter().map(|d| f64::from(d.polls)).collect()),
    );

    // HTTP round trip on an idle server.
    let service = Service::start(&scratch)?;
    let mut http = Vec::with_capacity(HTTP_PROBES);
    for i in 0..HTTP_PROBES {
        let (out, id) = tracer.span("serve.http", None, i as u64, || {
            call(service.addr, "GET", "/healthz", "")
        });
        out?;
        http.push(tracer.total_ns_of(id) as f64);
    }
    service.stop()?;
    let http_ns = stats::median(&http);
    layers.set("serve.http_us", http_ns / 1e3);

    // Replays of what the server does per request, on a scratch store.
    let store = ResultStore::open(scratch.0.join("replay")).map_err(|e| e.to_string())?;
    let mut costs = vec![EntryCost::default(); pool.len()];
    let mut counts = Counts::default();
    let mut model_probes = 0usize;
    let mut on_off = Vec::new();
    let (mut audit_ns, mut audit_cmds, mut findings) = (0.0, 0u64, 0usize);
    let (mut retries, mut remaps, mut shed) = (0u64, 0u64, 0u64);
    for (i, e) in pool.iter().enumerate() {
        let op = i as u64;
        let (exp, run_opts) = e.job()?;
        let cost = &mut costs[i];
        if e.fault_seed.is_none() {
            let (v, id) = tracer.span("analyze.verdict", None, op, || mcm_analyze::verdict(&exp));
            cost.verdict = tracer.total_ns_of(id) as f64;
            if !v.feasible {
                continue;
            }
        }
        let (key, id) = tracer.span("sweep.content_key", None, op, || {
            content_key(&exp, &run_opts)
        });
        cost.key = tracer.total_ns_of(id) as f64;
        let key = key.map_err(|e| e.to_string())?;
        let (_, id) = tracer.span("serve.store_get", None, op, || store.get(key));
        cost.get = tracer.total_ns_of(id) as f64;
        let mut record = None;
        for _ in 1..JOB_REPLAYS {
            let (ns, r) = replay_job(&tracer, e, op)?;
            runs[i].push(ns);
            record = Some(r);
        }
        cost.run = runs[i].iter().sum::<f64>() / runs[i].len() as f64;
        let record = record.expect("at least one job replay");
        let (put, id) = tracer.span("serve.store_put", None, op, || store.put(key, &record));
        put.map_err(|e| e.to_string())?;
        cost.put = tracer.total_ns_of(id) as f64;

        if e.fault_seed.is_some() {
            let frame = exp
                .run_with(&run_opts)
                .and_then(|o| o.try_into_frame())
                .map_err(|e| e.to_string())?;
            if let Some(d) = frame.degrade {
                retries += d.retries;
                remaps += d.remaps;
                shed += d.shed_bytes;
            }
            continue;
        }
        // Model layers of the same job with the recorder off.
        let (out, e2e) = tracer.span("probe.run_with", None, op, || {
            exp.run_with(&RunOptions::default())
        });
        out.map_err(|e| e.to_string())?;
        on_off.push(cost.run / tracer.total_ns_of(e2e) as f64);
        let (c, traces) = layers::replay_direct(&exp, &tracer, e2e, op)?;
        counts.add(&c);
        model_probes += 1;
        if e.verify {
            let cluster = &exp.memory.controller.cluster;
            let timing = *mcm_dram::BankCluster::new(cluster)
                .map_err(|e| e.to_string())?
                .timing();
            let refresh = &exp.memory.controller.refresh;
            for (ch, trace) in traces.iter().enumerate() {
                let opts = TraceAuditOptions {
                    refresh_budget: refresh.enabled.then_some(refresh.max_postpone),
                    channel: Some(ch as u32),
                    ..TraceAuditOptions::default()
                };
                let (r, id) = tracer.span("verify.audit_trace", None, op, || {
                    mcm_verify::audit_trace(&timing, &cluster.geometry, trace, &opts)
                });
                audit_ns += tracer.total_ns_of(id) as f64;
                audit_cmds += trace.len() as u64;
                findings += r.diagnostics.len();
            }
        }
    }

    layers.model(&tracer, &counts, model_probes, 1, "probe.run_with");
    layers.set("obs.on_off_ratio", stats::median(&on_off));
    let callbacks = obs_callbacks(&pool)?;
    layers.set(
        "obs.callbacks_per_txn",
        callbacks as f64 / counts.txns as f64,
    );
    layers.set(
        "verify.audit_ns_per_cmd",
        audit_ns / audit_cmds.max(1) as f64,
    );
    layers.set("verify.findings", findings as f64);
    let gated: Vec<&EntryCost> = pool
        .iter()
        .zip(&costs)
        .filter(|(e, _)| e.fault_seed.is_none())
        .map(|(_, c)| c)
        .collect();
    layers.set(
        "analyze.verdict_us",
        gated.iter().map(|c| c.verdict).sum::<f64>() / gated.len() as f64 / 1e3,
    );
    let refused = of(Kind::Refused).count() as f64;
    layers.set("analyze.pruned_ratio", refused / done.len() as f64);
    let keyed: Vec<&EntryCost> = costs.iter().filter(|c| c.key > 0.0).collect();
    let mean_of =
        |f: fn(&EntryCost) -> f64| keyed.iter().map(|c| f(c)).sum::<f64>() / keyed.len() as f64;
    layers.set("sweep.key_us", mean_of(|c| c.key) / 1e3);
    layers.set("serve.store_get_us", mean_of(|c| c.get) / 1e3);
    layers.set("serve.store_put_us", mean_of(|c| c.put) / 1e3);
    layers.set("fault.retries", retries as f64);
    layers.set("fault.remaps", remaps as f64);
    layers.set("fault.shed_bytes", shed as f64);

    // Layer sum: what each request of both epochs should have cost.
    let mut parts = 0.0;
    for d in bare.done.iter().chain(done) {
        let c = costs[d.entry];
        parts += http_ns * f64::from(1 + d.polls) + c.verdict;
        if d.kind != Kind::Refused {
            parts += c.key + c.get;
        }
        if d.kind == Kind::Miss {
            parts += c.run + c.put;
        }
    }
    layers.layer_sum_ns(parts, (wall_sum(&bare) + wall_sum(&traced_epoch)) * 1e6);
    report.note(format!(
        "traced epoch: {} requests; model layers replayed on {model_probes} healthy jobs; \
         the layer sum covers the bare and the traced epoch; \
         serve.queue_wait_ms includes the {} ms poll interval",
        done.len(),
        POLL.as_millis()
    ));
    report.per_layer(layers, &tracer)?;
    report.finish(check);
    Ok(report)
}

/// Whether the server simulates `e` rather than refusing it: a faulted
/// submission skips the static gate.
fn simulated(e: &Entry) -> Result<bool, String> {
    Ok(e.fault_seed.is_some() || mcm_analyze::verdict(&e.job()?.0).feasible)
}

/// One replay of `e`'s job as the executor runs it, on a fresh worker
/// thread, observed and then summarized: its wall time, nanoseconds, and
/// its record.
fn replay_job(tracer: &Tracer, e: &Entry, op: u64) -> Result<(f64, PointRecord), String> {
    let (exp, run) = e.job()?;
    let (record, id) = tracer.span("core.run_with", None, op, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let rec = Arc::new(mcm_obs::StatsRecorder::new());
                let outcome = exp.run_with(&run.with_recorder(rec.clone()));
                let frame = outcome.and_then(|o| o.try_into_frame());
                let record = PointRecord::from_result(frame);
                std::hint::black_box(rec.report().summary());
                record
            })
            .join()
        })
    });
    let record = record.map_err(|_| "job replay panicked".to_string())?;
    Ok((
        tracer.total_ns_of(id) as f64,
        record.map_err(|e| e.to_string())?,
    ))
}

/// Recorder callbacks the healthy jobs make, counted untimed.
fn obs_callbacks(pool: &[Entry]) -> Result<u64, String> {
    let mut total = 0;
    for e in pool.iter().filter(|e| e.fault_seed.is_none()) {
        let (exp, run) = e.job()?;
        if !mcm_analyze::verdict(&exp).feasible {
            continue;
        }
        let capture = Arc::new(layers::Capture::default());
        exp.run_with(&run.with_recorder(capture.clone()))
            .map_err(|e| e.to_string())?;
        total += capture.callbacks.load(Relaxed);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_sequence() {
        let n = pool().len();
        assert_eq!(sequence(7, 0, n), sequence(7, 0, n));
        assert_ne!(sequence(7, 0, n), sequence(8, 0, n));
        assert_ne!(sequence(7, 0, n), sequence(7, 1, n));
        let mut sorted = sequence(7, 3, n);
        sorted.sort_unstable();
        let expected: Vec<usize> = (0..n).flat_map(|i| [i; REPEATS]).collect();
        assert_eq!(
            sorted, expected,
            "every entry is sent exactly REPEATS times"
        );
    }

    #[test]
    fn one_seed_gives_the_same_replies() {
        let pool: Vec<Entry> = pool()
            .into_iter()
            .filter(|e| matches!(e.label, "h264-720p30-2ch" | "infeasible-2160p30-1ch"))
            .collect();
        let bodies = bodies(&pool).unwrap();
        let scratch = Scratch::new();
        let order = sequence(5, 0, pool.len());
        let replies = || -> Vec<(usize, Kind, String)> {
            let e = epoch(&scratch, &bodies, &order, &mut plain).unwrap();
            e.done
                .into_iter()
                .map(|d| (d.entry, d.kind, d.digest.unwrap()))
                .collect()
        };
        let first = replies();
        assert_eq!(first, replies());
        let expected = crate::report::parse_expected(include_str!("../expected_digests.txt"));
        let mut seen = [false; 2];
        for (i, kind, digest) in &first {
            let label = check_label(pool[*i].label, *kind);
            let key = ("serve-mix".to_string(), label.clone());
            assert_eq!(&expected[&key], digest, "{label}");
            let want = match (i, seen[*i]) {
                (1, _) => Kind::Refused,
                (_, false) => Kind::Miss,
                (_, true) => Kind::Hit,
            };
            assert_eq!(*kind, want, "{label}");
            seen[*i] = true;
        }
    }

    #[test]
    fn digest_covers_the_key_and_the_recorder_summary() {
        let doc = |job: u64, key: &str, activates: Option<u64>, elapsed_ms: f64| {
            serde_json::json!({
                "job": job,
                "status": "done",
                "label": "x",
                "result": {
                    "cached": false,
                    "key": key,
                    "record": { "access_time_ps": 1 },
                    "error": serde::Value::Null,
                    "obs": activates.map(|a| serde_json::json!({ "requests": 10, "activates": a })),
                    "elapsed_ms": elapsed_ms
                }
            })
        };
        let miss = |d: &serde::Value| doc_digest(200, d, Kind::Miss);
        let hit = |d: &serde::Value| doc_digest(200, d, Kind::Hit).unwrap();
        let base = doc(3, "00000000000000aa", Some(2), 1.5);
        let other_key = doc(3, "00000000000000ab", Some(2), 1.5);
        assert_eq!(miss(&doc(4, "00000000000000aa", Some(2), 2.5)), miss(&base));
        assert_ne!(miss(&other_key), miss(&base));
        assert_ne!(hit(&other_key), hit(&base));
        assert_ne!(miss(&doc(3, "00000000000000aa", Some(3), 1.5)), miss(&base));
        assert!(miss(&doc(3, "00000000000000aa", None, 1.5)).is_err());
        assert_eq!(check_label("x", Kind::Miss), "x/miss");
        assert_eq!(check_label("x", Kind::Hit), "x");
    }
}
