//! `event-mlp`: the memory-level-parallelism study on the event-driven
//! kernel — `run_event_driven` on 720p30 × {1,2,4,8} channels × windows
//! {1,2,4,8,16,64}, 64 B transactions, a 100k-op prefix, one thread,
//! recorder off. An op is one `run_event_driven` call.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use mcm_core::eventsim::{run_event_driven, run_event_driven_observed, EventDrivenResult};
use mcm_core::{ChunkPolicy, Experiment};
use mcm_load::HdOperatingPoint;

use crate::layers::{self, Capture, Counts, Drain};
use crate::report::{Check, Layers, Report, Run, Timed};
use crate::stats::Digest;
use crate::trace::Tracer;

const CHANNELS: [u32; 4] = [1, 2, 4, 8];
const WINDOWS: [u32; 6] = [1, 2, 4, 8, 16, 64];
const PREFIX_OPS: u64 = 100_000;
/// Bytes per master transaction.
const CHUNK: u32 = 64;
/// (channels, window) pairs whose layers the traced run replays, and
/// whose recorder summaries every run checks.
const PROBES: [(u32, u32); 4] = [(1, 1), (2, 4), (4, 16), (8, 64)];
/// Times the traced run repeats each probe's run and its layer replays,
/// interleaved, so the layer-sum check compares them over more than one
/// short stretch of host time.
const LAYER_REPS: usize = 3;

struct Config {
    label: String,
    exp: Experiment,
    window: u32,
    prefix_bytes: u64,
}

fn experiment(channels: u32) -> Experiment {
    let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, channels, 400);
    e.chunk = ChunkPolicy::Fixed(CHUNK);
    e.op_limit = Some(PREFIX_OPS);
    e
}

/// The 24 configurations with their simulated prefix sizes.
fn configs() -> Result<Vec<Config>, String> {
    let mut out = Vec::new();
    for ch in CHANNELS {
        let exp = experiment(ch);
        let (ops, _) = layers::generate(&exp, Drain::Prefix)?;
        let prefix_bytes = ops.iter().map(|o| u64::from(o.len)).sum();
        for window in WINDOWS {
            out.push(Config {
                label: label(ch, window),
                exp: exp.clone(),
                window,
                prefix_bytes,
            });
        }
    }
    Ok(out)
}

fn label(channels: u32, window: u32) -> String {
    format!("720p30/{channels}ch/w{window}")
}

/// The digest of one run, after checking that the transactions it reports
/// carry exactly the prefix bytes `sim_mb_per_s` counts.
fn digest(c: &Config, r: &EventDrivenResult) -> Result<String, String> {
    let carried = r.transactions * u64::from(CHUNK);
    if carried != c.prefix_bytes {
        return Err(format!(
            "{} transactions carry {carried} B, the prefix holds {} B",
            r.transactions, c.prefix_bytes
        ));
    }
    Ok(Digest::default()
        .num(r.access_time.as_ps())
        .num(r.transactions)
        .num(r.events)
        .hex())
}

fn one(c: &Config) -> Result<String, String> {
    run_event_driven(&c.exp, c.window)
        .map_err(|e| e.to_string())
        .and_then(|r| digest(c, &r))
}

/// The digest of what a recorder saw: per channel its command, row and
/// byte counters, energy and latency summary; the kernel's event count.
fn obs_digest(report: &mcm_obs::ObsReport) -> Result<String, String> {
    fn json<T: serde::Serialize>(v: &T) -> Result<String, String> {
        serde_json::to_string(v).map_err(|e| format!("{e:?}"))
    }
    let mut d = Digest::default().num(report.kernel.events);
    for ch in &report.channels {
        d = d
            .text(&json(&ch.counters)?)
            .text(&json(&ch.energy)?)
            .text(&json(&ch.latency_ps)?);
    }
    Ok(d.hex())
}

/// One observed run with a `StatsRecorder`, digested.
fn observed(exp: &Experiment, window: u32) -> Result<String, String> {
    let stats = Arc::new(mcm_obs::StatsRecorder::new());
    run_event_driven_observed(exp, window, Some(stats.clone())).map_err(|e| e.to_string())?;
    obs_digest(&stats.report())
}

/// Checks, untimed, what a recorder sees of each probe configuration.
fn check_observed(check: &mut Check) {
    for (ch, window) in PROBES {
        check.op(
            &format!("{}/obs", label(ch, window)),
            observed(&experiment(ch), window),
        );
    }
}

pub fn digests() -> Result<Vec<(String, String)>, String> {
    let mut out = configs()?
        .iter()
        .map(|c| Ok((c.label.clone(), one(c)?)))
        .collect::<Result<Vec<_>, String>>()?;
    for (ch, window) in PROBES {
        out.push((
            format!("{}/obs", label(ch, window)),
            observed(&experiment(ch), window)?,
        ));
    }
    Ok(out)
}

fn set_up() -> Result<Vec<Config>, String> {
    let configs = configs()?;
    let warm = configs.last().ok_or("no configurations")?;
    run_event_driven(&warm.exp, warm.window).map_err(|e| e.to_string())?;
    Ok(configs)
}

/// One round over every configuration: per-run wall times, bytes, total.
fn round(configs: &[Config], check: &mut Check, samples: &mut Vec<f64>, bytes: &mut u64) -> f64 {
    let mut wall = 0.0;
    for c in configs {
        let started = Instant::now();
        let out = run_event_driven(&c.exp, c.window);
        let took = started.elapsed().as_secs_f64();
        wall += took;
        let ok = check.op(
            &c.label,
            out.map_err(|e| e.to_string()).and_then(|r| digest(c, &r)),
        );
        if ok {
            samples.push(took * 1e3);
            *bytes += c.prefix_bytes;
        }
    }
    wall
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let mut check = Check::new("event-mlp");
    check_observed(&mut check);
    let mut timed = Timed::default();
    while !timed.enough(run) {
        let configs = timed.set_up(set_up)?;
        timed.round(|samples| {
            let mut bytes = 0u64;
            let wall = round(&configs, &mut check, samples, &mut bytes);
            (wall, bytes)
        });
    }
    report.end_to_end(&timed)?;
    report.note(format!(
        "{} rounds of {} runs on one thread, each after its own set-ups; \
         op = one run_event_driven call",
        timed.rounds(),
        CHANNELS.len() * WINDOWS.len()
    ));
    report.finish(check);
    Ok(report)
}

pub fn traced(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let configs = set_up()?;
    let mut check = Check::new("event-mlp");
    let tracer = Tracer::default();
    let mut layers = Layers::default();

    // Tracing overhead: one round bare, one with a span per call.
    let (mut samples, mut bytes) = (Vec::new(), 0u64);
    let bare = round(&configs, &mut check, &mut samples, &mut bytes);
    let mut traced = 0.0;
    for (i, c) in configs.iter().enumerate() {
        let (out, id) = tracer.span("round.run_event_driven", None, i as u64, || {
            run_event_driven(&c.exp, c.window)
        });
        traced += tracer.total_ns_of(id) as f64 / 1e9;
        check.op(
            &c.label,
            out.map_err(|e| e.to_string()).and_then(|r| digest(c, &r)),
        );
    }
    layers.set("trace.overhead_ratio", traced / bare);

    let mut counts = Counts::default();
    let mut on_off = Vec::new();
    let mut callbacks = 0u64;
    for (i, (ch, window)) in PROBES.iter().enumerate() {
        let op = i as u64;
        let exp = experiment(*ch);
        let capture = Arc::new(Capture::default());
        let observed = run_event_driven_observed(&exp, *window, Some(capture.clone()))
            .map_err(|e| e.to_string())?;
        callbacks += capture.callbacks.load(Relaxed);
        let schedule = capture.take_schedule();
        let mut e2e_ns = Vec::with_capacity(LAYER_REPS);
        for _ in 0..LAYER_REPS {
            let (out, e2e) = tracer.span("core.run_event_driven", None, op, || {
                run_event_driven(&exp, *window)
            });
            out.map_err(|e| e.to_string())?;
            e2e_ns.push(tracer.total_ns_of(e2e) as f64);
            match layers::replay_event(&exp, &schedule, &tracer, e2e, op) {
                Ok(c) => {
                    if c.events != observed.events {
                        check.fail(
                            &format!("sim replay {i}"),
                            &format!("fired {} events, recorded {}", c.events, observed.events),
                        );
                    }
                    counts.add(&c)
                }
                Err(e) => check.fail(&format!("replay {i}"), &e),
            }
        }
        drop(schedule);
        let stats = Arc::new(mcm_obs::StatsRecorder::new());
        let (out, on) = tracer.span("obs.observed_run", None, op, || {
            run_event_driven_observed(&exp, *window, Some(stats.clone()))
        });
        check.op(
            &format!("{}/obs", label(*ch, *window)),
            out.map_err(|e| e.to_string())
                .and_then(|_| obs_digest(&stats.report())),
        );
        on_off.push(tracer.total_ns_of(on) as f64 / crate::stats::median(&e2e_ns));
    }
    layers.model(
        &tracer,
        &counts,
        PROBES.len() * LAYER_REPS,
        LAYER_REPS,
        "core.run_event_driven",
    );
    layers.set("obs.on_off_ratio", crate::stats::median(&on_off));
    layers.set(
        "obs.callbacks_per_txn",
        callbacks as f64 * LAYER_REPS as f64 / counts.txns as f64,
    );
    layers.layer_sum(
        &tracer,
        "core.run_event_driven",
        &[
            "load.traffic",
            "channel.split_range_into",
            "ctrl.access",
            "sim.kernel",
        ],
    );
    report.note(format!(
        "probes (channels, window): {PROBES:?}, each run and replayed {LAYER_REPS} times; \
         counts are over one pass of the probes; the ctrl replay submits every request at \
         cycle 0"
    ));
    report.per_layer(layers, &tracer)?;
    report.finish(check);
    Ok(report)
}
