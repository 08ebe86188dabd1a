//! `paper-grid`: repeated cold passes of the paper's Fig. 4/5 grid
//! (5 HD levels × 1/2/4/8 channels at 400 MHz, h264-record, full frames,
//! prelint on, no cache, recorder off) through `run_sweep_on` on a
//! `RayonExecutor`. An op is one simulated grid point.

use std::sync::Arc;
use std::time::Instant;

use mcm_core::{Experiment, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_sweep::{content_key, run_sweep_on, PointOutcome, RayonExecutor, SweepOptions, SweepSpec};

use crate::layers::{self, Capture, Counts};
use crate::report::{Check, Layers, Report, Run, Timed};
use crate::stats::Digest;
use crate::trace::Tracer;

/// Operations simulated per probe in the traced run's layer replays.
const PROBE_OPS: u64 = 20_000;

fn options(threads: usize) -> SweepOptions {
    SweepOptions::default()
        .with_threads(threads)
        .with_prelint(true)
}

/// The digest of one point's outcome: prelint verdict and the record.
fn point_digest(p: &PointOutcome) -> Result<String, String> {
    let record = p.outcome.as_ref().map_err(|e| e.to_string())?;
    let text = serde_json::to_string(record).map_err(|e| format!("{e:?}"))?;
    Ok(Digest::default()
        .text(if p.prelinted {
            "prelinted"
        } else {
            "simulated"
        })
        .text(&text)
        .hex())
}

/// Every point's digest, in grid order (for the expected-digest file).
pub fn digests(threads: usize) -> Result<Vec<(String, String)>, String> {
    let result = run_sweep_on(
        &RayonExecutor::new(1),
        &SweepSpec::paper_grid(),
        &options(threads),
    )
    .map_err(|e| e.to_string())?;
    result
        .points
        .iter()
        .map(|p| Ok((p.label.clone(), point_digest(p)?)))
        .collect()
}

struct Ready {
    spec: SweepSpec,
    executor: RayonExecutor,
    options: SweepOptions,
}

/// Builds the inputs, the executor and its options, and runs one small
/// untimed point to warm the pool.
fn set_up(threads: usize) -> Result<Ready, String> {
    let spec = SweepSpec::paper_grid();
    spec.expand().map_err(|e| e.to_string())?;
    let executor = RayonExecutor::new(1);
    let options = options(threads);
    let warm = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![8],
        ..SweepSpec::paper_grid()
    };
    run_sweep_on(&executor, &warm, &options).map_err(|e| e.to_string())?;
    Ok(Ready {
        spec,
        executor,
        options,
    })
}

/// One pass; returns its wall time, after checking every point.
fn pass(ready: &Ready, check: &mut Check, samples: &mut Vec<f64>, bytes: &mut u64) -> f64 {
    let started = Instant::now();
    let result = run_sweep_on(&ready.executor, &ready.spec, &ready.options);
    let wall = started.elapsed().as_secs_f64();
    match result {
        Ok(result) => {
            for p in &result.points {
                if check.op(&p.label, point_digest(p)) && !p.prelinted {
                    samples.push(p.elapsed.as_secs_f64() * 1e3);
                    if let Ok(r) = &p.outcome {
                        *bytes += r.simulated_bytes;
                    }
                }
            }
        }
        Err(e) => check.fail_all(ready.spec.len(), &e.to_string()),
    }
    wall
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let threads = run.threads();
    let mut check = Check::new("paper-grid");
    let mut timed = Timed::default();
    while !timed.enough(run) {
        let ready = timed.set_up(|| set_up(threads))?;
        timed.round(|samples| {
            let mut bytes = 0u64;
            let wall = pass(&ready, &mut check, samples, &mut bytes);
            (wall, bytes)
        });
    }
    report.end_to_end(&timed)?;
    report.note(format!(
        "{} passes of {} points on {threads} threads, each after its own set-ups; \
         op = one simulated grid point",
        timed.rounds(),
        SweepSpec::paper_grid().len()
    ));
    report.finish(check);
    Ok(report)
}

pub fn traced(run: &Run) -> Result<Report, String> {
    let mut report = Report::new(run);
    let threads = run.threads();
    let ready = set_up(threads)?;
    let mut check = Check::new("paper-grid");
    let tracer = Tracer::default();
    let mut layers = Layers::default();

    // Tracing overhead: one pass bare, one inside a span.
    let (mut samples, mut bytes) = (Vec::new(), 0u64);
    let bare = pass(&ready, &mut check, &mut samples, &mut bytes);
    let (traced, _) = tracer.span("sweep.run_sweep_on", None, 0, || {
        pass(&ready, &mut check, &mut samples, &mut bytes)
    });
    layers.set("trace.overhead_ratio", traced / bare);

    let points = ready.spec.expand().map_err(|e| e.to_string())?;
    let result =
        run_sweep_on(&ready.executor, &ready.spec, &ready.options).map_err(|e| e.to_string())?;
    let prelinted = result.points.iter().filter(|p| p.prelinted).count();
    layers.set(
        "analyze.pruned_ratio",
        prelinted as f64 / points.len() as f64,
    );

    // Static gate and content key, replayed on every point.
    for (i, p) in points.iter().enumerate() {
        tracer.span("analyze.verdict", None, i as u64, || {
            std::hint::black_box(mcm_analyze::verdict(&p.experiment))
        });
        tracer
            .span("sweep.content_key", None, i as u64, || {
                content_key(&p.experiment, &RunOptions::default())
            })
            .0
            .map_err(|e| e.to_string())?;
    }
    layers.set(
        "analyze.verdict_us",
        tracer.total_ns("analyze.verdict") as f64 / 1e3 / points.len() as f64,
    );
    layers.set(
        "sweep.key_us",
        tracer.total_ns("sweep.content_key") as f64 / 1e3 / points.len() as f64,
    );

    // Parallel efficiency: the simulated points run serially.
    let simulated: Vec<&Experiment> = points
        .iter()
        .zip(&result.points)
        .filter(|(_, o)| !o.prelinted)
        .map(|(p, _)| &p.experiment)
        .collect();
    for (i, exp) in simulated.iter().enumerate() {
        let (out, _) = tracer.span("sweep.point", None, i as u64, || {
            exp.run_with(&RunOptions::default())
        });
        if let Err(e) = out {
            check.fail(&format!("serial point {i}"), &e.to_string());
        }
    }
    layers.set(
        "sweep.parallel_eff",
        tracer.total_ns("sweep.point") as f64 / 1e9 / (threads as f64 * bare),
    );

    // Layer replays on an op prefix of every simulated point.
    let mut counts = Counts::default();
    let mut on_off = Vec::new();
    let mut callbacks = 0u64;
    for (i, exp) in simulated.iter().enumerate() {
        let op = i as u64;
        let mut probe = (*exp).clone();
        probe.op_limit = Some(PROBE_OPS);
        let (out, e2e) = tracer.span("core.run_with", None, op, || {
            probe.run_with(&RunOptions::default())
        });
        let bare_ns = tracer.total_ns_of(e2e);
        if let Err(e) = out {
            check.fail(&format!("probe {i}"), &e.to_string());
            continue;
        }
        match layers::replay_direct(&probe, &tracer, e2e, op) {
            Ok((c, _)) => counts.add(&c),
            Err(e) => check.fail(&format!("replay {i}"), &e),
        }
        let stats = Arc::new(mcm_obs::StatsRecorder::new());
        let (_, on) = tracer.span("obs.observed_run", None, op, || {
            probe.run_with(&RunOptions::default().with_recorder(stats.clone()))
        });
        on_off.push(tracer.total_ns_of(on) as f64 / bare_ns as f64);
        let capture = Arc::new(Capture::default());
        probe
            .run_with(&RunOptions::default().with_recorder(capture.clone()))
            .map_err(|e| e.to_string())?;
        callbacks += capture.callbacks.load(std::sync::atomic::Ordering::Relaxed);
    }
    layers.model(&tracer, &counts, simulated.len(), 1, "core.run_with");
    layers.set("obs.on_off_ratio", crate::stats::median(&on_off));
    layers.set(
        "obs.callbacks_per_txn",
        callbacks as f64 / counts.txns as f64,
    );
    layers.layer_sum(
        &tracer,
        "core.run_with",
        &["load.traffic", "channel.submit", "power.finish"],
    );
    report.note(format!(
        "probes: {} simulated points × {PROBE_OPS} ops; counts are over the probes",
        simulated.len()
    ));
    report.per_layer(layers, &tracer)?;
    report.finish(check);
    Ok(report)
}
