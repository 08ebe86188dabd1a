//! Run settings, output checking, and the report: a human-readable table
//! followed by one JSON line.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::{self, Digest};
use crate::trace::Tracer;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_mb_per_s", "MB/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("load.ops", "count"),
    ("load.gen_ns_per_op", "ns"),
    ("load.used_ratio", "ratio"),
    ("channel.slices_per_txn", "ratio"),
    ("channel.interleave_ns_per_txn", "ns"),
    ("channel.submit_self_ns_per_txn", "ns"),
    ("ctrl.reqs", "count"),
    ("ctrl.row_hit_ratio", "ratio"),
    ("ctrl.access_self_ns_per_req", "ns"),
    ("dram.cmds", "count"),
    ("dram.issue_ns_per_cmd", "ns"),
    ("power.finish_ms", "ms"),
    ("core.self_ms", "ms"),
    ("sim.events", "count"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.pending_mean", "count"),
    ("obs.on_off_ratio", "ratio"),
    ("obs.callbacks_per_txn", "ratio"),
    ("verify.audit_ns_per_cmd", "ns"),
    ("verify.findings", "count"),
    ("analyze.verdict_us", "us"),
    ("analyze.pruned_ratio", "ratio"),
    ("sweep.key_us", "us"),
    ("sweep.parallel_eff", "ratio"),
    ("serve.http_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.polls_per_req", "count"),
    ("fault.retries", "count"),
    ("fault.remaps", "count"),
    ("fault.shed_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// The tightest bound `BENCHMARK.json` gives a host-time metric (all but
/// `setup_s` and `peak_heap_mb`): calibration times further apart than
/// this flag the host as unsteady.
pub const CALIBRATION_TOLERANCE: f64 = 0.24;

/// How far the layers may sum from the end-to-end time they explain.
pub const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Longest a timed phase may run before it stops regardless.
const HARD_CAP_S: f64 = 120.0;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where the benchmark writes spans and its scratch stores, relative to
/// the directory it runs in.
pub const OUT_DIR: &str = ".bench_out";

impl Run {
    /// Worker threads: two, or fewer on a smaller host.
    pub fn threads(&self) -> usize {
        crate::host::nproc().min(2)
    }
}

/// Set-ups before each round; `setup_s` is the median over the run.
pub const SETUPS_PER_ROUND: usize = 3;

/// The timed phase of an untraced run: rounds, each after set-ups of its
/// own. Set-ups are timed one by one but sit outside the rounds, so
/// `setup_s` samples the host as often and as spread out as the rounds do,
/// and the heap peak covers the rounds alone.
#[derive(Debug, Default)]
pub struct Timed {
    setups: Vec<f64>,
    /// Op wall times, milliseconds.
    samples: Vec<f64>,
    bytes: u64,
    wall: f64,
    rounds: usize,
    peak: usize,
}

impl Timed {
    /// Whether the phase has run long enough: at least two rounds, the
    /// run length, and enough samples for the 90th percentile.
    pub fn enough(&self, run: &Run) -> bool {
        let done = self.rounds >= 2
            && self.wall >= run.seconds
            && self.samples.len() >= stats::samples_needed(0.9);
        done || self.wall > HARD_CAP_S
    }

    /// Runs and times [`SETUPS_PER_ROUND`] set-ups; returns the last.
    pub fn set_up<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut out = None;
        for _ in 0..SETUPS_PER_ROUND {
            let started = Instant::now();
            out = Some(f()?);
            self.setups.push(started.elapsed().as_secs_f64());
        }
        Ok(out.expect("at least one set-up"))
    }

    /// Runs one round: `f` pushes its op times and returns its wall time,
    /// seconds, and the bytes it simulated. Tracks the round's heap peak.
    pub fn round(&mut self, f: impl FnOnce(&mut Vec<f64>) -> (f64, u64)) {
        crate::alloc::reset_peak();
        let (wall, bytes) = f(&mut self.samples);
        self.peak = self.peak.max(crate::alloc::peak_bytes());
        self.wall += wall;
        self.bytes += bytes;
        self.rounds += 1;
    }

    /// Rounds run.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Expected digests, taken from the commit that defined the benchmark:
/// `(workload, op label) → digest`.
fn expected() -> &'static BTreeMap<(String, String), String> {
    static EXPECTED: OnceLock<BTreeMap<(String, String), String>> = OnceLock::new();
    EXPECTED.get_or_init(|| parse_expected(include_str!("../expected_digests.txt")))
}

pub fn parse_expected(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let w = parts.next()?;
            let label = parts.next()?;
            let digest = parts.next()?;
            Some(((w.to_string(), label.to_string()), digest.to_string()))
        })
        .collect()
}

/// Label of the line holding a workload's folded digest.
pub const ALL: &str = "ALL";

/// Folds per-op digests, in label order, into one workload digest.
pub fn fold(digests: &BTreeMap<String, String>) -> String {
    digests
        .iter()
        .fold(Digest::default(), |d, (label, digest)| {
            d.text(label).text(digest)
        })
        .hex()
}

/// Counts ops and checks each against its expected digest.
#[derive(Debug)]
pub struct Check {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    seen: BTreeMap<String, String>,
    notes: Vec<String>,
}

impl Check {
    pub fn new(workload: &'static str) -> Check {
        Check {
            workload,
            attempted: 0,
            failed: 0,
            seen: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 8 {
            self.notes.push(text);
        }
    }

    /// Counts one op; returns whether its output matched.
    pub fn op(&mut self, label: &str, digest: Result<String, String>) -> bool {
        self.attempted += 1;
        let key = (self.workload.to_string(), label.to_string());
        match digest {
            Ok(d) if expected().get(&key) == Some(&d) => {
                self.seen.insert(label.to_string(), d);
                true
            }
            Ok(d) => {
                self.failed += 1;
                self.note(format!("{label}: digest {d} differs from the expected one"));
                false
            }
            Err(e) => {
                self.failed += 1;
                self.note(format!("{label}: {e}"));
                false
            }
        }
    }

    /// Counts one failed op.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("{what}: {why}"));
    }

    /// Counts `n` failed ops (a whole round failed).
    pub fn fail_all(&mut self, n: usize, why: &str) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.note(format!("round failed: {why}"));
    }

    /// The folded digest of every op label seen, when the run saw every
    /// op the expected file lists for this workload.
    fn folded(&self) -> Option<String> {
        let listed = expected()
            .keys()
            .filter(|(w, l)| w == self.workload && l != ALL)
            .count();
        (listed > 0 && listed == self.seen.len()).then(|| fold(&self.seen))
    }
}

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    sum: Option<(f64, f64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The model layers from replay spans: `e2e` names the end-to-end
    /// spans the replays are children of, `runs` how many there are. Each
    /// probe was run and replayed `reps` times; counts are given per pass.
    pub fn model(
        &mut self,
        tracer: &Tracer,
        c: &crate::layers::Counts,
        runs: usize,
        reps: usize,
        e2e: &str,
    ) {
        let own = tracer.self_by_name();
        let own_of = |n: &str| own.get(n).copied().unwrap_or(0) as f64;
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let once = |n: u64| n as f64 / reps as f64;
        let runs = runs as u64;
        self.set("load.ops", once(c.generated));
        self.set(
            "load.gen_ns_per_op",
            per(tracer.total_ns("load.traffic") as f64, c.generated),
        );
        self.set("load.used_ratio", per(c.txns as f64, c.generated));
        self.set("channel.slices_per_txn", per(c.slices as f64, c.txns));
        self.set(
            "channel.interleave_ns_per_txn",
            per(tracer.total_ns("channel.split_range_into") as f64, c.txns),
        );
        self.set(
            "channel.submit_self_ns_per_txn",
            per(own_of("channel.submit"), c.txns),
        );
        self.set("ctrl.reqs", once(c.slices));
        self.set("ctrl.row_hit_ratio", per(c.row_hits as f64, c.row_total));
        self.set(
            "ctrl.access_self_ns_per_req",
            per(own_of("ctrl.access"), c.slices),
        );
        self.set("dram.cmds", once(c.cmds));
        self.set(
            "dram.issue_ns_per_cmd",
            per(tracer.total_ns("dram.issue") as f64, c.cmds),
        );
        self.set(
            "power.finish_ms",
            per(tracer.total_ns("power.finish") as f64, runs) / 1e6,
        );
        self.set("core.self_ms", per(own_of(e2e), runs) / 1e6);
        self.set("sim.events", once(c.events));
        self.set(
            "sim.self_ns_per_event",
            per(tracer.total_ns("sim.kernel") as f64, c.events),
        );
        self.set("sim.pending_mean", per(c.pending_sum as f64, c.events));
    }

    /// Sets `trace.layer_sum_ratio` from nanosecond totals: the layers'
    /// self times against the end-to-end time they should explain.
    pub fn layer_sum_ns(&mut self, layers_ns: f64, e2e_ns: f64) {
        self.sum = Some((layers_ns, e2e_ns));
        self.set("trace.layer_sum_ratio", layers_ns / e2e_ns);
    }

    /// [`Layers::layer_sum_ns`] over spans: the named layer spans against
    /// every span named `e2e`.
    pub fn layer_sum(&mut self, tracer: &Tracer, e2e: &str, layers: &[&str]) {
        let parts: u64 = layers.iter().map(|n| tracer.total_ns(n)).sum();
        self.layer_sum_ns(parts as f64, tracer.total_ns(e2e) as f64);
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<usize>,
}

/// One workload's report.
pub struct Report {
    run: Run,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    calibration_start_ms: f64,
    folded: Option<String>,
}

impl Report {
    pub fn new(run: &Run) -> Report {
        Report {
            run: run.clone(),
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            calibration_start_ms: crate::host::calibrate_ms(),
            folded: None,
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    fn push(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The end-to-end metrics of an untraced run: the median set-up, bytes
    /// over round wall time, op-time percentiles and the rounds' heap peak.
    pub fn end_to_end(&mut self, t: &Timed) -> Result<(), String> {
        self.push("setup_s", stats::median(&t.setups), Some(t.setups.len()));
        self.push(
            "sim_mb_per_s",
            t.bytes as f64 / 1e6 / t.wall,
            Some(t.rounds),
        );
        self.push(
            "op_ms_p50",
            stats::percentile(&t.samples, 0.5)?,
            Some(t.samples.len()),
        );
        self.push(
            "op_ms_p90",
            stats::percentile(&t.samples, 0.9)?,
            Some(t.samples.len()),
        );
        self.push("peak_heap_mb", t.peak as f64 / 1e6, None);
        Ok(())
    }

    /// The per-layer metrics of a traced run; writes its spans.
    pub fn per_layer(&mut self, layers: Layers, tracer: &Tracer) -> Result<(), String> {
        for (name, _) in PER_LAYER {
            let value = layers.values.get(name).copied().unwrap_or(0.0);
            self.push(name, value, None);
        }
        if let Some((parts, e2e)) = layers.sum {
            let off = parts / e2e - 1.0;
            let verdict = if off.abs() <= LAYER_SUM_TOLERANCE {
                "passes"
            } else {
                "FAILS"
            };
            self.note(format!(
                "layer-sum check {verdict} on {}: layers sum to {:.1} ms against {:.1} ms end to end ({:+.1}%, limit ±{:.0}%)",
                self.run.workload,
                parts / 1e6,
                e2e / 1e6,
                off * 100.0,
                LAYER_SUM_TOLERANCE * 100.0
            ));
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let path = std::path::Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            self.run.workload, self.run.seed
        ));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        self.note(format!("spans written to {}", path.display()));
        Ok(())
    }

    pub fn finish(&mut self, check: Check) {
        self.attempted += check.attempted;
        self.failed += check.failed;
        self.folded = check.folded();
        self.notes.extend(check.notes);
    }

    fn alias(&self, name: &str) -> &'static str {
        match (self.run.workload.as_str(), name) {
            ("event-mlp", "op_ms_p50") => "run_ms_p50",
            ("event-mlp", "op_ms_p90") => "run_ms_p90",
            ("serve-mix", "op_ms_p50") => "req_ms_p50",
            ("serve-mix", "op_ms_p90") => "req_ms_p90",
            ("paper-grid", "op_ms_p50") => "point_ms_p50",
            ("paper-grid", "op_ms_p90") => "point_ms_p90",
            _ => "",
        }
    }

    /// Prints the table, then the JSON result as the last line.
    pub fn print(&self) {
        let calibration_end_ms = crate::host::calibrate_ms();
        let drift = calibration_end_ms / self.calibration_start_ms - 1.0;
        let r = &self.run;
        println!(
            "workload {}  seed {}  trace {}  seconds {}",
            r.workload,
            r.seed,
            u8::from(r.trace),
            r.seconds
        );
        println!(
            "host: nproc {}, cpu \"{}\", calibration {:.3} ms at start, {:.3} ms at end ({:+.1}%{})",
            crate::host::nproc(),
            crate::host::cpu_model(),
            self.calibration_start_ms,
            calibration_end_ms,
            drift * 100.0,
            if drift.abs() > CALIBRATION_TOLERANCE {
                format!(", HOST UNSTEADY: beyond ±{:.0}%", CALIBRATION_TOLERANCE * 100.0)
            } else {
                String::new()
            }
        );
        println!(
            "{:<32} {:>16} {:<6} {:>8}  alias",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<32} {:>16.6} {:<6} {:>8}  {}",
                m.name,
                m.value,
                m.unit,
                m.samples.map_or("-".to_string(), |n| n.to_string()),
                self.alias(m.name)
            );
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<32} {:>16.6} {:<6} {:>8}  failed {} of {} attempted",
            "fail_frac", fail_frac, "ratio", self.attempted, self.failed, self.attempted
        );
        let folded = self.folded.as_deref().unwrap_or("-");
        let expected_all = expected()
            .get(&(r.workload.clone(), ALL.to_string()))
            .map_or("-", String::as_str);
        println!(
            "digest {folded} (expected {expected_all}{})",
            if folded == expected_all {
                ", match"
            } else {
                ", MISMATCH"
            }
        );
        for n in &self.notes {
            println!("note: {n}");
        }
        let mut metrics = serde::Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                serde_json::json!({ "value": m.value, "unit": m.unit }),
            );
        }
        let correct = self.failed == 0 && self.attempted > 0 && folded == expected_all;
        let line = serde_json::json!({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde::Value::Object(metrics)
        });
        println!(
            "{}",
            serde_json::to_string(&line).expect("report serializes")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        let tightest = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end")
            .iter()
            .filter(|m| {
                !matches!(
                    m.get("name").and_then(|v| v.as_str()),
                    Some("setup_s" | "peak_heap_mb")
                )
            })
            .filter_map(|m| m.get("bound").and_then(|v| v.as_f64()))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(tightest, CALIBRATION_TOLERANCE);
    }

    #[test]
    fn every_workload_has_expected_digests() {
        let expected = parse_expected(include_str!("../expected_digests.txt"));
        for w in crate::WORKLOADS {
            assert!(
                expected.contains_key(&(w.to_string(), ALL.to_string())),
                "{w}"
            );
            assert!(expected.keys().filter(|(x, _)| x == w).count() > 1, "{w}");
        }
    }
}
