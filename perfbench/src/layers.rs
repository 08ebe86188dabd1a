//! Layer replays for the traced run: each layer's public entry point is
//! timed on its own, fed inputs recorded from the layer above it.
//!
//! * load: `LoadModel::traffic`, drained the way the caller drains it;
//! * channel: `InterleaveMap::split_range_into` on the recorded master
//!   transactions, and `MemorySubsystem::submit` as a whole;
//! * ctrl: `Controller::access` on the recorded channel slices;
//! * dram: the command trace the controllers produce with `enable_trace`,
//!   issued through `BankCluster::issue_column_run` for row-hit column runs
//!   (as the controller issues them) and `BankCluster::issue` otherwise;
//! * power: `MemorySubsystem::finish`;
//! * sim: the event schedule captured through `Recorder::record_sim_event`,
//!   replayed through `Simulation::schedule`/`step` with a no-op component.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use mcm_channel::{InterleaveMap, MasterTransaction, MemorySubsystem};
use mcm_core::{Experiment, Pacing};
use mcm_ctrl::{AccessOp, ChannelRequest, Controller};
use mcm_dram::{BankCluster, DramCommand, TracedCommand};
use mcm_load::{LayoutOptions, LoadOp};
use mcm_obs::{CommandKind, FaultKind, Recorder, RowOutcome};
use mcm_sim::{Component, Ctx, SimTime, Simulation};

use crate::trace::Tracer;

/// Work counts of one replayed op; every field is an exact count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Load operations generated.
    pub generated: u64,
    /// Load operations simulated (master transactions).
    pub txns: u64,
    /// Channel slices the interleaver produced.
    pub slices: u64,
    /// Row-buffer hits and decisions across controllers.
    pub row_hits: u64,
    pub row_total: u64,
    /// DRAM commands issued.
    pub cmds: u64,
    /// Kernel events fired and their summed queue depth.
    pub events: u64,
    pub pending_sum: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.generated += o.generated;
        self.txns += o.txns;
        self.slices += o.slices;
        self.row_hits += o.row_hits;
        self.row_total += o.row_total;
        self.cmds += o.cmds;
        self.events += o.events;
        self.pending_sum += o.pending_sum;
    }
}

/// How the caller drains the load model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// The direct frame path: a lazy prefix of `op_limit` operations.
    Prefix,
    /// The event-driven path: the whole frame, then truncated.
    WholeFrame,
}

fn layout(exp: &Experiment) -> (LayoutOptions, u32) {
    let channels = exp.memory.channels;
    let geometry = exp.memory.controller.cluster.geometry;
    let capacity = geometry.capacity_bytes() * u64::from(channels);
    let opts = LayoutOptions::bank_staggered(
        capacity,
        geometry.page_bytes() as u64,
        channels,
        geometry.banks,
    );
    (opts, exp.chunk.bytes(channels))
}

/// Generates the load of `exp` the way the caller would, truncated to
/// `exp.op_limit`. Returns the simulated ops and the count generated.
pub fn generate(exp: &Experiment, drain: Drain) -> Result<(Vec<LoadOp>, u64), String> {
    let (opts, chunk) = layout(exp);
    let traffic = exp
        .model()
        .traffic(&opts, chunk, 0, &[])
        .map_err(|e| e.to_string())?;
    let limit = exp.op_limit.unwrap_or(u64::MAX) as usize;
    match drain {
        Drain::Prefix => {
            let ops: Vec<LoadOp> = traffic.take(limit).collect();
            let n = ops.len() as u64;
            Ok((ops, n))
        }
        Drain::WholeFrame => {
            let mut ops: Vec<LoadOp> = traffic.collect();
            let n = ops.len() as u64;
            ops.truncate(limit);
            Ok((ops, n))
        }
    }
}

fn access_op(op: &LoadOp) -> AccessOp {
    if op.write {
        AccessOp::Write
    } else {
        AccessOp::Read
    }
}

/// The channel-local requests the interleaver makes of `ops`, all
/// arriving at cycle 0 (a greedy master).
fn channel_requests(
    exp: &Experiment,
    ops: &[LoadOp],
) -> Result<Vec<(usize, ChannelRequest)>, String> {
    let map = InterleaveMap::new(exp.memory.channels, exp.memory.granule_bytes)
        .map_err(|e| e.to_string())?;
    let mut slices = Vec::new();
    let mut out = Vec::with_capacity(ops.len() * exp.memory.channels as usize);
    for op in ops {
        map.split_range_into(op.addr, u64::from(op.len), &mut slices);
        for (ch, slice) in slices.iter().enumerate() {
            if let Some((local, len)) = *slice {
                out.push((
                    ch,
                    ChannelRequest {
                        op: access_op(op),
                        addr: local,
                        len: len as u32,
                        arrival: 0,
                    },
                ));
            }
        }
    }
    Ok(out)
}

fn controllers(exp: &Experiment, trace: bool) -> Result<Vec<Controller>, String> {
    (0..exp.memory.channels)
        .map(|_| {
            let mut c = Controller::new(&exp.memory.controller).map_err(|e| e.to_string())?;
            if trace {
                c.enable_trace();
            }
            Ok(c)
        })
        .collect()
}

fn run_controllers(
    ctrls: &mut [Controller],
    reqs: &[(usize, ChannelRequest)],
) -> Result<(), String> {
    for (ch, req) in reqs {
        black_box(ctrls[*ch].access(*req).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// One device call of the dram replay.
enum Issue {
    /// `BankCluster::issue_column_run`: the controller's row-hit path.
    Run {
        write: bool,
        bank: u32,
        col0: u32,
        step: u32,
        n: u32,
        at: u64,
    },
    /// `BankCluster::issue` of one command at its recorded cycle.
    One(TracedCommand),
}

/// Groups a recorded trace the way the controller issued it: maximal runs
/// of same-direction column commands to one bank at a constant column
/// step become one column run; everything else is issued singly.
fn plan_issues(trace: &[TracedCommand]) -> Vec<Issue> {
    let column = |t: &TracedCommand| match t.cmd {
        DramCommand::Read { bank, col } => Some((false, bank, col)),
        DramCommand::Write { bank, col } => Some((true, bank, col)),
        _ => None,
    };
    let mut plan = Vec::new();
    let mut i = 0;
    while i < trace.len() {
        let Some((write, bank, col0)) = column(&trace[i]) else {
            plan.push(Issue::One(trace[i]));
            i += 1;
            continue;
        };
        let mut n = 1;
        let mut step = 0;
        while let Some((w, b, c)) = trace.get(i + n as usize).and_then(column) {
            if w != write || b != bank {
                break;
            }
            if n == 1 && c > col0 {
                step = c - col0;
            } else if n == 1 || c != col0 + n * step {
                break;
            }
            n += 1;
        }
        plan.push(Issue::Run {
            write,
            bank,
            col0,
            step: step.max(1),
            n,
            at: trace[i].cycle,
        });
        i += n as usize;
    }
    plan
}

fn run_issues(cluster: &mut BankCluster, plan: &[Issue]) -> Result<(), String> {
    for issue in plan {
        match *issue {
            Issue::Run {
                write,
                bank,
                col0,
                step,
                n,
                at,
            } => {
                black_box(
                    cluster
                        .issue_column_run(write, bank, col0, step, n, at)
                        .map_err(|e| e.to_string())?,
                );
            }
            Issue::One(t) => {
                black_box(cluster.issue(t.cmd, t.cycle).map_err(|e| e.to_string())?);
            }
        }
    }
    Ok(())
}

fn devices(exp: &Experiment, n: usize, trace: bool) -> Result<Vec<BankCluster>, String> {
    (0..n)
        .map(|_| {
            let mut c =
                BankCluster::new(&exp.memory.controller.cluster).map_err(|e| e.to_string())?;
            if trace {
                c.enable_trace();
            }
            Ok(c)
        })
        .collect()
}

/// Replays `Controller::access` under `parent` (span `ctrl.access`), then
/// the controllers' own command trace on fresh devices (span `dram.issue`
/// under it), checked to commit exactly the recorded commands. Returns
/// the command traces, one per channel.
fn replay_ctrl_dram(
    exp: &Experiment,
    reqs: &[(usize, ChannelRequest)],
    tracer: &Tracer,
    parent: usize,
    op: u64,
    counts: &mut Counts,
) -> Result<Vec<Vec<TracedCommand>>, String> {
    let mut ctrls = controllers(exp, false)?;
    let (res, ctrl_span) = tracer.span("ctrl.access", Some(parent), op, || {
        run_controllers(&mut ctrls, reqs)
    });
    res?;
    for c in &ctrls {
        let s = c.stats();
        counts.row_hits += s.row_hits;
        counts.row_total += s.row_hits + s.row_misses + s.row_conflicts;
    }
    // The trace is captured untimed, on fresh controllers.
    let mut traced = controllers(exp, true)?;
    run_controllers(&mut traced, reqs)?;
    let traces: Vec<Vec<TracedCommand>> = traced
        .iter()
        .map(|c| c.device().trace().unwrap_or_default().to_vec())
        .collect();
    drop(traced);
    let plans: Vec<Vec<Issue>> = traces.iter().map(|t| plan_issues(t)).collect();
    let mut clusters = devices(exp, traces.len(), false)?;
    let (res, _) = tracer.span("dram.issue", Some(ctrl_span), op, || {
        for (cluster, plan) in clusters.iter_mut().zip(&plans) {
            run_issues(cluster, plan)?;
        }
        Ok::<(), String>(())
    });
    res?;
    // The replay must have committed exactly the recorded commands.
    let mut check = devices(exp, traces.len(), true)?;
    for ((cluster, plan), trace) in check.iter_mut().zip(&plans).zip(&traces) {
        run_issues(cluster, plan)?;
        if cluster.trace() != Some(trace.as_slice()) {
            return Err("dram replay diverged from the recorded command trace".to_string());
        }
    }
    counts.cmds += traces.iter().map(|t| t.len() as u64).sum::<u64>();
    Ok(traces)
}

/// Replays every layer of one direct (`run_with`) frame of `exp` under
/// the end-to-end span `parent`: `load.traffic`, `channel.submit` (with
/// `channel.split_range_into` and `ctrl.access` → `dram.issue` as its
/// children) and `power.finish`.
pub fn replay_direct(
    exp: &Experiment,
    tracer: &Tracer,
    parent: usize,
    op: u64,
) -> Result<(Counts, Vec<Vec<TracedCommand>>), String> {
    if exp.pacing != Pacing::Greedy {
        return Err("layer replay models the greedy master only".to_string());
    }
    let mut counts = Counts::default();
    let (gen, _) = tracer.span("load.traffic", Some(parent), op, || {
        generate(exp, Drain::Prefix)
    });
    let (ops, generated) = gen?;
    counts.generated = generated;
    counts.txns = ops.len() as u64;
    let txns: Vec<MasterTransaction> = ops
        .iter()
        .map(|o| MasterTransaction {
            op: access_op(o),
            addr: o.addr,
            len: u64::from(o.len),
            arrival: 0,
        })
        .collect();

    let (submitted, submit_span) = tracer.span("channel.submit", Some(parent), op, || {
        let mut mem = MemorySubsystem::new(&exp.memory).map_err(|e| e.to_string())?;
        for t in &txns {
            black_box(mem.submit(*t).map_err(|e| e.to_string())?);
        }
        Ok::<MemorySubsystem, String>(mem)
    });
    let mut mem = submitted?;
    let fps = u64::from(exp.use_case.fps);
    let budget = SimTime::from_ps(1_000_000_000_000 / fps);
    let horizon = mem.clock().cycles_ceil(budget).max(mem.busy_until());
    let (report, _) = tracer.span("power.finish", Some(parent), op, || mem.finish(horizon));
    black_box(report.map_err(|e| e.to_string())?);

    let map = InterleaveMap::new(exp.memory.channels, exp.memory.granule_bytes)
        .map_err(|e| e.to_string())?;
    let (slices, _) = tracer.span("channel.split_range_into", Some(submit_span), op, || {
        let mut buf = Vec::new();
        let mut n = 0u64;
        for t in &txns {
            map.split_range_into(t.addr, t.len, &mut buf);
            n += buf.iter().filter(|s| s.is_some()).count() as u64;
        }
        n
    });
    counts.slices = slices;
    let reqs = channel_requests(exp, &ops)?;
    let traces = replay_ctrl_dram(exp, &reqs, tracer, submit_span, op, &mut counts)?;
    Ok((counts, traces))
}

/// Replays the layers of one `run_event_driven` call of `exp` under the
/// end-to-end span `parent`: `load.traffic` (whole frame),
/// `channel.split_range_into`, `ctrl.access` → `dram.issue`, and
/// `sim.kernel` on the captured event schedule.
///
/// The controllers see every request at cycle 0: the kernel's arrival
/// times are not visible from outside the program.
pub fn replay_event(
    exp: &Experiment,
    schedule: &[(u64, u64)],
    tracer: &Tracer,
    parent: usize,
    op: u64,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let (gen, _) = tracer.span("load.traffic", Some(parent), op, || {
        generate(exp, Drain::WholeFrame)
    });
    let (ops, generated) = gen?;
    counts.generated = generated;
    counts.txns = ops.len() as u64;
    let map = InterleaveMap::new(exp.memory.channels, exp.memory.granule_bytes)
        .map_err(|e| e.to_string())?;
    let (slices, _) = tracer.span("channel.split_range_into", Some(parent), op, || {
        let mut buf = Vec::new();
        let mut n = 0u64;
        for o in &ops {
            map.split_range_into(o.addr, u64::from(o.len), &mut buf);
            n += buf.iter().filter(|s| s.is_some()).count() as u64;
        }
        n
    });
    counts.slices = slices;
    let reqs = channel_requests(exp, &ops)?;
    drop(ops);
    replay_ctrl_dram(exp, &reqs, tracer, parent, op, &mut counts)?;
    drop(reqs);
    let (fired, _) = tracer.span("sim.kernel", Some(parent), op, || replay_schedule(schedule));
    counts.events = fired?;
    counts.pending_sum = schedule.iter().map(|(p, _)| *p).sum();
    Ok(counts)
}

/// A component that accepts every message and does nothing.
struct Noop;

impl Component<()> for Noop {
    fn handle(&mut self, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
}

/// Replays a captured `(pending, at_ps)` schedule: fires the same number
/// of events at the same times, keeping the queue as deep as it was.
fn replay_schedule(schedule: &[(u64, u64)]) -> Result<u64, String> {
    let n = schedule.len();
    if n == 0 {
        return Ok(0);
    }
    let mut sim: Simulation<()> = Simulation::new();
    let id = sim.add_component(Noop);
    sim.schedule(SimTime::from_ps(schedule[0].1), id, ());
    let mut scheduled = 1usize;
    for i in 0..n {
        if !sim.step().map_err(|e| e.to_string())? {
            return Err("replayed schedule drained early".to_string());
        }
        // Before event i+1 fires, the queue held its recorded depth plus
        // the event itself.
        let want = schedule.get(i + 1).map_or(0, |(p, _)| *p as usize + 1);
        while scheduled < n && sim.pending_events() < want {
            let at = SimTime::from_ps(schedule[scheduled].1).max(sim.now());
            sim.schedule(at, id, ());
            scheduled += 1;
        }
        if scheduled < n && sim.pending_events() == 0 {
            let at = SimTime::from_ps(schedule[scheduled].1).max(sim.now());
            sim.schedule(at, id, ());
            scheduled += 1;
        }
    }
    Ok(sim.events_fired())
}

/// A recorder that counts every callback and keeps the event kernel's
/// schedule as `(pending, at_ps)` pairs.
#[derive(Debug, Default)]
pub struct Capture {
    pub callbacks: AtomicU64,
    schedule: Mutex<Vec<(u64, u64)>>,
}

impl Capture {
    fn tick(&self) {
        self.callbacks.fetch_add(1, Relaxed);
    }

    pub fn take_schedule(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.schedule.lock().expect("schedule lock poisoned"))
    }
}

impl Recorder for Capture {
    fn record_command(&self, _: u32, _: u8, _: CommandKind, _: u64) {
        self.tick();
    }
    fn record_row_outcome(&self, _: u32, _: u8, _: RowOutcome) {
        self.tick();
    }
    fn record_latency(&self, _: u32, _: u64) {
        self.tick();
    }
    fn record_queue_depth(&self, _: u32, _: u64) {
        self.tick();
    }
    fn record_bytes(&self, _: u32, _: bool, _: u64, _: u64) {
        self.tick();
    }
    fn record_energy(&self, _: u32, _: CommandKind, _: f64, _: u64) {
        self.tick();
    }
    fn record_background(&self, _: u32, _: u64, _: u64, _: f64) {
        self.tick();
    }
    fn record_span(&self, _: &str, _: Option<u32>, _: u64, _: u64) {
        self.tick();
    }
    fn record_gauge(&self, _: &str, _: Option<u32>, _: f64) {
        self.tick();
    }
    fn record_sim_event(&self, pending: u64, at_ps: u64) {
        self.tick();
        self.schedule
            .lock()
            .expect("schedule lock poisoned")
            .push((pending, at_ps));
    }
    fn record_fault(&self, _: u32, _: FaultKind, _: u64) {
        self.tick();
    }
    fn record_tenant_op(&self, _: u32, _: bool, _: u64) {
        self.tick();
    }
}
