//! What one repetition measures, and the readers for the counters the
//! simulator crates already expose.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use m3::{System, SystemConfig};
use m3_sim::gauges::Gauges;
use m3_sim::{keys, Component, Event, EventKind, Notify, Sim};

/// The result of one repetition of one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host seconds to boot, build the m3fs image and open sessions.
    pub setup_s: f64,
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// Host seconds spent inside `System::boot`/`System::boot_in`.
    pub boot_s: f64,
    /// Simulated cycles the timed section advanced, summed over islands.
    pub cycles_advanced: u64,
    /// Simulated makespan of the workload's fixed work.
    pub sim_cycles: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed an output check.
    pub failed: u64,
    /// Simulated latency of every completed operation.
    pub latencies: Vec<u64>,
    /// Simulated per-layer metrics: identical for every run of one seed.
    pub sim: BTreeMap<String, f64>,
    /// Host-side per-layer metrics (executor work counters, host times).
    pub host: BTreeMap<String, f64>,
    /// Trace-event counts; empty unless the repetition was traced.
    pub trace: BTreeMap<String, f64>,
    /// Descriptions of the first output mismatches.
    pub mismatches: Vec<String>,
}

/// Mismatch descriptions kept per repetition (the count is in `failed`).
const MISMATCH_NOTES: usize = 8;

impl Outcome {
    /// Records one failed operation with a description of what went wrong.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.mismatches.len() < MISMATCH_NOTES {
            self.mismatches.push(what.into());
        }
    }

    /// Records the host-side layer metrics: the boot time and the executor
    /// work of the timed section, the difference of two `m3_sim::gauges`
    /// snapshots, plus the process-wide peaks (each workload runs in its
    /// own process, so those belong to it). `wall_s`, `boot_s` and
    /// `attempted` must be final.
    pub fn record_host(&mut self, before: &Gauges, after: &Gauges) {
        let d = after.since(before);
        let ops = self.attempted.max(1) as f64;
        let polls = d.task_polls.max(1) as f64;
        for (k, v) in [
            ("sim.tasks_spawned", d.tasks_spawned as f64),
            ("sim.task_polls", d.task_polls as f64),
            ("sim.timers_scheduled", d.timers_scheduled as f64),
            ("sim.timers_deduped", d.timers_deduped as f64),
            ("sim.polls_per_op", d.task_polls as f64 / ops),
            ("sim.host_ns_per_poll", self.wall_s * 1e9 / polls),
            ("sim.peak_live_tasks", d.peak_live_tasks as f64),
            ("sim.peak_pending_timers", d.peak_pending_timers as f64),
            ("core.boot_s", self.boot_s),
        ] {
            self.host.insert(k.to_string(), v);
        }
    }

    /// The simulated end-to-end metrics, from the completed operations.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let completed = self.attempted.saturating_sub(self.failed);
        let mut e2e = BTreeMap::new();
        e2e.insert("sim_cycles".to_string(), self.sim_cycles as f64);
        e2e.insert(
            "ops_per_mcycle".to_string(),
            completed as f64 * 1e6 / self.sim_cycles.max(1) as f64,
        );
        e2e.insert(
            "op_p50_cycles".to_string(),
            nearest_rank(&sorted, 0.50) as f64,
        );
        e2e.insert(
            "op_p99_cycles".to_string(),
            nearest_rank(&sorted, 0.99) as f64,
        );
        e2e.insert(
            "failed_op_ratio".to_string(),
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        e2e
    }

    /// One line of JSON: the host times, the operation counts, and the
    /// simulated (`sim`), host (`host`) and trace (`trace`) metric maps.
    pub fn to_json(&self) -> String {
        let mut sim = self.end_to_end();
        sim.extend(self.sim.clone());
        let mut out = String::from("{");
        for (k, v) in [
            ("setup_s", self.setup_s),
            ("wall_s", self.wall_s),
            ("cycles_advanced", self.cycles_advanced as f64),
            ("attempted", self.attempted as f64),
            ("failed", self.failed as f64),
            ("peak_rss_mb", peak_rss_mb()),
        ] {
            let _ = write!(out, "\"{k}\":{},", num(v));
        }
        for (name, map) in [("sim", &sim), ("host", &self.host), ("trace", &self.trace)] {
            let _ = write!(out, "\"{name}\":{{");
            let fields: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
                .collect();
            let _ = write!(out, "{}}},", fields.join(","));
        }
        let notes: Vec<String> = self
            .mismatches
            .iter()
            .map(|m| format!("\"{}\"", m.replace(['"', '\\'], "'")))
            .collect();
        let _ = write!(out, "\"mismatches\":[{}]}}", notes.join(","));
        out
    }
}

/// A finite JSON number (non-finite values cannot occur in valid runs and
/// are written as 0 rather than producing invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The nearest-rank quantile `q` of an ascending slice (rank `ceil(q*n)`),
/// 0 for an empty slice.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Plain counters from `Sim::stats` (names as the crates register them).
const STAT_KEYS: [&str; 10] = [
    "dtu.msgs_sent",
    "dtu.replies_sent",
    "dtu.mem_read_bytes",
    "dtu.mem_write_bytes",
    "dtu.msgs_dropped",
    "kernel.syscalls",
    "kernel.vpe_exits",
    "kernel.ktk_requests",
    "kernel.remote_placements",
    "kernel.page_faults",
];

/// Plain counters from the NoC's own `Stats`.
const NOC_STAT_KEYS: [&str; 3] = ["noc.transfers", "noc.bytes", "noc.wait_cycles"];

/// Per-PE counters from `Sim::metrics`, summed over PEs.
const METRIC_KEYS: [&str; 9] = [
    keys::DTU_BUSY,
    keys::CREDIT_STALLS,
    keys::NOC_LINK_BUSY,
    keys::KERNEL_OPS,
    keys::CTX_SWITCHES,
    keys::CTX_SWITCH_CYCLES,
    keys::DIRTY_PAGES_SAVED,
    keys::PAGE_FAULTS,
    keys::WRITEBACK_BYTES,
];

/// Per-PE histograms from `Sim::metrics`, reported as their mean.
const HISTOGRAM_KEYS: [(&str, &str); 2] = [
    (keys::RUN_QUEUE_DEPTH, "sched.run_queue_depth_mean"),
    (keys::SLICE_CYCLES, "sched.slice_cycles"),
];

/// A snapshot of one simulation's layer counters. Snapshots subtract (to
/// isolate the timed section) and add (to sum PDES islands).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Reads every counter of `sys`.
    pub fn read(sys: &System) -> Counters {
        let stats = sys.sim().stats();
        let noc_stats = sys.platform().dtu_system().noc().stats();
        let metrics = sys.sim().metrics();
        let mut c = BTreeMap::new();
        for key in STAT_KEYS {
            c.insert(key.to_string(), stats.get(key));
        }
        for key in NOC_STAT_KEYS {
            c.insert(key.to_string(), noc_stats.get(key));
        }
        for key in METRIC_KEYS {
            c.insert(key.to_string(), metrics.total(key));
        }
        for (key, _) in HISTOGRAM_KEYS {
            let (mut sum, mut count) = (0, 0);
            for pe in metrics.pes() {
                if let Some(h) = metrics.histogram(pe, key) {
                    sum += h.sum();
                    count += h.count();
                }
            }
            c.insert(format!("{key}.sum"), sum);
            c.insert(format!("{key}.count"), count);
        }
        Counters(c)
    }

    /// The counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// One counter, 0 when absent.
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// `key=value` pairs joined by `;` (to carry a snapshot out of a PDES
    /// island, whose `Sim` cannot leave its thread).
    pub fn encode(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(";")
    }

    /// Parses [`Counters::encode`] output; malformed pairs are skipped.
    pub fn decode(text: &str) -> Counters {
        Counters(
            text.split(';')
                .filter_map(|p| p.split_once('='))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect(),
        )
    }

    /// The per-layer metrics these counters give.
    pub fn layers(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = STAT_KEYS
            .iter()
            .chain(NOC_STAT_KEYS.iter())
            .chain(METRIC_KEYS.iter())
            .map(|k| (k.to_string(), self.get(k) as f64))
            .collect();
        for (key, name) in HISTOGRAM_KEYS {
            let sum = self.get(&format!("{key}.sum")) as f64;
            let count = self.get(&format!("{key}.count")).max(1) as f64;
            out.insert(name.to_string(), sum / count);
        }
        out
    }
}

/// Trace events counted per component, plus the m3fs requests among them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts(BTreeMap<String, u64>);

impl TraceCounts {
    /// Counts `events`.
    pub fn count(&mut self, events: &[Event]) {
        for comp in Component::all() {
            self.0
                .entry(format!("trace.events.{}", comp.name()))
                .or_default();
        }
        self.0.entry("fs.requests".to_string()).or_default();
        for e in events {
            *self
                .0
                .entry(format!("trace.events.{}", e.comp.name()))
                .or_default() += 1;
            if matches!(e.kind, EventKind::FsRequest { .. }) {
                *self.0.entry("fs.requests".to_string()).or_default() += 1;
            }
        }
    }

    /// Counts the events `sim` recorded; events the recorder's bound
    /// dropped are reported as `trace.dropped`.
    pub fn count_sim(&mut self, sim: &Sim) {
        self.count(&sim.trace());
        *self.0.entry("trace.dropped".to_string()).or_default() += sim.tracer().dropped();
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &TraceCounts) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// Same encoding as [`Counters::encode`].
    pub fn encode(&self) -> String {
        Counters(self.0.clone()).encode()
    }

    /// Parses [`TraceCounts::encode`] output.
    pub fn decode(text: &str) -> TraceCounts {
        TraceCounts(Counters::decode(text).0)
    }

    /// The counts as metrics.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), *v as f64)).collect()
    }
}

/// Trace events a traced repetition may hold. The recorder keeps events in
/// memory; the workloads are sized to stay below this, and a repetition
/// that drops events reports them as `trace.dropped`.
pub const TRACE_CAPACITY: usize = 4 << 20;

/// Turns tracing on for `sim` with room for a whole repetition.
pub fn enable_trace(sim: &Sim) {
    sim.tracer().set_capacity(TRACE_CAPACITY);
    sim.enable_trace();
}

/// The host and simulated extent of one single-`System` repetition.
pub struct Timed {
    /// The booted system, after the timed section.
    pub sys: System,
    /// Simulated cycle at which the timed section started.
    pub t0: u64,
    /// Programs that reached the start gate during set-up.
    pub arrived: usize,
    setup_s: f64,
    wall_s: f64,
    boot_s: f64,
    advanced: u64,
    counters: Counters,
    gauges: (Gauges, Gauges),
    trace: TraceCounts,
}

/// Boots `cfg`, lets `start` spawn the workload's programs, runs the
/// set-up until every program waits at the [`StartGate`], then opens the
/// gate and runs the timed section to completion (`System::run`).
///
/// `start` receives the gate and a cell that holds the timed section's
/// first simulated cycle once the gate opens.
pub fn run_single(
    cfg: SystemConfig,
    traced: bool,
    start: impl FnOnce(&System, &StartGate, &Rc<Cell<u64>>),
) -> Timed {
    let setup = Instant::now();
    let sys = System::boot(cfg);
    let boot_s = setup.elapsed().as_secs_f64();
    if traced {
        enable_trace(sys.sim());
    }
    let gate = StartGate::default();
    let t0 = Rc::new(Cell::new(0));
    start(&sys, &gate, &t0);
    // Every program stops at the gate, so this run ends stalled.
    sys.sim().run();
    let setup_s = setup.elapsed().as_secs_f64();

    let before = Counters::read(&sys);
    let gauges = m3_sim::gauges::snapshot();
    sys.sim().tracer().clear();
    t0.set(sys.now().as_u64());
    gate.open();
    let timed = Instant::now();
    sys.run();
    let wall_s = timed.elapsed().as_secs_f64();
    let counters = Counters::read(&sys).since(&before);
    let gauges_after = m3_sim::gauges::snapshot();
    let mut trace = TraceCounts::default();
    if traced {
        trace.count_sim(sys.sim());
    }
    Timed {
        t0: t0.get(),
        arrived: gate.arrived(),
        setup_s,
        wall_s,
        boot_s,
        advanced: sys.now().as_u64() - t0.get(),
        counters,
        gauges: (gauges, gauges_after),
        trace,
        sys,
    }
}

impl Timed {
    /// Copies the host times, the cycles advanced, the layer counters, the
    /// executor gauges and the trace counts into `out`, whose operation
    /// counts must already be final.
    pub fn record(&self, out: &mut Outcome) {
        out.setup_s = self.setup_s;
        out.wall_s = self.wall_s;
        out.boot_s = self.boot_s;
        out.cycles_advanced = self.advanced;
        out.record_host(&self.gauges.0, &self.gauges.1);
        out.sim.extend(self.counters.layers());
        out.trace = self.trace.metrics();
    }
}

/// Holds the workload's programs at the end of their set-up (sessions
/// open, file systems mounted) until the timed section starts.
#[derive(Clone, Default)]
pub struct StartGate {
    open: Rc<Cell<bool>>,
    arrived: Rc<Cell<usize>>,
    notify: Notify,
}

impl StartGate {
    /// Called by a program once its set-up is done; returns when the
    /// timed section starts.
    pub async fn arrive(&self) {
        self.arrived.set(self.arrived.get() + 1);
        while !self.open.get() {
            self.notify.wait().await;
        }
    }

    /// Programs waiting at the gate.
    pub fn arrived(&self) -> usize {
        self.arrived.get()
    }

    /// Releases every waiting program (the next `run` call polls them).
    pub fn open(&self) {
        self.open.set(true);
        self.notify.notify_all();
    }
}
