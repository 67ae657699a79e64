//! The repository benchmark: three workloads over the ADC workspace,
//! each measured end to end with tracing off and, in a separate traced
//! run, layer by layer through timing wrappers around the public calls
//! into `adc-workload`, `adc-core`, `adc-sim` and `adc-net`.
//!
//! `README.md` in this directory explains why each workload exists and
//! which end-to-end metric each per-layer metric should move.

#![warn(missing_docs)]

pub mod live;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod sim;
pub mod timed;

use report::Outcome;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 11 experiment under sequential injection.
    Fig11Seq,
    /// The same trace and agents, open-loop injection, 2 shards.
    Fig11Open2Shard,
    /// A Polygraph trace replayed through a live 4-proxy TCP cluster.
    LiveTcp4Proxy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig11Seq,
        Workload::Fig11Open2Shard,
        Workload::LiveTcp4Proxy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Seq => "fig11_seq",
            Workload::Fig11Open2Shard => "fig11_open_2shard",
            Workload::LiveTcp4Proxy => "live_tcp_4proxy",
        }
    }

    /// The trace scale (fraction of the paper's 3.99 M requests) a
    /// benchmark run uses.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::Fig11Seq | Workload::Fig11Open2Shard => 0.1,
            Workload::LiveTcp4Proxy => 0.005,
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated trace and of the simulator.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Trace scale: [`Workload::default_scale`] on the command line;
    /// tests shrink it.
    pub scale: f64,
}

/// End-to-end metrics, measured with tracing off, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("hit_rate", "fraction"),
    ("mean_hops", "hops/request"),
    ("completion_rate", "fraction"),
];

/// Per-layer metrics of the traced run, in print order. A workload whose
/// path skips a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu_us_per_request", "us"),
    ("workload.records", "count"),
    ("workload.gen_ns_per_record", "ns"),
    ("workload.iter_ns_per_record", "ns"),
    ("workload.iter_ns_per_record_raw", "ns"),
    ("core.on_request.calls", "count"),
    ("core.on_request.ns_per_call", "ns"),
    ("core.on_request.ns_per_call_raw", "ns"),
    ("core.on_reply.calls", "count"),
    ("core.on_reply.ns_per_call", "ns"),
    ("core.on_reply.ns_per_call_raw", "ns"),
    ("core.ns_per_call.fill", "ns"),
    ("core.ns_per_call.phase1", "ns"),
    ("core.ns_per_call.phase2", "ns"),
    ("core.busy_share", "fraction"),
    ("core.local_hit_ratio", "fraction"),
    ("core.forwards_per_request", "forwards/request"),
    ("core.cache_evictions", "count"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("sim.peak_flows", "count"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.self_ns_per_event_raw", "ns"),
    ("shard.windows_advanced", "count"),
    ("shard.windows_skipped", "count"),
    ("shard.barrier_wait_fraction", "fraction"),
    ("shard.imbalance", "ratio"),
    ("shard.coordinator_busy_share", "fraction"),
    ("net.agent_ns_per_call", "ns"),
    ("net.agent_ns_per_call_raw", "ns"),
    ("net.agent_share", "fraction"),
    ("net.frames_per_request", "frames/request"),
    ("net.body_kib_per_request", "KiB"),
    ("net.codec.ns_per_frame", "ns"),
    ("net.codec.ns_per_kib", "ns"),
    ("net.latency_p50_us", "us"),
    ("net.latency_p90_us", "us"),
    ("net.hit_p50_us", "us"),
    ("net.miss_p50_us", "us"),
    ("net.latency_p99_us", "us"),
    ("net.latency_samples", "count"),
    ("host.reference_round_trip_us", "us"),
    ("trace.clock_read_ns", "ns"),
    ("trace.clock_in_span_ns", "ns"),
    ("trace.overhead_share", "fraction"),
    ("trace.explained_share", "fraction"),
    ("error_rate", "fraction"),
];

/// Runs one workload and returns its outcome with metrics in the
/// canonical order of [`END_TO_END`] or [`PER_LAYER`].
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = match config.workload {
        Workload::Fig11Seq | Workload::Fig11Open2Shard => sim::run(config),
        Workload::LiveTcp4Proxy => live::run(config),
    };
    canonicalize(&mut outcome, config.trace);
    outcome
}

/// Orders the metrics as the vocabulary lists them, fills per-layer
/// metrics of layers the workload never calls with 0, and flags a
/// missing end-to-end metric or a name outside the vocabulary.
fn canonicalize(outcome: &mut Outcome, traced: bool) {
    let vocabulary = if traced { PER_LAYER } else { END_TO_END };
    let mut ordered = Vec::with_capacity(vocabulary.len());
    for &(name, unit) in vocabulary {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                if m.unit != unit {
                    let problem = format!("{name} reported in {} not {unit}", m.unit);
                    outcome.problems.push(problem);
                }
                ordered.push(m.clone());
            }
            None if traced => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => outcome.problems.push(format!("{name} was not measured")),
        }
    }
    for m in &outcome.metrics {
        if !vocabulary.iter().any(|&(name, _)| name == m.name) {
            outcome
                .problems
                .push(format!("{} is not a listed metric", m.name));
        }
    }
    outcome.metrics = ordered;
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Decides when a run has measured enough: at least `min` passes, and no
/// new pass once the longest pass so far would overrun the budget. Logs
/// each pass to standard error.
#[derive(Debug)]
pub struct Budget {
    label: &'static str,
    start: Instant,
    seconds: f64,
    min: usize,
    passes: usize,
    longest: Duration,
}

impl Budget {
    /// A budget of `seconds` starting now; `label` names the passes in
    /// the log.
    pub fn new(label: &'static str, seconds: f64, min: usize) -> Self {
        Budget {
            label,
            start: Instant::now(),
            seconds,
            min,
            passes: 0,
            longest: Duration::ZERO,
        }
    }

    /// Records a pass that took `took`.
    pub fn record(&mut self, took: Duration) {
        self.passes += 1;
        eprintln!(
            "{} pass {}: {:.3} s",
            self.label,
            self.passes,
            took.as_secs_f64()
        );
        self.longest = self.longest.max(took);
    }

    /// Whether another pass should run.
    pub fn more(&self) -> bool {
        self.passes < self.min
            || (self.start.elapsed() + self.longest).as_secs_f64() <= self.seconds
    }
}
