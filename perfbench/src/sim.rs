//! `fig11_seq` and `fig11_open_2shard`: the paper's Fig. 11 experiment
//! (Polygraph fill, phase I, exact replay; 5 ADC proxies with tables
//! scaled to the trace) through the simulator.

use crate::measure::{self, process_cpu, ClockCost, HostSpeed};
use crate::metrics::{
    push_agent_times, push_clock, push_cpu_per_request, push_proxy_stats, push_requests_per_s,
    push_rss, push_span,
};
use crate::report::Outcome;
use crate::timed::{AgentTimes, PhaseCell, Span, TimedAgent, TimedTrace};
use crate::{ratio, Budget, RunConfig, Workload};
use adc_bench::{Experiment, Scale};
use adc_core::CacheAgent;
use adc_sim::{InjectionMode, SimReport, SimTime, Simulation};
use adc_workload::{RequestRecord, SharedTrace};
use std::time::{Duration, Instant};

/// Shards of the open-loop workload: a coordinator plus one pool worker.
pub const SHARDS: usize = 2;
/// Open-loop inter-arrival time in simulated microseconds.
pub const OPEN_LOOP_INTERVAL_US: u64 = 50;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// The experiment a workload runs: `Experiment::at_scale` seeded with
/// `seed`, plus open-loop injection on a fixed one-worker pool for the
/// sharded workload, so the run is the same on any core count.
pub fn experiment(workload: Workload, scale: f64, seed: u64) -> Experiment {
    let mut exp = Experiment::at_scale(Scale::Custom(scale));
    exp.workload.seed = seed;
    exp.sim.seed = seed;
    if workload == Workload::Fig11Open2Shard {
        exp.sim.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(OPEN_LOOP_INTERVAL_US),
        };
        exp.sim.shard.pool_threads = Some(SHARDS - 1);
    }
    exp
}

/// Runs `agents` over `records` the way the workload does: through
/// `Simulation::run` for sequential injection, through
/// `Simulation::run_sharded` at [`SHARDS`] otherwise.
pub fn simulate<A: CacheAgent + Send>(
    exp: &Experiment,
    agents: Vec<A>,
    records: impl Iterator<Item = RequestRecord>,
) -> (SimReport, Vec<A>) {
    let sim = Simulation::new(agents, exp.sim.clone());
    match exp.sim.injection {
        InjectionMode::Sequential => sim.run_with_agents(records),
        InjectionMode::OpenLoop { .. } => sim.run_sharded_with_agents(records, SHARDS),
    }
}

/// Generates the trace and builds the agents `SETUPS` times; returns the
/// trace with the median set-up time and the median generation time.
fn set_up(exp: &Experiment) -> (SharedTrace, f64, f64) {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut gen = Vec::with_capacity(SETUPS);
    let mut trace = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let t = exp.trace();
        gen.push(start.elapsed().as_secs_f64());
        let agents = exp.adc_agents();
        setup.push(start.elapsed().as_secs_f64());
        drop(agents);
        trace = Some(t);
    }
    let trace = trace.expect("SETUPS > 0");
    (trace, measure::median(&setup), measure::median(&gen))
}

/// One untraced pass.
struct Pass {
    wall: Duration,
    cpu: Duration,
    report: SimReport,
}

fn plain_pass(exp: &Experiment, trace: &SharedTrace) -> Pass {
    let agents = exp.adc_agents();
    let cpu = process_cpu();
    let start = Instant::now();
    let (report, _) = simulate(exp, agents, trace.iter());
    Pass {
        wall: start.elapsed(),
        cpu: process_cpu() - cpu,
        report,
    }
}

/// One traced pass: agents and trace iterator wrapped in timers.
struct TracedPass {
    wall: Duration,
    cpu: Duration,
    report: SimReport,
    agents: AgentTimes,
    iter: Span,
}

fn traced_pass(exp: &Experiment, trace: &SharedTrace) -> TracedPass {
    let phase = PhaseCell::default();
    let agents = TimedAgent::wrap_all(exp.adc_agents(), &phase);
    let mut records = TimedTrace::new(trace.iter(), phase);
    let cpu = process_cpu();
    let start = Instant::now();
    let (report, agents) = simulate(exp, agents, &mut records);
    let wall = start.elapsed();
    let cpu = process_cpu() - cpu;
    let mut times = AgentTimes::default();
    for a in &agents {
        times.add(a);
    }
    TracedPass {
        wall,
        cpu,
        report,
        agents: times,
        iter: records.next,
    }
}

/// Checks one report against the trace and against the first report of
/// the run, which every later pass must reproduce byte for byte.
fn check_report(out: &mut Outcome, report: &SimReport, records: u64, first: &str, what: &str) {
    out.attempted += records;
    out.failed += records.saturating_sub(report.completed);
    out.check(report.completed == records, || {
        format!(
            "{what}: completed {} of {records} requests",
            report.completed
        )
    });
    let phased: u64 = report.phases.iter().map(|p| p.requests).sum();
    out.check(
        phased == report.completed && report.hits <= report.completed,
        || {
            format!(
                "{what}: phases count {phased} requests and {} hits for {} completed",
                report.hits, report.completed
            )
        },
    );
    out.check(report.to_deterministic_json() == first, || {
        format!("{what}: deterministic report differs from the first pass")
    });
}

/// Runs a simulation workload end to end or traced.
pub fn run(config: &RunConfig) -> Outcome {
    let exp = experiment(config.workload, config.scale, config.seed);
    if config.trace {
        return run_traced(config, &exp);
    }
    let (trace, setup_s, _) = set_up(&exp);
    let records = trace.len() as u64;
    let mut out = Outcome::default();
    let mut host = HostSpeed::default();
    sample_host(&mut host, &mut out);
    let mut first = None;
    let mut passes = Vec::new();
    let mut budget = Budget::new(config.workload.name(), config.seconds, 3);
    while budget.more() {
        let start = Instant::now();
        let pass = plain_pass(&exp, &trace);
        let scale = sample_host(&mut host, &mut out);
        budget.record(start.elapsed());
        let first = first.get_or_insert_with(|| pass.report.to_deterministic_json());
        check_report(&mut out, &pass.report, records, first, "pass");
        if passes.is_empty() {
            push_rss(&mut out);
        }
        passes.push((pass, scale));
    }
    host.log();

    let rates: Vec<(f64, f64, f64)> = passes
        .iter()
        .map(|(p, scale)| (p.report.completed as f64, p.wall.as_secs_f64(), *scale))
        .collect();
    let report = &passes[0].0.report;
    out.push("setup_s", setup_s * host.median_factor(), "s");
    push_requests_per_s(&mut out, &rates);
    out.push("hit_rate", report.hit_rate(), "fraction");
    out.push("mean_hops", report.mean_hops(), "hops/request");
    out.push(
        "completion_rate",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
        "fraction",
    );
    out
}

/// Takes a host-speed sample and returns its time factor; on failure
/// records why and returns NaN, which no correct result can carry.
pub fn sample_host(host: &mut HostSpeed, out: &mut Outcome) -> f64 {
    host.sample().unwrap_or_else(|e| {
        out.problems.push(format!("host reference failed: {e}"));
        f64::NAN
    })
}

/// The traced run: untraced and traced passes alternate, so the tracing
/// overhead is the difference of their medians on the same host state.
fn run_traced(config: &RunConfig, exp: &Experiment) -> Outcome {
    let clock = ClockCost::calibrate();
    let (trace, _, gen_s) = set_up(exp);
    let records = trace.len() as u64;
    let sharded = config.workload == Workload::Fig11Open2Shard;
    let mut out = Outcome::default();
    let mut host = HostSpeed::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut first = None;
    let mut budget = Budget::new(config.workload.name(), config.seconds, 2);
    while budget.more() {
        let start = Instant::now();
        sample_host(&mut host, &mut out);
        let pass = plain_pass(exp, &trace);
        let first = first.get_or_insert_with(|| pass.report.to_deterministic_json());
        check_report(&mut out, &pass.report, records, first, "untraced pass");
        plain.push(pass);
        let pass = traced_pass(exp, &trace);
        check_report(&mut out, &pass.report, records, first, "traced pass");
        traced.push(pass);
        budget.record(start.elapsed());
    }

    // Layer times add up to wall time when one thread runs the
    // simulation, and to CPU time when the pool worker runs beside the
    // coordinator.
    let base = |wall: Duration, cpu: Duration| {
        if sharded {
            cpu.as_nanos() as f64
        } else {
            wall.as_nanos() as f64
        }
    };
    let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall.as_nanos() as f64).collect();
    let plain_base: Vec<f64> = plain.iter().map(|p| base(p.wall, p.cpu)).collect();
    traced.sort_by_key(|p| p.wall);
    let t = &traced[traced.len() / 2];
    let traced_wall = t.wall.as_nanos() as f64;
    let traced_base = base(t.wall, t.cpu);

    let agent = t.agents.total();
    let agent_ns = clock.calibrated_ns(agent.ns, agent.calls);
    let iter_ns = clock.calibrated_ns(t.iter.ns, t.iter.calls);
    let spans = (agent.calls + t.iter.calls) as f64;
    let clock_ns = spans * clock.pair_ns;
    let events = t.report.events_processed as f64;
    let self_raw = traced_base - agent.ns as f64 - t.iter.ns as f64;
    let self_ns = traced_base - agent_ns - iter_ns - clock_ns;

    let cpu: Vec<(f64, f64)> = plain
        .iter()
        .map(|p| (p.report.completed as f64, p.cpu.as_secs_f64()))
        .collect();
    push_cpu_per_request(&mut out, &cpu);
    out.push("workload.records", records as f64, "count");
    out.push(
        "workload.gen_ns_per_record",
        gen_s * 1e9 / records as f64,
        "ns",
    );
    push_span(
        &mut out,
        &clock,
        t.iter,
        [
            "workload.iter_ns_per_record",
            "workload.iter_ns_per_record_raw",
        ],
    );
    push_agent_times(&mut out, &clock, &t.agents);
    out.push("core.busy_share", ratio(agent_ns, traced_base), "fraction");
    push_proxy_stats(&mut out, &t.report.cluster_stats(), t.report.completed);
    out.push("sim.events", events, "count");
    out.push("sim.messages", t.report.messages_delivered as f64, "count");
    out.push("sim.peak_flows", t.report.peak_flows as f64, "count");
    out.push("sim.self_ns_per_event", ratio(self_ns, events), "ns");
    out.push("sim.self_ns_per_event_raw", ratio(self_raw, events), "ns");
    if sharded {
        let first = first.as_deref().unwrap_or_default();
        push_shard_metrics(&mut out, exp, &trace, &plain[0].report, first);
    }
    push_clock(&mut out, &clock);
    out.push("host.reference_round_trip_us", host.round_trip_us(), "us");
    let untraced = measure::median(&plain_wall);
    out.push(
        "trace.overhead_share",
        (traced_wall - untraced) / untraced,
        "fraction",
    );
    out.push(
        "trace.explained_share",
        (measure::median(&plain_base) + clock_ns) / traced_base,
        "fraction",
    );
    out.push(
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );
    out
}

/// Synchronization counts from an untraced pass, plus one run with the
/// executor's own wall-clock profiler on for the barrier and balance
/// shares.
fn push_shard_metrics(
    out: &mut Outcome,
    exp: &Experiment,
    trace: &SharedTrace,
    report: &SimReport,
    first: &str,
) {
    let exec = report.shard_exec.unwrap_or_default();
    out.push(
        "shard.windows_advanced",
        exec.windows_advanced as f64,
        "count",
    );
    out.push(
        "shard.windows_skipped",
        exec.windows_skipped as f64,
        "count",
    );
    let mut profiled = exp.clone();
    profiled.sim.shard.profile = true;
    let pass = plain_pass(&profiled, trace);
    let records = trace.len() as u64;
    check_report(out, &pass.report, records, first, "profiled pass");
    let Some(profile) = pass.report.shard_profile else {
        out.problems
            .push("the profiled sharded run returned no profile".into());
        return;
    };
    out.push(
        "shard.barrier_wait_fraction",
        profile.barrier_wait_fraction(),
        "fraction",
    );
    out.push("shard.imbalance", profile.imbalance_coefficient(), "ratio");
    out.push(
        "shard.coordinator_busy_share",
        profile.coordinator_busy_ns as f64 / pass.wall.as_nanos() as f64,
        "fraction",
    );
}
