//! Metric assembly shared by the workloads: the end-to-end timing
//! medians and the per-layer metrics every workload reports alike.

use crate::measure::{self, ClockCost};
use crate::ratio;
use crate::report::Outcome;
use crate::timed::{AgentTimes, Span};
use adc_core::ProxyStats;

/// Pushes the median over passes of completed requests per wall second,
/// each pass scaled by its host-speed time factor, and logs the unscaled
/// median to standard error. `passes` holds `(completed, wall seconds,
/// factor)` per pass.
pub fn push_requests_per_s(out: &mut Outcome, passes: &[(f64, f64, f64)]) {
    let raw: Vec<f64> = passes.iter().map(|&(n, wall, _)| n / wall).collect();
    let scaled: Vec<f64> = passes
        .iter()
        .map(|&(n, wall, scale)| n / (wall * scale))
        .collect();
    eprintln!("unscaled median requests_per_s {}", measure::median(&raw));
    out.push("requests_per_s", measure::median(&scaled), "req/s");
}

/// Pushes the median over passes of process CPU microseconds per
/// completed request. `passes` holds `(completed, CPU seconds)` per pass.
pub fn push_cpu_per_request(out: &mut Outcome, passes: &[(f64, f64)]) {
    let us: Vec<f64> = passes.iter().map(|&(n, cpu)| cpu * 1e6 / n).collect();
    out.push("cpu_us_per_request", measure::median(&us), "us");
}

/// Reports the resident-set high-water mark, or a problem. Runs read it
/// after their first pass, so the figure covers the set-ups and one pass
/// however many passes the budget allows.
pub fn push_rss(out: &mut Outcome) {
    match measure::peak_rss_mib() {
        Ok(mib) => out.push("peak_rss_mb", mib, "MiB"),
        Err(e) => out.problems.push(e),
    }
}

/// Pushes a span's calibrated and raw nanoseconds per call under
/// `[name, raw_name]`.
pub fn push_span(out: &mut Outcome, clock: &ClockCost, span: Span, names: [&'static str; 2]) {
    let calls = span.calls as f64;
    let calibrated = clock.calibrated_ns(span.ns, span.calls);
    out.push(names[0], ratio(calibrated, calls), "ns");
    out.push(names[1], ratio(span.ns as f64, calls), "ns");
}

/// Pushes the `core.*` call counts and per-call times.
pub fn push_agent_times(out: &mut Outcome, clock: &ClockCost, times: &AgentTimes) {
    out.push(
        "core.on_request.calls",
        times.on_request.calls as f64,
        "count",
    );
    push_span(
        out,
        clock,
        times.on_request,
        [
            "core.on_request.ns_per_call",
            "core.on_request.ns_per_call_raw",
        ],
    );
    out.push("core.on_reply.calls", times.on_reply.calls as f64, "count");
    push_span(
        out,
        clock,
        times.on_reply,
        ["core.on_reply.ns_per_call", "core.on_reply.ns_per_call_raw"],
    );
    let names = [
        "core.ns_per_call.fill",
        "core.ns_per_call.phase1",
        "core.ns_per_call.phase2",
    ];
    for (name, span) in names.into_iter().zip(times.by_phase) {
        let ns = clock.calibrated_ns(span.ns, span.calls);
        out.push(name, ratio(ns, span.calls as f64), "ns");
    }
}

/// Pushes the `core.*` outcome counters the agents keep themselves.
pub fn push_proxy_stats(out: &mut Outcome, stats: &ProxyStats, completed: u64) {
    out.push("core.local_hit_ratio", stats.local_hit_rate(), "fraction");
    out.push(
        "core.forwards_per_request",
        ratio(stats.forwards() as f64, completed as f64),
        "forwards/request",
    );
    out.push(
        "core.cache_evictions",
        stats.cache_evictions as f64,
        "count",
    );
}

/// Pushes the clock calibration.
pub fn push_clock(out: &mut Outcome, clock: &ClockCost) {
    out.push("trace.clock_read_ns", clock.pair_ns, "ns");
    out.push("trace.clock_in_span_ns", clock.in_span_ns, "ns");
}
