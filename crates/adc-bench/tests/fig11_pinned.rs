//! Pins the fixed 5-proxy end-to-end scenario's hit and hop numbers to a
//! golden file, at a micro scale that still exercises both systems.
//!
//! The golden sweep CSV (`determinism.rs`) covers the ADC parameter
//! sweep; this file covers the Figure 11 comparison path — ADC and the
//! CARP baseline over the shared Polygraph trace — so an event-loop or
//! agent rewrite that shifts any count by even one is caught. Hit counts,
//! hop sums and message totals here were produced by the pre-calendar-
//! queue binary-heap event loop; the rewrite reproduced them exactly.
//!
//! Regenerate after an *intentional* behavior change:
//!
//! ```text
//! ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned
//! ```

use adc_bench::experiment::Experiment;
use adc_bench::scale::Scale;
use adc_core::ProxyId;
use adc_obs::EventLog;
use adc_sim::{ChurnEvent, SimReport, Simulation};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn golden_path() -> PathBuf {
    golden_dir().join("fig11_micro.txt")
}

/// Compares `rendered` with the golden file `name`, or rewrites the file
/// when `ADC_BLESS_GOLDEN` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("ADC_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {name} missing; bless it with \
             ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned"
        )
    });
    assert_eq!(
        rendered, golden,
        "{name} diverged from the golden file; if the change is \
         intentional, re-bless with ADC_BLESS_GOLDEN=1"
    );
}

/// 64-bit FNV-1a: a dependency-free fingerprint for large byte pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders every deterministic count the comparison produces. Floats are
/// printed with `{:?}` (shortest round-trip form), so any bit-level
/// change shows up.
fn render(name: &str, report: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{name}]");
    let _ = writeln!(out, "completed = {}", report.completed);
    let _ = writeln!(out, "hits = {}", report.hits);
    for (phase, stats) in ["fill", "request1", "request2"].iter().zip(&report.phases) {
        let _ = writeln!(out, "{phase} = {}/{}", stats.hits, stats.requests);
    }
    let _ = writeln!(out, "mean_hops = {:?}", report.mean_hops());
    let _ = writeln!(out, "messages_delivered = {}", report.messages_delivered);
    let _ = writeln!(out, "events_processed = {}", report.events_processed);
    let _ = writeln!(out, "peak_flows = {}", report.peak_flows);
    let _ = writeln!(out, "client_orphans = {}", report.client_orphans);
    let _ = writeln!(
        out,
        "orphan_origin_requests = {}",
        report.orphan_origin_requests
    );
    let _ = writeln!(out, "bytes_from_origin = {}", report.bytes_from_origin);
    let _ = writeln!(out, "bytes_from_caches = {}", report.bytes_from_caches);
    let cluster = report.cluster_stats();
    let _ = writeln!(
        out,
        "origin_fetches = {}",
        cluster.origin_loops + cluster.origin_max_hops + cluster.origin_this_miss
    );
    let _ = writeln!(out, "per_proxy_requests = {:?}", {
        let mut v: Vec<u64> = report
            .per_proxy
            .iter()
            .map(|p| p.requests_received)
            .collect();
        v.sort_unstable();
        v
    });
    out
}

#[test]
fn fig11_micro_counts_match_golden() {
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let trace = experiment.trace();
    let adc = experiment.run_adc_on(&trace);
    let carp = experiment.run_carp_on(&trace);
    let rendered = format!("{}\n{}", render("adc", &adc), render("carp", &carp));

    let path = golden_path();
    if std::env::var_os("ADC_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden file missing; bless it with \
         ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned",
    );
    assert_eq!(
        rendered, golden,
        "fig11 micro counts diverged from the golden file; if the change \
         is intentional, re-bless with ADC_BLESS_GOLDEN=1"
    );
}

/// The same scenario on four shards must reproduce the *same* golden
/// file: reports are invariant in the shard count, so this test is never
/// re-blessed separately — any divergence is a sharding bug.
#[test]
fn fig11_micro_counts_match_golden_on_the_sharded_executor() {
    if std::env::var_os("ADC_BLESS_GOLDEN").is_some() {
        return; // blessing is the one-shard test's job
    }
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let trace = experiment.trace();
    let adc = experiment.run_adc_sharded_on(&trace, 4);
    let carp = experiment.run_carp_sharded_on(&trace, 4);
    let rendered = format!("{}\n{}", render("adc", &adc), render("carp", &carp));
    let golden = std::fs::read_to_string(golden_path()).expect(
        "golden file missing; bless it with \
         ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned",
    );
    assert_eq!(
        rendered, golden,
        "sharded fig11 micro counts diverged from the one-shard golden \
         file — the sharded executor broke bit-equality"
    );
}

/// ADC under `ablation_churn`'s schedule: proxies 0 and 1 restart at 40%
/// and 45% of the run, proxy 2 at 65%. Restarts fire on the completion
/// count, so sequential churn runs pin the completion fold.
#[test]
fn fig11_micro_churn_matches_golden() {
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let total = experiment.workload.total_requests();
    let mut sim = experiment.sim.clone();
    sim.churn = [(4, 10, 0), (45, 100, 1), (65, 100, 2)]
        .iter()
        .map(|&(num, den, proxy)| ChurnEvent {
            after_completed: total * num / den,
            proxy: ProxyId::new(proxy),
        })
        .collect();
    let report = Simulation::new(experiment.adc_agents(), sim).run(experiment.trace().iter());
    assert_eq!(report.proxies_reset, 3);
    let rendered = format!(
        "{}proxies_reset = {}\nhit_series = {:?}\n",
        render("adc_churn", &report),
        report.proxies_reset,
        report.hit_series.points
    );
    check_golden("fig11_micro_churn.txt", &rendered);
}

/// The typed event stream of the ADC run: every probe event in emission
/// order with its virtual timestamp, pinned by count and by a hash of
/// its JSONL export.
#[test]
fn fig11_micro_event_log_matches_golden() {
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let mut log = EventLog::with_capacity(1 << 20);
    let report = Simulation::new(experiment.adc_agents(), experiment.sim.clone())
        .run_observed(experiment.trace().iter(), &mut log);
    assert_eq!(report.completed, experiment.workload.total_requests());
    assert_eq!(log.dropped(), 0, "event log bound too small");
    let mut jsonl = Vec::new();
    adc_obs::write_jsonl(&mut jsonl, log.events()).expect("in-memory write");
    let rendered = format!(
        "events = {}\njsonl_bytes = {}\njsonl_fnv1a = {:#018x}\n",
        log.len(),
        jsonl.len(),
        fnv1a(&jsonl)
    );
    check_golden("fig11_micro_events.txt", &rendered);
}
