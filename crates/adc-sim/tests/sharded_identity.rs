//! Differential determinism harness for the sharded executor.
//!
//! Runs Figure-11-scale workloads through `Simulation::run` (the executor
//! at one shard) and through `run_sharded` at several shard counts —
//! including a non-power-of-two count, a count that does not divide the
//! proxy count, and a count exceeding it — and demands *byte identity* of
//! the canonical report JSON, the Prometheus metrics exposition, and the
//! convergence series, in both injection modes and under churn. Faults
//! and tracing run at one shard only and must be rejected above it.

use adc_core::{AdcConfig, AdcProxy, CacheAgent, ProxyId};
use adc_sim::{ChurnEvent, ConvergenceConfig, InjectionMode, SimConfig, SimTime, Simulation};
use adc_workload::PolygraphConfig;

/// Five proxies: 2 and 4 do not divide it, 7 exceeds it, so the suite
/// covers uneven and partially-empty partitions.
const PROXIES: u32 = 5;

/// Shard counts under test (1 = the sharded code path on one worker).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn agents() -> Vec<AdcProxy> {
    let config = AdcConfig::builder()
        .single_capacity(400)
        .multiple_capacity(400)
        .cache_capacity(200)
        .build();
    (0..PROXIES)
        .map(|i| AdcProxy::new(ProxyId::new(i), PROXIES, config.clone()))
        .collect()
}

/// Figure-11-style workload at CI scale (~8 k requests).
fn workload() -> impl Iterator<Item = adc_workload::RequestRecord> {
    PolygraphConfig::scaled(0.002).build()
}

/// Default latencies (the sharded executor needs a positive lookahead),
/// with convergence probing on so its series enter the comparison.
fn config() -> SimConfig {
    SimConfig {
        convergence: Some(ConvergenceConfig {
            sample_every: 1000,
            top_k: 64,
        }),
        hit_window: 1000,
        sample_every: 1000,
        ..SimConfig::default()
    }
}

#[test]
fn sequential_report_is_byte_identical_to_single_threaded() {
    let reference = Simulation::new(agents(), config()).run(workload());
    let reference_json = reference.to_deterministic_json();
    let reference_conv = reference.convergence.as_ref().expect("convergence enabled");
    assert!(
        reference_conv.samples > 0,
        "the comparison must actually exercise convergence sampling"
    );
    assert!(reference.hits > 0, "workload must produce hits");
    for shards in SHARD_COUNTS {
        let report = Simulation::new(agents(), config()).run_sharded(workload(), shards);
        assert_eq!(
            reference_json,
            report.to_deterministic_json(),
            "shards={shards} diverged from Simulation::run"
        );
        // The JSON covers these, but keep first-class failures readable.
        assert_eq!(
            reference_conv.agreement,
            report
                .convergence
                .as_ref()
                .expect("convergence enabled")
                .agreement,
            "shards={shards} convergence series diverged"
        );
    }
}

#[test]
fn sequential_metrics_exposition_is_byte_identical_to_single_threaded() {
    let reference = Simulation::new(agents(), config()).run_with_metrics(workload());
    let reference_prom = reference
        .metrics
        .as_ref()
        .expect("metrics probe attached")
        .snapshot
        .to_prometheus();
    assert!(
        reference_prom.contains("adc_requests_completed"),
        "exposition must carry completion families:\n{reference_prom}"
    );
    for shards in SHARD_COUNTS {
        let report =
            Simulation::new(agents(), config()).run_sharded_with_metrics(workload(), shards);
        let prom = report
            .metrics
            .as_ref()
            .expect("metrics probe attached")
            .snapshot
            .to_prometheus();
        assert_eq!(
            reference_prom, prom,
            "shards={shards} metrics exposition diverged"
        );
        assert_eq!(
            reference.metrics, report.metrics,
            "shards={shards} per-proxy metric summaries diverged"
        );
        assert_eq!(
            reference.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} report diverged under the metrics probe"
        );
    }
}

#[test]
fn sequential_returns_agents_in_proxy_id_order() {
    let (_, reference) = Simulation::new(agents(), config()).run_with_agents(workload());
    for shards in SHARD_COUNTS {
        let (_, returned) =
            Simulation::new(agents(), config()).run_sharded_with_agents(workload(), shards);
        assert_eq!(reference.len(), returned.len());
        for (p, (a, b)) in reference.iter().zip(&returned).enumerate() {
            assert_eq!(
                a.proxy_id(),
                b.proxy_id(),
                "shards={shards}: agent {p} out of order"
            );
            assert_eq!(
                a.stats(),
                b.stats(),
                "shards={shards}: agent {p} state diverged"
            );
        }
    }
}

#[test]
fn forced_pool_and_tuning_stay_byte_identical_at_figure_scale() {
    // The synchronization layer (persistent pool, widening, batched
    // folds) is pure execution strategy: force an aggressive tuning —
    // real worker threads even on a single-core runner, a small fold
    // batch — and demand byte identity with the untuned one-shard run.
    use adc_sim::ShardTuning;
    let tuned = ShardTuning {
        pool_threads: Some(3),
        widen: true,
        fold_batch: 4,
        // Profiling rides along to prove the clock reads never leak
        // into the deterministic bytes at figure scale.
        profile: true,
    };
    let reference = Simulation::new(agents(), config()).run(workload());
    let mut seq = config();
    seq.shard = tuned;
    for shards in SHARD_COUNTS {
        let report = Simulation::new(agents(), seq.clone()).run_sharded(workload(), shards);
        assert_eq!(
            reference.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} diverged under forced pool tuning (sequential)"
        );
    }
    // Open loop without barrier-driven samplers, so widening and
    // batched folds genuinely engage under the forced pool.
    let mut open = config();
    open.convergence = None;
    open.sample_occupancy = false;
    open.injection = InjectionMode::OpenLoop {
        interval: SimTime::from_micros(200),
    };
    let mut open_tuned = open.clone();
    open_tuned.shard = tuned;
    let base = Simulation::new(agents(), open).run_sharded(workload(), 1);
    let exec = base.shard_exec.expect("sharded runs report exec stats");
    assert!(exec.windows_widened > 0, "widening must engage: {exec:?}");
    for shards in &SHARD_COUNTS[1..] {
        let report = Simulation::new(agents(), open_tuned.clone()).run_sharded(workload(), *shards);
        assert_eq!(
            base.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} open-loop report diverged under forced pool tuning"
        );
    }
}

#[test]
fn open_loop_report_is_invariant_in_the_shard_count() {
    let mut open = config();
    open.injection = InjectionMode::OpenLoop {
        interval: SimTime::from_micros(200),
    };
    let run = |shards| {
        Simulation::new(agents(), open.clone()).run_sharded_with_metrics(workload(), shards)
    };
    let reference = run(1);
    let reference_json = reference.to_deterministic_json();
    let reference_prom = reference
        .metrics
        .as_ref()
        .expect("metrics probe attached")
        .snapshot
        .to_prometheus();
    assert!(
        reference.peak_flows > 1,
        "open loop must actually overlap flows for this test to bite"
    );
    // Skip the already-covered shards=1 self-comparison.
    for shards in &SHARD_COUNTS[1..] {
        let report = run(*shards);
        assert_eq!(
            reference_json,
            report.to_deterministic_json(),
            "shards={shards} open-loop report diverged from shards=1"
        );
        assert_eq!(
            reference_prom,
            report
                .metrics
                .as_ref()
                .expect("metrics probe attached")
                .snapshot
                .to_prometheus(),
            "shards={shards} open-loop metrics exposition diverged"
        );
    }
}

#[test]
fn sequential_churn_is_invariant_in_the_shard_count() {
    // Restarts fire in the completion fold, which sees the same agent
    // state at every shard count.
    let mut churned = config();
    churned.churn = [(3_000, 0), (3_500, 3), (5_500, 1)]
        .iter()
        .map(|&(after_completed, proxy)| ChurnEvent {
            after_completed,
            proxy: ProxyId::new(proxy),
        })
        .collect();
    let run = |shards| Simulation::new(agents(), churned.clone()).run_sharded(workload(), shards);
    let reference = run(1);
    assert_eq!(reference.proxies_reset, 3);
    let plain = Simulation::new(agents(), config()).run(workload());
    assert_ne!(
        plain.hits, reference.hits,
        "the restarts must change the run for this test to bite"
    );
    for shards in [2, 4] {
        assert_eq!(
            reference.to_deterministic_json(),
            run(shards).to_deterministic_json(),
            "shards={shards} churn run diverged from shards=1"
        );
    }
}

/// The panic message of `f`, if it panicked.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
}

#[test]
fn faults_and_tracing_run_at_one_shard_and_are_rejected_above() {
    let mut faulty = config();
    faulty.faults.duplicate_prob = 0.05;
    let mut traced = config();
    traced.trace_capacity = 1_000;
    for (cfg, rejection) in [
        (&faulty, "does not support fault injection"),
        (&traced, "does not support delivery tracing"),
    ] {
        let one = Simulation::new(agents(), cfg.clone()).run_sharded(workload(), 1);
        assert_eq!(
            one.completed,
            PolygraphConfig::scaled(0.002).total_requests()
        );
        let message = panic_message(|| {
            let _ = Simulation::new(agents(), cfg.clone()).run_sharded(workload(), 2);
        });
        assert!(
            message.as_deref().is_some_and(|m| m.contains(rejection)),
            "shards=2 must panic with {rejection:?}, got {message:?}"
        );
    }
    let dup = Simulation::new(agents(), faulty).run(workload());
    assert!(
        dup.duplicates_injected > 0,
        "duplicates must fire at one shard"
    );
    let log = Simulation::new(agents(), traced).run(workload());
    assert_eq!(log.trace.as_ref().map(|t| t.records().len()), Some(1_000));
}
