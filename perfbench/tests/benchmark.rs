//! Tests of the benchmark itself at micro scale: every metric is printed
//! with its unit and a finite value, deterministic outputs follow the
//! seed, and the timing wrappers do not change what the program computes.

use adc_perfbench::live;
use adc_perfbench::report::Outcome;
use adc_perfbench::sim::{experiment, simulate};
use adc_perfbench::timed::{PhaseCell, TimedAgent, TimedTrace};
use adc_perfbench::{run, RunConfig, Workload, END_TO_END, PER_LAYER};

fn micro(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let scale = match workload {
        Workload::LiveTcp4Proxy => 0.001,
        _ => 0.002,
    };
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale,
    })
}

#[test]
fn micro_runs_print_every_metric_with_unit_and_finite_value() {
    for workload in Workload::ALL {
        for (trace, vocabulary) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = micro(workload, 11, trace);
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.problems
            );
            assert!(out.attempted > 0 && out.failed == 0);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = vocabulary.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, expected, "{} trace={trace}", workload.name());
            for (m, &(_, unit)) in out.metrics.iter().zip(vocabulary) {
                assert_eq!(m.unit, unit, "{}", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            let json = out.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for &(name, unit) in vocabulary {
                assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} must never be 0", m.name);
                }
            }
        }
    }
}

#[test]
fn deterministic_outputs_repeat_on_a_seed_and_change_with_it() {
    for workload in [Workload::Fig11Seq, Workload::Fig11Open2Shard] {
        let key = |o: &Outcome| [o.get("hit_rate"), o.get("mean_hops")];
        let a = micro(workload, 5, false);
        let b = micro(workload, 5, false);
        let c = micro(workload, 6, false);
        assert_eq!(key(&a), key(&b), "{}", workload.name());
        assert_ne!(key(&a), key(&c), "{}", workload.name());
        let key = |o: &Outcome| [o.get("sim.events"), o.get("sim.messages")];
        let a = micro(workload, 5, true);
        let b = micro(workload, 5, true);
        let c = micro(workload, 6, true);
        assert_eq!(key(&a), key(&b), "{}", workload.name());
        assert_ne!(key(&a), key(&c), "{}", workload.name());
    }
    let hits = |seed| {
        let r = live::plain_replay(&live::experiment(0.001, seed)).expect("live replay");
        assert_eq!(r.completed, r.attempted);
        r.hits
    };
    assert_eq!(hits(5), hits(5));
    assert_ne!(hits(5), hits(6));
}

#[test]
fn timing_wrappers_leave_the_reports_byte_identical() {
    for workload in [Workload::Fig11Seq, Workload::Fig11Open2Shard] {
        let exp = experiment(workload, 0.002, 3);
        let trace = exp.trace();
        let (plain, _) = simulate(&exp, exp.adc_agents(), trace.iter());
        let phase = PhaseCell::default();
        let agents = TimedAgent::wrap_all(exp.adc_agents(), &phase);
        let mut records = TimedTrace::new(trace.iter(), phase);
        let (timed, agents) = simulate(&exp, agents, &mut records);
        assert_eq!(
            plain.to_deterministic_json(),
            timed.to_deterministic_json(),
            "{}",
            workload.name()
        );
        assert_eq!(records.next.calls, trace.len() as u64 + 1);
        let calls: u64 = agents
            .iter()
            .map(|a| a.on_request.calls + a.on_reply.calls)
            .sum();
        let by_phase: u64 = agents
            .iter()
            .flat_map(|a| a.by_phase)
            .map(|s| s.calls)
            .sum();
        assert_eq!(calls, by_phase);
        let stats = timed.cluster_stats();
        let received: u64 = agents.iter().map(|a| a.on_request.calls).sum();
        assert_eq!(received, stats.requests_received);
    }
}

#[test]
fn live_frame_count_is_the_simulators_delivery_count() {
    for workload in [Workload::Fig11Seq, Workload::Fig11Open2Shard] {
        let exp = experiment(workload, 0.002, 9);
        let (report, _) = simulate(&exp, exp.adc_agents(), exp.trace().iter());
        let frames = live::frames(&report.cluster_stats(), report.completed);
        assert_eq!(frames, report.messages_delivered, "{}", workload.name());
    }
}

#[test]
fn codec_kernel_round_trips_two_frames_per_reply() {
    use adc_core::{ClientId, ObjectId, ProxyId, Reply, Request, RequestId};
    let replies: Vec<Reply> = (0..300u64)
        .map(|i| {
            let req = Request::new(
                RequestId::new(ClientId::new(0), i),
                ObjectId::new(i * 7),
                ClientId::new(0),
            );
            if i % 2 == 0 {
                Reply::from_origin(&req, 100)
            } else {
                Reply::from_cache(&req, ProxyId::new(1), 100)
            }
        })
        .collect();
    let cost = live::codec_kernel(&replies).expect("frames round-trip");
    assert_eq!(cost.frames, 600);
    assert!(cost.bytes > 0 && cost.ns > 0);
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        let entry = format!("{{\"name\":\"{}\",\"why\":", workload.name());
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = compact.matches("{\"name\":").count();
    assert_eq!(
        entries,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
