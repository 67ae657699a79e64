//! Workload tooling: generate a Polygraph-like trace, write it to disk,
//! read it back, and characterize it with the analysis module — the
//! checks you would run before trusting a request stream for a caching
//! experiment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use adc::prelude::*;
use adc::workload::analysis::{popularity_histogram, trace_stats};
use adc::workload::trace::{read_trace, write_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = PolygraphConfig::scaled(0.005); // ~20k requests
    let pid = std::process::id(); // concurrent runs get their own file
    let path = std::env::temp_dir().join(format!("adc_polygraph_trace_{pid}.csv"));

    println!(
        "generating {} requests and writing {}...",
        config.total_requests(),
        path.display()
    );
    let file = std::fs::File::create(&path)?;
    write_trace(file, config.build())?;

    println!("reading the trace back...");
    let records = read_trace(std::fs::File::open(&path)?)?;
    assert_eq!(records.len() as u64, config.total_requests());

    let stats = trace_stats(records.iter().copied());
    println!("\n=== whole trace ===");
    println!("requests            : {}", stats.requests);
    println!("distinct objects    : {}", stats.distinct_objects);
    println!(
        "recurrence ratio    : {:.4} (upper bound on any hit rate)",
        stats.recurrence_ratio
    );
    println!("hottest object count: {}", stats.top_object_requests);
    println!(
        "estimated Zipf alpha: {} (generator used {})",
        stats
            .zipf_alpha
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
        config.zipf_alpha
    );
    println!(
        "total volume        : {:.1} MiB",
        stats.total_bytes as f64 / (1024.0 * 1024.0)
    );

    // Per-phase character: the fill phase must be nearly recurrence-free,
    // the request phases must not be.
    for phase in [Phase::Fill, Phase::RequestI, Phase::RequestII] {
        let phase_stats = trace_stats(records.iter().copied().filter(|r| r.phase == phase));
        println!("\n=== {phase:?}: {} requests ===", phase_stats.requests);
        println!("  distinct objects : {}", phase_stats.distinct_objects);
        println!("  recurrence ratio : {:.4}", phase_stats.recurrence_ratio);
    }

    let hist = popularity_histogram(records.iter().copied());
    let one_timers = hist
        .first()
        .filter(|(k, _)| *k == 1)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    println!("\npopularity histogram (how many objects were requested k times):");
    for &(k, n) in hist.iter().take(8) {
        println!("  k={k:<4} objects={n}");
    }
    if hist.len() > 8 {
        let max = hist.last().unwrap();
        println!("  ...    up to k={} ({} object[s])", max.0, max.1);
    }
    println!(
        "\n{one_timers} one-timer objects — the cache pollution selective caching filters out."
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
