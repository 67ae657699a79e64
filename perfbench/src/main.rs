//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <fig11_seq|fig11_open_2shard|live_tcp_4proxy>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, then the result as one
//! JSON object on the last line of standard output. Exits 1 when a
//! correctness check fails and 2 on bad arguments.

use adc_perfbench::{run, RunConfig, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: workload.default_scale(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fig11_seq|fig11_open_2shard|\
                 live_tcp_4proxy> --seed <u64> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    print!("{}", outcome.table());
    for problem in &outcome.problems {
        eprintln!("perfbench: correctness failure: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
