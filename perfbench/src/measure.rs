//! Host measurements the benchmark takes from outside the program:
//! process CPU time, the resident-set high-water mark, the cost of one
//! clock read, and the order statistics every metric is reported with.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
mod linux {
    // From <time.h>; stable part of the Linux ABI.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable Timespec with the C layout, and
        // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return None;
        }
        let secs = u64::try_from(ts.tv_sec).ok()?;
        let nanos = u64::try_from(ts.tv_nsec).ok()?;
        Some(secs * 1_000_000_000 + nanos)
    }
}

/// CPU time consumed so far by every thread of this process, live or
/// exited: the counter `/proc/self/stat` reports as `utime + stime`, read
/// at nanosecond instead of clock-tick resolution.
///
/// # Panics
///
/// Panics where the process CPU clock is unavailable (not Linux), since
/// every CPU metric would be meaningless.
pub fn process_cpu() -> Duration {
    #[cfg(target_os = "linux")]
    {
        let ns = linux::process_cpu_ns().expect("the process CPU clock is readable");
        Duration::from_nanos(ns)
    }
    #[cfg(not(target_os = "linux"))]
    {
        panic!("the benchmark reads the process CPU clock, which needs Linux")
    }
}

/// The resident-set high-water mark of this process in MiB (`VmHWM` in
/// `/proc/self/status`). One process runs one workload, so this is the
/// workload run's peak.
///
/// # Errors
///
/// Returns a message when the status file is missing or malformed.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Round trips one host-speed reference sample times.
const REFERENCE_ROUND_TRIPS: u32 = 2_000;

/// The reference round-trip time the timing metrics are scaled to, in
/// microseconds: about what the reference reads on a quiet 2-vCPU KVM
/// guest.
pub const REFERENCE_NOMINAL_US: f64 = 30.0;

/// Times 8-byte request/echo round trips over a loopback TCP connection
/// between two threads of this process and returns microseconds per
/// round trip. The code is the benchmark's own and uses only `std`, so a
/// change to the program never moves it; what moves it is the host —
/// thread wake-up latency and CPU speed — which moves every timing
/// metric of every workload with it.
///
/// # Errors
///
/// Propagates socket errors.
pub fn reference_round_trip_us() -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let echo = thread::spawn(move || -> io::Result<()> {
        let mut buf = [0u8; 8];
        while server.read_exact(&mut buf).is_ok() {
            server.write_all(&buf)?;
        }
        Ok(())
    });
    let mut buf = [0u8; 8];
    let start = Instant::now();
    let mut timed = Ok(());
    for i in 0..u64::from(REFERENCE_ROUND_TRIPS) {
        timed = client
            .write_all(&i.to_le_bytes())
            .and_then(|()| client.read_exact(&mut buf));
        if timed.is_err() || buf != i.to_le_bytes() {
            break;
        }
    }
    let us = ns_since(start) as f64 / 1e3 / f64::from(REFERENCE_ROUND_TRIPS);
    // Closing the client ends the echo loop.
    drop(client);
    let echoed = echo
        .join()
        .map_err(|_| io::Error::other("echo thread panicked"))?;
    timed?;
    echoed?;
    if buf != (u64::from(REFERENCE_ROUND_TRIPS) - 1).to_le_bytes() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "echo mismatch"));
    }
    Ok(us)
}

/// Host-speed samples taken through a run, one after the set-ups and one
/// after each pass. Each pass's timings are scaled by
/// [`REFERENCE_NOMINAL_US`] over the mean of the samples taken right
/// before and right after it, so a host that is slower for a while slows
/// the reference as much as the program and the metrics compare the code,
/// not the host state.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes one reference sample and returns the factor that scales a
    /// duration measured since the previous sample to the nominal host.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn sample(&mut self) -> io::Result<f64> {
        let us = reference_round_trip_us()?;
        let before = self.samples.last().copied().unwrap_or(us);
        self.samples.push(us);
        Ok(2.0 * REFERENCE_NOMINAL_US / (before + us))
    }

    /// Median reference round trip in microseconds.
    pub fn round_trip_us(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that scales a duration to the nominal host by the run's
    /// median sample.
    pub fn median_factor(&self) -> f64 {
        REFERENCE_NOMINAL_US / self.round_trip_us()
    }

    /// Logs the samples to standard error.
    pub fn log(&self) {
        eprintln!("host reference round trips (us): {:?}", self.samples);
    }
}

/// Nanoseconds since `start`, saturating (a run never lasts 584 years).
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one timed call costs in clock reads, measured in this process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockCost {
    /// Wall time of one `Instant::now()` + `elapsed()` pair including
    /// the accumulation: what timing one call adds to the traced run.
    pub pair_ns: f64,
    /// What an empty timed span reads: the part of `pair_ns` that lands
    /// inside each measured span and is subtracted from raw layer times.
    pub in_span_ns: f64,
}

impl ClockCost {
    /// Times batches of empty spans and keeps the median batch.
    pub fn calibrate() -> ClockCost {
        const SPANS: u32 = 100_000;
        const BATCHES: usize = 9;
        let mut pair = Vec::with_capacity(BATCHES);
        let mut in_span = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let outer = Instant::now();
            let mut inside = 0u64;
            for _ in 0..SPANS {
                let start = Instant::now();
                inside += black_box(ns_since(black_box(start)));
            }
            let total = ns_since(outer);
            pair.push(total as f64 / f64::from(SPANS));
            in_span.push(inside as f64 / f64::from(SPANS));
        }
        ClockCost {
            pair_ns: median(&pair),
            in_span_ns: median(&in_span),
        }
    }

    /// Raw span time with the in-span clock cost of `calls` spans removed.
    pub fn calibrated_ns(&self, raw_ns: u64, calls: u64) -> f64 {
        raw_ns as f64 - calls as f64 * self.in_span_ns
    }
}

/// The median of `values` (mean of the middle two for even lengths); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending and returns its p50, p90 and p99.
pub fn percentiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    [0.5, 0.9, 0.99].map(|q| quantile(values, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentiles(&mut v), [50.0, 90.0, 99.0]);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn host_probes_read_positive_values() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = black_box(x.wrapping_add(i));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mib().expect("status readable") > 0.0);
        let cost = ClockCost::calibrate();
        assert!(cost.pair_ns > 0.0 && cost.in_span_ns >= 0.0);
        assert!(cost.in_span_ns <= cost.pair_ns);
        let mut host = HostSpeed::default();
        let factor = host.sample().expect("loopback reference");
        assert!(host.round_trip_us() > 0.0 && factor.is_finite() && factor > 0.0);
    }
}
