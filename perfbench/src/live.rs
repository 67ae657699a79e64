//! `live_tcp_4proxy`: a whole Polygraph trace replayed through a real
//! `adc-net` cluster on loopback — 4 ADC proxies and the origin — by one
//! closed-loop client that keeps one request outstanding and enters
//! through proxy `client mod 2`.
//!
//! Every `adc-net` call of the benchmark is in this file.

use crate::measure::{self, ns_since, process_cpu, ClockCost, HostSpeed};
use crate::metrics::{
    push_agent_times, push_clock, push_cpu_per_request, push_proxy_stats, push_requests_per_s,
    push_rss, push_span,
};
use crate::report::Outcome;
use crate::timed::{AgentTimes, PhaseCell, Span, TimedAgent, TimedTrace};
use crate::{ratio, Budget, RunConfig};
use adc_bench::{Experiment, Scale};
use adc_core::{CacheAgent, ClientId, ProxyId, ProxyStats, Reply, Request};
use adc_net::protocol::{decode, encode, Frame};
use adc_net::{origin_body, Cluster};
use adc_workload::{RequestRecord, SharedTrace, SizeModel};
use std::io;
use std::time::{Duration, Instant};

/// Proxies in the cluster.
pub const PROXIES: u32 = 4;
/// Proxies the client enters through (`client mod 2`), so it holds at
/// most two outbound connections; the others are reached by forwarding.
pub const ENTRY_PROXIES: u32 = 2;
/// Per-request timeout; a timed-out request counts as failed.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Times the codec kernel runs over the frame mix; it reports the median.
const CODEC_PASSES: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 30;

/// The experiment: `Experiment::at_scale` with [`PROXIES`] proxies and
/// the trace seeded with `seed`.
pub fn experiment(scale: f64, seed: u64) -> Experiment {
    let mut exp = Experiment::at_scale(Scale::Custom(scale));
    exp.proxies = PROXIES;
    exp.workload.seed = seed;
    exp.sim.seed = seed;
    exp
}

/// The requests of one replay, as the client saw them.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests sent.
    pub attempted: u64,
    /// Replies received with a correct body.
    pub completed: u64,
    /// Requests without a reply within the timeout.
    pub timed_out: u64,
    /// Requests that failed with another error.
    pub errored: u64,
    /// Replies for the wrong object or with a body of the wrong length.
    pub wrong: u64,
    /// Completed replies served from a proxy cache.
    pub hits: u64,
    /// Body bytes of completed replies.
    pub body_bytes: u64,
    /// Per completed request: microseconds around `request_timeout` and
    /// whether a cache served it.
    pub latencies: Vec<(f64, bool)>,
    /// Completed replies, kept when the codec kernel needs them.
    pub replies: Vec<Reply>,
    /// Message transfers between nodes, from the agents' counters.
    pub frames: u64,
    /// Cluster-wide agent counters after the replay.
    pub stats: ProxyStats,
    /// Wall time of the replay (set-up and shutdown excluded).
    pub wall: Duration,
    /// Process CPU time during the replay.
    pub cpu: Duration,
    /// Trace generation alone.
    pub gen: Duration,
}

impl Replay {
    /// Whether the request accounting adds up.
    pub fn accounted(&self) -> bool {
        self.completed + self.timed_out + self.errored + self.wrong == self.attempted
    }

    /// Requests that did not complete correctly.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }
}

/// Message transfers implied by the agents' counters: each request a
/// proxy received arrived over one connection, each origin forward and
/// each reply a proxy processed is one more, and every completed request
/// ends with the reply to the client. This is the simulator's
/// `messages_delivered`. It exceeds the simulator's hop count by a
/// proxy's messages to itself, which the simulator delivers in place but
/// the live runtime sends over a socket.
pub fn frames(stats: &ProxyStats, completed: u64) -> u64 {
    stats.requests_received + stats.origin_forwards() + stats.replies_processed + completed
}

/// Stops every proxy's accept loop; connections close as their peers go.
async fn shut_down<A: CacheAgent + Send + 'static>(cluster: &Cluster<A>) {
    for p in 0..cluster.num_proxies() {
        cluster.kill_proxy(ProxyId::new(p)).await;
    }
}

/// One set-up as a pass does it: trace generation, agent construction,
/// cluster spawn and client start. Returns its duration.
fn set_up(exp: &Experiment) -> io::Result<Duration> {
    tokio::runtime::block_on(async {
        let start = Instant::now();
        let trace = exp.trace();
        let cluster = Cluster::spawn_with_agents(exp.adc_agents()).await?;
        let client = cluster.client(ClientId::new(0)).await?;
        let took = start.elapsed();
        drop((trace, client));
        shut_down(&cluster).await;
        Ok(took)
    })
}

/// Spawns a cluster of `agents`, replays `records` through it with one
/// closed-loop client, and shuts the proxies down. `agent_times` reads
/// timing totals back through `ProxyNode::agent` before shutdown.
async fn replay<A, I>(
    agents: Vec<A>,
    gen: Duration,
    records: &mut I,
    keep_replies: bool,
    agent_times: impl Fn(&A, &mut AgentTimes),
) -> io::Result<(Replay, AgentTimes)>
where
    A: CacheAgent + Send + 'static,
    I: Iterator<Item = RequestRecord>,
{
    let cluster = Cluster::spawn_with_agents(agents).await?;
    let client = cluster.client(ClientId::new(0)).await?;
    let size_model = SizeModel::default();
    let mut r = Replay {
        gen,
        ..Replay::default()
    };
    let cpu = process_cpu();
    let start = Instant::now();
    for record in records {
        r.attempted += 1;
        let via = ProxyId::new(record.client.raw() % ENTRY_PROXIES);
        let sent = Instant::now();
        let result = client.request_timeout(record.object, via, TIMEOUT).await;
        let us = ns_since(sent) as f64 / 1e3;
        match result {
            Ok((reply, body)) => {
                let expected = size_model.size_of(record.object) as usize;
                if reply.object != record.object || body.len() != expected {
                    r.wrong += 1;
                    continue;
                }
                r.completed += 1;
                r.body_bytes += body.len() as u64;
                let hit = reply.served_from.is_hit();
                r.hits += u64::from(hit);
                r.latencies.push((us, hit));
                if keep_replies {
                    r.replies.push(reply);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => r.timed_out += 1,
            Err(_) => r.errored += 1,
        }
    }
    r.wall = start.elapsed();
    r.cpu = process_cpu() - cpu;
    r.stats = cluster.cluster_stats();
    r.frames = frames(&r.stats, r.completed);
    let mut times = AgentTimes::default();
    for node in &cluster.proxies {
        agent_times(&node.agent.lock(), &mut times);
    }
    drop(client);
    shut_down(&cluster).await;
    Ok((r, times))
}

/// One untraced replay on a fresh cluster.
pub fn plain_replay(exp: &Experiment) -> io::Result<Replay> {
    tokio::runtime::block_on(async {
        let start = Instant::now();
        let trace = exp.trace();
        let gen = start.elapsed();
        let (r, _) = replay(exp.adc_agents(), gen, &mut trace.iter(), false, |_, _| {}).await?;
        Ok(r)
    })
}

/// One traced replay: agents wrapped in [`TimedAgent`], the trace in
/// [`TimedTrace`], and the completed replies kept for the codec kernel.
pub fn traced_replay(exp: &Experiment) -> io::Result<(Replay, AgentTimes, Span)> {
    tokio::runtime::block_on(async {
        let start = Instant::now();
        let trace: SharedTrace = exp.trace();
        let gen = start.elapsed();
        let phase = PhaseCell::default();
        let agents = TimedAgent::wrap_all(exp.adc_agents(), &phase);
        let mut records = TimedTrace::new(trace.iter(), phase);
        let (r, times) = replay(agents, gen, &mut records, true, |a, t| t.add(a)).await?;
        Ok((r, times, records.next))
    })
}

/// Codec cost over a replay's exact frame mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecCost {
    /// Frames encoded and decoded.
    pub frames: u64,
    /// Encoded payload bytes.
    pub bytes: u64,
    /// Encode plus decode time for all frames.
    pub ns: u64,
}

/// Encodes and decodes one `Request` frame and one `Reply` frame with
/// the origin's body for each completed request, and checks that every
/// decoded frame equals the encoded one.
///
/// # Errors
///
/// Names the first frame that did not survive the round trip.
pub fn codec_kernel(replies: &[Reply]) -> Result<CodecCost, String> {
    let size_model = SizeModel::default();
    let mut cost = CodecCost {
        frames: 0,
        bytes: 0,
        ns: 0,
    };
    for chunk in replies.chunks(256) {
        let frames: Vec<Frame> = chunk
            .iter()
            .flat_map(|reply| {
                let request = Request::new(reply.id, reply.object, reply.client);
                let body = origin_body(reply.object, &size_model);
                [
                    Frame::Request(request, None),
                    Frame::Reply(*reply, body, None),
                ]
            })
            .collect();
        let mut decoded = Vec::with_capacity(frames.len());
        let start = Instant::now();
        for frame in &frames {
            let payload = encode(frame);
            cost.bytes += payload.len() as u64;
            decoded.push(decode(payload));
        }
        cost.ns += ns_since(start);
        cost.frames += frames.len() as u64;
        for (frame, back) in frames.iter().zip(decoded) {
            match back {
                Ok(back) if back == *frame => {}
                other => return Err(format!("codec round trip of {frame:?} gave {other:?}")),
            }
        }
    }
    Ok(cost)
}

/// Runs the live workload end to end or traced.
pub fn run(config: &RunConfig) -> Outcome {
    let exp = experiment(config.scale, config.seed);
    let mut out = Outcome::default();
    let result = if config.trace {
        run_traced(config, &exp, &mut out)
    } else {
        run_plain(config, &exp, &mut out)
    };
    if let Err(e) = result {
        out.problems.push(format!("live replay failed: {e}"));
    }
    out
}

/// Checks one replay and folds its counts into `out`. `first_hits` is
/// the hit count of the run's first replay: with one request
/// outstanding and seeded agents, every replay must reproduce it.
fn check_replay(out: &mut Outcome, r: &Replay, records: u64, first_hits: u64) {
    out.attempted += r.attempted;
    out.failed += r.failed();
    out.check(r.accounted() && r.attempted == records, || {
        format!(
            "replay of {records} records: attempted {}, completed {}, timed out {}, \
             errored {}, wrong {}",
            r.attempted, r.completed, r.timed_out, r.errored, r.wrong
        )
    });
    out.check(r.wrong == 0, || {
        format!("{} replies had the wrong object or body length", r.wrong)
    });
    out.check(r.failed() > 0 || r.hits == first_hits, || {
        format!(
            "hits {} differ from the first replay's {first_hits}",
            r.hits
        )
    });
}

fn run_plain(config: &RunConfig, exp: &Experiment, out: &mut Outcome) -> io::Result<()> {
    let records = exp.workload.total_requests();
    let setup: Vec<f64> = (0..SETUPS)
        .map(|_| set_up(exp).map(|d| d.as_secs_f64()))
        .collect::<io::Result<_>>()?;
    let mut host = HostSpeed::default();
    host.sample()?;
    let mut replays: Vec<Replay> = Vec::new();
    let mut scales = Vec::new();
    let mut budget = Budget::new(config.workload.name(), config.seconds, 3);
    while budget.more() {
        let start = Instant::now();
        let r = plain_replay(exp)?;
        scales.push(host.sample()?);
        budget.record(start.elapsed());
        let first_hits = replays.first().map_or(r.hits, |f| f.hits);
        check_replay(out, &r, records, first_hits);
        if replays.is_empty() {
            push_rss(out);
        }
        replays.push(r);
    }
    host.log();
    let rates: Vec<(f64, f64, f64)> = replays
        .iter()
        .zip(&scales)
        .map(|(r, &scale)| (r.completed as f64, r.wall.as_secs_f64(), scale))
        .collect();
    let first = &replays[0];
    out.push(
        "setup_s",
        measure::median(&setup) * host.median_factor(),
        "s",
    );
    push_requests_per_s(out, &rates);
    out.push(
        "hit_rate",
        ratio(first.hits as f64, first.completed as f64),
        "fraction",
    );
    out.push(
        "mean_hops",
        ratio(first.frames as f64, first.completed as f64),
        "hops/request",
    );
    out.push(
        "completion_rate",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
        "fraction",
    );
    Ok(())
}

/// The traced run: untraced and traced replays alternate on fresh
/// clusters; latency splits come from the untraced replays, layer times
/// from the median traced one.
fn run_traced(config: &RunConfig, exp: &Experiment, out: &mut Outcome) -> io::Result<()> {
    let clock = ClockCost::calibrate();
    let records = exp.workload.total_requests();
    let mut plain: Vec<Replay> = Vec::new();
    let mut traced = Vec::new();
    let mut host = HostSpeed::default();
    let mut budget = Budget::new(config.workload.name(), config.seconds, 1);
    while budget.more() {
        let start = Instant::now();
        host.sample()?;
        let r = plain_replay(exp)?;
        let first_hits = plain.first().map_or(r.hits, |f| f.hits);
        check_replay(out, &r, records, first_hits);
        plain.push(r);
        let (r, times, iter) = traced_replay(exp)?;
        check_replay(out, &r, records, first_hits);
        traced.push((r, times, iter));
        budget.record(start.elapsed());
    }
    traced.sort_by_key(|(r, _, _)| r.wall);
    let (t, times, iter) = &traced[traced.len() / 2];

    let codec: Vec<CodecCost> = (0..CODEC_PASSES)
        .map(|_| codec_kernel(&t.replies))
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let codec_ns = measure::median(&codec.iter().map(|c| c.ns as f64).collect::<Vec<_>>());
    let codec = codec[0];

    let mut all = Vec::new();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for &(us, hit) in plain.iter().flat_map(|r| &r.latencies) {
        all.push(us);
        if hit {
            hits.push(us);
        } else {
            misses.push(us);
        }
    }
    let [p50, p90, p99] = measure::percentiles(&mut all);
    let [hit_p50, _, _] = measure::percentiles(&mut hits);
    let [miss_p50, _, _] = measure::percentiles(&mut misses);

    let wall = t.wall.as_nanos() as f64;
    let agent = times.total();
    let agent_ns = clock.calibrated_ns(agent.ns, agent.calls);
    let spans = (agent.calls + iter.calls) as f64;
    let plain_wall: Vec<f64> = plain.iter().map(|r| r.wall.as_nanos() as f64).collect();
    let untraced = measure::median(&plain_wall);
    let completed = t.completed as f64;

    let cpu: Vec<(f64, f64)> = plain
        .iter()
        .map(|r| (r.completed as f64, r.cpu.as_secs_f64()))
        .collect();
    push_cpu_per_request(out, &cpu);
    out.push("workload.records", records as f64, "count");
    out.push(
        "workload.gen_ns_per_record",
        t.gen.as_nanos() as f64 / records as f64,
        "ns",
    );
    push_span(
        out,
        &clock,
        *iter,
        [
            "workload.iter_ns_per_record",
            "workload.iter_ns_per_record_raw",
        ],
    );
    push_agent_times(out, &clock, times);
    out.push("core.busy_share", agent_ns / wall, "fraction");
    push_proxy_stats(out, &t.stats, t.completed);
    push_span(
        out,
        &clock,
        agent,
        ["net.agent_ns_per_call", "net.agent_ns_per_call_raw"],
    );
    out.push("net.agent_share", agent_ns / wall, "fraction");
    out.push(
        "net.frames_per_request",
        ratio(t.frames as f64, completed),
        "frames/request",
    );
    out.push(
        "net.body_kib_per_request",
        ratio(t.body_bytes as f64 / 1024.0, completed),
        "KiB",
    );
    out.push(
        "net.codec.ns_per_frame",
        ratio(codec_ns, codec.frames as f64),
        "ns",
    );
    out.push(
        "net.codec.ns_per_kib",
        ratio(codec_ns, codec.bytes as f64 / 1024.0),
        "ns",
    );
    out.push("net.latency_p50_us", p50, "us");
    out.push("net.latency_p90_us", p90, "us");
    out.push("net.hit_p50_us", hit_p50, "us");
    out.push("net.miss_p50_us", miss_p50, "us");
    out.push("net.latency_p99_us", p99, "us");
    out.push("net.latency_samples", all.len() as f64, "count");
    push_clock(out, &clock);
    out.push("host.reference_round_trip_us", host.round_trip_us(), "us");
    out.push(
        "trace.overhead_share",
        (wall - untraced) / untraced,
        "fraction",
    );
    out.push(
        "trace.explained_share",
        (untraced + spans * clock.pair_ns) / wall,
        "fraction",
    );
    out.push(
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );
    Ok(())
}
