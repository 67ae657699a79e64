//! The simulation executor: the one event loop behind every
//! `Simulation::run*` entry point.
//!
//! Proxies are partitioned round-robin across `N` worker shards (proxy
//! `p` lives on shard `p % N`); [`Simulation::run`] and its siblings are
//! the `N = 1` case. Each shard owns its own calendar queue, slab flow
//! table and RNG stream, and the run proceeds in time windows on a grid
//! of width `W` — the *lookahead bound*: the minimum configured network
//! latency over every edge that can carry a cross-shard message
//! (client→proxy plus the proxy↔proxy minimum; origin round trips and
//! client deliveries are processed on the sending proxy's shard, so they
//! never cross shards). Within a window `[T, T + W)` every shard drains
//! its local queue independently: any message produced inside the window
//! is either shard-local (arbitrary latency, including zero-latency
//! self-sends) or crosses shards with latency `≥ W`, hence lands at or
//! after the barrier `T + W`. Cross-shard messages accumulate in
//! per-destination outboxes and are routed at the barrier, so the merged
//! event schedule is a pure function of `(workload, agents, config)` —
//! independent of the shard count and of thread scheduling.
//!
//! # Determinism
//!
//! Three mechanisms make `shards=N` byte-identical to `shards=1`:
//!
//! 1. **Content-derived event keys.** Every queued event carries the key
//!    `(flow seq << 16) | step`, where `step` counts the events the flow
//!    has generated so far — unique per event and identical under any
//!    partitioning, so per-shard pop order and the barrier merge order
//!    are shard-count invariant. It is the only tie rule: events at the
//!    same microsecond pop older flow first, and within a flow in the
//!    order they were generated (DESIGN.md §6c).
//! 2. **Canonical completion folding.** Workers only record completions;
//!    the coordinator folds them at each barrier in `(at, flow seq)`
//!    order and performs all cluster-wide accounting there (series,
//!    quantiles, occupancy and convergence snapshots, churn restarts,
//!    sequential re-injection).
//! 3. **Mode-appropriate RNG streams.** Sequential injection has at most
//!    one live flow in the whole system, so every agent draws from one
//!    stream seeded from the run seed, in the same order at any shard
//!    count (behind an uncontended mutex when `N > 1`). Open-loop
//!    injection interleaves flows, so each agent gets an independent
//!    stream seeded from `(seed, proxy id)`.
//!
//! In open-loop mode, occupancy/convergence/metrics sampling and churn
//! restarts act on agent state at the enclosing barrier rather than at
//! the completion instant (they coincide in sequential mode);
//! `events_processed` counts one injection event per arrival plus the
//! final exhausted pull next to the deliveries.
//!
//! # Synchronization layer
//!
//! Three mechanisms amortize the barrier cost (all tunable through
//! [`ShardTuning`](crate::ShardTuning); every setting produces identical
//! report bytes):
//!
//! 1. **Persistent worker pool** ([`pool`](crate::pool) module): shard
//!    threads are spawned at most once per run — lazily, on the first
//!    window with more than one active shard — and windows are dispatched
//!    through a sense-reversing barrier with a claim cursor, instead of
//!    spawning fresh OS threads every window. On a single-core host the
//!    pool sizes itself to zero workers and every window runs inline on
//!    the coordinator.
//! 2. **Adaptive window widening**: each shard maintains counts of its
//!    pending proxy-bound and origin-bound events, from which the
//!    coordinator derives a conservative lower bound on the earliest
//!    possible cross-shard *send* (proxy-bound work can send immediately;
//!    origin-bound work cannot reach a proxy again before the
//!    origin→proxy reply latency; client-bound deliveries never spawn
//!    anything). When the global minimum bound `S_min` lies beyond the
//!    next grid barrier, the window extends straight to the grid barrier
//!    after `S_min` — every cross-shard delivery still lands at
//!    `≥ S_min + W ≥` that barrier, so the lookahead argument is intact
//!    (full proof in DESIGN.md §6c). Widening changes *barrier
//!    placement*, which is observable only by barrier-driven state
//!    sampling (occupancy series, convergence snapshots, metrics
//!    probes, churn) in open-loop mode — sequential windows hold at most
//!    one completion, so sequential folds see identical agent state — and
//!    is therefore automatically disabled in exactly those runs. A
//!    one-shard sequential run drains each flow in a single window.
//! 3. **Batched coordinator folds**: completions accumulate in reusable
//!    per-shard buffers and fold every `fold_batch` barriers. The fold
//!    replays the same `(at, flow_seq)`-sorted global sequence with the
//!    same injection-settling tie rule whatever the batching, so it is
//!    enabled under the same gate as widening (and never in sequential
//!    mode, whose folds drive re-injection).
//!
//! # One-shard-only configurations
//!
//! Duplicate faults, delivery tracing, zero-latency networks and
//! arbitrary [`Probe`]s run at one shard only. With `shards > 1`,
//! [`Simulation::run_sharded`] rejects the first three: duplicates would
//! need cross-shard coordination mid-window, the trace log is a single
//! totally-ordered stream, and a zero lookahead serializes everything.
//! Probes cross shards only as the per-shard [`ShardProbe`]s the sharded
//! entry points build themselves.

use crate::config::{ChurnEvent, ClientAssignment, FaultPlan, InjectionMode, SimConfig};
use crate::flows::FlowTable;
use crate::network::LatencyModel;
use crate::pool::{self, WindowTask};
use crate::queue::CalendarQueue;
use crate::report::{PhaseStats, ShardExecStats, ShardProfile, SimReport};
use crate::runner::Simulation;
use crate::time::SimTime;
use crate::tracelog::{DeliveryRecord, TraceLog};
use adc_core::{
    Action, ActionSink, CacheAgent, Message, NodeId, ObjectId, ProxyId, Reply, Request, RequestId,
    ServedFrom,
};
use adc_metrics::{Log2Histogram, MovingAverage, P2Quantile, Registry, Sampler, Summary};
use adc_obs::{ConvergenceConfig, ConvergenceTracker, MetricsProbe, NullProbe, Probe};
use adc_obs::{MetricsReport, ShardSlice, SimEvent};
use adc_workload::{Phase, RequestRecord};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::ops::DerefMut;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
// Wall-clock time feeds report telemetry only, never simulation
// state. adc-lint: allow(determinism)
use std::time::Instant;

/// Bits of the event key reserved for the per-flow step counter.
const STEP_BITS: u32 = 16;

/// The default occupancy-sampling cadence, matching
/// [`Simulation::run_with_metrics`] (which uses `MetricsProbe::new()`).
const METRICS_CADENCE: u64 = adc_obs::metrics::DEFAULT_CADENCE;

/// The canonical, shard-invariant queue key of a flow's `step`-th event.
fn event_key(flow_seq: u64, step: u32) -> u64 {
    debug_assert!(
        flow_seq < (1 << (64 - STEP_BITS)),
        "workload seq {flow_seq} overflows the event key"
    );
    debug_assert!(
        u64::from(step) < (1 << STEP_BITS),
        "flow step overflows the event key"
    );
    (flow_seq << STEP_BITS) | u64::from(step)
}

/// Per-flow bookkeeping, resident in the shard that holds the flow's
/// queued events and updated there in place. It moves only with a
/// message that crosses shards (clean-fault runs queue one event per
/// flow, so the flow then has nothing left behind).
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    start: SimTime,
    hops: u32,
    /// Events this flow has generated so far; the tie-breaking half of
    /// the event key. Bounded by hop limits far below `2^16`.
    step: u32,
    size: u32,
    phase: Phase,
    /// The flow's events still queued. Above one only under duplicate
    /// faults; the metadata leaves the table once the flow has completed
    /// and this reaches zero.
    queued: u32,
    /// The client got its reply: later deliveries of the flow are
    /// orphans (duplicates racing the original).
    done: bool,
}

/// One in-flight delivery.
#[derive(Debug, Clone, Copy)]
struct ShardEvent {
    from: NodeId,
    to: NodeId,
    message: Message,
}

/// A delivery crossing shards, carried through a barrier outbox.
#[derive(Debug, Clone, Copy)]
struct Routed {
    at: u64,
    key: u64,
    ev: ShardEvent,
    meta: FlowMeta,
}

/// A completed flow, recorded by a worker and folded on the coordinator.
#[derive(Debug, Clone, Copy)]
struct Completion {
    at: u64,
    /// The flow's workload seq: the canonical fold tiebreaker.
    flow_seq: u64,
    hit: bool,
    hops: u32,
    start_us: u64,
    phase: Phase,
}

/// The latency function shared (immutably) by all workers.
struct Net {
    base: LatencyModel,
    matrix: Option<Vec<Vec<SimTime>>>,
    /// Shard count, for ownership tests during routing.
    shards: usize,
    /// Sequential injection: a shard hands each completion to the fold
    /// before draining further.
    sequential: bool,
}

impl Net {
    #[inline]
    fn latency(&self, from: NodeId, to: NodeId) -> SimTime {
        if let (Some(m), NodeId::Proxy(a), NodeId::Proxy(b)) = (&self.matrix, from, to) {
            if a != b {
                // Matrix is n×n over dense proxy ids (checked in new()).
                return m[a.raw() as usize][b.raw() as usize];
            }
        }
        self.base.latency(from, to)
    }

    /// The shard owning proxy `p` and the proxy's index among that
    /// shard's agents: round-robin, shard `p % N` at local `p / N`. One
    /// shard skips the divisions, which sit on the per-event path.
    #[inline]
    fn place(&self, p: usize) -> (usize, usize) {
        if self.shards == 1 {
            (0, p)
        } else {
            (p % self.shards, p / self.shards)
        }
    }

    /// Shard owning proxy `p`.
    fn shard_of(&self, p: ProxyId) -> usize {
        // Dense proxy ids fit usize on every supported target.
        self.place(p.raw() as usize).0
    }
}

/// The conservative lookahead bound `W` in microseconds: the minimum
/// latency over the edges that can carry a message whose production and
/// delivery live on different shards (client→proxy for injections,
/// proxy↔proxy for forwards). Origin hops are shard-local and do not
/// constrain `W`.
fn lookahead_us(config: &SimConfig, proxies: usize) -> u64 {
    let mut w = config.latency.client_proxy.as_micros();
    if proxies > 1 {
        match &config.proxy_latency_matrix {
            Some(m) => {
                for (a, row) in m.iter().enumerate() {
                    for (b, cell) in row.iter().enumerate() {
                        if a != b {
                            w = w.min(cell.as_micros());
                        }
                    }
                }
            }
            None => w = w.min(config.latency.proxy_proxy.as_micros()),
        }
    }
    w
}

/// What the executor needs from a shard's probe beyond [`Probe`]. The
/// sharded entry points instantiate it with [`NullProbe`] or per-shard
/// [`MetricsProbe`]s; one-shard runs also take any caller probe through
/// [`Attached`].
trait ShardProbe: Probe + Send {
    /// The coordinator samples this probe's occupancy gauges on the
    /// cluster-wide completion cadence, at barriers (see
    /// [`barrier_sample`](ShardProbe::barrier_sample)).
    const BARRIER_SAMPLED: bool = false;
    /// Records the completion of a flow the shard just delivered to its
    /// client; `server` is the proxy named by the reply's `served_from`.
    fn complete(&mut self, at: u64, event: SimEvent, server: Option<u32>) {
        let _ = (at, server);
        self.emit(event);
    }
    /// Samples whatever the probe samples on the cluster-wide cadence.
    fn barrier_sample(&mut self) {}
    /// The shard's accumulated registry, if it keeps one.
    fn into_registry(self) -> Option<Registry>
    where
        Self: Sized,
    {
        None
    }
}

impl ShardProbe for NullProbe {}

impl ShardProbe for MetricsProbe {
    const BARRIER_SAMPLED: bool = true;
    fn complete(&mut self, at: u64, event: SimEvent, server: Option<u32>) {
        // Exact attribution: the serving proxy may live on another shard,
        // where this probe never saw its LocalHit.
        if let SimEvent::RequestCompleted {
            hit,
            hops,
            start_us,
            ..
        } = event
        {
            self.record_completion(at, hit, hops, start_us, server);
        }
    }
    fn barrier_sample(&mut self) {
        self.sample_occupancy_now();
    }
    fn into_registry(self) -> Option<Registry> {
        Some(MetricsProbe::into_registry(self))
    }
}

/// A caller's probe attached to a one-shard run: it sees every event,
/// flow-level ones included, in delivery order.
struct Attached<'a, P>(&'a mut P);

impl<P: Probe> Probe for Attached<'_, P> {
    const ENABLED: bool = P::ENABLED;
    #[inline]
    fn tick(&mut self, now_us: u64) {
        self.0.tick(now_us);
    }
    #[inline]
    fn emit(&mut self, event: SimEvent) {
        self.0.emit(event);
    }
}

impl<P: Probe + Send> ShardProbe for Attached<'_, P> {}

/// The sequential agent RNG stream shared by every shard of a
/// multi-shard run. At most one event is live in the whole system, so
/// the lock is never contended; it only satisfies `Sync`.
#[derive(Debug, Clone)]
struct SharedRng(Arc<Mutex<StdRng>>);

impl SharedRng {
    fn lock(&mut self) -> MutexGuard<'_, StdRng> {
        // A worker panic aborts the scope anyway; the state itself is
        // never left inconsistent mid-draw.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl RngCore for SharedRng {
    fn next_u32(&mut self) -> u32 {
        self.lock().next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.lock().next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.lock().fill_bytes(dest);
    }
}

/// SplitMix64: decorrelates per-agent seeds derived from (seed, proxy).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mode-appropriate agent RNG stream(s) for one shard.
enum AgentRngs {
    /// Sequential at one shard: the single stream, owned outright.
    Owned(StdRng),
    /// Sequential at several shards: the single stream, shared.
    Shared(SharedRng),
    /// Open-loop: one independent stream per local agent.
    PerAgent(Vec<StdRng>),
}

/// Duplicate-delivery fault injection (one shard only).
struct Faults {
    plan: FaultPlan,
    rng: StdRng,
}

/// Per-delivery counters a worker accumulates; summed at report time
/// (every field is a pure event count, so addition is the exact merge —
/// see `SimReport`'s field docs for max-vs-sum semantics).
#[derive(Debug, Default, Clone, Copy)]
struct ShardCounters {
    messages_delivered: u64,
    duplicates_injected: u64,
    bytes_from_origin: u64,
    bytes_from_caches: u64,
    client_orphans: u64,
    orphan_origin_requests: u64,
}

impl ShardCounters {
    /// Element-wise sum, the merge all pure event counts use.
    fn merge(&mut self, other: &ShardCounters) {
        self.messages_delivered += other.messages_delivered;
        self.duplicates_injected += other.duplicates_injected;
        self.bytes_from_origin += other.bytes_from_origin;
        self.bytes_from_caches += other.bytes_from_caches;
        self.client_orphans += other.client_orphans;
        self.orphan_origin_requests += other.orphan_origin_requests;
    }
}
/// Per-shard half of the execution profiler
/// ([`ShardTuning::profile`](crate::ShardTuning::profile)): wall-clock
/// drain accounting, the window-occupancy histogram, and chrome-trace
/// drain slices. Boxed behind an `Option` so the unprofiled hot path
/// pays one null test per window and nothing per event.
struct ShardProfState {
    /// Shared zero point for chrome-trace lane offsets (the run's
    /// `wall_start`).
    run_start: Instant,
    /// Cumulative wall-clock drain time, nanoseconds.
    drain_ns: u64,
    /// Window drains executed (including empty drains).
    windows: u64,
    /// Events processed by this shard.
    events: u64,
    /// Events drained per window.
    occupancy: Log2Histogram,
    /// Drain slices for the chrome-trace shard lane (empty drains are
    /// skipped; they would render as zero-width noise).
    slices: Vec<ShardSlice>,
    /// Drain slices not recorded because the bound was reached.
    slices_dropped: u64,
}

impl ShardProfState {
    fn new(run_start: Instant) -> Self {
        ShardProfState {
            run_start,
            drain_ns: 0,
            windows: 0,
            events: 0,
            occupancy: Log2Histogram::new(),
            slices: Vec::new(),
            slices_dropped: 0,
        }
    }
}

/// Coordinator-side half of the execution profiler: the busy/wait split
/// of every pooled window, outbox depths at each barrier, and the
/// barrier timeline.
struct CoordProf {
    /// Coordinator claim-and-drain plus inline-window time, nanoseconds.
    busy_ns: u64,
    /// Time parked at the barrier waiting for workers, nanoseconds.
    wait_ns: u64,
    /// Cross-shard messages pending per (src, dst) outbox per barrier.
    outbox_depth: Log2Histogram,
    /// Barrier-wait slices for the coordinator chrome-trace lane.
    wait_slices: Vec<ShardSlice>,
    /// Wait slices not recorded because the bound was reached.
    slices_dropped: u64,
    /// Barrier completion offsets, microseconds since run start.
    barriers_us: Vec<u64>,
}

impl CoordProf {
    fn new() -> Self {
        CoordProf {
            busy_ns: 0,
            wait_ns: 0,
            outbox_depth: Log2Histogram::new(),
            wait_slices: Vec::new(),
            slices_dropped: 0,
            barriers_us: Vec::new(),
        }
    }
}

/// A shard's event queue, with counts of its pending events per
/// destination class kept current on every push and pop (they fuel the
/// widening bound, see [`cross_send_bound`](Shard::cross_send_bound)).
struct EventQueue {
    events: CalendarQueue<ShardEvent>,
    /// Pending events by [`EventQueue::class`] of their destination.
    pending: [usize; 3],
}

impl EventQueue {
    /// Proxy-bound work (0) could emit a cross-shard message the moment
    /// it is processed; origin-bound work (1) is one origin→proxy reply
    /// latency away from one; client-bound work (2) spawns nothing.
    fn class(to: NodeId) -> usize {
        match to {
            NodeId::Proxy(_) => 0,
            NodeId::Origin => 1,
            NodeId::Client(_) => 2,
        }
    }

    #[inline]
    fn push(&mut self, at: u64, key: u64, ev: ShardEvent) {
        // class() is below the array length.
        self.pending[Self::class(ev.to)] += 1;
        self.events.push(at, key, ev);
    }

    #[inline]
    fn pop_before(&mut self, end: u64) -> Option<(u64, u64, ShardEvent)> {
        let popped = self.events.pop_before(end)?;
        // class() is below the array length.
        self.pending[Self::class(popped.2.to)] -= 1;
        Some(popped)
    }
}

/// One worker shard: a vertical slice of the simulator owning every
/// `index + i·N`-th proxy, its events, and its resident flows.
struct Shard<A, P> {
    index: usize,
    /// Local agents; local index `l` holds proxy `index + l·N`.
    agents: Vec<A>,
    rngs: AgentRngs,
    queue: EventQueue,
    flows: FlowTable<FlowMeta>,
    sink: ActionSink,
    probe: P,
    /// Completions recorded this window, drained by the coordinator.
    records: Vec<Completion>,
    /// Cross-shard deliveries produced this window, per destination
    /// shard, routed by the coordinator at the barrier.
    outboxes: Vec<Vec<Routed>>,
    counters: ShardCounters,
    /// Timestamp of this shard's earliest pending event (`u64::MAX` when
    /// idle); maintained by `drain_window` and by coordinator routing.
    next_at: u64,
    /// The latency function, shared immutably with the coordinator and
    /// every sibling shard.
    net: Arc<Net>,
    /// Wall-clock drain profiler, present when
    /// [`ShardTuning::profile`](crate::ShardTuning::profile) is set.
    prof: Option<Box<ShardProfState>>,
    /// Duplicate faults, when configured (one shard only).
    faults: Option<Faults>,
    /// The delivery log, when tracing is on (one shard only).
    trace: Option<TraceLog>,
}

impl<A: CacheAgent, P: ShardProbe> Shard<A, P> {
    /// Coordinator-side insertion (injection and barrier routing).
    fn enqueue(&mut self, at: u64, key: u64, ev: ShardEvent, meta: FlowMeta) {
        self.next_at = self.next_at.min(at);
        self.queue.push(at, key, ev);
        self.flows.insert(ev.message.request_id(), meta);
    }

    /// Conservative lower bound on the earliest simulation time at which
    /// this shard could *send* a cross-shard message, given its current
    /// queue. `u64::MAX` means "never, until new work arrives": pending
    /// client deliveries complete flows and spawn nothing.
    ///
    /// Proxy-bound work can forward the instant it is processed, so the
    /// bound is this shard's earliest pending timestamp. Origin-bound
    /// work is strictly weaker: the origin replies only to its local
    /// proxy, so the earliest a proxy on this shard can act again — and
    /// hence send anything cross-shard — is one origin→proxy reply
    /// latency after the earliest pending event. Using `next_at` (≤ the
    /// earliest event of either class) keeps both branches conservative.
    fn cross_send_bound(&self, origin_reply_us: u64) -> u64 {
        let [to_proxy, to_origin, _] = self.queue.pending;
        if to_proxy > 0 {
            self.next_at
        } else if to_origin > 0 {
            self.next_at.saturating_add(origin_reply_us)
        } else {
            u64::MAX
        }
    }

    /// Drains the window, measuring the drain on the wall clock when
    /// profiling is on. Called for both execution paths (pool workers
    /// via [`WindowTask`], the coordinator inline), so the profile
    /// attributes every drain to the shard that did it regardless of
    /// which thread ran it.
    fn drain_window(&mut self, window_end: u64) {
        if self.prof.is_none() {
            self.drain_events(window_end);
            return;
        }
        let before = self.counters.messages_delivered;
        // Profiler telemetry only. adc-lint: allow(determinism, determinism-purity)
        let t0 = Instant::now();
        self.drain_events(window_end);
        let dur = t0.elapsed();
        let drained = self.counters.messages_delivered - before;
        let lane = self.index as u32; // shard counts stay tiny
        if let Some(prof) = self.prof.as_mut() {
            // Durations ≪ 2^64 ns (584 years): the casts are lossless.
            // Wall-clock profiler accounting sits deliberately outside
            // the SimEvent stream; the occupancy-sum identity test
            // reconciles it. adc-lint: allow(obs-coverage)
            prof.drain_ns += dur.as_nanos() as u64;
            prof.windows += 1;
            prof.events += drained;
            prof.occupancy.record(drained);
            if drained > 0 {
                if prof.slices.len() < ShardProfile::MAX_SLICES {
                    prof.slices.push(ShardSlice {
                        lane,
                        start_us: t0.duration_since(prof.run_start).as_micros() as u64,
                        dur_us: dur.as_micros() as u64,
                        wait: false,
                    });
                } else {
                    // Trace cap hit; counted so the report says so.
                    // adc-lint: allow(obs-coverage)
                    prof.slices_dropped += 1;
                }
            }
        }
    }

    /// Drains every local event with `at < window_end`, in `(at, key)`
    /// order, then records the next pending timestamp. Under sequential
    /// injection it stops at a completion, so the fold injects the next
    /// flow at the completion instant even while duplicate deliveries
    /// of the finished one are still queued.
    fn drain_events(&mut self, window_end: u64) {
        while let Some((at, _, ev)) = self.queue.pop_before(window_end) {
            self.process(at, ev, window_end);
            if self.net.sequential && !self.records.is_empty() {
                break;
            }
        }
        self.next_at = self.queue.events.peek_key().map_or(u64::MAX, |(at, _)| at);
    }

    /// Processes one delivery: tracing, byte and hop accounting, fault
    /// duplication, dispatch, and routing of whatever the dispatch sent.
    #[inline(always)]
    fn process(&mut self, at: u64, ev: ShardEvent, window_end: u64) {
        let now = SimTime::from_micros(at);
        if P::ENABLED {
            self.probe.tick(at);
        }
        self.counters.messages_delivered += 1;
        let ShardEvent { from, to, message } = ev;
        let id = message.request_id();
        if let Some(log) = self.trace.as_mut() {
            log.record(DeliveryRecord {
                at: now,
                request: id,
                from,
                to,
                is_request: matches!(message, Message::Request(_)),
            });
        }

        // Byte accounting: a reply's body travels once per transfer;
        // attribute it to its producer.
        if from != to {
            if let Message::Reply(rep) = &message {
                if from == NodeId::Origin {
                    self.counters.bytes_from_origin += u64::from(rep.size);
                } else if rep.served_from.is_hit() && matches!(to, NodeId::Client(_)) {
                    self.counters.bytes_from_caches += u64::from(rep.size);
                }
            }
        }

        // Every queued event's flow is resident here: injection and
        // routing insert the metadata with the event, and it leaves only
        // with a cross-shard message or after the flow's last event.
        let Some(meta) = self.flows.get_mut(&id) else {
            return;
        };
        meta.queued -= 1;
        let live = !meta.done;
        // A hop is any message transfer between distinct nodes, counted
        // for the flow it belongs to.
        if live && from != to {
            meta.hops += 1;
        }
        if let Some(faults) = self.faults.as_mut() {
            if faults.rng.gen_bool(faults.plan.duplicate_prob) {
                self.counters.duplicates_injected += 1;
                meta.step += 1;
                meta.queued += 1;
                let again = (now + faults.plan.duplicate_jitter).as_micros();
                self.queue.push(again, event_key(id.seq, meta.step), ev);
            }
        }

        debug_assert!(self.sink.is_empty(), "sink drained after every delivery");
        match (to, message) {
            (NodeId::Proxy(pid), message) => {
                debug_assert_eq!(
                    self.net.shard_of(pid),
                    self.index,
                    "delivered to wrong shard"
                );
                // Dense proxy ids fit usize on every supported target.
                let (_, local) = self.net.place(pid.raw() as usize);
                let agent = &mut self.agents[local];
                match message {
                    Message::Request(req) => {
                        let rng: &mut dyn RngCore = match &mut self.rngs {
                            AgentRngs::Owned(r) => r,
                            AgentRngs::Shared(r) => r,
                            // Same local index as the agent above.
                            AgentRngs::PerAgent(v) => &mut v[local],
                        };
                        agent.on_request(req, rng, &mut self.probe, &mut self.sink);
                    }
                    Message::Reply(rep) => agent.on_reply(rep, &mut self.probe, &mut self.sink),
                }
            }
            (NodeId::Origin, Message::Request(req)) => {
                // The origin always resolves; reply to the proxy that sent
                // the request, on the same shard. A request whose flow
                // already completed gets the nominal size, and is counted.
                let size = if live {
                    meta.size
                } else {
                    self.counters.orphan_origin_requests += 1;
                    adc_core::DEFAULT_OBJECT_SIZE
                };
                self.sink.send(req.sender, Reply::from_origin(&req, size));
            }
            (NodeId::Client(_), Message::Reply(rep)) if live => {
                meta.done = true;
                let hit = rep.served_from.is_hit();
                if P::ENABLED {
                    let server = match rep.served_from {
                        ServedFrom::Cache(p) => Some(p.raw()),
                        ServedFrom::Origin => None,
                    };
                    let event = SimEvent::RequestCompleted {
                        client: id.client.raw(),
                        seq: id.seq,
                        object: rep.object.raw(),
                        hit,
                        hops: meta.hops,
                        start_us: meta.start.as_micros(),
                    };
                    self.probe.complete(at, event, server);
                }
                self.records.push(Completion {
                    at,
                    flow_seq: id.seq,
                    hit,
                    hops: meta.hops,
                    start_us: meta.start.as_micros(),
                    phase: meta.phase,
                });
            }
            (NodeId::Client(_), Message::Reply(_)) => self.counters.client_orphans += 1,
            (NodeId::Origin, Message::Reply(_)) | (NodeId::Client(_), Message::Request(_)) => {
                debug_assert!(false, "origins get requests and clients get replies");
            }
        }

        let mut moved = false;
        for action in self.sink.drain() {
            let Action::Send {
                to: dest,
                mut message,
            } = action;
            // Agents only know a nominal object size; the workload's size
            // lives in the flow metadata. Normalize replies so byte
            // accounting and the client-visible size are the workload's.
            if let (true, Message::Reply(rep)) = (live, &mut message) {
                rep.size = meta.size;
            }
            let mut out_at = now + self.net.latency(to, dest);
            if dest == NodeId::Origin {
                // Account for the origin's per-request service time up
                // front, so its reply goes out at arrival + service +
                // wire time.
                out_at += self.net.base.origin_service;
            }
            meta.step += 1;
            let key = event_key(id.seq, meta.step);
            let ev = ShardEvent {
                from: to,
                to: dest,
                message,
            };
            match dest {
                NodeId::Proxy(p) if self.net.shard_of(p) != self.index => {
                    // Conservative synchronization: a cross-shard message
                    // travels a proxy↔proxy edge with latency ≥ W, so it
                    // cannot land inside the current window — widened
                    // windows included, because `window_end` never
                    // exceeds the grid barrier after the global earliest
                    // cross-shard send bound (see `cross_send_bound`).
                    debug_assert!(
                        out_at.as_micros() >= window_end,
                        "lookahead violated: cross-shard delivery at {} inside window ending {}",
                        out_at.as_micros(),
                        window_end
                    );
                    debug_assert_eq!(
                        meta.queued, 0,
                        "a flow crossing shards leaves nothing behind"
                    );
                    moved = true;
                    // Outboxes are sized to the shard count at startup.
                    self.outboxes[self.net.shard_of(p)].push(Routed {
                        at: out_at.as_micros(),
                        key,
                        ev,
                        meta: FlowMeta { queued: 1, ..*meta },
                    });
                }
                _ => {
                    meta.queued += 1;
                    self.queue.push(out_at.as_micros(), key, ev);
                }
            }
        }
        if moved || (meta.done && meta.queued == 0) {
            self.flows.remove(&id);
        }
    }
}

/// A shard cell is the pool's unit of work: one window drain. Running a
/// window is a pure function of the cell's own state and `window_end`,
/// which is what makes the claim-cursor schedule irrelevant to the
/// result (see the [`pool`] module docs).
impl<A: CacheAgent + Send, P: ShardProbe> WindowTask for Shard<A, P> {
    fn run_window(&mut self, window_end: u64) {
        self.drain_window(window_end);
    }
}

/// Locks every shard cell for a coordinator phase. Uncontended by the
/// barrier protocol: the coordinator only locks while every worker is
/// parked between windows.
fn lock_all<W>(cells: &[Mutex<W>]) -> Vec<MutexGuard<'_, W>> {
    cells
        .iter()
        .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Checks what the executor needs from the configuration and returns the
/// barrier grid width in microseconds: the lookahead bound, or at one
/// shard with a zero-latency network, the open-loop interval.
fn validate(config: &SimConfig, proxies: usize, shards: usize) -> u64 {
    assert!(shards >= 1, "shards must be at least 1");
    let interval_us = match config.injection {
        InjectionMode::Sequential => 0,
        InjectionMode::OpenLoop { interval } => interval.as_micros(),
    };
    assert!(
        config.injection == InjectionMode::Sequential || interval_us > 0,
        "open-loop interval must be positive"
    );
    let w = lookahead_us(config, proxies);
    if shards > 1 {
        assert!(
            config.faults.is_clean(),
            "sharded execution does not support fault injection (duplicates would need \
             cross-shard coordination mid-window)"
        );
        assert_eq!(
            config.trace_capacity, 0,
            "sharded execution does not support delivery tracing (the trace log is a \
             single totally-ordered stream)"
        );
        assert!(
            w > 0,
            "sharded execution needs a positive minimum latency as its lookahead bound \
             (instant networks serialize everything; use the single-threaded runner)"
        );
    }
    if w > 0 {
        w
    } else {
        interval_us
    }
}

impl<A: CacheAgent + Send> Simulation<A> {
    /// Runs the workload to completion.
    pub fn run(self, workload: impl IntoIterator<Item = RequestRecord>) -> SimReport {
        self.run_with_agents(workload).0
    }

    /// Runs the workload to completion and returns the report together
    /// with the agents (for post-run inspection). Observability is off
    /// ([`NullProbe`]); the probe plumbing compiles away entirely, so
    /// this is the unobserved hot path.
    pub fn run_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
    ) -> (SimReport, Vec<A>) {
        self.run_sharded_with_agents(workload, 1)
    }

    /// Runs the workload to completion with `probe` attached; see
    /// [`run_observed_with_agents`](Simulation::run_observed_with_agents).
    pub fn run_observed<P: Probe + Send>(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        probe: &mut P,
    ) -> SimReport {
        self.run_observed_with_agents(workload, probe).0
    }

    /// Runs the workload at one shard with every simulation event fed
    /// through `probe`, returning the report and the agents.
    ///
    /// The probe is ticked with virtual time (microseconds) before each
    /// delivery is processed and before each injection, then receives
    /// the typed [`SimEvent`]s the agents and the executor emit. Under
    /// open-loop injection the arrivals of a window are injected before
    /// the window drains, so their ticks run ahead of the deliveries
    /// that follow. With [`NullProbe`] every emission site is statically
    /// dead code, so observability costs nothing unless a real probe is
    /// attached.
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded) with one shard.
    pub fn run_observed_with_agents<P: Probe + Send>(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        probe: &mut P,
    ) -> (SimReport, Vec<A>) {
        let (report, agents, _) = execute(self, workload, vec![Attached(probe)]);
        (report, agents)
    }

    /// Runs the workload with a [`MetricsProbe`] attached and the
    /// resulting per-proxy families embedded in [`SimReport::metrics`].
    /// The probe is a pure event consumer — it never touches the RNG
    /// streams or event order, so results are identical to an unobserved
    /// run of the same seed.
    pub fn run_with_metrics(self, workload: impl IntoIterator<Item = RequestRecord>) -> SimReport {
        let mut probe = MetricsProbe::new();
        let (mut report, _) = self.run_observed_with_agents(workload, &mut probe);
        report.metrics = Some(probe.report());
        report
    }

    /// Runs the workload with a [`SpanProbe`](adc_obs::SpanProbe)
    /// attached and the resulting causal latency breakdown embedded in
    /// [`SimReport::spans`], keeping the `top_k` slowest flows in the
    /// digest. Like every probe, the recorder is a pure event consumer:
    /// the deterministic report is identical to an unobserved run.
    pub fn run_with_spans(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        top_k: usize,
    ) -> SimReport {
        let mut probe = adc_obs::SpanProbe::with_top_k(top_k);
        let (mut report, _) = self.run_observed_with_agents(workload, &mut probe);
        report.spans = Some(probe.into_report());
        report
    }

    /// Runs the workload on `shards` worker shards and returns the
    /// report; see the [module docs](self) for the synchronization
    /// protocol and the determinism guarantees. The report is invariant
    /// in `shards` (any `shards ≥ 1`, including counts exceeding the
    /// proxy count).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or an open-loop interval is zero, and, for
    /// `shards > 1`, if the configuration enables faults or tracing or
    /// every configured latency is zero (no positive lookahead bound).
    pub fn run_sharded(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        self.run_sharded_with_agents(workload, shards).0
    }

    /// [`run_sharded`](Simulation::run_sharded), additionally returning
    /// the agents in proxy-id order for post-run inspection.
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> (SimReport, Vec<A>) {
        let (report, agents, _) = execute(self, workload, vec![NullProbe; shards]);
        (report, agents)
    }

    /// [`run_sharded`](Simulation::run_sharded) with per-shard
    /// [`MetricsProbe`]s attached; their registries fold through the
    /// exact [`Registry::merge`] into [`SimReport::metrics`],
    /// byte-identical to [`Simulation::run_with_metrics`] under
    /// sequential injection.
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_metrics(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        // Cadence 0: the coordinator drives occupancy sampling on the
        // cluster-wide completion count via barrier_sample.
        let probes = (0..shards).map(|_| MetricsProbe::with_cadence(0)).collect();
        let (mut report, _, registry) = execute(self, workload, probes);
        report.metrics = registry.as_ref().map(MetricsReport::from_registry);
        report
    }
}

/// Live state for the periodic convergence sampler: injected-request
/// counts (to pick the hot set) plus the tracker folding snapshots into
/// series. Ordered map: hot-set selection must never depend on a
/// randomized hasher.
struct ConvState {
    cfg: ConvergenceConfig,
    counts: BTreeMap<u64, u64>,
    tracker: ConvergenceTracker,
}

/// The coordinator's side of a run: the arrival process and the
/// canonical completion fold with every cluster-wide accumulator.
struct Coordinator<W> {
    workload: W,
    workload_done: bool,
    net: Arc<Net>,
    proxies: usize,
    assignment: ClientAssignment,
    assign_rng: StdRng,
    completed: u64,
    hits: u64,
    phases: [PhaseStats; 3],
    hops: Summary,
    latency: Summary,
    latency_p50: P2Quantile,
    latency_p99: P2Quantile,
    hit_window: MovingAverage,
    hops_window: MovingAverage,
    hit_sampler: Sampler,
    hops_sampler: Sampler,
    occupancy: Option<Vec<Sampler>>,
    conv: Option<ConvState>,
    /// Scheduled restarts, sorted by completion count, and the next one.
    churn: Vec<ChurnEvent>,
    churn_next: usize,
    proxies_reset: u64,
    /// Injection times not yet settled into the live-flow count.
    inj_times: VecDeque<u64>,
    live_flows: usize,
    peak_flows: usize,
    injected: u64,
    /// Reusable fold buffer: every shard's completions, sorted globally.
    records: Vec<Completion>,
}

impl<W: Iterator<Item = RequestRecord>> Coordinator<W> {
    fn new(workload: W, config: &SimConfig, net: Arc<Net>, proxies: usize) -> Self {
        let mut churn = config.churn.clone();
        churn.sort_by_key(|c| c.after_completed);
        Coordinator {
            workload,
            workload_done: false,
            net,
            proxies,
            assignment: config.assignment,
            assign_rng: StdRng::seed_from_u64(config.seed ^ 0xA551),
            completed: 0,
            hits: 0,
            phases: [PhaseStats::default(); 3],
            hops: Summary::new(),
            latency: Summary::new(),
            latency_p50: P2Quantile::new(0.5),
            latency_p99: P2Quantile::new(0.99),
            hit_window: MovingAverage::new(config.hit_window),
            hops_window: MovingAverage::new(config.hit_window),
            hit_sampler: Sampler::new("hit_rate", config.sample_every),
            hops_sampler: Sampler::new("hops", config.sample_every),
            // Unnamed until the report is built, keeping the fold free
            // of string formatting.
            occupancy: config.sample_occupancy.then(|| {
                (0..proxies)
                    .map(|_| Sampler::new("", config.sample_every))
                    .collect()
            }),
            conv: config.convergence.map(|cfg| ConvState {
                cfg,
                counts: BTreeMap::new(),
                tracker: ConvergenceTracker::new(),
            }),
            churn,
            churn_next: 0,
            proxies_reset: 0,
            inj_times: VecDeque::new(),
            live_flows: 0,
            peak_flows: 0,
            injected: 0,
            records: Vec::new(),
        }
    }

    /// Injects the next workload request at `now`, routing its first
    /// delivery into the owner shard. Marks the workload done when it is
    /// exhausted.
    fn inject<A, P, G>(&mut self, now: SimTime, shards: &mut [G])
    where
        A: CacheAgent,
        P: ShardProbe,
        G: DerefMut<Target = Shard<A, P>>,
    {
        let Some(record) = self.workload.next() else {
            self.workload_done = true;
            return;
        };
        if let Some(c) = self.conv.as_mut() {
            *c.counts.entry(record.object.raw()).or_insert(0) += 1;
        }
        let n = self.proxies as u32; // proxy counts stay tiny
        let proxy = match self.assignment {
            ClientAssignment::Sticky => ProxyId::new(record.client.raw() % n),
            ClientAssignment::RandomPerRequest => ProxyId::new(self.assign_rng.gen_range(0..n)),
        };
        let id = RequestId::new(record.client, record.seq);
        let from = NodeId::Client(record.client);
        let to = NodeId::Proxy(proxy);
        // shard_of() is always below the shard count.
        let shard = &mut *shards[self.net.shard_of(proxy)];
        if P::ENABLED {
            shard.probe.tick(now.as_micros());
            shard.probe.emit(SimEvent::RequestInjected {
                client: record.client.raw(),
                seq: record.seq,
                object: record.object.raw(),
            });
        }
        let meta = FlowMeta {
            start: now,
            hops: 0,
            step: 0,
            size: record.size,
            phase: record.phase,
            queued: 1,
            done: false,
        };
        let ev = ShardEvent {
            from,
            to,
            message: Message::Request(Request::new(id, record.object, record.client)),
        };
        let at = (now + self.net.latency(from, to)).as_micros();
        shard.enqueue(at, event_key(id.seq, 0), ev, meta);
        self.inj_times.push_back(now.as_micros());
        self.injected += 1;
    }

    /// Counts every injection before `t` as live, in time order.
    fn settle_injections(&mut self, t: u64) {
        while self.inj_times.front().is_some_and(|&i| i < t) {
            self.inj_times.pop_front();
            self.live_flows += 1;
            self.peak_flows = self.peak_flows.max(self.live_flows);
        }
    }

    /// The canonical completion fold: replays the `(at, flow_seq)`-sorted
    /// global completion sequence through the cluster-wide bookkeeping,
    /// then settles injections up to the fold horizon `fold_end`.
    fn fold<A, P, G>(&mut self, shards: &mut [G], fold_end: u64)
    where
        A: CacheAgent,
        P: ShardProbe,
        G: DerefMut<Target = Shard<A, P>>,
    {
        let mut records = std::mem::take(&mut self.records);
        records.clear();
        for shard in shards.iter_mut() {
            records.append(&mut shard.records);
        }
        records.sort_unstable_by_key(|r| (r.at, r.flow_seq));
        let n = self.net.shards;
        for rec in &records {
            // Flows injected before this completion went live first
            // (completions settle first on exact timestamp ties).
            self.settle_injections(rec.at);
            self.live_flows = self.live_flows.saturating_sub(1);
            self.completed += 1;
            self.hits += u64::from(rec.hit);
            let phase = match rec.phase {
                Phase::Fill => 0,
                Phase::RequestI => 1,
                Phase::RequestII => 2,
            };
            // phase is 0..3 by construction.
            self.phases[phase].requests += 1;
            self.phases[phase].hits += u64::from(rec.hit);
            let hops = f64::from(rec.hops);
            let completed = self.completed as f64; // < 2^53: exact
            let latency_us = (rec.at - rec.start_us) as f64; // < 2^53: exact
            self.hops.push(hops);
            self.latency.push(latency_us);
            self.latency_p50.push(latency_us);
            self.latency_p99.push(latency_us);
            self.hit_window.push_bool(rec.hit);
            self.hops_window.push(hops);
            if let Some(v) = self.hit_window.value() {
                self.hit_sampler.observe(completed, v);
            }
            if let Some(v) = self.hops_window.value() {
                self.hops_sampler.observe(completed, v);
            }
            if let Some(occupancy) = self.occupancy.as_mut() {
                for (s, shard) in shards.iter().enumerate() {
                    for (l, agent) in shard.agents.iter().enumerate() {
                        // Local l on shard s is proxy s + l·N, below the
                        // proxy count; cache sizes ≪ 2^53: exact.
                        occupancy[s + l * n].observe(completed, agent.cached_objects() as f64);
                    }
                }
            }
            // Convergence: snapshot every agent's owner hint for the hot
            // set on the sampling schedule.
            if let Some(c) = self.conv.as_mut() {
                if self.completed.is_multiple_of(c.cfg.sample_every) {
                    let mut hot: Vec<(u64, u64)> = c.counts.iter().map(|(&o, &k)| (o, k)).collect();
                    hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    hot.truncate(c.cfg.top_k);
                    let snapshot: Vec<(u64, Vec<Option<u32>>)> = hot
                        .iter()
                        .map(|&(object, _)| {
                            let hints = (0..self.proxies)
                                .map(|p| {
                                    let (s, l) = self.net.place(p);
                                    // place() maps a proxy id into the layout.
                                    let agent = &shards[s].agents[l];
                                    agent.owner_hint(ObjectId::new(object)).map(|o| o.raw())
                                })
                                .collect();
                            (object, hints)
                        })
                        .collect();
                    c.tracker.sample(completed, &snapshot);
                }
            }
            if P::BARRIER_SAMPLED && self.completed.is_multiple_of(METRICS_CADENCE) {
                for shard in shards.iter_mut() {
                    shard.probe.barrier_sample();
                }
            }
            // Scheduled proxy restarts fire on completion boundaries.
            while let Some(c) = self.churn.get(self.churn_next) {
                if c.after_completed > self.completed {
                    break;
                }
                let p = c.proxy.raw() as usize; // u32 → usize widens
                if p < self.proxies {
                    // place() maps a proxy id into the layout.
                    let (s, l) = self.net.place(p);
                    shards[s].agents[l].reset();
                    self.proxies_reset += 1;
                }
                self.churn_next += 1;
            }
            // Sequential: the completed flow hands its slot to the next
            // workload request, injected at the completion instant.
            if self.net.sequential && !self.workload_done {
                self.inject(SimTime::from_micros(rec.at), shards);
            }
        }
        self.records = records;
        self.settle_injections(fold_end);
    }
}

/// The executor: builds one shard per entry of `probes`, advances the
/// window barrier until every queue drains, folds completions, and
/// assembles the report. Returns `(report, agents in id order, merged
/// registry)`.
#[allow(clippy::too_many_lines)] // one loop: windows, arrivals, barrier, fold
fn execute<A: CacheAgent + Send, P: ShardProbe>(
    sim: Simulation<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    probes: Vec<P>,
) -> (SimReport, Vec<A>, Option<Registry>) {
    // Wall telemetry only. adc-lint: allow(determinism, determinism-purity)
    let wall_start = Instant::now();
    // CPU telemetry covers the coordinator thread only; worker CPU would
    // need cross-thread aggregation for a number no gate consumes.
    let cpu_start = crate::cputime::thread_cpu_now();
    let Simulation { agents, config } = sim;
    let shards_n = probes.len();
    let n_proxies = agents.len();
    let window_us = validate(&config, n_proxies, shards_n);
    let sequential = config.injection == InjectionMode::Sequential;
    let net = Arc::new(Net {
        base: config.latency,
        matrix: config.proxy_latency_matrix.clone(),
        shards: shards_n,
        sequential,
    });

    // Partition agents round-robin: proxy p → shard p % N. The one
    // sequential stream is shared across shards; per-agent open-loop
    // streams decorrelate via splitmix64 over the proxy id.
    let agent_seed = config.seed ^ 0xA6E7;
    let shared_rng = SharedRng(Arc::new(Mutex::new(StdRng::seed_from_u64(agent_seed))));
    let mut shard_agents: Vec<Vec<A>> = (0..shards_n).map(|_| Vec::new()).collect();
    for (p, agent) in agents.into_iter().enumerate() {
        // Round-robin: proxy p lives on shard p % N.
        shard_agents[p % shards_n].push(agent);
    }
    let cells: Vec<Mutex<Shard<A, P>>> = shard_agents
        .into_iter()
        .zip(probes)
        .enumerate()
        .map(|(index, (agents, probe))| {
            let rngs = if !sequential {
                AgentRngs::PerAgent(
                    (0..agents.len())
                        // Local l on shard s is proxy s + l·N; seed from
                        // the global proxy id so partitioning is moot.
                        .map(|l| {
                            let proxy = (index + l * shards_n) as u64; // dense ids
                            StdRng::seed_from_u64(agent_seed ^ splitmix64(proxy + 1))
                        })
                        .collect(),
                )
            } else if shards_n == 1 {
                AgentRngs::Owned(StdRng::seed_from_u64(agent_seed))
            } else {
                AgentRngs::Shared(shared_rng.clone())
            };
            Mutex::new(Shard {
                index,
                agents,
                rngs,
                queue: EventQueue {
                    events: CalendarQueue::new(),
                    pending: [0; 3],
                },
                flows: FlowTable::new(),
                sink: ActionSink::new(),
                probe,
                records: Vec::new(),
                outboxes: (0..shards_n).map(|_| Vec::new()).collect(),
                counters: ShardCounters::default(),
                next_at: u64::MAX,
                net: Arc::clone(&net),
                prof: config
                    .shard
                    .profile
                    .then(|| Box::new(ShardProfState::new(wall_start))),
                // Both are rejected above unless there is a single shard.
                faults: (!config.faults.is_clean()).then(|| Faults {
                    plan: config.faults,
                    rng: StdRng::seed_from_u64(config.seed ^ 0xFA17),
                }),
                trace: (config.trace_capacity > 0).then(|| TraceLog::new(config.trace_capacity)),
            })
        })
        .collect();

    let mut coord = Coordinator::new(workload.into_iter(), &config, Arc::clone(&net), n_proxies);

    // Synchronization tuning (see ShardTuning). Widening and batched
    // folds move barrier placement, which is observable only by
    // barrier-driven state sampling and churn restarts in open-loop
    // runs; sequential mode is immune — each of its folds sees at most
    // one completion, with all of that flow's agent mutations already
    // settled. Gate both features off exactly when an open-loop run acts
    // on state at barriers, so every tuning combination yields identical
    // bytes.
    let state_samplers = coord.occupancy.is_some()
        || coord.conv.is_some()
        || P::BARRIER_SAMPLED
        || !coord.churn.is_empty();
    let widen = config.shard.widen && (sequential || !state_samplers);
    let fold_every: u32 = if sequential || state_samplers {
        // Sequential folds drive re-injection and must run every
        // barrier; sampling runs pin the fold to every barrier.
        1
    } else {
        config.shard.fold_batch.max(1)
    };
    // One shard sequential: no message can cross shards, so each flow
    // drains in a single window.
    let whole_flows = sequential && shards_n == 1;
    // The coordinator always executes shards too, so more workers than
    // `shards - 1` could never claim a cell.
    let workers = config
        .shard
        .pool_threads
        .unwrap_or_else(|| pool::default_workers(shards_n))
        .min(shards_n.saturating_sub(1));

    let interval_us = match config.injection {
        InjectionMode::Sequential => 0,
        InjectionMode::OpenLoop { interval } => interval.as_micros(),
    };
    let mut next_inject_at: u64 = 0;
    let client_proxy_us = net.base.client_proxy.as_micros();
    // The origin→proxy reply latency: the widening slack of
    // origin-bound work. Latency matrices only override proxy↔proxy
    // edges, so the class model's value is exact.
    let origin_reply_us = net.base.proxy_origin.as_micros();

    let mut exec = ShardExecStats::default();
    // Coordinator half of the execution profiler (None = profiling off).
    let mut coord_prof: Option<CoordProf> = config.shard.profile.then(CoordProf::new);
    // Barriers since the last fold, and the latest barrier timestamp
    // (the settling horizon of a deferred fold).
    let mut fold_pending: u32 = 0;
    let mut last_window_end: u64 = 0;

    let ((), spawned) = pool::with_pool(&cells, workers, |pool| {
        let mut guards = lock_all(&cells);

        // Prime the pump. Sequential injects the first request at t=0;
        // open-loop arrivals are generated window by window below.
        if sequential {
            coord.inject(SimTime::ZERO, &mut guards);
        }

        loop {
            // Earliest pending work across shards and (open-loop) the
            // arrival process; the plain next window is the
            // lookahead-aligned window containing it.
            let mut min_next = guards.iter().map(|s| s.next_at).min().unwrap_or(u64::MAX);
            if !sequential && !coord.workload_done {
                min_next = min_next.min(next_inject_at + client_proxy_us);
            }
            if min_next == u64::MAX {
                // Drained. Fold any deferred completions before leaving.
                if fold_pending > 0 {
                    coord.fold(&mut guards, last_window_end);
                }
                break;
            }
            exec.windows_advanced += 1;
            let window_end = if whole_flows {
                u64::MAX
            } else {
                let grid_end = (min_next / window_us) * window_us + window_us;
                // Adaptive widening: when no shard can emit a cross-shard
                // message before `grid_end`, jump the barrier to the
                // lookahead-aligned window containing the earliest
                // possible cross-shard send. Every such send is delivered
                // a full lookahead later, i.e. at or after the widened
                // barrier, so the jump never admits a delivery into the
                // widened range (conservatism argument in DESIGN.md §6c).
                let mut window_end = grid_end;
                if widen {
                    let mut earliest_send = guards
                        .iter()
                        .map(|s| s.cross_send_bound(origin_reply_us))
                        .min()
                        .unwrap_or(u64::MAX);
                    if !sequential && !coord.workload_done {
                        // A future arrival is a fresh proxy-bound delivery.
                        earliest_send = earliest_send.min(next_inject_at + client_proxy_us);
                    }
                    window_end = if earliest_send == u64::MAX {
                        // Nothing left can ever cross shards: drain fully.
                        u64::MAX
                    } else {
                        ((earliest_send / window_us) * window_us)
                            .saturating_add(window_us)
                            .max(grid_end)
                    };
                }
                if window_end > grid_end {
                    exec.windows_widened += 1;
                    if window_end != u64::MAX {
                        exec.windows_skipped += (window_end - grid_end) / window_us;
                    }
                }
                window_end
            };

            // Open-loop: generate every arrival whose *arrival time*
            // precedes this barrier. Arrivals whose first delivery
            // falls beyond the barrier merely sit in the owner queue,
            // so the event schedule is a pure function of the arrival
            // grid — but pushing them now puts their timestamps in
            // `inj_times` before any fold that could observe a
            // completion after them, which makes the live-flow
            // interleave pure global time order, independent of
            // barrier placement (fold batching, widening, shard
            // count).
            if !sequential {
                while !coord.workload_done && next_inject_at < window_end {
                    coord.inject(SimTime::from_micros(next_inject_at), &mut guards);
                    next_inject_at += interval_us;
                }
            }

            // Run the window: every shard with work below the barrier
            // drains independently. A single active shard (sequential
            // mode always lands here) or an empty pool drains inline —
            // zero synchronization; otherwise release the cells to the
            // persistent pool and re-lock after the barrier.
            let active = guards.iter().filter(|s| s.next_at < window_end).count();
            if active > 1 && workers > 0 {
                guards.clear();
                match coord_prof.as_mut() {
                    None => pool.run_window(window_end, active),
                    Some(cp) => {
                        // Profiler telemetry only.
                        // adc-lint: allow(determinism, determinism-purity)
                        let t0 = Instant::now();
                        let t = pool.run_window_timed(window_end, active);
                        // Wall-clock split from the pool, outside the
                        // SimEvent stream. adc-lint: allow(obs-coverage)
                        cp.busy_ns += t.busy_ns;
                        cp.wait_ns += t.wait_ns; // adc-lint: allow(obs-coverage)
                                                 // The wait slice starts where the coordinator's
                                                 // own claim share ended.
                        let wait_us = t.wait_ns / 1_000;
                        if wait_us > 0 {
                            if cp.wait_slices.len() < ShardProfile::MAX_SLICES {
                                cp.wait_slices.push(ShardSlice {
                                    // Coordinator lane sits after the
                                    // shard lanes.
                                    lane: shards_n as u32,
                                    start_us: t0.duration_since(wall_start).as_micros() as u64
                                        + t.busy_ns / 1_000,
                                    dur_us: wait_us,
                                    wait: true,
                                });
                            } else {
                                // Trace cap hit; counted so the report
                                // says so. adc-lint: allow(obs-coverage)
                                cp.slices_dropped += 1;
                            }
                        }
                    }
                }
                guards = lock_all(&cells);
            } else {
                // Inline windows count toward coordinator busy time; the
                // per-shard drain profiling happens inside drain_window.
                // adc-lint: allow(determinism, determinism-purity)
                let t0 = coord_prof.as_ref().map(|_| Instant::now());
                for shard in guards.iter_mut().filter(|s| s.next_at < window_end) {
                    shard.drain_window(window_end);
                }
                if let (Some(cp), Some(t0)) = (coord_prof.as_mut(), t0) {
                    // Wall clock only. adc-lint: allow(obs-coverage)
                    cp.busy_ns += t0.elapsed().as_nanos() as u64;
                }
            }

            // Profiler barrier bookkeeping: outbox depths before routing
            // drains them, and the barrier's place on the wall-clock
            // timeline.
            if let Some(cp) = coord_prof.as_mut() {
                for (src, guard) in guards.iter().enumerate() {
                    for (dst, outbox) in guard.outboxes.iter().enumerate() {
                        if src != dst {
                            cp.outbox_depth.record(outbox.len() as u64);
                        }
                    }
                }
                if cp.barriers_us.len() < ShardProfile::MAX_SLICES {
                    cp.barriers_us.push(wall_start.elapsed().as_micros() as u64);
                }
            }

            // Barrier: route cross-shard outboxes in (source,
            // destination) order — the insertion order is irrelevant
            // because delivery order is keyed, but keep it fixed anyway.
            // The emptied outbox Vec is recycled to its owner.
            for src in 0..shards_n {
                for dst in 0..shards_n {
                    if src == dst {
                        // process() never routes shard-local work
                        // through an outbox.
                        continue;
                    }
                    // Outboxes are sized to the shard count at startup.
                    let mut routed = std::mem::take(&mut guards[src].outboxes[dst]);
                    for r in routed.drain(..) {
                        debug_assert!(r.at >= window_end, "lookahead violated at the barrier");
                        // dst ranges over the shard count.
                        guards[dst].enqueue(r.at, r.key, r.ev, r.meta);
                    }
                    // src/dst range over the shard count, as above.
                    guards[src].outboxes[dst] = routed;
                }
            }

            last_window_end = window_end;
            fold_pending += 1;
            if fold_pending >= fold_every {
                coord.fold(&mut guards, window_end);
                fold_pending = 0;
            }
        }
        drop(guards);
    });
    exec.pool_spawns = spawned as u64;

    // Recover the shards from their pool cells for final accounting.
    let mut shards: Vec<Shard<A, P>> = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    // Merge per-shard counters (pure event counts: sum is exact).
    let mut counters = ShardCounters::default();
    for shard in &shards {
        counters.merge(&shard.counters);
    }

    // Assemble the execution profile: per-shard drain accounting merged
    // with the coordinator's barrier-wait half, slices interleaved on
    // the shared wall-clock timeline.
    let shard_profile = coord_prof.map(|cp| {
        let mut profile = ShardProfile {
            shards: shards_n,
            windows: exec.windows_advanced,
            shard_drain_ns: Vec::with_capacity(shards_n),
            shard_windows: Vec::with_capacity(shards_n),
            shard_events: Vec::with_capacity(shards_n),
            coordinator_busy_ns: cp.busy_ns,
            coordinator_wait_ns: cp.wait_ns,
            window_occupancy: Log2Histogram::new(),
            outbox_depth: cp.outbox_depth,
            slices: cp.wait_slices,
            slices_dropped: cp.slices_dropped,
            barriers_us: cp.barriers_us,
        };
        for shard in &mut shards {
            // Profiling is a run-wide switch: every shard carries state.
            // Invariant: this branch only runs when coord_prof was
            // built, and every shard then got a profiler at construction.
            let sp = shard
                .prof
                .as_mut()
                // adc-lint: allow(panic)
                .expect("profiled run built shard profilers");
            profile.shard_drain_ns.push(sp.drain_ns);
            profile.shard_windows.push(sp.windows);
            profile.shard_events.push(sp.events);
            profile.window_occupancy.merge(&sp.occupancy);
            profile.slices.append(&mut sp.slices);
            // Fold of per-shard caps into the report total.
            // adc-lint: allow(obs-coverage)
            profile.slices_dropped += sp.slices_dropped;
        }
        profile
            .slices
            .sort_unstable_by_key(|s| (s.start_us, s.lane));
        profile
    });
    // Open loop counts one injection event per arrival plus the final
    // exhausted pull next to the deliveries.
    let events_processed = if sequential {
        counters.messages_delivered
    } else {
        counters.messages_delivered + coord.injected + 1
    };

    // Collect per-proxy outputs in id order via the round-robin layout.
    let per_proxy = (0..n_proxies)
        // Proxy p lives on shard p % N at local index p / N.
        .map(|p| *shards[p % shards_n].agents[p / shards_n].stats())
        .collect();
    let final_cache_sizes = (0..n_proxies)
        // Same round-robin addressing as above.
        .map(|p| shards[p % shards_n].agents[p / shards_n].cached_objects())
        .collect();

    let report = SimReport {
        completed: coord.completed,
        hits: coord.hits,
        phases: coord.phases,
        hops: coord.hops,
        latency_us: coord.latency,
        latency_p50_us: coord.latency_p50.value().unwrap_or(0.0),
        latency_p99_us: coord.latency_p99.value().unwrap_or(0.0),
        hit_series: coord.hit_sampler.into_series(),
        hops_series: coord.hops_sampler.into_series(),
        per_proxy,
        final_cache_sizes,
        occupancy_series: coord
            .occupancy
            .map(|samplers| {
                samplers
                    .into_iter()
                    .enumerate()
                    .map(|(i, sampler)| {
                        let mut series = sampler.into_series();
                        series.name = format!("proxy{i}");
                        series
                    })
                    .collect()
            })
            .unwrap_or_default(),
        messages_delivered: counters.messages_delivered,
        events_processed,
        peak_flows: coord.peak_flows,
        duplicates_injected: counters.duplicates_injected,
        client_orphans: counters.client_orphans,
        orphan_origin_requests: counters.orphan_origin_requests,
        proxies_reset: coord.proxies_reset,
        bytes_from_origin: counters.bytes_from_origin,
        bytes_from_caches: counters.bytes_from_caches,
        // Tracing runs on one shard only (see validate()).
        trace: shards.iter_mut().find_map(|s| s.trace.take()),
        convergence: coord.conv.map(|c| c.tracker.into_report()),
        metrics: None,
        shard_exec: Some(exec),
        spans: None,
        shard_profile,
        wall_time: wall_start.elapsed(),
        cpu_time: crate::cputime::thread_cpu_now().saturating_sub(cpu_start),
    };

    // Tear the shards down: agents back into proxy-id order, registries
    // folded through the exact merge.
    let mut agent_iters: Vec<std::vec::IntoIter<A>> = Vec::with_capacity(shards_n);
    let mut registries: Vec<Registry> = Vec::new();
    for shard in shards {
        agent_iters.push(shard.agents.into_iter());
        registries.extend(shard.probe.into_registry());
    }
    let agents: Vec<A> = (0..n_proxies)
        .map(|p| {
            // Shard p % N yields its agents in local (ascending id)
            // order, so proxy p is the next item of iterator p % N.
            match agent_iters[p % shards_n].next() {
                Some(a) => a,
                // Partitioning placed exactly n agents.
                None => unreachable!("shard ran out of agents"),
            }
        })
        .collect();
    let registry = (!registries.is_empty()).then(|| Registry::merge_all(registries.iter()));

    (report, agents, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy};
    use adc_workload::StationaryZipf;

    fn adc_agents(n: u32) -> Vec<AdcProxy> {
        let config = AdcConfig::builder()
            .single_capacity(64)
            .multiple_capacity(64)
            .cache_capacity(32)
            .max_hops(8)
            .build();
        (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
            .collect()
    }

    /// Default-latency config (the sharded executor needs positive
    /// latencies for its lookahead bound).
    fn config() -> SimConfig {
        SimConfig {
            hit_window: 500,
            sample_every: 500,
            ..SimConfig::default()
        }
    }

    #[test]
    fn lookahead_is_min_latency_over_cross_shard_edges() {
        let c = config();
        // Default model: client_proxy 1ms, proxy_proxy 2ms → W = 1ms.
        assert_eq!(lookahead_us(&c, 5), 1_000);
        // Single proxy: no proxy↔proxy edges, W = client_proxy.
        assert_eq!(lookahead_us(&c, 1), 1_000);
        // A matrix with a faster off-diagonal pair tightens W.
        let mut m = vec![vec![SimTime::from_micros(700); 3]; 3];
        m[0][0] = SimTime::ZERO; // diagonal never constrains W
        let c = SimConfig {
            proxy_latency_matrix: Some(m),
            ..config()
        };
        assert_eq!(lookahead_us(&c, 3), 700);
    }

    #[test]
    fn sequential_sharded_matches_single_threaded_exactly() {
        let workload = || StationaryZipf::new(120, 0.9, 6, 7).take(2_500);
        let one = Simulation::new(adc_agents(3), config()).run(workload());
        for shards in [1, 2, 3, 5] {
            let sharded = Simulation::new(adc_agents(3), config()).run_sharded(workload(), shards);
            assert_eq!(one.completed, sharded.completed, "shards={shards}");
            assert_eq!(one.hits, sharded.hits, "shards={shards}");
            assert_eq!(
                one.messages_delivered, sharded.messages_delivered,
                "shards={shards}"
            );
            assert_eq!(
                one.events_processed, sharded.events_processed,
                "shards={shards}"
            );
            assert_eq!(one.hit_series, sharded.hit_series, "shards={shards}");
            assert_eq!(one.peak_flows, sharded.peak_flows, "shards={shards}");
            assert_eq!(one.per_proxy, sharded.per_proxy, "shards={shards}");
        }
    }

    #[test]
    fn open_loop_sharded_is_shard_count_invariant() {
        let mut c = config();
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(100),
        };
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_500);
        let run =
            |shards| Simulation::new(adc_agents(4), c.clone()).run_sharded(workload(), shards);
        let one = run(1);
        assert_eq!(one.completed, 1_500);
        for shards in [2, 3, 7] {
            let k = run(shards);
            assert_eq!(one.completed, k.completed, "shards={shards}");
            assert_eq!(one.hits, k.hits, "shards={shards}");
            assert_eq!(
                one.messages_delivered, k.messages_delivered,
                "shards={shards}"
            );
            assert_eq!(one.events_processed, k.events_processed, "shards={shards}");
            assert_eq!(one.peak_flows, k.peak_flows, "shards={shards}");
            assert_eq!(one.hit_series, k.hit_series, "shards={shards}");
            assert_eq!(one.per_proxy, k.per_proxy, "shards={shards}");
        }
        // Open loop genuinely overlaps flows.
        assert!(one.peak_flows > 1, "open loop should overlap flows");
    }

    #[test]
    fn tuning_matrix_is_byte_identical() {
        // Every synchronization knob is pure execution strategy: the
        // deterministic report bytes must not move across any pool /
        // widening / fold-batch combination, in either injection mode,
        // with barrier-driven state sampling on and off.
        use crate::config::ShardTuning;
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_000);
        for open_loop in [false, true] {
            for occupancy in [false, true] {
                let mut base = config();
                base.sample_occupancy = occupancy;
                if open_loop {
                    base.injection = InjectionMode::OpenLoop {
                        interval: SimTime::from_micros(60),
                    };
                }
                let reference = Simulation::new(adc_agents(3), base.clone())
                    .run_sharded(workload(), 3)
                    .to_deterministic_json();
                for pool_threads in [Some(0), Some(2)] {
                    for widen in [false, true] {
                        for fold_batch in [1, 7] {
                            for profile in [false, true] {
                                let mut c = base.clone();
                                c.shard = ShardTuning {
                                    pool_threads,
                                    widen,
                                    fold_batch,
                                    profile,
                                };
                                let r =
                                    Simulation::new(adc_agents(3), c).run_sharded(workload(), 3);
                                assert_eq!(
                                    reference,
                                    r.to_deterministic_json(),
                                    "bytes moved at open_loop={open_loop} \
                                     occupancy={occupancy} pool={pool_threads:?} \
                                     widen={widen} fold={fold_batch} profile={profile}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn profiling_collects_drain_wait_and_histograms() {
        // Open loop keeps several shards busy per window so the profile
        // has real drain slices and outbox traffic to account for.
        let workload = || StationaryZipf::new(100, 0.9, 8, 5).take(2_000);
        let mut cfg = config();
        cfg.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(60),
        };
        cfg.shard.pool_threads = Some(3);
        cfg.shard.profile = true;
        let report = Simulation::new(adc_agents(8), cfg).run_sharded(workload(), 4);
        let p = report.shard_profile.expect("profile=true populates it");
        assert_eq!(p.shards, 4);
        assert_eq!(p.shard_drain_ns.len(), 4);
        assert_eq!(p.shard_windows.len(), 4);
        assert_eq!(p.shard_events.len(), 4);
        assert!(p.windows > 0, "{p:?}");
        assert!(p.total_drain_ns() > 0, "{p:?}");
        // Occupancy records every invoked drain; its sum is exactly the
        // events the shards processed.
        assert!(p.window_occupancy.count() > 0);
        assert_eq!(p.window_occupancy.sum(), p.shard_events.iter().sum::<u64>());
        assert!(p.outbox_depth.count() > 0, "barriers inspect outboxes");
        assert!(p.imbalance_coefficient() >= 1.0, "{p:?}");
        let frac = p.barrier_wait_fraction();
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        assert!(!p.slices.is_empty(), "non-empty drains leave slices");
        assert!(
            p.slices.windows(2).all(|w| w[0].start_us <= w[1].start_us),
            "slices sorted by start time"
        );
        assert!(!p.barriers_us.is_empty());
        // The slices render into a parseable chrome trace with shard
        // lanes plus the coordinator wait lane.
        let trace = adc_obs::shard_lanes_to_chrome_trace(p.shards, &p.slices, &p.barriers_us);
        assert!(trace.starts_with('{') && trace.ends_with('}'), "{trace}");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"shard 0\""));
        assert!(trace.contains("\"coordinator\""));
        // Default config leaves profiling off and the report clean.
        let plain = Simulation::new(adc_agents(8), config()).run_sharded(workload(), 4);
        assert!(plain.shard_profile.is_none());
    }

    #[test]
    fn widening_engages_and_reports_stats() {
        // Sequential mode is always widening-eligible: a flow's origin
        // round trip leaves only origin-/client-bound work pending, so
        // the barrier regularly jumps several windows at once.
        let workload = || StationaryZipf::new(80, 0.9, 4, 5).take(600);
        let on = Simulation::new(adc_agents(3), config()).run_sharded(workload(), 3);
        let exec_on = on.shard_exec.expect("sharded runs report exec stats");
        assert!(exec_on.windows_widened > 0, "{exec_on:?}");
        assert!(exec_on.windows_skipped > 0, "{exec_on:?}");
        let mut off_cfg = config();
        off_cfg.shard.widen = false;
        let off = Simulation::new(adc_agents(3), off_cfg).run_sharded(workload(), 3);
        let exec_off = off.shard_exec.expect("sharded runs report exec stats");
        assert_eq!(exec_off.windows_widened, 0, "{exec_off:?}");
        assert_eq!(exec_off.windows_skipped, 0, "{exec_off:?}");
        // Widening exists to cut barrier count; the report bytes stay.
        assert!(
            exec_on.windows_advanced < exec_off.windows_advanced,
            "{exec_on:?} vs {exec_off:?}"
        );
        assert_eq!(on.to_deterministic_json(), off.to_deterministic_json());
        // Open loop with state sampling active must hold the plain
        // barrier grid (widening auto-disabled), even when requested.
        let mut sampled = config();
        sampled.sample_occupancy = true;
        sampled.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(100),
        };
        let s = Simulation::new(adc_agents(3), sampled).run_sharded(workload(), 3);
        let exec_s = s.shard_exec.expect("sharded runs report exec stats");
        assert_eq!(exec_s.windows_widened, 0, "{exec_s:?}");
        // ...and without samplers, a sparse open-loop arrival schedule
        // widens across the idle stretches between arrivals.
        let mut sparse = config();
        sparse.sample_occupancy = false;
        sparse.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(5_000),
        };
        let sp = Simulation::new(adc_agents(3), sparse).run_sharded(workload(), 3);
        let exec_sp = sp.shard_exec.expect("sharded runs report exec stats");
        assert!(exec_sp.windows_widened > 0, "{exec_sp:?}");
    }

    #[test]
    fn forced_pool_threads_keep_identity_and_report_spawns() {
        // Forcing workers on a single-core host still yields identical
        // bytes (the pool protocol is order-free by construction), and
        // the spawn telemetry reflects the forced pool.
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_000);
        let mut c = config();
        c.sample_occupancy = false;
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(60),
        };
        let mut inline_cfg = c.clone();
        inline_cfg.shard.pool_threads = Some(0);
        let inline = Simulation::new(adc_agents(4), inline_cfg).run_sharded(workload(), 4);
        assert_eq!(
            inline
                .shard_exec
                .expect("sharded runs report exec stats")
                .pool_spawns,
            0,
            "pool_threads=0 must never spawn"
        );
        let mut forced_cfg = c.clone();
        forced_cfg.shard.pool_threads = Some(3);
        let forced = Simulation::new(adc_agents(4), forced_cfg).run_sharded(workload(), 4);
        let exec = forced.shard_exec.expect("sharded runs report exec stats");
        assert!(exec.pool_spawns > 0, "{exec:?}");
        assert!(exec.pool_spawns <= 3, "{exec:?}");
        assert_eq!(
            inline.to_deterministic_json(),
            forced.to_deterministic_json()
        );
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn faulty_configs_rejected() {
        let mut c = config();
        c.faults.duplicate_prob = 0.1;
        let _ = Simulation::new(adc_agents(2), c).run_sharded(std::iter::empty(), 2);
    }

    #[test]
    #[should_panic(expected = "lookahead bound")]
    fn instant_networks_rejected() {
        let _ =
            Simulation::new(adc_agents(2), SimConfig::fast()).run_sharded(std::iter::empty(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 0);
    }

    #[test]
    fn empty_workload_is_a_clean_no_op() {
        let report = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.events_processed, 0);
        let mut c = config();
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(50),
        };
        let report = Simulation::new(adc_agents(2), c).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        // Open loop counts the final exhausted pull as an event.
        assert_eq!(report.events_processed, 1);
    }
}
