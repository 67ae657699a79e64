//! Timing wrappers around the public calls into `adc-core` and
//! `adc-workload`. They live in the benchmark, so the traced run measures
//! the unmodified program from outside.

use crate::measure::ns_since;
use adc_core::{
    ActionSink, CacheAgent, CacheEvent, ObjectId, Probe, ProxyId, ProxyStats, Reply, Request,
};
use adc_workload::{Phase, RequestRecord};
use rand::RngCore;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The phase of the most recently injected record, written by the trace
/// iterator and read by every agent wrapper. It publishes no other data,
/// so relaxed ordering suffices; under open-loop injection a call is
/// attributed to the phase being injected when it ran.
#[derive(Debug, Clone, Default)]
pub struct PhaseCell(Arc<AtomicU8>);

impl PhaseCell {
    fn set(&self, phase: Phase) {
        let index = match phase {
            Phase::Fill => 0,
            Phase::RequestI => 1,
            Phase::RequestII => 2,
        };
        self.0.store(index, Ordering::Relaxed);
    }

    fn get(&self) -> usize {
        usize::from(self.0.load(Ordering::Relaxed))
    }
}

/// Call count and summed raw span time of one timed entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Timed calls.
    pub calls: u64,
    /// Summed span time in nanoseconds, clock cost included.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Folds another span total into this one.
    pub fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// A [`CacheAgent`] that delegates every method to `inner` and times
/// only [`CacheAgent::on_request`] and [`CacheAgent::on_reply`].
#[derive(Debug)]
pub struct TimedAgent<A> {
    inner: A,
    phase: PhaseCell,
    /// `on_request` calls and time.
    pub on_request: Span,
    /// `on_reply` calls and time.
    pub on_reply: Span,
    /// Both entry points, split by the phase of the latest injected
    /// record: fill, phase I, phase II.
    pub by_phase: [Span; 3],
}

impl<A: CacheAgent> TimedAgent<A> {
    /// Wraps `inner`, attributing calls to the phase `phase` holds.
    pub fn new(inner: A, phase: PhaseCell) -> Self {
        TimedAgent {
            inner,
            phase,
            on_request: Span::default(),
            on_reply: Span::default(),
            by_phase: [Span::default(); 3],
        }
    }

    /// Wraps every agent of a cluster around one shared phase cell.
    pub fn wrap_all(agents: Vec<A>, phase: &PhaseCell) -> Vec<Self> {
        agents
            .into_iter()
            .map(|a| TimedAgent::new(a, phase.clone()))
            .collect()
    }
}

impl<A: CacheAgent> CacheAgent for TimedAgent<A> {
    fn proxy_id(&self) -> ProxyId {
        self.inner.proxy_id()
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        let phase = self.phase.get();
        let start = Instant::now();
        self.inner.on_request(request, rng, probe, out);
        let ns = ns_since(start);
        self.on_request.add(ns);
        self.by_phase[phase].add(ns);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let phase = self.phase.get();
        let start = Instant::now();
        self.inner.on_reply(reply, probe, out);
        let ns = ns_since(start);
        self.on_reply.add(ns);
        self.by_phase[phase].add(ns);
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        self.inner.owner_hint(object)
    }

    fn stats(&self) -> &ProxyStats {
        self.inner.stats()
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        self.inner.drain_cache_events()
    }

    fn cached_objects(&self) -> usize {
        self.inner.cached_objects()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.inner.is_cached(object)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Agent time summed over a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentTimes {
    /// `on_request` totals.
    pub on_request: Span,
    /// `on_reply` totals.
    pub on_reply: Span,
    /// Both entry points by phase.
    pub by_phase: [Span; 3],
}

impl AgentTimes {
    /// Adds one agent's totals.
    pub fn add<A>(&mut self, agent: &TimedAgent<A>) {
        self.on_request.merge(agent.on_request);
        self.on_reply.merge(agent.on_reply);
        for (sum, part) in self.by_phase.iter_mut().zip(agent.by_phase) {
            sum.merge(part);
        }
    }

    /// Both entry points together.
    pub fn total(&self) -> Span {
        let mut all = self.on_request;
        all.merge(self.on_reply);
        all
    }
}

/// An iterator over trace records that times each `next()` and
/// publishes the phase of every record it yields. Pass it as
/// `&mut TimedTrace` so the totals stay readable after the run.
#[derive(Debug)]
pub struct TimedTrace<I> {
    inner: I,
    phase: PhaseCell,
    /// `next()` calls and time.
    pub next: Span,
}

impl<I: Iterator<Item = RequestRecord>> TimedTrace<I> {
    /// Times `inner`, publishing phases into `phase`.
    pub fn new(inner: I, phase: PhaseCell) -> Self {
        TimedTrace {
            inner,
            phase,
            next: Span::default(),
        }
    }
}

impl<I: Iterator<Item = RequestRecord>> Iterator for TimedTrace<I> {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let start = Instant::now();
        let record = self.inner.next();
        self.next.add(ns_since(start));
        if let Some(r) = &record {
            self.phase.set(r.phase);
        }
        record
    }
}
