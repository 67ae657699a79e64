//! The paper's *predecessor* algorithm: Unlimited Adaptive Distributed
//! Caching (§II.3, reference [11]).
//!
//! "In our next step we tried to overcome the drawbacks of SOAP ... by a
//! direct mapping of each object onto exactly one location. ... the
//! mapping table that stores the URL mappings needed to be very large to
//! be able to store an entry for every experienced object-ID and we
//! accepted this drawback by letting the table grow indefinitely."
//!
//! [`UnlimitedAdcProxy`] keeps one unbounded mapping table (instead of
//! the bounded single/multiple tables) plus the same selective caching
//! table. It is the natural upper-bound comparison for the bounded
//! three-table design this repository reproduces: the paper's
//! contribution is showing the bounded tables reach the same performance
//! with fixed memory.

use crate::agent::{ActionSink, CacheAgent, CacheEvent};
use crate::entry::{TableEntry, Tick};
use crate::hash::IdMap;
use crate::ids::{Location, NodeId, ObjectId, ProxyId};
use crate::message::{Reply, Request};
use crate::pending::PendingHops;
use crate::proxy::DEFAULT_OBJECT_SIZE;
use crate::stats::ProxyStats;
use crate::tables::ordered::{OrderKey, Ordered};
use adc_obs::{Probe, SimEvent, TableLevel};
use rand::Rng;
use rand::RngCore;
use std::collections::hash_map::Entry;

/// One mapping row and, when the object is cached, the sequence number
/// of its key in the caching table's order.
#[derive(Debug, Clone, Copy)]
struct Row {
    entry: TableEntry,
    cached: Option<u64>,
}

/// An ADC proxy with an unbounded mapping table (the paper's earlier
/// design, for comparison).
///
/// # Examples
///
/// ```
/// use adc_core::{CacheAgent, ProxyId, UnlimitedAdcProxy};
///
/// let proxy = UnlimitedAdcProxy::new(ProxyId::new(0), 5, 10_000, 16);
/// assert_eq!(proxy.proxy_id(), ProxyId::new(0));
/// assert_eq!(proxy.mapping_entries(), 0); // grows without bound from here
/// ```
#[derive(Debug)]
pub struct UnlimitedAdcProxy {
    id: ProxyId,
    peers: Vec<ProxyId>,
    max_hops: u32,
    /// Every object ever seen → its row in `rows`.
    index: IdMap<ObjectId, usize>,
    /// The unbounded mapping, one row per object in order of first
    /// sighting; rows are never removed (until a reset).
    rows: Vec<Row>,
    /// Bounded selective caching table over `rows`, ordered as in the
    /// bounded design.
    cached: Ordered,
    next_seq: u64,
    pending: PendingHops,
    local_time: Tick,
    stats: ProxyStats,
    cache_events: Vec<CacheEvent>,
}

impl UnlimitedAdcProxy {
    /// Creates a proxy in a dense deployment of `num_proxies`.
    ///
    /// # Panics
    ///
    /// Panics if `num_proxies` or `cache_capacity` or `max_hops` is zero,
    /// or `id` is out of range.
    pub fn new(id: ProxyId, num_proxies: u32, cache_capacity: usize, max_hops: u32) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(id.raw() < num_proxies, "proxy id out of range");
        assert!(max_hops > 0, "max_hops must be positive");
        UnlimitedAdcProxy {
            id,
            peers: (0..num_proxies).map(ProxyId::new).collect(),
            max_hops,
            index: IdMap::default(),
            rows: Vec::new(),
            cached: Ordered::new(cache_capacity),
            next_seq: 0,
            pending: PendingHops::new(),
            local_time: 0,
            stats: ProxyStats::default(),
            cache_events: Vec::new(),
        }
    }

    /// Current number of mapping entries — the unbounded memory cost the
    /// bounded three-table design exists to avoid.
    pub fn mapping_entries(&self) -> usize {
        self.rows.len()
    }

    /// The proxy's local request-count clock.
    pub fn local_time(&self) -> Tick {
        self.local_time
    }

    /// Number of requests awaiting replies.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    fn update_entry<P: Probe>(&mut self, object: ObjectId, location: Location, probe: &mut P) {
        let now = self.local_time;
        let slot = match self.index.entry(object) {
            Entry::Occupied(found) => *found.get(),
            Entry::Vacant(vacant) => {
                // Unbounded growth: every new object gets an entry,
                // forever.
                vacant.insert(self.rows.len());
                self.rows.push(Row {
                    entry: TableEntry::new(object, location, now),
                    cached: None,
                });
                return;
            }
        };
        let Row { entry, cached } = *self.row_at(slot);
        if let Some(seq) = cached {
            // Cached entries refresh in place.
            self.cached.remove(OrderKey {
                average: entry.average,
                seq,
                slot,
            });
        }
        let entry = &mut self.row_mut(slot).entry;
        if entry.last != now {
            entry.calc_average(now);
        }
        entry.location = location;
        let (average, has_average) = (entry.average, entry.has_average());
        if cached.is_some() {
            self.insert_cached(slot);
            return;
        }
        // Selective admission straight from the unbounded map.
        let admitted = has_average
            && self
                .cached
                .admits(average, now, true, |s| &self.row_at(s).entry);
        if !admitted {
            return;
        }
        if self.cached.is_full() {
            if let Some(worst) = self.cached.pop_worst() {
                let row = self.row_mut(worst.slot);
                row.cached = None;
                let evicted = row.entry.object;
                self.stats.cache_evictions += 1;
                self.cache_events.push(CacheEvent::Evict(evicted));
                if P::ENABLED {
                    probe.emit(SimEvent::CacheEvict {
                        proxy: self.id.raw(),
                        object: evicted.raw(),
                    });
                    probe.emit(SimEvent::TableMigration {
                        proxy: self.id.raw(),
                        object: evicted.raw(),
                        from: TableLevel::Caching,
                        to: TableLevel::Multiple,
                    });
                }
            }
        }
        self.stats.cache_insertions += 1;
        self.cache_events.push(CacheEvent::Store(object));
        if P::ENABLED {
            probe.emit(SimEvent::CacheInsert {
                proxy: self.id.raw(),
                object: object.raw(),
            });
            // The unbounded map plays the multiple-table's role.
            probe.emit(SimEvent::TableMigration {
                proxy: self.id.raw(),
                object: object.raw(),
                from: TableLevel::Multiple,
                to: TableLevel::Caching,
            });
        }
        self.insert_cached(slot);
    }

    /// Keys row `slot` into the caching table under a fresh sequence
    /// number. The caller has made room.
    fn insert_cached(&mut self, slot: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let row = self.row_mut(slot);
        row.cached = Some(seq);
        let average = row.entry.average;
        self.cached.insert(OrderKey { average, seq, slot });
    }

    fn row(&self, object: ObjectId) -> Option<&Row> {
        self.index.get(&object).map(|&slot| self.row_at(slot))
    }

    /// The row in `slot`. Every slot id the proxy stores — in the index
    /// or in an order key — names a pushed row, and rows are only dropped
    /// all at once by a reset, so stored ids are always in bounds.
    fn row_at(&self, slot: usize) -> &Row {
        &self.rows[slot] // in bounds: see above
    }

    /// Mutable [`Self::row_at`].
    fn row_mut(&mut self, slot: usize) -> &mut Row {
        &mut self.rows[slot] // in bounds: see `row_at`
    }

    fn lookup_location(&self, object: ObjectId) -> Option<Location> {
        self.row(object).map(|r| r.entry.location)
    }
}

impl CacheAgent for UnlimitedAdcProxy {
    fn proxy_id(&self) -> ProxyId {
        self.id
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        self.local_time += 1;
        self.stats.requests_received += 1;
        let object = request.object;

        if self.is_cached(object) {
            self.stats.local_hits += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LocalHit {
                    proxy: self.id.raw(),
                    object: object.raw(),
                });
            }
            self.update_entry(object, Location::This, probe);
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.sender, reply);
            return;
        }

        let loop_detected = self.pending.push(request.id, request.sender);

        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;

        let to = if loop_detected {
            self.stats.origin_loops += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LoopDetected {
                    proxy: self.id.raw(),
                    object: object.raw(),
                });
            }
            NodeId::Origin
        } else if request.hops >= self.max_hops {
            self.stats.origin_max_hops += 1;
            if P::ENABLED {
                probe.emit(SimEvent::HopLimitHit {
                    proxy: self.id.raw(),
                    object: object.raw(),
                    hops: request.hops,
                });
            }
            NodeId::Origin
        } else {
            match self.lookup_location(object) {
                Some(Location::Remote(p)) => {
                    self.stats.forwards_learned += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::ForwardLearned {
                            proxy: self.id.raw(),
                            object: object.raw(),
                            to: p.raw(),
                        });
                    }
                    NodeId::Proxy(p)
                }
                Some(Location::This) => {
                    self.stats.origin_this_miss += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::OriginThisMiss {
                            proxy: self.id.raw(),
                            object: object.raw(),
                        });
                    }
                    NodeId::Origin
                }
                None => {
                    self.stats.forwards_random += 1;
                    let i = rng.gen_range(0..self.peers.len());
                    let to = self.peers[i]; // i < peers.len() by gen_range
                    if P::ENABLED {
                        probe.emit(SimEvent::ForwardRandom {
                            proxy: self.id.raw(),
                            object: object.raw(),
                            to: to.raw(),
                        });
                    }
                    NodeId::Proxy(to)
                }
            }
        };
        out.send(to, forwarded);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let Some(prev_hop) = self.pending.pop(reply.id) else {
            self.stats.replies_orphaned += 1;
            if P::ENABLED {
                probe.emit(SimEvent::ReplyOrphaned {
                    proxy: self.id.raw(),
                    object: reply.object.raw(),
                });
            }
            return;
        };
        self.stats.replies_processed += 1;

        let mut reply = reply;
        if reply.resolver.is_none() {
            reply.resolver = Some(self.id);
        }
        // Invariant: set two lines above when None. adc-lint: allow(panic)
        let resolver = reply.resolver.expect("resolver was just set");
        if P::ENABLED && resolver != self.id {
            probe.emit(SimEvent::BackwardAdoption {
                proxy: self.id.raw(),
                object: reply.object.raw(),
                owner: resolver.raw(),
            });
        }
        self.update_entry(reply.object, Location::from_proxy(resolver, self.id), probe);

        if self.is_cached(reply.object) && reply.cached_by.is_none() {
            reply.resolver = Some(self.id);
            reply.cached_by = Some(self.id);
        }
        out.send(prev_hop, reply);
    }

    fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.cache_events)
    }

    fn cached_objects(&self) -> usize {
        self.cached.len()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.row(object).is_some_and(|r| r.cached.is_some())
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        self.lookup_location(object).map(|l| l.resolve(self.id))
    }

    fn reset(&mut self) {
        self.index.clear();
        self.rows.clear();
        self.cached.clear();
        self.pending.clear();
        self.cache_events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Action;
    use crate::ids::{ClientId, RequestId};
    use crate::message::Message;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(seq: u64, object: u64) -> Request {
        Request::new(
            RequestId::new(ClientId::new(0), seq),
            ObjectId::new(object),
            ClientId::new(0),
        )
    }

    fn resolve(p: &mut UnlimitedAdcProxy, rng: &mut StdRng, seq: u64, object: u64) {
        let mut inbox = vec![Message::Request(req(seq, object))];
        while let Some(message) = inbox.pop() {
            let action = match message {
                Message::Request(r) => Some(p.request_action(r, rng)),
                Message::Reply(r) => p.reply_action(r),
            };
            if let Some(Action::Send { to, message }) = action {
                match to {
                    NodeId::Proxy(_) => inbox.push(message),
                    NodeId::Origin => {
                        if let Message::Request(f) = message {
                            inbox.push(Message::Reply(Reply::from_origin(&f, 64)));
                        }
                    }
                    NodeId::Client(_) => {}
                }
            }
        }
    }

    #[test]
    fn mapping_grows_without_bound() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 4, 8);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..100 {
            resolve(&mut p, &mut rng, i, i);
        }
        // Every distinct object keeps an entry — no single-table bound.
        assert_eq!(p.mapping_entries(), 100);
        assert!(p.cached_objects() <= 4);
    }

    #[test]
    fn repeated_objects_get_cached() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 4, 8);
        let mut rng = StdRng::seed_from_u64(1);
        for seq in 0..4 {
            resolve(&mut p, &mut rng, seq, 42);
        }
        assert!(p.is_cached(ObjectId::new(42)));
        // A later request is a local hit.
        let hits_before = p.stats().local_hits;
        let Action::Send { to, .. } = p.request_action(req(9, 42), &mut rng);
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert_eq!(p.stats().local_hits, hits_before + 1);
        assert_eq!(p.pending_requests(), 0);
    }

    #[test]
    fn cache_displacement_returns_entry_to_mapping() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 1, 8);
        let mut rng = StdRng::seed_from_u64(1);
        // Object 1 cached (slow), object 2 much hotter displaces it.
        for seq in [0, 10, 20] {
            resolve(&mut p, &mut rng, seq, 1);
        }
        assert!(p.is_cached(ObjectId::new(1)));
        for seq in [21, 22, 23, 24] {
            resolve(&mut p, &mut rng, seq, 2);
        }
        assert!(p.is_cached(ObjectId::new(2)));
        assert!(!p.is_cached(ObjectId::new(1)));
        // Object 1's entry (and learned location) survives in the map.
        assert!(p.lookup_location(ObjectId::new(1)).is_some());
        assert_eq!(p.stats().cache_evictions, 1);
    }

    #[test]
    fn hits_single_entry_invariant() {
        // Every object keeps exactly one row, and the caching table's
        // order keys name exactly the rows marked cached.
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 2, 8);
        let mut rng = StdRng::seed_from_u64(3);
        for seq in 0..200u64 {
            resolve(&mut p, &mut rng, seq, seq % 7);
        }
        assert_eq!(p.mapping_entries(), 7);
        for o in 0..7u64 {
            assert!(p.row(ObjectId::new(o)).is_some(), "object {o} lost");
        }
        let marked: Vec<usize> = (0..p.rows.len())
            .filter(|&s| p.rows[s].cached.is_some())
            .collect();
        let mut keyed: Vec<usize> = p.cached.iter().map(|k| k.slot).collect();
        keyed.sort_unstable();
        assert_eq!(marked, keyed);
        assert!(keyed.len() <= 2);
        for k in p.cached.iter() {
            assert_eq!(p.rows[k.slot].cached, Some(k.seq));
            assert_eq!(p.rows[k.slot].entry.average, k.average);
        }
    }
}
