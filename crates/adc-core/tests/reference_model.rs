//! The reference model: a plain transcription of §III of the paper —
//! `Receive_Request` (Fig. 5), `Forward_Request`/`Forward_Addr`,
//! `Receive_Reply` (Fig. 7), `Update_Entry` (Fig. 8), `Calc_Average`
//! (Fig. 9) and the aging rule of Fig. 4 — written with `Vec`s and linear
//! scans and no cleverness, and a differential property test that drives
//! it and the optimized [`AdcProxy`] with the same messages.
//!
//! After every delivery the two must agree on the action sent, the
//! contents and order of all three tables, the counters, the cache
//! store/evict events and the pending-request count. The inputs use tiny
//! tables, so rows are displaced from every table (including the caching
//! table, which the paper-scale runs never evict from), plus reused
//! request ids (loops), hop counts at and past the limit, orphaned and
//! mismatched replies, both aging modes and the cache-everything LRU
//! ablation.
//!
//! Besides the paper's text the model carries the two refinements the
//! implementation documents in `MappingTables::update_entry`: a second
//! update at the same local time refreshes only the location (a looping
//! request's backwarding pass must not count as a second request), and a
//! single-table row moves up only once it has a real average (two hits).

use adc_core::{
    Action, ActionSink, AdcConfig, AdcProxy, AgingMode, CacheAgent, CacheEvent, CachePolicy,
    ClientId, Location, Message, NodeId, NullProbe, ObjectId, ProxyId, ProxyStats, Reply, Request,
    RequestId, TableEntry, Tick, DEFAULT_OBJECT_SIZE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One row of the paper's tables: `(OBJ-ID, PROXY, LAST, AVG, HITS)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    obj: ObjectId,
    proxy: Location,
    last: Tick,
    avg: Tick,
    hits: u64,
}

impl Row {
    fn of(e: &TableEntry) -> Row {
        Row {
            obj: e.object,
            proxy: e.location,
            last: e.last,
            avg: e.average,
            hits: e.hits,
        }
    }
}

/// `Calc_Average()` (Fig. 9): the first gap is the first approximation,
/// afterwards a two-point moving average.
fn calc_average(row: &mut Row, now: Tick) {
    if row.hits == 1 {
        row.avg = now - row.last;
    } else {
        row.avg = (row.avg + (now - row.last)) / 2;
    }
    row.hits += 1;
    row.last = now;
}

/// Aging (Fig. 4): `T_age = (T_avg + (T_now − T_last)) / 2`.
fn aged_average(row: &Row, now: Tick) -> Tick {
    (row.avg + (now - row.last)) / 2
}

/// `InsertOrdered`: ascending average; a new row goes behind every row
/// with the same average (FIFO tie-break: the older row ranks better).
fn insert_ordered(table: &mut Vec<Row>, row: Row) {
    let mut pos = 0;
    while pos < table.len() && table[pos].avg <= row.avg {
        pos += 1;
    }
    table.insert(pos, row);
}

fn find(table: &[Row], obj: ObjectId) -> Option<usize> {
    (0..table.len()).find(|&i| table[i].obj == obj)
}

/// A candidate enters an ordered table while it has room; once full,
/// only with a lower average than the worst (last) row — that row's aged
/// average when aging is on.
fn admits(table: &[Row], capacity: usize, avg: Tick, now: Tick, aged: bool) -> bool {
    if table.len() < capacity {
        return true;
    }
    let worst = table[table.len() - 1];
    let threshold = if aged {
        aged_average(&worst, now)
    } else {
        worst.avg
    };
    avg < threshold
}

/// What one `Update_Entry` did to the caching table.
#[derive(Debug, Default)]
struct Moves {
    admitted: bool,
    evicted: Option<ObjectId>,
}

/// The single-, multiple- and caching table (§III.3).
#[derive(Debug)]
struct RefTables {
    /// Newest first.
    single: Vec<Row>,
    /// Best (smallest average) first.
    multiple: Vec<Row>,
    /// Best first; stays empty under the LRU ablation.
    cached: Vec<Row>,
    single_cap: usize,
    multiple_cap: usize,
    cache_cap: usize,
    aged: bool,
    selective: bool,
}

impl RefTables {
    /// `Forward_Addr`'s search: caching table, multiple-table,
    /// single-table.
    fn lookup(&self, obj: ObjectId) -> Option<Row> {
        for table in [&self.cached, &self.multiple, &self.single] {
            if let Some(i) = find(table, obj) {
                return Some(table[i]);
            }
        }
        None
    }

    /// `Update_Entry(Object, Location)` (Fig. 8).
    fn update_entry(&mut self, obj: ObjectId, location: Location, now: Tick) -> Moves {
        let mut moves = Moves::default();
        // PART 1: cached — refresh and re-sort.
        if self.selective {
            if let Some(i) = find(&self.cached, obj) {
                let mut row = self.cached.remove(i);
                if row.last != now {
                    calc_average(&mut row, now);
                }
                row.proxy = location;
                insert_ordered(&mut self.cached, row);
                return moves;
            }
        }
        // PART 2: multiple-table — promote to the cache if it beats the
        // cache's worst row, which drops back to the multiple-table.
        if let Some(i) = find(&self.multiple, obj) {
            let mut row = self.multiple.remove(i);
            if row.last != now {
                calc_average(&mut row, now);
            }
            row.proxy = location;
            if self.selective && admits(&self.cached, self.cache_cap, row.avg, now, self.aged) {
                if self.cached.len() == self.cache_cap {
                    let worst = self.cached.pop().expect("full table has a last row");
                    moves.evicted = Some(worst.obj);
                    insert_ordered(&mut self.multiple, worst);
                }
                insert_ordered(&mut self.cached, row);
                moves.admitted = true;
            } else {
                insert_ordered(&mut self.multiple, row);
            }
            return moves;
        }
        // PART 3: single-table — promote to the multiple-table if it has
        // an average that beats the worst row there, which drops back
        // onto the top of the single-table; otherwise back on top.
        if let Some(i) = find(&self.single, obj) {
            let mut row = self.single.remove(i);
            if row.last != now {
                calc_average(&mut row, now);
            }
            row.proxy = location;
            if row.hits >= 2 && admits(&self.multiple, self.multiple_cap, row.avg, now, self.aged) {
                if self.multiple.len() == self.multiple_cap {
                    let worst = self.multiple.pop().expect("full table has a last row");
                    self.single.insert(0, worst);
                }
                insert_ordered(&mut self.multiple, row);
            } else {
                self.single.insert(0, row);
            }
            return moves;
        }
        // PART 4: unknown — a new row on top; the bottom row is forgotten
        // when the table is full.
        if self.single.len() == self.single_cap {
            self.single.pop();
        }
        let row = Row {
            obj,
            proxy: location,
            last: now,
            avg: 0,
            hits: 1,
        };
        self.single.insert(0, row);
        moves
    }
}

/// One proxy as the paper describes it.
#[derive(Debug)]
struct RefProxy {
    me: ProxyId,
    peers: u32,
    max_hops: u32,
    tables: RefTables,
    /// Under the LRU ablation: the stored objects, most recent first.
    lru: Option<Vec<ObjectId>>,
    /// Backwarding information: request id → stack of previous hops.
    pending: Vec<(RequestId, Vec<NodeId>)>,
    /// Received requests: the proxy's local clock.
    clock: Tick,
    stats: ProxyStats,
    events: Vec<CacheEvent>,
}

impl RefProxy {
    fn new(me: u32, peers: u32, config: &AdcConfig) -> RefProxy {
        let selective = config.policy == CachePolicy::Selective;
        RefProxy {
            me: ProxyId::new(me),
            peers,
            max_hops: config.max_hops,
            tables: RefTables {
                single: Vec::new(),
                multiple: Vec::new(),
                cached: Vec::new(),
                single_cap: config.single_capacity,
                multiple_cap: config.multiple_capacity,
                cache_cap: config.cache_capacity,
                aged: config.aging == AgingMode::AgedWorst,
                selective,
            },
            lru: (!selective).then(Vec::new),
            pending: Vec::new(),
            clock: 0,
            stats: ProxyStats::default(),
            events: Vec::new(),
        }
    }

    /// Whether the object's data is stored here.
    fn holds(&self, obj: ObjectId) -> bool {
        match &self.lru {
            Some(store) => store.contains(&obj),
            None => find(&self.tables.cached, obj).is_some(),
        }
    }

    /// `Update_Entry`, mirrored into the selective store's counters.
    fn update_entry(&mut self, obj: ObjectId, location: Location) {
        let moves = self.tables.update_entry(obj, location, self.clock);
        if self.lru.is_none() {
            if moves.admitted {
                self.stats.cache_insertions += 1;
                self.events.push(CacheEvent::Store(obj));
            }
            if let Some(evicted) = moves.evicted {
                self.stats.cache_evictions += 1;
                self.events.push(CacheEvent::Evict(evicted));
            }
        }
    }

    /// The ablation's store: every passing object goes on top, the
    /// least recently used one leaves when it overflows.
    fn lru_store(&mut self, obj: ObjectId) {
        let capacity = self.tables.cache_cap;
        let Some(store) = self.lru.as_mut() else {
            return;
        };
        if let Some(i) = store.iter().position(|&o| o == obj) {
            store.remove(i);
            store.insert(0, obj);
            return;
        }
        store.insert(0, obj);
        self.stats.cache_insertions += 1;
        self.events.push(CacheEvent::Store(obj));
        if store.len() > capacity {
            let evicted = store.pop().expect("overfull store has a last object");
            self.stats.cache_evictions += 1;
            self.events.push(CacheEvent::Evict(evicted));
        }
    }

    /// `Forward_Addr(Object)`: the learned proxy, the origin when the
    /// entry says `THIS`, or a random proxy including this one.
    fn forward_addr(&mut self, obj: ObjectId, rng: &mut dyn RngCore) -> NodeId {
        match self.tables.lookup(obj).map(|row| row.proxy) {
            Some(Location::Remote(p)) => {
                self.stats.forwards_learned += 1;
                NodeId::Proxy(p)
            }
            Some(Location::This) => {
                self.stats.origin_this_miss += 1;
                NodeId::Origin
            }
            None => {
                self.stats.forwards_random += 1;
                NodeId::Proxy(ProxyId::new(rng.gen_range(0..self.peers as usize) as u32))
            }
        }
    }

    /// `Receive_Request()` (Fig. 5) with `Forward_Request`.
    fn receive_request(&mut self, request: Request, rng: &mut dyn RngCore) -> Action {
        self.clock += 1;
        self.stats.requests_received += 1;
        let obj = request.object;
        if self.holds(obj) {
            self.stats.local_hits += 1;
            self.update_entry(obj, Location::This);
            self.lru_store(obj);
            let reply = Reply::from_cache(&request, self.me, DEFAULT_OBJECT_SIZE);
            return Action::send(request.sender, reply);
        }
        // Forward_Request: store the backwarding hop, then pick the next.
        let looped = self.pending.iter().any(|(id, _)| *id == request.id);
        match self.pending.iter_mut().find(|(id, _)| *id == request.id) {
            Some((_, stack)) => stack.push(request.sender),
            None => self.pending.push((request.id, vec![request.sender])),
        }
        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.me);
        forwarded.hops += 1;
        let to = if looped {
            self.stats.origin_loops += 1;
            NodeId::Origin
        } else if request.hops >= self.max_hops {
            self.stats.origin_max_hops += 1;
            NodeId::Origin
        } else {
            self.forward_addr(obj, rng)
        };
        Action::send(to, forwarded)
    }

    /// `Receive_Reply()` (Fig. 7).
    fn receive_reply(&mut self, mut reply: Reply) -> Option<Action> {
        let Some(i) = self.pending.iter().position(|(id, _)| *id == reply.id) else {
            self.stats.replies_orphaned += 1;
            return None;
        };
        let hop = self.pending[i]
            .1
            .pop()
            .expect("pending stacks are never empty");
        if self.pending[i].1.is_empty() {
            self.pending.remove(i);
        }
        self.stats.replies_processed += 1;
        // NULL resolver: the data came from the origin; this proxy
        // becomes the resolver.
        let resolver = *reply.resolver.get_or_insert(self.me);
        let location = if resolver == self.me {
            Location::This
        } else {
            Location::Remote(resolver)
        };
        self.update_entry(reply.object, location);
        self.lru_store(reply.object);
        // One caching location per path: the first proxy holding the
        // data claims it.
        if self.holds(reply.object) && reply.cached_by.is_none() {
            reply.resolver = Some(self.me);
            reply.cached_by = Some(self.me);
        }
        Some(Action::send(hop, reply))
    }
}

/// The optimized proxy and its model, checked after every delivery.
struct Pair {
    real: AdcProxy,
    model: RefProxy,
}

impl Pair {
    fn check(&mut self, universe: u64) -> Result<(), TestCaseError> {
        let (real, model) = (&mut self.real, &self.model);
        let tables = real.tables();
        let single: Vec<Row> = tables.single().iter().map(Row::of).collect();
        let multiple: Vec<Row> = tables.multiple().iter().map(Row::of).collect();
        let cached: Vec<Row> = tables.cached().iter().map(Row::of).collect();
        prop_assert_eq!(&single, &model.tables.single, "single-table");
        prop_assert_eq!(&multiple, &model.tables.multiple, "multiple-table");
        prop_assert_eq!(&cached, &model.tables.cached, "caching table");
        prop_assert_eq!(real.stats(), &model.stats);
        prop_assert_eq!(real.local_time(), model.clock);
        prop_assert_eq!(real.pending_requests(), model.pending.len());
        let hops: usize = model.pending.iter().map(|(_, s)| s.len()).sum();
        prop_assert_eq!(real.pending().hops(), hops);
        for o in 0..universe {
            let obj = ObjectId::new(o);
            prop_assert_eq!(real.is_cached(obj), model.holds(obj), "object {}", o);
            prop_assert_eq!(
                real.tables().lookup(obj).map(Row::of),
                model.tables.lookup(obj),
                "lookup {}",
                o
            );
        }
        let expected = model.lru.as_ref().map_or(cached.len(), Vec::len);
        prop_assert_eq!(real.cached_objects(), expected);
        let events = real.drain_cache_events();
        prop_assert_eq!(&events, &model.events);
        self.model.events.clear();
        Ok(())
    }
}

/// One step of a generated scenario.
#[derive(Debug, Clone)]
enum Op {
    /// A client request for `object` enters at proxy `via`.
    Inject { via: usize, object: u64 },
    /// The in-flight message at `pick % len` is delivered.
    Deliver { pick: usize },
    /// An arbitrary request at a proxy: its id comes from a tiny pool,
    /// so it often finds itself pending (a loop), and its hop count may
    /// be at or past the limit.
    StrayRequest {
        to: usize,
        seq: u64,
        object: u64,
        hops: u32,
        from: Option<u32>,
    },
    /// An arbitrary reply at a proxy: orphaned, or popping a hop of a
    /// live flow, possibly for another object.
    StrayReply {
        to: usize,
        client: u32,
        seq: u64,
        object: u64,
        resolver: Option<u32>,
        cached_by: Option<u32>,
    },
}

fn option_of(rng: &mut StdRng, below: u32) -> Option<u32> {
    rng.gen_bool(0.75).then(|| rng.gen_range(0..below))
}

fn arb_op(rng: &mut StdRng, proxies: usize, universe: u64) -> Op {
    let p = proxies as u32;
    match rng.gen_range(0..14) {
        0..=3 => Op::Inject {
            via: rng.gen_range(0..proxies),
            object: rng.gen_range(0..universe),
        },
        4..=11 => Op::Deliver {
            pick: rng.next_u64() as usize,
        },
        12 => Op::StrayRequest {
            to: rng.gen_range(0..proxies),
            seq: rng.gen_range(0..4),
            object: rng.gen_range(0..universe),
            hops: rng.gen_range(0..6),
            from: option_of(rng, p),
        },
        _ => Op::StrayReply {
            to: rng.gen_range(0..proxies),
            client: rng.gen_range(0..2),
            seq: rng.gen_range(0..8),
            object: rng.gen_range(0..universe),
            resolver: option_of(rng, p),
            cached_by: option_of(rng, p),
        },
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    config: AdcConfig,
    proxies: usize,
    universe: u64,
    seed: u64,
    ops: Vec<Op>,
}

/// A scenario drawn from `seed`: 1–4 proxies, 1–12 objects, tables of
/// 1–5 rows, a hop limit of 1–4, either aging mode and either policy,
/// and up to 160 steps.
fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let proxies = rng.gen_range(1..=4);
    let universe = rng.gen_range(1..=12);
    let config = AdcConfig::builder()
        .single_capacity(rng.gen_range(1..=5))
        .multiple_capacity(rng.gen_range(1..=5))
        .cache_capacity(rng.gen_range(1..=4))
        .max_hops(rng.gen_range(1..=4))
        .aging(if rng.gen_bool(0.5) {
            AgingMode::AgedWorst
        } else {
            AgingMode::Off
        })
        .policy(if rng.gen_bool(0.5) {
            CachePolicy::LruAll
        } else {
            CachePolicy::Selective
        })
        .build();
    let steps = rng.gen_range(1..160);
    let ops = (0..steps)
        .map(|_| arb_op(&mut rng, proxies, universe))
        .collect();
    Scenario {
        config,
        proxies,
        universe,
        seed: rng.next_u64(),
        ops,
    }
}

/// Delivers `message` to proxy `to` on both sides and checks they agree.
fn deliver(
    pairs: &mut [Pair],
    rngs: &mut (StdRng, StdRng),
    to: usize,
    message: Message,
    universe: u64,
    in_flight: &mut Vec<(NodeId, Message)>,
) -> Result<(), TestCaseError> {
    let pair = &mut pairs[to];
    let mut out = ActionSink::new();
    let expected = match message {
        Message::Request(r) => {
            pair.real
                .on_request(r, &mut rngs.0, &mut NullProbe, &mut out);
            Some(pair.model.receive_request(r, &mut rngs.1))
        }
        Message::Reply(r) => {
            pair.real.on_reply(r, &mut NullProbe, &mut out);
            pair.model.receive_reply(r)
        }
    };
    let actual: Vec<Action> = out.drain().collect();
    prop_assert_eq!(&actual, &expected.into_iter().collect::<Vec<_>>());
    pair.check(universe)?;
    for Action::Send { to, message } in actual {
        in_flight.push((to, message));
    }
    Ok(())
}

/// Routes one in-flight message: proxies handle theirs, the origin
/// answers requests, clients absorb replies.
fn route(
    pairs: &mut [Pair],
    rngs: &mut (StdRng, StdRng),
    (to, message): (NodeId, Message),
    universe: u64,
    in_flight: &mut Vec<(NodeId, Message)>,
) -> Result<(), TestCaseError> {
    match to {
        NodeId::Proxy(p) => deliver(pairs, rngs, p.raw() as usize, message, universe, in_flight),
        NodeId::Origin => {
            if let Message::Request(r) = message {
                let reply = Reply::from_origin(&r, 32);
                in_flight.push((r.sender, Message::Reply(reply)));
            }
            Ok(())
        }
        NodeId::Client(_) => Ok(()),
    }
}

/// Runs a scenario; returns the counters summed over all proxies.
fn run(scenario: &Scenario) -> Result<ProxyStats, TestCaseError> {
    let n = scenario.proxies as u32;
    let mut pairs: Vec<Pair> = (0..n)
        .map(|i| Pair {
            real: AdcProxy::new(ProxyId::new(i), n, scenario.config.clone()),
            model: RefProxy::new(i, n, &scenario.config),
        })
        .collect();
    let mut rngs = (
        StdRng::seed_from_u64(scenario.seed),
        StdRng::seed_from_u64(scenario.seed),
    );
    let universe = scenario.universe;
    let mut in_flight: Vec<(NodeId, Message)> = Vec::new();
    let client = ClientId::new(0);
    let mut next_seq = 100;
    for op in &scenario.ops {
        match *op {
            Op::Inject { via, object } => {
                let id = RequestId::new(client, next_seq);
                next_seq += 1;
                let request = Request::new(id, ObjectId::new(object), client);
                let to = NodeId::Proxy(ProxyId::new(via as u32));
                in_flight.push((to, Message::Request(request)));
            }
            Op::Deliver { pick } => {
                if !in_flight.is_empty() {
                    let next = in_flight.remove(pick % in_flight.len());
                    route(&mut pairs, &mut rngs, next, universe, &mut in_flight)?;
                }
            }
            Op::StrayRequest {
                to,
                seq,
                object,
                hops,
                from,
            } => {
                let stray = ClientId::new(1);
                let mut request =
                    Request::new(RequestId::new(stray, seq), ObjectId::new(object), stray);
                request.hops = hops;
                if let Some(p) = from {
                    request.sender = NodeId::Proxy(ProxyId::new(p));
                }
                let message = Message::Request(request);
                deliver(&mut pairs, &mut rngs, to, message, universe, &mut in_flight)?;
            }
            Op::StrayReply {
                to,
                client: c,
                seq,
                object,
                resolver,
                cached_by,
            } => {
                // Client 0's ids from 100 on belong to live flows.
                let seq = if c == 0 { 100 + seq } else { seq };
                let id = RequestId::new(ClientId::new(c), seq);
                let request = Request::new(id, ObjectId::new(object), ClientId::new(c));
                let mut reply = Reply::from_origin(&request, 32);
                reply.resolver = resolver.map(ProxyId::new);
                reply.cached_by = cached_by.map(ProxyId::new);
                let message = Message::Reply(reply);
                deliver(&mut pairs, &mut rngs, to, message, universe, &mut in_flight)?;
            }
        }
    }
    // Let every flow finish. Each delivery moves a request one hop
    // closer to the hop limit or a reply one hop closer to its client,
    // so this terminates; the bound only guards against a bug.
    let mut budget = 100_000;
    while let Some(next) = in_flight.pop() {
        budget -= 1;
        prop_assert!(budget > 0, "flows did not drain");
        route(&mut pairs, &mut rngs, next, universe, &mut in_flight)?;
    }
    let mut total = ProxyStats::default();
    for pair in &pairs {
        total.merge(pair.real.stats());
    }
    Ok(total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The optimized proxy behaves exactly like the transcription of the
    /// paper, delivery by delivery.
    #[test]
    fn adc_proxy_matches_reference_model(seed in any::<u64>()) {
        run(&scenario(seed))?;
    }
}

/// Hand-picked scenario: a full one-row caching table displaced by a
/// hotter object, then the evicted object coming back (the path the
/// paper-scale benchmark never reaches).
#[test]
fn caching_table_eviction_round_trip() {
    let config = AdcConfig::builder()
        .single_capacity(2)
        .multiple_capacity(2)
        .cache_capacity(1)
        .max_hops(2)
        .build();
    let mut ops = Vec::new();
    for object in [1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1] {
        ops.push(Op::Inject { via: 0, object });
        for _ in 0..6 {
            ops.push(Op::Deliver { pick: 0 });
        }
    }
    let scenario = Scenario {
        config,
        proxies: 1,
        universe: 3,
        seed: 5,
        ops,
    };
    let stats = run(&scenario).unwrap();
    assert!(stats.cache_evictions >= 1, "{stats:?}");
}

/// The generator reaches every decision the comparison is meant to
/// cover: evictions from the caching table, loops, the hop limit,
/// orphaned replies, `THIS` misses and learned forwards, under both
/// policies.
#[test]
fn scenarios_reach_every_path() {
    let (mut selective, mut lru) = (ProxyStats::default(), ProxyStats::default());
    for seed in 0..400 {
        let scenario = scenario(seed);
        let stats = run(&scenario).unwrap();
        match scenario.config.policy {
            CachePolicy::Selective => selective.merge(&stats),
            CachePolicy::LruAll => lru.merge(&stats),
        }
    }
    for stats in [selective, lru] {
        assert!(stats.cache_evictions > 0, "{stats:?}");
        assert!(stats.origin_loops > 0, "{stats:?}");
        assert!(stats.origin_max_hops > 0, "{stats:?}");
        assert!(stats.replies_orphaned > 0, "{stats:?}");
        assert!(stats.origin_this_miss > 0, "{stats:?}");
        assert!(stats.forwards_learned > 0, "{stats:?}");
        assert!(stats.local_hits > 0, "{stats:?}");
    }
}
