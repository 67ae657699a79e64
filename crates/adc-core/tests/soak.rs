//! Soak test: one proxy with tiny tables serves a million requests whose
//! hot set keeps rotating, with many requests in flight and every miss
//! looping back through the proxy. Long-lived slab structures can rot
//! while every result stays right — slots that are never reused, stacks
//! that are never freed — so this checks the structure itself, not time:
//! wall-clock asserts would be flaky.

use adc_core::{
    Action, ActionSink, AdcConfig, AdcProxy, CacheAgent, ClientId, Message, NodeId, NullProbe,
    ObjectId, ProxyId, Reply, Request, RequestId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REQUESTS: u64 = 1_000_000;
/// Requests between two rotations of the hot set.
const ROTATION: u64 = 4_096;
const HOT_OBJECTS: u64 = 24;
/// Client requests kept in flight at once.
const WINDOW: usize = 48;

struct Harness {
    proxy: AdcProxy,
    rng: StdRng,
    out: ActionSink,
    in_flight: Vec<(NodeId, Message)>,
    /// Most hops ever pending at once, sampled after every delivery.
    peak_hops: usize,
}

impl Harness {
    /// Delivers one in-flight message, picked at random so flows
    /// interleave.
    fn step(&mut self) {
        let pick = self.rng.gen_range(0..self.in_flight.len());
        let (to, message) = self.in_flight.swap_remove(pick);
        match (to, message) {
            (NodeId::Proxy(_), Message::Request(r)) => {
                self.proxy
                    .on_request(r, &mut self.rng, &mut NullProbe, &mut self.out)
            }
            (NodeId::Proxy(_), Message::Reply(r)) => {
                self.proxy.on_reply(r, &mut NullProbe, &mut self.out)
            }
            (NodeId::Origin, Message::Request(r)) => {
                let reply = Reply::from_origin(&r, 64);
                self.in_flight.push((r.sender, Message::Reply(reply)));
            }
            _ => {}
        }
        for Action::Send { to, message } in self.out.drain() {
            self.in_flight.push((to, message));
        }
        self.peak_hops = self.peak_hops.max(self.proxy.pending().hops());
    }

    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.step();
        }
    }
}

#[test]
fn rotating_hot_set_keeps_slabs_bounded() {
    let (single, multiple, cache) = (16, 12, 6);
    let config = AdcConfig::builder()
        .single_capacity(single)
        .multiple_capacity(multiple)
        .cache_capacity(cache)
        .max_hops(3)
        .build();
    // A one-proxy deployment: every random forward comes back to the
    // proxy itself, so each unknown object's request loops.
    let mut harness = Harness {
        proxy: AdcProxy::new(ProxyId::new(0), 1, config),
        rng: StdRng::seed_from_u64(0x50ac),
        out: ActionSink::new(),
        in_flight: Vec::new(),
        peak_hops: 0,
    };
    let client = ClientId::new(0);
    let mut rotations = 0;
    for seq in 0..REQUESTS {
        let hot_base = (seq / ROTATION) * HOT_OBJECTS;
        // Three requests in four go to the current hot set, the rest are
        // one-timers that churn the single-table.
        let object = if harness.rng.gen_range(0..4) < 3 {
            hot_base + harness.rng.gen_range(0..HOT_OBJECTS)
        } else {
            (1 << 40) | seq
        };
        let request = Request::new(RequestId::new(client, seq), ObjectId::new(object), client);
        let to = NodeId::Proxy(ProxyId::new(0));
        harness.in_flight.push((to, Message::Request(request)));
        while harness.in_flight.len() >= WINDOW {
            harness.step();
        }
        if (seq + 1) % ROTATION == 0 {
            rotations += 1;
            harness.drain();
            let tables = harness.proxy.tables();
            tables.assert_invariants();
            assert!(
                tables.slab_len() <= single + multiple + cache,
                "mapping slab grew to {} slots",
                tables.slab_len()
            );
            // Rows are recycled in place, so every slot is live.
            assert_eq!(tables.len(), tables.slab_len());
            let pending = harness.proxy.pending();
            assert_eq!(pending.len(), 0, "live hop stacks at quiescence");
            assert_eq!(pending.hops(), 0, "pending hops at quiescence");
            assert!(
                pending.slab_len() <= harness.peak_hops,
                "pending slab {} outgrew the peak of {} outstanding hops",
                pending.slab_len(),
                harness.peak_hops
            );
        }
    }
    harness.drain();
    assert!(rotations >= 200);
    let stats = *harness.proxy.stats();
    assert_eq!(stats.replies_orphaned, 0);
    assert!(stats.origin_loops > 0, "{stats:?}");
    assert!(stats.local_hits > 0, "{stats:?}");
    assert!(stats.cache_evictions > 0, "{stats:?}");
    assert!(harness.peak_hops > WINDOW / 2, "flows never overlapped");
    assert_eq!(harness.proxy.pending_requests(), 0);
}
