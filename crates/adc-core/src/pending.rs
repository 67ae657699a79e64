//! Backwarding information: the previous hops of every request a proxy
//! has forwarded and not yet answered (§III.2 of the paper).
//!
//! A request can cross the same proxy twice when it loops, so each
//! request keeps a stack of hops and replies unwind it last-in,
//! first-out. The stacks are linked lists through one slab of nodes that
//! is reused through a free list, and an index maps each pending request
//! to the node on top of its stack. Once the slab has grown to the peak
//! number of outstanding hops, pushing and popping allocate nothing, and
//! each touches the index once.

use crate::hash::IdMap;
use crate::ids::{NodeId, RequestId};
use std::collections::hash_map::Entry;

/// Marks the bottom of a stack and the end of the free list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct HopNode {
    hop: NodeId,
    /// The next node down the same stack, or the next free node.
    below: usize,
}

/// LIFO hop stacks keyed by request, in a reused slab.
///
/// # Examples
///
/// ```
/// use adc_core::{ClientId, NodeId, PendingHops, ProxyId, RequestId};
///
/// let mut pending = PendingHops::new();
/// let id = RequestId::new(ClientId::new(0), 7);
/// assert!(!pending.push(id, NodeId::Client(ClientId::new(0))));
/// // The request loops back: a second hop stacks on the first.
/// assert!(pending.push(id, NodeId::Proxy(ProxyId::new(2))));
/// assert_eq!(pending.pop(id), Some(NodeId::Proxy(ProxyId::new(2))));
/// assert_eq!(pending.pop(id), Some(NodeId::Client(ClientId::new(0))));
/// assert_eq!(pending.pop(id), None);
/// ```
#[derive(Debug, Clone)]
pub struct PendingHops {
    top: IdMap<RequestId, usize>,
    nodes: Vec<HopNode>,
    free: usize,
    free_len: usize,
}

impl Default for PendingHops {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingHops {
    /// Creates an empty store.
    pub fn new() -> Self {
        PendingHops {
            top: IdMap::default(),
            nodes: Vec::new(),
            free: NIL,
            free_len: 0,
        }
    }

    /// Pushes `hop` onto the stack of request `id`. Returns `true` when
    /// the request already had pending hops, i.e. it has looped back to
    /// this proxy.
    pub fn push(&mut self, id: RequestId, hop: NodeId) -> bool {
        let node = match self.free {
            NIL => {
                self.nodes.push(HopNode { hop, below: NIL });
                self.nodes.len() - 1
            }
            node => {
                self.free = self.node(node).below;
                self.free_len -= 1;
                node
            }
        };
        let (looped, below) = match self.top.entry(id) {
            Entry::Occupied(mut top) => (true, top.insert(node)),
            Entry::Vacant(top) => {
                top.insert(node);
                (false, NIL)
            }
        };
        *self.node_mut(node) = HopNode { hop, below };
        looped
    }

    /// Pops the most recent hop of request `id`, or `None` when nothing
    /// is pending for it (an orphaned reply).
    pub fn pop(&mut self, id: RequestId) -> Option<NodeId> {
        let Entry::Occupied(mut top) = self.top.entry(id) else {
            return None;
        };
        let node = *top.get();
        let HopNode { hop, below } = self.nodes[node]; // in bounds: see `node`
        match below {
            NIL => {
                top.remove();
            }
            below => {
                top.insert(below);
            }
        }
        self.node_mut(node).below = self.free;
        self.free = node;
        self.free_len += 1;
        Some(hop)
    }

    /// Number of pending hops of request `id` (its stack depth).
    pub fn depth(&self, id: RequestId) -> usize {
        let mut at = self.top.get(&id).copied().unwrap_or(NIL);
        let mut depth = 0;
        while at != NIL {
            at = self.node(at).below;
            depth += 1;
        }
        depth
    }

    /// Number of requests with pending hops (live stacks).
    pub fn len(&self) -> usize {
        self.top.len()
    }

    /// Returns `true` when no request is pending.
    pub fn is_empty(&self) -> bool {
        self.top.is_empty()
    }

    /// Number of hops pending over all requests.
    pub fn hops(&self) -> usize {
        self.nodes.len() - self.free_len
    }

    /// Number of nodes the slab has allocated, live or free: the peak of
    /// [`PendingHops::hops`] so far.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// The node `node`. Every node id the store holds — in `top`, in a
    /// `below` link or on the free list — names a pushed node, and nodes
    /// are only dropped all at once by `clear`, so stored ids are always
    /// in bounds.
    fn node(&self, node: usize) -> &HopNode {
        &self.nodes[node] // in bounds: see above
    }

    /// Mutable [`Self::node`].
    fn node_mut(&mut self, node: usize) -> &mut HopNode {
        &mut self.nodes[node] // in bounds: see `node`
    }

    /// Drops every pending hop, keeping the allocations.
    pub fn clear(&mut self) {
        self.top.clear();
        self.nodes.clear();
        self.free = NIL;
        self.free_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, ProxyId};

    fn id(seq: u64) -> RequestId {
        RequestId::new(ClientId::new(0), seq)
    }

    fn proxy(p: u32) -> NodeId {
        NodeId::Proxy(ProxyId::new(p))
    }

    #[test]
    fn stacks_are_lifo_and_per_request() {
        let mut p = PendingHops::new();
        assert!(!p.push(id(1), proxy(1)));
        assert!(!p.push(id(2), proxy(2)));
        assert!(p.push(id(1), proxy(3)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.hops(), 3);
        assert_eq!(p.depth(id(1)), 2);
        assert_eq!(p.pop(id(1)), Some(proxy(3)));
        assert_eq!(p.pop(id(2)), Some(proxy(2)));
        assert_eq!(p.depth(id(1)), 1);
        assert_eq!(p.depth(id(2)), 0);
        assert_eq!(p.pop(id(1)), Some(proxy(1)));
        assert_eq!(p.pop(id(1)), None);
        assert!(p.is_empty());
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn slab_is_reused() {
        let mut p = PendingHops::new();
        for round in 0..100 {
            p.push(id(round), proxy(0));
            p.push(id(round), proxy(1));
            p.push(id(round + 1000), proxy(2));
            assert_eq!(p.pop(id(round)), Some(proxy(1)));
            assert_eq!(p.pop(id(round + 1000)), Some(proxy(2)));
            assert_eq!(p.pop(id(round)), Some(proxy(0)));
        }
        assert!(p.is_empty());
        assert_eq!(p.slab_len(), 3);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut p = PendingHops::new();
        p.push(id(1), proxy(1));
        p.pop(id(1));
        p.push(id(2), proxy(2));
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.pop(id(2)), None);
        assert!(!p.push(id(2), proxy(3)));
        assert_eq!(p.slab_len(), 1);
    }
}
