//! An order-preserving key/value list with O(1) front insertion, arbitrary
//! removal and back eviction — the primitive underneath the paper's
//! single-table ("the well-known LRU algorithm") and the baseline LRU
//! caches.
//!
//! Implemented as a slab of doubly linked nodes plus a hash index keyed
//! through the crate's deterministic hasher, so no per-operation
//! allocation occurs once the slab has grown.

// Slab + hash-index design: every slot index stored in `index`, `head`,
// `tail`, `prev` or `next` refers to a live `nodes` slot by construction
// (links are rewired before a slot moves to the free list), so per-site
// bounds comments would repeat one global invariant.
// adc-lint: allow-file(index-comment)

use crate::hash::IdMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    // `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// Doubly linked LRU list with a hash index.
///
/// The front of the list is the most recently inserted/refreshed element;
/// the back is the least recent one.
///
/// # Examples
///
/// ```
/// use adc_core::tables::LruList;
///
/// let mut lru = LruList::new();
/// lru.push_front("a", 1);
/// lru.push_front("b", 2);
/// assert_eq!(lru.pop_back(), Some(("a", 1)));
/// assert_eq!(lru.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruList<K, V> {
    index: IdMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Default for LruList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruList<K, V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList {
            index: IdMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Creates an empty list with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut index = IdMap::default();
        index.reserve(capacity);
        LruList {
            index,
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Borrows the value for `key` without changing its position.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index
            .get(key)
            .and_then(|&i| self.nodes[i].value.as_ref())
    }

    /// Mutably borrows the value for `key` without changing its position.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.nodes[i].value.as_mut()
    }

    /// Borrows the value for `key` and moves the element to the front.
    pub fn get_refresh(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.link_front(i);
        self.nodes[i].value.as_ref()
    }

    /// Inserts a key/value pair at the front.
    ///
    /// If `key` was already present its value is replaced, the element
    /// moves to the front and the old value is returned.
    pub fn push_front(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&i) = self.index.get(&key) {
            let old = self.nodes[i].value.replace(value);
            self.unlink(i);
            self.link_front(i);
            return old;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.link_front(slot);
        None
    }

    /// Removes and returns the value stored under `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        self.nodes[i].value.take()
    }

    /// Removes and returns the least recently inserted/refreshed element.
    pub fn pop_back(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail].key.clone();
        let value = self.remove(&key)?;
        Some((key, value))
    }

    /// Borrows the element at the back (least recent) of the list.
    pub fn back(&self) -> Option<(&K, &V)> {
        if self.tail == NIL {
            return None;
        }
        let n = &self.nodes[self.tail];
        // Invariant: `value` is None only for free-list slots, and linked
        // traversal never reaches a free slot. adc-lint: allow(panic)
        Some((&n.key, n.value.as_ref().expect("linked node has a value")))
    }

    /// Borrows the element at the front (most recent) of the list.
    pub fn front(&self) -> Option<(&K, &V)> {
        if self.head == NIL {
            return None;
        }
        let n = &self.nodes[self.head];
        // Invariant: `value` is None only for free-list slots, and linked
        // traversal never reaches a free slot. adc-lint: allow(panic)
        Some((&n.key, n.value.as_ref().expect("linked node has a value")))
    }

    /// Iterates front-to-back (most recent first).
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            list: self,
            cursor: self.head,
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Front-to-back iterator over an [`LruList`]; see [`LruList::iter`].
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    list: &'a LruList<K, V>,
    cursor: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let n = &self.list.nodes[self.cursor];
        self.cursor = n.next;
        // Invariant: `value` is None only for free-list slots, and linked
        // traversal never reaches a free slot. adc-lint: allow(panic)
        Some((&n.key, n.value.as_ref().expect("linked node has a value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_order() {
        let mut l = LruList::new();
        l.push_front(1, "a");
        l.push_front(2, "b");
        l.push_front(3, "c");
        assert_eq!(l.pop_back(), Some((1, "a")));
        assert_eq!(l.pop_back(), Some((2, "b")));
        assert_eq!(l.pop_back(), Some((3, "c")));
        assert_eq!(l.pop_back(), None);
    }

    #[test]
    fn push_existing_replaces_and_refreshes() {
        let mut l = LruList::new();
        l.push_front(1, "a");
        l.push_front(2, "b");
        assert_eq!(l.push_front(1, "a2"), Some("a"));
        assert_eq!(l.len(), 2);
        // 1 is now most recent, so 2 is evicted first.
        assert_eq!(l.pop_back(), Some((2, "b")));
    }

    #[test]
    fn remove_middle_keeps_links_consistent() {
        let mut l = LruList::new();
        for i in 0..5 {
            l.push_front(i, i * 10);
        }
        assert_eq!(l.remove(&2), Some(20));
        assert_eq!(l.len(), 4);
        let order: Vec<i32> = l.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![4, 3, 1, 0]);
        assert_eq!(l.pop_back(), Some((0, 0)));
        assert_eq!(l.pop_back(), Some((1, 10)));
    }

    #[test]
    fn get_refresh_moves_to_front() {
        let mut l = LruList::new();
        l.push_front(1, "a");
        l.push_front(2, "b");
        assert_eq!(l.get_refresh(&1), Some(&"a"));
        assert_eq!(l.pop_back(), Some((2, "b")));
    }

    #[test]
    fn peek_does_not_reorder() {
        let mut l = LruList::new();
        l.push_front(1, "a");
        l.push_front(2, "b");
        assert_eq!(l.peek(&1), Some(&"a"));
        assert_eq!(l.pop_back(), Some((1, "a")));
    }

    #[test]
    fn slots_are_reused() {
        let mut l = LruList::new();
        for i in 0..100 {
            l.push_front(i, i);
            if i % 2 == 0 {
                l.pop_back();
            }
        }
        assert!(l.nodes.len() <= 100);
    }

    #[test]
    fn front_back_accessors() {
        let mut l = LruList::new();
        assert!(l.front().is_none());
        assert!(l.back().is_none());
        l.push_front(1, "a");
        l.push_front(2, "b");
        assert_eq!(l.front(), Some((&2, &"b")));
        assert_eq!(l.back(), Some((&1, &"a")));
    }

    #[test]
    fn clear_empties() {
        let mut l = LruList::new();
        l.push_front(1, "a");
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.pop_back(), None);
    }

    #[test]
    fn peek_mut_updates_in_place() {
        let mut l = LruList::new();
        l.push_front(1, 10);
        *l.peek_mut(&1).unwrap() = 99;
        assert_eq!(l.peek(&1), Some(&99));
    }

    #[test]
    fn string_values_do_not_double_free() {
        // Exercises the remove() move-out path with a Drop type.
        let mut l = LruList::new();
        for i in 0..50u32 {
            l.push_front(i, format!("value-{i}"));
        }
        for i in (0..50u32).step_by(2) {
            assert_eq!(l.remove(&i), Some(format!("value-{i}")));
        }
        for i in 0..25u32 {
            l.push_front(100 + i, format!("re-{i}"));
        }
        while l.pop_back().is_some() {}
        assert!(l.is_empty());
    }
}
