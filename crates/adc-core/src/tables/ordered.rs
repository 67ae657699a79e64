//! The order behind the paper's multiple-table and caching table.
//!
//! Both tables are "always ordered in ascending order of the fourth column
//! (average request time). This order allows the simple identification of
//! the object with the worst average time and quick insertions/deletions
//! based using binary search." The rows themselves live in their owner's
//! slab; an [`Ordered`] holds only `(average, seq, slot)` keys in a
//! `BTreeSet`, so every insert, removal and worst-row lookup is O(log n)
//! with no shifting, and moving a row never moves its payload. The
//! sequence number makes ties deterministic: among equal averages the
//! older insertion ranks better.

use crate::entry::{TableEntry, Tick};
use std::collections::BTreeSet;

/// Sort key of one row: ascending stored average, FIFO among equals. The
/// slot is carried along and never decides the order (sequence numbers
/// are unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OrderKey {
    pub(crate) average: Tick,
    pub(crate) seq: u64,
    pub(crate) slot: usize,
}

/// A bounded ordered index over slab slots, best row first.
#[derive(Debug, Clone)]
pub(crate) struct Ordered {
    capacity: usize,
    keys: BTreeSet<OrderKey>,
}

impl Ordered {
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ordered table capacity must be positive");
        Ordered {
            capacity,
            keys: BTreeSet::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.keys.len() >= self.capacity
    }

    /// The paper's `InsertOrdered`. The caller makes room first.
    pub(crate) fn insert(&mut self, key: OrderKey) {
        debug_assert!(!self.is_full(), "insert into a full ordered table");
        let fresh = self.keys.insert(key);
        debug_assert!(fresh, "order key inserted twice");
    }

    /// The paper's `RemoveEntry`.
    pub(crate) fn remove(&mut self, key: OrderKey) {
        let present = self.keys.remove(&key);
        debug_assert!(present, "removed an order key that was not present");
    }

    /// The last row of the paper's tables (largest average).
    pub(crate) fn worst(&self) -> Option<OrderKey> {
        self.keys.last().copied()
    }

    /// The paper's `RemoveLastEntry`.
    pub(crate) fn pop_worst(&mut self) -> Option<OrderKey> {
        self.keys.pop_last()
    }

    /// The first row (smallest average).
    pub(crate) fn best(&self) -> Option<OrderKey> {
        self.keys.first().copied()
    }

    /// Keys best-to-worst.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = OrderKey> + '_ {
        self.keys.iter().copied()
    }

    /// Decides whether a candidate with stored average `average` may
    /// enter at time `now`; `row` reads the entry in a slot.
    ///
    /// Admission is automatic while the table has room; once full, the
    /// candidate "[has] to have a lower average value than the worst case
    /// currently residing in the table". With `aged` the worst entry's
    /// threshold is its aged average (Figure 4 of the paper).
    pub(crate) fn admits<'a>(
        &self,
        average: Tick,
        now: Tick,
        aged: bool,
        row: impl FnOnce(usize) -> &'a TableEntry,
    ) -> bool {
        if !self.is_full() {
            return true;
        }
        match self.worst() {
            None => true,
            Some(worst) => {
                let worst = row(worst.slot);
                let threshold = if aged {
                    worst.aged_average(now)
                } else {
                    worst.average
                };
                average < threshold
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Location, ObjectId};

    fn key(average: Tick, seq: u64) -> OrderKey {
        OrderKey {
            average,
            seq,
            slot: seq as usize,
        }
    }

    fn rows(avgs_lasts: &[(Tick, Tick)]) -> Vec<TableEntry> {
        avgs_lasts
            .iter()
            .enumerate()
            .map(|(i, &(average, last))| {
                let mut e = TableEntry::new(ObjectId::new(i as u64), Location::This, last);
                e.average = average;
                e.hits = 2;
                e
            })
            .collect()
    }

    #[test]
    fn keeps_ascending_order_with_fifo_ties() {
        let mut t = Ordered::new(10);
        t.insert(key(300, 0));
        t.insert(key(100, 1));
        t.insert(key(100, 2));
        let order: Vec<u64> = t.iter().map(|k| k.seq).collect();
        // Entry 2 arrived after entry 1 with the same average: worse.
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(t.best().unwrap().seq, 1);
        assert_eq!(t.worst().unwrap().seq, 0);
    }

    #[test]
    fn admits_everything_until_full() {
        let slab = rows(&[(10, 0), (20, 0)]);
        let mut t = Ordered::new(2);
        assert!(t.admits(u64::MAX, 0, false, |s| &slab[s]));
        t.insert(key(10, 0));
        assert!(t.admits(u64::MAX, 0, false, |s| &slab[s]));
        t.insert(key(20, 1));
        assert!(!t.admits(20, 0, false, |s| &slab[s]));
        assert!(t.admits(19, 0, false, |s| &slab[s]));
    }

    #[test]
    fn aged_admission_lets_candidates_beat_stale_worst() {
        // Worst entry: avg 100, last seen at t=0.
        let slab = rows(&[(100, 0)]);
        let mut t = Ordered::new(1);
        t.insert(key(100, 0));
        // Plain admission: candidate with avg 150 rejected.
        assert!(!t.admits(150, 1000, false, |s| &slab[s]));
        // Aged: worst aged avg = (100 + 1000) / 2 = 550, so 150 enters.
        assert!(t.admits(150, 1000, true, |s| &slab[s]));
    }

    #[test]
    fn pop_worst_empties_in_descending_order() {
        let mut t = Ordered::new(4);
        for i in 0..4 {
            t.insert(key(i * 10, i));
        }
        let mut seen = Vec::new();
        while let Some(k) = t.pop_worst() {
            seen.push(k.average);
        }
        assert_eq!(seen, vec![30, 20, 10, 0]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Ordered::new(0);
    }
}
