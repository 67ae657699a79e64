//! The three-table mapping structure and the paper's `Update_Entry`
//! procedure (Figure 8).
//!
//! Objects migrate single-table → multiple-table → caching table as their
//! measured request frequency improves, and fall back down when displaced.
//! An object lives in **at most one** of the three tables at any time.
//!
//! All three tables share one slab of rows and one `ObjectId → slot`
//! index, so every operation probes the index once and a row changes
//! table by retagging its slot, never by moving its payload. Each slot's
//! [`Place`] says which table holds it: the single-table keeps its LRU
//! order as links between slots, the multiple- and caching table keep
//! `(average, seq)` order keys over slot ids (see `ordered.rs`). A row
//! leaves the tables only when a new object pushes it off the bottom of
//! the single-table, and the new object takes over its slot, so the slab
//! needs no free list and never holds more slots than live rows.

use crate::config::AgingMode;
use crate::entry::{TableEntry, Tick};
use crate::hash::IdMap;
use crate::ids::{Location, ObjectId};
use crate::tables::ordered::{OrderKey, Ordered};
use adc_obs::TableLevel;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Which table an `Update_Entry` call found (or created) the entry in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableHit {
    /// Part 1: the object was in the caching table.
    Cached,
    /// Part 2: the object was in the multiple-table.
    Multiple,
    /// Part 3: the object was in the single-table.
    Single,
    /// Part 4: the object was unknown; a fresh entry was created.
    New,
}

/// Side effects of one `Update_Entry` call that the proxy must mirror in
/// its actual object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Where the entry was found.
    pub found_in: TableHit,
    /// The object was promoted into the caching table, so its data should
    /// now be stored locally.
    pub admitted_to_cache: bool,
    /// This object was displaced from the caching table (back into the
    /// multiple-table); its data must be evicted from the store.
    pub evicted_from_cache: Option<ObjectId>,
    /// The object was promoted from the single-table into the
    /// multiple-table (it proved a measurable inter-request average).
    pub promoted_to_multiple: bool,
    /// This object was displaced from the multiple-table back onto the
    /// top of the single-table to make room for a promotion.
    pub demoted_to_single: Option<ObjectId>,
    /// This object fell off the bottom of the single-table and is
    /// forgotten entirely.
    pub forgotten: Option<ObjectId>,
}

impl UpdateOutcome {
    fn found(found_in: TableHit) -> Self {
        UpdateOutcome {
            found_in,
            admitted_to_cache: false,
            evicted_from_cache: None,
            promoted_to_multiple: false,
            demoted_to_single: None,
            forgotten: None,
        }
    }

    /// Whether the object sits in the caching table after the update.
    pub fn cached_after(&self) -> bool {
        self.found_in == TableHit::Cached || self.admitted_to_cache
    }
}

/// Whether the structure runs the full selective-caching scheme or only
/// the mapping part (used by the LRU-caching ablation, where the actual
/// store is managed outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Selective,
    MappingOnly,
}

/// Marks the end of the single-table's LRU chain.
const NIL: usize = usize::MAX;

/// Which table holds a slot, with that table's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In the single-table, between its newer (`prev`) and older
    /// (`next`) neighbours.
    Single { prev: usize, next: usize },
    /// In the multiple-table under order key `(entry.average, seq)`.
    Multiple { seq: u64 },
    /// In the caching table under order key `(entry.average, seq)`.
    Cached { seq: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: TableEntry,
    place: Place,
}

/// The ordered tables, named for slot bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Multiple,
    Cached,
}

/// The single-table's LRU chain through the slab.
#[derive(Debug, Clone)]
struct Chain {
    capacity: usize,
    len: usize,
    /// Newest row.
    head: usize,
    /// Oldest row, the next to be forgotten.
    tail: usize,
}

/// The per-proxy mapping structure: single-, multiple- and caching table.
///
/// # Examples
///
/// ```
/// use adc_core::tables::MappingTables;
/// use adc_core::{AgingMode, Location, ObjectId};
///
/// let mut tables = MappingTables::new(10, 10, 10, AgingMode::AgedWorst);
/// let obj = ObjectId::new(1);
/// // First sighting creates a single-table entry...
/// tables.update_entry(obj, Location::This, 5);
/// assert!(tables.single().contains(obj));
/// // ...a second sighting promotes it to the multiple-table.
/// tables.update_entry(obj, Location::This, 9);
/// assert!(tables.multiple().contains(obj));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTables {
    index: IdMap<ObjectId, usize>,
    slots: Vec<Slot>,
    single: Chain,
    multiple: Ordered,
    cached: Ordered,
    /// Order-key sequence shared by both ordered tables; only the
    /// relative order of keys within one table matters.
    next_seq: u64,
    aging: AgingMode,
    mode: Mode,
}

impl MappingTables {
    /// Creates the three tables with the given capacities.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    pub fn new(
        single_capacity: usize,
        multiple_capacity: usize,
        cache_capacity: usize,
        aging: AgingMode,
    ) -> Self {
        Self::build(
            single_capacity,
            multiple_capacity,
            cache_capacity,
            aging,
            Mode::Selective,
        )
    }

    /// Creates a mapping-only variant: the caching table is never
    /// populated, so objects stop at the multiple-table. Used when the
    /// actual store runs a plain LRU policy (ablation A1).
    pub fn mapping_only(
        single_capacity: usize,
        multiple_capacity: usize,
        aging: AgingMode,
    ) -> Self {
        // Capacity 1 placeholder; never inserted into in this mode.
        Self::build(
            single_capacity,
            multiple_capacity,
            1,
            aging,
            Mode::MappingOnly,
        )
    }

    fn build(single: usize, multiple: usize, cached: usize, aging: AgingMode, mode: Mode) -> Self {
        assert!(single > 0, "single-table capacity must be positive");
        let rows = single
            .saturating_add(multiple)
            .saturating_add(cached)
            .min(1 << 20);
        // One spare key: a new object is indexed just before the row it
        // replaces is unindexed.
        let mut index = IdMap::default();
        index.reserve(rows + 1);
        MappingTables {
            index,
            slots: Vec::with_capacity(rows),
            single: Chain {
                capacity: single,
                len: 0,
                head: NIL,
                tail: NIL,
            },
            multiple: Ordered::new(multiple),
            cached: Ordered::new(cached),
            next_seq: 0,
            aging,
            mode,
        }
    }

    /// Borrows the single-table.
    pub fn single(&self) -> SingleView<'_> {
        SingleView { tables: self }
    }

    /// Borrows the multiple-table.
    pub fn multiple(&self) -> OrderedView<'_> {
        OrderedView {
            tables: self,
            tier: Tier::Multiple,
        }
    }

    /// Borrows the caching table.
    pub fn cached(&self) -> OrderedView<'_> {
        OrderedView {
            tables: self,
            tier: Tier::Cached,
        }
    }

    /// Returns `true` if the caching table lists `object` (i.e. the object
    /// data is stored locally under the selective policy).
    pub fn is_cached(&self, object: ObjectId) -> bool {
        matches!(self.locate(object), Some((TableLevel::Caching, _)))
    }

    /// Total number of entries across the three tables.
    pub fn len(&self) -> usize {
        self.single.len + self.multiple.len() + self.cached.len()
    }

    /// Returns `true` when all three tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of row slots the slab holds. A forgotten row's slot goes
    /// straight to the new object that displaced it, so this equals
    /// [`MappingTables::len`]; tests compare the two to check that the
    /// slab does not leak.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Looks up the learned entry for `object` in whichever table holds
    /// it — the paper's `Forward_Addr` searches the caching table, then
    /// the multiple-table, then the single-table, and an object is in at
    /// most one of them.
    pub fn lookup(&self, object: ObjectId) -> Option<&TableEntry> {
        self.locate(object).map(|(_, entry)| entry)
    }

    /// Like [`MappingTables::lookup`], and also says which table holds
    /// the entry — both answers from one index probe.
    pub fn locate(&self, object: ObjectId) -> Option<(TableLevel, &TableEntry)> {
        let &slot = self.index.get(&object)?;
        let Slot { entry, place } = self.slot(slot);
        let level = match place {
            Place::Single { .. } => TableLevel::Single,
            Place::Multiple { .. } => TableLevel::Multiple,
            Place::Cached { .. } => TableLevel::Caching,
        };
        Some((level, entry))
    }

    /// The row in `slot`. Every slot id the tables store — in the index,
    /// in a single-table link, in `head`/`tail` or in an order key —
    /// names a pushed slot, and slots are only dropped all at once by
    /// `clear`, so stored ids are always in bounds.
    fn slot(&self, slot: usize) -> &Slot {
        &self.slots[slot] // in bounds: see above
    }

    /// Mutable [`Self::slot`].
    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        &mut self.slots[slot] // in bounds: see `slot`
    }

    fn ordered(&self, tier: Tier) -> &Ordered {
        match tier {
            Tier::Multiple => &self.multiple,
            Tier::Cached => &self.cached,
        }
    }

    /// The paper's `Update_Entry(Object, Location)` (Figure 8).
    ///
    /// Finds the entry (caching → multiple → single), refreshes its
    /// average via `Calc_Average`, records the new `location`, and applies
    /// the promotion/demotion rules. Unknown objects get a fresh entry on
    /// top of the single-table.
    ///
    /// An update arriving at the same local time as the entry's last one
    /// refreshes only the location, not the average: the backwarding pass
    /// of a *looping* request crosses the same proxy twice without the
    /// local clock advancing, and counting that as two requests would give
    /// the object a bogus zero inter-request gap (i.e. infinite apparent
    /// popularity). "The average time between two requests" (§III.3.1)
    /// refers to two distinct requests.
    pub fn update_entry(
        &mut self,
        object: ObjectId,
        location: Location,
        now: Tick,
    ) -> UpdateOutcome {
        let outcome = self.update_entry_inner(object, location, now);
        debug_assert!(
            self.single.len <= self.single.capacity
                && self.multiple.len() <= self.multiple.capacity()
                && self.cached.len() <= self.cached.capacity(),
            "a mapping table exceeded its capacity bound"
        );
        debug_assert_eq!(
            self.len(),
            self.slots.len(),
            "every slab slot must belong to exactly one table"
        );
        outcome
    }

    fn update_entry_inner(
        &mut self,
        object: ObjectId,
        location: Location,
        now: Tick,
    ) -> UpdateOutcome {
        let slot = match self.index.entry(object) {
            Entry::Occupied(found) => *found.get(),
            Entry::Vacant(vacant) => {
                // PART 4: unknown object; create a fresh entry on top.
                let fresh = Slot {
                    entry: TableEntry::new(object, location, now),
                    place: Place::Single {
                        prev: NIL,
                        next: NIL,
                    },
                };
                if self.single.len < self.single.capacity {
                    vacant.insert(self.slots.len());
                    self.slots.push(fresh);
                    self.push_top(self.slots.len() - 1);
                    return UpdateOutcome::found(TableHit::New);
                }
                // The table is full: the bottom row is forgotten and the
                // new object takes over its slot.
                let bottom = self.single.tail;
                vacant.insert(bottom);
                let forgotten = self.slot(bottom).entry.object;
                self.detach(bottom);
                self.index.remove(&forgotten);
                *self.slot_mut(bottom) = fresh;
                self.push_top(bottom);
                return UpdateOutcome {
                    forgotten: Some(forgotten),
                    ..UpdateOutcome::found(TableHit::New)
                };
            }
        };

        let place = self.detach(slot);
        let entry = &mut self.slot_mut(slot).entry;
        if entry.last != now {
            entry.calc_average(now);
        }
        entry.location = location;
        let (average, has_average) = (entry.average, entry.has_average());
        let aged = self.aging.is_aged();

        match place {
            // PART 1: the object is cached; refresh in place.
            Place::Cached { .. } => {
                self.insert_ordered(Tier::Cached, slot);
                UpdateOutcome::found(TableHit::Cached)
            }
            // PART 2: in the multiple-table; maybe promote into the cache.
            Place::Multiple { .. } => {
                let promote =
                    self.mode == Mode::Selective && self.admits(Tier::Cached, average, now, aged);
                if !promote {
                    self.insert_ordered(Tier::Multiple, slot);
                    return UpdateOutcome::found(TableHit::Multiple);
                }
                let mut evicted_from_cache = None;
                if self.cached.is_full() {
                    if let Some(worst) = self.cached.pop_worst() {
                        evicted_from_cache = Some(self.slot(worst.slot).entry.object);
                        // The multiple-table just lost `slot`, so it has room.
                        self.insert_ordered(Tier::Multiple, worst.slot);
                    }
                }
                self.insert_ordered(Tier::Cached, slot);
                UpdateOutcome {
                    admitted_to_cache: true,
                    evicted_from_cache,
                    ..UpdateOutcome::found(TableHit::Multiple)
                }
            }
            // PART 3: in the single-table; maybe promote to the multiple-table.
            Place::Single { .. } => {
                // The multiple-table "contains only objects that were
                // requested more than once": an entry that never received
                // a real second request (hits == 1, average still 0) must
                // stay in the single-table — otherwise its zero average
                // would rank it best-in-table forever.
                if !(has_average && self.admits(Tier::Multiple, average, now, aged)) {
                    self.push_top(slot);
                    return UpdateOutcome::found(TableHit::Single);
                }
                let mut demoted_to_single = None;
                if self.multiple.is_full() {
                    if let Some(worst) = self.multiple.pop_worst() {
                        demoted_to_single = Some(self.slot(worst.slot).entry.object);
                        // The single-table just lost `slot`, so it has room.
                        self.push_top(worst.slot);
                    }
                }
                self.insert_ordered(Tier::Multiple, slot);
                UpdateOutcome {
                    promoted_to_multiple: true,
                    demoted_to_single,
                    ..UpdateOutcome::found(TableHit::Single)
                }
            }
        }
    }

    /// Whether a candidate with stored average `average` may enter `tier`
    /// at time `now`; see [`Ordered::admits`].
    fn admits(&self, tier: Tier, average: Tick, now: Tick, aged: bool) -> bool {
        self.ordered(tier)
            .admits(average, now, aged, |slot| &self.slot(slot).entry)
    }

    /// Takes `slot` out of the table that holds it. The slot stays
    /// indexed; the caller puts it back with [`Self::push_top`] or
    /// [`Self::insert_ordered`], or reuses it.
    fn detach(&mut self, slot: usize) -> Place {
        let Slot { entry, place } = *self.slot(slot);
        match place {
            Place::Single { prev, next } => {
                match prev {
                    NIL => self.single.head = next,
                    _ => self.set_next(prev, next),
                }
                match next {
                    NIL => self.single.tail = prev,
                    _ => self.set_prev(next, prev),
                }
                self.single.len -= 1;
            }
            Place::Multiple { seq } => self.multiple.remove(OrderKey {
                average: entry.average,
                seq,
                slot,
            }),
            Place::Cached { seq } => self.cached.remove(OrderKey {
                average: entry.average,
                seq,
                slot,
            }),
        }
        place
    }

    /// Links a detached `slot` on top of the single-table (the paper's
    /// `InsertOnTop`). The caller has made room.
    fn push_top(&mut self, slot: usize) {
        let next = self.single.head;
        self.slot_mut(slot).place = Place::Single { prev: NIL, next };
        match next {
            NIL => self.single.tail = slot,
            _ => self.set_prev(next, slot),
        }
        self.single.head = slot;
        self.single.len += 1;
    }

    fn set_prev(&mut self, slot: usize, to: usize) {
        if let Place::Single { prev, .. } = &mut self.slot_mut(slot).place {
            *prev = to;
        }
    }

    fn set_next(&mut self, slot: usize, to: usize) {
        if let Place::Single { next, .. } = &mut self.slot_mut(slot).place {
            *next = to;
        }
    }

    /// Puts a detached `slot` into `tier` at its ordered position under a
    /// fresh sequence number (the paper's `InsertOrdered`).
    fn insert_ordered(&mut self, tier: Tier, slot: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = OrderKey {
            average: self.slot(slot).entry.average,
            seq,
            slot,
        };
        let (table, place) = match tier {
            Tier::Multiple => (&mut self.multiple, Place::Multiple { seq }),
            Tier::Cached => (&mut self.cached, Place::Cached { seq }),
        };
        table.insert(key);
        self.slot_mut(slot).place = place;
    }

    /// Appends a row as a new slot and indexes it; the caller places it.
    fn restore_row(&mut self, entry: TableEntry) -> usize {
        let slot = self.slots.len();
        let fresh = self.index.insert(entry.object, slot).is_none();
        assert!(fresh, "object {} restored twice", entry.object);
        self.slots.push(Slot {
            entry,
            place: Place::Single {
                prev: NIL,
                next: NIL,
            },
        });
        slot
    }

    /// Refills the tables from captured contents: `single` newest-first,
    /// `multiple` and `cached` best-first (the orders produced by the
    /// tables' iterators). Existing contents are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the contents exceed the configured capacities or list an
    /// object more than once.
    pub fn restore_contents(
        &mut self,
        single: &[TableEntry],
        multiple: &[TableEntry],
        cached: &[TableEntry],
    ) {
        self.clear();
        assert!(
            single.len() <= self.single.capacity
                && multiple.len() <= self.multiple.capacity()
                && cached.len() <= self.cached.capacity(),
            "restored contents exceed the table capacities"
        );
        // push_top puts each entry on top, so feed oldest first.
        for e in single.iter().rev() {
            let slot = self.restore_row(*e);
            self.push_top(slot);
        }
        for e in multiple {
            let slot = self.restore_row(*e);
            self.insert_ordered(Tier::Multiple, slot);
        }
        for e in cached {
            let slot = self.restore_row(*e);
            self.insert_ordered(Tier::Cached, slot);
        }
    }

    /// Removes every entry from all three tables.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.single.len = 0;
        self.single.head = NIL;
        self.single.tail = NIL;
        self.multiple.clear();
        self.cached.clear();
    }

    /// Asserts the structural invariants: bounded sizes, object
    /// uniqueness across tables, an index that agrees with the slab, an
    /// intact single-table chain and ordered tables keyed by each row's
    /// current average. Intended for tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn assert_invariants(&self) {
        assert!(self.single.len <= self.single.capacity);
        assert!(self.multiple.len() <= self.multiple.capacity());
        assert!(self.cached.len() <= self.cached.capacity());
        assert_eq!(
            self.len(),
            self.slots.len(),
            "slab slots outside every table"
        );
        assert_eq!(
            self.index.len(),
            self.slots.len(),
            "index and slab disagree"
        );
        let mut seen = std::collections::BTreeSet::new();
        for (slot, s) in self.slots.iter().enumerate() {
            assert!(
                seen.insert(s.entry.object),
                "object {} present in more than one table",
                s.entry.object
            );
            assert_eq!(self.index.get(&s.entry.object), Some(&slot), "stale index");
        }
        // The chain visits exactly the single-table slots, newest first.
        let (mut at, mut prev, mut walked) = (self.single.head, NIL, 0);
        while at != NIL {
            let Place::Single { prev: p, next } = self.slot(at).place else {
                panic!("single-table chain reaches a slot of another table");
            };
            assert_eq!(p, prev, "broken single-table back link");
            (prev, at, walked) = (at, next, walked + 1);
        }
        assert_eq!(
            self.single.tail, prev,
            "single-table tail is not the last link"
        );
        assert_eq!(walked, self.single.len, "single-table chain length");
        // Ordered tables: keys match the slots they name.
        for tier in [Tier::Multiple, Tier::Cached] {
            for key in self.ordered(tier).iter() {
                let s = self.slot(key.slot);
                let want = match tier {
                    Tier::Multiple => Place::Multiple { seq: key.seq },
                    Tier::Cached => Place::Cached { seq: key.seq },
                };
                assert_eq!(s.place, want, "order key names a slot of another table");
                assert_eq!(s.entry.average, key.average, "order key average is stale");
            }
        }
    }
}

/// The single-table (§III.3.1, Figure 1), read-only: a bounded LRU of
/// first-seen objects. "Each unknown object will receive a new entry on
/// the top of the table, displacing the oldest entry at the bottom of the
/// table — the well-known LRU algorithm."
#[derive(Debug, Clone, Copy)]
pub struct SingleView<'a> {
    tables: &'a MappingTables,
}

impl<'a> SingleView<'a> {
    /// The configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.tables.single.capacity
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.tables.single.len
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Returns `true` if `object` has an entry in this table.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.get(object).is_some()
    }

    /// Borrows the entry for `object`, if this table holds it.
    pub fn get(&self, object: ObjectId) -> Option<&'a TableEntry> {
        match self.tables.locate(object)? {
            (TableLevel::Single, entry) => Some(entry),
            _ => None,
        }
    }

    /// Iterates entries newest-to-oldest.
    pub fn iter(&self) -> impl Iterator<Item = &'a TableEntry> + 'a {
        let slots = &self.tables.slots;
        let mut at = self.tables.single.head;
        std::iter::from_fn(move || {
            let s = slots.get(at)?;
            at = match s.place {
                Place::Single { next, .. } => next,
                _ => NIL,
            };
            Some(&s.entry)
        })
    }
}

/// The multiple-table or the caching table, read-only: rows in ascending
/// order of their stored average inter-request time (best first, worst
/// last), FIFO among equal averages.
#[derive(Debug, Clone, Copy)]
pub struct OrderedView<'a> {
    tables: &'a MappingTables,
    tier: Tier,
}

impl<'a> OrderedView<'a> {
    fn table(&self) -> &'a Ordered {
        self.tables.ordered(self.tier)
    }

    /// The configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.table().capacity()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.table().is_full()
    }

    /// Returns `true` if `object` has an entry in this table.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.get(object).is_some()
    }

    /// Borrows the entry for `object`, if this table holds it.
    pub fn get(&self, object: ObjectId) -> Option<&'a TableEntry> {
        let level = match self.tier {
            Tier::Multiple => TableLevel::Multiple,
            Tier::Cached => TableLevel::Caching,
        };
        let (at, entry) = self.tables.locate(object)?;
        (at == level).then_some(entry)
    }

    /// Borrows the entry with the worst (largest) average, i.e. the last
    /// row of the paper's tables.
    pub fn worst(&self) -> Option<&'a TableEntry> {
        let tables = self.tables;
        self.table().worst().map(|k| &tables.slot(k.slot).entry)
    }

    /// Borrows the entry with the best (smallest) average.
    pub fn best(&self) -> Option<&'a TableEntry> {
        let tables = self.tables;
        self.table().best().map(|k| &tables.slot(k.slot).entry)
    }

    /// Iterates entries best-to-worst.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &'a TableEntry> + 'a {
        let tables = self.tables;
        self.table().iter().map(move |k| &tables.slot(k.slot).entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(s: usize, m: usize, c: usize) -> MappingTables {
        MappingTables::new(s, m, c, AgingMode::Off)
    }

    #[test]
    fn new_object_lands_in_single_table() {
        let mut t = tables(4, 4, 4);
        let out = t.update_entry(ObjectId::new(1), Location::This, 1);
        assert_eq!(out.found_in, TableHit::New);
        assert!(t.single().contains(ObjectId::new(1)));
        assert!(!t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn second_hit_promotes_to_multiple() {
        let mut t = tables(4, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        let out = t.update_entry(ObjectId::new(1), Location::This, 11);
        assert_eq!(out.found_in, TableHit::Single);
        assert!(out.promoted_to_multiple);
        assert_eq!(out.demoted_to_single, None);
        let e = t.multiple().get(ObjectId::new(1)).unwrap();
        assert_eq!(e.average, 10);
        assert_eq!(e.hits, 2);
        t.assert_invariants();
    }

    #[test]
    fn third_hit_promotes_to_cache() {
        let mut t = tables(4, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(1), Location::This, 11);
        let out = t.update_entry(ObjectId::new(1), Location::This, 21);
        assert_eq!(out.found_in, TableHit::Multiple);
        assert!(out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn cache_hit_refreshes_in_place() {
        let mut t = tables(4, 4, 4);
        for now in [1, 11, 21] {
            t.update_entry(ObjectId::new(1), Location::This, now);
        }
        let out = t.update_entry(ObjectId::new(1), Location::This, 31);
        assert_eq!(out.found_in, TableHit::Cached);
        assert!(!out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        assert_eq!(t.cached().get(ObjectId::new(1)).unwrap().hits, 4);
    }

    #[test]
    fn full_single_table_forgets_oldest() {
        let mut t = tables(2, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(2), Location::This, 2);
        let out = t.update_entry(ObjectId::new(3), Location::This, 3);
        assert_eq!(out.forgotten, Some(ObjectId::new(1)));
        assert_eq!(t.single().len(), 2);
        t.assert_invariants();
    }

    #[test]
    fn cache_displacement_returns_worst_to_multiple() {
        let mut t = tables(8, 8, 1);
        // Object 1: avg 100, cached (cache has room).
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 100);
        t.update_entry(ObjectId::new(1), Location::This, 200);
        assert!(t.is_cached(ObjectId::new(1)));
        // Object 2: avg 10, much hotter; displaces object 1.
        t.update_entry(ObjectId::new(2), Location::This, 200);
        t.update_entry(ObjectId::new(2), Location::This, 210);
        let out = t.update_entry(ObjectId::new(2), Location::This, 220);
        assert!(out.admitted_to_cache);
        assert_eq!(out.evicted_from_cache, Some(ObjectId::new(1)));
        assert!(t.is_cached(ObjectId::new(2)));
        assert!(t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn worse_candidate_does_not_enter_full_cache() {
        let mut t = tables(8, 8, 1);
        // Hot object 1 (avg 10) occupies the cache.
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 10);
        t.update_entry(ObjectId::new(1), Location::This, 20);
        assert!(t.is_cached(ObjectId::new(1)));
        // Cold object 2 (avg 500) does not displace it.
        t.update_entry(ObjectId::new(2), Location::This, 20);
        t.update_entry(ObjectId::new(2), Location::This, 520);
        let out = t.update_entry(ObjectId::new(2), Location::This, 1020);
        assert!(!out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        assert!(t.multiple().contains(ObjectId::new(2)));
        t.assert_invariants();
    }

    #[test]
    fn multiple_table_displacement_demotes_to_single_top() {
        let t = tables(8, 1, 8);
        // Object 1 (avg 100) fills the multiple-table... and immediately
        // gets promoted to the empty cache on its 3rd hit; use a worse
        // object to keep it in the multiple-table. Simplest: fill the
        // cache first with two very hot objects so object 3 stays put.
        let mut t2 = MappingTables::new(8, 1, 1, AgingMode::Off);
        // Hot object occupies the 1-slot cache.
        t2.update_entry(ObjectId::new(9), Location::This, 0);
        t2.update_entry(ObjectId::new(9), Location::This, 1);
        t2.update_entry(ObjectId::new(9), Location::This, 2);
        assert!(t2.is_cached(ObjectId::new(9)));
        // Object 1 (avg 100) sits in the 1-slot multiple-table.
        t2.update_entry(ObjectId::new(1), Location::This, 10);
        t2.update_entry(ObjectId::new(1), Location::This, 110);
        assert!(t2.multiple().contains(ObjectId::new(1)));
        // Object 2 (avg 50) displaces object 1 back to the single-table.
        t2.update_entry(ObjectId::new(2), Location::This, 200);
        let out = t2.update_entry(ObjectId::new(2), Location::This, 250);
        assert!(out.promoted_to_multiple);
        assert_eq!(out.demoted_to_single, Some(ObjectId::new(1)));
        assert!(t2.multiple().contains(ObjectId::new(2)));
        assert!(t2.single().contains(ObjectId::new(1)));
        // Demoted entry keeps its forwarding information and history.
        let demoted = t2.single().get(ObjectId::new(1)).unwrap();
        assert_eq!(demoted.average, 100);
        assert_eq!(demoted.hits, 2);
        t2.assert_invariants();
        drop(t);
    }

    #[test]
    fn lookup_priority_is_cached_then_multiple_then_single() {
        let mut t = tables(8, 8, 8);
        t.update_entry(
            ObjectId::new(1),
            Location::Remote(crate::ProxyId::new(4)),
            1,
        );
        let e = t.lookup(ObjectId::new(1)).unwrap();
        assert_eq!(e.location, Location::Remote(crate::ProxyId::new(4)));
        assert!(t.lookup(ObjectId::new(99)).is_none());
    }

    #[test]
    fn mapping_only_never_populates_cache_table() {
        let mut t = MappingTables::mapping_only(8, 8, AgingMode::Off);
        for now in [1, 11, 21, 31, 41] {
            t.update_entry(ObjectId::new(1), Location::This, now);
        }
        assert!(!t.is_cached(ObjectId::new(1)));
        assert!(t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn aged_admission_displaces_stale_cache_resident() {
        let mut t = MappingTables::new(8, 8, 1, AgingMode::AgedWorst);
        // Object 1: avg 100, cached, last seen t=200.
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 100);
        t.update_entry(ObjectId::new(1), Location::This, 200);
        assert!(t.is_cached(ObjectId::new(1)));
        // Object 2: avg 400 — worse than 100 stored, but at t=1600 the
        // resident's aged average is (100 + 1400)/2 = 750 > 400.
        t.update_entry(ObjectId::new(2), Location::This, 800);
        t.update_entry(ObjectId::new(2), Location::This, 1200);
        let out = t.update_entry(ObjectId::new(2), Location::This, 1600);
        assert!(out.admitted_to_cache);
        assert_eq!(out.evicted_from_cache, Some(ObjectId::new(1)));
    }

    #[test]
    fn location_updates_propagate() {
        let mut t = tables(8, 8, 8);
        let p = crate::ProxyId::new(2);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(1), Location::Remote(p), 5);
        assert_eq!(
            t.lookup(ObjectId::new(1)).unwrap().location,
            Location::Remote(p)
        );
    }
}
