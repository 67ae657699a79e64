//! A calendar queue: the event-loop's priority queue, tuned for the
//! simulator's access pattern.
//!
//! Discrete-event simulators pop events in nondecreasing time order and
//! push new events at-or-after the current time. A calendar queue (Brown,
//! CACM 1988) exploits that: events hash into fixed-width time buckets
//! arranged in a ring (a "year" of buckets), and popping scans the bucket
//! covering the current time window before advancing to the next. For the
//! simulator's workloads — a handful of distinct latency magnitudes — the
//! current bucket holds O(1) candidates, so push and pop are O(1)
//! amortised, versus O(log n) for a binary heap.
//!
//! Determinism contract: [`CalendarQueue::pop`] returns items in exactly
//! ascending `(at, seq)` order, bit-for-bit identical to a
//! `BinaryHeap<Reverse<(at, seq, ..)>>` (`seq` values must be unique; the
//! property test in `tests/queue_order.rs` pins this equivalence).

/// One scheduled item.
#[derive(Debug, Clone)]
struct Item<T> {
    at: u64,
    seq: u64,
    value: T,
}

/// A monotone priority queue over `(at, seq)` keys.
///
/// `seq` breaks ties between items scheduled for the same instant and
/// must be unique across live items (the simulator uses its
/// `(flow seq, step)` event key).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Ring of time buckets; index = `(at >> shift) & mask`.
    buckets: Vec<Vec<Item<T>>>,
    /// log2 of the bucket width in time units.
    shift: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Bucket the current time window falls in.
    cursor: usize,
    /// Exclusive upper bound of the current time window. The window is
    /// `[bucket_top - width, bucket_top)` and always spans exactly one
    /// bucket. Invariant: no live item has `at < bucket_top - width`.
    bucket_top: u64,
    len: usize,
    /// Debug-only record of the last key handed out, backing the
    /// pop-order `debug_assert` (the determinism contract above).
    #[cfg(debug_assertions)]
    last_pop: Option<(u64, u64)>,
}

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 256;
/// log2 of the bucket width: 1024 time units (~1ms at microsecond
/// resolution), matching the simulator's default latency scale.
const DEFAULT_SHIFT: u32 = 10;
/// Double the bucket count when the average occupancy exceeds this.
const MAX_LOAD: usize = 4;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the default geometry.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            shift: DEFAULT_SHIFT,
            mask: (INITIAL_BUCKETS - 1) as u64,
            cursor: 0,
            bucket_top: 1 << DEFAULT_SHIFT,
            len: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn width(&self) -> u64 {
        1 << self.shift
    }

    fn bucket_of(&self, at: u64) -> usize {
        // Masked by `mask < buckets.len()`, so the cast cannot truncate.
        ((at >> self.shift) & self.mask) as usize
    }

    /// Schedules `value` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        // A push behind the last pop (never done by the simulator)
        // legitimately restarts the monotone-pop sequence.
        #[cfg(debug_assertions)]
        if self.last_pop.is_some_and(|last| (at, seq) < last) {
            self.last_pop = None;
        }
        // An item landing before the current window (possible for
        // arbitrary key sets, never for the simulator's monotone pushes)
        // rewinds the window so the pop invariant holds.
        let window_start = self.bucket_top - self.width();
        if at < window_start {
            self.cursor = self.bucket_of(at);
            self.bucket_top = (at >> self.shift).wrapping_add(1) << self.shift;
        }
        let idx = self.bucket_of(at);
        // bucket_of() masks idx below buckets.len().
        self.buckets[idx].push(Item { at, seq, value });
        self.len += 1;
        if self.len > MAX_LOAD * self.buckets.len() {
            self.grow();
        }
    }

    /// Returns the key of the minimum `(at, seq)` item without removing
    /// it.
    ///
    /// Takes `&mut self` because locating the minimum advances the
    /// bucket window exactly as [`pop`](CalendarQueue::pop) would — the
    /// amortised O(1) cursor walk is shared, so `peek_key` followed by
    /// `pop` re-scans only the (O(1)-occupancy) current bucket.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.locate().map(|(_, _, at, seq)| (at, seq))
    }

    /// Removes and returns the minimum `(at, seq)` item.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (b, i, _, _) = self.locate()?;
        Some(self.take(b, i))
    }

    /// Removes and returns the minimum `(at, seq)` item if it is
    /// scheduled before `end`; otherwise leaves the queue untouched. The
    /// executor drains a synchronization window `[.., end)` with it in
    /// one scan per event.
    #[inline]
    pub fn pop_before(&mut self, end: u64) -> Option<(u64, u64, T)> {
        let (b, i, at, _) = self.locate()?;
        (at < end).then(|| self.take(b, i))
    }

    /// Finds the minimum `(at, seq)` item, moving the window to it, and
    /// returns its `(bucket, index, at, seq)`.
    #[inline]
    fn locate(&mut self) -> Option<(usize, usize, u64, u64)> {
        if self.len == 0 {
            return None;
        }
        // Scan windows in time order; each window maps to exactly one
        // bucket, and no live item predates the current window.
        for _ in 0..self.buckets.len() {
            let bucket = &self.buckets[self.cursor];
            let mut best: Option<(usize, u64, u64)> = None;
            for (i, item) in bucket.iter().enumerate() {
                if item.at < self.bucket_top
                    && best.is_none_or(|(_, at, seq)| (item.at, item.seq) < (at, seq))
                {
                    best = Some((i, item.at, item.seq));
                }
            }
            if let Some((i, at, seq)) = best {
                return Some((self.cursor, i, at, seq));
            }
            // mask fits usize: it is derived from buckets.len() - 1.
            self.cursor = (self.cursor + 1) & self.mask as usize;
            self.bucket_top += self.width();
        }
        // A full lap of empty windows: the next item is more than a year
        // ahead. Fall back to a direct scan for the global minimum and
        // jump the window to it.
        let (b, i, at, seq) = self
            .buckets
            .iter()
            .enumerate()
            .flat_map(|(b, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, item)| (b, i, item.at, item.seq))
            })
            .min_by_key(|&(_, _, at, seq)| (at, seq))
            // Invariant: len > 0 was checked on entry, so some bucket
            // holds an item. adc-lint: allow(panic)
            .expect("len > 0 but no item found");
        self.cursor = self.bucket_of(at);
        self.bucket_top = ((at >> self.shift) + 1) << self.shift;
        Some((b, i, at, seq))
    }

    fn take(&mut self, bucket: usize, index: usize) -> (u64, u64, T) {
        // Callers pass coordinates of an item they just located.
        let item = self.buckets[bucket].swap_remove(index);
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_pop.is_none_or(|last| last < (item.at, item.seq)),
                "calendar queue popped {:?} after {:?}",
                (item.at, item.seq),
                self.last_pop
            );
            self.last_pop = Some((item.at, item.seq));
        }
        (item.at, item.seq, item.value)
    }

    /// Doubles the bucket count, keeping the bucket width (and therefore
    /// the current window) unchanged.
    fn grow(&mut self) {
        let new_count = self.buckets.len() * 2;
        // Bucket counts stay far below u64::MAX.
        let new_mask = (new_count - 1) as u64;
        let mut new_buckets: Vec<Vec<Item<T>>> = (0..new_count).map(|_| Vec::new()).collect();
        for bucket in self.buckets.drain(..) {
            for item in bucket {
                // Masked below new_count, so in bounds and not truncated.
                let idx = ((item.at >> self.shift) & new_mask) as usize;
                new_buckets[idx].push(item);
            }
        }
        self.buckets = new_buckets;
        self.mask = new_mask;
        let window_start = self.bucket_top - self.width();
        // Masked by mask < buckets.len(), so the cast cannot truncate.
        self.cursor = ((window_start >> self.shift) & self.mask) as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        q.push(5, 2, "c");
        q.push(0, 3, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((0, 3, "d")));
        assert_eq!(q.pop(), Some((3, 1, "b")));
        assert_eq!(q.pop(), Some((5, 0, "a")));
        assert_eq!(q.pop(), Some((5, 2, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn handles_gaps_larger_than_a_year() {
        let mut q = CalendarQueue::new();
        let year = 256u64 << DEFAULT_SHIFT;
        q.push(0, 0, 0u32);
        q.push(10 * year + 17, 1, 1);
        q.push(3 * year + 2, 2, 2);
        assert_eq!(q.pop(), Some((0, 0, 0)));
        assert_eq!(q.pop(), Some((3 * year + 2, 2, 2)));
        assert_eq!(q.pop(), Some((10 * year + 17, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaves_pushes_and_pops_monotonically() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut last = (0u64, 0u64);
        q.push(0, seq, ());
        seq += 1;
        let mut popped = 0;
        while let Some((at, s, ())) = q.pop() {
            assert!(
                (at, s) >= last,
                "out of order: {:?} after {:?}",
                (at, s),
                last
            );
            last = (at, s);
            popped += 1;
            if popped < 500 {
                // Mimic the simulator: reschedule at a few latency scales.
                for delta in [1_000, 2_000, 40_000] {
                    q.push(at + delta, seq, ());
                    seq += 1;
                    q.pop().unwrap();
                }
                q.push(at + (popped % 7) * 1_000, seq, ());
                seq += 1;
            }
        }
        assert_eq!(popped, 500);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut q = CalendarQueue::new();
        let n = (MAX_LOAD * INITIAL_BUCKETS * 3) as u64;
        for i in 0..n {
            q.push(i * 13 % 50_000, i, i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = None;
        for _ in 0..n {
            let (at, seq, _) = q.pop().unwrap();
            if let Some(prev) = last {
                assert!((at, seq) > prev);
            }
            last = Some((at, seq));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_key_matches_pop_without_consuming() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        assert_eq!(q.peek_key(), Some((3, 1)));
        assert_eq!(q.peek_key(), Some((3, 1)), "peek must not consume");
        assert_eq!(q.pop(), Some((3, 1, "b")));
        assert_eq!(q.peek_key(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 0, "a")));
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn pop_before_stops_at_the_bound() {
        let mut q = CalendarQueue::new();
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        assert_eq!(q.pop_before(3), None, "items at the bound stay");
        assert_eq!(q.pop_before(4), Some((3, 1, "b")));
        assert_eq!(q.pop_before(5), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(u64::MAX), Some((5, 0, "a")));
        assert_eq!(q.pop_before(u64::MAX), None);
    }

    #[test]
    fn peek_key_jumps_year_gaps_and_allows_rewinds() {
        let mut q = CalendarQueue::new();
        let year = 256u64 << DEFAULT_SHIFT;
        q.push(10 * year + 17, 0, ());
        // Peek across a multi-year gap (exercises the full-lap fallback).
        assert_eq!(q.peek_key(), Some((10 * year + 17, 0)));
        // A past push after the window jumped ahead must still peek
        // first.
        q.push(5, 1, ());
        assert_eq!(q.peek_key(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 1, ())));
        assert_eq!(q.pop(), Some((10 * year + 17, 0, ())));
    }

    #[test]
    fn rewinds_for_out_of_window_past_pushes() {
        let mut q = CalendarQueue::new();
        q.push(1 << 20, 0, "future");
        assert_eq!(q.pop(), Some((1 << 20, 0, "future")));
        // The window has advanced past zero; a push in the past must
        // still pop first.
        q.push(5, 1, "past");
        q.push((1 << 20) + 1, 2, "later");
        assert_eq!(q.pop(), Some((5, 1, "past")));
        assert_eq!(q.pop(), Some(((1 << 20) + 1, 2, "later")));
    }
}
