//! Property-based tests of the mapping-table machinery.

use adc_core::tables::{LruList, MappingTables};
use adc_core::{AgingMode, Location, ObjectId, ProxyId, TableEntry};
use proptest::prelude::*;
use std::collections::VecDeque;

/// An arbitrary update: which object, reported location, and how far the
/// local clock advances before the update.
#[derive(Debug, Clone, Copy)]
struct Update {
    object: u64,
    location: Option<u32>,
    advance: u64,
}

fn arb_updates(max: usize, universe: u64) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec((0..universe, prop::option::of(0u32..4), 0u64..5), 1..max).prop_map(|v| {
        v.into_iter()
            .map(|(object, location, advance)| Update {
                object,
                location,
                advance,
            })
            .collect()
    })
}

fn location_of(u: Update) -> Location {
    match u.location {
        None => Location::This,
        Some(p) => Location::Remote(ProxyId::new(p)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants hold after any update sequence, for any capacities and
    /// either aging mode.
    #[test]
    fn mapping_tables_invariants(
        updates in arb_updates(400, 60),
        single in 1usize..20,
        multiple in 1usize..20,
        cache in 1usize..10,
        aged in any::<bool>(),
    ) {
        let aging = if aged { AgingMode::AgedWorst } else { AgingMode::Off };
        let mut tables = MappingTables::new(single, multiple, cache, aging);
        let mut now = 0;
        for u in updates {
            now += u.advance;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            tables.assert_invariants();
        }
    }

    /// An object reported at least twice at distinct times is known
    /// afterwards unless capacity pressure displaced it; an object never
    /// reported is never known.
    #[test]
    fn lookup_soundness(updates in arb_updates(200, 40)) {
        let mut tables = MappingTables::new(64, 64, 32, AgingMode::Off);
        let mut now = 0;
        let mut reported = std::collections::HashSet::new();
        for u in updates {
            now += u.advance + 1;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            reported.insert(u.object);
        }
        // Tables are big enough that nothing is displaced here.
        for o in 0..40u64 {
            prop_assert_eq!(
                tables.lookup(ObjectId::new(o)).is_some(),
                reported.contains(&o)
            );
        }
    }

    /// The entry count never exceeds the sum of capacities and entries
    /// are conserved (every table member was reported at some point).
    #[test]
    fn bounded_and_sound(updates in arb_updates(500, 30), cap in 1usize..8) {
        let mut tables = MappingTables::new(cap, cap, cap, AgingMode::AgedWorst);
        let mut now = 0;
        let mut reported = std::collections::HashSet::new();
        for u in updates {
            now += u.advance;
            reported.insert(u.object);
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
        }
        prop_assert!(tables.len() <= 3 * cap);
        let members: Vec<ObjectId> = tables
            .single().iter().map(|e| e.object)
            .chain(tables.multiple().iter().map(|e| e.object))
            .chain(tables.cached().iter().map(|e| e.object))
            .collect();
        for m in members {
            prop_assert!(reported.contains(&m.raw()));
        }
    }

    /// The multiple-table only ever holds entries with >= 2 hits (the
    /// paper's definition), and therefore a meaningful average.
    #[test]
    fn multiple_table_needs_two_hits(updates in arb_updates(400, 25)) {
        let mut tables = MappingTables::new(8, 8, 4, AgingMode::AgedWorst);
        let mut now = 0;
        for u in updates {
            now += u.advance;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            for e in tables.multiple().iter().chain(tables.cached().iter()) {
                prop_assert!(e.hits >= 2, "entry {:?} in ordered table with 1 hit", e);
            }
        }
    }

    /// `LruList` behaves exactly like a naive VecDeque model.
    #[test]
    fn lru_list_matches_model(ops in prop::collection::vec((0u8..4, 0u64..20), 1..300)) {
        let mut lru: LruList<u64, u64> = LruList::new();
        let mut model: VecDeque<(u64, u64)> = VecDeque::new(); // front = most recent
        for (op, key) in ops {
            match op {
                0 => { // push_front
                    let old = lru.push_front(key, key * 10);
                    let model_old = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let (_, v) = model.remove(i).unwrap();
                        v
                    });
                    model.push_front((key, key * 10));
                    prop_assert_eq!(old, model_old);
                }
                1 => { // remove
                    let got = lru.remove(&key);
                    let model_got = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let (_, v) = model.remove(i).unwrap();
                        v
                    });
                    prop_assert_eq!(got, model_got);
                }
                2 => { // pop_back
                    prop_assert_eq!(lru.pop_back(), model.pop_back());
                }
                _ => { // get_refresh
                    let got = lru.get_refresh(&key).copied();
                    let model_got = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let e = model.remove(i).unwrap();
                        model.push_front(e);
                        e.1
                    });
                    prop_assert_eq!(got, model_got);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            let order: Vec<u64> = lru.iter().map(|(&k, _)| k).collect();
            let model_order: Vec<u64> = model.iter().map(|&(k, _)| k).collect();
            prop_assert_eq!(order, model_order);
        }
    }

    /// The three views partition the one index: every object a view
    /// lists is found by `lookup` with the same row and by no other view,
    /// the ordered views run best-first and the view sizes add up to the
    /// slab.
    #[test]
    fn views_partition_the_index(
        updates in arb_updates(300, 40),
        single in 1usize..10,
        multiple in 1usize..10,
        cache in 1usize..6,
    ) {
        let mut tables = MappingTables::new(single, multiple, cache, AgingMode::AgedWorst);
        let mut now = 0;
        for u in updates {
            now += u.advance;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
        }
        let (s, m, c) = (tables.single(), tables.multiple(), tables.cached());
        prop_assert_eq!(s.len() + m.len() + c.len(), tables.slab_len());
        prop_assert_eq!(s.iter().count(), s.len());
        for e in s.iter().chain(m.iter()).chain(c.iter()) {
            prop_assert_eq!(tables.lookup(e.object), Some(e));
            let holders = usize::from(s.contains(e.object))
                + usize::from(m.contains(e.object))
                + usize::from(c.contains(e.object));
            prop_assert_eq!(holders, 1);
            prop_assert_eq!(tables.is_cached(e.object), c.contains(e.object));
        }
        for view in [m, c] {
            let avgs: Vec<u64> = view.iter().map(|e| e.average).collect();
            let mut sorted = avgs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&avgs, &sorted);
            prop_assert_eq!(view.worst().map(|e| e.average), avgs.last().copied());
            prop_assert_eq!(view.best().map(|e| e.average), avgs.first().copied());
        }
        for o in 0..40u64 {
            let id = ObjectId::new(o);
            if tables.lookup(id).is_none() {
                prop_assert!(!s.contains(id) && !m.contains(id) && !c.contains(id));
            }
        }
    }

    /// Calc_Average is bounded by the largest gap ever observed and LAST
    /// always equals the most recent request time.
    #[test]
    fn calc_average_bounds(gaps in prop::collection::vec(1u64..1000, 1..50)) {
        let mut entry = TableEntry::new(ObjectId::new(1), Location::This, 0);
        let mut now = 0;
        let mut max_gap = 0;
        for gap in &gaps {
            now += gap;
            max_gap = max_gap.max(*gap);
            entry.calc_average(now);
            prop_assert!(entry.average <= max_gap);
            prop_assert_eq!(entry.last, now);
        }
        prop_assert_eq!(entry.hits, gaps.len() as u64 + 1);
    }
}
