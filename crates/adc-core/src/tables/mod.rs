//! The three mapping tables of an ADC proxy (§III.3 of the paper) and the
//! LRU primitive the LRU-caching ablation shares with the baseline caches.

mod lru;
mod mapping;
pub(crate) mod ordered;

pub use lru::{Iter as LruIter, LruList};
pub use mapping::{MappingTables, OrderedView, SingleView, TableHit, UpdateOutcome};
