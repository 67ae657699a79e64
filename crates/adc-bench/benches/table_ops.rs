//! Micro-benchmarks for the mapping tables — the operations Figure 15 of
//! the paper identifies as the time sinks ("insertion and deletion at the
//! ordered multiple-table", "the element-wise search within the
//! [single-table] list"). Every case goes through
//! `MappingTables::update_entry`, the only way rows move between tables.

use adc_core::tables::MappingTables;
use adc_core::{AgingMode, Location, ObjectId};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// First sightings only: every update creates a single-table row and, once
/// the table is full, forgets the bottom one (Part 4 of `Update_Entry`).
fn bench_first_sightings(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_table");
    for &size in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_top", size), &size, |b, &size| {
            let mut tables = MappingTables::new(size, size, size, AgingMode::AgedWorst);
            let mut i = 0u64;
            b.iter(|| {
                black_box(tables.update_entry(ObjectId::new(i), Location::This, i));
                i += 1;
            });
        });
    }
    group.finish();
}

/// Re-ranking inside full ordered tables: a working set twice the size of
/// the multiple-table, requested round-robin with drifting gaps, so rows
/// keep moving within and between the multiple- and caching table.
fn bench_ordered_reranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordered_table");
    for &size in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("insert_remove", size),
            &size,
            |b, &size| {
                let mut tables = MappingTables::new(size, size, size / 2, AgingMode::AgedWorst);
                let objects = 2 * size as u64;
                let mut now = 0u64;
                let mut step = |i: u64| {
                    now += 1 + i % 7;
                    tables.update_entry(ObjectId::new(i % objects), Location::This, now)
                };
                for i in 0..4 * objects {
                    step(i);
                }
                let mut i = 0u64;
                b.iter(|| {
                    black_box(step(i));
                    i += 1;
                });
            },
        );
    }
    group.finish();
}

/// A Zipf request stream: the mix of all four `Update_Entry` parts the
/// simulator sees. The `paper` case uses the paper's 20k/20k/10k
/// capacities and is warmed until all three tables are full, so any
/// per-operation cost that grows with the table size shows here.
fn bench_update_entry(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_entry");
    // (name, single, multiple, cache, object universe)
    let cases = [
        ("zipf_stream", 1_000usize, 1_000usize, 500usize, 2_000usize),
        ("zipf_stream", 10_000, 10_000, 5_000, 20_000),
        ("paper_20k_20k_10k", 20_000, 20_000, 10_000, 100_000),
    ];
    for (name, single, multiple, cache, universe) in cases {
        group.bench_with_input(BenchmarkId::new(name, single), &single, |b, _| {
            let mut tables = MappingTables::new(single, multiple, cache, AgingMode::AgedWorst);
            let zipf = adc_workload::Zipf::new(universe, 0.8);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
            let mut now = 0u64;
            let mut step = || {
                now += 1;
                let obj = ObjectId::new(zipf.sample(&mut rng) as u64);
                tables.update_entry(obj, Location::This, now)
            };
            for _ in 0..20 * single {
                step();
            }
            b.iter(|| black_box(step()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_first_sightings, bench_ordered_reranking, bench_update_entry
}
criterion_main!(benches);
