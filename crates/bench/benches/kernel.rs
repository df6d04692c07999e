//! Probe-kernel microbenchmarks (DESIGN.md §13).
//!
//! Three engines over the same workload:
//!
//! * `scalar`  — the row-at-a-time Figure 7 reference loop;
//! * `batched` — the hoisted 64-row mask kernel;
//! * `blocked_word_parallel` — `BlockedAb` cell probes, where all k
//!   in-block bits collapse into two u64 mask tests.
//!
//! The headline out-of-LLC numbers come from `repro_kernel`
//! (BENCH_kernel.json); this bench tracks relative regressions at
//! CI-friendly sizes. Run `cargo bench -p bench --bench kernel`.

use ab::{AbConfig, BlockedAb, KernelKind, Level};
use bench::Bundle;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::small_uniform;
use hashkit::{CellMapper, HashFamily};
use std::time::Duration;

fn bench_rect_kernels(c: &mut Criterion) {
    let bundle = Bundle::new(small_uniform(50_000, 3, 16, 42));
    let queries = bundle.queries(2000, 5);
    for k in [4usize, 8, 16] {
        let ab = bundle.ab(&AbConfig::new(Level::PerAttribute)
            .with_alpha(8)
            .with_k(k)
            .with_family(HashFamily::DoubleHashing));
        let group_name = format!("kernel/rect_k{k}");
        let mut group = c.benchmark_group(group_name.as_str());
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(800));
        for (name, kernel) in [
            ("scalar", KernelKind::Scalar),
            ("batched", KernelKind::Batched),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    for q in queries.iter().take(20) {
                        std::hint::black_box(ab.execute(q, kernel.into(), ab::no_cancel).unwrap());
                    }
                })
            });
        }
        group.finish();
    }
}

fn bench_cell_kernels(c: &mut Criterion) {
    use ab::Cell;
    let bundle = Bundle::new(small_uniform(50_000, 2, 16, 7));
    let ab = bundle.ab(&AbConfig::new(Level::PerAttribute)
        .with_alpha(8)
        .with_family(HashFamily::DoubleHashing));
    let cells: Vec<Cell> = (0..10_000)
        .map(|i| Cell::new((i * 13) % 50_000, i % 2, (i as u32 * 5) % 16))
        .collect();
    let mut group = c.benchmark_group("kernel/cells");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (name, kernel) in [
        ("scalar", KernelKind::Scalar),
        ("batched", KernelKind::Batched),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(ab.retrieve_cells_with_kernel(&cells, kernel)))
        });
    }
    group.finish();
}

fn bench_blocked_word_parallel(c: &mut Criterion) {
    // BlockedAb contains(): k bits resolved with ≤2 word loads via the
    // two-mask layout, vs the pre-§13 per-bit loop shape at k > 128
    // (exercised here through the same API by exceeding the cap).
    let s = 1_000_000u64;
    let n = ab::ab_bits(s, 8);
    let mapper = CellMapper::RowOnly;
    let mut word_parallel = BlockedAb::new(n, 8, mapper);
    let mut scalar_path = BlockedAb::new(n, 129, mapper); // falls back
    for r in 0..s {
        word_parallel.insert(r, 0);
        scalar_path.insert(r, 0);
    }
    let mut group = c.benchmark_group("kernel/blocked");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("word_parallel_k8", |b| {
        let mut r = 0u64;
        b.iter(|| {
            r = r.wrapping_add(0x9E37_79B9);
            std::hint::black_box(word_parallel.contains(r % (2 * s), 0))
        })
    });
    group.bench_function("scalar_fallback_k129", |b| {
        let mut r = 0u64;
        b.iter(|| {
            r = r.wrapping_add(0x9E37_79B9);
            std::hint::black_box(scalar_path.contains(r % (2 * s), 0))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rect_kernels,
    bench_cell_kernels,
    bench_blocked_word_parallel
);
criterion_main!(benches);
