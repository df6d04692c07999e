//! Figure 13: AB query execution time as a function of k.
//!
//! The paper: "As k increases the execution time increases linearly" —
//! each probe computes k hash functions.

use bench::{paper_alpha, paper_config, Bundle};
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::small_uniform;
use std::time::Duration;

fn bench_k(c: &mut Criterion) {
    let bundle = Bundle::new(small_uniform(5_000, 2, 50, 42));
    let queries = bundle.queries(500, 7);
    let mut group = c.benchmark_group("fig13/uniform");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for k in [1usize, 2, 4, 6, 8, 10] {
        let cfg = paper_config("uniform")
            .with_alpha(paper_alpha("uniform"))
            .with_k(k);
        let ab = bundle.ab(&cfg);
        group.bench_function(format!("k={k}").as_str(), |b| {
            b.iter(|| {
                for q in &queries {
                    std::hint::black_box(ab.execute_rect(q));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_k);
criterion_main!(benches);
