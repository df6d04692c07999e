//! Figure 12: AB query execution time as a function of α.
//!
//! The paper: "As α increases the execution time decreases because the
//! false positive rate gets smaller" (fewer rows survive per probe and
//! short-circuits fire earlier). One Criterion group per data set,
//! one benchmark per α ∈ {2, 4, 8, 16}.

use bench::{paper_config, Bundle};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_alpha(c: &mut Criterion) {
    let bundles = Bundle::paper_bundles(0.01, 42);
    for bundle in &bundles {
        let queries = bundle.queries(bundle.ds.rows() / 10, 7);
        let mut group = c.benchmark_group(format!("fig12/{}", bundle.ds.name).as_str());
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(600));
        for alpha in [2u64, 4, 8, 16] {
            let ab = bundle.ab(&paper_config(&bundle.ds.name).with_alpha(alpha));
            group.bench_function(format!("alpha={alpha}").as_str(), |b| {
                b.iter(|| {
                    for q in &queries {
                        std::hint::black_box(ab.execute_rect(q));
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_alpha);
criterion_main!(benches);
