//! One Criterion bench per row of the figure registry: the wall time of
//! regenerating that table or figure at quick scale (Table II at 1 GB),
//! without emitting it. `paperbench` produces the full sweeps; these keep
//! the regeneration cost tracked and the pipelines exercised under `cargo
//! bench`.

use bench::figures::{Opts, FIGURES};
use bench::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let opts = Opts {
        scale: Scale::Quick,
        gb: 1,
        ..Opts::default()
    };
    let mut g = c.benchmark_group("paper_figures");
    g.sample_size(10);
    for f in FIGURES {
        g.bench_function(f.name, |b| b.iter(|| black_box(f.regenerate(&opts, None))));
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
