//! Ablation benches for the container constants DESIGN.md calls out: the
//! hostdir count and the index write buffer.

use apps::flash_io::{self, FlashConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpiio::Method;
use plfs::{MemBacking, Plfs, WriteFile};
use simfs::presets;
use std::hint::black_box;
use std::sync::Arc;

/// Index write-buffer size: flush-per-write versus large buffering, the
/// measurement behind `plfs::writer::DEFAULT_INDEX_BUFFER_ENTRIES`, swept
/// through `WriteFile::create`'s buffer limit.
fn bench_index_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_index_buffer");
    for entries in [1usize, 64, 4096] {
        g.bench_with_input(
            BenchmarkId::from_parameter(entries),
            &entries,
            |b, &entries| {
                let plfs = Plfs::new(Arc::new(MemBacking::new()));
                plfs.create("/f", true).unwrap();
                let backing = plfs.backing().as_ref();
                let mut w = WriteFile::create(backing, "/f", 0, entries).unwrap();
                let data = [5u8; 512];
                let mut off = 0u64;
                b.iter(|| {
                    w.write(&data, off).unwrap();
                    off += 512;
                });
            },
        );
    }
    g.finish();
}

/// Hostdir spreading at the Figure 5 collapse point: the paper's proposed
/// mitigation knob, swept on the simulator.
fn bench_hostdir_sweep(c: &mut Criterion) {
    let platform = presets::sierra();
    let mut g = c.benchmark_group("ablate_hostdirs_flash_1536");
    g.sample_size(10);
    for hostdirs in [1u32, 32, 256] {
        g.bench_with_input(
            BenchmarkId::from_parameter(hostdirs),
            &hostdirs,
            |b, &hd| {
                let mut cfg = FlashConfig::paper(1536);
                cfg.num_hostdirs = hd;
                b.iter(|| black_box(flash_io::run(&platform, &cfg, Method::Ldplfs).unwrap()));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_index_buffer, bench_hostdir_sweep);
criterion_main!(benches);
