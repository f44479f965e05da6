//! Ablation benches for the design choices DESIGN.md calls out — the
//! paper's §V.A future work: "investigate the low-level performance
//! effects of a log-based file system and file partitioning in isolation",
//! plus the container knobs (hostdir count, index buffer).

use apps::flash_io::{self, FlashConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpiio::Method;
use plfs::{ContainerParams, LayoutMode, MemBacking, OpenFlags, Plfs};
use simfs::presets;
use std::hint::black_box;
use std::sync::Arc;

/// Log structure vs partitioning in isolation, on the real container code:
/// 8 interleaved writers, strided pattern, measured per write call.
fn bench_layout_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_layout_mode");
    let block = 16 * 1024u64;
    g.throughput(Throughput::Bytes(block * 8));
    for (name, mode) in [
        ("both_plfs", LayoutMode::Both),
        ("partitioned_only", LayoutMode::PartitionedOnly),
        ("log_structured", LayoutMode::LogStructured),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            let plfs = Plfs::new(Arc::new(MemBacking::new())).with_params(ContainerParams {
                num_hostdirs: 8,
                mode,
            });
            let fd = plfs
                .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
                .unwrap();
            for pid in 1..8u64 {
                fd.add_ref(pid);
            }
            let data = vec![3u8; block as usize];
            let mut row = 0u64;
            b.iter(|| {
                for pid in 0..8u64 {
                    plfs.write(&fd, &data, (row * 8 + pid) * block, pid)
                        .unwrap();
                }
                row += 1;
                black_box(row)
            });
        });
    }
    g.finish();
}

/// Index write-buffer size: flush-per-write versus large buffering.
fn bench_index_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_index_buffer");
    for entries in [1usize, 64, 4096] {
        g.bench_with_input(
            BenchmarkId::from_parameter(entries),
            &entries,
            |b, &entries| {
                let plfs = Plfs::new(Arc::new(MemBacking::new())).with_conf(plfs::Conf {
                    index_buffer_entries: entries,
                    ..Default::default()
                });
                let fd = plfs
                    .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
                    .unwrap();
                let data = [5u8; 512];
                let mut off = 0u64;
                b.iter(|| {
                    plfs.write(&fd, &data, off, 0).unwrap();
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

/// Backend spreading: one backend vs several, on the real container code.
fn bench_backend_spread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_backend_spread");
    for backends in [1usize, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(backends), &backends, |b, &n| {
            let backing: Arc<dyn plfs::Backing> = if n == 1 {
                Arc::new(MemBacking::new())
            } else {
                let bs: Vec<Arc<dyn plfs::Backing>> =
                    (0..n).map(|_| Arc::new(MemBacking::new()) as _).collect();
                Arc::new(plfs::SpreadBacking::new(bs).unwrap())
            };
            let plfs = Plfs::new(backing);
            let fd = plfs
                .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
                .unwrap();
            for pid in 1..8u64 {
                fd.add_ref(pid);
            }
            let data = [1u8; 4096];
            let mut row = 0u64;
            b.iter(|| {
                for pid in 0..8u64 {
                    plfs.write(&fd, &data, (row * 8 + pid) * 4096, pid).unwrap();
                }
                row += 1;
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_layout_modes,
    bench_index_buffer,
    bench_hostdir_sweep,
    bench_backend_spread
);
criterion_main!(benches);
