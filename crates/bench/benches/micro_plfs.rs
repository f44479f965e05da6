//! Micro-benchmarks of the PLFS substrate: index merge and resolution,
//! the log-structured write path, the reassembling read path, flatten.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plfs::{
    container, ContainerParams, GlobalIndex, IndexEntry, MemBacking, OpenFlags, Plfs, ReadFile,
};
use std::hint::black_box;
use std::sync::Arc;

fn entry(i: u64, stride: u64) -> IndexEntry {
    IndexEntry {
        logical_offset: (i * 7919) % (stride * 1024),
        length: stride,
        physical_offset: i * stride,
        dropping_id: (i % 16) as u32,
        timestamp: i + 1,
        pid: i % 8,
    }
}

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("index");
    for n in [1_000u64, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("merge_scattered", n), &n, |b, &n| {
            b.iter(|| {
                let mut idx = GlobalIndex::default();
                for i in 0..n {
                    idx.insert(entry(i, 64));
                }
                black_box(idx.segments())
            });
        });
        g.bench_with_input(BenchmarkId::new("merge_sequential", n), &n, |b, &n| {
            // Sequential appends coalesce into one segment: the fast path.
            b.iter(|| {
                let mut idx = GlobalIndex::default();
                for i in 0..n {
                    idx.insert(IndexEntry {
                        logical_offset: i * 64,
                        length: 64,
                        physical_offset: i * 64,
                        dropping_id: 0,
                        timestamp: i + 1,
                        pid: 0,
                    });
                }
                black_box(idx.segments())
            });
        });
    }
    // Resolution against a large merged index.
    let mut idx = GlobalIndex::default();
    for i in 0..100_000 {
        idx.insert(entry(i, 64));
    }
    g.bench_function("resolve_4k_of_100k_segments", |b| {
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 4096) % idx.eof().max(1);
            black_box(idx.resolve(off, 4096))
        });
    });
    g.finish();
}

fn bench_write_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_path");
    for size in [4096u64, 65_536, 1 << 20] {
        g.throughput(Throughput::Bytes(size));
        g.bench_with_input(BenchmarkId::new("plfs_write", size), &size, |b, &size| {
            let plfs = Plfs::new(Arc::new(MemBacking::new()));
            let fd = plfs
                .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
                .unwrap();
            let data = vec![7u8; size as usize];
            let mut off = 0u64;
            b.iter(|| {
                plfs.write(&fd, &data, off, 0).unwrap();
                off += size;
            });
        });
    }
    g.finish();
}

/// `writers` threads racing a strided checkpoint through one fd, plus the
/// O(1) append fast path.
fn bench_multi_writer(c: &mut Criterion) {
    let writers = 8usize;
    let rows = 64usize;
    let block = 4096usize;
    let volume = (writers * rows * block) as u64;
    let run = || {
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        let fd = plfs
            .open("/w", OpenFlags::RDWR | OpenFlags::CREAT, 0)
            .unwrap();
        for p in 1..writers as u64 {
            fd.add_ref(p);
        }
        std::thread::scope(|s| {
            for w in 0..writers {
                let plfs = &plfs;
                let fd = fd.clone();
                s.spawn(move || {
                    let pid = w as u64;
                    let data = vec![w as u8; block];
                    for r in 0..rows {
                        plfs.write(&fd, &data, ((r * writers + w) * block) as u64, pid)
                            .unwrap();
                    }
                    plfs.sync(&fd, pid).unwrap();
                });
            }
        });
        black_box(fd.size().unwrap())
    };

    let mut g = c.benchmark_group("multi_writer");
    g.throughput(Throughput::Bytes(volume));
    g.bench_function("checkpoint_8_writers", |b| b.iter(run));

    // Append latency: atomic-EOF fast path, no index merge per append.
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/a", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let chunk = vec![7u8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("append_fastpath_64b", |b| {
        b.iter(|| black_box(fd.append(&chunk, 0).unwrap()));
    });
    g.finish();
}

/// One overwrite + read-back on an `O_RDWR` fd whose read view already
/// holds N segments: the in-place patch must cost the same at every N.
fn bench_read_after_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_after_write");
    for segments in [1u64 << 10, 1 << 14, 1 << 18] {
        let (plfs, fd) = bench::fragmented_fd(segments);
        let mut buf = [0u8; 16];
        let mut i = 0u64;
        g.bench_with_input(
            BenchmarkId::new("pwrite_pread_16b", segments),
            &segments,
            |b, &segments| {
                b.iter(|| {
                    i += 1;
                    let off = (i.wrapping_mul(7919) % segments) * 16;
                    plfs.write(&fd, &[i as u8; 16], off, 0).unwrap();
                    black_box(plfs.read(&fd, &mut buf, off).unwrap())
                });
            },
        );
    }
    g.finish();
}

fn bench_read_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_path");
    // Container written by 16 interleaved writers, read back sequentially.
    let plfs = Plfs::new(Arc::new(MemBacking::new())).with_params(ContainerParams {
        num_hostdirs: 8,
        mode: plfs::LayoutMode::Both,
    });
    let fd = plfs
        .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let block = 64 * 1024u64;
    for pid in 0..16u64 {
        fd.add_ref(pid);
        let data = vec![pid as u8; block as usize];
        for row in 0..32u64 {
            plfs.write(&fd, &data, (row * 16 + pid) * block, pid)
                .unwrap();
        }
    }
    let total = 16 * 32 * block;
    g.throughput(Throughput::Bytes(block));
    g.bench_function("pread_64k_interleaved_16_writers", |b| {
        let mut buf = vec![0u8; block as usize];
        let mut off = 0u64;
        b.iter(|| {
            let n = plfs.read(&fd, &mut buf, off).unwrap();
            off = (off + block) % total;
            black_box(n)
        });
    });
    g.finish();
}

/// Write a strided container with `droppings` writer pids, `rows` blocks
/// each, `block` bytes per write — the N-to-1 checkpoint shape.
fn strided_container(
    droppings: usize,
    rows: usize,
    block: usize,
) -> (Arc<MemBacking>, &'static str) {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone()).with_params(ContainerParams {
        num_hostdirs: 16,
        mode: plfs::LayoutMode::Both,
    });
    let fd = plfs
        .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for p in 0..droppings as u64 {
        fd.add_ref(p);
        let data = vec![p as u8; block];
        for r in 0..rows as u64 {
            plfs.write(&fd, &data, (r * droppings as u64 + p) * block as u64, p)
                .unwrap();
        }
    }
    for p in 0..droppings as u64 {
        let _ = plfs.close(&fd, p);
    }
    plfs.close(&fd, 0).unwrap();
    (backing, "/c")
}

/// The one read-open of a 256-dropping container (fetch + decode every
/// index dropping, merge the runs) against the `from_entries` reference
/// fed the same decoded entries, plus one large pread spanning many
/// droppings.
fn bench_open_path(c: &mut Criterion) {
    let droppings = 256usize;
    let rows = 256usize;
    let block = 512usize;
    let (backing, path) = strided_container(droppings, rows, block);

    let mut g = c.benchmark_group("open_path");
    g.bench_function("open_256_droppings", |b| {
        b.iter(|| black_box(ReadFile::open(backing.as_ref(), path).unwrap().eof()));
    });
    g.bench_function("reference_from_entries_256_droppings", |b| {
        b.iter(|| {
            let droppings = container::list_droppings(backing.as_ref(), path).unwrap();
            let runs = container::read_index_runs(backing.as_ref(), &droppings).unwrap();
            black_box(GlobalIndex::from_entries(runs.concat()).eof())
        });
    });

    let rf = ReadFile::open(backing.as_ref(), path).unwrap();
    let read = 4 << 20usize;
    let total = (droppings * rows * block) as u64;
    let mut buf = vec![0u8; read];
    g.throughput(Throughput::Bytes(read as u64));
    g.bench_function("pread_4m", |b| {
        let mut off = 0u64;
        b.iter(|| {
            let n = rf.pread(backing.as_ref(), &mut buf, off).unwrap();
            off = (off + read as u64) % (total - read as u64);
            black_box(n)
        });
    });
    g.finish();
}

fn bench_flatten(c: &mut Criterion) {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
        .unwrap();
    for pid in 0..8u64 {
        fd.add_ref(pid);
        plfs.write(&fd, &vec![pid as u8; 128 * 1024], pid * 128 * 1024, pid)
            .unwrap();
        plfs.close(&fd, pid).unwrap();
    }
    plfs.close(&fd, 0).unwrap();
    let mut g = c.benchmark_group("flatten");
    g.throughput(Throughput::Bytes(8 * 128 * 1024));
    g.bench_function("flatten_1mb_8_droppings", |b| {
        b.iter(|| black_box(plfs::flatten::flatten_to_vec(backing.as_ref(), "/f").unwrap()));
    });
    g.finish();
}

fn bench_pattern_compression(c: &mut Criterion) {
    use plfs::index::encode_compressed;
    let mut g = c.benchmark_group("index_compression");
    // The BT shape: thousands of strided entries.
    let strided: Vec<IndexEntry> = (0..10_000u64)
        .map(|i| IndexEntry {
            logical_offset: i * 4096,
            length: 1024,
            physical_offset: i * 1024,
            dropping_id: 0,
            timestamp: i + 1,
            pid: 1,
        })
        .collect();
    g.bench_function("encode_10k_strided", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            black_box(encode_compressed(&strided, 3, &mut out))
        });
    });
    // Irregular entries: worst case, plain records.
    let irregular: Vec<IndexEntry> = (0..10_000u64)
        .map(|i| IndexEntry {
            logical_offset: (i * 7919) % 1_000_000,
            length: 100 + (i % 97),
            physical_offset: i * 1200,
            dropping_id: 0,
            timestamp: i + 1,
            pid: 1,
        })
        .collect();
    g.bench_function("encode_10k_irregular", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            black_box(encode_compressed(&irregular, 3, &mut out))
        });
    });
    // Decode (expansion) of the compressed strided batch.
    let mut compressed = Vec::new();
    encode_compressed(&strided, 3, &mut compressed);
    g.bench_function("decode_compressed_strided", |b| {
        b.iter(|| black_box(IndexEntry::decode_all(&compressed).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_index,
    bench_write_path,
    bench_multi_writer,
    bench_read_after_write,
    bench_read_path,
    bench_open_path,
    bench_flatten,
    bench_pattern_compression
);
criterion_main!(benches);
