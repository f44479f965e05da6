//! Micro-benchmarks of the interposition overhead — the constant LDPLFS
//! adds to each POSIX call (an fd-table lookup, and the cursor's atomic
//! for a cursor call; no call on the layer below), which the paper argues
//! is small enough that LDPLFS matches the ROMIO driver.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldplfs::{LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix, Whence};
use plfs::{MemBacking, Plfs};
use std::hint::black_box;
use std::sync::Arc;

fn shim(tag: &str) -> Arc<ldplfs::LdPlfs> {
    let dir = std::env::temp_dir().join(format!("ldplfs-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    Arc::new(
        LdPlfsBuilder::new(under)
            .mount("/plfs", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap(),
    )
}

fn bench_interception_dispatch(c: &mut Criterion) {
    let s = shim("dispatch");
    let mut g = c.benchmark_group("shim_dispatch");
    // The cost of deciding intercept-vs-passthrough (mount matching) plus
    // the op itself, for a metadata call on each side of the boundary.
    let fd = s
        .open("/plfs/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    s.write(fd, b"x").unwrap();
    s.close(fd).unwrap();
    g.bench_function("stat_intercepted", |b| {
        b.iter(|| black_box(s.stat("/plfs/f").unwrap()));
    });
    {
        let fd = s
            .open("/outside.dat", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"x").unwrap();
        s.close(fd).unwrap();
    }
    g.bench_function("stat_passthrough", |b| {
        b.iter(|| black_box(s.stat("/outside.dat").unwrap()));
    });
    g.finish();
}

fn bench_write_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("shim_write_64k");
    g.throughput(Throughput::Bytes(64 * 1024));
    let data = vec![9u8; 64 * 1024];

    // Through the shim into a PLFS container (fd table + 2 lseeks + PLFS).
    let s = shim("wshim");
    let fd = s
        .open("/plfs/out", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    g.bench_function("ldplfs_to_container", |b| {
        b.iter(|| black_box(s.write(fd, &data).unwrap()));
    });

    // The PLFS API called directly (no shim bookkeeping): the "ROMIO
    // driver" path the paper compares against.
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let pfd = plfs
        .open("/out", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
        .unwrap();
    let mut off = 0u64;
    g.bench_function("plfs_api_direct", |b| {
        b.iter(|| {
            plfs.write(&pfd, &data, off, 0).unwrap();
            off += data.len() as u64;
        });
    });
    g.finish();
}

fn bench_cursor_bookkeeping(c: &mut Criterion) {
    // The paper's mechanism in isolation: lseek on the reserved fd.
    let s = shim("cursor");
    let fd = s
        .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    s.write(fd, &vec![1u8; 1 << 20]).unwrap();
    let mut g = c.benchmark_group("shim_cursor");
    g.bench_function("lseek_set", |b| {
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + 4096) % (1 << 20);
            black_box(s.lseek(fd, pos as i64, Whence::Set).unwrap())
        });
    });
    g.bench_function("lseek_end", |b| {
        b.iter(|| black_box(s.lseek(fd, 0, Whence::End).unwrap()));
    });
    g.finish();
}

fn bench_open_close(c: &mut Criterion) {
    let s = shim("openclose");
    let mut g = c.benchmark_group("shim_open_close");
    let mut i = 0u64;
    g.bench_function("create_write_close_unlink", |b| {
        b.iter(|| {
            let path = format!("/plfs/tmp{i}");
            i += 1;
            let fd = s
                .open(&path, OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
                .unwrap();
            s.write(fd, b"payload").unwrap();
            s.close(fd).unwrap();
            s.unlink(&path).unwrap();
        });
    });
    g.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    // The observability layer's promise: with tracing off (the default) a
    // shim op pays one relaxed atomic load — compare these two numbers to
    // see what enabling costs, and that "off" matches the historic
    // untraced figures above.
    let s = shim("trace");
    let fd = s
        .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    s.write(fd, &vec![1u8; 1 << 20]).unwrap();
    let mut g = c.benchmark_group("shim_trace");
    let run = |b: &mut criterion::Bencher| {
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + 4096) % (1 << 20);
            black_box(s.lseek(fd, pos as i64, Whence::Set).unwrap())
        });
    };
    iotrace::global().set_enabled(false);
    g.bench_function("lseek_tracing_off", run);
    iotrace::global().set_enabled(true);
    g.bench_function("lseek_tracing_on", run);
    iotrace::global().set_enabled(false);
    iotrace::global().reset();
    g.finish();
}

criterion_group!(
    benches,
    bench_interception_dispatch,
    bench_write_overhead,
    bench_cursor_bookkeeping,
    bench_open_close,
    bench_trace_overhead
);
criterion_main!(benches);
