//! Property tests of the identity spelling: a creator closes its index under
//! `<eof>.i<stamp>` exactly when every record it logged maps a logical
//! offset to the same physical offset, and a fresh read — which builds its
//! view from that name when the creator's pair is alone — equals the byte
//! model either way.

use plfs::container::{self, Closed};
use plfs::{Backing, IndexEntry, MemBacking, OpenFlags, Plfs, PlfsFd};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a creator's life, or of a process beside it.
#[derive(Debug, Clone)]
enum Op {
    /// `write`: at the creator's cursor, which moves past it.
    Write(usize),
    /// `pwrite` anywhere up to a little past the end.
    Pwrite(u64, usize),
    /// A read of a range inside the file, then a `pwrite` of it: an
    /// overwrite of what the read view holds, in place when it is the
    /// creator's own bytes.
    Overwrite(u64, usize),
    /// `ftruncate` through the creator's fd.
    Ftruncate(u64),
    /// A fork: the parent flushes its index records, and the child — a
    /// process of its own, whose copy of the fd an open of its own stands
    /// in for — writes under its pid and closes.
    ForkChildWrite(u64, usize),
    /// Another process opens the file, writes and closes.
    Join(u64, usize),
}

fn op() -> impl Strategy<Value = Op> {
    // Weighted by the first number: cursor writes and overwrites most.
    (0u8..14, 0u64..1200, 1usize..300).prop_map(|(kind, off, len)| match kind {
        0..=5 => Op::Write(len),
        6 | 7 => Op::Pwrite(off, len),
        8..=10 => Op::Overwrite(off, len),
        11 => Op::Ftruncate(off),
        12 => Op::ForkChildWrite(off, len),
        _ => Op::Join(off, len),
    })
}

/// The logical file as a byte vector: later writes win.
#[derive(Default)]
struct Model(Vec<u8>);

impl Model {
    fn write(&mut self, off: u64, data: &[u8]) {
        let end = off as usize + data.len();
        if self.0.len() < end {
            self.0.resize(end, 0);
        }
        self.0[off as usize..end].copy_from_slice(data);
    }
}

/// Bytes of step `i`: distinct per step, so a misplaced range shows.
fn bytes(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|k| (i * 31 + k) as u8).collect()
}

/// The creator's closed index name and its records, if its pair is there.
fn creator_index(b: &dyn Backing) -> Option<(Closed, Vec<IndexEntry>)> {
    b.readdir("/f").unwrap().iter().find_map(|n| {
        let (container::CREATOR_PAIR, closed) = container::parse_index_name(n)? else {
            return None;
        };
        let f = b.open(&format!("/f/{n}"), false).unwrap();
        let mut raw = vec![0u8; f.size().unwrap() as usize];
        f.pread(&mut raw, 0).unwrap();
        Some((closed?, IndexEntry::decode_all(&raw).unwrap()))
    })
}

/// Run `ops` from a creator's `open(O_RDWR | O_CREAT)` through its close;
/// returns the backing and the model.
fn run(ops: &[Op]) -> (Arc<MemBacking>, Model) {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let rw = OpenFlags::RDWR | OpenFlags::CREAT;
    let fd: Arc<PlfsFd> = plfs.open("/f", rw, 1).unwrap();
    let mut model = Model::default();
    let mut cursor = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Write(len) => {
                plfs.write(&fd, &bytes(i, len), cursor, 1).unwrap();
                model.write(cursor, &bytes(i, len));
                cursor += len as u64;
            }
            Op::Pwrite(off, len) => {
                plfs.write(&fd, &bytes(i, len), off, 1).unwrap();
                model.write(off, &bytes(i, len));
            }
            Op::Overwrite(off, len) => {
                let size = model.0.len() as u64;
                if size == 0 {
                    continue;
                }
                let off = off % size;
                let len = (len as u64).min(size - off) as usize;
                // The read builds or patches the fd's view, which the
                // overwrite needs to go in place. (Another process's writes
                // since the view was built are not in it, as with PLFS.)
                plfs.read(&fd, &mut vec![0u8; len], off).unwrap();
                plfs.write(&fd, &bytes(i, len), off, 1).unwrap();
                model.write(off, &bytes(i, len));
            }
            Op::Ftruncate(len) => {
                fd.reset_writers().unwrap();
                plfs.trunc("/f", len).unwrap();
                model.0.resize(len as usize, 0);
            }
            Op::ForkChildWrite(off, len) => {
                fd.flush_index().unwrap();
                let child = Plfs::new(backing.clone());
                let pid = 1000 + i as u64;
                let cfd = child.open("/f", OpenFlags::RDWR, pid).unwrap();
                child.write(&cfd, &bytes(i, len), off, pid).unwrap();
                child.close(&cfd, pid).unwrap();
                model.write(off, &bytes(i, len));
            }
            Op::Join(off, len) => {
                let other = Plfs::new(backing.clone());
                let pid = 2000 + i as u64;
                let jfd = other.open("/f", rw, pid).unwrap();
                other.write(&jfd, &bytes(i, len), off, pid).unwrap();
                other.close(&jfd, pid).unwrap();
                model.write(off, &bytes(i, len));
            }
        }
    }
    plfs.close(&fd, 1).unwrap();
    (backing, model)
}

/// The identity spelling holds exactly when the records earn it, a fresh
/// read of the closed file equals the model, and `check` finds it clean.
fn assert_spelled_and_read(backing: &Arc<MemBacking>, model: &Model) {
    let b = backing.as_ref();
    if let Some((closed, records)) = creator_index(b) {
        let identity = !records.is_empty()
            && records
                .iter()
                .all(|e| e.logical_offset == e.physical_offset);
        assert_eq!(
            closed.identity.is_some(),
            identity,
            "{closed:?} {records:?}"
        );
        if let Some(stamp) = closed.identity {
            let eof = records.iter().map(IndexEntry::logical_end).max();
            let newest = records.iter().map(|e| e.timestamp).max();
            assert_eq!((Some(closed.eof), Some(stamp)), (eof, newest));
        }
    }
    let fresh = Plfs::new(backing.clone());
    let fd = fresh.open("/f", OpenFlags::RDONLY, 7).unwrap();
    let mut got = vec![0xA5u8; model.0.len() + 16];
    let n = fresh.read(&fd, &mut got, 0).unwrap();
    assert_eq!(&got[..n], &model.0[..], "fresh read");
    let report = plfs::check(b, "/f").unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_identity_name_is_given_exactly_when_every_record_earns_it(
        ops in prop::collection::vec(op(), 1..14),
    ) {
        let (backing, model) = run(&ops);
        assert_spelled_and_read(&backing, &model);
    }
}

/// A creator that wrote `[512, 1024)` before `[0, 512)` covers `[0, 1024)`
/// with no hole, but its bytes lie swapped in its data dropping: it earns
/// no identity name, and a reader that took one would read them swapped.
#[test]
fn a_creator_that_wrote_out_of_order_earns_no_identity_name() {
    let ops = [Op::Pwrite(512, 512), Op::Pwrite(0, 512)];
    let (backing, model) = run(&ops);
    assert_eq!(
        creator_index(backing.as_ref()).unwrap().0,
        Closed::sized(1024, 1024)
    );
    assert_spelled_and_read(&backing, &model);
    // In order, and overwritten in place after a read: identity.
    let ops = [Op::Write(512), Op::Write(512), Op::Overwrite(100, 600)];
    let (backing, model) = run(&ops);
    let (closed, _) = creator_index(backing.as_ref()).unwrap();
    assert_eq!((closed.eof, closed.identity.is_some()), (1024, true));
    assert_spelled_and_read(&backing, &model);
}
