//! Property tests: POSIX cursor semantics through the shim vs a reference
//! model, and shim-vs-real equivalence.
//!
//! The heart of LDPLFS is cursor bookkeeping. These tests drive random
//! op sequences through (a) an in-memory reference file model, (b) the
//! real POSIX layer, and (c) the LDPLFS shim over a PLFS mount — all three
//! must agree on every return value and every byte. The ops alternate
//! between two descriptors of one open (`Dup`), which share its cursor.

use ldplfs::{LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix, Whence};
use plfs::{MemBacking, Plfs};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Write(Vec<u8>),
    Read(usize),
    SeekSet(u64),
    SeekCur(i64),
    SeekEnd(i64),
    PWrite(Vec<u8>, u64),
    PRead(usize, u64),
    /// Go on through the other descriptor of the open.
    Dup,
    Writev(Vec<Vec<u8>>),
    Readv(Vec<usize>),
    PWritev(Vec<Vec<u8>>, u64),
    PReadv(Vec<usize>, u64),
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 1..64).prop_map(Op::Write),
            (1usize..64).prop_map(Op::Read),
            (0u64..512).prop_map(Op::SeekSet),
            (-64i64..64).prop_map(Op::SeekCur),
            (-64i64..16).prop_map(Op::SeekEnd),
            (prop::collection::vec(any::<u8>(), 1..32), 0u64..512)
                .prop_map(|(d, o)| Op::PWrite(d, o)),
            ((1usize..32), 0u64..512).prop_map(|(n, o)| Op::PRead(n, o)),
            Just(Op::Dup),
            prop::collection::vec(prop::collection::vec(any::<u8>(), 1..16), 1..4)
                .prop_map(Op::Writev),
            prop::collection::vec(1usize..24, 1..4).prop_map(Op::Readv),
            (
                prop::collection::vec(prop::collection::vec(any::<u8>(), 1..16), 1..4),
                0u64..512
            )
                .prop_map(|(d, o)| Op::PWritev(d, o)),
            (prop::collection::vec(1usize..24, 1..4), 0u64..512)
                .prop_map(|(n, o)| Op::PReadv(n, o)),
        ],
        1..max,
    )
}

/// The reference: a byte vector plus a cursor, implementing POSIX rules.
#[derive(Default)]
struct Model {
    data: Vec<u8>,
    cursor: u64,
}

impl Model {
    fn apply(&mut self, op: &Op) -> (Option<Vec<u8>>, Option<u64>) {
        match op {
            Op::Write(d) => {
                let end = self.cursor as usize + d.len();
                if self.data.len() < end {
                    self.data.resize(end, 0);
                }
                self.data[self.cursor as usize..end].copy_from_slice(d);
                self.cursor = end as u64;
                (None, Some(d.len() as u64))
            }
            Op::Read(n) => {
                let start = self.cursor as usize;
                if start >= self.data.len() {
                    // EOF read: returns nothing, cursor unmoved.
                    return (Some(Vec::new()), None);
                }
                let end = (start + n).min(self.data.len());
                let out = self.data[start..end].to_vec();
                self.cursor = end as u64;
                (Some(out), None)
            }
            Op::SeekSet(o) => {
                self.cursor = *o;
                (None, Some(self.cursor))
            }
            Op::SeekCur(d) => {
                let t = self.cursor as i64 + d;
                if t < 0 {
                    return (None, None); // EINVAL expected
                }
                self.cursor = t as u64;
                (None, Some(self.cursor))
            }
            Op::SeekEnd(d) => {
                let t = self.data.len() as i64 + d;
                if t < 0 {
                    return (None, None);
                }
                self.cursor = t as u64;
                (None, Some(self.cursor))
            }
            Op::PWrite(d, o) => {
                let end = *o as usize + d.len();
                if self.data.len() < end {
                    self.data.resize(end, 0);
                }
                self.data[*o as usize..end].copy_from_slice(d);
                (None, Some(d.len() as u64))
            }
            Op::PRead(n, o) => {
                let start = (*o as usize).min(self.data.len());
                let end = (start + n).min(self.data.len());
                (Some(self.data[start..end].to_vec()), None)
            }
            // Both descriptors share the one cursor.
            Op::Dup => (None, None),
            Op::Writev(bufs) => self.apply(&Op::Write(bufs.concat())),
            Op::Readv(lens) => self.apply(&Op::Read(lens.iter().sum())),
            Op::PWritev(bufs, o) => self.apply(&Op::PWrite(bufs.concat(), *o)),
            Op::PReadv(lens, o) => self.apply(&Op::PRead(lens.iter().sum(), *o)),
        }
    }
}

fn drive(layer: &Arc<dyn PosixLayer>, path: &str, ops: &[Op]) -> (Vec<u8>, Vec<String>) {
    let mut log = Vec::new();
    let first = layer
        .open(path, OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    let fds = [first, layer.dup(first).unwrap()];
    let mut fd = first;
    let mut model = Model::default();
    for op in ops {
        let (want_data, want_val) = model.apply(op);
        match op {
            Op::Dup => {
                fd = if fd == fds[0] { fds[1] } else { fds[0] };
                log.push("dup".into());
            }
            Op::Writev(bufs) => {
                let bufs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
                let n = layer.writev(fd, &bufs).unwrap();
                log.push(format!("writev {n}"));
                assert_eq!(n as u64, want_val.unwrap());
            }
            Op::Readv(lens) => {
                let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0u8; n]).collect();
                let mut slices: Vec<&mut [u8]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                let got = layer.readv(fd, &mut slices).unwrap();
                log.push(format!("readv {got}"));
                assert_eq!(&bufs.concat()[..got], want_data.unwrap().as_slice());
            }
            Op::PWritev(bufs, o) => {
                let bufs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
                let n = layer.pwritev(fd, &bufs, *o).unwrap();
                log.push(format!("pwritev {n}"));
                assert_eq!(n as u64, want_val.unwrap());
            }
            Op::PReadv(lens, o) => {
                let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0u8; n]).collect();
                let mut slices: Vec<&mut [u8]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                let got = layer.preadv(fd, &mut slices, *o).unwrap();
                log.push(format!("preadv {got}"));
                assert_eq!(&bufs.concat()[..got], want_data.unwrap().as_slice());
            }
            Op::Write(d) => {
                let n = layer.write(fd, d).unwrap();
                log.push(format!("write {n}"));
                assert_eq!(n as u64, want_val.unwrap());
            }
            Op::Read(n) => {
                let mut buf = vec![0u8; *n];
                let got = layer.read(fd, &mut buf).unwrap();
                log.push(format!("read {got}"));
                assert_eq!(&buf[..got], want_data.unwrap().as_slice());
            }
            Op::SeekSet(o) => {
                let v = layer.lseek(fd, *o as i64, Whence::Set).unwrap();
                log.push(format!("seek {v}"));
                assert_eq!(v, want_val.unwrap());
            }
            Op::SeekCur(d) => match (layer.lseek(fd, *d, Whence::Cur), want_val) {
                (Ok(v), Some(w)) => {
                    log.push(format!("seekc {v}"));
                    assert_eq!(v, w);
                }
                (Err(_), None) => log.push("seekc EINVAL".into()),
                (got, want) => panic!("seek_cur mismatch: {got:?} vs {want:?}"),
            },
            Op::SeekEnd(d) => match (layer.lseek(fd, *d, Whence::End), want_val) {
                (Ok(v), Some(w)) => {
                    log.push(format!("seeke {v}"));
                    assert_eq!(v, w);
                }
                (Err(_), None) => log.push("seeke EINVAL".into()),
                (got, want) => panic!("seek_end mismatch: {got:?} vs {want:?}"),
            },
            Op::PWrite(d, o) => {
                let n = layer.pwrite(fd, d, *o).unwrap();
                log.push(format!("pwrite {n}"));
                assert_eq!(n as u64, want_val.unwrap());
            }
            Op::PRead(n, o) => {
                let mut buf = vec![0u8; *n];
                let got = layer.pread(fd, &mut buf, *o).unwrap();
                log.push(format!("pread {got}"));
                assert_eq!(&buf[..got], want_data.unwrap().as_slice());
            }
        }
    }
    // Final contents via pread of the full size.
    let size = layer.fstat(fd).unwrap().size;
    let mut all = vec![0u8; size as usize];
    if size > 0 {
        let n = layer.pread(fd, &mut all, 0).unwrap();
        all.truncate(n);
    }
    for fd in fds {
        layer.close(fd).unwrap();
    }
    assert_eq!(all, model.data, "final contents match the model");
    (all, log)
}

fn shim_layer(tag: u64) -> Arc<dyn PosixLayer> {
    let dir = std::env::temp_dir().join(format!("ldplfs-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    Arc::new(
        LdPlfsBuilder::new(under)
            .mount("/plfs", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shim on a PLFS path obeys exact POSIX cursor semantics.
    #[test]
    fn shim_matches_posix_model(ops in ops(24), tag in any::<u64>()) {
        let layer = shim_layer(tag);
        drive(&layer, "/plfs/f", &ops);
    }

    /// The same sequence produces identical bytes and identical op logs on
    /// a PLFS path and a passthrough path — transparency, byte for byte.
    #[test]
    fn shim_is_transparent(ops in ops(20), tag in any::<u64>()) {
        let layer = shim_layer(tag.wrapping_add(1));
        let (plfs_bytes, plfs_log) = drive(&layer, "/plfs/f", &ops);
        let (real_bytes, real_log) = drive(&layer, "/passthrough.dat", &ops);
        prop_assert_eq!(plfs_bytes, real_bytes);
        prop_assert_eq!(plfs_log, real_log);
    }
}
