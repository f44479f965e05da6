//! The five workloads: seeded generators for the clients' op lists and
//! payloads, and the model that says what every file must contain and what
//! every client must have read afterwards.
//!
//! Same seed ⇒ byte-identical op lists and payloads; another seed ⇒ other
//! offsets, shuffles and payload bytes. Sizes are fixed per workload (only
//! a tail of a few KiB depends on the seed), so a rep is the same amount of
//! work on every commit.

use crate::oplist::{fold, Op, OpList, O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY};
use std::collections::{BTreeMap, BTreeSet};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// Bytes of seeded payload every client loads; writes take slices of it.
pub const PAYLOAD_BYTES: usize = 4 << 20;

pub struct Workload {
    pub name: &'static str,
    /// Client processes (and threads in the `ldplfs` replay).
    pub clients: usize,
    /// Why the workload exists; repeated in `BENCHMARK.json`.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ckpt_n1",
        clients: 2,
        // Time is almost all backing data syscalls: the bypass workload for
        // shim/index/metadata work, the one that moves for write-path work.
        why: "Paper Fig 3/5 headline: 2 writers checkpoint one logical file N-to-1 in strided 64 KiB records. Bypass for shim/index/metadata work; moves for write-path changes.",
    },
    Workload {
        name: "restart_read",
        clients: 2,
        // Working set (container x 2 readers) is far above any in-program cache.
        why: "Read side of the same layers: cold decode+merge of a shuffled 8-writer index, sequential scan and random 4 KiB preads through the default O_RDONLY snapshot open.",
    },
    Workload {
        name: "unix_tools",
        clients: 1,
        // dd bs=4k is where per-call preload cost dominates; the read tools
        // exercise snapshot opens and glibc-internal I/O.
        why: "Paper Table II: unmodified cp, dd 4k/1M, cat, grep, md5sum on a container vs a flat file; the 'without application modification' claim (ratio near 1).",
    },
    Workload {
        name: "meta_storm",
        clients: 1,
        // Backing metadata ops, plfs::container and plfs::meta do all the
        // work; the data layers do almost none.
        why: "Paper Fig 5 MDS-collapse mechanism: create/stat/open/unlink cycles over 64 small files, so container creation and backing metadata ops are all the cost.",
    },
    Workload {
        name: "rw_update",
        clients: 1,
        // A write-path gain that costs readers, or the reverse, shows here.
        why: "Reads beside writes on one O_RDWR fd (read-your-writes, index refresh, reader rebuild) through the interposed read path that restart_read's snapshot bypasses.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// Sizes. Chosen so one rep of both arms plus verification takes about a
// second on two cores: a run of ten-odd seconds then holds enough reps for
// a steady median.
const CKPT_RECORD: u64 = 64 * KIB;
const CKPT_RECORDS_PER_RANK: u64 = 4096; // x 2 ranks x 64 KiB = 512 MiB
const RESTART_BYTES: u64 = 256 * MIB;
const RESTART_RECORD: u64 = 4 * KIB;
const RESTART_PIDS: u64 = 8;
const RESTART_SCAN: u64 = 64 * KIB;
const RESTART_RANDOM_READS: u64 = 2048;
const TOOLS_BYTES: u64 = 64 * MIB;
/// The layer passes replay the tools' call pattern on a smaller file: the
/// per-call costs they report do not depend on how long the pattern runs.
const TOOLS_REPLAY_BYTES: u64 = 16 * MIB;
const META_NAMES: u64 = 64;
const META_CYCLES: u64 = 2000;
const RW_BYTES: u64 = 64 * MIB;
const RW_FILL: u64 = MIB;
const RW_BLOCK: u64 = 4 * KIB;
const RW_PAIRS: u64 = 4096;
const RW_SCAN: u64 = 64 * KIB;

/// splitmix64: tiny, seedable, and good enough to scatter offsets.
pub struct Rng(u64);

impl Rng {
    /// Independent streams per (seed, purpose) so that adding a draw to one
    /// generator does not shift every other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// An 8-aligned payload offset that leaves room for `len` bytes.
    fn src(&mut self, len: u64) -> u32 {
        (8 * self.below((PAYLOAD_BYTES as u64 - len) / 8 + 1)) as u32
    }

    /// A seed-dependent size just under `nominal`, a multiple of `unit`.
    fn jitter_down(&mut self, nominal: u64, unit: u64, span: u64) -> u64 {
        nominal - unit * self.below(span)
    }
}

/// One write the set-up makes through the plfs API, outside timed sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreWrite {
    pub pid: u64,
    pub off: u64,
    pub len: u32,
    pub src: u32,
}

/// A file that exists before the clients start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreFile {
    pub name: String,
    pub writes: Vec<PreWrite>,
}

/// The coreutils half of `unix_tools`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tools {
    pub text: Vec<u8>,
    pub pattern: String,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub payload: Vec<u8>,
    /// Files built through the plfs API before the clients start.
    pub prefiles: Vec<PreFile>,
    /// One op list per client. For `unix_tools` the timed section runs
    /// coreutils instead and this list replays their call pattern for the
    /// layer passes.
    pub clients: Vec<OpList>,
    pub tools: Option<Tools>,
    /// Times the client repeats its basic cycle (1 unless the workload is
    /// a loop of cycles); the unit of `plfs.backing.meta_ops_per_cycle`.
    pub cycles: u64,
}

fn payload(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    while out.len() < PAYLOAD_BYTES {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Sequential ops covering `[start, end)` in `chunk`-sized pieces.
fn pieces(start: u64, end: u64, chunk: u64) -> impl Iterator<Item = (u64, u32)> {
    (start..end)
        .step_by(chunk as usize)
        .map(move |off| (off, chunk.min(end - off) as u32))
}

fn ckpt_n1(rng: &mut Rng) -> Plan {
    let ranks = 2u64;
    // Only the file's last record is short, by a seeded amount.
    let tail = rng.jitter_down(CKPT_RECORD, 8, CKPT_RECORD / 8 - 1) as u32;
    let clients = (0..ranks)
        .map(|rank| {
            let mut ops = vec![Op::Open {
                path: 0,
                flags: O_WRONLY | O_CREAT,
            }];
            for i in 0..CKPT_RECORDS_PER_RANK {
                let last = rank == ranks - 1 && i == CKPT_RECORDS_PER_RANK - 1;
                let len = if last { tail } else { CKPT_RECORD as u32 };
                ops.push(Op::Pwrite {
                    off: (i * ranks + rank) * CKPT_RECORD,
                    len,
                    src: rng.src(len as u64),
                });
            }
            ops.push(Op::Close);
            OpList {
                paths: vec!["ckpt".into()],
                ops,
            }
        })
        .collect();
    Plan {
        // The file exists, empty, before the writers start - rank 0 creates,
        // barrier, everybody opens, as an MPI job does. Two processes that
        // create one new container at the same moment race in plfs, and the
        // loser's open fails (see README, "Findings").
        prefiles: vec![PreFile {
            name: "ckpt".into(),
            writes: Vec::new(),
        }],
        clients,
        ..Plan::empty()
    }
}

fn restart_read(rng: &mut Rng) -> Plan {
    let size = rng.jitter_down(RESTART_BYTES, RESTART_RECORD, 256);
    let mut writes: Vec<PreWrite> = pieces(0, size, RESTART_RECORD)
        .enumerate()
        .map(|(k, (off, len))| PreWrite {
            pid: 1 + k as u64 % RESTART_PIDS,
            off,
            len,
            src: rng.src(len as u64),
        })
        .collect();
    // Shuffled issue order: every index entry is a plain record, no
    // strided run for pattern compression to fold.
    rng.shuffle(&mut writes);
    let half = size / 2 / RESTART_SCAN * RESTART_SCAN;
    let clients = (0..2u64)
        .map(|r| {
            let (start, end) = if r == 0 { (0, half) } else { (half, size) };
            let mut ops = vec![Op::Open {
                path: 0,
                flags: O_RDONLY,
            }];
            ops.extend(pieces(start, end, RESTART_SCAN).map(|(off, len)| Op::Pread { off, len }));
            for _ in 0..RESTART_RANDOM_READS {
                let off = RESTART_RECORD * rng.below(size / RESTART_RECORD);
                ops.push(Op::Pread {
                    off,
                    len: RESTART_RECORD as u32,
                });
            }
            ops.push(Op::Close);
            OpList {
                paths: vec!["restart".into()],
                ops,
            }
        })
        .collect();
    Plan {
        prefiles: vec![PreFile {
            name: "restart".into(),
            writes,
        }],
        clients,
        ..Plan::empty()
    }
}

/// Seeded text: a page of random lower-case words in 76-column lines,
/// repeated, each copy led by a line unique to it.
fn text(rng: &mut Rng, size: u64) -> Vec<u8> {
    let mut page = Vec::with_capacity(MIB as usize);
    while page.len() < MIB as usize - 80 {
        let mut line = 0;
        while line < 70 {
            let word = 2 + rng.below(8);
            for _ in 0..word {
                page.push(b'a' + rng.below(26) as u8);
            }
            page.push(b' ');
            line += word + 1;
        }
        *page.last_mut().expect("line is not empty") = b'\n';
    }
    let mut out = Vec::with_capacity(size as usize + page.len());
    let mut n = 0;
    while (out.len() as u64) < size {
        out.extend_from_slice(format!("page {n} {:016x}\n", rng.next_u64()).as_bytes());
        out.extend_from_slice(&page);
        n += 1;
    }
    out.truncate(size as usize);
    out
}

fn unix_tools(rng: &mut Rng) -> Plan {
    let size = rng.jitter_down(TOOLS_BYTES, 1, 64 * KIB);
    let text = text(rng, size);
    // A three-letter pattern taken from the text itself, so grep always
    // has matching lines to count.
    let at = text.iter().position(|&b| b == b'\n').unwrap_or(0) + 1;
    let pattern = String::from_utf8_lossy(&text[at..at + 3]).replace(' ', "a");

    // The tools' call pattern, for the layer passes: three writers with
    // their buffer sizes, four readers with theirs.
    let paths: Vec<String> = ["cp_in", "dd_4k", "dd_1m"].map(String::from).to_vec();
    let mut ops = Vec::new();
    for (path, chunk) in [(0, 128 * KIB), (1, 4 * KIB), (2, MIB)] {
        ops.push(Op::Open {
            path,
            flags: O_WRONLY | O_CREAT | O_TRUNC,
        });
        ops.extend(
            pieces(0, TOOLS_REPLAY_BYTES, chunk).map(|(off, len)| Op::Write {
                len,
                src: (off % (PAYLOAD_BYTES as u64 - chunk + 1) / 8 * 8) as u32,
            }),
        );
        ops.push(Op::Close);
    }
    // cat, grep, md5sum, cp out
    for (path, chunk) in [(0, 128 * KIB), (1, 96 * KIB), (2, 32 * KIB), (0, 128 * KIB)] {
        ops.push(Op::Open {
            path,
            flags: O_RDONLY,
        });
        ops.extend(pieces(0, TOOLS_REPLAY_BYTES, chunk).map(|(_, len)| Op::Read { len }));
        ops.push(Op::Close);
    }
    Plan {
        clients: vec![OpList { paths, ops }],
        tools: Some(Tools { text, pattern }),
        ..Plan::empty()
    }
}

fn meta_storm(rng: &mut Rng) -> Plan {
    let paths: Vec<String> = (0..META_NAMES).map(|i| format!("small.{i:02}")).collect();
    let mut ops = Vec::new();
    // The storm, then one last cycle per name that leaves the file in
    // place so its contents can be verified afterwards.
    let mut cycles: Vec<(u32, bool)> = (0..META_CYCLES)
        .map(|_| (rng.below(META_NAMES) as u32, true))
        .collect();
    cycles.extend((0..META_NAMES as u32).map(|p| (p, false)));
    for &(path, unlink) in &cycles {
        let len = (KIB - 256 + 8 * rng.below(64)) as u32; // about 1 KiB
        ops.push(Op::Open {
            path,
            flags: O_WRONLY | O_CREAT | O_TRUNC,
        });
        ops.push(Op::Write {
            len,
            src: rng.src(len as u64),
        });
        ops.push(Op::Close);
        ops.push(Op::Stat {
            path,
            size: len as u64,
        });
        ops.push(Op::Open {
            path,
            flags: O_RDONLY,
        });
        ops.push(Op::Read { len });
        ops.push(Op::Close);
        if unlink {
            ops.push(Op::Unlink { path });
        }
    }
    Plan {
        clients: vec![OpList { paths, ops }],
        cycles: cycles.len() as u64,
        ..Plan::empty()
    }
}

fn rw_update(rng: &mut Rng) -> Plan {
    let size = rng.jitter_down(RW_BYTES, RW_BLOCK, 64);
    // The client fills the file itself before it updates it. A file filled
    // by an earlier process would be wrong to use here: plfs orders
    // overlapping writes by a per-process logical clock, so on a fresh merge
    // this process's overwrites can lose to the earlier process's writes
    // (seen as a verification failure; see README, "Findings").
    let mut ops = vec![Op::Open {
        path: 0,
        flags: O_RDWR | O_CREAT,
    }];
    ops.extend(pieces(0, size, RW_FILL).map(|(off, len)| Op::Pwrite {
        off,
        len,
        src: rng.src(len as u64),
    }));
    for _ in 0..RW_PAIRS {
        let off = RW_BLOCK * rng.below(size / RW_BLOCK);
        ops.push(Op::Pread {
            off,
            len: RW_BLOCK as u32,
        });
        ops.push(Op::Pwrite {
            off,
            len: RW_BLOCK as u32,
            src: rng.src(RW_BLOCK),
        });
    }
    ops.extend(pieces(0, size, RW_SCAN).map(|(_, len)| Op::Read { len }));
    ops.push(Op::Fsync);
    ops.push(Op::Close);
    Plan {
        clients: vec![OpList {
            paths: vec!["update".into()],
            ops,
        }],
        ..Plan::empty()
    }
}

impl Plan {
    fn empty() -> Plan {
        Plan {
            payload: Vec::new(),
            prefiles: Vec::new(),
            clients: Vec::new(),
            tools: None,
            cycles: 1,
        }
    }

    /// Generate a workload's inputs from the seed.
    pub fn generate(w: &Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed, 2);
        let plan = match w.name {
            "ckpt_n1" => ckpt_n1(&mut rng),
            "restart_read" => restart_read(&mut rng),
            "unix_tools" => unix_tools(&mut rng),
            "meta_storm" => meta_storm(&mut rng),
            "rw_update" => rw_update(&mut rng),
            other => unreachable!("workload {other} is not in WORKLOADS"),
        };
        Plan {
            payload: payload(seed),
            ..plan
        }
    }

    /// Whether the timed section changes files: then every timed section
    /// needs its files reset and its results verified. (The tools of
    /// `unix_tools` always write.)
    pub fn writes(&self) -> bool {
        let changes = |op: &Op| match *op {
            Op::Pwrite { .. } | Op::Write { .. } | Op::Unlink { .. } => true,
            Op::Open { flags, .. } => flags & (O_CREAT | O_TRUNC) != 0,
            _ => false,
        };
        self.tools.is_some() || self.clients.iter().any(|c| c.ops.iter().any(changes))
    }
}

/// What the files must hold and what the clients must have read.
pub struct Model {
    /// Prefile contents before any client ran.
    pub pre: BTreeMap<String, Vec<u8>>,
    /// Files the clients created or changed (copy-on-write over `pre`).
    changed: BTreeMap<String, Vec<u8>>,
    unlinked: BTreeSet<String>,
    /// Per client: bytes read and their [`fold`] checksum.
    pub reads: Vec<(u64, u64)>,
}

fn write_at(file: &mut Vec<u8>, off: u64, data: &[u8]) {
    let end = off as usize + data.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[off as usize..end].copy_from_slice(data);
}

impl Model {
    /// Run the plan against an in-memory file system. Clients run one
    /// after the other, which is exact because no workload has one client
    /// read what another writes.
    pub fn of(plan: &Plan) -> Model {
        let mut m = Model {
            pre: BTreeMap::new(),
            changed: BTreeMap::new(),
            unlinked: BTreeSet::new(),
            reads: Vec::new(),
        };
        for pf in &plan.prefiles {
            let mut file = Vec::new();
            for w in &pf.writes {
                write_at(
                    &mut file,
                    w.off,
                    &plan.payload[w.src as usize..][..w.len as usize],
                );
            }
            m.pre.insert(pf.name.clone(), file);
        }
        for list in &plan.clients {
            let (mut cur, mut cursor) = (String::new(), 0u64);
            let (mut bytes, mut sum) = (0u64, 0u64);
            for &op in &list.ops {
                match op {
                    Op::Open { path, flags } => {
                        cur = list.paths[path as usize].clone();
                        cursor = 0;
                        if flags & O_TRUNC != 0 || (flags & O_CREAT != 0 && m.file(&cur).is_none())
                        {
                            m.unlinked.remove(&cur);
                            m.changed.insert(cur.clone(), Vec::new());
                        }
                    }
                    Op::Pwrite { off, len, src } => {
                        let data = &plan.payload[src as usize..][..len as usize];
                        write_at(m.file_mut(&cur), off, data);
                    }
                    Op::Write { len, src } => {
                        let data = &plan.payload[src as usize..][..len as usize];
                        write_at(m.file_mut(&cur), cursor, data);
                        cursor += len as u64;
                    }
                    Op::Pread { off, len } => {
                        let file = m.file(&cur).expect("generated reads hit existing files");
                        sum = fold(sum, &file[off as usize..][..len as usize]);
                        bytes += len as u64;
                    }
                    Op::Read { len } => {
                        let file = m.file(&cur).expect("generated reads hit existing files");
                        sum = fold(sum, &file[cursor as usize..][..len as usize]);
                        bytes += len as u64;
                        cursor += len as u64;
                    }
                    Op::Unlink { path } => {
                        let name = &list.paths[path as usize];
                        m.changed.remove(name);
                        m.unlinked.insert(name.clone());
                    }
                    Op::Close | Op::Fsync | Op::Stat { .. } => {}
                }
            }
            m.reads.push((bytes, sum));
        }
        m
    }

    fn file(&self, name: &str) -> Option<&Vec<u8>> {
        if self.unlinked.contains(name) {
            return None;
        }
        self.changed.get(name).or_else(|| self.pre.get(name))
    }

    fn file_mut(&mut self, name: &str) -> &mut Vec<u8> {
        if !self.changed.contains_key(name) {
            let base = self.pre.get(name).cloned().unwrap_or_default();
            self.changed.insert(name.to_string(), base);
        }
        self.changed.get_mut(name).expect("just inserted")
    }

    /// Every file that must exist once the clients are done, with its
    /// expected contents.
    pub fn final_files(&self) -> Vec<(&str, &[u8])> {
        let names: BTreeSet<&String> = self.pre.keys().chain(self.changed.keys()).collect();
        names
            .into_iter()
            .filter_map(|n| self.file(n).map(|f| (n.as_str(), f.as_slice())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(plan: &Plan) -> Vec<Vec<u8>> {
        plan.clients.iter().map(|c| c.encode()).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_offsets() {
        for w in &WORKLOADS {
            let a = Plan::generate(w, 7);
            let b = Plan::generate(w, 7);
            assert!(encoded(&a) == encoded(&b), "{}", w.name);
            assert!(a == b, "{}: same seed must give the same plan", w.name);
            let c = Plan::generate(w, 8);
            assert!(a.payload != c.payload, "{}", w.name);
            // unix_tools replays the tools' fixed call pattern; its seed
            // goes into the text the tools copy.
            match &a.tools {
                Some(t) => assert!(Some(t) != c.tools.as_ref(), "{}", w.name),
                None => assert!(encoded(&a) != encoded(&c), "{}", w.name),
            }
            assert_eq!(a.clients.len(), w.clients, "{}", w.name);
        }
    }

    #[test]
    fn op_lists_round_trip_through_the_file_format() {
        for w in &WORKLOADS {
            let plan = Plan::generate(w, 3);
            for list in &plan.clients {
                let back = OpList::decode(&list.encode(), plan.payload.len()).unwrap();
                assert!(&back == list, "{}", w.name);
            }
        }
        assert!(OpList::decode(b"OPL1\x01\0\0\0", 0).is_err());
        let bad = OpList {
            paths: vec![],
            ops: vec![Op::Unlink { path: 0 }],
        };
        assert!(OpList::decode(&bad.encode(), 0).is_err());
    }

    #[test]
    fn restart_index_has_no_strided_runs() {
        let plan = Plan::generate(workload("restart_read").unwrap(), 1);
        let writes = &plan.prefiles[0].writes;
        for pid in 1..=RESTART_PIDS {
            let offs: Vec<u64> = writes
                .iter()
                .filter(|w| w.pid == pid)
                .map(|w| w.off)
                .collect();
            let constant_stride = offs
                .windows(3)
                .filter(|t| t[1].wrapping_sub(t[0]) == t[2].wrapping_sub(t[1]))
                .count();
            assert!(
                constant_stride < offs.len() / 100,
                "pid {pid}: {constant_stride}"
            );
        }
    }

    #[test]
    fn model_follows_overwrites_truncates_and_unlinks() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let list = OpList {
            paths: vec!["a".into(), "b".into()],
            ops: vec![
                Op::Open {
                    path: 0,
                    flags: O_RDWR,
                },
                Op::Pwrite {
                    off: 4,
                    len: 4,
                    src: 100,
                },
                Op::Pread { off: 0, len: 8 },
                Op::Close,
                Op::Open {
                    path: 1,
                    flags: O_WRONLY | O_CREAT | O_TRUNC,
                },
                Op::Write { len: 3, src: 7 },
                Op::Write { len: 2, src: 0 },
                Op::Close,
                Op::Unlink { path: 1 },
            ],
        };
        let plan = Plan {
            payload: payload.clone(),
            prefiles: vec![PreFile {
                name: "a".into(),
                writes: vec![PreWrite {
                    pid: 1,
                    off: 0,
                    len: 8,
                    src: 0,
                }],
            }],
            clients: vec![list],
            ..Plan::empty()
        };
        let m = Model::of(&plan);
        assert_eq!(m.pre["a"], [0, 1, 2, 3, 4, 5, 6, 7]);
        let expect = [0, 1, 2, 3, 100, 101, 102, 103];
        assert_eq!(m.final_files(), vec![("a", &expect[..])]);
        assert_eq!(m.reads, vec![(8, fold(0, &expect))]);
    }
}
