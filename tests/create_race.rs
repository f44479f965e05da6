//! Regression (PR 11 finding 1): processes `open(O_CREAT)`ing one *new*
//! logical file at the same moment race in `create_container` — the loser
//! sees the directory before the access file exists, or loses the `mkdir`,
//! and used to get `EEXIST` on a non-exclusive create. Both interleavings
//! are forced here with a gating backing, never with sleeps. The loser is
//! also never the container's creator: whatever it writes goes to a hostdir.
//! A writer's create makes its data dropping in place of the access file;
//! a joiner waits for that dropping the same way. Every joiner writes into
//! `hostdir.{hostdir_for_pid(pid, HOSTDIRS)}`, whatever hostdir count an
//! older build's access file names.

use plfs::container::{hostdir_for_pid, HOSTDIRS};
use plfs::{BackStat, Backing, BackingFile, Error, MemBacking, OpenFlags, Plfs, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};

const ACCESS: &str = "/f/.plfsaccess";
/// The data dropping a writer makes when it creates `/f`.
const DROPPING: &str = "/f/dropping.data.creator.0";

/// The creator announces itself on the sender and holds the gated create
/// until the receiver yields.
type AccessGate = (Mutex<mpsc::Sender<()>>, Mutex<mpsc::Receiver<()>>);

/// Forwards to a [`MemBacking`], stalling chosen steps of a container
/// create so the test decides who observes what.
struct Gated {
    inner: MemBacking,
    /// When set: every thread about to `mkdir` `/f` waits here, so all of
    /// them race it and all but one lose it.
    mkdir_rendezvous: Option<Barrier>,
    /// When set: the creator is held just before the create of
    /// `gated_create`.
    access_gate: Option<AccessGate>,
    /// The create `access_gate` holds: the access file's, or a creator's
    /// data dropping's.
    gated_create: &'static str,
    /// Failed attempts to open the access file: losers that looked.
    access_misses: AtomicUsize,
}

impl Backing for Gated {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        if let Some((entered, release)) = &self.access_gate {
            if path == self.gated_create {
                entered.lock().unwrap().send(()).unwrap();
                release.lock().unwrap().recv().unwrap();
            }
        }
        self.inner.create(path, excl)
    }
    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        let r = self.inner.open(path, write);
        if path == ACCESS && r.is_err() {
            self.access_misses.fetch_add(1, Ordering::SeqCst);
        }
        r
    }
    fn mkdir(&self, path: &str) -> Result<()> {
        if let ("/f", Some(all)) = (path, &self.mkdir_rendezvous) {
            all.wait();
        }
        self.inner.mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }
    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        self.inner.readdir(path)
    }
    fn unlink(&self, path: &str) -> Result<()> {
        self.inner.unlink(path)
    }
    fn rmdir(&self, path: &str) -> Result<()> {
        self.inner.rmdir(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn stat(&self, path: &str) -> Result<BackStat> {
        self.inner.stat(path)
    }
    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.inner.truncate(path, len)
    }
}

/// Each caller mounts its own `Plfs` (its own metadata cache), like the
/// separate processes of the original report.
fn mount(b: &Arc<Gated>) -> Plfs {
    Plfs::new(Arc::clone(b) as Arc<dyn Backing>)
}

/// The access file an older build wrote: a hostdir count other than the
/// library's, which places no joiner.
const OLD: &[u8] = b"plfs-container v1\nnum_hostdirs 7\n";

/// Create `/f` as an older build did: `mkdir`, then the access file, with
/// [`OLD`].
fn create_old(b: &Arc<Gated>) -> Result<()> {
    b.mkdir("/f")?;
    b.create(ACCESS, true)?.pwrite(OLD, 0).map(drop)
}

/// Each of `joiners` wrote `joined` into its own hostdir pair, placed by
/// [`HOSTDIRS`]; the bytes read back, the container checks clean and
/// unlinks to nothing.
fn assert_joiners_placed(b: &Arc<Gated>, joiners: &[(u64, u64)]) {
    let p = mount(b);
    let fd = p.open("/f", OpenFlags::RDONLY, 0).unwrap();
    for &(pid, at) in joiners {
        let hd = hostdir_for_pid(pid, HOSTDIRS);
        let data = format!("/f/hostdir.{hd}/dropping.data.{pid}.0");
        assert!(b.exists(&data), "joiner {pid} in hostdir.{hd}");
        let mut buf = [0u8; 6];
        fd.read(&mut buf, at).unwrap();
        assert_eq!(&buf, b"joined", "joiner {pid}");
    }
    p.close(&fd, 0).unwrap();
    assert!(plfs::check(b.as_ref(), "/f").unwrap().is_clean());
    p.unlink("/f").unwrap();
    assert!(!b.exists("/f"));
}

fn assert_one_container(b: &Arc<Gated>, joiners: &[(u64, u64)]) {
    let mut names = b.inner.readdir("/f").unwrap();
    // What the losers wrote: hostdir pairs with their lifecycle names.
    names.retain(|n| {
        !["hostdir.", "open.", "meta."]
            .iter()
            .any(|p| n.starts_with(p))
    });
    assert_eq!(names, [".plfsaccess"], "one skeleton, no top-level pair");
    assert_joiners_placed(b, joiners);
}

#[test]
fn losers_that_see_the_bare_directory_wait_for_the_access_file() {
    const LOSERS: usize = 4;
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let b = Arc::new(Gated {
        inner: MemBacking::new(),
        mkdir_rendezvous: None,
        access_gate: Some((Mutex::new(entered_tx), Mutex::new(release_rx))),
        gated_create: ACCESS,
        access_misses: AtomicUsize::new(0),
    });
    std::thread::scope(|s| {
        let creator = s.spawn(|| create_old(&b));
        // The creator has made the directory and is held before the access
        // file: exactly the window of the report.
        entered_rx.recv().unwrap();
        // An exclusive create still fails, at once.
        assert!(matches!(
            mount(&b).create("/f", true),
            Err(Error::Exists(_))
        ));
        let losers: Vec<_> = (0..LOSERS)
            .map(|i| {
                let b = &b;
                s.spawn(move || {
                    let p = mount(b);
                    if i % 2 == 0 {
                        p.create("/f", false)
                    } else {
                        let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
                        p.open("/f", flags, i as u64).map(|fd| {
                            fd.write(b"joined", 10 * i as u64).unwrap();
                            fd.close().unwrap();
                        })
                    }
                })
            })
            .collect();
        // Every loser has looked for the access file and not found it (or
        // has already given up, which the joins below report).
        while b.access_misses.load(Ordering::SeqCst) < LOSERS
            && !losers.iter().all(|l| l.is_finished())
        {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        creator.join().unwrap().expect("creator");
        for (i, l) in losers.into_iter().enumerate() {
            l.join()
                .unwrap()
                .unwrap_or_else(|e| panic!("loser {i}: {e}"));
        }
    });
    let joiners: Vec<_> = (1..LOSERS as u64).step_by(2).map(|i| (i, 10 * i)).collect();
    assert_one_container(&b, &joiners);
}

#[test]
fn losers_of_the_mkdir_wait_for_the_access_file() {
    const RACERS: usize = 5;
    let b = Arc::new(Gated {
        inner: MemBacking::new(),
        mkdir_rendezvous: Some(Barrier::new(RACERS)),
        access_gate: None,
        gated_create: ACCESS,
        access_misses: AtomicUsize::new(0),
    });
    std::thread::scope(|s| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| s.spawn(|| plfs::container::create_container(b.as_ref(), "/f", false)))
            .collect();
        let mut made = 0;
        for (i, r) in racers.into_iter().enumerate() {
            let how = r
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("racer {i}: {e}"));
            made += usize::from(how == plfs::container::Creation::Made);
        }
        assert_eq!(made, 1, "one creator, the rest joined");
    });
    assert_one_container(&b, &[]);
}

#[test]
fn a_plain_directory_in_the_way_is_still_an_error() {
    let b = MemBacking::new();
    b.mkdir("/f").unwrap();
    b.create("/f/notes.txt", true).unwrap();
    let p = Plfs::new(Arc::new(b));
    let t0 = std::time::Instant::now();
    assert!(matches!(p.create("/f", false), Err(Error::Exists(_))));
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
    assert!(matches!(p.open("/f", flags, 0), Err(Error::IsDir(_))));
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(500),
        "a directory with foreign entries is no nascent container: no wait"
    );
}

/// What a joiner of a container a writer made finds: the creator's data
/// dropping, no access file — and leaves so. Reads back the creator's
/// bytes at 0 and each joiner's at `100 + 10·pid`, and checks the
/// directory holds the creator's pair and no access file.
fn assert_marked_by_the_creators_dropping(b: &Arc<Gated>, joiners: &[u64]) {
    let mut names = b.inner.readdir("/f").unwrap();
    names.retain(|n| {
        !["hostdir.", "open.", "meta."]
            .iter()
            .any(|p| n.starts_with(p))
    });
    // Its 7 bytes at 0, where the file has them: the identity spelling,
    // whose stamp is a clock reading.
    let closed = plfs::container::parse_index_name(&names[names.len() - 1])
        .and_then(|(_, closed)| closed)
        .map(|c| (c.eof, c.identity.is_some()));
    assert_eq!(
        (names.len(), names[0].as_str(), closed),
        (2, "dropping.data.creator.0", Some((7, true))),
        "the creator's pair, and no access file: {names:?}"
    );
    plfs::container::validate_marker(b.as_ref(), "/f").unwrap();
    let p = Plfs::new(Arc::clone(b) as Arc<dyn Backing>);
    let fd = p.open("/f", OpenFlags::RDONLY, 0).unwrap();
    let mut buf = [0u8; 7];
    assert_eq!(fd.read(&mut buf, 0).unwrap(), 7);
    assert_eq!(&buf, b"creator");
    let joiners: Vec<_> = joiners.iter().map(|&pid| (pid, 100 + 10 * pid)).collect();
    assert_joiners_placed(b, &joiners);
}

/// The creator has made the directory and is held before its data
/// dropping: joiners find no marker in an empty directory and wait for it,
/// as they wait for an access file; an exclusive create fails at once.
#[test]
fn joiners_that_see_the_bare_directory_wait_for_the_creators_dropping() {
    const JOINERS: u64 = 4;
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let b = Arc::new(Gated {
        inner: MemBacking::new(),
        mkdir_rendezvous: None,
        access_gate: Some((Mutex::new(entered_tx), Mutex::new(release_rx))),
        gated_create: DROPPING,
        access_misses: AtomicUsize::new(0),
    });
    let default_mount = || Plfs::new(Arc::clone(&b) as Arc<dyn Backing>);
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
    std::thread::scope(|s| {
        let creator = s.spawn(|| {
            let p = default_mount();
            let fd = p.open("/f", flags, 1)?;
            p.write(&fd, b"creator", 0, 1)?;
            p.close(&fd, 1).map(|_| ())
        });
        entered_rx.recv().unwrap();
        assert!(matches!(
            default_mount().open("/f", flags | OpenFlags::EXCL, 9),
            Err(Error::Exists(_))
        ));
        let joiners: Vec<_> = (10..10 + JOINERS)
            .map(|pid| {
                let p = default_mount();
                s.spawn(move || {
                    let fd = p.open("/f", flags, pid)?;
                    p.write(&fd, b"joined", 100 + 10 * pid, pid)?;
                    p.close(&fd, pid).map(|_| ())
                })
            })
            .collect();
        // Every joiner has looked for the access file and not found it.
        while b.access_misses.load(Ordering::SeqCst) < JOINERS as usize
            && !joiners.iter().all(|j| j.is_finished())
        {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        creator.join().unwrap().expect("creator");
        for (i, j) in joiners.into_iter().enumerate() {
            j.join()
                .unwrap()
                .unwrap_or_else(|e| panic!("joiner {i}: {e}"));
        }
    });
    assert_marked_by_the_creators_dropping(&b, &(10..10 + JOINERS).collect::<Vec<_>>());
}

/// The creator has made its data dropping and not written yet: a joiner
/// finds the dropping marks the container at once, with no wait, and
/// writes to a hostdir pair of its own — the dropping stays the creator's.
#[test]
fn a_joiner_of_a_creator_that_made_its_dropping_joins_at_once() {
    let b = Arc::new(Gated {
        inner: MemBacking::new(),
        mkdir_rendezvous: None,
        access_gate: None,
        gated_create: ACCESS,
        access_misses: AtomicUsize::new(0),
    });
    let mount = || Plfs::new(Arc::clone(&b) as Arc<dyn Backing>);
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
    let creator = mount();
    let fd = creator.open("/f", flags, 1).unwrap();
    assert_eq!(b.inner.readdir("/f").unwrap(), ["dropping.data.creator.0"]);
    let t0 = std::time::Instant::now();
    let joiner = mount();
    let jfd = joiner.open("/f", flags, 2).unwrap();
    assert!(t0.elapsed() < std::time::Duration::from_millis(500));
    joiner.write(&jfd, b"joined", 120, 2).unwrap();
    creator.write(&fd, b"creator", 0, 1).unwrap();
    joiner.close(&jfd, 2).unwrap();
    creator.close(&fd, 1).unwrap();
    assert_marked_by_the_creators_dropping(&b, &[2]);
}
