//! Regression (PR 11 finding 1): processes `open(O_CREAT)`ing one *new*
//! logical file at the same moment race in `create_container` — the loser
//! sees the directory before the access file exists, or loses the `mkdir`,
//! and used to get `EEXIST` on a non-exclusive create. Both interleavings
//! are forced here with a gating backing, never with sleeps. The loser is
//! also never the container's creator: whatever it writes goes to a hostdir.

use plfs::{
    BackStat, Backing, BackingFile, ContainerParams, Error, MemBacking, OpenFlags, Plfs, Result,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};

const ACCESS: &str = "/f/.plfsaccess";

/// The creator announces itself on the sender and holds the access-file
/// create until the receiver yields.
type AccessGate = (Mutex<mpsc::Sender<()>>, Mutex<mpsc::Receiver<()>>);

/// Forwards to a [`MemBacking`], stalling chosen steps of a container
/// create so the test decides who observes what.
struct Gated {
    inner: MemBacking,
    /// When set: every thread about to `mkdir` `/f` waits here, so all of
    /// them race it and all but one lose it.
    mkdir_rendezvous: Option<Barrier>,
    /// When set: the creator is held just before the access-file create.
    access_gate: Option<AccessGate>,
    /// Failed attempts to open the access file: losers that looked.
    access_misses: AtomicUsize,
}

impl Backing for Gated {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        if let (ACCESS, Some((entered, release))) = (path, &self.access_gate) {
            entered.lock().unwrap().send(()).unwrap();
            release.lock().unwrap().recv().unwrap();
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
    Plfs::new(Arc::clone(b) as Arc<dyn Backing>).with_params(ContainerParams {
        num_hostdirs: 7,
        ..ContainerParams::default()
    })
}

fn assert_one_container(b: &Arc<Gated>) {
    let mut names = b.inner.readdir("/f").unwrap();
    // What the losers wrote: hostdir pairs with their lifecycle names.
    names.retain(|n| {
        !["hostdir.", "open.", "meta."]
            .iter()
            .any(|p| n.starts_with(p))
    });
    assert_eq!(names, [".plfsaccess"], "one skeleton, no top-level pair");
    let fd = mount(b).open("/f", OpenFlags::RDONLY, 0).unwrap();
    assert_eq!(fd.params().num_hostdirs, 7, "the winner's params");
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
        access_misses: AtomicUsize::new(0),
    });
    std::thread::scope(|s| {
        let creator = s.spawn(|| mount(&b).create("/f", false));
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
                            assert_eq!(fd.params().num_hostdirs, 7);
                            fd.write(b"joined", 0, i as u64).unwrap();
                            fd.close(i as u64).unwrap();
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
    assert_one_container(&b);
}

#[test]
fn losers_of_the_mkdir_wait_for_the_access_file() {
    const RACERS: usize = 5;
    let b = Arc::new(Gated {
        inner: MemBacking::new(),
        mkdir_rendezvous: Some(Barrier::new(RACERS)),
        access_gate: None,
        access_misses: AtomicUsize::new(0),
    });
    std::thread::scope(|s| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    plfs::container::create_container(
                        b.as_ref(),
                        "/f",
                        &ContainerParams {
                            num_hostdirs: 7,
                            ..ContainerParams::default()
                        },
                        false,
                    )
                })
            })
            .collect();
        let mut made = 0;
        for (i, r) in racers.into_iter().enumerate() {
            let (p, how) = r
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("racer {i}: {e}"));
            assert_eq!(p.num_hostdirs, 7, "params agree");
            made += usize::from(how == plfs::container::Creation::Made);
        }
        assert_eq!(made, 1, "one creator, the rest joined");
    });
    assert_one_container(&b);
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
