//! A workload's staging area: directories, generated input files, the
//! files that must exist before the clients start, and verification of
//! what the clients leave behind. None of this is inside a timed section.

use crate::oplist::OpList;
use crate::workloads::{Model, Plan, PreFile, Workload};
use plfs::{OpenFlags, Plfs, PlfsFd, RealBacking};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Removes its directory when dropped: on success, on an error return and
/// on a panic that unwinds. A leaked run would pin its files in RAM when
/// the directory is on tmpfs.
pub struct Scratch(pub PathBuf);

extern "C" {
    fn unshare(flags: i32) -> i32;
    fn mount(
        src: *const std::os::raw::c_char,
        target: *const std::os::raw::c_char,
        fstype: *const std::os::raw::c_char,
        flags: u64,
        data: *const std::os::raw::c_void,
    ) -> i32;
}

const CLONE_NEWNS: i32 = 0x0002_0000;
const MS_REC: u64 = 1 << 14;
const MS_PRIVATE: u64 = 1 << 18;

/// Enter a mount namespace of our own and mount a tmpfs on `dir`. The mount
/// is visible to this process and its children only and goes away with the
/// last of them, however they end - so the scratch files are in RAM, yet at
/// a path inside the checkout, and cannot outlive the run. Needs
/// `CAP_SYS_ADMIN`; call while the process has a single thread.
fn mount_private_tmpfs(dir: &Path) -> std::io::Result<()> {
    use std::os::unix::ffi::OsStrExt;
    let target = std::ffi::CString::new(dir.as_os_str().as_bytes())?;
    let check = |rc: i32| match rc {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    };
    // SAFETY: plain syscalls; every pointer is a NUL-terminated string that
    // outlives the call, or null where the kernel ignores the argument.
    unsafe {
        check(unshare(CLONE_NEWNS))?;
        // Keep our mount from propagating back into the parent namespace.
        check(mount(
            std::ptr::null(),
            c"/".as_ptr(),
            std::ptr::null(),
            MS_REC | MS_PRIVATE,
            std::ptr::null(),
        ))?;
        check(mount(
            c"tmpfs".as_ptr(),
            target.as_ptr(),
            c"tmpfs".as_ptr(),
            0,
            std::ptr::null(),
        ))
    }
}

impl Scratch {
    /// Create the directory; with `private_tmpfs`, back it with RAM where
    /// the system allows (see [`mount_private_tmpfs`]) and otherwise say
    /// that the numbers will be those of the directory's own file system.
    pub fn create(dir: PathBuf, private_tmpfs: bool) -> Result<Scratch, String> {
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        if private_tmpfs {
            if let Err(e) = mount_private_tmpfs(&dir) {
                eprintln!(
                    "benchmark: no private tmpfs on {} ({e}); using the directory as it is - \
                     expect noisier numbers, above all on meta_storm",
                    dir.display()
                );
            }
        }
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Under a private mount the directory itself is busy and stays,
        // empty, for run.sh to remove from outside the namespace.
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// File system type of the mount holding `dir`, from `/proc/mounts`.
pub fn fs_type(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0, "unknown".to_string());
    for line in mounts.lines() {
        let mut f = line.split(' ');
        if let (Some(_dev), Some(mp), Some(ty)) = (f.next(), f.next(), f.next()) {
            if dir.starts_with(mp) && mp.len() >= best.0 {
                best = (mp.len(), ty.to_string());
            }
        }
    }
    best.1
}

/// Sum of the sizes of all regular files under `dir`.
pub fn bytes_under(dir: &Path) -> u64 {
    let Ok(rd) = fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn wipe(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Client under the real `LD_PRELOAD`, paths inside the mount.
    Plfs,
    /// Same client, no preload, plain files on the same file system.
    Flat,
}

pub struct Stage {
    pub plan: Plan,
    pub model: Model,
    pub inputs: PathBuf,
    /// The mount point: a path that does not exist, so a call that slips
    /// past the shim fails instead of quietly writing a flat file.
    pub mount: PathBuf,
    pub backend: PathBuf,
    pub flat: PathBuf,
    pub payload_file: PathBuf,
    pub ops_files: Vec<PathBuf>,
    /// `unix_tools`: the text file the tools copy in.
    pub source_file: PathBuf,
}

/// The files the `unix_tools` writers produce; each must equal the source.
pub const TOOLS_OUTPUTS: [&str; 3] = ["cp_in", "dd_4k", "dd_1m"];

pub fn plfs_on(backend: &Path) -> Result<(Arc<RealBacking>, Plfs), String> {
    let backing = Arc::new(RealBacking::new(backend).map_err(|e| e.to_string())?);
    Ok((backing.clone(), Plfs::new(backing)))
}

/// Write the prefile through the plfs API, one descriptor per writer pid.
pub fn build_container(plfs: &Plfs, pf: &PreFile, payload: &[u8]) -> Result<(), String> {
    let path = format!("/{}", pf.name);
    plfs.create(&path, true)
        .map_err(|e| format!("create {path}: {e}"))?;
    let mut fds: BTreeMap<u64, Arc<PlfsFd>> = BTreeMap::new();
    for w in &pf.writes {
        let fd = match fds.entry(w.pid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(
                plfs.open(&path, OpenFlags::WRONLY | OpenFlags::CREAT, w.pid)
                    .map_err(|e| format!("open {path} for pid {}: {e}", w.pid))?,
            ),
        };
        let data = &payload[w.src as usize..][..w.len as usize];
        let n = plfs
            .write(fd, data, w.off, w.pid)
            .map_err(|e| format!("write {path}: {e}"))?;
        if n != data.len() {
            return Err(format!("short write building {path}"));
        }
    }
    for (pid, fd) in fds {
        plfs.close(&fd, pid)
            .map_err(|e| format!("close {path}: {e}"))?;
    }
    Ok(())
}

/// Compare a logical file, read through the plfs API, with the model.
fn container_matches(plfs: &Plfs, name: &str, expect: &[u8]) -> Result<bool, plfs::Error> {
    let path = format!("/{name}");
    if plfs.getattr(&path)?.size != expect.len() as u64 {
        return Ok(false);
    }
    let fd = plfs.open(&path, OpenFlags::RDONLY, 0)?;
    let mut buf = vec![0u8; 4 << 20];
    let mut same = true;
    for (i, chunk) in expect.chunks(buf.len()).enumerate() {
        let got = &mut buf[..chunk.len()];
        let n = plfs.read(&fd, got, (i * (4 << 20)) as u64)?;
        if n != chunk.len() || got != chunk {
            same = false;
            break;
        }
    }
    plfs.close(&fd, 0)?;
    Ok(same)
}

impl Stage {
    /// Generate the workload's inputs from the seed, write them where the
    /// clients will find them, and build whatever must pre-exist.
    pub fn set_up(dir: &Path, w: &Workload, seed: u64) -> Result<Stage, String> {
        wipe(dir)?;
        let plan = Plan::generate(w, seed);
        let model = Model::of(&plan);
        let inputs = dir.join("inputs");
        fs::create_dir_all(&inputs).map_err(|e| e.to_string())?;
        let put = |name: &str, data: &[u8]| -> Result<PathBuf, String> {
            let p = inputs.join(name);
            fs::write(&p, data).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(p)
        };
        let payload_file = put("payload.bin", &plan.payload)?;
        let ops_files = plan
            .clients
            .iter()
            .enumerate()
            .map(|(i, list): (usize, &OpList)| put(&format!("client{i}.ops"), &list.encode()))
            .collect::<Result<_, _>>()?;
        let source_file = match &plan.tools {
            Some(t) => put("source.txt", &t.text)?,
            None => PathBuf::new(),
        };
        let stage = Stage {
            plan,
            model,
            mount: dir.join("mnt"),
            backend: dir.join("backend"),
            flat: dir.join("flat"),
            inputs,
            payload_file,
            ops_files,
            source_file,
        };
        stage.reset(Arm::Plfs, true)?;
        stage.reset(Arm::Flat, true)?;
        Ok(stage)
    }

    /// Bring an arm's files to the state the clients expect to start from.
    /// Files the clients only read are built once (`first`) and kept.
    pub fn reset(&self, arm: Arm, first: bool) -> Result<(), String> {
        if !self.plan.writes() && !first {
            return Ok(());
        }
        match arm {
            Arm::Plfs => {
                wipe(&self.backend)?;
                let (_, plfs) = plfs_on(&self.backend)?;
                for pf in &self.plan.prefiles {
                    build_container(&plfs, pf, &self.plan.payload)?;
                }
            }
            Arm::Flat => {
                wipe(&self.flat)?;
                for pf in &self.plan.prefiles {
                    fs::write(self.flat.join(&pf.name), &self.model.pre[&pf.name])
                        .map_err(|e| format!("flat twin of {}: {e}", pf.name))?;
                }
            }
        }
        Ok(())
    }

    /// The directory clients address their files under, per arm.
    pub fn base(&self, arm: Arm) -> &Path {
        match arm {
            Arm::Plfs => &self.mount,
            Arm::Flat => &self.flat,
        }
    }

    /// Files that must exist after the timed section, with their contents.
    pub fn expected_files(&self) -> Vec<(&str, &[u8])> {
        match &self.plan.tools {
            Some(t) => TOOLS_OUTPUTS.map(|n| (n, t.text.as_slice())).to_vec(),
            None => self.model.final_files(),
        }
    }

    pub fn logical_bytes(&self) -> u64 {
        self.expected_files()
            .iter()
            .map(|(_, d)| d.len() as u64)
            .sum()
    }

    /// Check every expected file on an arm. On the plfs arm the files are
    /// read back through the plfs API and `plfs::check` must find each
    /// container clean. Returns (checks made, checks failed).
    pub fn verify(&self, arm: Arm) -> (u64, u64) {
        let (mut made, mut failed) = (0, 0);
        let mut check = |ok: bool, what: &str, name: &str| {
            made += 1;
            if !ok {
                failed += 1;
                eprintln!("verification failed: {what} of {name} on the {arm:?} arm");
            }
        };
        match arm {
            Arm::Plfs => {
                let Ok((backing, plfs)) = plfs_on(&self.backend) else {
                    return (1, 1);
                };
                for (name, expect) in self.expected_files() {
                    let same = container_matches(&plfs, name, expect).unwrap_or(false);
                    check(same, "contents", name);
                    let clean = plfs::check(backing.as_ref(), &format!("/{name}"))
                        .is_ok_and(|r| r.is_clean());
                    check(clean, "plfs::check", name);
                }
            }
            Arm::Flat => {
                for (name, expect) in self.expected_files() {
                    let same = fs::read(self.flat.join(name)).is_ok_and(|got| got == expect);
                    check(same, "contents", name);
                }
            }
        }
        (made, failed)
    }
}
