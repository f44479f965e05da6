//! The end-to-end measurement: tracing off, real client processes, every rep
//! the identical op sequence on both arms.
//!
//! Closed loop: one harness process drives at most two client processes and
//! starts the next timed section only when the previous one is reaped and
//! verified. A timed section is a fixed amount of work; `--seconds` decides
//! only how many reps are made.

use crate::proc::{Cmd, Finished, Spawner};
use crate::stage::{bytes_under, Arm, Stage};
use crate::workloads::Workload;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, so one slow page-cache or
/// allocator moment does not decide `setup_s`: at least `SETUP_MIN_REPS`
/// times, and on up to `SETUP_MAX_REPS` while that takes under
/// `SETUP_BUDGET_S` (cheap set-ups are the noisy ones).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Reps measured even when `--seconds` is already used up.
const MIN_REPS: usize = 3;
/// A flat-arm timed section shorter than this is repeated (with a reset in
/// between) and its mean taken, so process start-up noise does not decide
/// `vs_flat_ratio`.
const FLAT_MIN_SECTION_S: f64 = 0.2;
const FLAT_MAX_PASSES: usize = 8;

pub const REQUIRED_TOOLS: [&str; 5] = ["cp", "dd", "cat", "grep", "md5sum"];

/// Where `PATH` finds a tool (the spawner starts clients by full path).
pub fn on_path(tool: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH").unwrap_or_default();
    std::env::split_paths(&path)
        .map(|d| d.join(tool))
        .find(|p| p.is_file())
}

pub struct Env {
    /// The real `libldplfs_preload.so`, built from the commit under test.
    pub lib: PathBuf,
    pub app: PathBuf,
    /// Scratch root; each workload stages under its own subdirectory.
    pub dir: PathBuf,
    /// Starts and reaps every client process.
    pub spawner: RefCell<Spawner>,
}

impl Env {
    /// A client command, under the preload library on the plfs arm.
    pub fn client(&self, program: &Path, stage: &Stage, arm: Arm) -> Cmd {
        let cmd = Cmd::new(program);
        match arm {
            Arm::Plfs => cmd.under_preload(&self.lib, &stage.mount, &stage.backend),
            Arm::Flat => cmd,
        }
    }
}

/// What one timed section cost and whether its outputs were right.
#[derive(Default)]
pub struct Section {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `unix_tools`: what grep and md5sum printed, for the cross-arm check.
    pub outputs: Vec<String>,
}

impl Section {
    fn absorb(&mut self, done: &Finished) {
        self.cpu_s += done.cpu_s;
        self.maxrss_kb = self.maxrss_kb.max(done.maxrss_kb);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// Run the stage's op lists with one `posix_app` process per client, all
/// started together; wall is first spawn to last exit.
pub fn run_clients(
    env: &Env,
    stage: &Stage,
    arm: Arm,
    per_call: Option<&Path>,
) -> Result<Section, String> {
    let mut sec = Section::default();
    let cmds: Vec<Cmd> = (stage.ops_files.iter().enumerate())
        .map(|(i, ops)| {
            let cmd = env.client(&env.app, stage, arm).capture(true);
            let cmd = cmd.arg("--ops").arg(ops);
            let cmd = cmd.arg("--payload").arg(&stage.payload_file);
            let cmd = cmd.arg("--base").arg(stage.base(arm));
            match per_call {
                Some(dir) => cmd
                    .arg("--per-call")
                    .arg(dir.join(format!("client{i}.calls"))),
                None => cmd,
            }
        })
        .collect();
    let batch = env.spawner.borrow_mut().run(&cmds)?;
    sec.wall_s = batch.wall_s;
    for (i, done) in batch.done.into_iter().enumerate() {
        sec.absorb(&done);
        let line = done.stdout.trim();
        let ops = stage.plan.clients[i].ops.len() as u64;
        let num = |key| field(line, key).and_then(|v| v.parse::<u64>().ok());
        match (num("ops"), num("failed")) {
            (Some(n), Some(failed)) if n == ops => {
                sec.attempted += ops;
                sec.failed += failed;
                if failed > 0 || !done.ok {
                    eprintln!("failed: client {i} on the {arm:?} arm: {line}");
                }
            }
            // No result line: the client died; none of its calls count as made.
            _ => {
                sec.attempted += ops;
                sec.failed += ops;
                eprintln!("failed: client {i} on the {arm:?} arm gave no result ({line:?})");
            }
        }
        let (bytes, sum) = stage.model.reads[i];
        let got = (
            num("read_bytes"),
            field(line, "read_sum").and_then(|v| u64::from_str_radix(v, 16).ok()),
        );
        sec.check(got == (Some(bytes), Some(sum)), || {
            format!("client {i} on the {arm:?} arm read {got:?}, model says ({bytes}, {sum:x})")
        });
    }
    Ok(sec)
}

/// The Table II tools, one after the other; wall is the sum over tools.
fn run_tools(env: &Env, stage: &Stage, arm: Arm) -> Result<Section, String> {
    let tools = stage
        .plan
        .tools
        .as_ref()
        .expect("unix_tools has a tools plan");
    let at = |name: &str| stage.base(arm).join(name).to_string_lossy().into_owned();
    let src = stage.source_file.to_string_lossy().into_owned();
    let out = stage
        .inputs
        .join(format!("cp_out.{arm:?}"))
        .to_string_lossy()
        .into_owned();
    // (tool, args, keep its stdout)
    let steps: [(&str, Vec<String>, bool); 7] = [
        ("cp", vec![src.clone(), at("cp_in")], false),
        (
            "dd",
            vec![
                format!("if={src}"),
                format!("of={}", at("dd_4k")),
                "bs=4k".into(),
                "status=none".into(),
            ],
            false,
        ),
        (
            "dd",
            vec![
                format!("if={src}"),
                format!("of={}", at("dd_1m")),
                "bs=1M".into(),
                "status=none".into(),
            ],
            false,
        ),
        ("cat", vec![at("cp_in")], false), // stdout to /dev/null
        (
            "grep",
            vec!["-c".into(), tools.pattern.clone(), at("dd_4k")],
            true,
        ),
        ("md5sum", vec![at("dd_1m")], true),
        ("cp", vec![at("cp_in"), out.clone()], false),
    ];
    let mut sec = Section::default();
    for (tool, args, keep) in steps {
        let program = on_path(tool).ok_or_else(|| format!("{tool} is not on PATH"))?;
        let cmd = env.client(&program, stage, arm).capture(keep);
        let cmd = args.iter().fold(cmd, |c, a| c.arg(a));
        let mut batch = env.spawner.borrow_mut().run(&[cmd])?;
        let done = batch.done.pop().expect("one command, one result");
        sec.wall_s += batch.wall_s;
        sec.absorb(&done);
        sec.check(done.ok, || {
            format!("{tool} {args:?} on the {arm:?} arm exited non-zero")
        });
        if keep {
            // md5sum prints the path too; the digest is the first word.
            let first = done.stdout.split_whitespace().next().unwrap_or("");
            sec.outputs.push(first.to_string());
        }
    }
    let copied_back = std::fs::read(&out)
        .is_ok_and(|got| std::fs::read(&stage.source_file).is_ok_and(|want| got == want));
    sec.check(copied_back, || {
        format!("cp out of the {arm:?} arm differs from the source")
    });
    Ok(sec)
}

/// One arm of one rep: reset, timed section, verification.
fn run_arm(
    env: &Env,
    stage: &Stage,
    arm: Arm,
    passes: usize,
    verify: bool,
) -> Result<Section, String> {
    let mut total = Section::default();
    for _ in 0..passes {
        stage.reset(arm, false)?;
        let sec = match stage.plan.tools {
            Some(_) => run_tools(env, stage, arm)?,
            None => run_clients(env, stage, arm, None)?,
        };
        total.wall_s += sec.wall_s / passes as f64;
        total.cpu_s += sec.cpu_s / passes as f64;
        total.maxrss_kb = total.maxrss_kb.max(sec.maxrss_kb);
        total.attempted += sec.attempted;
        total.failed += sec.failed;
        total.outputs = sec.outputs;
    }
    if verify {
        let (made, failed) = stage.verify(arm);
        total.attempted += made;
        total.failed += failed;
    }
    Ok(total)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Everything one untraced run of one workload measured.
pub struct E2e {
    pub workload: &'static str,
    pub seed: u64,
    pub reps: usize,
    pub flat_passes: usize,
    pub plfs_wall_s: Vec<f64>,
    pub flat_wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub space_amp: f64,
    pub logical_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the baseline's median by which a later run may be worse.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound,
    }
}

/// The end-to-end metrics, reported for every workload. `BENCHMARK.json`
/// repeats this table (a test keeps the two equal).
///
/// The three timing bounds are as wide as the manifest allows: across ten
/// seeds the timings spread 3-11 % on the reference VM, and its two vCPUs do
/// not always run two writers in parallel (see README, "How steady").
pub const E2E_METRICS: [MetricDef; 6] = [
    lower("wall_s", "s", 0.25),
    lower("vs_flat_ratio", "ratio", 0.25),
    lower("cpu_s", "s", 0.25),
    lower("peak_rss_MB", "MB", 0.10),
    lower("space_amp", "ratio", 0.01),
    lower("setup_s", "s", 0.25),
];

impl E2e {
    /// The per-rep samples behind a metric; empty for the single-valued ones.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        match name {
            "wall_s" => self.plfs_wall_s.clone(),
            "vs_flat_ratio" => {
                let pairs = self.plfs_wall_s.iter().zip(&self.flat_wall_s);
                pairs.map(|(p, f)| p / f).collect()
            }
            "cpu_s" => self.cpu_s.clone(),
            "setup_s" => self.setup_s.clone(),
            _ => Vec::new(),
        }
    }

    fn value(&self, name: &str) -> f64 {
        match name {
            // The paper's presentation: median over median, not median of ratios.
            "vs_flat_ratio" => median(&self.plfs_wall_s) / median(&self.flat_wall_s),
            "peak_rss_MB" => self.peak_rss_mb,
            "space_amp" => self.space_amp,
            sampled => median(&self.samples(sampled)),
        }
    }

    /// The end-to-end metrics in table order: (name, value, unit).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let row = |d: &MetricDef| (d.name, self.value(d.name), d.unit);
        E2E_METRICS.iter().map(row).collect()
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn run(env: &Env, w: &'static Workload, seed: u64, seconds: f64) -> Result<E2e, String> {
    let dir = env.dir.join(w.name);
    let mut setup_s = Vec::new();
    let mut stage = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(stage.take()); // one model in memory at a time
        let t0 = Instant::now();
        stage = Some(Stage::set_up(&dir, w, seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let stage = stage.expect("SETUP_MIN_REPS > 0");
    let logical_bytes = stage.logical_bytes();
    // Files the clients never change need their contents checked only once.
    let read_only = !stage.plan.writes();

    let mut out = E2e {
        workload: w.name,
        seed,
        reps: 0,
        flat_passes: 1,
        plfs_wall_s: Vec::new(),
        flat_wall_s: Vec::new(),
        cpu_s: Vec::new(),
        setup_s,
        peak_rss_mb: 0.0,
        space_amp: 0.0,
        logical_bytes,
        attempted: 0,
        failed: 0,
    };

    // Rep 0 warms caches and the page cache, sizes the flat arm's passes,
    // and is discarded.
    let warm_plfs = run_arm(env, &stage, Arm::Plfs, 1, true)?;
    let warm_flat = run_arm(env, &stage, Arm::Flat, 1, true)?;
    out.attempted += warm_plfs.attempted + warm_flat.attempted;
    out.failed += warm_plfs.failed + warm_flat.failed;
    out.flat_passes =
        ((FLAT_MIN_SECTION_S / warm_flat.wall_s).ceil() as usize).clamp(1, FLAT_MAX_PASSES);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while out.reps < MIN_REPS || Instant::now() < deadline {
        // Alternate which arm goes first.
        let order = if out.reps.is_multiple_of(2) {
            [Arm::Plfs, Arm::Flat]
        } else {
            [Arm::Flat, Arm::Plfs]
        };
        let mut outputs = Vec::new();
        for arm in order {
            let passes = if arm == Arm::Flat { out.flat_passes } else { 1 };
            let sec = run_arm(env, &stage, arm, passes, !read_only)?;
            out.attempted += sec.attempted;
            out.failed += sec.failed;
            match arm {
                Arm::Plfs => {
                    out.plfs_wall_s.push(sec.wall_s);
                    out.cpu_s.push(sec.cpu_s);
                    out.peak_rss_mb = out.peak_rss_mb.max(sec.maxrss_kb as f64 / 1024.0);
                    out.space_amp = bytes_under(&stage.backend) as f64 / logical_bytes as f64;
                }
                Arm::Flat => out.flat_wall_s.push(sec.wall_s),
            }
            outputs.push(sec.outputs);
        }
        // unix_tools: grep's count and md5sum's digest must agree across arms.
        out.attempted += 1;
        if outputs[0] != outputs[1] {
            out.failed += 1;
            eprintln!("failed: tool outputs differ between arms: {outputs:?}");
        }
        out.reps += 1;
    }
    Ok(out)
}
