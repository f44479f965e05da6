//! `benchmark run` and `benchmark compare`; `run.sh` is the front door.

use ldplfs_benchmark::compare;
use ldplfs_benchmark::e2e::{self, on_path, Env, REQUIRED_TOOLS};
use ldplfs_benchmark::layers;
use ldplfs_benchmark::proc::{self, Spawner};
use ldplfs_benchmark::report::{driver_line, print_e2e, print_layers, workload_json};
use ldplfs_benchmark::stage::{fs_type, Scratch};
use ldplfs_benchmark::workloads::{workload, Workload, WORKLOADS};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --lib LIBLDPLFS_PRELOAD.SO --app POSIX_APP --dir SCRATCH --trace-dir DIR
                [--private-tmpfs yes|no] [--workload NAME --trace 0|1] [--seed N] [--seconds S]
                [--out FILE] [--build-s S]
  benchmark compare A.json B.json";

/// With `--workload`: that workload only, end-to-end (`--trace 0`) or
/// per-layer (`--trace 1`), result as the driver's JSON line. Without: all
/// five workloads, both passes each, and `--out` for `compare`.
struct RunArgs {
    lib: PathBuf,
    app: PathBuf,
    dir: PathBuf,
    trace_dir: PathBuf,
    /// Mount a tmpfs only this run can see on `dir` (see `stage::Scratch`).
    private_tmpfs: bool,
    workload: Option<&'static Workload>,
    trace: bool,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    build_s: Option<f64>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        lib: PathBuf::new(),
        app: PathBuf::new(),
        dir: PathBuf::new(),
        trace_dir: PathBuf::new(),
        private_tmpfs: false,
        workload: None,
        trace: false,
        seed: 1,
        seconds: 20.0,
        out: None,
        build_s: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--lib" => a.lib = v.into(),
            "--app" => a.app = v.into(),
            "--dir" => a.dir = v.into(),
            "--trace-dir" => a.trace_dir = v.into(),
            "--private-tmpfs" => {
                a.private_tmpfs = match v.as_str() {
                    "no" => false,
                    "yes" => true,
                    _ => return Err(bad()),
                }
            }
            "--workload" => a.workload = Some(workload(v).ok_or_else(bad)?),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?,
            "--out" => a.out = Some(v.into()),
            "--build-s" => a.build_s = Some(v.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    for (name, p) in [("--lib", &a.lib), ("--app", &a.app)] {
        if !p.is_file() {
            return Err(format!("{name} {}: no such file", p.display()));
        }
    }
    if a.dir.as_os_str().is_empty() || a.trace_dir.as_os_str().is_empty() {
        return Err(format!("--dir and --trace-dir are required\n{USAGE}"));
    }
    Ok(a)
}

fn preflight() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err("the benchmark drives 2 client processes and needs nproc >= 2".into());
    }
    match REQUIRED_TOOLS.iter().find(|t| on_path(t).is_none()) {
        Some(missing) => Err(format!("required tool {missing} is not on PATH")),
        None => Ok(cores),
    }
}

fn trace_file(dir: &Path, w: &Workload) -> PathBuf {
    dir.join(format!("trace-{}.jsonl", w.name))
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    let cores = preflight()?;
    // In this order, and before anything else: the private mount needs a
    // single-threaded process and must exist before the spawner is forked
    // into it; the spawner must start while this process is small (`proc`).
    let scratch = Scratch::create(a.dir.clone(), a.private_tmpfs)?;
    let spawner = RefCell::new(Spawner::start()?);
    let env = Env {
        lib: a.lib.clone(),
        app: a.app.clone(),
        dir: scratch.0.clone(),
        spawner,
    };
    let fs = fs_type(&env.dir);
    if let Some(s) = a.build_s {
        println!(
            "{:<32} {s:>14.3} s   (info: compilation, not part of setup_s)",
            "build_s"
        );
    }

    if let Some(w) = a.workload {
        let line = if a.trace {
            let t = layers::run(&env, w, a.seed, &trace_file(&a.trace_dir, w))?;
            print_layers(w.name, &t);
            (
                t.failed == 0,
                driver_line(t.attempted, t.failed, &t.metrics),
            )
        } else {
            let r = e2e::run(&env, w, a.seed, a.seconds)?;
            print_e2e(&r, &fs);
            let metrics: Vec<_> = r
                .metrics()
                .into_iter()
                .map(|(n, v, u)| (n.to_string(), v, u))
                .collect();
            (r.failed == 0, driver_line(r.attempted, r.failed, &metrics))
        };
        println!("{}", line.1);
        return Ok(line.0);
    }

    let mut all_ok = true;
    let mut results = jsonlite::Value::object();
    for w in &WORKLOADS {
        let r = e2e::run(&env, w, a.seed, a.seconds)?;
        print_e2e(&r, &fs);
        let t = layers::run(&env, w, a.seed, &trace_file(&a.trace_dir, w))?;
        print_layers(w.name, &t);
        all_ok &= r.failed == 0 && t.failed == 0;
        results.set(w.name, workload_json(&r, &t));
    }
    if let Some(out) = &a.out {
        let doc = jsonlite::Value::object()
            .with("seed", a.seed)
            .with("seconds", a.seconds)
            .with("fs", fs.as_str())
            .with("cores", cores as u64)
            .with("build_s", a.build_s.unwrap_or(0.0))
            .with("workloads", results);
        std::fs::write(out, doc.to_json_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("results written to {}", out.display());
    }
    println!(
        "{}",
        if all_ok {
            "all outputs verified"
        } else {
            "VERIFICATION FAILED"
        }
    );
    Ok(all_ok)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let load = |p: &String| -> Result<jsonlite::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        jsonlite::parse(&text).map_err(|e| format!("{p}: {e:?}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?)? == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, [])) if cmd == "spawner" => {
            proc::serve().map(|()| true).map_err(|e| e.to_string())
        }
        _ => Err(USAGE.into()),
    };
    // Returning (not exiting) lets the scratch guard run on every path.
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
