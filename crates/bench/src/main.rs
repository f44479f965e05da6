//! `paperbench`: regenerate every table and figure of the LDPLFS paper,
//! and check and gate the `BENCH_*.json` files it emits. The figures are
//! the rows of `bench::figures::FIGURES`; `paperbench --help` lists them.

use apps::nas_bt::BtClass;
use bench::figures::{figure, Opts, FIGURES};
use bench::gate::{check, gate, BenchError, THRESHOLD};
use bench::Scale;
use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("paperbench: {msg}");
    std::process::exit(2)
}

/// The value after flag `flag`, parsed.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// Figure flags: the run's [`Opts`] and the `--emit-json` directory.
fn parse_flags(args: &[String]) -> (Opts, Option<PathBuf>) {
    let mut opts = Opts::default();
    let mut emit = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--gb" => opts.gb = value(&mut it, "--gb", "a number"),
            "--subdirs" => opts.subdirs = value(&mut it, "--subdirs", "a number"),
            "--class" => {
                opts.class = match it.next().map(|s| s.as_str()) {
                    Some("C") | Some("c") => Some(BtClass::C),
                    Some("D") | Some("d") => Some(BtClass::D),
                    _ => die("--class needs C or D"),
                };
            }
            "--emit-json" => emit = Some(value(&mut it, "--emit-json", "a directory")),
            other => die(&format!("unknown flag {other}")),
        }
    }
    (opts, emit)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn usage() -> String {
    let mut out = "usage: paperbench <figure>|all [--quick] [--gb N] [--class C|D] \
                   [--subdirs N] [--emit-json DIR]\n\nfigures:\n"
        .to_string();
    for f in FIGURES {
        let gated = if f.gate.is_some() { ", gated" } else { "" };
        out += &format!("  {:<10} {} ({}{gated})\n", f.name, f.help, f.kind.as_str());
    }
    out + "  all        every figure above\n\n\
           paperbench check BENCH.json...           validate emitted files\n\
           paperbench gate BASELINE FRESH [--threshold F]\n\
           \x20                                        fail if FRESH's gated metrics regressed\n\
           paperbench gated [--quick]               the gated figures, each with the flags\n\
           \x20                                        that regenerate it for the gate\n"
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .map_or(("all", &[][..]), |(c, r)| (c.as_str(), r));
    let outcome = match cmd {
        "--help" | "-h" | "help" => Ok(usage()),
        "check" => rest.iter().map(|p| check(&read(p), p)).collect(),
        "gate" => {
            let [base, fresh, tail @ ..] = rest else {
                die("gate needs BASELINE FRESH")
            };
            let threshold = match tail {
                [] => THRESHOLD,
                [flag, v] if flag == "--threshold" => v
                    .parse()
                    .unwrap_or_else(|_| die("--threshold needs a fraction")),
                _ => die("gate takes only --threshold F"),
            };
            gate(&read(base), &read(fresh), threshold)
        }
        "gated" => {
            let (opts, _) = parse_flags(rest);
            Ok(FIGURES
                .iter()
                .filter_map(|f| {
                    let quick =
                        f.gate.as_ref()?.scale == Scale::Quick && opts.scale == Scale::Quick;
                    Some(format!(
                        "{}{}\n",
                        f.name,
                        if quick { " --quick" } else { "" }
                    ))
                })
                .collect())
        }
        "all" => {
            let (opts, emit) = parse_flags(rest);
            for f in FIGURES {
                print!("{}", f.regenerate(&opts, emit.as_deref()));
            }
            Ok(String::new())
        }
        name => {
            let f = figure(name).unwrap_or_else(|| die(&format!("unknown command {name}")));
            let (opts, emit) = parse_flags(rest);
            Ok(f.regenerate(&opts, emit.as_deref()))
        }
    };
    match outcome {
        Ok(out) => print!("{out}"),
        Err(e @ BenchError::Invalid(_)) => die(&e.to_string()),
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::exit(1)
        }
    }
}
