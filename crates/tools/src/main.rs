//! `plfs-tools`: maintenance commands for PLFS containers on a host
//! backend directory.
//!
//! ```text
//! plfs-tools stat    /path/to/backend/file      # structure summary
//! plfs-tools map     /path/to/backend/file      # logical→physical extents
//! plfs-tools flatten /path/to/backend/file OUT  # extract raw bytes
//! plfs-tools compact /path/to/backend/file      # fold droppings into one
//! plfs-tools check   /path/to/backend/file      # integrity report
//! plfs-tools repair  /path/to/backend/file [--clear-markers]
//! plfs-tools ls      /path/to/backend           # list, tagging containers
//! plfs-tools du      /path/to/backend           # logical vs physical usage
//! plfs-tools rm      /path/to/backend/file      # delete a container
//! plfs-tools version /path/to/backend/file
//! plfs-tools backend FAST_DIR SLOW_DIR          # tier residency + destage state
//! plfs-tools rccheck /path/to/plfsrc            # validate a config file, print the effective conf
//! plfs-tools rccheck --knobs                    # the knob table as markdown
//! plfs-tools trace   /path/to/trace.jsonl       # summarize a recorded trace
//! plfs-tools trace   /path/to/trace.jsonl --dump  # one line per op
//! plfs-tools benchcheck BENCH.json [...]        # validate emitted bench JSON
//! plfs-tools benchgate  BASELINE.json FRESH.json [--threshold 0.30]
//! plfs-tools lint [ROOT] [--json|--sarif]       # workspace static analysis
//! plfs-tools sarifcheck REPORT.sarif            # validate a SARIF report
//! ```

use plfs::RealBacking;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("plfs-tools: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> plfs_tools::ToolResult {
    let usage = || {
        plfs_tools::ToolError::Usage(
            "commands: stat|map|flatten|compact|check|repair|ls|du|rm|version|backend|rccheck|\
             trace|benchcheck|benchgate|lint|sarifcheck (see --help)"
                .to_string(),
        )
    };
    let cmd = args.first().ok_or_else(usage)?;
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Ok(include_str!("main.rs")
            .lines()
            .skip(3)
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//! ").trim_start_matches("//!"))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n");
    }
    if cmd == "lint" {
        let format = if args.iter().any(|a| a == "--sarif") {
            plfs_tools::LintFormat::Sarif
        } else if args.iter().any(|a| a == "--json") {
            plfs_tools::LintFormat::Json
        } else {
            plfs_tools::LintFormat::Text
        };
        let root = args
            .iter()
            .skip(1)
            .find(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or(".");
        let (report, count) = plfs_tools::lint(root, format)?;
        print!("{report}");
        if count > 0 {
            std::process::exit(1);
        }
        return Ok(String::new());
    }
    if cmd == "sarifcheck" {
        let path = args
            .get(1)
            .ok_or_else(|| plfs_tools::ToolError::Usage("sarifcheck REPORT.sarif".to_string()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| plfs_tools::ToolError::Usage(format!("{path}: {e}")))?;
        return plfs_tools::sarifcheck(&text, path);
    }
    let path = args
        .get(1)
        .ok_or_else(|| plfs_tools::ToolError::Usage(format!("{cmd} needs a path")))?;

    if cmd == "benchcheck" {
        let mut out = String::new();
        for p in &args[1..] {
            let text = std::fs::read_to_string(p)
                .map_err(|e| plfs_tools::ToolError::Usage(format!("{p}: {e}")))?;
            out.push_str(&plfs_tools::benchcheck(&text, p)?);
        }
        return Ok(out);
    }
    if cmd == "benchgate" {
        let fresh_path = args
            .get(2)
            .ok_or_else(|| plfs_tools::ToolError::Usage("benchgate BASELINE FRESH".to_string()))?;
        let threshold = args
            .iter()
            .position(|a| a == "--threshold")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse::<f64>().map_err(|_| {
                    plfs_tools::ToolError::Usage("--threshold needs a fraction".to_string())
                })
            })
            .transpose()?
            .unwrap_or(0.30);
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| plfs_tools::ToolError::Usage(format!("{p}: {e}")))
        };
        return plfs_tools::benchgate(&read(path)?, &read(fresh_path)?, threshold);
    }
    if cmd == "rccheck" {
        if path == "--knobs" {
            return Ok(plfs::conf::knobs_markdown());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| plfs_tools::ToolError::Usage(format!("{path}: {e}")))?;
        return plfs_tools::rccheck(&text);
    }
    if cmd == "trace" {
        let text = std::fs::read_to_string(path)
            .map_err(|e| plfs_tools::ToolError::Usage(format!("{path}: {e}")))?;
        return if args.iter().any(|a| a == "--dump") {
            plfs_tools::trace_dump(&text)
        } else {
            plfs_tools::trace_summary(&text)
        };
    }
    if cmd == "backend" {
        let slow_path = args
            .get(2)
            .ok_or_else(|| plfs_tools::ToolError::Usage("backend FAST_DIR SLOW_DIR".to_string()))?;
        let fast = RealBacking::new(path.as_str())?;
        let slow = RealBacking::new(slow_path.as_str())?;
        return plfs_tools::backend_report(&fast, &slow);
    }
    if cmd == "ls" || cmd == "du" {
        let b = RealBacking::new(path.as_str())?;
        return if cmd == "ls" {
            plfs_tools::ls(&b, "/")
        } else {
            plfs_tools::du(&b, "/")
        };
    }

    let (b, container) = plfs_tools::locate(path)?;
    match cmd.as_str() {
        "stat" => plfs_tools::stat(&b, &container),
        "map" => plfs_tools::map(&b, &container),
        "flatten" => {
            let dest = args
                .get(2)
                .map(|d| format!("/{d}"))
                .unwrap_or_else(|| format!("{container}.flat"));
            plfs_tools::flatten(&b, &container, &dest)
        }
        "compact" => plfs_tools::compact(&b, &container),
        "check" => plfs_tools::check(&b, &container),
        "repair" => {
            let clear = args.iter().any(|a| a == "--clear-markers");
            plfs_tools::repair(&b, &container, clear)
        }
        "rm" => plfs_tools::rm(&b, &container),
        "version" => plfs_tools::version(&b, &container),
        other => Err(plfs_tools::ToolError::Usage(format!(
            "unknown command {other}"
        ))),
    }
}
