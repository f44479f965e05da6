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
//! plfs-tools trace   /path/to/trace.jsonl       # summarize a recorded trace
//! plfs-tools trace   /path/to/trace.jsonl --dump  # one line per op
//! plfs-tools pairs   RUNS.jsonl                 # parent vs change pairs: medians, wins, gain rule
//! plfs-tools lint [ROOT] [--json|--sarif]       # workspace static analysis
//! plfs-tools sarifcheck REPORT.sarif            # validate a SARIF report
//! plfs-tools syscalls -- CMD [ARGS...]          # run CMD under ptrace; syscalls it entered, by name, on stderr
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
            "commands: stat|map|flatten|compact|check|repair|ls|du|rm|version|backend|\
             trace|pairs|lint|sarifcheck|syscalls (see --help)"
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
    if cmd == "syscalls" {
        let rest = &args[1..];
        let command = rest.strip_prefix(&["--".to_string()]).unwrap_or(rest);
        // The command owns stdout; the histogram goes to stderr.
        let (report, ok) = plfs_tools::syscalls(command)?;
        eprint!("{report}");
        if !ok {
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

    if cmd == "pairs" {
        let text = std::fs::read_to_string(path)
            .map_err(|e| plfs_tools::ToolError::Usage(format!("{path}: {e}")))?;
        return plfs_tools::pairs(&text);
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
