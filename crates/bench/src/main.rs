//! `paperbench`: regenerate every table and figure of the LDPLFS paper.
//!
//! ```text
//! paperbench table1              # machine specs (Table I inputs)
//! paperbench fig3   [--quick]    # MPI-IO Test on Minerva (6 panels)
//! paperbench table2 [--gb N]     # UNIX tools on the login node
//! paperbench fig4 --class C|D    # NAS BT on Sierra
//! paperbench fig5 [--subdirs N]  # FLASH-IO on Sierra
//! paperbench crossover           # where PLFS starts to hurt (future work)
//! paperbench writepath [--quick] # serial vs sharded/buffered writers
//! paperbench metadata [--quick]  # per-open and small-file-cycle metadata ops + MDS-storm projection
//! paperbench noncontig [--quick] # list I/O vs data sieving on strided views
//! paperbench all [--quick]       # everything above
//! paperbench ... --json PATH     # also dump JSON for EXPERIMENTS.md
//! paperbench ... --emit-json DIR # figure data + per-layer op/latency trace
//! ```

use apps::nas_bt::BtClass;
use bench::{
    crossover, fig3, fig4, fig5_with, metadata_comparison, noncontig_comparison, render_metadata,
    render_noncontig, render_panel, render_table2, render_writepath, table2, writepath_comparison,
    Scale,
};
use jsonlite::{ToJson, Value};
use simfs::presets;

struct Args {
    cmd: String,
    quick: bool,
    gb: u64,
    class: Option<BtClass>,
    subdirs: u32,
    json: Option<String>,
    emit_json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: "all".to_string(),
        quick: false,
        gb: 4,
        class: None,
        subdirs: 32,
        json: None,
        emit_json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    if let Some(first) = it.next() {
        args.cmd = first.clone();
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--gb" => {
                args.gb = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--gb needs a number"));
            }
            "--class" => {
                args.class = match it.next().map(|s| s.as_str()) {
                    Some("C") | Some("c") => Some(BtClass::C),
                    Some("D") | Some("d") => Some(BtClass::D),
                    _ => die("--class needs C or D"),
                };
            }
            "--subdirs" => {
                args.subdirs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--subdirs needs a number"));
            }
            "--json" => {
                args.json = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs a path"))
                        .clone(),
                );
            }
            "--emit-json" => {
                args.emit_json = Some(
                    it.next()
                        .unwrap_or_else(|| die("--emit-json needs a directory"))
                        .clone(),
                );
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("paperbench: {msg}");
    std::process::exit(2)
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

fn write_json_file(file: &str, value: &Value) {
    if let Some(dir) = std::path::Path::new(file).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(file, value.to_json_pretty()) {
        eprintln!("paperbench: writing {file}: {e}");
    }
}

fn dump_json<T: ToJson>(path: &Option<String>, name: &str, value: &T) {
    if let Some(p) = path {
        write_json_file(&format!("{p}/{name}.json"), &value.to_json_value());
    }
}

/// Start a fresh per-figure trace window: clear the global sink and turn it
/// on for the duration of the figure run (no-op without `--emit-json`).
fn trace_begin(args: &Args) {
    if args.emit_json.is_some() {
        let sink = iotrace::global();
        sink.reset();
        sink.set_enabled(true);
    }
}

/// Close the trace window and write `BENCH_<figure>.json`: the figure data
/// plus per-layer op counts, byte totals and log2-ns latency histograms.
fn trace_emit<T: ToJson>(args: &Args, figure: &str, data: &T) {
    let Some(dir) = &args.emit_json else { return };
    let sink = iotrace::global();
    sink.set_enabled(false);
    let snap = sink.snapshot();
    let doc = Value::object()
        .with("figure", figure)
        .with("generated_by", "paperbench")
        .with("data", data.to_json_value())
        .with("trace", snap.to_json());
    let name = sanitize(figure);
    write_json_file(&format!("{dir}/BENCH_{name}.json"), &doc);
    sink.reset();
}

/// Keep emitted file names shell-friendly regardless of figure labels.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn cmd_table1() {
    println!("# Table I: benchmarking platforms\n");
    for p in [presets::minerva(), presets::sierra()] {
        println!("{}", p.fs.name);
        println!("  nodes                 {}", p.cluster.nodes);
        println!("  cores per node        {}", p.cluster.cores_per_node);
        println!("  I/O servers           {}", p.fs.servers);
        println!("  lanes per server      {}", p.fs.lanes_per_server);
        println!(
            "  effective storage bw  {:.1} MB/s (calibrated; theoretical peaks 4/30 GB/s)",
            p.peak_storage_bw() / 1e6
        );
        println!("  metadata              {:?}", short_mds(&p));
        println!();
    }
}

fn short_mds(p: &simfs::Platform) -> &'static str {
    match p.fs.mds {
        simfs::MdsConfig::Dedicated { .. } => "dedicated MDS (Lustre)",
        simfs::MdsConfig::Distributed { .. } => "distributed (GPFS)",
    }
}

fn cmd_fig3(args: &Args) {
    println!("# Figure 3: MPI-IO Test bandwidths on Minerva (MB/s)\n");
    trace_begin(args);
    let panels = fig3(scale(args.quick));
    for p in &panels {
        println!("{}", render_panel(p));
    }
    dump_json(&args.json, "fig3", &panels);
    trace_emit(args, "fig3", &panels);
}

fn cmd_table2(args: &Args) {
    println!(
        "# Table II: UNIX tool times on a {} GB file (seconds)\n",
        args.gb
    );
    trace_begin(args);
    let rows = table2(args.gb * 1_000_000_000);
    println!("{}", render_table2(&rows));
    dump_json(&args.json, "table2", &rows);
    trace_emit(args, "table2", &rows);
}

fn cmd_fig4(args: &Args) {
    let classes = match args.class {
        Some(c) => vec![c],
        None => vec![BtClass::C, BtClass::D],
    };
    for class in classes {
        println!(
            "# Figure 4{}: BT class {} on Sierra (MB/s)\n",
            match class {
                BtClass::C => "a",
                BtClass::D => "b",
            },
            class.label()
        );
        trace_begin(args);
        let p = fig4(class, scale(args.quick));
        println!("{}", render_panel(&p));
        dump_json(&args.json, &format!("fig4{}", class.label()), &p);
        trace_emit(args, &format!("fig4{}", class.label()), &p);
    }
}

fn cmd_fig5(args: &Args) {
    println!(
        "# Figure 5: FLASH-IO on Sierra (MB/s), {} hostdirs\n",
        args.subdirs
    );
    trace_begin(args);
    let p = fig5_with(args.subdirs, scale(args.quick));
    println!("{}", render_panel(&p));
    dump_json(&args.json, "fig5", &p);
    trace_emit(args, "fig5", &p);
}

fn cmd_ior(args: &Args) {
    println!("# IOR parameter sweep on Sierra (write, 96 processes)\n");
    trace_begin(args);
    let rows = bench::ior_sweep(96);
    println!("{}", bench::render_ior(&rows));
    dump_json(&args.json, "ior", &rows);
    trace_emit(args, "ior", &rows);
}

fn cmd_staging(args: &Args) {
    println!("# Zest-style staging vs PLFS vs plain Lustre (FLASH-IO)\n");
    trace_begin(args);
    let rows = bench::staging_comparison();
    println!("{}", bench::render_staging(&rows));
    println!(
        "(per-node staging lanes scale linearly with node count and dodge\n          shared-FS contention entirely — but the data still needs a later\n          copy-out to the real file system, which PLFS does not)\n"
    );
    dump_json(&args.json, "staging", &rows);
    trace_emit(args, "staging", &rows);
}

fn cmd_writepath(args: &Args) {
    println!("# Write path: racing writers on one fd, appends, read-after-write patches\n");
    trace_begin(args);
    let report = writepath_comparison(scale(args.quick));
    println!("## Measured (in-memory backing, this host)\n");
    println!("{}", render_writepath(&report));
    dump_json(&args.json, "writepath", &report);
    trace_emit(args, "writepath", &report);
}

fn cmd_metadata(args: &Args) {
    println!("# Metadata fast path: per-open backing ops, eager vs cached\n");
    trace_begin(args);
    let report = metadata_comparison(scale(args.quick));
    println!("## Measured (in-memory backing, this host) + MDS-storm projection\n");
    println!("{}", render_metadata(&report));
    println!(
        "(storm rows replay the measured open+write+close profile for N\n          simultaneous processes through Sierra's dedicated-MDS model: the\n          projected time for the slowest to finish its open; the small-file\n          rows replay the measured whole-cycle profile the same way, every\n          process cycling a file of its own)\n"
    );
    dump_json(&args.json, "metadata", &report);
    trace_emit(args, "metadata", &report);
}

fn cmd_noncontig(args: &Args) {
    println!("# Noncontiguous I/O: list I/O vs data sieving vs per-extent lowering\n");
    trace_begin(args);
    let report = noncontig_comparison(scale(args.quick));
    println!("## Simulated block-cyclic checkpoint (write + read back)\n");
    println!("{}", render_noncontig(&report));
    println!(
        "(sieving pays a 512 KiB read-modify-write per strided extent; PLFS\n          list I/O batches every extent of a view access into one op and one\n          index record — the per-extent column isolates the batching win)\n"
    );
    dump_json(&args.json, "noncontig", &report);
    trace_emit(args, "noncontig", &report);
}

fn cmd_crossover(args: &Args) {
    println!("# PLFS benefit crossover (FLASH-IO, LDPLFS vs MPI-IO)\n");
    for (platform, label) in [
        (presets::sierra(), "Sierra (Lustre, dedicated MDS)"),
        (presets::minerva(), "Minerva (GPFS, distributed metadata)"),
    ] {
        trace_begin(args);
        let c = crossover(&platform, label);
        println!("{label}");
        println!("{:>8}{:>12}", "Cores", "Speedup");
        for (cores, s) in c.cores.iter().zip(&c.speedup) {
            println!("{cores:>8}{s:>12.2}");
        }
        match c.harmful_at {
            Some(at) => println!("  -> PLFS harmful from {at} cores\n"),
            None => println!("  -> PLFS never harmful in this sweep\n"),
        }
        dump_json(&args.json, &format!("crossover_{label}"), &c);
        trace_emit(args, &format!("crossover_{}", c.platform), &c);
    }
}

fn main() {
    let args = parse_args();
    match args.cmd.as_str() {
        "table1" => cmd_table1(),
        "fig3" => cmd_fig3(&args),
        "table2" => cmd_table2(&args),
        "fig4" => cmd_fig4(&args),
        "fig5" => cmd_fig5(&args),
        "crossover" => cmd_crossover(&args),
        "ior" => cmd_ior(&args),
        "staging" => cmd_staging(&args),
        "writepath" => cmd_writepath(&args),
        "metadata" => cmd_metadata(&args),
        "noncontig" => cmd_noncontig(&args),
        "all" => {
            cmd_table1();
            cmd_fig3(&args);
            cmd_table2(&args);
            cmd_fig4(&args);
            cmd_fig5(&args);
            cmd_crossover(&args);
            cmd_ior(&args);
            cmd_staging(&args);
            cmd_writepath(&args);
            cmd_metadata(&args);
            cmd_noncontig(&args);
        }
        "--help" | "-h" | "help" => {
            println!(
                "usage: paperbench [table1|fig3|table2|fig4|fig5|crossover|ior|staging|writepath|metadata|noncontig|all] \
                 [--quick] [--gb N] [--class C|D] [--subdirs N] [--json DIR] [--emit-json DIR]"
            );
        }
        other => die(&format!("unknown command {other}")),
    }
}
