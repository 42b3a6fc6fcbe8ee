//! `circuit_lint`: the DeepSecure static-analysis gate.
//!
//! Two modes, both exit non-zero on findings so CI can gate on them:
//!
//! * `--model NAME|all` — train + compile the named zoo model(s) and run
//!   the full analyzer: exhaustive structural verification, optimization
//!   opportunities (dead / constant-cone / duplicate gates with the table
//!   bytes each would save), and the static cost prediction (non-free
//!   count, table bytes, depths, level widths, peak resident tables at the
//!   requested chunk sizes).
//! * `--netlist FILE` — parse a netlist *without* the parser's validation
//!   stop-at-first-error behavior and report every structured diagnostic
//!   (`DS-Exx`/`DS-Wxx`), e.g. for triaging a corrupt import.
//!
//! ```sh
//! circuit_lint --model all --deny-warnings
//! circuit_lint --model mnist_mlp --json > mnist.json
//! circuit_lint --netlist broken.netlist
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use deepsecure::analyze::{self, report, Analysis};
use deepsecure::circuit::netlist;
use deepsecure::cli::Args;
use deepsecure::serve::demo;

const USAGE: &str = "\
usage:
  circuit_lint --model NAME|all [--chunk-gates N[,N...]] [--deny-warnings] [--json]
  circuit_lint --netlist FILE [--deny-warnings] [--json]
  circuit_lint --help

models: tiny_mlp, tiny_cnn, mnist_mlp, mnist_mlp_c (all = every zoo model)

exit codes (stable — CI pipelines may rely on them):
  0  clean (or --help)
  1  diagnostics
  2  usage error (unknown flag, unreadable file, bad mode combination)

--deny-warnings fails on DS-W* efficiency warnings as well as DS-E*
structural errors (errors always fail).

--chunk-gates takes a comma-separated list of streaming chunk sizes for
the peak-resident-table prediction (default 0,1024,8192; 0 = buffered).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("circuit_lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    models: Vec<String>,
    netlist: Option<PathBuf>,
    chunks: Vec<usize>,
    deny_warnings: bool,
    json: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        models: Vec::new(),
        netlist: None,
        chunks: report::DEFAULT_CHUNK_SIZES.to_vec(),
        deny_warnings: false,
        json: false,
    };
    let mut args = Args::new(args, USAGE);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--model" => {
                let v = args.value(flag)?;
                if v == "all" {
                    cli.models = demo::MODEL_NAMES.iter().map(|s| s.to_string()).collect();
                } else if demo::MODEL_NAMES.contains(&v.as_str()) {
                    cli.models.push(v);
                } else {
                    return Err(format!(
                        "unknown model {v:?} (have: {})",
                        demo::MODEL_NAMES.join(", ")
                    ));
                }
            }
            "--netlist" => cli.netlist = Some(PathBuf::from(args.value(flag)?)),
            "--chunk-gates" => cli.chunks = args.list(flag, "non-free gate counts")?,
            "--deny-warnings" => cli.deny_warnings = true,
            "--json" => cli.json = true,
            other => return Err(args.unknown(other)),
        }
    }
    if cli.models.is_empty() == cli.netlist.is_none() {
        return Err(format!("pick exactly one of --model, --netlist\n{USAGE}"));
    }
    Ok(cli)
}

/// Returns `Ok(true)` when the selected gate passes.
fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse(args)?;
    let mut analyses: Vec<(String, Analysis)> = Vec::new();
    if let Some(path) = &cli.netlist {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let circuit = netlist::parse_raw(&text).map_err(|e| e.to_string())?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        analyses.push((name, analyze::analyze(&circuit)));
    } else {
        for name in &cli.models {
            eprintln!("circuit_lint: building {name} (train + compile)...");
            let model = demo::load(name)?;
            analyses.push((name.clone(), analyze::analyze(&model.compiled.circuit)));
        }
    }

    if cli.json {
        print!("{}", report::render_json(&analyses, &cli.chunks));
    } else {
        for (name, a) in &analyses {
            print!("{}", report::render_text(name, a, &cli.chunks));
        }
    }
    let mut clean = true;
    for (name, a) in &analyses {
        let errors = a.error_count();
        let warnings = a.warning_count();
        if errors > 0 || (cli.deny_warnings && warnings > 0) {
            eprintln!(
                "circuit_lint: {name}: {errors} error(s), {warnings} warning(s){}",
                if cli.deny_warnings {
                    " (warnings denied)"
                } else {
                    ""
                }
            );
            clean = false;
        }
    }
    Ok(clean)
}
