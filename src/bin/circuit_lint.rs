//! `circuit_lint`: the DeepSecure static-analysis gate.
//!
//! Three modes, all exit non-zero on findings so CI can gate on them:
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
//! * `--src-lint ROOT` — token-level protocol-path lint over
//!   `crates/{ot,core,serve}/src` and `vendor/telemetry/src`, denying
//!   `unwrap()`/`expect()`/`panic!` outside the checked-in allowlist
//!   (stale allowlist entries fail too), plus an audit of every `unsafe`
//!   keyword under `crates/`, `vendor/` and `src/`: each needs its own
//!   allowlist entry, so the workspace's one audited site stays the only
//!   one.
//!
//! ```sh
//! circuit_lint --model all --deny-warnings
//! circuit_lint --model mnist_mlp --json > mnist.json
//! circuit_lint --netlist broken.netlist
//! circuit_lint --src-lint . --allowlist protocol_lint.allow
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use deepsecure::analyze::{self, report, srclint, Analysis};
use deepsecure::circuit::netlist;
use deepsecure::cli::Args;
use deepsecure::serve::demo;

const USAGE: &str = "\
usage:
  circuit_lint --model NAME|all [--chunk-gates N[,N...]] [--deny-warnings] [--json]
  circuit_lint --netlist FILE [--deny-warnings] [--json]
  circuit_lint --src-lint ROOT [--allowlist FILE]
  circuit_lint --help

models: tiny_mlp, tiny_cnn, mnist_mlp, mnist_mlp_c (all = every zoo model)

exit codes (stable — CI pipelines may rely on them):
  0  clean (or --help)
  1  diagnostics or lint findings
  2  usage error (unknown flag, unreadable file, bad mode combination)

--deny-warnings fails on DS-W* efficiency warnings as well as DS-E*
structural errors (errors always fail).

--chunk-gates takes a comma-separated list of streaming chunk sizes for
the peak-resident-table prediction (default 0,1024,8192; 0 = buffered).

--src-lint scans crates/{ot,core,serve}/src and vendor/telemetry/src
under ROOT for unwrap()/expect()/panic! outside comments, strings and #[cfg(test)]
modules, then audits every `unsafe` keyword under crates/, vendor/ and
src/ (test modules included; one allowlist entry covers one site).
--allowlist names the audited-exception file (default
ROOT/protocol_lint.allow if it exists); unmatched entries are stale and
fail the gate.";

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
    src_lint: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    chunks: Vec<usize>,
    deny_warnings: bool,
    json: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        models: Vec::new(),
        netlist: None,
        src_lint: None,
        allowlist: None,
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
            "--src-lint" => cli.src_lint = Some(PathBuf::from(args.value(flag)?)),
            "--allowlist" => cli.allowlist = Some(PathBuf::from(args.value(flag)?)),
            "--chunk-gates" => cli.chunks = args.list(flag, "non-free gate counts")?,
            "--deny-warnings" => cli.deny_warnings = true,
            "--json" => cli.json = true,
            other => return Err(args.unknown(other)),
        }
    }
    let modes = usize::from(!cli.models.is_empty())
        + usize::from(cli.netlist.is_some())
        + usize::from(cli.src_lint.is_some());
    if modes != 1 {
        return Err(format!(
            "pick exactly one of --model, --netlist, --src-lint\n{USAGE}"
        ));
    }
    Ok(cli)
}

/// Returns `Ok(true)` when the selected gate passes.
fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse(args)?;
    if let Some(root) = &cli.src_lint {
        return src_lint(root, cli.allowlist.as_deref());
    }

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

fn src_lint(root: &std::path::Path, allowlist: Option<&std::path::Path>) -> Result<bool, String> {
    let default_allow = root.join("protocol_lint.allow");
    let allow_path = match allowlist {
        Some(p) => Some(p.to_path_buf()),
        None if default_allow.exists() => Some(default_allow),
        None => None,
    };
    let allow = match &allow_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read allowlist {}: {e}", p.display()))?;
            srclint::Allowlist::parse(&text)?
        }
        None => srclint::Allowlist::empty(),
    };
    let dirs = srclint::DEFAULT_LINT_DIRS;
    let missing: Vec<&&str> = dirs.iter().filter(|d| !root.join(d).is_dir()).collect();
    if !missing.is_empty() {
        return Err(format!(
            "{} does not look like the repository root (missing {missing:?})",
            root.display()
        ));
    }
    let rep = srclint::lint_tree(root, dirs, &allow).map_err(|e| e.to_string())?;
    println!(
        "src-lint: scanned {} files in {dirs:?}: {} finding(s), {} allowlisted, {} stale allowlist entr(ies)",
        rep.files_scanned,
        rep.findings.len(),
        rep.allowed.len(),
        rep.stale_entries.len()
    );
    println!(
        "src-lint: unsafe audit over {:?}: {} audited site(s)",
        srclint::UNSAFE_AUDIT_DIRS,
        rep.unsafe_sites.len()
    );
    for f in &rep.unsafe_sites {
        println!("  AUDITED {}:{}: {}", f.file.display(), f.line, f.text);
    }
    for f in &rep.findings {
        println!("  DENIED {f}");
    }
    for e in &rep.stale_entries {
        println!(
            "  STALE allowlist entry `{} | {} | {}` ({}) matches nothing — remove it",
            e.file, e.token, e.contains, e.reason
        );
    }
    Ok(rep.is_clean())
}
