//! `table_budget`: the CI table-byte ratchet.
//!
//! Compares a fresh `circuit_lint --model all --json` run against the
//! committed `BENCH_RESULTS.json` snapshot and fails if any zoo model's
//! `table_bytes` or `non_free_gates` grew, if a pinned model vanished from
//! the fresh run, or if a fresh model is not pinned at all. Improvements
//! pass with a nudge to ratchet the snapshot down.
//!
//! ```sh
//! circuit_lint --model all --json > fresh.json
//! table_budget --baseline BENCH_RESULTS.json --fresh fresh.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use deepsecure::analyze::budget::{self, Json};
use deepsecure::cli::Args;

const USAGE: &str = "\
usage:
  table_budget --baseline FILE --fresh FILE
  table_budget --help

--baseline  committed snapshot (deepsecure-bench-results/1, analyzer
            costs nested under \"analyzer\".\"models\", or a bare
            deepsecure-analyze/1 document)
--fresh     freshly generated `circuit_lint --model all --json` output

exit codes (stable — CI pipelines may rely on them):
  0  every model within budget (unchanged or improved)
  1  budget violated (growth, stale pin, or unpinned model)
  2  usage error (unknown flag, unreadable or malformed file)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("table_budget: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut args = Args::new(args, USAGE);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--baseline" => baseline = Some(PathBuf::from(args.value(flag)?)),
            "--fresh" => fresh = Some(PathBuf::from(args.value(flag)?)),
            other => return Err(args.unknown(other)),
        }
    }
    let baseline = baseline.ok_or_else(|| format!("--baseline is required\n{USAGE}"))?;
    let fresh = fresh.ok_or_else(|| format!("--fresh is required\n{USAGE}"))?;

    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        budget::model_costs(&doc).map_err(|e| format!("{}: {e}", path.display()))
    };
    let report = budget::check(&load(&baseline)?, &load(&fresh)?);
    print!(
        "table_budget: {} vs {}:\n{report}",
        fresh.display(),
        baseline.display()
    );
    if report.within_budget() {
        println!("table_budget: within budget");
    } else {
        println!("table_budget: BUDGET VIOLATED — shrink the circuit or regenerate the snapshot");
    }
    Ok(report.within_budget())
}
