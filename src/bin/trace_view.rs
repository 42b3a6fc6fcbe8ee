//! Summarizes a Chrome trace-event JSON file written by `--trace-out`
//! (`deepsecure_serve`, `loadgen`): validates its structure and prints a
//! per-phase table of span counts and wall time.

use std::collections::BTreeMap;
use std::process::ExitCode;

use deepsecure::analyze::json::Json;

const USAGE: &str = "\
usage:
  trace_view FILE

  FILE      a Chrome trace-event JSON file (deepsecure_serve/loadgen
            --trace-out FILE); viewable at https://ui.perfetto.dev

Prints a per-phase table: span count, total/mean/max wall time.";

#[derive(Default)]
struct Family {
    count: u64,
    total_us: f64,
    max_us: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_view: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<String, String> {
    let mut file = None;
    for a in args {
        if a.starts_with('-') {
            return Err(format!("unknown flag {a:?}\n{USAGE}"));
        }
        if file.replace(a.clone()).is_some() {
            return Err(format!("expected exactly one FILE\n{USAGE}"));
        }
    }
    file.ok_or_else(|| format!("FILE is required\n{USAGE}"))
}

/// Validates the trace structure and folds every complete (`ph: "X"`)
/// event into its per-name family.
fn collect(doc: &Json) -> Result<BTreeMap<String, Family>, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("not a Chrome trace: missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents must be an array".to_string());
    };
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue; // metadata (thread names etc.)
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: complete event without a name"))?;
        // Timestamps must parse as non-negative integers (µs).
        let _ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing or invalid ts"))?;
        let dur = ev
            .get("dur")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing or invalid dur"))?;
        let fam = families.entry(name.to_string()).or_default();
        fam.count += 1;
        #[allow(clippy::cast_precision_loss)]
        let dur_us = dur as f64;
        fam.total_us += dur_us;
        fam.max_us = fam.max_us.max(dur_us);
    }
    if families.is_empty() {
        return Err("trace holds no complete (ph=X) events".to_string());
    }
    Ok(families)
}

fn print_table(families: &BTreeMap<String, Family>) {
    let mut rows: Vec<(&String, &Family)> = families.iter().collect();
    rows.sort_by(|a, b| b.1.total_us.total_cmp(&a.1.total_us));
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(5).max(5);
    println!(
        "{:width$}  {:>7}  {:>12}  {:>12}  {:>12}",
        "phase", "spans", "total ms", "mean ms", "max ms"
    );
    #[allow(clippy::cast_precision_loss)]
    for (name, fam) in rows {
        println!(
            "{name:width$}  {:>7}  {:>12.3}  {:>12.3}  {:>12.3}",
            fam.count,
            fam.total_us / 1e3,
            fam.total_us / fam.count as f64 / 1e3,
            fam.max_us / 1e3,
        );
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let file = parse_args(args)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading trace {file}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{file} is not valid JSON: {e}"))?;
    let families = collect(&doc)?;
    print_table(&families);
    Ok(())
}
