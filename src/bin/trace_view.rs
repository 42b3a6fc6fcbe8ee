//! Summarizes a Chrome trace-event JSON file written by `--trace-out`
//! (`deepsecure_serve`, `loadgen`): a per-phase table of
//! span counts and wall time, and — with `--check` — a reconciliation of
//! the span-derived phase totals against the `report.*` windows a run
//! embedded from its `InferenceReport` (see `deepsecure::trace`).
//!
//! The two timelines are measured independently (telemetry span guards
//! vs. the sessions' own `Instant` phase windows), so agreement within
//! tolerance is evidence the trace is faithful, not a tautology.

use std::collections::BTreeMap;
use std::process::ExitCode;

use deepsecure::analyze::budget::Json;

const USAGE: &str = "\
usage:
  trace_view FILE [--check]

  FILE      a Chrome trace-event JSON file (deepsecure_serve/loadgen
            --trace-out FILE); viewable at https://ui.perfetto.dev
  --check   reconcile span-derived phase totals against the embedded
            report.* windows (5% + 2 ms tolerance) and fail on divergence

Prints a per-phase table: span count, total/mean/max wall time.";

/// Span totals must match the independently measured report windows
/// within 5% — plus a small absolute allowance for timer granularity on
/// microsecond-scale phases.
const CHECK_REL_TOL: f64 = 0.05;
const CHECK_ABS_TOL_US: f64 = 2_000.0;

/// `(report family, protocol span family)` pairs `--check` reconciles.
/// Each umbrella span wraps the same code region the session also
/// brackets with its own `Instant` pair.
const CHECK_PAIRS: &[(&str, &str)] = &[
    ("report.ot_setup", "client.base_ot"),
    ("report.garble", "client.garble"),
    ("report.eval", "server.eval"),
];

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

fn parse_args(args: &[String]) -> Result<(String, bool), String> {
    let mut file = None;
    let mut check = false;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    return Err(format!("expected exactly one FILE\n{USAGE}"));
                }
            }
        }
    }
    let file = file.ok_or_else(|| format!("FILE is required\n{USAGE}"))?;
    Ok((file, check))
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

/// Reconciles each present `(report.*, protocol)` pair's totals.
fn check(families: &BTreeMap<String, Family>) -> Result<(), String> {
    let mut checked = 0usize;
    let mut fail = Vec::new();
    for (report, span) in CHECK_PAIRS {
        let (Some(r), Some(s)) = (families.get(*report), families.get(*span)) else {
            continue;
        };
        checked += 1;
        let tol = CHECK_REL_TOL * r.total_us + CHECK_ABS_TOL_US;
        let delta = (r.total_us - s.total_us).abs();
        let verdict = if delta <= tol { "OK" } else { "FAIL" };
        println!(
            "check {verdict}: {span} total {:.3} ms vs {report} {:.3} ms (|Δ| {:.3} ms, tol {:.3} ms)",
            s.total_us / 1e3,
            r.total_us / 1e3,
            delta / 1e3,
            tol / 1e3,
        );
        if delta > tol {
            fail.push(format!(
                "{span} total {:.3} ms diverges from {report} {:.3} ms by {:.3} ms (> {:.3} ms)",
                s.total_us / 1e3,
                r.total_us / 1e3,
                delta / 1e3,
                tol / 1e3
            ));
        }
    }
    if checked == 0 {
        return Err(
            "nothing to check: the trace holds no (report.*, protocol span) pair".to_string(),
        );
    }
    if fail.is_empty() {
        println!("check OK: {checked} phase pair(s) reconcile within tolerance");
        Ok(())
    } else {
        Err(format!(
            "span totals diverge from the report:\n  {}",
            fail.join("\n  ")
        ))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (file, do_check) = parse_args(args)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading trace {file}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{file} is not valid JSON: {e}"))?;
    let families = collect(&doc)?;
    print_table(&families);
    if do_check {
        check(&families)?;
    }
    Ok(())
}
