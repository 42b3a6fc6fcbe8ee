//! Chrome trace-event export shared by the workspace binaries
//! (`deepsecure_serve`, `loadgen` — see `--trace-out`).
//!
//! The binaries enable the `telemetry` span sink via [`start`], run the
//! protocol, and hand the drained spans to [`write_trace`], which writes
//! a Perfetto-viewable Chrome trace-event JSON file (open it at
//! `https://ui.perfetto.dev` or `chrome://tracing`).
//!
//! Besides the fine-grained protocol spans (per-chunk garbling, table
//! transfer, OT extension, turnarounds), a caller may embed its
//! `InferenceReport` phase windows as spans named `report.*` on a
//! dedicated synthetic track (`tests/telemetry.rs` does). Those are
//! recorded by independent `Instant` arithmetic in the session code, so
//! such a trace carries its own cross-check: `trace_view --check`
//! reconciles the span-derived phase totals against the report-derived
//! ones and fails on divergence.

use std::time::Instant;

/// One `report.*` phase window to embed: `(name, start_s, end_s)` with
/// the times relative to the epoch returned by [`start`].
pub type ReportSpan = (&'static str, f64, f64);

/// The synthetic Chrome `tid` the `report.*` track renders under (far
/// above any real dense telemetry thread id).
pub const REPORT_TID: u64 = 999_999;

/// Enables the span sink and returns a protocol epoch aligned with the
/// telemetry clock: `.0` is the `Instant` to pass to the sessions, `.1`
/// the telemetry-microsecond timestamp captured at the same moment, so
/// report-relative seconds convert onto the span timeline.
#[must_use]
pub fn start() -> (Instant, u64) {
    telemetry::set_enabled(true);
    let offset_us = telemetry::span::now_us();
    (Instant::now(), offset_us)
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn us(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6) as u64
}

/// Drains every recorded span and writes the trace file. `process` names
/// the Chrome process track; `offset_us` is the epoch alignment from
/// [`start`]; `reports` are the `report.*` windows to embed.
///
/// # Errors
///
/// Returns a message if the file cannot be written.
pub fn write_trace(
    path: &str,
    process: &str,
    offset_us: u64,
    reports: &[ReportSpan],
) -> Result<(), String> {
    const PID: u64 = 1;
    let events = telemetry::drain();
    let dropped = telemetry::dropped_total();
    if dropped > 0 {
        eprintln!(
            "trace: warning: {dropped} span(s) overwrote older ones \
             (per-thread rings hold {} events)",
            telemetry::span::RING_CAPACITY
        );
    }
    let mut trace = telemetry::chrome::ChromeTrace::new();
    trace.name_thread(PID, REPORT_TID, &format!("{process} report"));
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        trace.name_thread(PID, tid, &format!("{process} thread {tid}"));
    }
    trace.push_events(PID, &events);
    for (name, start_s, end_s) in reports {
        let start = offset_us + us(*start_s);
        trace.push_span(name, PID, REPORT_TID, start, us(end_s - start_s));
    }
    std::fs::write(path, trace.render()).map_err(|e| format!("writing trace {path}: {e}"))
}
