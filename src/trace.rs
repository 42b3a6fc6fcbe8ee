//! Chrome trace-event export shared by the workspace binaries
//! (`deepsecure_serve`, `loadgen` — see `--trace-out`).
//!
//! The binaries enable the `telemetry` span sink via [`start`], run the
//! protocol, and hand the drained spans to [`write_trace`], which writes
//! a Perfetto-viewable Chrome trace-event JSON file (open it at
//! `https://ui.perfetto.dev` or `chrome://tracing`).
//!
//! The spans are the protocol's one timeline: the per-cycle umbrella
//! spans (`client.garble`, `server.eval`), the base-OT set-ups and the
//! fine-grained steps inside them (per-chunk garbling, table transfer, OT
//! extension, turnarounds). `fig5` draws the Fig. 5 chart from the same
//! spans, and `trace_view` tabulates a written file.

/// Enables the span sink: every span from here on is recorded until
/// [`write_trace`] drains them.
pub fn start() {
    telemetry::set_enabled(true);
}

/// Stops the sink, drains every recorded span and writes the trace file.
/// `process` names the Chrome process track.
///
/// # Errors
///
/// Returns a message if the file cannot be written.
pub fn write_trace(path: &str, process: &str) -> Result<(), String> {
    const PID: u64 = 1;
    telemetry::set_enabled(false);
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
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        trace.name_thread(PID, tid, &format!("{process} thread {tid}"));
    }
    trace.push_events(PID, &events);
    std::fs::write(path, trace.render()).map_err(|e| format!("writing trace {path}: {e}"))
}
