//! End-to-end telemetry: the Chrome trace of a streamed sim-WAN run over
//! TCP loopback must be valid trace-event JSON whose span-derived phase
//! totals reconcile with the `InferenceReport` phase windows — checked by
//! the `trace_view` binary, the same tool a human would point at the file
//! before loading it into Perfetto. The traced, streamed run must also
//! move exactly the bytes of an untraced, buffered one.

use std::process::Command;
use std::sync::Arc;

use deepsecure::core::protocol::{run_compiled, run_compiled_over, InferenceConfig};
use deepsecure::ot::{tcp_pair, NetModel, SimChannel};
use deepsecure::serve::demo;
use deepsecure::trace;

#[test]
fn sim_wan_streamed_trace_is_valid_and_reconciles_with_the_report() {
    let model = demo::load("tiny_mlp").expect("loading tiny_mlp");
    let input_bits = model.compiled.input_bits(&model.dataset.inputs[0]);
    let weight_bits = model.compiled.weight_bits(&model.net);

    // The reference: telemetry off, tables buffered, in memory.
    let buffered = run_compiled(
        Arc::clone(&model.compiled),
        vec![input_bits.clone()],
        vec![weight_bits.clone()],
        &demo::inference_config(),
    )
    .expect("buffered run");

    // Streamed over real sockets, the garbler's endpoint paced by the
    // simulated WAN: chunk spans + link pacing on the client side.
    let streamed_cfg = InferenceConfig {
        chunk_gates: 2000,
        ..demo::inference_config()
    };
    let (client, server) = tcp_pair().expect("tcp_pair");
    let (_, offset_us) = trace::start();
    let report = run_compiled_over(
        Arc::clone(&model.compiled),
        vec![input_bits],
        vec![weight_bits],
        &streamed_cfg,
        SimChannel::new(client, NetModel::wan()),
        server,
    )
    .expect("streamed sim-WAN run");
    assert_eq!(report.label, buffered.label, "label");
    assert_eq!(report.wire, buffered.wire, "per-phase wire bytes");

    let mut reports: Vec<trace::ReportSpan> = vec![(
        "report.ot_setup",
        report.ot_setup.start_s,
        report.ot_setup.end_s,
    )];
    for cycle in &report.cycles {
        reports.push(("report.garble", cycle.garble.start_s, cycle.garble.end_s));
        reports.push(("report.eval", cycle.eval.start_s, cycle.eval.end_s));
    }
    let path = std::env::temp_dir().join(format!("ds_telemetry_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    trace::write_trace(path_str, "inference", offset_us, &reports).expect("writing trace");

    let text = std::fs::read_to_string(&path).expect("reading trace");
    // Object-form Chrome trace: Perfetto and chrome://tracing load it.
    assert!(
        text.starts_with("{\"traceEvents\":["),
        "unexpected trace shape: {}…",
        &text[..text.len().min(80)]
    );
    for span in ["client.garble.chunk", "server.eval.chunk", "report."] {
        assert!(text.contains(span), "trace misses the {span} spans");
    }

    // trace_view validates the JSON, tabulates phases, and — with
    // --check — reconciles span totals against the report windows within
    // its 5% tolerance: base OT, garbling and evaluation.
    let view = Command::new(env!("CARGO_BIN_EXE_trace_view"))
        .arg(&path)
        .arg("--check")
        .output()
        .expect("running trace_view");
    let stdout = String::from_utf8_lossy(&view.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&view.stderr).into_owned();
    assert!(
        view.status.success(),
        "trace_view --check failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("check OK: 3 phase pair(s)"),
        "not every phase pair reconciled:\n{stdout}"
    );
    let _ = std::fs::remove_file(&path);
}
