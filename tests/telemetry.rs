//! End-to-end telemetry: the spans are the protocol's one timeline. The
//! Chrome trace of a streamed sim-WAN run over TCP loopback must be valid
//! trace-event JSON that the `trace_view` binary tabulates — the same tool
//! a human would point at the file before loading it into Perfetto — and
//! the traced, streamed run must move exactly the bytes of an untraced,
//! buffered one. A traced multi-cycle run must record one `client.garble`
//! and one `server.eval` span per clock cycle: the Fig. 5 windows `fig5`
//! draws.
//!
//! The span sink is process-global and tests in one binary run
//! concurrently, so every traced run lives in this file's one test.

use std::process::Command;
use std::sync::Arc;

use deepsecure::core::compile::{folded_mac, CompileOptions, Compiled};
use deepsecure::core::protocol::{run_compiled, run_compiled_over, InferenceConfig};
use deepsecure::fixed::Format;
use deepsecure::ot::{tcp_pair, NetModel, SimChannel};
use deepsecure::serve::demo;
use deepsecure::trace;

#[test]
fn traced_runs_write_valid_traces_and_time_every_cycle() {
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
    trace::start();
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

    let path = std::env::temp_dir().join(format!("ds_telemetry_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    trace::write_trace(path_str, "inference").expect("writing trace");

    let text = std::fs::read_to_string(&path).expect("reading trace");
    // Object-form Chrome trace: Perfetto and chrome://tracing load it.
    assert!(
        text.starts_with("{\"traceEvents\":["),
        "unexpected trace shape: {}…",
        &text[..text.len().min(80)]
    );

    // trace_view validates the JSON and tabulates one row per span name,
    // the umbrella spans of both parties and their chunk steps among them.
    let view = Command::new(env!("CARGO_BIN_EXE_trace_view"))
        .arg(&path)
        .output()
        .expect("running trace_view");
    let stdout = String::from_utf8_lossy(&view.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&view.stderr).into_owned();
    assert!(
        view.status.success(),
        "trace_view failed:\n{stdout}\n{stderr}"
    );
    for row in [
        "client.base_ot ",
        "client.garble ",
        "client.garble.chunk ",
        "server.eval ",
        "server.eval.chunk ",
    ] {
        assert!(stdout.contains(row), "no {row:?} row:\n{stdout}");
    }
    // There is no second timeline left to reconcile the spans against.
    let check = Command::new(env!("CARGO_BIN_EXE_trace_view"))
        .arg(&path)
        .arg("--check")
        .output()
        .expect("running trace_view --check");
    assert!(!check.status.success());
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("unknown flag \"--check\""), "{stderr}");
    let _ = std::fs::remove_file(&path);

    // Six cycles of the folded MAC core, buffered and streamed: exactly one
    // garbling and one evaluation span per cycle. `drain` orders spans by
    // start, so the i-th of each name is cycle i's — and a cycle's
    // evaluation never starts before its garbling did.
    let mac = Arc::new(Compiled {
        circuit: folded_mac(&CompileOptions::default()),
        weight_order: Vec::new(),
        format: Format::Q3_12,
    });
    let cycles = 6;
    for chunk_gates in [0, 64] {
        let cfg = InferenceConfig {
            chunk_gates,
            ..InferenceConfig::default()
        };
        telemetry::reset();
        telemetry::set_enabled(true);
        let report = run_compiled(
            Arc::clone(&mac),
            vec![vec![false; 17]; cycles],
            vec![vec![false; 16]; cycles],
            &cfg,
        )
        .expect("folded MAC run");
        telemetry::set_enabled(false);
        assert_eq!(report.cycle_labels.len(), cycles);
        let spans = telemetry::drain();
        let starts = |name: &str| -> Vec<u64> {
            let named = spans.iter().filter(|e| e.name == name);
            named.map(|e| e.start_us).collect()
        };
        let (garbles, evals) = (starts("client.garble"), starts("server.eval"));
        assert_eq!(garbles.len(), cycles, "client.garble, chunk {chunk_gates}");
        assert_eq!(evals.len(), cycles, "server.eval, chunk {chunk_gates}");
        for (c, (g, e)) in garbles.iter().zip(&evals).enumerate() {
            assert!(
                g <= e,
                "cycle {c} evaluated before it was garbled, chunk {chunk_gates}"
            );
        }
    }
}
