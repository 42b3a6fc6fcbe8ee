//! DeepSecure as two real processes: `garbler` (the client, Alice — owns
//! the data sample and decodes the result) and `evaluator` (the cloud
//! server, Bob — owns the DL parameters, which enter through OT).
//!
//! Both subcommands drive the channel-generic sessions of
//! `deepsecure_core::session` over a [`TcpChannel`], preceded by a framed
//! handshake that pins down the model and circuit shape. For the demo,
//! both processes derive the same deterministic model (same synthetic
//! dataset, same training seed), which is what lets `--check` replay the
//! run in-memory inside the garbler process and assert the decoded label
//! and wire-byte totals match bit for bit.
//!
//! ```sh
//! two_party evaluator --listen 127.0.0.1:7700 --model tiny_mlp
//! two_party garbler --connect 127.0.0.1:7700 --model tiny_mlp --input 0 --check
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepsecure::cli::Args;
use deepsecure::core::compile::plain_label;
use deepsecure::core::protocol::{run_compiled, InferenceConfig};
use deepsecure::core::session::{
    ClientOutcome, ClientSession, ServerOutcome, ServerSession, WireBreakdown,
};
use deepsecure::ot::{
    Channel, ChaosSpec, FaultChannel, FramedChannel, NetModel, SimChannel, TcpChannel,
};
use deepsecure::serve::demo::{self, DemoModel};
use deepsecure::serve::proto;
use deepsecure::trace;

const USAGE: &str = "\
usage:
  two_party evaluator --listen HOST:PORT [--model NAME] [--threads N]
                      [--sim lan|wan] [--chaos SEED:PROFILE] [--trace-out FILE]
  two_party garbler --connect HOST:PORT [--model NAME] [--input N]
                    [--chunk-gates N] [--threads N] [--check]
                    [--sim lan|wan] [--chaos SEED:PROFILE] [--trace-out FILE]

models: tiny_mlp (default), tiny_cnn, mnist_mlp, mnist_mlp_c

The evaluator serves exactly one inference, then exits.

mnist_mlp_c is the compressed mnist_mlp: deterministically pruned to 90%
sparsity with masked re-training, compiled with the truncated multiplier
and lerp-style nonlinearities, and circuit-preprocessed before garbling.
Both processes derive the identical compressed model from the shared
seeds; the fingerprint handshake pins it like any other model.

--threads N parallelises garbling, evaluation, and base-OT modexps
across N worker threads (0 = one per core; default from
DEEPSECURE_THREADS, else 1). A pure perf knob each process picks for
itself: every width moves bit-identical wire bytes, so the parties
need not agree and --check passes at any combination.

--chunk-gates N streams the garbled tables in chunks of N non-free gates
(garble a chunk, send a chunk): garbling, transfer, and evaluation
overlap, and neither process ever holds more than one chunk of tables
(run mnist_mlp under `ulimit -v` to see the difference). 0 (default)
buffers each cycle whole. The garbler picks; the handshake pins the
value for both processes. Chunking never changes what crosses the wire
— only when.

`--check` makes the garbler replay the run in-memory (both parties as
threads) and fail unless the decoded label and the wire-byte totals
match the TCP run; with --chunk-gates it additionally replays the
buffered path and fails unless the streamed run moved bit-identical
per-phase wire bytes.

--sim lan|wan wraps this endpoint's TCP channel in the simulated link
model after the handshake (LAN: 1 Gbps, 1 ms one-way; WAN: 40 Mbps,
40 ms): sleeps model latency once per turnaround and serialization at
the link rate. A local observability knob — wire bytes are untouched,
so --check still passes.

--chaos SEED:PROFILE wraps this endpoint's post-handshake channel in the
deterministic fault injector (PROFILE: off, delays, short, drops,
mixed). delays and short perturb timing and I/O boundaries without
changing wire bytes, so --check still passes; drops/mixed kill the
connection mid-protocol — the way to watch a one-shot run fail loudly
(the serving stack is what retries and resumes; see loadgen --chaos).

--trace-out FILE records wall-time spans for every protocol phase
(including per-chunk garbling/transfer/evaluation) and writes a
Chrome trace-event JSON file viewable at https://ui.perfetto.dev.
The outcome's phase windows ride along as report.* spans, so
`trace_view FILE --check` can reconcile span totals against the
report independently of this process.";

/// Handshake protocol tag; bump on any wire-format change (v2: the hello
/// gained the chunk-gates field).
const HELLO_PREFIX: &str = "DSEC/2";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("two_party: error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Cli {
    garbler: bool,
    addr: String,
    model: String,
    input: usize,
    chunk_gates: usize,
    threads: usize,
    check: bool,
    sim: Option<NetModel>,
    chaos: Option<ChaosSpec>,
    trace_out: Option<String>,
}

impl Cli {
    fn role(&self) -> &'static str {
        if self.garbler {
            "garbler"
        } else {
            "evaluator"
        }
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let garbler = match args.first().map(String::as_str) {
        Some("garbler") => true,
        Some("evaluator") => false,
        _ => return Err(format!("expected a role subcommand\n{USAGE}")),
    };
    let mut cli = Cli {
        garbler,
        addr: String::new(),
        model: "tiny_mlp".to_string(),
        input: 0,
        chunk_gates: 0,
        threads: demo::inference_config().threads,
        check: false,
        sim: None,
        chaos: None,
        trace_out: None,
    };
    let addr_flag = if garbler { "--connect" } else { "--listen" };
    let mut args = Args::new(&args[1..], USAGE);
    while let Some(flag) = args.next_flag()? {
        match flag {
            f if f == addr_flag => cli.addr = args.value(f)?,
            "--model" => cli.model = args.value(flag)?,
            "--input" if garbler => cli.input = args.parsed(flag, "a sample index")?,
            // The garbler picks the chunking; the handshake hands it over.
            "--chunk-gates" if garbler => cli.chunk_gates = args.chunk_gates()?,
            "--threads" => cli.threads = args.threads()?,
            "--check" if garbler => cli.check = true,
            "--sim" => cli.sim = Some(args.sim()?),
            "--chaos" => cli.chaos = Some(args.chaos()?),
            "--trace-out" => cli.trace_out = Some(args.value(flag)?),
            other => return Err(args.unknown(other)),
        }
    }
    if cli.addr.is_empty() {
        let role = cli.role();
        return Err(format!("{role} requires {addr_flag} HOST:PORT\n{USAGE}"));
    }
    Ok(cli)
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse(args)?;
    // Reject a bad sample index before paying for training/compilation.
    let samples = demo::dataset_size(&cli.model).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cli.garbler && cli.input >= samples {
        return Err(format!(
            "--input {} out of range (the {} dataset has {samples} samples)",
            cli.input, cli.model
        ));
    }
    // The deterministic model zoo (training, compilation, fingerprint) is
    // shared with the serving stack via `deepsecure::serve::demo`.
    let model = demo::load(&cli.model).map_err(|e| format!("{e}\n{USAGE}"))?;
    let (chan, chunk_gates) = if cli.garbler {
        (connect(&cli, &model)?, cli.chunk_gates)
    } else {
        accept(&cli, &model)?
    };
    let cfg = InferenceConfig {
        chunk_gates,
        threads: cli.threads,
        ..demo::inference_config()
    };
    let mut chan = wrap_chaos(chan, cli.chaos, cli.role());
    match cli.sim {
        Some(net) => {
            let mut sim = SimChannel::new(chan, net);
            drive(&cli, &model, &cfg, &mut sim)?;
            eprintln!(
                "{}: simulated link paid latency on {} turnaround(s)",
                cli.role(),
                sim.turnarounds()
            );
            Ok(())
        }
        None => drive(&cli, &model, &cfg, &mut chan),
    }
}

/// One party's protocol run and report over its post-handshake channel —
/// generic over the transport, so `--sim` wraps it in exactly one place.
fn drive<C: Channel>(
    cli: &Cli,
    model: &DemoModel,
    cfg: &InferenceConfig,
    chan: &mut C,
) -> Result<(), String> {
    if cli.garbler {
        garble(cli, model, cfg, chan)
    } else {
        evaluate(cli, model, cfg, chan)
    }
}

/// The garbler's half of the `DSEC/2` handshake: connect, present model,
/// fingerprint and the chosen chunking, require the evaluator's `OK`.
fn connect(cli: &Cli, model: &DemoModel) -> Result<TcpChannel, String> {
    let fingerprint = model.fingerprint;
    let chan = TcpChannel::connect_retry(cli.addr.as_str(), Duration::from_secs(15))
        .map_err(|e| format!("connecting to evaluator at {}: {e}", cli.addr))?;
    eprintln!("garbler: connected to evaluator at {}", chan.peer_addr());
    let mut framed = FramedChannel::new(chan);
    framed
        .send_frame(
            format!(
                "{HELLO_PREFIX} {} {fingerprint:016x} {}",
                cli.model, cli.chunk_gates
            )
            .as_bytes(),
        )
        .map_err(|e| format!("handshake send: {e}"))?;
    let reply = framed
        .recv_frame()
        .map_err(|e| format!("handshake reply: {e}"))?;
    let reply = String::from_utf8_lossy(&reply).into_owned();
    if reply != format!("OK {fingerprint:016x}") {
        return Err(format!("evaluator rejected the handshake: {reply}"));
    }
    Ok(framed.into_inner())
}

fn garble<C: Channel>(
    cli: &Cli,
    model: &DemoModel,
    cfg: &InferenceConfig,
    chan: &mut C,
) -> Result<(), String> {
    let compiled = Arc::clone(&model.compiled);
    let sample = &model.dataset.inputs[cli.input]; // bounds-checked in `run`
    let input_bits = compiled.input_bits(sample);
    let client = ClientSession::new(Arc::clone(&compiled), cfg);
    let (epoch, trace_offset_us) = protocol_epoch(cli.trace_out.is_some());
    let out = client
        .run(chan, std::slice::from_ref(&input_bits), epoch)
        .map_err(|e| format!("protocol: {e}"))?;
    let total_s = epoch.elapsed().as_secs_f64();
    if let Some(path) = &cli.trace_out {
        write_garbler_trace(path, trace_offset_us, &out)?;
        eprintln!("garbler: wrote trace to {path}");
    }

    println!(
        "garbler: model {}, input #{} -> label {}",
        cli.model, cli.input, out.label
    );
    println!(
        "  wall clock   {total_s:.3} s (ot setup {:.3} s)",
        out.ot_setup.duration_s()
    );
    println!(
        "  traffic      sent {} B, received {} B",
        out.sent, out.received
    );
    println!(
        "  peak tables  {} B resident (of {} B total streamed)",
        out.peak_material_bytes, out.wire.tables
    );
    print_breakdown(&out.wire);

    if cli.check {
        let weight_bits = compiled.weight_bits(&model.net);
        let report = run_compiled(
            Arc::clone(&compiled),
            vec![input_bits.clone()],
            vec![weight_bits.clone()],
            cfg,
        )
        .map_err(|e| format!("in-memory replay: {e}"))?;
        let oracle = plain_label(&compiled, &model.net, sample);
        let mut fail = Vec::new();
        if out.label != report.label {
            fail.push(format!(
                "label: tcp {} != in-memory {}",
                out.label, report.label
            ));
        }
        if report.label != oracle {
            fail.push(format!(
                "label: in-memory {} != plaintext oracle {oracle}",
                report.label
            ));
        }
        if out.sent != report.client_sent {
            fail.push(format!(
                "client bytes: tcp {} != in-memory {}",
                out.sent, report.client_sent
            ));
        }
        if out.received != report.server_sent {
            fail.push(format!(
                "server bytes: tcp {} != in-memory {}",
                out.received, report.server_sent
            ));
        }
        if out.wire != report.wire {
            fail.push(format!(
                "wire breakdown: tcp {:?} != in-memory {:?}",
                out.wire, report.wire
            ));
        }
        // A streamed run must also be provably identical to the buffered
        // path: replay with chunking off and compare label + every phase.
        if cli.chunk_gates > 0 {
            let buffered_cfg = InferenceConfig {
                chunk_gates: 0,
                ..cfg.clone()
            };
            let buffered = run_compiled(
                Arc::clone(&compiled),
                vec![input_bits],
                vec![weight_bits],
                &buffered_cfg,
            )
            .map_err(|e| format!("buffered in-memory replay: {e}"))?;
            if out.label != buffered.label {
                fail.push(format!(
                    "label: streamed {} != buffered {}",
                    out.label, buffered.label
                ));
            }
            if out.wire != buffered.wire {
                fail.push(format!(
                    "wire breakdown: streamed {:?} != buffered {:?}",
                    out.wire, buffered.wire
                ));
            }
        }
        if fail.is_empty() {
            println!(
                "  check        OK: label {} and {} wire bytes identical to the in-memory run{}",
                out.label,
                out.sent + out.received,
                if cli.chunk_gates > 0 {
                    " (and to the buffered path, phase for phase)"
                } else {
                    ""
                }
            );
        } else {
            return Err(format!(
                "two-process run diverged:\n  {}",
                fail.join("\n  ")
            ));
        }
    }
    Ok(())
}

/// The evaluator's half of the handshake: accept one garbler, require
/// this process's model and fingerprint, adopt the garbler's chunking.
fn accept(cli: &Cli, model: &DemoModel) -> Result<(TcpChannel, usize), String> {
    let fingerprint = model.fingerprint;
    let listener = std::net::TcpListener::bind(cli.addr.as_str())
        .map_err(|e| format!("binding {}: {e}", cli.addr))?;
    eprintln!(
        "evaluator: model {}, listening on {}",
        cli.model,
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let chan = TcpChannel::accept(&listener).map_err(|e| format!("accepting garbler: {e}"))?;
    eprintln!("evaluator: garbler connected from {}", chan.peer_addr());
    let mut framed = FramedChannel::new(chan);
    let hello = framed.recv_frame().map_err(|e| format!("handshake: {e}"))?;
    let hello = String::from_utf8_lossy(&hello).into_owned();
    // `PREFIX model fingerprint chunk-gates`: the shape must match this
    // process exactly; the chunking is the garbler's to choose and is
    // adopted from the hello (derived chunk boundaries need both sides
    // to agree).
    let want = format!("{HELLO_PREFIX} {} {fingerprint:016x}", cli.model);
    let chunk_gates = match hello.rsplit_once(' ') {
        Some((head, chunk)) if head == want => chunk.parse::<usize>().ok(),
        _ => None,
    };
    let Some(chunk_gates) = chunk_gates else {
        let reply = proto::err(&format!("expected {want:?} CHUNK, got {hello:?}"));
        let _ = framed.send_frame(reply.as_bytes());
        let _ = framed.flush();
        return Err(format!(
            "garbler handshake mismatch: expected {want:?} CHUNK, got {hello:?} \
             (different --model or code version?)"
        ));
    };
    framed
        .send_frame(format!("OK {fingerprint:016x}").as_bytes())
        .map_err(|e| format!("handshake ack: {e}"))?;
    if chunk_gates > 0 {
        eprintln!("evaluator: streaming tables in chunks of {chunk_gates} non-free gates");
    }
    Ok((framed.into_inner(), chunk_gates))
}

fn evaluate<C: Channel>(
    cli: &Cli,
    model: &DemoModel,
    cfg: &InferenceConfig,
    chan: &mut C,
) -> Result<(), String> {
    let weight_bits = model.compiled.weight_bits(&model.net);
    let server = ServerSession::new(Arc::clone(&model.compiled), cfg);
    let (epoch, trace_offset_us) = protocol_epoch(cli.trace_out.is_some());
    let out = server
        .run(chan, std::slice::from_ref(&weight_bits), epoch)
        .map_err(|e| format!("protocol: {e}"))?;
    if let Some(path) = &cli.trace_out {
        write_evaluator_trace(path, trace_offset_us, &out)?;
        eprintln!("evaluator: wrote trace to {path}");
    }
    println!(
        "evaluator: served 1 inference in {:.3} s (evaluation {:.3} s)",
        epoch.elapsed().as_secs_f64(),
        out.evals.iter().map(|s| s.duration_s()).sum::<f64>()
    );
    println!(
        "  traffic      sent {} B, received {} B",
        out.sent, out.received
    );
    println!(
        "  peak tables  {} B resident (of {} B total received)",
        out.peak_material_bytes, out.wire.tables
    );
    print_breakdown(&out.wire);
    Ok(())
}

/// Wraps the post-handshake channel in the fault injector (a no-op
/// passthrough when `--chaos` was not given, so both paths share one
/// channel type).
fn wrap_chaos(chan: TcpChannel, chaos: Option<ChaosSpec>, who: &str) -> FaultChannel<TcpChannel> {
    match chaos {
        Some(spec) => {
            eprintln!("{who}: chaos on: {spec:?}");
            FaultChannel::new(chan, spec)
        }
        None => FaultChannel::transparent(chan),
    }
}

/// The protocol epoch: telemetry-aligned when a trace is requested (so
/// `report.*` spans land on the span timeline), a plain `Instant`
/// otherwise — spans then cost one relaxed load each.
fn protocol_epoch(tracing: bool) -> (Instant, u64) {
    if tracing {
        trace::start()
    } else {
        (Instant::now(), 0)
    }
}

/// Writes the garbler's trace: every drained protocol span plus the
/// outcome's phase windows as `report.*` spans (`trace_view --check`
/// reconciles the two).
fn write_garbler_trace(path: &str, offset_us: u64, out: &ClientOutcome) -> Result<(), String> {
    let mut reports: Vec<trace::ReportSpan> =
        vec![("report.ot_setup", out.ot_setup.start_s, out.ot_setup.end_s)];
    for (garble, online) in &out.cycles {
        reports.push(("report.garble", garble.start_s, garble.end_s));
        reports.push(("report.online", online.start_s, online.end_s));
    }
    trace::write_trace(path, "garbler", offset_us, &reports)
}

/// Writes the evaluator's trace (`report.eval` windows ride along).
fn write_evaluator_trace(path: &str, offset_us: u64, out: &ServerOutcome) -> Result<(), String> {
    let reports: Vec<trace::ReportSpan> = out
        .evals
        .iter()
        .map(|s| ("report.eval", s.start_s, s.end_s))
        .collect();
    trace::write_trace(path, "evaluator", offset_us, &reports)
}

fn print_breakdown(wire: &WireBreakdown) {
    println!(
        "  wire bytes   base-ot {} | ot-ext {} | tables {} | input-labels {} | output-bits {} \
         | total {}",
        wire.base_ot,
        wire.ot_ext,
        wire.tables,
        wire.input_labels,
        wire.output_bits,
        wire.total()
    );
}
