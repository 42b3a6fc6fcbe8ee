//! The concurrent secure-inference server.
//!
//! Hosts the garbling party for any number of simultaneous evaluator
//! clients. Heavy input-independent work — garbled tables, base-OT
//! keypairs — runs in a background precompute pool *before*
//! clients arrive, so each request pays only the online phase
//! (OT extension + table streaming + evaluation).
//!
//! ```sh
//! deepsecure_serve --listen 127.0.0.1:7710 --models tiny_mlp --pool 2
//! loadgen --connect 127.0.0.1:7710 --model tiny_mlp --clients 4 --requests 2 --check
//! ```

use std::process::ExitCode;

use deepsecure::cli::Args;
use deepsecure::serve::metrics::MetricsServer;
use deepsecure::serve::server::{ServeConfig, Server};
use deepsecure::trace;

const USAGE: &str = "\
usage:
  deepsecure_serve --listen HOST:PORT [--models NAME[,NAME…]] [--pool N]
                   [--chunk-gates N] [--sessions N] [--seed S] [--threads N]
                   [--queue-cap N] [--model-session-cap N]
                   [--live-session-cap N] [--retry-after-ms MS]
                   [--metrics-addr HOST:PORT] [--trace-out FILE]

  --listen       address to serve on (port 0 picks an ephemeral port)
  --models       comma-separated zoo models to host (default tiny_mlp;
                 mnist_mlp is the paper-scale one)
  --pool         precomputed instances kept warm per queue (default 2)
  --chunk-gates  stream garbled tables in chunks of N non-free gates
                 (0 = buffered whole-cycle transfer, the default). The
                 server pins the value in its OK frame; evaluators adopt
                 it. Models above the pool's 64 MiB material cap garble
                 live while streaming — O(chunk) resident per session
                 instead of O(circuit) per pooled instance.
  --sessions     exit gracefully after N sessions have finished
                 (default: serve forever)
  --seed         pool randomness seed (default 7)
  --threads      pool fill workers and base-OT fan-out width
                 (0 = one per core; default from DEEPSECURE_THREADS,
                 else 1). A pure perf knob: wire bytes are identical at
                 any width.
  --queue-cap    most open connections, handshakes included (default
                 64): the accept loop sheds the next arrival at once
                 with `DSRV/4 BUSY` instead of adding one more handler
                 thread
  --model-session-cap
                 at most N live sessions per hosted model; excess
                 handshakes are shed with BUSY (default: unlimited)
  --live-session-cap
                 at most N live sessions across the models that garble
                 live (above the pool's material cap), whose per-session
                 CPU cost is the heavy one (default: unlimited)
  --retry-after-ms
                 backoff hint carried in every BUSY frame (default 100)
  --metrics-addr serve Prometheus text metrics over HTTP at this address
                 (GET /metrics; port 0 picks an ephemeral port): request
                 and session counters, online/setup latency histograms,
                 precompute-pool depth and hit/miss counters, the open
                 connection count, and live per-phase wire bytes
  --trace-out    record wall-time spans of every session's protocol
                 phases and write a Chrome trace-event JSON file at
                 shutdown (view at https://ui.perfetto.dev)

Each model is trained and compiled deterministically at startup; clients
must present the same circuit fingerprint in their handshake.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deepsecure_serve: error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct ServeCli {
    config: ServeConfig,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<ServeCli, String> {
    let mut cli = ServeCli {
        config: ServeConfig {
            addr: String::new(),
            ..ServeConfig::default()
        },
        metrics_addr: None,
        trace_out: None,
    };
    let config = &mut cli.config;
    let mut args = Args::new(args, USAGE);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--listen" => config.addr = args.value(flag)?,
            "--models" => config.models = args.list(flag, "model names")?,
            "--pool" => config.pool_target = args.parsed(flag, "a count")?,
            "--chunk-gates" => config.chunk_gates = args.chunk_gates()?,
            "--sessions" => config.max_sessions = Some(args.parsed(flag, "a count")?),
            "--seed" => config.seed = args.seed()?,
            "--threads" => config.threads = args.threads()?,
            "--queue-cap" => config.queue_cap = args.positive(flag, "count")?,
            "--model-session-cap" => {
                config.model_session_cap = Some(args.parsed(flag, "a count")?);
            }
            "--live-session-cap" => config.live_session_cap = Some(args.parsed(flag, "a count")?),
            "--retry-after-ms" => config.retry_after_ms = args.parsed(flag, "milliseconds")?,
            "--metrics-addr" => cli.metrics_addr = Some(args.value(flag)?),
            "--trace-out" => cli.trace_out = Some(args.value(flag)?),
            other => return Err(args.unknown(other)),
        }
    }
    if config.addr.is_empty() {
        return Err(format!("--listen HOST:PORT is required\n{USAGE}"));
    }
    Ok(cli)
}

fn run(args: &[String]) -> Result<(), String> {
    let ServeCli {
        config,
        metrics_addr,
        trace_out,
    } = parse(args)?;
    if trace_out.is_some() {
        trace::start();
    }
    eprintln!(
        "serve: building {} (training + compiling at startup)…",
        config.models.join(", ")
    );
    let server = Server::bind(&config).map_err(|e| e.to_string())?;
    eprintln!(
        "serve: listening on {} (pool target {} per queue{}{}{})",
        server.local_addr(),
        config.pool_target,
        match config.threads {
            0 => ", one worker thread per core".to_string(),
            1 => String::new(),
            n => format!(", {n} worker threads"),
        },
        if config.chunk_gates > 0 {
            format!(", streaming chunks of {} gates", config.chunk_gates)
        } else {
            String::new()
        },
        config
            .max_sessions
            .map(|n| format!(", exits after {n} sessions"))
            .unwrap_or_default()
    );
    let metrics = match &metrics_addr {
        Some(addr) => {
            let m = MetricsServer::start(addr, server.handle())
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            eprintln!("serve: metrics at http://{}/metrics", m.local_addr());
            Some(m)
        }
        None => None,
    };
    let stats = server.run();
    if let Some(m) = &metrics {
        m.stop();
    }
    if let Some(path) = &trace_out {
        trace::write_trace(path, "serve")?;
        eprintln!("serve: wrote trace to {path}");
    }
    println!("serve: final stats\n{}", stats.summary());
    Ok(())
}
