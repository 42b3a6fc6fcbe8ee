//! Load generator for `deepsecure_serve`: K concurrent evaluator clients,
//! R requests each, reporting requests/s and the online-vs-total latency
//! split that demonstrates the server's precompute pool.
//!
//! With `--check`, every decoded label is compared against a full
//! in-memory replay of the protocol (both parties as threads over
//! `mem_pair`) **and** the plaintext oracle, and every request's online
//! wire breakdown plus the session's base-OT bytes must match the replay
//! bit for bit, across concurrent sessions.
//!
//! Two load shapes:
//!
//! * **Closed loop** (default): each client issues its next request only
//!   after the previous one returns — throughput self-limits to the
//!   server's speed, so it measures capacity, not overload.
//! * **Open loop** (`--open-loop --rate R`): session arrivals follow a
//!   seeded Poisson process that does *not* slow down when the server
//!   does — the only honest way to drive a server past saturation. Each
//!   arrival is one session (handshake + setup + one query); a `BUSY`
//!   shed is recorded as shed, never retried into queueing delay, and
//!   the run asserts `arrivals == completed + shed + failed` — no silent
//!   drops.
//!
//! `--chaos SEED:PROFILE` wraps every client socket in the deterministic
//! fault injector; clients survive via capped-jittered retry and base-OT
//! session resumption.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepsecure::cli::Args;
use deepsecure::core::compile::plain_label;
use deepsecure::core::protocol::{run_compiled, InferenceReport};
use deepsecure::ot::{splitmix64, ChaosSpec};
use deepsecure::serve::client::{ClientModel, ClientOptions, QueryOutcome, ServeClient};
use deepsecure::serve::demo;
use deepsecure::serve::ServeError;
use deepsecure::trace;
use telemetry::HistSnapshot;

const USAGE: &str = "\
usage:
  loadgen --connect HOST:PORT [--model NAME] [--clients K] [--requests R]
          [--check] [--seed S] [--threads N] [--chaos SEED:PROFILE]
          [--deadline-s SECS] [--io-timeout-ms MS] [--trace-out FILE]
  loadgen --connect HOST:PORT --open-loop --rate R [--duration-s SECS]
          [--model NAME] [--check] [--json] [--seed S] [--threads N]
          [--chaos SEED:PROFILE] [--deadline-s SECS] [--io-timeout-ms MS]
          [--trace-out FILE]

  --connect     the deepsecure_serve address
  --model       zoo model to query (default tiny_mlp)
  --clients     concurrent client connections (default 4)
  --requests    requests per client on one connection (default 2)
  --check       replay each queried sample in-memory and fail on any label
                or wire-byte divergence
  --seed        base OT-randomness seed, varied per client (default 1000)
  --threads     base-OT worker threads per client set-up (0 = one
                per core; default from DEEPSECURE_THREADS, else 1)
  --chaos       inject deterministic faults (delays, short I/O, drops)
                into every client socket; PROFILE is one of off, delays,
                short, drops, mixed. Clients retry and resume.
  --deadline-s  per-session wall-clock budget; retry loops stop at it
  --io-timeout-ms
                per-read/per-write socket timeout (turns a wedged peer
                into a retryable failure)
  --open-loop   Poisson session arrivals instead of closed-loop clients;
                requires --rate
  --rate        mean arrivals per second for --open-loop
  --duration-s  how long to generate arrivals for (default 10)
  --json        also print one machine-readable summary line (open loop)
  --trace-out   record wall-time spans of every client's protocol phases
                and write a Chrome trace-event JSON file (Perfetto shows
                the K clients' sessions overlapping)";

struct Cli {
    addr: String,
    model: String,
    clients: usize,
    requests: usize,
    check: bool,
    seed: u64,
    threads: usize,
    chaos: Option<ChaosSpec>,
    deadline: Option<Duration>,
    io_timeout: Option<Duration>,
    open_loop: bool,
    rate: f64,
    duration: Duration,
    json: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: String::new(),
        model: "tiny_mlp".to_string(),
        clients: 4,
        requests: 2,
        check: false,
        seed: 1000,
        threads: deepsecure::serve::demo::inference_config().threads,
        chaos: None,
        deadline: None,
        io_timeout: None,
        open_loop: false,
        rate: 0.0,
        duration: Duration::from_secs(10),
        json: false,
        trace_out: None,
    };
    // Rates and second counts: finite and above zero.
    let finite = |x: &f64| *x > 0.0 && x.is_finite();
    let mut args = Args::new(args, USAGE);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--connect" => cli.addr = args.value(flag)?,
            "--model" => cli.model = args.value(flag)?,
            "--clients" => cli.clients = args.positive(flag, "count")?,
            "--requests" => cli.requests = args.positive(flag, "count")?,
            "--check" => cli.check = true,
            "--json" => cli.json = true,
            "--open-loop" => cli.open_loop = true,
            "--rate" => cli.rate = args.parsed_if(flag, "arrivals/s > 0", finite)?,
            "--duration-s" => {
                cli.duration =
                    Duration::from_secs_f64(args.parsed_if(flag, "seconds > 0", finite)?);
            }
            "--chaos" => cli.chaos = Some(args.chaos()?),
            "--deadline-s" => {
                let secs = args.parsed_if(flag, "seconds > 0", finite)?;
                cli.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--io-timeout-ms" => {
                let ms = args.positive(flag, "millisecond count")?;
                cli.io_timeout = Some(Duration::from_millis(ms));
            }
            "--trace-out" => cli.trace_out = Some(args.value(flag)?),
            "--seed" => cli.seed = args.seed()?,
            "--threads" => cli.threads = args.threads()?,
            other => return Err(args.unknown(other)),
        }
    }
    if cli.addr.is_empty() {
        return Err(format!("--connect HOST:PORT is required\n{USAGE}"));
    }
    if cli.open_loop && cli.rate <= 0.0 {
        return Err(format!("--open-loop requires --rate R\n{USAGE}"));
    }
    Ok(cli)
}

/// Client options for worker `tid`: the chaos seed varies per worker so
/// two clients never replay the same fault schedule, while the whole run
/// stays reproducible from the CLI seeds.
fn client_options(cli: &Cli, tid: u64) -> ClientOptions {
    ClientOptions {
        seed: cli.seed + tid,
        connect_timeout: Duration::from_secs(15),
        threads: cli.threads,
        chaos: cli.chaos.map(|spec| ChaosSpec {
            seed: spec.seed.wrapping_add(tid),
            ..spec
        }),
        deadline: cli.deadline,
        io_timeout: cli.io_timeout,
        ..ClientOptions::default()
    }
}

/// One client thread's record.
struct ClientRun {
    /// Connect + handshake + base-OT setup, seconds.
    offline_s: f64,
    /// Base-OT setup traffic, both directions (current session).
    setup_bytes: u64,
    /// Whole-session wall clock (offline + all requests), seconds.
    total_s: f64,
    /// Per-request `(sample, outcome)`.
    queries: Vec<(usize, QueryOutcome)>,
    /// Resilience counters: query re-issues, resumed reconnects, fresh
    /// reconnects, busy backoffs.
    resilience: [u64; 4],
}

/// The step a session stopped at.
enum Step {
    Connect,
    Query(usize),
    Finish,
}

impl Step {
    /// The step's name in an error line; `indexed` says which query.
    fn name(&self, indexed: bool) -> String {
        match self {
            Step::Connect => "connect".to_string(),
            Step::Query(q) if indexed => format!("query {q}"),
            Step::Query(_) => "query".to_string(),
            Step::Finish => "finish".to_string(),
        }
    }
}

/// One session, the worker of both load shapes: connect (handshake +
/// base-OT setup), one query per entry of `samples`, then finish.
fn run_session(
    addr: &str,
    model: &ClientModel,
    opts: ClientOptions,
    samples: &[usize],
) -> Result<ClientRun, (Step, ServeError)> {
    let t0 = Instant::now();
    let mut client =
        ServeClient::connect_opts(addr, model, opts).map_err(|e| (Step::Connect, e))?;
    let mut queries = Vec::with_capacity(samples.len());
    for (q, &sample) in samples.iter().enumerate() {
        let out = client.query(sample).map_err(|e| (Step::Query(q), e))?;
        queries.push((sample, out));
    }
    let run = ClientRun {
        offline_s: client.offline_s,
        setup_bytes: client.setup_bytes(),
        total_s: t0.elapsed().as_secs_f64(),
        queries,
        resilience: [
            client.retries,
            client.resumes,
            client.fresh_reconnects,
            client.busy_backoffs,
        ],
    };
    client.finish().map_err(|e| (Step::Finish, e))?;
    Ok(run)
}

/// What both load shapes report over their completed sessions.
struct Tally {
    /// Every query's online latency, microseconds. Latencies fold into
    /// the same log-scale histogram the server scrapes: percentiles are
    /// nearest-rank on bucket bounds (≤12.5% wide), not an exact order
    /// statistic of a sorted Vec.
    online_us: HistSnapshot,
    /// Mean per-session offline cost, seconds (0 with no sessions).
    offline_mean: f64,
    /// Each session's base-OT bytes, as `"4128 B"` when every session
    /// moved the same count and as a `min–max` range otherwise.
    base_ot: String,
    /// Summed resilience counters, in `ClientRun::resilience` order.
    resilience: [u64; 4],
}

fn tally(runs: &[ClientRun]) -> Tally {
    let mut online_us = HistSnapshot::new();
    let mut resilience = [0; 4];
    for r in runs {
        for (_, o) in &r.queries {
            online_us.record(to_us(o.online_s));
        }
        for (a, b) in resilience.iter_mut().zip(r.resilience) {
            *a += b;
        }
    }
    let offline_mean = if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|r| r.offline_s).sum::<f64>() / runs.len() as f64
    };
    let base_ot = match (
        runs.iter().map(|r| r.setup_bytes).min(),
        runs.iter().map(|r| r.setup_bytes).max(),
    ) {
        (Some(lo), Some(hi)) if lo == hi => format!("{lo} B"),
        (Some(lo), Some(hi)) => format!("{lo}–{hi} B"),
        _ => "none".to_string(),
    };
    Tally {
        online_us,
        offline_mean,
        base_ot,
        resilience,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse(args)?;
    eprintln!(
        "loadgen: building model {} (training + compiling)…",
        cli.model
    );
    let model = Arc::new(ClientModel::load(&cli.model)?);
    if cli.trace_out.is_some() {
        trace::start();
    }
    let shape = if cli.open_loop {
        open_loop(&cli, &model)
    } else {
        closed_loop(&cli, &model).map(|runs| (runs, Vec::new()))
    };
    // Written before the check: its in-memory replays are not the load.
    if let Some(path) = &cli.trace_out {
        trace::write_trace(path, "loadgen")?;
        eprintln!("loadgen: wrote trace to {path}");
    }
    let (runs, failures) = shape?;
    if cli.check {
        check(&model, &runs)?;
    }
    match failures.first() {
        Some(first) => Err(format!(
            "{} arrivals failed (first: {first})",
            failures.len()
        )),
        None => Ok(()),
    }
}

/// Closed-loop mode: every client's sessions, once all have finished.
fn closed_loop(cli: &Cli, model: &Arc<ClientModel>) -> Result<Vec<ClientRun>, String> {
    let samples = model.demo.dataset.len();
    println!(
        "loadgen: model {}, {} clients x {} requests ({} dataset samples)",
        cli.model, cli.clients, cli.requests, samples
    );

    let wall = Instant::now();
    let workers: Vec<_> = (0..cli.clients)
        .map(|tid| {
            let model = Arc::clone(model);
            let addr = cli.addr.clone();
            let requests = cli.requests;
            let opts = client_options(cli, tid as u64);
            std::thread::spawn(move || -> Result<ClientRun, String> {
                let samples: Vec<usize> = (0..requests)
                    .map(|q| (tid * requests + q) % model.demo.dataset.len())
                    .collect();
                run_session(&addr, &model, opts, &samples)
                    .map_err(|(step, e)| format!("client {tid}: {}: {e}", step.name(true)))
            })
        })
        .collect();
    let mut runs = Vec::with_capacity(cli.clients);
    for worker in workers {
        runs.push(worker.join().map_err(|_| "client thread panicked")??);
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let n_requests = (cli.clients * cli.requests) as f64;
    let Tally {
        online_us,
        offline_mean,
        base_ot,
        resilience: [retries, resumes, fresh, busy],
    } = tally(&runs);
    let online_mean = online_us.mean() / 1e6;
    let online_max = online_us.quantile(1.0) as f64 / 1e6;
    let total_mean = runs.iter().map(|r| r.total_s).sum::<f64>() / cli.clients as f64;
    let peak_resident = runs
        .iter()
        .flat_map(|r| r.queries.iter().map(|(_, o)| o.peak_material_bytes))
        .max()
        .unwrap_or(0);
    let tables_per_request = runs
        .first()
        .and_then(|r| r.queries.first())
        .map_or(0, |(_, o)| o.wire.tables);
    println!(
        "loadgen: {} requests in {wall_s:.2} s -> {:.2} req/s",
        cli.clients * cli.requests,
        n_requests / wall_s
    );
    println!(
        "  peak resident tables per request                     {peak_resident} B \
         (of {tables_per_request} B streamed)"
    );
    println!(
        "  per-session offline (connect + handshake + base OT)  mean {offline_mean:.3} s  \
         base OT {base_ot} per session"
    );
    println!(
        "  per-request online (OT ext + tables + eval)          mean {online_mean:.3} s  \
         p50 {:.3} s  p95 {:.3} s  p99 {:.3} s  max {online_max:.3} s",
        online_us.quantile(0.50) as f64 / 1e6,
        online_us.quantile(0.95) as f64 / 1e6,
        online_us.quantile(0.99) as f64 / 1e6,
    );
    println!(
        "  session end-to-end                                   mean {total_mean:.3} s ({:.0}% spent online)",
        100.0 * (cli.requests as f64 * online_mean) / total_mean
    );
    if cli.chaos.is_some() || retries + resumes + fresh + busy > 0 {
        println!(
            "  resilience: {retries} query retries, {resumes} resumed reconnects, \
             {fresh} fresh reconnects, {busy} busy backoffs"
        );
    }
    print_histogram(&online_us);
    Ok(runs)
}

/// How one open-loop arrival ended.
enum Arrival {
    /// Accepted and served; carries the session record.
    Completed(Box<ClientRun>),
    /// Shed by the server with `BUSY`.
    Shed,
    /// Anything else (handshake refusal, exhausted retries, deadline).
    Failed(String),
}

/// Open-loop mode: sessions arrive by a seeded Poisson process for
/// `--duration-s`, one query each, regardless of how fast the server
/// drains them. Every arrival is accounted: the completed sessions and
/// why each failed one failed come back, and the rest were shed.
#[allow(clippy::too_many_lines)]
fn open_loop(cli: &Cli, model: &Arc<ClientModel>) -> Result<(Vec<ClientRun>, Vec<String>), String> {
    let samples = model.demo.dataset.len();
    println!(
        "loadgen: open loop, model {}, {:.1} arrivals/s for {:.1} s ({} dataset samples)",
        cli.model,
        cli.rate,
        cli.duration.as_secs_f64(),
        samples
    );
    let mut rng = cli.seed ^ 0x0abc_1007_ab21_7a15;
    let wall = Instant::now();
    let mut workers = Vec::new();
    let mut next_arrival = Duration::ZERO;
    let mut arrivals = 0u64;
    while next_arrival < cli.duration {
        if let Some(sleep) = next_arrival.checked_sub(wall.elapsed()) {
            std::thread::sleep(sleep);
        }
        let tid = arrivals;
        arrivals += 1;
        let model = Arc::clone(model);
        let addr = cli.addr.clone();
        let opts = ClientOptions {
            // A shed must surface as shed, not melt into retry delay.
            busy_attempt_cap: 0,
            ..client_options(cli, tid)
        };
        workers.push(std::thread::spawn(move || -> Arrival {
            let sample = usize::try_from(tid).unwrap_or(0) % model.demo.dataset.len();
            match run_session(&addr, &model, opts, &[sample]) {
                Ok(run) => Arrival::Completed(Box::new(run)),
                Err((_, ServeError::Busy { .. })) => Arrival::Shed,
                Err((step, e)) => {
                    Arrival::Failed(format!("arrival {tid}: {}: {e}", step.name(false)))
                }
            }
        }));
        next_arrival += exp_interval(&mut rng, cli.rate);
    }
    let mut completed = Vec::new();
    let mut shed = 0u64;
    let mut failures = Vec::new();
    for w in workers {
        match w.join() {
            Ok(Arrival::Completed(run)) => completed.push(*run),
            Ok(Arrival::Shed) => shed += 1,
            Ok(Arrival::Failed(why)) => failures.push(why),
            Err(_) => failures.push("arrival thread panicked".to_string()),
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let failed = failures.len() as u64;
    let done = completed.len() as u64;
    // The no-silent-drops invariant: every arrival is exactly one of
    // completed / shed / failed.
    if done + shed + failed != arrivals {
        return Err(format!(
            "accounting violated: {arrivals} arrivals != {done} completed + {shed} shed + \
             {failed} failed"
        ));
    }
    let Tally {
        online_us,
        offline_mean,
        base_ot,
        resilience: [retries, resumes, fresh, busy],
    } = tally(&completed);
    println!(
        "loadgen: {arrivals} arrivals in {wall_s:.2} s -> {done} completed ({:.2} req/s), \
         {shed} shed, {failed} failed",
        done as f64 / wall_s
    );
    println!(
        "  per-session offline (connect + handshake + base OT)  mean {offline_mean:.3} s  \
         base OT {base_ot} per session"
    );
    println!(
        "  accepted online latency                              p50 {:.3} s  p95 {:.3} s  \
         p99 {:.3} s",
        online_us.quantile(0.50) as f64 / 1e6,
        online_us.quantile(0.95) as f64 / 1e6,
        online_us.quantile(0.99) as f64 / 1e6,
    );
    println!(
        "  resilience: {retries} query retries, {resumes} resumed reconnects, \
         {fresh} fresh reconnects, {busy} busy backoffs"
    );
    for why in failures.iter().take(5) {
        eprintln!("  failure: {why}");
    }
    if cli.json {
        println!(
            "{{\"schema\":\"deepsecure-loadgen-openloop/1\",\"model\":\"{}\",\"rate\":{},\
             \"duration_s\":{},\"arrivals\":{arrivals},\"completed\":{done},\"shed\":{shed},\
             \"failed\":{failed},\"req_per_s\":{:.3},\"online_p50_s\":{:.6},\
             \"online_p95_s\":{:.6},\"online_p99_s\":{:.6},\"offline_mean_s\":{:.6},\
             \"retries\":{retries},\"resumes\":{resumes},\"fresh_reconnects\":{fresh},\
             \"busy_backoffs\":{busy}}}",
            cli.model,
            cli.rate,
            cli.duration.as_secs_f64(),
            done as f64 / wall_s,
            online_us.quantile(0.50) as f64 / 1e6,
            online_us.quantile(0.95) as f64 / 1e6,
            online_us.quantile(0.99) as f64 / 1e6,
            offline_mean,
        );
    }
    Ok((completed, failures))
}

/// A seeded exponential inter-arrival draw: `-ln(U)/rate`, the gap
/// between events of a Poisson process at `rate` per second.
#[allow(clippy::cast_precision_loss)]
fn exp_interval(state: &mut u64, rate: f64) -> Duration {
    // 53 uniform bits in (0, 1]: never 0, so ln() is finite.
    let u = ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64((-u.ln() / rate).min(60.0))
}

/// Seconds to histogram microseconds.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn to_us(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6) as u64
}

/// The online-latency distribution, one line per occupied bucket.
#[allow(clippy::cast_precision_loss)]
fn print_histogram(h: &HistSnapshot) {
    const BAR: usize = 40;
    let peak = h.nonzero_buckets().map(|(_, n)| n).max().unwrap_or(1);
    println!("  online latency histogram ({} samples)", h.count());
    for (bound, count) in h.nonzero_buckets() {
        let bar = (count as usize * BAR).div_ceil(peak as usize).min(BAR);
        println!(
            "    <= {:>9.3} ms  {count:>6}  {}",
            bound as f64 / 1e3,
            "#".repeat(bar)
        );
    }
}

/// Replays every queried sample in-memory and asserts labels and wire
/// bytes match what the serving path reported.
fn check(model: &ClientModel, runs: &[ClientRun]) -> Result<(), String> {
    let cfg = demo::inference_config();
    let mut replays: HashMap<usize, InferenceReport> = HashMap::new();
    let mut fail = Vec::new();
    let mut checked = 0usize;
    for (tid, run) in runs.iter().enumerate() {
        for (sample, out) in &run.queries {
            let replay = match replays.entry(*sample) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let input_bits = model
                        .demo
                        .compiled
                        .input_bits(&model.demo.dataset.inputs[*sample]);
                    let report = run_compiled(
                        Arc::clone(&model.demo.compiled),
                        vec![input_bits],
                        vec![model.weight_bits.clone()],
                        &cfg,
                    )
                    .map_err(|e| format!("in-memory replay of sample {sample}: {e}"))?;
                    let oracle = plain_label(
                        &model.demo.compiled,
                        &model.demo.net,
                        &model.demo.dataset.inputs[*sample],
                    );
                    if report.label != oracle {
                        return Err(format!(
                            "replay of sample {sample} disagrees with the plaintext oracle: \
                             {} != {oracle}",
                            report.label
                        ));
                    }
                    e.insert(report)
                }
            };
            checked += 1;
            if out.label != replay.label {
                fail.push(format!(
                    "client {tid} sample {sample}: label {} != replay {}",
                    out.label, replay.label
                ));
            }
            let w = &out.wire;
            let r = &replay.wire;
            if (w.ot_ext, w.tables, w.input_labels, w.output_bits)
                != (r.ot_ext, r.tables, r.input_labels, r.output_bits)
            {
                fail.push(format!(
                    "client {tid} sample {sample}: online wire {w:?} != replay {r:?}"
                ));
            }
            if w.base_ot != 0 {
                fail.push(format!(
                    "client {tid} sample {sample}: online breakdown must not carry base-OT bytes"
                ));
            }
        }
        let base = replays.values().next().map_or(0, |r| r.wire.base_ot);
        if run.setup_bytes != base {
            fail.push(format!(
                "client {tid}: setup bytes {} != replay base-OT {base}",
                run.setup_bytes
            ));
        }
    }
    if fail.is_empty() {
        println!(
            "  check OK: {checked}/{checked} labels match the in-memory replays; online \
             wire bytes and per-session base-OT bytes identical"
        );
        Ok(())
    } else {
        Err(format!("serving run diverged:\n  {}", fail.join("\n  ")))
    }
}
