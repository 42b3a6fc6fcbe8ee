//! The four workloads: what each sets up, what one op is, and the closed
//! loop that measures them. `rows.rs` turns a measurement into rows.
//!
//! Load shape, all workloads: a closed loop — a client delegates one
//! inference and waits for the label — driven from this one process, with
//! at most `nproc` client connections and `threads: 1` on both parties.

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use deepsecure::core::protocol::{run_compiled_over, InferenceConfig};
use deepsecure::ot::{mem_pair, NetModel, SimChannel};
use deepsecure::serve::client::{ClientModel, ClientOptions, ServeClient};
use deepsecure::serve::pool::PoolStats;
use deepsecure::serve::server::{ServeConfig, Server, ServerHandle};
use deepsecure::serve::stats::ServeStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host;
use crate::ladder::CHUNK_GATES;
use crate::trace::{spanned, Tracer};

/// What one op is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Sessions connect during set-up; op = one `ServeClient::query`.
    Persistent,
    /// op = `connect_opts` + one `query` + `finish` on a fresh session.
    Fresh,
    /// op = one whole `run_compiled_over` (base OT included) over a
    /// simulated 40 Mbps / 40 ms link; no serving layer.
    SimWan,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub model: &'static str,
    /// Stand-in for `--smoke` (a schema check, not a measurement).
    pub smoke_model: &'static str,
    pub chunk_gates: usize,
    pub clients: usize,
    pub shape: Shape,
}

/// Names are final: later issues refer to them. The `why` lines repeat in
/// `BENCHMARK.json`.
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "serve_warm",
        why: "returning clients: 2 persistent sessions on pooled tiny_mlp material; OT-extension, table transfer and evaluation compete with pool refill for the cores; base OT is in set-up only",
        model: "tiny_mlp",
        smoke_model: "tiny_mlp",
        chunk_gates: 0,
        clients: 2,
        shape: Shape::Persistent,
    },
    Spec {
        name: "serve_cold",
        why: "a fresh tiny_cnn session per op: connect, DSRV/2 handshake and 128 base OTs dominate, the gate kernel does little",
        model: "tiny_cnn",
        smoke_model: "tiny_cnn",
        chunk_gates: 0,
        clients: 1,
        shape: Shape::Fresh,
    },
    Spec {
        name: "serve_live_mnist",
        why: "paper-scale mnist_mlp, 224 MB of tables above the pool cap: every query garbles live through an 8192-gate chunk pipeline, so the gate kernel and the Channel copy path carry it",
        model: "mnist_mlp",
        smoke_model: "tiny_mlp",
        chunk_gates: CHUNK_GATES,
        clients: 1,
        shape: Shape::Persistent,
    },
    Spec {
        name: "wan_stream",
        why: "pruned mnist_mlp_c streamed over a simulated 40 Mbps / 40 ms link: only fewer bytes, fewer turnarounds or better overlap move it, a faster kernel should not",
        model: "mnist_mlp_c",
        smoke_model: "mnist_mlp_c",
        chunk_gates: CHUNK_GATES,
        clients: 1,
        shape: Shape::SimWan,
    },
];

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two ops per client and one set-up: a schema check.
    pub smoke: bool,
}

/// `setup_s` is the median of several set-ups; the last one built is the
/// one the timed part uses. At least `MIN_SETUPS` run; cheap ones repeat
/// up to `MAX_SETUPS` while they fit in `SETUP_BUDGET_S`, since a set-up
/// of a second or two is mostly base-OT scheduling noise.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET_S: f64 = 8.0;
pub const SMOKE_OPS: usize = 2;
const POOL_TARGET: usize = 2;
/// Index of a client's untimed warm-up op (timed ops count from 0).
const WARMUP_OP: u64 = 99_999;

pub struct ServerSide {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<()>,
    addr: String,
}

/// Everything set-up builds and the timed part runs against.
pub struct World {
    pub model: ClientModel,
    /// Wall seconds of this party's `ClientModel::load` (train + compile).
    compile_s: f64,
    server: Option<ServerSide>,
    sessions: Vec<ServeClient>,
    /// Client-observed `connect_opts` seconds of the persistent sessions.
    pub connect_s: Vec<f64>,
}

fn client_options(seed: u64) -> ClientOptions {
    ClientOptions {
        seed,
        threads: 1,
        ..ClientOptions::default()
    }
}

impl World {
    fn build(spec: &Spec, model_name: &str, clients: usize, seed: u64) -> World {
        let load = || {
            let t = Instant::now();
            let model =
                ClientModel::load(model_name).expect("benchmark model names are zoo models");
            (model, t.elapsed().as_secs_f64())
        };
        if spec.shape == Shape::SimWan {
            // Both parties run in this process on one compiled circuit.
            let (model, compile_s) = load();
            return World {
                model,
                compile_s,
                server: None,
                sessions: Vec::new(),
                connect_s: Vec::new(),
            };
        }
        let cfg = ServeConfig {
            models: vec![model_name.to_string()],
            pool_target: POOL_TARGET,
            seed: seed ^ 0x5e4e_9001,
            chunk_gates: spec.chunk_gates,
            threads: 1,
            ..ServeConfig::default()
        };
        // The server trains and compiles its own copy while the client
        // does the same: two parties, two machines in a deployment.
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let server = Server::bind(&cfg).expect("bind the benchmark server on loopback");
            tx.send(server.handle())
                .expect("the benchmark waits for the handle");
            server.run();
        });
        let (model, compile_s) = load();
        let handle = rx.recv().expect("the server thread died before it bound");
        assert!(
            handle.wait_pool_warm(Duration::from_secs(120)),
            "the precompute pool never warmed"
        );
        let addr = handle.local_addr().to_string();
        let mut sessions = Vec::new();
        let mut connect_s = Vec::new();
        if spec.shape == Shape::Persistent {
            for k in 0..clients as u64 {
                let t = Instant::now();
                let session =
                    ServeClient::connect_opts(&addr, &model, client_options(seed * 1000 + k))
                        .expect("connect a persistent session");
                connect_s.push(t.elapsed().as_secs_f64());
                sessions.push(session);
            }
        }
        World {
            model,
            compile_s,
            server: Some(ServerSide {
                handle,
                thread,
                addr,
            }),
            sessions,
            connect_s,
        }
    }

    pub fn teardown(self) {
        for session in self.sessions {
            // A session that already died has nothing left to close.
            let _ = session.finish();
        }
        if let Some(server) = self.server {
            server.handle.shutdown();
            server.thread.join().expect("the server thread panicked");
        }
    }
}

/// What the program returned for one op.
pub struct OpOut {
    pub label: usize,
    pub wire: u64,
    pub tables: u64,
    pub peak: u64,
    pub retries: u64,
    pub connect_s: Option<f64>,
}

pub struct OpRecord {
    pub client: usize,
    pub sample: usize,
    /// Warm-up ops are checked but not timed.
    pub timed: bool,
    pub traced: bool,
    pub latency_s: f64,
    pub out: Result<OpOut, String>,
}

/// Span context handed to an op: tracer (if this op is traced), parent
/// span, op id, thread id.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u32>,
    op: u64,
    tid: u32,
}

impl Ctx<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        spanned(self.tracer, name, self.parent, self.op, self.tid, |_| f())
    }
}

fn query_op(session: &mut ServeClient, sample: usize, ctx: Ctx<'_>) -> Result<OpOut, String> {
    let retries0 = session.retries + session.busy_backoffs;
    let out = ctx
        .span("serve.query", || session.query(sample))
        .map_err(|e| e.to_string())?;
    Ok(OpOut {
        label: out.label,
        wire: out.wire.total(),
        tables: out.wire.tables,
        peak: out.peak_material_bytes,
        retries: session.retries + session.busy_backoffs - retries0,
        connect_s: None,
    })
}

fn fresh_op(
    addr: &str,
    model: &ClientModel,
    sample: usize,
    seed: u64,
    ctx: Ctx<'_>,
) -> Result<OpOut, String> {
    let t = Instant::now();
    let mut session = ctx
        .span("serve.connect", || {
            ServeClient::connect_opts(addr, model, client_options(seed))
        })
        .map_err(|e| e.to_string())?;
    let connect_s = t.elapsed().as_secs_f64();
    let out = ctx
        .span("serve.query", || session.query(sample))
        .map_err(|e| e.to_string())?;
    let wire = out.wire.total() + session.total_setup_bytes();
    let retries = session.retries + session.busy_backoffs;
    ctx.span("serve.finish", || session.finish())
        .map_err(|e| e.to_string())?;
    Ok(OpOut {
        label: out.label,
        wire,
        tables: out.wire.tables,
        peak: out.peak_material_bytes,
        retries,
        connect_s: Some(connect_s),
    })
}

fn wan_op(
    model: &ClientModel,
    chunk_gates: usize,
    sample: usize,
    seed: u64,
    ctx: Ctx<'_>,
) -> Result<OpOut, String> {
    let compiled = &model.demo.compiled;
    let cfg = InferenceConfig {
        seed,
        chunk_gates,
        threads: 1,
        ..InferenceConfig::default()
    };
    let report = ctx
        .span("core.run_compiled_over", || {
            let (a, b) = mem_pair();
            run_compiled_over(
                Arc::clone(compiled),
                vec![compiled.input_bits(&model.demo.dataset.inputs[sample])],
                vec![model.weight_bits.clone()],
                &cfg,
                SimChannel::new(a, NetModel::wan()),
                SimChannel::new(b, NetModel::wan()),
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(OpOut {
        label: report.label,
        wire: report.wire.total(),
        tables: report.wire.tables,
        peak: report.peak_material_bytes,
        retries: 0,
        connect_s: None,
    })
}

/// What every client's loop of one run shares.
#[derive(Clone, Copy)]
struct Loop<'a> {
    opts: &'a RunOpts,
    /// Dataset size: sample indices are drawn below it.
    samples: usize,
    /// A persistent session first runs one untimed warm-up op, as a
    /// returning client has; fresh sessions and fresh inferences start
    /// cold by definition.
    warm_up: bool,
    tracer: Option<&'a Tracer>,
    gate: &'a Barrier,
}

/// One client's closed loop: ops until the time (or, in smoke mode, the
/// count) is up. Returns its records and the wall seconds of its timed
/// part. In a traced run every second op runs without spans, so
/// `trace.overhead_pct` compares like with like.
fn drive(
    client: usize,
    lp: Loop<'_>,
    mut op: impl FnMut(usize, u64, Ctx<'_>) -> Result<OpOut, String>,
) -> (Vec<OpRecord>, f64) {
    let Loop {
        opts,
        samples,
        warm_up,
        tracer,
        gate,
    } = lp;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ (0xc11e_0000 + client as u64));
    let tid = client as u32 + 1;
    let mut records = Vec::new();
    let mut one = |i: u64, timed: bool, rng: &mut StdRng| {
        let sample = rng.gen_range(0..samples);
        let op_seed = opts.seed * 1_000_000 + client as u64 * 100_000 + i;
        let traced = tracer.filter(|_| timed && i.is_multiple_of(2));
        let op_id = client as u64 * 1_000_000 + i;
        let t = Instant::now();
        let out = spanned(traced, "bench.op", None, op_id, tid, |parent| {
            op(
                sample,
                op_seed,
                Ctx {
                    tracer: traced,
                    parent,
                    op: op_id,
                    tid,
                },
            )
        });
        records.push(OpRecord {
            client,
            sample,
            timed,
            traced: traced.is_some(),
            latency_s: t.elapsed().as_secs_f64(),
            out,
        });
    };
    if warm_up {
        one(WARMUP_OP, false, &mut rng);
    }
    // Every client is warm; the driver snapshots its counters between
    // the two waits, then all clients start together.
    gate.wait();
    gate.wait();
    let start = Instant::now();
    let mut i = 0u64;
    while if opts.smoke {
        i < SMOKE_OPS as u64
    } else {
        start.elapsed().as_secs_f64() < opts.seconds
    } {
        one(i, true, &mut rng);
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    (records, wall)
}

/// Everything one run measured, before any of it is judged.
pub struct Measured {
    /// Still up: the ladder runs on its model. Tear it down when done.
    pub world: World,
    pub setup_runs: Vec<f64>,
    /// The client party's `ClientModel::load` seconds, one per set-up.
    pub compile_runs: Vec<f64>,
    /// Per client: its op records and the wall seconds of its timed part.
    pub per_client: Vec<(Vec<OpRecord>, f64)>,
    /// Server counters just before and just after the timed part.
    pub serve: Option<[(ServeStats, PoolStats); 2]>,
    /// `(user, system)` CPU seconds of the process over the timed part.
    pub cpu_s: (f64, f64),
}

/// Sets the workload up (several times), then runs its closed loop.
pub fn measure(spec: &Spec, opts: &RunOpts, clients: usize, tracer: Option<&Tracer>) -> Measured {
    let model_name = if opts.smoke {
        spec.smoke_model
    } else {
        spec.model
    };
    let mut setup_runs: Vec<f64> = Vec::new();
    let mut compile_runs = Vec::new();
    let mut world: Option<World> = None;
    while match setup_runs.len() {
        0 => true,
        _ if opts.smoke => false,
        n if n < MIN_SETUPS => true,
        n => n < MAX_SETUPS && setup_runs.iter().sum::<f64>() < SETUP_BUDGET_S,
    } {
        if let Some(old) = world.take() {
            old.teardown();
        }
        let t = Instant::now();
        let built = World::build(spec, model_name, clients, opts.seed);
        setup_runs.push(t.elapsed().as_secs_f64());
        compile_runs.push(built.compile_s);
        world = Some(built);
    }
    let mut world = world.expect("at least one set-up ran");

    let gate = Barrier::new(clients + 1);
    let lp = Loop {
        opts,
        samples: world.model.demo.dataset.len(),
        warm_up: spec.shape == Shape::Persistent,
        tracer,
        gate: &gate,
    };
    let model = &world.model;
    let server = world.server.as_ref();
    let counters = || server.map(|s| (s.handle.stats(), s.handle.pool_stats()));
    let mut sessions = std::mem::take(&mut world.sessions);
    let mut before = None;
    let mut cpu0 = (0.0, 0.0);
    let per_client = std::thread::scope(|s| {
        let mut session_iter = sessions.iter_mut();
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let session = session_iter.next();
                s.spawn(move || match (spec.shape, session) {
                    (Shape::Persistent, Some(session)) => {
                        drive(k, lp, |sample, _, ctx| query_op(session, sample, ctx))
                    }
                    (Shape::Persistent, None) => {
                        unreachable!("set-up connects one session per client")
                    }
                    (Shape::Fresh, _) => {
                        let addr = &server.expect("serving workloads have a server").addr;
                        drive(k, lp, |sample, seed, ctx| {
                            fresh_op(addr, model, sample, seed, ctx)
                        })
                    }
                    (Shape::SimWan, _) => drive(k, lp, |sample, seed, ctx| {
                        wan_op(model, spec.chunk_gates, sample, seed, ctx)
                    }),
                })
            })
            .collect();
        gate.wait();
        before = counters();
        cpu0 = host::cpu_times();
        gate.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let cpu1 = host::cpu_times();
    let serve = before.zip(counters()).map(|(b, a)| [b, a]);
    world.sessions = sessions;
    Measured {
        world,
        setup_runs,
        compile_runs,
        per_client,
        serve,
        cpu_s: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
    }
}
