//! The multi-threaded serving loop: accept, handshake, setup, then online
//! inferences against the precompute pool.
//!
//! The server hosts the **garbling** party of Fig. 3 — the role whose
//! work (tables, IKNP-sender setup) is input-independent and therefore
//! precomputable; each connecting evaluator client runs the existing
//! channel-generic `ServerSession`. Serving flips who *listens*, never
//! the protocol roles.
//!
//! One OS thread per connection: sessions are long-lived (one base-OT
//! setup amortized over many requests), counts are moderate, and the
//! protocol is blocking by design — a thread per session keeps the
//! channel-generic session code untouched.
//!
//! [`Server::run`] is the one accept loop. Each accepted connection gets
//! its handler thread at once; the loop counts handlers while they live
//! (handshakes included) and sheds the arrival that would exceed
//! `queue_cap` with a `BUSY` frame. Every handler folds into one
//! [`ServeStats`] accumulator — its lock is held for microseconds per
//! request, against a request's tens of milliseconds — which both
//! [`ServerHandle::stats`] and [`Server::run`] report.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use deepsecure_core::protocol::InferenceConfig;
use deepsecure_core::session::{ClientSession, ClientSetup};
use deepsecure_ot::framed::{recv_frame, send_frame};
use deepsecure_ot::{Channel, TcpChannel};

use crate::demo::{self, DemoModel};
use crate::lock;
use crate::pool::{PoolStats, PrecomputePool};
use crate::proto;
use crate::registry::SessionRegistry;
use crate::stats::ServeStats;
use crate::ServeError;

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Zoo models to host (each is trained + compiled at startup).
    pub models: Vec<String>,
    /// Precomputed instances kept per queue (base OT, and garbled
    /// material per model).
    pub pool_target: usize,
    /// Graceful auto-shutdown after this many sessions have finished
    /// (counting failures) — what the CI end-to-end job uses.
    pub max_sessions: Option<u64>,
    /// Per-read socket timeout on every session. A client that wedges
    /// (connects and then never speaks) fails its session after this
    /// long instead of pinning a handler thread forever — which is also
    /// what bounds how long a graceful shutdown can wait on the drain.
    pub idle_timeout: Option<Duration>,
    /// Pool / protocol randomness seed.
    pub seed: u64,
    /// Non-free gates per garbled-table chunk on every session (`0` =
    /// buffered whole-cycle transfer). The server pins the value in its
    /// `OK` handshake frame, so clients always evaluate with matching
    /// chunk boundaries. Streaming keeps per-session resident material at
    /// O(chunk) and overlaps transfer with evaluation (and, for models
    /// above the pool's material cap, with garbling itself).
    pub chunk_gates: usize,
    /// Worker threads: the pool's fill-worker count and the fan-out width
    /// of base-OT scalar multiplications (each session's set-up and the
    /// pool's inline misses). Gate walks stay sequential at any value.
    /// `0` means one per available core
    /// ([`deepsecure_ot::resolve_threads`], where each is used). Defaults
    /// to [`deepsecure_ot::threads_from_env`]: the `DEEPSECURE_THREADS`
    /// env var, else `1`.
    pub threads: usize,
    /// Max open connections — live handler threads, handshakes and idle
    /// sessions included. The arrival that would exceed the cap is shed
    /// immediately with a `DSRV/4 BUSY` frame (plus `retry_after_ms`)
    /// instead of adding one more thread behind a saturated garbler —
    /// the bound that keeps the p99 of *accepted* requests flat under
    /// overload.
    pub queue_cap: usize,
    /// Max live sessions per hosted model; arrivals beyond it are shed
    /// with `BUSY`. `None` = unlimited.
    pub model_session_cap: Option<usize>,
    /// Max concurrent sessions on live-garbling models (those above the
    /// pool's material cap, which have no pooled stock to absorb bursts);
    /// beyond it those arrivals are shed with `BUSY`. `None` = unlimited.
    pub live_session_cap: Option<usize>,
    /// Backoff hint carried in every `BUSY` frame, milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            models: vec!["tiny_mlp".to_string()],
            pool_target: 2,
            max_sessions: None,
            idle_timeout: Some(Duration::from_secs(120)),
            seed: 7,
            chunk_gates: 0,
            threads: deepsecure_ot::threads_from_env(),
            queue_cap: 64,
            model_session_cap: None,
            live_session_cap: None,
            retry_after_ms: 100,
        }
    }
}

/// One hosted model plus its precomputed per-sample garbler input bits.
struct HostedModel {
    demo: DemoModel,
    input_bits: Vec<Vec<bool>>,
}

/// OT-extension state stashed when a session dies at a resumable point
/// (no extension batch mid-flight), waiting for the client's `RESUME`.
struct StashedSession {
    token: u64,
    model: String,
    setup: ClientSetup,
}

/// Most stashed sessions kept; beyond it the oldest (lowest session ID)
/// is evicted — a bound, not an expiry, so a chaos storm of reconnects
/// can't grow server memory without limit.
const RESUME_STASH_CAP: usize = 256;

/// How long a `RESUME` claim waits for the dying handler of its previous
/// connection to park the session state and leave the registry. Bounds
/// the reconnect race without letting a bogus claim camp on a handler
/// thread.
const RESUME_CLAIM_WAIT: Duration = Duration::from_millis(750);

struct Shared {
    addr: SocketAddr,
    cfg: InferenceConfig,
    models: HashMap<String, HostedModel>,
    pool: PrecomputePool,
    registry: SessionRegistry,
    /// The one serving accumulator; its `pool` field stays zero (the
    /// pool keeps its own counters, folded in by [`ServerHandle::stats`]).
    stats: Mutex<ServeStats>,
    /// Connections with a live handler thread — what `queue_cap` bounds.
    open_conns: AtomicUsize,
    shutdown: AtomicBool,
    max_sessions: Option<u64>,
    idle_timeout: Option<Duration>,
    queue_cap: usize,
    model_session_cap: Option<usize>,
    live_session_cap: Option<usize>,
    retry_after_ms: u64,
    /// Seed for deriving per-session resumption tokens.
    token_seed: u64,
    /// Resumable OT-extension state by session ID.
    resume: Mutex<BTreeMap<u64, StashedSession>>,
    /// Serializes the admission check-then-register sequence: without it
    /// two concurrent handshakes could both pass a session cap and both
    /// register, overshooting the limit.
    admission: Mutex<()>,
}

impl Shared {
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A bound, pool-warmed-up-in-the-background serving instance. Call
/// [`Server::run`] to start accepting (usually on its own thread) and
/// keep a [`ServerHandle`] for shutdown and stats.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds every hosted model (training + compilation — the startup
    /// cost amortized over all sessions), binds the listener, and starts
    /// the precompute worker.
    ///
    /// # Errors
    ///
    /// Fails on an unknown model name or if the address cannot be bound.
    pub fn bind(config: &ServeConfig) -> Result<Server, ServeError> {
        let cfg = InferenceConfig {
            chunk_gates: config.chunk_gates,
            threads: config.threads,
            ..demo::inference_config()
        };
        let mut models = HashMap::new();
        for name in &config.models {
            let demo = demo::load(name).map_err(ServeError::Model)?;
            let input_bits = demo
                .dataset
                .inputs
                .iter()
                .map(|x| demo.compiled.input_bits(x))
                .collect();
            models.insert(name.clone(), HostedModel { demo, input_bits });
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = PrecomputePool::start(
            models
                .iter()
                .map(|(name, hosted)| (name.clone(), Arc::clone(&hosted.demo.compiled), 1))
                .collect(),
            config.pool_target,
            config.seed,
            crate::pool::DEFAULT_MATERIAL_CAP,
            config.threads,
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                addr,
                cfg,
                models,
                pool,
                registry: SessionRegistry::new(),
                stats: Mutex::new(ServeStats::default()),
                open_conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                max_sessions: config.max_sessions,
                idle_timeout: config.idle_timeout,
                queue_cap: config.queue_cap.max(1),
                model_session_cap: config.model_session_cap,
                live_session_cap: config.live_session_cap,
                retry_after_ms: config.retry_after_ms,
                token_seed: config.seed ^ 0x7e5e_7e5e_0000_70c4,
                resume: Mutex::new(BTreeMap::new()),
                admission: Mutex::new(()),
            }),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutdown/stats, usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts sessions until shutdown is requested, then drains: stops
    /// accepting, joins every in-flight session handler, stops the pool,
    /// and returns the final stats.
    pub fn run(self) -> ServeStats {
        let Server { listener, shared } = self;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        // The shutdown poke (or a late client) — drop it.
                        drop(stream);
                        break;
                    }
                    // Only this loop increments, so the check cannot race
                    // past the cap.
                    if shared.open_conns.load(Ordering::SeqCst) >= shared.queue_cap {
                        lock(&shared.stats).shed_queue_full += 1;
                        shed_busy(stream, shared.retry_after_ms);
                        continue;
                    }
                    shared.open_conns.fetch_add(1, Ordering::SeqCst);
                    // Long-lived servers must not accumulate one
                    // JoinHandle per finished session.
                    handlers.retain(|h| !h.is_finished());
                    let sh = Arc::clone(&shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&sh, stream, peer);
                    }));
                }
                Err(e) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    eprintln!("serve: accept failed: {e}");
                }
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        let handle = ServerHandle { shared };
        let stats = handle.stats();
        handle.shared.pool.stop();
        stats
    }
}

/// Best-effort `BUSY` reply on a connection the server will not serve.
/// The write is bounded (a wedged client must not stall the accept loop)
/// and every failure is ignored — the client treats a raw disconnect the
/// same as a shed, just without the backoff hint.
fn shed_busy(stream: TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if let Ok(mut chan) = TcpChannel::from_stream(stream) {
        let _ = send_frame(&mut chan, proto::busy(retry_after_ms).as_bytes());
        let _ = chan.flush();
    }
}

/// The resumption token for a session ID: a splitmix64-style mix of the
/// server's token seed, so tokens are unguessable-without-the-seed yet
/// deterministic (the same sid re-earns the same token across resumes,
/// which is what lets a client survive repeated drops with one stored
/// credential).
fn session_token(seed: u64, sid: u64) -> u64 {
    let mut z = seed ^ sid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether an error bottoms out in an I/O timeout (`SO_RCVTIMEO`
/// expiring surfaces as `WouldBlock` on Unix, `TimedOut` elsewhere) —
/// the classifier behind the timeout counter family.
fn is_timeout(e: &ServeError) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
    while let Some(err) = cur {
        if let Some(io) = err.downcast_ref::<std::io::Error>() {
            return matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            );
        }
        cur = err.source();
    }
    false
}

/// Parks a dead session's OT-extension state for a later `RESUME`,
/// evicting the oldest stash beyond [`RESUME_STASH_CAP`]. Only the
/// extension state is parked: the setup's recycled garbling buffers
/// (O(circuit) on a live-garbled model) are freed first, so a full stash
/// pins kilobytes per entry, not hundreds of megabytes.
fn stash_for_resume(
    resume: &Mutex<BTreeMap<u64, StashedSession>>,
    sid: u64,
    mut stash: StashedSession,
) {
    stash.setup.release_buffers();
    let mut resume = lock(resume);
    resume.insert(sid, stash);
    while resume.len() > RESUME_STASH_CAP {
        let Some((&oldest, _)) = resume.iter().next() else {
            break;
        };
        resume.remove(&oldest);
    }
}

impl ServerHandle {
    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests graceful shutdown: stop accepting, drain live sessions.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Snapshot of the serving stats, with the pool's counters folded in.
    pub fn stats(&self) -> ServeStats {
        let mut stats = lock(&self.shared.stats).clone();
        stats.pool = self.shared.pool.stats();
        stats
    }

    /// Connections with a live handler thread, handshakes included — the
    /// count `queue_cap` bounds.
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// Precompute-pool stock depths: `(base, per-model ready)`.
    pub fn pool_depths(&self) -> (usize, Vec<(String, usize)>) {
        self.shared.pool.depths()
    }

    /// Number of sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.shared.registry.active()
    }

    /// Sessions currently stashed for `RESUME` (OT-extension state kept
    /// across a disconnect, waiting for the client to come back).
    pub fn resume_stash_depth(&self) -> usize {
        lock(&self.shared.resume).len()
    }

    /// Precompute pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Blocks until the precompute pool is fully stocked (or the timeout
    /// passes); returns whether it is warm.
    pub fn wait_pool_warm(&self, timeout: std::time::Duration) -> bool {
        self.shared.pool.wait_warm(timeout)
    }
}

/// Deregisters a session on every exit path of its handler.
struct RegistryGuard<'a> {
    registry: &'a SessionRegistry,
    id: u64,
}

impl Drop for RegistryGuard<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.id);
    }
}

/// Releases a connection's slot under `queue_cap` on every exit path of
/// its handler.
struct OpenConn<'a>(&'a AtomicUsize);

impl Drop for OpenConn<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    let _open = OpenConn(&shared.open_conns);
    let result = serve_session(shared, stream);
    // An admission shed never opened a session: the shed counter was
    // bumped at the shed site, and a `BUSY` is advice to come back — it
    // must not trip `max_sessions` auto-shutdown or the failure counters.
    if let Err(ServeError::Busy { .. }) = result {
        return;
    }
    let finished = {
        let mut st = lock(&shared.stats);
        st.open_session();
        match &result {
            Ok(()) => st.complete_session(),
            Err(e) if is_timeout(e) => st.timeout_session(),
            Err(_) => st.fail_session(),
        }
        st.sessions_opened
    };
    if let Err(e) = result {
        eprintln!("serve: session from {peer} failed: {e}");
    }
    if shared.max_sessions.is_some_and(|max| finished >= max) {
        shared.request_shutdown();
    }
}

/// Why an arrival was refused with a `BUSY` frame.
enum ShedReason {
    ModelLimit,
    LiveCapacity,
}

/// Counts the shed, sends the `BUSY` frame (best-effort), and surfaces
/// the shed to the handler as [`ServeError::Busy`].
fn shed(shared: &Shared, chan: &mut TcpChannel, reason: &ShedReason) -> ServeError {
    {
        let mut st = lock(&shared.stats);
        match reason {
            ShedReason::ModelLimit => st.shed_model_limit += 1,
            ShedReason::LiveCapacity => st.shed_live_capacity += 1,
        }
    }
    let _ = send_frame(chan, proto::busy(shared.retry_after_ms).as_bytes());
    let _ = chan.flush();
    ServeError::Busy {
        retry_after_ms: shared.retry_after_ms,
    }
}

fn serve_session(shared: &Shared, stream: TcpStream) -> Result<(), ServeError> {
    // A wedged client must not pin this handler (and the eventual
    // graceful drain) forever.
    stream.set_read_timeout(shared.idle_timeout)?;
    let mut chan = TcpChannel::from_stream(stream)?;
    let hello_frame = recv_frame(&mut chan)?;
    let hello = match proto::parse_hello(&hello_frame) {
        Ok(parsed) => parsed,
        Err(m) => {
            let _ = send_frame(&mut chan, proto::err(&m).as_bytes());
            let _ = chan.flush();
            return Err(ServeError::Handshake(m));
        }
    };
    let Some(hosted) = shared.models.get(&hello.model) else {
        let m = format!("model {:?} not hosted", hello.model);
        let _ = send_frame(&mut chan, proto::err(&m).as_bytes());
        let _ = chan.flush();
        return Err(ServeError::Handshake(m));
    };
    if hello.fingerprint != hosted.demo.fingerprint {
        let m = format!(
            "circuit fingerprint mismatch for {}: client {:016x}, \
             server {:016x} (different code version?)",
            hello.model, hello.fingerprint, hosted.demo.fingerprint
        );
        let _ = send_frame(&mut chan, proto::err(&m).as_bytes());
        let _ = chan.flush();
        return Err(ServeError::Handshake(m));
    }

    // A valid resume claim yields the stashed OT-extension state keyed by
    // the original session ID; anything invalid (unknown sid, bad token,
    // model mismatch) falls back to a fresh setup — the client learns
    // which happened from whether the OK frame echoes its claimed sid.
    let claimed = hello.resume.and_then(|(sid, token)| {
        // The dying handler races this reconnect: its last write has to
        // fail before it parks the extension state and leaves the
        // registry. Poll briefly instead of falling straight back to a
        // fresh (and pointlessly expensive) base-OT setup.
        let wait = Instant::now();
        loop {
            let entry = {
                let mut stash = lock(&shared.resume);
                match stash.get(&sid) {
                    Some(s) if s.token == token && s.model == hello.model => stash.remove(&sid),
                    // Present but with the wrong credentials: a bad claim,
                    // not a race — fall back to fresh immediately.
                    Some(_) => return None,
                    None => None,
                }
            };
            if let Some(s) = entry {
                // Parked, but the old handler may not have left the
                // registry yet; wait it out within the same budget.
                while shared.registry.is_live(sid) && wait.elapsed() < RESUME_CLAIM_WAIT {
                    std::thread::sleep(Duration::from_millis(10));
                }
                if shared.registry.is_live(sid) {
                    lock(&shared.resume).insert(sid, s);
                    return None;
                }
                return Some((sid, s));
            }
            if wait.elapsed() > RESUME_CLAIM_WAIT {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    // Admission control, atomic with registration (two concurrent
    // handshakes must not both pass a cap and both register). A resume
    // claim passes the same gates as a fresh arrival — resuming must not
    // become a way to cut the admission line; a shed claim's state goes
    // back in the stash so a later retry can still resume.
    let admission = lock(&shared.admission);
    let over_model_cap = shared
        .model_session_cap
        .is_some_and(|cap| shared.registry.active_for_model(&hello.model) >= cap);
    let over_live_cap = !over_model_cap
        && shared.live_session_cap.is_some()
        && shared.pool.is_live(&hello.model) == Some(true)
        && {
            let live_now: usize = shared
                .models
                .keys()
                .filter(|m| shared.pool.is_live(m) == Some(true))
                .map(|m| shared.registry.active_for_model(m))
                .sum();
            shared.live_session_cap.is_some_and(|cap| live_now >= cap)
        };
    if over_model_cap || over_live_cap {
        drop(admission);
        if let Some((sid, s)) = claimed {
            lock(&shared.resume).insert(sid, s);
        }
        let reason = if over_model_cap {
            ShedReason::ModelLimit
        } else {
            ShedReason::LiveCapacity
        };
        return Err(shed(shared, &mut chan, &reason));
    }
    let (sid, resumed_state) = match claimed {
        Some((sid, s)) if shared.registry.register_resumed(sid, &hello.model) => {
            lock(&shared.stats).resume_session();
            (sid, Some(s))
        }
        // The claim's id re-entered the registry between the poll and
        // here (should not happen; ids are never reused) — serve fresh.
        _ => (shared.registry.register(&hello.model), None),
    };
    drop(admission);
    let token = session_token(shared.token_seed, sid);
    let _guard = RegistryGuard {
        registry: &shared.registry,
        id: sid,
    };
    send_frame(
        &mut chan,
        proto::ok(sid, shared.cfg.chunk_gates, token).as_bytes(),
    )?;

    let session = ClientSession::new(Arc::clone(&hosted.demo.compiled), &shared.cfg);
    let mut setup = match resumed_state {
        // Resumed: the stashed extension state picks up exactly where it
        // left off — zero base-OT group operations, zero extra flights.
        Some(s) => s.setup,
        None => {
            // One-time setup: the precomputed keypairs keep the offline
            // half of the group work off the wire path; only the two
            // batched flights remain.
            let pre = shared.pool.take_base();
            let t_setup = Instant::now();
            let setup = session.setup_with(&mut chan, pre)?;
            lock(&shared.stats).record_setup(
                t_setup.elapsed().as_secs_f64(),
                setup.sent,
                setup.received,
            );
            setup
        }
    };

    let result = session_request_loop(
        shared,
        &mut chan,
        &session,
        &mut setup,
        hosted,
        &hello.model,
    );
    if let Err(e) = result {
        // A death at a batch boundary leaves the extension state intact;
        // park it so the client's RESUME skips the base OTs entirely.
        // Mid-batch deaths are not resumable — the streams have diverged.
        if setup.resumable() {
            stash_for_resume(
                &shared.resume,
                sid,
                StashedSession {
                    token,
                    model: hello.model.clone(),
                    setup,
                },
            );
        }
        return Err(e);
    }
    Ok(())
}

/// The per-request loop of one session: every inference is online-only.
fn session_request_loop(
    shared: &Shared,
    chan: &mut TcpChannel,
    session: &ClientSession,
    setup: &mut ClientSetup,
    hosted: &HostedModel,
    model_name: &str,
) -> Result<(), ServeError> {
    loop {
        let req = chan.recv_u64()?;
        if req == proto::DONE {
            return Ok(());
        }
        let idx = usize::try_from(req)
            .ok()
            .filter(|&i| i < hosted.input_bits.len())
            .ok_or_else(|| {
                ServeError::Handshake(format!(
                    "sample index {req} out of range (dataset has {} samples)",
                    hosted.input_bits.len()
                ))
            })?;
        let material = shared.pool.take_material(model_name).ok_or_else(|| {
            ServeError::Model(format!(
                "model {model_name:?} disappeared from the precompute pool mid-session"
            ))
        })?;
        let g_bits = std::slice::from_ref(&hosted.input_bits[idx]);
        let t_online = Instant::now();
        let out = session.run_online(chan, setup, material, g_bits, Instant::now())?;
        chan.send_u64(out.label as u64)?;
        chan.flush()?;
        lock(&shared.stats).record_request(model_name, t_online.elapsed().as_secs_f64(), &out);
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_core::compile::{folded_mac, CompileOptions, Compiled};
    use deepsecure_core::session::{MaterialSource, ServerSession};
    use deepsecure_ot::mem_pair;

    use super::*;

    #[test]
    fn a_stashed_setup_holds_no_buffers_and_still_answers_when_resumed() {
        // A live-garbling session carries its wire-label array from query
        // to query; parked in the resume stash it must not — 256 parked
        // `mnist_mlp` sessions would pin 85 GB. The resumed setup simply
        // allocates again and decodes the same label.
        let compiled = Arc::new(Compiled {
            circuit: folded_mac(&CompileOptions::default()),
            weight_order: Vec::new(),
            format: deepsecure_fixed::Format::Q3_12,
        });
        let cfg = InferenceConfig {
            chunk_gates: 64,
            ..InferenceConfig::default()
        };
        let (mut garbler_end, mut evaluator_end) = mem_pair();
        let epoch = Instant::now();
        let evaluator = ServerSession::new(Arc::clone(&compiled), &cfg);
        let peer = std::thread::spawn(move || {
            let mut setup = evaluator.setup(&mut evaluator_end).unwrap();
            for _ in 0..2 {
                evaluator
                    .run_online(&mut evaluator_end, &mut setup, &[vec![true; 16]], epoch)
                    .unwrap();
            }
        });
        let session = ClientSession::new(Arc::clone(&compiled), &cfg);
        let mut setup = session.setup(&mut garbler_end, epoch).unwrap();
        let mut query = |setup: &mut ClientSetup| {
            let live = MaterialSource::Live {
                n_cycles: 1,
                seed: 9,
            };
            let g_bits = [vec![true; 17]];
            session
                .run_online(&mut garbler_end, setup, live, &g_bits, epoch)
                .unwrap()
                .label
        };
        let label = query(&mut setup);
        assert!(setup.resident_bytes() >= 16 * compiled.circuit.wire_count() as u64);

        let resume = Mutex::new(BTreeMap::new());
        let stash = StashedSession {
            token: 1,
            model: "mac".to_string(),
            setup,
        };
        stash_for_resume(&resume, 5, stash);
        let mut resumed = lock(&resume).remove(&5).expect("stashed");
        assert_eq!(resumed.setup.resident_bytes(), 0, "the stash pins no array");
        assert_eq!(query(&mut resumed.setup), label);
        peer.join().unwrap();
    }
}
