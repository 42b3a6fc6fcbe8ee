//! The evaluator client of a serving session — what `loadgen` and the
//! concurrency tests drive.
//!
//! A [`ServeClient`] is one connection: handshake, one base-OT setup
//! (the *offline* cost, paid once), then any number of [`query`] calls,
//! each running only the online phase through the channel-generic
//! [`ServerSession`]. The split is what makes the measured online latency
//! directly comparable to the server's precompute claim.
//!
//! # Resilience
//!
//! The client survives a hostile network. [`ClientOptions`] adds:
//!
//! * **Chaos** — wrap the socket in a seeded [`FaultChannel`] so drops,
//!   delays, and short I/O are reproducible.
//! * **Deadline** — a session-level wall-clock budget every retry loop
//!   stops at; per-phase socket timeouts (`SO_RCVTIMEO`/`SO_SNDTIMEO`)
//!   bound each individual read/write.
//! * **Retry with resumption** — a transport failure re-issues the whole
//!   query on a new connection (a retried query never splits one garbling
//!   across two attempts: the server always serves fresh material per
//!   issue). When the OT-extension state died at a batch boundary the
//!   reconnect presents the `RESUME` token from the `OK` frame and skips
//!   the base OTs entirely — zero extra group operations, zero extra
//!   flights; a mid-batch death falls back to a full fresh setup.
//! * **Backoff on `BUSY`** — a shed server names its own retry-after
//!   hint; the client honors it with jitter instead of hammering.
//!
//! [`query`]: ServeClient::query
//! [`ServerSession`]: deepsecure_core::session::ServerSession

use std::sync::Arc;
use std::time::{Duration, Instant};

use deepsecure_core::compile::Compiled;
use deepsecure_core::protocol::InferenceConfig;
use deepsecure_core::session::{ServerSession, ServerSetup, WireBreakdown};
use deepsecure_ot::{
    jittered, splitmix64, Channel, ChaosSpec, FaultChannel, FramedChannel, TcpChannel,
};

use crate::demo::{self, DemoModel};
use crate::proto;
use crate::ServeError;

/// The client-side model bundle: the same deterministic demo model the
/// server hosts, plus the serialized private weights (the evaluator's OT
/// choice bits).
#[derive(Debug)]
pub struct ClientModel {
    /// The shared deterministic model.
    pub demo: DemoModel,
    /// The evaluator input bit stream (weights, OT choice bits).
    pub weight_bits: Vec<bool>,
}

impl ClientModel {
    /// Builds (trains + compiles) the named model and its weight stream.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown model names.
    pub fn load(name: &str) -> Result<ClientModel, String> {
        let demo = demo::load(name)?;
        let weight_bits = demo.compiled.weight_bits(&demo.net);
        Ok(ClientModel { demo, weight_bits })
    }
}

/// Connection-time knobs for a [`ServeClient`].
#[derive(Clone, Copy, Debug)]
pub struct ClientOptions {
    /// Evaluator OT randomness seed (varied per fresh setup).
    pub seed: u64,
    /// Budget for each TCP connect (with the channel's own jittered
    /// backoff inside it).
    pub connect_timeout: Duration,
    /// Worker threads for the base-OT scalar multiplications of each fresh
    /// set-up (`0` =
    /// one per core); evaluation itself is one sequential gate walk. A
    /// pure client-side perf knob — wire bytes are identical at any width.
    pub threads: usize,
    /// Deterministic fault injection on this client's sockets.
    pub chaos: Option<ChaosSpec>,
    /// Session-level wall-clock budget; every retry loop stops at it.
    /// `None` retries on failures but never on the clock.
    pub deadline: Option<Duration>,
    /// Per-read/per-write socket timeout (`SO_RCVTIMEO`/`SO_SNDTIMEO`) —
    /// what turns a wedged peer into a retryable failure.
    pub io_timeout: Option<Duration>,
    /// Transport-failure retries per query (and per initial setup).
    pub max_retries: u32,
    /// `BUSY` sheds tolerated (with backoff) per handshake before the
    /// error surfaces. `0` makes the first shed an immediate
    /// [`ServeError::Busy`] — what an open-loop load generator wants, so
    /// a shed counts as shed instead of turning into queueing delay.
    pub busy_attempt_cap: u32,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            seed: 1,
            connect_timeout: Duration::from_secs(5),
            threads: demo::inference_config().threads,
            chaos: None,
            deadline: None,
            io_timeout: None,
            max_retries: 3,
            busy_attempt_cap: HANDSHAKE_ATTEMPT_CAP,
        }
    }
}

/// Most handshake attempts (busy waits + chaos-killed hellos) in one
/// [`establish`] call before giving up — the backstop when no deadline
/// is configured.
const HANDSHAKE_ATTEMPT_CAP: u32 = 64;

/// What one request yielded, client side.
#[derive(Clone, Copy, Debug)]
pub struct QueryOutcome {
    /// The decoded inference label the server reported.
    pub label: usize,
    /// Online-phase latency: request sent → label received, seconds
    /// (includes any retries the request needed).
    pub online_s: f64,
    /// The request's online wire traffic (`base_ot` is 0 — setup traffic
    /// is reported by [`ServeClient::setup_bytes`]).
    pub wire: WireBreakdown,
    /// Most garbled-table bytes this evaluator held at once during the
    /// request — a whole cycle when the server buffers, one chunk when it
    /// streams (see [`ServeClient::chunk_gates`]).
    pub peak_material_bytes: u64,
}

/// One live serving session, evaluator side.
pub struct ServeClient {
    chan: FaultChannel<TcpChannel>,
    session: ServerSession,
    setup: ServerSetup,
    e_bits: Vec<Vec<bool>>,
    samples: usize,
    start: Instant,
    addr: String,
    model_name: String,
    fingerprint: u64,
    compiled: Arc<Compiled>,
    opts: ClientOptions,
    rng_state: u64,
    setup_bytes_total: u64,
    token: u64,
    /// Server-assigned session ID (from the `OK` frame; changes when a
    /// reconnect could not resume and opened a fresh session).
    pub session_id: u64,
    /// Table-chunk size the server pinned in its `OK` frame (non-free
    /// gates per chunk; `0` = buffered). The evaluator adopts it so both
    /// sides derive identical chunk boundaries.
    pub chunk_gates: usize,
    /// Wall-clock cost of connect + handshake + base-OT setup, seconds —
    /// the per-session offline cost.
    pub offline_s: f64,
    /// Query re-issues after a transport failure.
    pub retries: u64,
    /// Reconnects that re-attached the existing OT-extension state via
    /// `RESUME` (zero base-OT cost).
    pub resumes: u64,
    /// Reconnects that had to pay a full fresh base-OT setup.
    pub fresh_reconnects: u64,
    /// `BUSY` sheds honored with a backoff sleep.
    pub busy_backoffs: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("session_id", &self.session_id)
            .finish_non_exhaustive()
    }
}

/// Whether an error is a transport failure a reconnect can cure (channel
/// or socket death — including injected chaos — but never a protocol
/// rejection like `ERR` or an out-of-range index).
fn is_transport(e: &ServeError) -> bool {
    match e {
        ServeError::Channel(_) | ServeError::Io(_) => true,
        ServeError::Protocol(_) => {
            // Dig for a channel/socket error under the protocol wrapper.
            let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
            while let Some(err) = cur {
                if err.downcast_ref::<std::io::Error>().is_some()
                    || err.downcast_ref::<deepsecure_ot::ChannelError>().is_some()
                {
                    return true;
                }
                cur = err.source();
            }
            false
        }
        ServeError::Handshake(_)
        | ServeError::Model(_)
        | ServeError::Busy { .. }
        | ServeError::DeadlineExceeded { .. } => false,
    }
}

/// Errors out once the session deadline is spent.
fn check_deadline(opts: &ClientOptions, start: Instant) -> Result<(), ServeError> {
    if let Some(deadline) = opts.deadline {
        if start.elapsed() >= deadline {
            return Err(ServeError::DeadlineExceeded { deadline });
        }
    }
    Ok(())
}

/// A completed handshake: the channel plus what the `OK` frame granted.
struct Established {
    chan: FaultChannel<TcpChannel>,
    session_id: u64,
    chunk_gates: usize,
    token: u64,
    /// The server echoed the claimed session ID — the stashed extension
    /// state is live again and base OT must be skipped.
    resumed: bool,
}

/// Connects and handshakes, honoring `BUSY` backoff hints and retrying
/// chaos-killed hellos, until accepted or out of budget. A connect that
/// fails within `connect_timeout` ends the call at once. `resume` is the
/// `(session_id, token)` claim of a reconnect.
#[allow(clippy::too_many_arguments)]
fn establish(
    addr: &str,
    model_name: &str,
    fingerprint: u64,
    opts: &ClientOptions,
    rng_state: &mut u64,
    start: Instant,
    resume: Option<(u64, u64)>,
    busy_backoffs: &mut u64,
) -> Result<Established, ServeError> {
    let mut attempts = 0u32;
    loop {
        check_deadline(opts, start)?;
        let connect_budget = match opts.deadline {
            Some(d) => opts.connect_timeout.min(d.saturating_sub(start.elapsed())),
            None => opts.connect_timeout,
        };
        // `connect_retry` already spent the whole connect budget waiting
        // for a listener; retrying it here would multiply that wait by the
        // attempt cap on a dead server.
        let mut tcp = TcpChannel::connect_retry(addr, connect_budget)?;
        let handshake =
            (|| -> Result<(FramedChannel<FaultChannel<TcpChannel>>, proto::Reply), ServeError> {
                tcp.set_io_timeouts(opts.io_timeout, opts.io_timeout)?;
                let chan = match opts.chaos {
                    // Re-key the fault schedule per connection (still fully
                    // deterministic via the jitter stream): a drop that lands
                    // at a fixed operation index must not recur at the same
                    // spot on every reconnect, or no retry budget ever gets a
                    // session past it — real networks don't fail on a replay
                    // schedule either.
                    Some(spec) => FaultChannel::new(
                        tcp,
                        ChaosSpec {
                            seed: spec.seed.wrapping_add(splitmix64(rng_state)),
                            ..spec
                        },
                    ),
                    None => FaultChannel::transparent(tcp),
                };
                let mut framed = FramedChannel::new(chan);
                let hello = match resume {
                    Some((sid, token)) => proto::hello_resume(model_name, fingerprint, sid, token),
                    None => proto::hello(model_name, fingerprint),
                };
                framed.send_frame(hello.as_bytes())?;
                let reply =
                    proto::parse_reply(&framed.recv_frame()?).map_err(ServeError::Handshake)?;
                Ok((framed, reply))
            })();
        match handshake {
            Ok((
                framed,
                proto::Reply::Accepted {
                    session_id,
                    chunk_gates,
                    token,
                },
            )) => {
                return Ok(Established {
                    chan: framed.into_inner(),
                    session_id,
                    chunk_gates,
                    token,
                    resumed: resume.is_some_and(|(sid, _)| sid == session_id),
                });
            }
            Ok((_, proto::Reply::Busy { retry_after_ms })) => {
                attempts += 1;
                if attempts > opts.busy_attempt_cap {
                    return Err(ServeError::Busy { retry_after_ms });
                }
                *busy_backoffs += 1;
                std::thread::sleep(jittered(
                    Duration::from_millis(retry_after_ms.max(1)),
                    rng_state,
                ));
            }
            Err(e) if is_transport(&e) => {
                attempts += 1;
                if attempts > HANDSHAKE_ATTEMPT_CAP {
                    return Err(e);
                }
                std::thread::sleep(jittered(Duration::from_millis(25), rng_state));
            }
            Err(e) => return Err(e),
        }
    }
}

/// The evaluator session for one fresh base-OT setup, keyed by `seed`
/// (fresh receiver randomness per setup). The server decides the
/// chunking; adopting `chunk_gates` from its `OK` frame is what keeps both
/// sides' derived chunk boundaries identical.
fn fresh_setup(
    compiled: &Arc<Compiled>,
    opts: &ClientOptions,
    seed: u64,
    chunk_gates: usize,
    chan: &mut FaultChannel<TcpChannel>,
) -> Result<(ServerSession, ServerSetup), ServeError> {
    let cfg = InferenceConfig {
        seed,
        chunk_gates,
        threads: opts.threads,
        deadline: opts.deadline,
        ..demo::inference_config()
    };
    let session = ServerSession::new(Arc::clone(compiled), &cfg);
    let setup = session.setup(chan)?;
    Ok((session, setup))
}

impl ServeClient {
    /// Connects (with retry while the server comes up), handshakes, and
    /// runs the one-time base-OT setup. `seed` varies the client's OT
    /// randomness per connection.
    ///
    /// # Errors
    ///
    /// Fails on connection/handshake/OT failure, including the server's
    /// `ERR` rejection reason.
    pub fn connect(
        addr: &str,
        model: &ClientModel,
        seed: u64,
        timeout: Duration,
    ) -> Result<ServeClient, ServeError> {
        Self::connect_opts(
            addr,
            model,
            ClientOptions {
                seed,
                connect_timeout: timeout,
                ..ClientOptions::default()
            },
        )
    }

    /// Connects with the full resilience knob set.
    ///
    /// # Errors
    ///
    /// Fails on connection/handshake/OT failure (after exhausting the
    /// retry budget), the server's `ERR` rejection, an un-backed-off
    /// `BUSY` storm, or a blown deadline.
    pub fn connect_opts(
        addr: &str,
        model: &ClientModel,
        opts: ClientOptions,
    ) -> Result<ServeClient, ServeError> {
        let start = Instant::now();
        let mut rng_state = opts.seed ^ 0xc11e_4775_ba5e_0ff5;
        let mut busy_backoffs = 0u64;
        let mut retries = 0u64;
        let mut attempt = 0u32;
        loop {
            check_deadline(&opts, start)?;
            let est = establish(
                addr,
                &model.demo.name,
                model.demo.fingerprint,
                &opts,
                &mut rng_state,
                start,
                None,
                &mut busy_backoffs,
            )?;
            let seed = opts.seed.wrapping_add(u64::from(attempt));
            let mut chan = est.chan;
            match fresh_setup(
                &model.demo.compiled,
                &opts,
                seed,
                est.chunk_gates,
                &mut chan,
            ) {
                Ok((session, setup)) => {
                    return Ok(ServeClient {
                        setup_bytes_total: setup.base_ot_bytes(),
                        chan,
                        session,
                        setup,
                        e_bits: vec![model.weight_bits.clone()],
                        samples: model.demo.dataset.len(),
                        start,
                        addr: addr.to_string(),
                        model_name: model.demo.name.clone(),
                        fingerprint: model.demo.fingerprint,
                        compiled: Arc::clone(&model.demo.compiled),
                        opts,
                        rng_state,
                        token: est.token,
                        session_id: est.session_id,
                        chunk_gates: est.chunk_gates,
                        offline_s: start.elapsed().as_secs_f64(),
                        retries,
                        resumes: 0,
                        fresh_reconnects: 0,
                        busy_backoffs,
                    });
                }
                Err(e) => {
                    if !is_transport(&e) || attempt >= opts.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    retries += 1;
                    std::thread::sleep(jittered(Duration::from_millis(25), &mut rng_state));
                }
            }
        }
    }

    /// Both directions of the current session's base-OT setup traffic
    /// (the offline bytes; requests report everything else).
    pub fn setup_bytes(&self) -> u64 {
        self.setup.base_ot_bytes()
    }

    /// Base-OT traffic summed over every fresh setup this client ever
    /// paid — a resumed reconnect adds **zero** here, which is exactly
    /// what the resumption tests assert.
    pub fn total_setup_bytes(&self) -> u64 {
        self.setup_bytes_total
    }

    /// The fault-injection wrapper around this session's socket — tests
    /// script precise drops (`set_drop_at`) and read the op counter
    /// through it.
    pub fn fault_channel_mut(&mut self) -> &mut FaultChannel<TcpChannel> {
        &mut self.chan
    }

    /// Reconnects after a transport failure: resumes the OT-extension
    /// state when it survived at a batch boundary, otherwise pays a
    /// fresh base-OT setup.
    fn reconnect(&mut self) -> Result<(), ServeError> {
        // Kill the dead socket first: the server's blocked I/O on it must
        // fail (so it parks the session for resumption) before our RESUME
        // hello arrives on the new connection.
        self.chan.inner_mut().close();
        let claim = if self.setup.resumable() {
            Some((self.session_id, self.token))
        } else {
            None
        };
        let est = establish(
            &self.addr,
            &self.model_name,
            self.fingerprint,
            &self.opts,
            &mut self.rng_state,
            self.start,
            claim,
            &mut self.busy_backoffs,
        )?;
        self.chan = est.chan;
        self.session_id = est.session_id;
        self.token = est.token;
        if est.resumed {
            // The server re-attached the stashed sender state; the local
            // receiver state picks up in lockstep. No base OT, no extra
            // flights.
            self.resumes += 1;
        } else {
            self.fresh_reconnects += 1;
            let seed = self.opts.seed.wrapping_add(self.fresh_reconnects << 16);
            self.chunk_gates = est.chunk_gates;
            (self.session, self.setup) = fresh_setup(
                &self.compiled,
                &self.opts,
                seed,
                est.chunk_gates,
                &mut self.chan,
            )?;
            self.setup_bytes_total += self.setup.base_ot_bytes();
        }
        Ok(())
    }

    /// Runs one online inference for dataset sample `sample`, re-issuing
    /// the whole query on a new connection after a transport failure
    /// (resuming the OT-extension state when possible). A retried query
    /// never splits one garbling across attempts: every issue runs
    /// against fresh server-side material from the sample index on.
    ///
    /// # Errors
    ///
    /// Fails on a non-transport error, an exhausted retry budget, or a
    /// blown session deadline.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is outside the model's dataset.
    pub fn query(&mut self, sample: usize) -> Result<QueryOutcome, ServeError> {
        assert!(
            sample < self.samples,
            "sample {sample} out of range ({} samples)",
            self.samples
        );
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.try_query(sample, t0) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    if !is_transport(&e) || attempt >= self.opts.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries += 1;
                    check_deadline(&self.opts, self.start)?;
                    std::thread::sleep(jittered(Duration::from_millis(25), &mut self.rng_state));
                    self.reconnect()?;
                }
            }
        }
    }

    /// One issue of a query on the current connection.
    fn try_query(&mut self, sample: usize, t0: Instant) -> Result<QueryOutcome, ServeError> {
        self.chan.send_u64(sample as u64)?;
        let out = self.session.run_online(
            &mut self.chan,
            &mut self.setup,
            &self.e_bits,
            Instant::now(),
        )?;
        let label = usize::try_from(self.chan.recv_u64()?)
            .map_err(|_| ServeError::Handshake("label does not fit a usize".to_string()))?;
        Ok(QueryOutcome {
            label,
            online_s: t0.elapsed().as_secs_f64(),
            wire: out.wire,
            peak_material_bytes: out.peak_material_bytes,
        })
    }

    /// Ends the session cleanly (the server counts it as completed).
    ///
    /// # Errors
    ///
    /// Fails if the DONE marker cannot be sent.
    pub fn finish(mut self) -> Result<(), ServeError> {
        self.chan.send_u64(proto::DONE)?;
        self.chan.flush()?;
        Ok(())
    }
}
