//! `deepsecure-serve` — a concurrent secure-inference serving layer.
//!
//! DeepSecure's garbling phase is input-independent (§3.1), so the paper's
//! cost model puts the heavy work — garbled tables, OT setup — **offline**
//! and leaves only a cheap online phase per query. This crate turns that
//! observation into a deployment shape:
//!
//! * [`server`] — a multi-threaded TCP server hosting the garbling party.
//!   One accept loop gives every connection its own handler thread, up to
//!   `queue_cap` open at once (the next arrival is shed with `BUSY`).
//!   Every accepted connection is one session: a framed handshake pins the
//!   model and circuit fingerprint, a one-time base-OT setup seeds IKNP,
//!   and then each request runs only the online phase (OT extension +
//!   table streaming + evaluation) against pre-garbled material.
//! * [`pool`] — the precompute pool: a background worker keeps N
//!   [`GarbledMaterial`] instances per zoo model and a stock of base-OT
//!   keypair precomputations ([`SenderPrecomp`]) so neither garbling nor
//!   the offline keypair half of the OT setup ever sits on a connection's
//!   critical path. The pool is chunk-aware: models whose per-instance
//!   material exceeds its cap (e.g. `mnist_mlp`'s ≈163 MB) are served as
//!   live-garbling seeds instead — the session garbles chunk runs while
//!   streaming, so paper-scale models don't pin O(circuit) bytes per
//!   pooled slot.
//! * [`registry`] — per-session IDs and their models: the table behind
//!   per-model admission, `RESUME` claims, and graceful shutdown (stop
//!   accepting, drain the sessions in flight).
//! * [`stats`] — per-request `WireBreakdown`/latency aggregation into
//!   one server-level accumulator of counters and latency histograms.
//! * [`metrics`] — a scrapeable Prometheus `/metrics` endpoint over the
//!   same [`stats`] snapshot, plus live pool/connection gauges and the
//!   process-wide per-phase wire-byte counters.
//! * [`proto`] — the framed request protocol shared by server and
//!   clients.
//! * [`client`] — [`client::ServeClient`]: the evaluator side of a
//!   session, driven by the `loadgen` binary and the concurrency tests.
//!   Each client is handled by the existing channel-generic
//!   [`ServerSession`] state machine — serving changed who *listens*, not
//!   the Fig. 3 roles.
//! * [`demo`] — the deterministic demo models (shared by `deepsecure_serve`
//!   and `loadgen`): both endpoints derive the same trained network from the same seed,
//!   standing in for pre-shared model parameters.
//!
//! [`GarbledMaterial`]: deepsecure_core::session::GarbledMaterial
//! [`SenderPrecomp`]: deepsecure_ot::SenderPrecomp
//! [`ServerSession`]: deepsecure_core::session::ServerSession

// A panic mid-session tears the session down: non-test code returns errors.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod demo;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod registry;
pub mod server;
pub mod stats;

use std::sync::{Mutex, MutexGuard};

use deepsecure_core::protocol::ProtocolError;
use deepsecure_ot::ChannelError;

/// Locks with poison recovery. Every mutex in this crate guards plain
/// data — stats, the session registry, pool queues, the resume stash, a
/// thread handle — that stays valid after a panic in one holder, so a
/// panicking session handler, fill worker or scrape handler must not wedge
/// every later connection behind a `PoisonError`: the pool degrades to
/// misses and the registry at worst keeps a stale entry the drain logic
/// already tolerates.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure outside the protocol proper.
    Channel(ChannelError),
    /// The secure-inference protocol itself failed.
    Protocol(ProtocolError),
    /// The peer spoke the framing but violated the request protocol.
    Handshake(String),
    /// Socket-level failure (bind/accept/configure).
    Io(std::io::Error),
    /// A model name the server does not host / cannot build.
    Model(String),
    /// The server shed the connection with a `BUSY` frame; back off for
    /// roughly the advertised hint before reconnecting.
    Busy {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The client's session deadline expired before the work completed.
    DeadlineExceeded {
        /// The configured deadline that was blown.
        deadline: std::time::Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Channel(e) => write!(f, "serve channel failure: {e}"),
            ServeError::Protocol(e) => write!(f, "serve protocol failure: {e}"),
            ServeError::Handshake(m) => write!(f, "serve handshake failure: {m}"),
            ServeError::Io(e) => write!(f, "serve io failure: {e}"),
            ServeError::Model(m) => write!(f, "serve model failure: {m}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ServeError::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "session deadline of {:.2} s exceeded",
                    deadline.as_secs_f64()
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Channel(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Handshake(_)
            | ServeError::Model(_)
            | ServeError::Busy { .. }
            | ServeError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<ChannelError> for ServeError {
    fn from(e: ChannelError) -> ServeError {
        ServeError::Channel(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> ServeError {
        ServeError::Protocol(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}
