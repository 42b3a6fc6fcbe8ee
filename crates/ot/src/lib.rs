//! Oblivious transfer for DeepSecure's GC step (ii).
//!
//! The evaluator's input wire labels (the server's DL-parameter bits) are
//! delivered through 1-out-of-2 OT (§2.2.1). This crate implements the
//! standard two-tier construction:
//!
//! * [`base`] — the two-flight Chou–Orlandi random OT over
//!   [`ristretto`]'s prime-order Ristretto255 group (one variable-base
//!   scalar multiplication per transfer on the critical path, 32 bytes
//!   per element).
//! * [`ext`] — IKNP OT extension: 128 base OTs seed pseudorandom
//!   correlations that stretch to millions of wire-label transfers using
//!   only the fixed-key AES hash.
//! * [`channel`] — the byte-counted duplex the two (or three, in
//!   outsourcing mode) parties talk over; the counters are what the
//!   communication columns of Tables 4–6 measure. [`channel::MemChannel`]
//!   joins in-process threads; [`tcp::TcpChannel`] joins real processes
//!   over sockets; [`framed::FramedChannel`] frames the handshake lines
//!   that precede the protocol; [`sim::SimChannel`] models LAN/WAN
//!   latency and bandwidth in-process; [`fault::FaultChannel`] injects a
//!   seeded, deterministic schedule of delays, short reads/writes, and
//!   connection drops for resilience testing.
//!
//! # Example
//!
//! ```no_run
//! use deepsecure_ot::channel::mem_pair;
//! use deepsecure_ot::ext::{ExtReceiver, ExtSender};
//! use deepsecure_ot::Ristretto255;
//! use deepsecure_crypto::Block;
//! use rand::SeedableRng;
//!
//! let (mut ca, mut cb) = mem_pair();
//! let handle = std::thread::spawn(move || {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!     let mut sender = ExtSender::setup(&mut ca, &Ristretto255, &mut rng).unwrap();
//!     sender
//!         .send(&mut ca, &[(Block::from(1u128), Block::from(2u128))])
//!         .unwrap();
//! });
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let mut receiver = ExtReceiver::setup(&mut cb, &Ristretto255, &mut rng).unwrap();
//! let got = receiver.receive(&mut cb, &[true]).unwrap();
//! assert_eq!(got[0], Block::from(2u128));
//! handle.join().unwrap();
//! ```

// A panic mid-session tears the session down: non-test code returns errors.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod base;
pub mod channel;
pub mod ext;
pub mod fault;
pub mod framed;
pub mod ristretto;
pub mod sim;
pub mod tcp;

pub use base::{Group, ReceiverKeys};
pub use channel::{mem_pair, Channel, ChannelError, MemChannel};
pub use ext::SenderPrecomp;
pub use fault::{ChaosSpec, FaultChannel, FaultProfile};
pub use framed::FramedChannel;
pub use ristretto::Ristretto255;
pub use sim::{NetModel, SimChannel};
pub use tcp::{tcp_pair, TcpChannel};

/// One splitmix64 step: advances `state` and returns the next draw. The
/// one seeded stream behind every deterministic schedule that is not
/// cryptographic — [`FaultChannel`]'s fault draws, connect and retry
/// backoff jitter, `loadgen`'s Poisson arrivals. Statistically fine for
/// that and trivially reproducible — determinism is the point.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `d` scaled by a factor drawn uniformly from `[0.5, 1.5)` with one
/// [`splitmix64`] step of `state` — simultaneous clients must not retry
/// in lockstep.
pub fn jittered(d: std::time::Duration, state: &mut u64) -> std::time::Duration {
    let factor = 512 + (splitmix64(state) & 1023);
    let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    std::time::Duration::from_nanos((nanos / 1024).saturating_mul(factor))
}

/// Errors produced by the OT protocols.
#[derive(Debug)]
pub enum OtError {
    /// The underlying channel failed (peer hung up).
    Channel(ChannelError),
    /// A received group element or message was malformed.
    Protocol(String),
}

impl std::fmt::Display for OtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OtError::Channel(e) => write!(f, "ot channel failure: {e}"),
            OtError::Protocol(m) => write!(f, "ot protocol violation: {m}"),
        }
    }
}

impl std::error::Error for OtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OtError::Channel(e) => Some(e),
            OtError::Protocol(_) => None,
        }
    }
}

impl From<ChannelError> for OtError {
    fn from(e: ChannelError) -> OtError {
        OtError::Channel(e)
    }
}
