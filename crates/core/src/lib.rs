//! The DeepSecure framework (paper §3): everything above the substrates.
//!
//! * [`compile`] — the netlist compiler: a trained/pruned
//!   [`Network`] plus a nonlinearity selection becomes a
//!   garbled-circuit-ready [`Circuit`], with the public sparsity map
//!   removing pruned MACs (§3.2.2) and weights entering as evaluator
//!   (server) input bits.
//! * [`session`] — the two party halves of Fig. 3 as channel-generic
//!   state machines ([`session::ClientSession`] garbles,
//!   [`session::ServerSession`] evaluates): the same code runs as two
//!   threads, two OS processes over TCP, or under a simulated LAN/WAN.
//! * [`protocol`] — the in-process runners joining the two sessions: the
//!   client garbles, wire labels for the server's weights flow through
//!   IKNP OT, the server evaluates, and the result returns to the client
//!   for decoding. All phases are timed and byte-counted, with a
//!   per-phase wire breakdown.
//! * [`outsource`] — the XOR-sharing three-party mode of §3.3 for
//!   constrained clients.
//! * [`preprocess`] — Algorithm 1/2 (streaming dictionary projection) and
//!   the pruning pipeline, the paper's two pre-processing innovations.
//! * [`cost`] — the Table 2 cost model with measured β coefficients
//!   (§4.3) used to regenerate Tables 4–6 and Figure 6.
//!
//! [`Network`]: deepsecure_nn::Network
//! [`Circuit`]: deepsecure_circuit::Circuit

// A panic mid-session tears the session down: non-test code returns errors.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod compile;
pub mod cost;
pub mod outsource;
pub mod preprocess;
pub mod protocol;
pub mod session;
