//! Boolean circuit infrastructure for GC-optimized synthesis.
//!
//! DeepSecure represents every function evaluated under Yao's protocol as a
//! *netlist* — a topologically ordered list of 2-input Boolean gates, possibly
//! with D-flip-flop registers so that large circuits can be folded into a
//! compact sequential core and run for many clock cycles (TinyGarble style,
//! paper §3.5).
//!
//! The crate plays the role the paper assigns to Synopsys Design Compiler
//! with a custom GC library: the [`Builder`] hash-conses structurally
//! identical gates, folds constants, and rewrites every gate into the
//! `{XOR, XNOR, NOT, AND}` basis so that the *non-XOR gate count* — the only
//! quantity that costs communication under Free-XOR — is minimized. Its
//! hash-consing is an index over the gate list it builds (per-wire reader
//! chains, plus a small table for gates between two heavily read wires),
//! so every lookup is a bounded number of steps and compiling `mnist_mlp`'s
//! 15 M gates takes ~1.5 s. The [`passes`] module re-optimizes imported
//! netlists, [`Simulator`] provides plaintext reference evaluation, and
//! [`netlist`] a text serialization. [`Circuit::digest`] pins an exact
//! gate list, for the serving handshake and `BENCH_RESULTS.json`.
//!
//! # Example
//!
//! ```
//! use deepsecure_circuit::Builder;
//!
//! let mut b = Builder::new();
//! let x = b.garbler_input();
//! let y = b.evaluator_input();
//! let s = b.xor(x, y);
//! let c = b.and(x, y);
//! b.output(s);
//! b.output(c);
//! let half_adder = b.finish();
//! assert_eq!(half_adder.stats().non_xor, 1);
//! assert_eq!(
//!     half_adder.eval(&[true], &[true]),
//!     vec![false, true] // 1 + 1 = 0b10
//! );
//! ```

mod builder;
pub mod diag;
mod ir;
pub mod netlist;
pub mod passes;
mod sim;

pub use builder::Builder;
pub use diag::{DiagCode, DiagLoc, Diagnostic, Severity};
pub use ir::{
    Circuit, Gate, GateKind, GateStats, Register, Wire, CONST_0, CONST_1, GATE_TABLE_BYTES,
};
pub use sim::Simulator;
