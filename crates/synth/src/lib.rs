//! The GC-optimized circuit component library (paper §3.4, Table 3).
//!
//! Under Free-XOR, XOR-class gates are free and every AND-class gate costs
//! two 128-bit ciphertexts, so the synthesis objective is *minimum non-XOR
//! count* — the paper achieves it by giving a commercial synthesis tool a
//! custom library with XOR area 0. This crate provides the same component
//! set as hand-optimized netlist generators over
//! [`deepsecure_circuit::Builder`]:
//!
//! * [`arith`] — ripple-carry adders (1 AND/bit), subtractors, comparators,
//!   word MUXes, conditional negation, constant multiplication.
//! * [`mul`] / [`div`] — exact flooring fixed-point multiply (the
//!   semantics of [`deepsecure_fixed::Fixed::mul`], as a radix-4 Booth
//!   array) and sign-magnitude restoring division.
//! * [`lut`] — BDD-style lookup tables whose MUX trees collapse under the
//!   builder's hash-consing.
//! * [`cordic`] — hyperbolic-mode CORDIC with `3i+1` repeated iterations
//!   and ln-2 range reduction.
//! * [`activation`] — every nonlinearity variant of Table 3: `TanhLUT`,
//!   `Tanh2.10.12`, `TanhPL`, `TanhCORDIC`, the Sigmoid equivalents
//!   (including PLAN), ReLU, and argmax-Softmax.
//! * [`pool`] — max/mean pooling.
//! * [`matvec`] — combinational dot products / matrix-vector products with
//!   private (evaluator-input) weights, and the folded sequential MAC core
//!   of §3.5.
//!
//! # Example
//!
//! ```
//! use deepsecure_circuit::Builder;
//! use deepsecure_synth::{arith, word};
//!
//! let mut b = Builder::new();
//! let x = word::garbler_word(&mut b, 16);
//! let y = word::evaluator_word(&mut b, 16);
//! let sum = arith::add(&mut b, &x, &y);
//! word::output_word(&mut b, &sum);
//! let c = b.finish();
//! assert_eq!(c.stats().non_xor, 15, "n-1 AND gates for an n-bit adder");
//! ```

pub mod activation;
pub mod arith;
pub mod cordic;
pub mod div;
pub mod lut;
pub mod matvec;
pub mod mul;
pub mod pool;
pub mod word;

pub use word::Word;
