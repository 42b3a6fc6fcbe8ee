//! DeepSecure — scalable provably-secure deep learning inference.
//!
//! This is the facade crate of the workspace: it re-exports every subsystem
//! of the DAC 2018 DeepSecure reproduction so that examples and downstream
//! users can depend on a single crate.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`crypto`] | `deepsecure-crypto` | wire labels, fixed-key AES hash, PRG |
//! | [`bigint`] | `deepsecure-bigint` | MODP arithmetic kept only for the dsbench ladder's `bigint.modexp_us` row |
//! | [`circuit`] | `deepsecure-circuit` | Boolean netlists, builder, passes |
//! | [`synth`] | `deepsecure-synth` | GC-optimized DL component library |
//! | [`fixed`] | `deepsecure-fixed` | Q1.3.12 fixed-point semantics |
//! | [`linalg`] | `deepsecure-linalg` | matrix + projector for Algorithm 1 |
//! | [`nn`] | `deepsecure-nn` | training, pruning, synthetic datasets |
//! | [`ot`] | `deepsecure-ot` | Ristretto255 base OT + IKNP extension, channels |
//! | [`garble`] | `deepsecure-garble` | half-gates garbler/evaluator |
//! | [`core`] | `deepsecure-core` | compiler, protocol, pre-processing, cost model |
//! | [`serve`] | `deepsecure-serve` | concurrent inference server + precompute pool |
//! | [`analyze`] | `deepsecure-analyze` | circuit verifier, cost analyzer, JSON report |
//! | [`trace`] | (this crate) | Chrome trace-event export shared by the binaries |
//! | [`cli`] | (this crate) | typed argument cursor + shared flag parsers of the binaries |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```no_run
//! use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
//! use deepsecure::nn::zoo;
//!
//! # fn main() {
//! let model = zoo::benchmark3_audio_dnn();
//! // ... train, then run two-party secure inference over in-memory channels.
//! # let _ = (model,);
//! # }
//! ```

pub mod cli;
pub mod trace;

pub use deepsecure_analyze as analyze;
pub use deepsecure_bigint as bigint;
pub use deepsecure_circuit as circuit;
pub use deepsecure_core as core;
pub use deepsecure_crypto as crypto;
pub use deepsecure_fixed as fixed;
pub use deepsecure_garble as garble;
pub use deepsecure_linalg as linalg;
pub use deepsecure_nn as nn;
pub use deepsecure_ot as ot;
pub use deepsecure_serve as serve;
pub use deepsecure_synth as synth;
