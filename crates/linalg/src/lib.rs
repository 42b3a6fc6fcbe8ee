//! Dense `f64` linear algebra for DeepSecure's data pre-processing.
//!
//! Algorithm 1 (streaming dictionary projection) needs matrix products and
//! vector kernels; [`Matrix::projector`] computes `W = D(DᵀD)⁻¹Dᵀ = UUᵀ`
//! through a thin QR basis, the independent reference Algorithm 1's
//! streamed `W` is tested against (and the object of Proposition 3.1: `W`
//! depends only on the column space of `D`). No BLAS.
//!
//! # Example
//!
//! ```
//! use deepsecure_linalg::Matrix;
//!
//! let d = Matrix::from_rows(&[
//!     vec![1.0, 0.0],
//!     vec![1.0, 1.0],
//!     vec![0.0, 2.0],
//! ]);
//! let w = d.projector();
//! // A projector is idempotent: W² = W.
//! let w2 = w.matmul(&w);
//! assert!(w.sub(&w2).frobenius_norm() < 1e-10);
//! ```

mod matrix;
pub mod vec_ops;

pub use matrix::Matrix;
