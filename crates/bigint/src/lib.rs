//! Minimal multiprecision arithmetic for MODP Diffie-Hellman groups.
//!
//! Every session's base OTs run in Ristretto255 (`deepsecure_ot::ristretto`).
//! This crate is kept only for the `dsbench` ladder, whose
//! `bigint.modexp_us`, `ot.base_setup_ms` and `ot.base_bytes` rows still
//! measure the 768-bit MODP group (RFC 2409 / RFC 3526 primes). It
//! implements that arithmetic from scratch:
//!
//! * [`Ubig`] — an arbitrary-precision unsigned integer over 64-bit limbs
//!   with schoolbook multiplication and binary long division.
//! * [`Mont`] — a Montgomery (CIOS) multiplication context providing fast
//!   `modpow` for odd moduli.
//! * [`DhGroup`] — named groups: RFC 3526 1536/2048-bit, the RFC 2409
//!   768-bit group for tests, and a tiny 64-bit toy group for property
//!   tests.
//!
//! # Example
//!
//! ```
//! use deepsecure_bigint::{DhGroup, Ubig};
//!
//! let group = DhGroup::modp_768();
//! let x = Ubig::from(123_456_789u64);
//! let gx = group.pow(&group.generator().clone(), &x);
//! assert!(gx < *group.prime());
//! ```

mod group;
mod mont;
mod ubig;

pub use group::DhGroup;
pub use mont::Mont;
pub use ubig::{ParseUbigError, Ubig};
