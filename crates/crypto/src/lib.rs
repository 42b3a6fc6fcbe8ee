//! Cryptographic primitives for the DeepSecure garbled-circuit engine.
//!
//! Everything in this crate is implemented from scratch (the AES-NI path
//! uses the CPU's round instruction, nothing else):
//!
//! * [`Block`] — a 128-bit wire label with XOR arithmetic and
//!   point-and-permute color bits.
//! * [`aes::Aes128`] — AES-128 (encryption direction only), used
//!   exclusively as a fixed-key public permutation per Bellare et al.,
//!   *Efficient Garbling from a Fixed-Key Blockcipher* (S&P 2013). One
//!   runtime check in [`aes::Aes128::new`] selects AES-NI where the CPU has
//!   it and a 32-bit T-table implementation elsewhere; both sit behind the
//!   multi-block [`aes::Aes128::encrypt_slice`] batch API, and the
//!   byte-oriented original survives as [`aes::reference::Aes128`], the
//!   property-test oracle for both.
//! * [`FixedKeyHash`] — the correlation-robust hash
//!   `H(L, t) = π(2L ⊕ t) ⊕ 2L` used by half-gates garbling and by the
//!   IKNP OT extension. [`FixedKeyHash::run`] runs a whole gate walk (a
//!   [`GateWalk`]) against the backend's [`GateHash`] kernel, inside one
//!   `#[target_feature]` frame on AES-NI; [`FixedKeyHash::hash4`] and
//!   [`FixedKeyHash::hash_many`] (a tile of OT rows) ride the multi-block
//!   AES one call at a time.
//! * [`Prg`] — an AES-CTR pseudorandom generator for label sampling and OT
//!   extension matrices.
//!
//! # Example
//!
//! ```
//! use deepsecure_crypto::{Block, FixedKeyHash};
//!
//! let h = FixedKeyHash::new();
//! let label = Block::from(0x1234_5678_9abc_def0_u128);
//! let digest = h.hash(label, 42);
//! assert_ne!(digest, label);
//! ```

pub mod aes;
mod block;
mod hash;
mod prg;

pub use block::Block;
pub use hash::{FixedKeyHash, GateHash, GateWalk};
pub use prg::Prg;
