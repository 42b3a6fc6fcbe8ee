use crate::aes::Aes128;
use crate::Block;

/// The fixed-key-cipher hash used for garbling and OT extension.
///
/// Computes `H(L, t) = π(2L ⊕ T(t)) ⊕ (2L ⊕ T(t))` where `π` is AES-128
/// under a fixed public key, `2L` is doubling in GF(2^128) and `T(t)`
/// embeds the gate/row tweak. This is the standard MMO-style construction
/// from Bellare et al. (S&P 2013) as used by the half-gates paper
/// (Zahur–Rosulek–Evans, Eurocrypt 2015).
///
/// # Example
///
/// ```
/// use deepsecure_crypto::{Block, FixedKeyHash};
///
/// let h = FixedKeyHash::new();
/// let a = h.hash(Block::from(5u128), 0);
/// let b = h.hash(Block::from(5u128), 1);
/// assert_ne!(a, b, "tweaks separate hash instances");
/// ```
#[derive(Clone, Debug)]
pub struct FixedKeyHash {
    cipher: Aes128,
}

/// The fixed public AES key. Any value works; this one spells out the
/// construction's provenance.
const FIXED_KEY: [u8; 16] = *b"DeepSecure-FKC13";

/// Blocks per AES call in [`FixedKeyHash::hash_many`]: four full
/// eight-block passes, so the one non-inlinable call into the hardware
/// backend is amortised over 32 hashes.
const MANY_WIDTH: usize = 32;

impl FixedKeyHash {
    /// Creates the hash with the canonical fixed key, on the fastest AES
    /// backend this CPU offers.
    pub fn new() -> FixedKeyHash {
        FixedKeyHash {
            cipher: Aes128::new(FIXED_KEY),
        }
    }

    /// The same hash on the portable T-table backend whatever the CPU
    /// offers, so tests and benches can exercise and time the fallback on
    /// an AES-NI host. Bit-identical to [`FixedKeyHash::new`].
    pub fn portable() -> FixedKeyHash {
        FixedKeyHash {
            cipher: Aes128::portable(FIXED_KEY),
        }
    }

    /// Which AES backend this hash runs on; see [`Aes128::backend_name`].
    pub fn backend_name(&self) -> &'static str {
        self.cipher.backend_name()
    }

    /// `x ← π(x) ⊕ x` for every block of `xs` in one AES call, with `pt`
    /// (at least as long) as the cipher's working buffer.
    #[inline]
    fn permute_xor(&self, xs: &mut [Block], pt: &mut [[u8; 16]]) {
        let pt = &mut pt[..xs.len()];
        for (p, x) in pt.iter_mut().zip(xs.iter()) {
            *p = x.to_bytes();
        }
        self.cipher.encrypt_slice(pt);
        for (x, p) in xs.iter_mut().zip(pt.iter()) {
            *x ^= Block::from_bytes(*p);
        }
    }

    /// Hashes a single label under tweak `tweak`.
    #[inline]
    pub fn hash(&self, label: Block, tweak: u64) -> Block {
        let x = label.gf_double() ^ Block::from(u128::from(tweak));
        let y = Block::from_bytes(self.cipher.encrypt_block(x.to_bytes()));
        y ^ x
    }

    /// Hashes `N` labels in one batched AES pass; bit-identical to `N`
    /// scalar [`FixedKeyHash::hash`] calls.
    ///
    /// The garbler uses `N = 4` (an AND gate needs exactly the four hashes
    /// `hg0/hg1/he0/he1`) and the evaluator `N = 2` (one hash per half
    /// gate); batching lets the independent AES rounds pipeline instead of
    /// serializing block by block.
    #[inline]
    pub fn hash_batch<const N: usize>(&self, labels: [Block; N], tweaks: [u64; N]) -> [Block; N] {
        let mut x: [Block; N] =
            core::array::from_fn(|i| labels[i].gf_double() ^ Block::from(u128::from(tweaks[i])));
        self.permute_xor(&mut x, &mut [[0u8; 16]; N]);
        x
    }

    /// Batched hash of the four labels one AND gate consumes
    /// (`hg0/hg1/he0/he1`); see [`FixedKeyHash::hash_batch`].
    #[inline]
    pub fn hash4(&self, labels: [Block; 4], tweaks: [u64; 4]) -> [Block; 4] {
        self.hash_batch(labels, tweaks)
    }

    /// Batched hash of the two labels the evaluator's half-gates step
    /// consumes; see [`FixedKeyHash::hash_batch`].
    #[inline]
    pub fn hash2(&self, labels: [Block; 2], tweaks: [u64; 2]) -> [Block; 2] {
        self.hash_batch(labels, tweaks)
    }

    /// Hashes every label of `labels` in place under the tweak at the same
    /// index; bit-identical to scalar [`FixedKeyHash::hash`] calls.
    ///
    /// This is the seam for callers that hold many independent labels at
    /// once — a tile of OT-extension rows: the AES rounds run eight blocks
    /// in flight and the call into the hardware backend is paid once per
    /// 32 hashes, not once per row.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `tweaks` differ in length.
    pub fn hash_many(&self, labels: &mut [Block], tweaks: &[u64]) {
        assert_eq!(labels.len(), tweaks.len(), "one tweak per label");
        let mut pt = [[0u8; 16]; MANY_WIDTH];
        for (xs, ts) in labels.chunks_mut(MANY_WIDTH).zip(tweaks.chunks(MANY_WIDTH)) {
            for (x, &t) in xs.iter_mut().zip(ts) {
                *x = x.gf_double() ^ Block::from(u128::from(t));
            }
            self.permute_xor(xs, &mut pt);
        }
    }

    /// Hashes two labels jointly (used by 4-row garbling schemes and tests):
    /// `H(A, B, t) = π(4A ⊕ 2B ⊕ T(t)) ⊕ (4A ⊕ 2B ⊕ T(t))`.
    pub fn hash_pair(&self, a: Block, b: Block, tweak: u64) -> Block {
        let x = a.gf_double().gf_double() ^ b.gf_double() ^ Block::from(u128::from(tweak));
        let y = Block::from_bytes(self.cipher.encrypt_block(x.to_bytes()));
        y ^ x
    }

    /// Hashes an arbitrary byte string to one block via Matyas–Meyer–Oseas
    /// chaining over the fixed-key permutation, with the length and tweak
    /// folded into the initial state. Used to derive OT key-encapsulation
    /// masks from group elements.
    pub fn hash_bytes(&self, data: &[u8], tweak: u64) -> Block {
        let mut state = Block::from(u128::from(tweak) ^ ((data.len() as u128) << 64));
        for chunk in data.chunks(16) {
            let mut padded = [0u8; 16];
            padded[..chunk.len()].copy_from_slice(chunk);
            let m = Block::from_bytes(padded);
            let x = state ^ m;
            let y = Block::from_bytes(self.cipher.encrypt_block(x.to_bytes()));
            state = y ^ x;
        }
        // One final permutation so short inputs are not the identity.
        let y = Block::from_bytes(self.cipher.encrypt_block(state.to_bytes()));
        y ^ state
    }
}

impl Default for FixedKeyHash {
    fn default() -> FixedKeyHash {
        FixedKeyHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = FixedKeyHash::new();
        assert_eq!(h.hash(Block::from(9u128), 3), h.hash(Block::from(9u128), 3));
    }

    #[test]
    fn label_sensitivity() {
        let h = FixedKeyHash::new();
        assert_ne!(h.hash(Block::from(1u128), 0), h.hash(Block::from(2u128), 0));
    }

    #[test]
    fn pair_order_matters() {
        let h = FixedKeyHash::new();
        let a = Block::from(0xaaaa_u128);
        let b = Block::from(0xbbbb_u128);
        assert_ne!(h.hash_pair(a, b, 0), h.hash_pair(b, a, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn hash4_equals_four_scalar_hashes(
            labels in proptest::collection::vec(proptest::prelude::any::<u128>(), 4..5),
            tweaks in proptest::collection::vec(proptest::prelude::any::<u64>(), 4..5),
        ) {
            let h = FixedKeyHash::new();
            let ls: [Block; 4] = core::array::from_fn(|i| Block::from(labels[i]));
            let ts: [u64; 4] = core::array::from_fn(|i| tweaks[i]);
            let batched = h.hash4(ls, ts);
            for i in 0..4 {
                proptest::prop_assert_eq!(batched[i], h.hash(ls[i], ts[i]));
            }
        }
    }

    #[test]
    fn hash_many_equals_scalar_hashes_on_both_backends() {
        // Lengths around the eight-block pass width and the 32-block call
        // width; the portable hash is the cross-backend reference.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (h, portable) = (FixedKeyHash::new(), FixedKeyHash::portable());
        assert_eq!(portable.backend_name(), "t-table");
        let mut rng = StdRng::seed_from_u64(17);
        for n in [0usize, 1, 7, 8, 9, 64] {
            let labels: Vec<Block> = (0..n).map(|_| Block::random(&mut rng)).collect();
            let tweaks: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let scalar: Vec<Block> = labels
                .iter()
                .zip(&tweaks)
                .map(|(&l, &t)| portable.hash(l, t))
                .collect();
            for hash in [&h, &portable] {
                let mut many = labels.clone();
                hash.hash_many(&mut many, &tweaks);
                assert_eq!(many, scalar, "{} at n = {n}", hash.backend_name());
            }
            for (&l, &t) in labels.iter().zip(&tweaks) {
                assert_eq!(h.hash(l, t), portable.hash(l, t));
            }
        }
    }

    #[test]
    fn hash2_equals_two_scalar_hashes() {
        let h = FixedKeyHash::new();
        let ls = [Block::from(0x1234_u128), Block::from(0x5678_u128)];
        let ts = [7u64, 8u64];
        let batched = h.hash2(ls, ts);
        assert_eq!(batched[0], h.hash(ls[0], ts[0]));
        assert_eq!(batched[1], h.hash(ls[1], ts[1]));
    }

    #[test]
    fn no_collisions_on_random_labels() {
        // The construction mixes label and tweak as 2L ⊕ t, which is only
        // collision-free for the *random* labels the garbler actually uses
        // (for tiny structured labels, 2L ⊕ t overlaps trivially).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let h = FixedKeyHash::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let label = Block::random(&mut rng);
            for t in 0..4u64 {
                assert!(seen.insert(h.hash(label, t)));
            }
        }
    }
}
