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
        let x = hash_input(label, tweak);
        let y = Block::from_bytes(self.cipher.encrypt_block(x.to_bytes()));
        y ^ x
    }

    /// Batched hash of the four labels one AND gate consumes
    /// (`hg0/hg1/he0/he1`); bit-identical to four scalar
    /// [`FixedKeyHash::hash`] calls. The gate walks hash through
    /// [`FixedKeyHash::run`] instead; this is the one-call form.
    #[inline]
    pub fn hash4(&self, labels: [Block; 4], tweaks: [u64; 4]) -> [Block; 4] {
        let mut x: [Block; 4] = core::array::from_fn(|i| hash_input(labels[i], tweaks[i]));
        self.permute_xor(&mut x, &mut [[0u8; 16]; 4]);
        x
    }

    /// Runs `walk` with this hash's AES backend as a [`GateHash`] kernel —
    /// how a party's gate walk hashes. On AES-NI the whole walk is compiled
    /// into one `#[target_feature]` frame: the round keys stay in
    /// registers for the call and `2L ⊕ T(t)`, the ten rounds and the
    /// feed-forward XOR inline into the walk. On the T-tables it runs as
    /// ordinary code. Either way every hash is bit-identical to
    /// [`FixedKeyHash::hash`].
    #[inline]
    pub fn run<W: GateWalk>(&self, walk: W) -> W::Output {
        self.cipher.run(walk)
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
                *x = hash_input(*x, t);
            }
            self.permute_xor(xs, &mut pt);
        }
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

/// The cipher input of `H(L, t)`: `2L ⊕ T(t)`.
#[inline(always)]
fn hash_input(label: Block, tweak: u64) -> Block {
    label.gf_double() ^ Block::from(u128::from(tweak))
}

/// One AES backend's fixed-key hash as a gate walk sees it: the kernel
/// [`FixedKeyHash::run`] hands to a [`GateWalk`].
pub trait GateHash {
    /// `x ↦ π(x) ⊕ x` on each of `N` blocks: the backend's part of the
    /// hash.
    fn permute_xor<const N: usize>(&self, x: [Block; N]) -> [Block; N];

    /// `H(L, t)` of `N` labels at once; bit-identical to `N` scalar
    /// [`FixedKeyHash::hash`] calls. The garbler hashes four labels per
    /// AND gate, the evaluator two.
    #[inline(always)]
    fn hash<const N: usize>(&self, labels: [Block; N], tweaks: [u64; N]) -> [Block; N] {
        self.permute_xor(core::array::from_fn(|i| hash_input(labels[i], tweaks[i])))
    }
}

/// Code that hashes through whichever [`GateHash`] kernel this CPU's AES
/// backend provides — a party's gate walk, written once and compiled once
/// per kernel. Run it with [`FixedKeyHash::run`].
pub trait GateWalk {
    /// What the walk returns.
    type Output;

    /// Runs the walk with `hash` as its fixed-key hash.
    fn walk<H: GateHash>(self, hash: &H) -> Self::Output;
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
    fn kernels_hash_like_the_scalar_hash_on_both_backends() {
        // What `run` hands a walk, at the garbler's and the evaluator's
        // batch widths; the portable scalar hash is the reference.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        struct Walk([Block; 4], [u64; 4]);
        impl GateWalk for Walk {
            type Output = ([Block; 4], [Block; 2]);
            fn walk<H: GateHash>(self, hash: &H) -> Self::Output {
                let Walk(l, t) = self;
                (hash.hash(l, t), hash.hash([l[0], l[1]], [t[0], t[1]]))
            }
        }
        let portable = FixedKeyHash::portable();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let labels: [Block; 4] = core::array::from_fn(|_| Block::random(&mut rng));
            let tweaks: [u64; 4] = core::array::from_fn(|_| rng.gen());
            let want: [Block; 4] = core::array::from_fn(|i| portable.hash(labels[i], tweaks[i]));
            for hash in [FixedKeyHash::new(), FixedKeyHash::portable()] {
                let (four, two) = hash.run(Walk(labels, tweaks));
                assert_eq!(four, want, "{}", hash.backend_name());
                assert_eq!(two, [want[0], want[1]], "{}", hash.backend_name());
            }
        }
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
