//! AES-128, encryption direction only.
//!
//! The garbling engine uses AES strictly as a *fixed-key public permutation*
//! (Bellare–Hoang–Keelveedhi–Rogaway, S&P 2013), so decryption and key
//! schedules beyond 128-bit keys are intentionally not provided.
//!
//! [`Aes128`] is the production cipher. [`Aes128::new`] picks its backend
//! once, from what the CPU reports:
//!
//! * **AES-NI** on x86_64 when `is_x86_feature_detected!` sees `aes` and
//!   `sse4.1`: ten `aesenc` rounds with up to eight independent blocks in
//!   flight. The rounds are safe `#[target_feature]` functions; the calls
//!   into them are the workspace's only `unsafe` code, all in `hardware`
//!   under one `allow`, guarded by that runtime check.
//! * **T-tables** everywhere else (and through [`Aes128::portable`]): a
//!   32-bit implementation, four 1 KiB tables folding SubBytes + ShiftRows
//!   + MixColumns into one lookup per state byte.
//!
//! Both compute the same permutation, so which one runs never shows on the
//! wire. [`reference::Aes128`] — the original byte-oriented S-box + xtime
//! implementation — is the oracle both are property-tested against
//! (FIPS-197 vectors plus random-block equivalence).
//!
//! A `#[target_feature]` function inlines only into callers compiled with
//! the same features. Hot loops therefore come in two shapes: batch entry
//! points ([`Aes128::encrypt_slice`], [`Aes128::encrypt_blocks`]) that pay
//! one call for many blocks, and a whole loop handed over as a
//! [`GateWalk`] and compiled into a `#[target_feature]` frame
//! ([`crate::FixedKeyHash::run`]), where every hash of the loop inlines.
//!
//! The T-table path is not constant-time; within the garbling model the key
//! and inputs are public, so cache-timing on the tables leaks nothing the
//! adversary does not already know.

use crate::hash::{GateHash, GateWalk};
use crate::Block;

/// AES S-box (shared by the key schedules, the T-table final round, and the
/// reference implementation).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// T0 packs one byte's SubBytes + MixColumns contribution for row 0 of a
/// column: `T0[x] = (2·S(x), S(x), S(x), 3·S(x))` as a big-endian word. The
/// tables for rows 1–3 are byte rotations of T0 (the MixColumns matrix is
/// circulant), derived in [`rotate_table`].
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

const fn rotate_table(src: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(bits);
        i += 1;
    }
    t
}

const T0: [u32; 256] = build_t0();
const T1: [u32; 256] = rotate_table(&T0, 8);
const T2: [u32; 256] = rotate_table(&T0, 16);
const T3: [u32; 256] = rotate_table(&T0, 24);

/// An AES-128 cipher with an expanded key schedule, on the fastest backend
/// this CPU offers (see the module docs for the selection rule).
///
/// # Example
///
/// ```
/// use deepsecure_crypto::aes::Aes128;
///
/// // FIPS-197 appendix C.1 test vector.
/// let key = [
///     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
///     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
/// ];
/// let aes = Aes128::new(key);
/// let pt = [
///     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
///     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
/// ];
/// let ct = aes.encrypt_block(pt);
/// assert_eq!(ct[0], 0x69);
/// assert_eq!(ct[15], 0x5a);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend,
}

#[derive(Clone)]
enum Backend {
    Portable(Portable),
    #[cfg(target_arch = "x86_64")]
    Hardware(hardware::Hardware),
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128")
            .field("backend", &self.backend_name())
            .finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands `key` on the AES-NI backend when the CPU has it, on the
    /// T-table backend otherwise.
    pub fn new(key: [u8; 16]) -> Aes128 {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = hardware::Hardware::new(key) {
            return Aes128 {
                backend: Backend::Hardware(hw),
            };
        }
        Aes128::portable(key)
    }

    /// Expands `key` on the T-table backend whatever the CPU offers — what
    /// [`Aes128::new`] falls back to. Public so tests and benches can
    /// exercise and time the fallback on an AES-NI host.
    pub fn portable(key: [u8; 16]) -> Aes128 {
        Aes128 {
            backend: Backend::Portable(Portable::new(key)),
        }
    }

    /// Which backend this cipher runs on: `"aes-ni"` or `"t-table"`.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Portable(_) => "t-table",
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(_) => "aes-ni",
        }
    }

    /// Encrypts one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_blocks([block])[0]
    }

    /// Encrypts `N` independent 16-byte blocks in one pass; see
    /// [`Aes128::encrypt_slice`].
    #[inline]
    pub fn encrypt_blocks<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        let mut out = blocks;
        self.encrypt_slice(&mut out);
        out
    }

    /// Encrypts every block of `blocks` in place.
    ///
    /// Independent blocks advance round by round together (eight per pass
    /// on AES-NI, two on the T-tables), so their rounds pipeline instead of
    /// serializing — this is the hot path behind `FixedKeyHash` (one AND
    /// gate needs exactly four hashes) and the PRG's counter-mode expansion.
    #[inline]
    pub fn encrypt_slice(&self, blocks: &mut [[u8; 16]]) {
        match &self.backend {
            Backend::Portable(p) => p.encrypt_slice(blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(hw) => hw.encrypt_slice(blocks),
        }
    }

    /// Runs `walk` with this cipher's backend as its [`GateHash`] kernel;
    /// see [`crate::FixedKeyHash::run`].
    #[inline]
    pub(crate) fn run<W: GateWalk>(&self, walk: W) -> W::Output {
        match &self.backend {
            Backend::Portable(p) => walk.walk(p),
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(hw) => hw.run(walk),
        }
    }
}

#[inline]
fn sub_word(w: u32) -> u32 {
    (u32::from(SBOX[(w >> 24) as usize]) << 24)
        | (u32::from(SBOX[(w >> 16 & 0xff) as usize]) << 16)
        | (u32::from(SBOX[(w >> 8 & 0xff) as usize]) << 8)
        | u32::from(SBOX[(w & 0xff) as usize])
}

/// The T-table backend.
#[derive(Clone)]
struct Portable {
    /// Round keys as big-endian column words: `round_keys[r][j]` covers
    /// state bytes `4j..4j+4` of round `r`.
    round_keys: [[u32; 4]; 11],
}

impl Portable {
    /// Expands `key` into the 11 round keys.
    fn new(key: [u8; 16]) -> Portable {
        let mut words = [0u32; 44];
        for (i, w) in words.iter_mut().take(4).enumerate() {
            *w = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in 4..44 {
            let mut t = words[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            words[i] = words[i - 4] ^ t;
        }
        let mut round_keys = [[0u32; 4]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            rk.copy_from_slice(&words[4 * r..4 * r + 4]);
        }
        Portable { round_keys }
    }

    /// Two blocks per register-resident pass: the per-byte table lookups of
    /// different blocks have no data dependencies and pipeline.
    #[inline]
    fn encrypt_slice(&self, blocks: &mut [[u8; 16]]) {
        let mut pairs = blocks.chunks_exact_mut(2);
        for pair in &mut pairs {
            let [a, b] = self.encrypt_chunk([pair[0], pair[1]]);
            pair[0] = a;
            pair[1] = b;
        }
        if let [last] = pairs.into_remainder() {
            let [a] = self.encrypt_chunk([*last]);
            *last = a;
        }
    }

    /// One register-resident T-table pass over `N` blocks (`N` ≤ 2 from
    /// [`Portable::encrypt_slice`]).
    #[inline]
    fn encrypt_chunk<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        let rk = &self.round_keys;
        // Load: four big-endian column words per block, whitened.
        let mut s = [[0u32; 4]; N];
        for (state, block) in s.iter_mut().zip(&blocks) {
            for (j, w) in state.iter_mut().enumerate() {
                *w = u32::from_be_bytes([
                    block[4 * j],
                    block[4 * j + 1],
                    block[4 * j + 2],
                    block[4 * j + 3],
                ]) ^ rk[0][j];
            }
        }
        // Nine full rounds: one T-table lookup per byte folds SubBytes,
        // ShiftRows (the column rotation in the indices) and MixColumns.
        for k in &rk[1..10] {
            for state in &mut s {
                let [a, b, c, d] = *state;
                state[0] = T0[(a >> 24) as usize]
                    ^ T1[(b >> 16 & 0xff) as usize]
                    ^ T2[(c >> 8 & 0xff) as usize]
                    ^ T3[(d & 0xff) as usize]
                    ^ k[0];
                state[1] = T0[(b >> 24) as usize]
                    ^ T1[(c >> 16 & 0xff) as usize]
                    ^ T2[(d >> 8 & 0xff) as usize]
                    ^ T3[(a & 0xff) as usize]
                    ^ k[1];
                state[2] = T0[(c >> 24) as usize]
                    ^ T1[(d >> 16 & 0xff) as usize]
                    ^ T2[(a >> 8 & 0xff) as usize]
                    ^ T3[(b & 0xff) as usize]
                    ^ k[2];
                state[3] = T0[(d >> 24) as usize]
                    ^ T1[(a >> 16 & 0xff) as usize]
                    ^ T2[(b >> 8 & 0xff) as usize]
                    ^ T3[(c & 0xff) as usize]
                    ^ k[3];
            }
        }
        // Final round: SubBytes + ShiftRows only.
        let k = &rk[10];
        let mut out = [[0u8; 16]; N];
        for (block, state) in out.iter_mut().zip(&s) {
            let [a, b, c, d] = *state;
            let cols = [
                (u32::from(SBOX[(a >> 24) as usize]) << 24
                    | u32::from(SBOX[(b >> 16 & 0xff) as usize]) << 16
                    | u32::from(SBOX[(c >> 8 & 0xff) as usize]) << 8
                    | u32::from(SBOX[(d & 0xff) as usize]))
                    ^ k[0],
                (u32::from(SBOX[(b >> 24) as usize]) << 24
                    | u32::from(SBOX[(c >> 16 & 0xff) as usize]) << 16
                    | u32::from(SBOX[(d >> 8 & 0xff) as usize]) << 8
                    | u32::from(SBOX[(a & 0xff) as usize]))
                    ^ k[1],
                (u32::from(SBOX[(c >> 24) as usize]) << 24
                    | u32::from(SBOX[(d >> 16 & 0xff) as usize]) << 16
                    | u32::from(SBOX[(a >> 8 & 0xff) as usize]) << 8
                    | u32::from(SBOX[(b & 0xff) as usize]))
                    ^ k[2],
                (u32::from(SBOX[(d >> 24) as usize]) << 24
                    | u32::from(SBOX[(a >> 16 & 0xff) as usize]) << 16
                    | u32::from(SBOX[(b >> 8 & 0xff) as usize]) << 8
                    | u32::from(SBOX[(c & 0xff) as usize]))
                    ^ k[3],
            ];
            for (j, w) in cols.iter().enumerate() {
                block[4 * j..4 * j + 4].copy_from_slice(&w.to_be_bytes());
            }
        }
        out
    }
}

/// The T-table kernel: the batch path, one hash call at a time.
impl GateHash for Portable {
    #[inline]
    fn permute_xor<const N: usize>(&self, x: [Block; N]) -> [Block; N] {
        let mut pt = x.map(Block::to_bytes);
        self.encrypt_slice(&mut pt);
        core::array::from_fn(|i| x[i] ^ Block::from_bytes(pt[i]))
    }
}

/// The AES-NI backend: the workspace's only `unsafe` code, three calls
/// into `#[target_feature]` functions, each justified by the runtime check
/// a [`Hardware`](hardware::Hardware) value stands for.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hardware {
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_extract_epi64, _mm_set_epi64x,
        _mm_xor_si128,
    };

    use crate::hash::{GateHash, GateWalk};
    use crate::Block;

    /// Round keys for the AES-NI rounds, in block byte order. A value of
    /// this type is the proof that the CPU has `aes`, `sse2` and `sse4.1`:
    /// the field is private and [`Hardware::new`] — the only constructor —
    /// returns `None` without them.
    #[derive(Clone)]
    pub(super) struct Hardware {
        round_keys: [[u8; 16]; 11],
    }

    impl Hardware {
        /// Expands `key`, or `None` when the CPU lacks a needed feature.
        pub(super) fn new(key: [u8; 16]) -> Option<Hardware> {
            if !(std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2")
                && std::arch::is_x86_feature_detected!("sse4.1"))
            {
                return None;
            }
            // The schedule is key-only work done once per cipher: reuse the
            // portable expansion (big-endian column words) byte for byte.
            let words = super::Portable::new(key).round_keys;
            let round_keys = words.map(|rk| {
                let mut bytes = [0u8; 16];
                for (j, w) in rk.iter().enumerate() {
                    bytes[4 * j..4 * j + 4].copy_from_slice(&w.to_be_bytes());
                }
                bytes
            });
            Some(Hardware { round_keys })
        }

        #[inline]
        pub(super) fn encrypt_slice(&self, blocks: &mut [[u8; 16]]) {
            // SAFETY: `encrypt_slice` needs the `aes`, `sse2` and `sse4.1`
            // CPU features and nothing else. `self` can only have come from
            // `Hardware::new`, which returns `None` unless
            // `is_x86_feature_detected!` reported all three on this CPU.
            unsafe { encrypt_slice(&self.round_keys, blocks) }
        }

        #[inline]
        pub(super) fn run<W: GateWalk>(&self, walk: W) -> W::Output {
            // SAFETY: `run` needs `aes`, `sse2` and `sse4.1`, which a
            // `Hardware` proves this CPU has (see `encrypt_slice` above).
            unsafe { run(&self.round_keys, walk) }
        }
    }

    /// The AES-NI kernel: the round keys, loaded once per walk. Like a
    /// [`Hardware`], a value is the proof that the CPU has `aes`, `sse2`
    /// and `sse4.1`: only [`run`] builds one, from a `Hardware`'s keys.
    struct Kernel {
        keys: [__m128i; 11],
    }

    impl GateHash for Kernel {
        #[inline(always)]
        fn permute_xor<const N: usize>(&self, x: [Block; N]) -> [Block; N] {
            // SAFETY: `permute_xor` needs `aes`, `sse2` and `sse4.1`; a
            // `Kernel` exists only inside `run`, which only a `Hardware`
            // reaches, so this CPU has all three.
            unsafe { permute_xor(&self.keys, x) }
        }
    }

    /// The walk's frame: compiled with the AES features, so the walk — an
    /// `#[inline]` generic — and every [`permute_xor`] it makes inline
    /// into one function, the round keys held in registers throughout.
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn run<W: GateWalk>(round_keys: &[[u8; 16]; 11], walk: W) -> W::Output {
        walk.walk(&Kernel {
            keys: load_keys(round_keys),
        })
    }

    /// `x ↦ π(x) ⊕ x` on `N` blocks, in registers.
    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn permute_xor<const N: usize>(keys: &[__m128i; 11], x: [Block; N]) -> [Block; N] {
        let mut state = [keys[0]; N];
        for (s, b) in state.iter_mut().zip(&x) {
            *s = to_reg(b.as_u128());
        }
        let state = rounds(keys, state);
        let mut out = x;
        for (o, s) in out.iter_mut().zip(&state) {
            *o ^= Block::from(from_reg(*s));
        }
        out
    }

    /// A block's `u128` value is the register's two little-endian lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn to_reg(v: u128) -> __m128i {
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2,sse4.1")]
    fn from_reg(x: __m128i) -> u128 {
        let lo = _mm_extract_epi64::<0>(x) as u64;
        let hi = _mm_extract_epi64::<1>(x) as u64;
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// Block bytes in memory order are the register's little-endian lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        to_reg(u128::from_le_bytes(*block))
    }

    #[inline]
    #[target_feature(enable = "sse2,sse4.1")]
    fn store(x: __m128i) -> [u8; 16] {
        from_reg(x).to_le_bytes()
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_keys(round_keys: &[[u8; 16]; 11]) -> [__m128i; 11] {
        let mut keys = [load(&round_keys[0]); 11];
        for (key, bytes) in keys.iter_mut().zip(round_keys) {
            *key = load(bytes);
        }
        keys
    }

    /// Eight blocks per pass while they last (`aesenc` has a latency of a
    /// few cycles and a throughput of one per cycle, so independent blocks
    /// hide each other's latency), then one pass each of 4, 2 and 1.
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn encrypt_slice(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
        let keys = &load_keys(round_keys);
        let mut wide = blocks.chunks_exact_mut(8);
        for chunk in &mut wide {
            pass::<8>(keys, chunk);
        }
        let mut rest = wide.into_remainder();
        if rest.len() >= 4 {
            let (head, tail) = rest.split_at_mut(4);
            pass::<4>(keys, head);
            rest = tail;
        }
        if rest.len() >= 2 {
            let (head, tail) = rest.split_at_mut(2);
            pass::<2>(keys, head);
            rest = tail;
        }
        if !rest.is_empty() {
            pass::<1>(keys, rest);
        }
    }

    /// All ten rounds over the first `N` blocks of `blocks`, kept in
    /// registers throughout.
    #[inline]
    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn pass<const N: usize>(keys: &[__m128i; 11], blocks: &mut [[u8; 16]]) {
        let mut state = [keys[0]; N];
        for (s, block) in state.iter_mut().zip(blocks.iter()) {
            *s = load(block);
        }
        let state = rounds(keys, state);
        for (s, block) in state.iter().zip(blocks.iter_mut()) {
            *block = store(*s);
        }
    }

    /// AES-128 encryption of `N` independent blocks, round by round.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn rounds<const N: usize>(keys: &[__m128i; 11], mut state: [__m128i; N]) -> [__m128i; N] {
        for s in &mut state {
            *s = _mm_xor_si128(*s, keys[0]);
        }
        for key in &keys[1..10] {
            for s in &mut state {
                *s = _mm_aesenc_si128(*s, *key);
            }
        }
        for s in &mut state {
            *s = _mm_aesenclast_si128(*s, keys[10]);
        }
        state
    }
}

/// The original byte-oriented AES-128 (S-box + xtime MixColumns), kept as
/// the property-test oracle for the T-table fast path.
pub mod reference {
    use super::{xtime, RCON, SBOX};

    /// Byte-oriented AES-128; same API as the fast [`super::Aes128`] minus
    /// the batch method.
    #[derive(Clone)]
    pub struct Aes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl std::fmt::Debug for Aes128 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("reference::Aes128").finish_non_exhaustive()
        }
    }

    impl Aes128 {
        /// Expands `key` into the 11 round keys.
        pub fn new(key: [u8; 16]) -> Aes128 {
            let mut rk = [[0u8; 16]; 11];
            rk[0] = key;
            for round in 1..11 {
                let prev = rk[round - 1];
                let mut t = [prev[13], prev[14], prev[15], prev[12]];
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[round - 1];
                for i in 0..4 {
                    rk[round][i] = prev[i] ^ t[i];
                }
                for i in 4..16 {
                    rk[round][i] = prev[i] ^ rk[round][i - 4];
                }
            }
            Aes128 { round_keys: rk }
        }

        /// Encrypts one 16-byte block.
        pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            let mut s = block;
            add_round_key(&mut s, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut s);
                shift_rows(&mut s);
                mix_columns(&mut s);
                add_round_key(&mut s, &self.round_keys[round]);
            }
            sub_bytes(&mut s);
            shift_rows(&mut s);
            add_round_key(&mut s, &self.round_keys[10]);
            s
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // Column-major state layout: byte i is row i%4, column i/4.
        let s = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[col * 4 + row] = s[((col + row) % 4) * 4 + row];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for col in 0..4 {
            let c = &mut state[col * 4..col * 4 + 4];
            let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
            let all = a0 ^ a1 ^ a2 ^ a3;
            c[0] = a0 ^ all ^ xtime(a0 ^ a1);
            c[1] = a1 ^ all ^ xtime(a1 ^ a2);
            c[2] = a2 ^ all ^ xtime(a2 ^ a3);
            c[3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The cipher on each backend built as its own type, so the T-table
    /// path is exercised on an AES-NI host too. The hardware entry is
    /// absent — with a printed note — when the CPU (or target) lacks it.
    fn backends(key: [u8; 16]) -> Vec<Aes128> {
        let mut all = vec![Aes128::portable(key)];
        #[cfg(target_arch = "x86_64")]
        match hardware::Hardware::new(key) {
            Some(hw) => all.push(Aes128 {
                backend: Backend::Hardware(hw),
            }),
            None => eprintln!("note: CPU lacks aes/sse4.1 — hardware backend cases skipped"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("note: not x86_64 — hardware backend cases skipped");
        all
    }

    #[test]
    fn selected_backend_is_reported() {
        // Shows in the test log which path `Aes128::new` chose on this host.
        let name = Aes128::new([0u8; 16]).backend_name();
        eprintln!("deepsecure-crypto: Aes128::new selected the {name} backend");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            name == "aes-ni",
            hardware::Hardware::new([0u8; 16]).is_some(),
            "new() must pick the hardware backend exactly when it is available"
        );
        assert_eq!(Aes128::portable([0u8; 16]).backend_name(), "t-table");
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example, against every implementation.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt), expect);
        for aes in backends(key) {
            assert_eq!(aes.encrypt_block(pt), expect, "{}", aes.backend_name());
        }
        assert_eq!(reference::Aes128::new(key).encrypt_block(pt), expect);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt), expect);
        for aes in backends(key) {
            assert_eq!(aes.encrypt_block(pt), expect, "{}", aes.backend_name());
        }
        assert_eq!(reference::Aes128::new(key).encrypt_block(pt), expect);
    }

    #[test]
    fn is_a_permutation_on_samples() {
        let aes = Aes128::new([7u8; 16]);
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..512 {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&i.to_le_bytes());
            assert!(seen.insert(aes.encrypt_block(block)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_backend_matches_reference(
            key in any::<u128>(),
            blocks in proptest::collection::vec(any::<u128>(), 13..14),
        ) {
            // 1, 2, 4 and 8 are the hardware pass widths; 13 = 8 + 4 + 1
            // walks the whole remainder ladder in one call.
            let key = key.to_le_bytes();
            let oracle = reference::Aes128::new(key);
            for aes in backends(key) {
                for n in [1usize, 2, 4, 8, 13] {
                    let mut batch: Vec<[u8; 16]> =
                        blocks[..n].iter().map(|b| b.to_le_bytes()).collect();
                    aes.encrypt_slice(&mut batch);
                    for (ct, pt) in batch.iter().zip(&blocks) {
                        prop_assert_eq!(
                            *ct,
                            oracle.encrypt_block(pt.to_le_bytes()),
                            "{} at n = {}", aes.backend_name(), n
                        );
                    }
                }
            }
        }

        #[test]
        fn batch_matches_per_block(key in any::<u128>(), blocks in proptest::collection::vec(any::<u128>(), 4..5)) {
            let aes = Aes128::new(key.to_le_bytes());
            let batch: [[u8; 16]; 4] = core::array::from_fn(|i| blocks[i].to_le_bytes());
            let out = aes.encrypt_blocks(batch);
            for (i, b) in batch.iter().enumerate() {
                prop_assert_eq!(out[i], aes.encrypt_block(*b));
            }
        }
    }
}
