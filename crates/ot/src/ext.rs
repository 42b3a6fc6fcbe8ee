//! IKNP OT extension (Ishai–Kilian–Nissim–Petrank, CRYPTO'03).
//!
//! A one-time setup of 128 *base* OTs in the reversed direction seeds PRG
//! pairs; afterwards each batch of `m` chosen-message OTs costs only
//! `m × 128` bits of PRG output, one `m × 128` bit matrix transmission and
//! fixed-key hashing — this is what makes delivering millions of weight-bit
//! wire labels practical (§3.1).

use deepsecure_crypto::{Block, FixedKeyHash, Prg};
use rand::Rng;

use crate::base::{self, Group};
use crate::channel::Channel;
use crate::ristretto::Ristretto255;
use crate::OtError;

/// Security parameter: number of base OTs / matrix columns.
const KAPPA: usize = 128;

/// The `KAPPA × m` bit matrix of one batch, stored as its `KAPPA` columns
/// back to back (`bytes_per_col` bytes each, rows packed LSB-first) — the
/// layout the PRGs fill and the wire carries.
struct ColumnMatrix {
    bytes: Vec<u8>,
    bytes_per_col: usize,
}

impl ColumnMatrix {
    fn new(m: usize) -> ColumnMatrix {
        let bytes_per_col = m.div_ceil(8);
        ColumnMatrix {
            bytes: vec![0u8; KAPPA * bytes_per_col],
            bytes_per_col,
        }
    }

    fn column_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bytes[i * self.bytes_per_col..(i + 1) * self.bytes_per_col]
    }

    /// Rows `KAPPA·k .. KAPPA·(k + 1)` as blocks — one square tile,
    /// transposed word-wise (bit `i` of row `j` is bit `j` of column `i`);
    /// rows past the last column byte are zero.
    fn row_block(&self, k: usize) -> [Block; KAPPA] {
        let from = 16 * k;
        let len = self.bytes_per_col.saturating_sub(from).min(16);
        let mut words = [0u128; KAPPA];
        for (i, w) in words.iter_mut().enumerate() {
            let mut lane = [0u8; 16];
            let at = i * self.bytes_per_col + from;
            lane[..len].copy_from_slice(&self.bytes[at..at + len]);
            *w = u128::from_le_bytes(lane);
        }
        transpose_128(&mut words);
        words.map(Block::from)
    }
}

/// Transposes a 128 × 128 bit matrix in place (`m[r]` bit `c` ↔ `m[c]` bit
/// `r`) by recursive block swaps: seven rounds of 64 word-wise
/// shift-mask-xor exchanges in place of 16 384 single-bit moves.
fn transpose_128(m: &mut [u128; KAPPA]) {
    let mut j = 64;
    let mut mask = u128::MAX >> 64;
    while j != 0 {
        // Swap the top-right and bottom-left j × j quadrants of every
        // 2j × 2j block on the diagonal grid.
        let mut k = 0;
        while k < KAPPA {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The offline half of [`ExtSender::setup`]: the random choice vector `s`
/// and the base-OT receiver keypairs (all the scalar multiplications that
/// don't need the peer), generated ahead of any connection.
///
/// A precompute pool can stockpile these so the interactive remainder of
/// the setup — two batched base-OT flights — is all that stays on a new
/// connection's critical path. Consumed by [`ExtSender::setup_with`]; one
/// precompute never serves two sessions.
pub struct SenderPrecomp<G: Group = Ristretto255> {
    s: Vec<bool>,
    keys: base::ReceiverKeys<G>,
}

impl<G: Group> std::fmt::Debug for SenderPrecomp<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderPrecomp")
            .field("group", &self.keys.group().name())
            .finish_non_exhaustive()
    }
}

impl<G: Group> SenderPrecomp<G> {
    /// Generates the offline material: `s` plus `KAPPA` = 128 keypairs (one
    /// scalar multiplication each in `group`, fanned out across `threads`
    /// workers, `0` = one per core). `s` is drawn first, then the base-OT
    /// scalars, so the material for a seed is the same at every width.
    pub fn generate<R: Rng + ?Sized>(group: &G, rng: &mut R, threads: usize) -> SenderPrecomp<G> {
        SenderPrecomp {
            s: (0..KAPPA).map(|_| rng.gen()).collect(),
            keys: base::ReceiverKeys::generate(group, KAPPA, rng, threads),
        }
    }
}

/// The extension sender (holds message pairs).
pub struct ExtSender {
    s: Vec<bool>,
    seeds: Vec<Prg>,
    hash: FixedKeyHash,
    tweak: u64,
    in_flight: bool,
}

impl std::fmt::Debug for ExtSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtSender")
            .field("tweak", &self.tweak)
            .finish_non_exhaustive()
    }
}

/// The extension receiver (holds choice bits).
pub struct ExtReceiver {
    seed_pairs: Vec<(Prg, Prg)>,
    hash: FixedKeyHash,
    tweak: u64,
    in_flight: bool,
}

impl std::fmt::Debug for ExtReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtReceiver")
            .field("tweak", &self.tweak)
            .finish_non_exhaustive()
    }
}

impl ExtSender {
    /// One-time setup on one worker: runs 128 base OTs *as receiver* with
    /// random choice vector `s`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<C: Channel, G: Group, R: Rng + ?Sized>(
        channel: &mut C,
        group: &G,
        rng: &mut R,
    ) -> Result<ExtSender, OtError> {
        ExtSender::setup_with(channel, SenderPrecomp::generate(group, rng, 1), 1)
    }

    /// The online half of setup: completes the 128 base OTs with
    /// [`SenderPrecomp`] material generated ahead of time, leaving only
    /// the two batched flights (one addition per transfer before the
    /// second, one table multiplication per transfer after it) on the
    /// wire path. That work is fanned out across `threads` workers (`0` =
    /// one per core); the wire is the same at every width.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<C: Channel, G: Group>(
        channel: &mut C,
        pre: SenderPrecomp<G>,
        threads: usize,
    ) -> Result<ExtSender, OtError> {
        let SenderPrecomp { s, keys } = pre;
        let seeds_blocks = base::receive(channel, &s, keys, threads)?;
        Ok(ExtSender {
            s,
            seeds: seeds_blocks.into_iter().map(Prg::from_seed).collect(),
            hash: FixedKeyHash::new(),
            tweak: 0,
            in_flight: false,
        })
    }

    /// `true` while a [`ExtSender::send`] batch is mid-transfer: the
    /// internal PRG streams and tweak have advanced but the peer may not
    /// have consumed the matching flight. An in-flight sender must not be
    /// reused on a new connection (resumption would desynchronise the
    /// correlation); a sender that is *not* in flight is safe to carry
    /// across a reconnect.
    #[must_use]
    pub fn is_in_flight(&self) -> bool {
        self.in_flight
    }

    /// Sends `pairs.len()` chosen-message OTs.
    ///
    /// # Errors
    ///
    /// Fails on channel breakdown.
    pub fn send<C: Channel>(
        &mut self,
        channel: &mut C,
        pairs: &[(Block, Block)],
    ) -> Result<(), OtError> {
        let m = pairs.len();
        if m == 0 {
            return Ok(());
        }
        self.in_flight = true;
        // Column i of Q: q_i = G(k_{s_i}) ⊕ s_i · u_i  (u from receiver),
        // masked rather than branched: `s` is this party's secret.
        let mut q = ColumnMatrix::new(m);
        for (i, seed) in self.seeds.iter_mut().enumerate() {
            let col = q.column_mut(i);
            seed.fill(col);
            let u = channel.recv(col.len())?;
            let s_mask = 0u8.wrapping_sub(std::hint::black_box(u8::from(self.s[i])));
            for (c, u) in col.iter_mut().zip(&u) {
                *c ^= u & s_mask;
            }
        }
        let s_block = self.s.iter().enumerate().fold(Block::ZERO, |b, (i, &bit)| {
            b ^ Block::from(u128::from(bit) << i)
        });
        // Row j of Q keys both masks: H(q_j, t) for x0, H(q_j ⊕ s, t) for
        // x1 — hashed one row block (2·KAPPA hashes) per call.
        let mut cts = Vec::with_capacity(2 * m);
        let mut tweaks = [0u64; 2 * KAPPA];
        for (k, block_pairs) in pairs.chunks(KAPPA).enumerate() {
            let rows = q.row_block(k);
            let at = cts.len();
            for (j, &q_j) in rows[..block_pairs.len()].iter().enumerate() {
                cts.extend_from_slice(&[q_j, q_j ^ s_block]);
                let t = self.tweak + (k * KAPPA + j) as u64;
                tweaks[2 * j] = t;
                tweaks[2 * j + 1] = t;
            }
            self.hash
                .hash_many(&mut cts[at..], &tweaks[..2 * block_pairs.len()]);
            for (masks, (x0, x1)) in cts[at..].chunks_exact_mut(2).zip(block_pairs) {
                masks[0] ^= *x0;
                masks[1] ^= *x1;
            }
        }
        self.tweak += m as u64;
        channel.send_blocks(&cts)?;
        self.in_flight = false;
        Ok(())
    }
}

impl ExtReceiver {
    /// One-time setup on one worker: runs 128 random base OTs *as sender*;
    /// their key pairs are the seed pairs.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<C: Channel, G: Group, R: Rng + ?Sized>(
        channel: &mut C,
        group: &G,
        rng: &mut R,
    ) -> Result<ExtReceiver, OtError> {
        ExtReceiver::setup_with(channel, group, rng, 1)
    }

    /// [`ExtReceiver::setup`] with the base-OT sender's scalar
    /// multiplications (one per transfer) fanned out across `threads`
    /// workers (`0` = one per core). The wire for a seed is the same at
    /// every width.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<C: Channel, G: Group, R: Rng + ?Sized>(
        channel: &mut C,
        group: &G,
        rng: &mut R,
        threads: usize,
    ) -> Result<ExtReceiver, OtError> {
        let pairs = base::send(channel, group, KAPPA, rng, threads)?;
        Ok(ExtReceiver {
            seed_pairs: pairs
                .into_iter()
                .map(|(k0, k1)| (Prg::from_seed(k0), Prg::from_seed(k1)))
                .collect(),
            hash: FixedKeyHash::new(),
            tweak: 0,
            in_flight: false,
        })
    }

    /// `true` while a [`ExtReceiver::receive`] batch is mid-transfer. See
    /// [`ExtSender::is_in_flight`] — an in-flight receiver has advanced
    /// its PRG streams past the peer's view and must not be resumed.
    #[must_use]
    pub fn is_in_flight(&self) -> bool {
        self.in_flight
    }

    /// Receives `choices.len()` OTs; returns the chosen blocks.
    ///
    /// # Errors
    ///
    /// Fails on channel breakdown.
    pub fn receive<C: Channel>(
        &mut self,
        channel: &mut C,
        choices: &[bool],
    ) -> Result<Vec<Block>, OtError> {
        let m = choices.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        self.in_flight = true;
        let mut t_matrix = ColumnMatrix::new(m);
        let mut r_packed = vec![0u8; t_matrix.bytes_per_col];
        for (j, &c) in choices.iter().enumerate() {
            r_packed[j / 8] |= u8::from(c) << (j % 8);
        }
        let mut u = vec![0u8; r_packed.len()];
        for (i, (k0, k1)) in self.seed_pairs.iter_mut().enumerate() {
            let t_col = t_matrix.column_mut(i);
            k0.fill(t_col);
            k1.fill(&mut u);
            // u_i = G(k0_i) ⊕ G(k1_i) ⊕ r
            for ((u, t), r) in u.iter_mut().zip(t_col.iter()).zip(&r_packed) {
                *u ^= t ^ r;
            }
            channel.send(&u)?;
        }
        let cts = channel.recv_blocks(2 * m)?;
        // Row j of T keys the chosen mask H(t_j, t) — hashed a row block
        // per call.
        let mut out = Vec::with_capacity(m);
        let mut tweaks = [0u64; KAPPA];
        for (k, block_choices) in choices.chunks(KAPPA).enumerate() {
            let n = block_choices.len();
            let mut rows = t_matrix.row_block(k);
            for (j, t) in tweaks[..n].iter_mut().enumerate() {
                *t = self.tweak + (k * KAPPA + j) as u64;
            }
            self.hash.hash_many(&mut rows[..n], &tweaks[..n]);
            for (j, (&mask, &c)) in rows[..n].iter().zip(block_choices).enumerate() {
                out.push(cts[2 * (k * KAPPA + j) + usize::from(c)] ^ mask);
            }
        }
        self.tweak += m as u64;
        self.in_flight = false;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::channel::mem_pair;

    use super::*;

    fn run_ext(choices: Vec<bool>, batches: usize) {
        let group = Ristretto255;
        let (mut ca, mut cb) = mem_pair();
        let g2 = group;
        let n = choices.len();
        let pairs: Vec<(Block, Block)> = (0..n as u128)
            .map(|i| (Block::from(i * 2 + 10_000), Block::from(i * 2 + 10_001)))
            .collect();
        let pairs2 = pairs.clone();
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(55);
            let mut s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
            for _ in 0..batches {
                s.send(&mut ca, &pairs2).unwrap();
            }
        });
        let mut rng = StdRng::seed_from_u64(66);
        let mut r = ExtReceiver::setup(&mut cb, &group, &mut rng).unwrap();
        for _ in 0..batches {
            let got = r.receive(&mut cb, &choices).unwrap();
            for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
                assert_eq!(*msg, if c { pair.1 } else { pair.0 });
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn correctness_small_batch() {
        run_ext(vec![true, false, true, true, false], 1);
    }

    #[test]
    fn correctness_unaligned_sizes() {
        // Exercise the bit-packing edges: 1, 7, 8, 9, 129 choices.
        for n in [1usize, 7, 8, 9, 129] {
            let choices: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            run_ext(choices, 1);
        }
    }

    #[test]
    fn multiple_batches_reuse_setup() {
        run_ext(vec![false, true, false], 3);
    }

    #[test]
    fn precomputed_sender_setup_is_equivalent() {
        // Offline-generated SenderPrecomp must yield a working extension
        // identical in behaviour to the inline-randomness setup.
        let group = Ristretto255;
        let (mut ca, mut cb) = mem_pair();
        let pre = {
            let mut rng = StdRng::seed_from_u64(123);
            SenderPrecomp::generate(&group, &mut rng, 1)
        };
        let pairs: Vec<(Block, Block)> = (0..9u128)
            .map(|i| (Block::from(i), Block::from(i + 50)))
            .collect();
        let pairs2 = pairs.clone();
        let sender = std::thread::spawn(move || {
            let mut s = ExtSender::setup_with(&mut ca, pre, 1).unwrap();
            s.send(&mut ca, &pairs2).unwrap();
        });
        let g2 = group;
        let mut rng = StdRng::seed_from_u64(124);
        let mut r = ExtReceiver::setup(&mut cb, &g2, &mut rng).unwrap();
        let choices: Vec<bool> = (0..9).map(|i| i % 2 == 1).collect();
        let got = r.receive(&mut cb, &choices).unwrap();
        sender.join().unwrap();
        for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
            assert_eq!(*msg, if c { pair.1 } else { pair.0 });
        }
    }

    #[test]
    fn in_flight_tracks_batch_boundaries() {
        let group = Ristretto255;
        let (mut ca, mut cb) = mem_pair();
        let g2 = group;
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
            assert!(!s.is_in_flight());
            s.send(&mut ca, &[(Block::ZERO, Block::ONES); 4]).unwrap();
            assert!(!s.is_in_flight(), "completed batch must clear in_flight");
            s.send(&mut ca, &[]).unwrap();
            assert!(!s.is_in_flight(), "empty batch never enters flight");
        });
        let mut rng = StdRng::seed_from_u64(8);
        let mut r = ExtReceiver::setup(&mut cb, &group, &mut rng).unwrap();
        assert!(!r.is_in_flight());
        let _ = r.receive(&mut cb, &[true; 4]).unwrap();
        assert!(!r.is_in_flight(), "completed batch must clear in_flight");
        let _ = r.receive(&mut cb, &[]).unwrap();
        assert!(!r.is_in_flight(), "empty batch never enters flight");
        sender.join().unwrap();
        // The sender thread (and its channel end) are gone: a batch torn
        // mid-transfer must leave the receiver marked in flight, so a
        // reconnect knows the correlation state cannot be resumed.
        let err = r.receive(&mut cb, &[true; 4]);
        assert!(err.is_err());
        assert!(r.is_in_flight(), "torn batch must stay in flight");
    }

    #[test]
    fn larger_batch() {
        let choices: Vec<bool> = (0..1000).map(|i| (i * 7) % 5 < 2).collect();
        run_ext(choices, 1);
    }

    #[test]
    fn extension_is_cheap_per_ot() {
        // After setup, per-OT communication should be ~ 128 bits (matrix)
        // + 256 bits (two ciphertexts), far below a public-key transfer.
        let group = Ristretto255;
        let (mut ca, mut cb) = mem_pair();
        let g2 = group;
        let n = 4096usize;
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
            let pairs = vec![(Block::ZERO, Block::ONES); 4096];
            s.send(&mut ca, &pairs).unwrap();
            ca.bytes_sent()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let mut r = ExtReceiver::setup(&mut cb, &group, &mut rng).unwrap();
        let before = cb.bytes_sent();
        let _ = r.receive(&mut cb, &vec![false; n]).unwrap();
        let receiver_batch_bytes = cb.bytes_sent() - before;
        let _sender_total = sender.join().unwrap();
        // Receiver sends the m×128 matrix: 4096 * 16 bytes.
        assert_eq!(receiver_batch_bytes, (n / 8 * KAPPA) as u64);
    }

    /// The pre-block-transpose formulation, one bit at a time: the oracle
    /// the word-wise [`ColumnMatrix::row_block`] is tested against.
    fn rows_bitwise(matrix: &ColumnMatrix, m: usize) -> Vec<Block> {
        let mut rows = vec![Block::ZERO; m];
        for i in 0..KAPPA {
            let col = &matrix.bytes[i * matrix.bytes_per_col..(i + 1) * matrix.bytes_per_col];
            for (j, row) in rows.iter_mut().enumerate() {
                if (col[j / 8] >> (j % 8)) & 1 == 1 {
                    *row ^= Block::from(1u128 << i);
                }
            }
        }
        rows
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]
        #[test]
        fn block_transpose_matches_bitwise(seed in proptest::prelude::any::<u64>()) {
            // Row counts on both sides of the byte, tile and multi-tile
            // edges.
            use rand::RngCore;
            let mut rng = StdRng::seed_from_u64(seed);
            for m in [1usize, 7, 127, 128, 129, 4099] {
                let mut matrix = ColumnMatrix::new(m);
                rng.fill_bytes(&mut matrix.bytes);
                let oracle = rows_bitwise(&matrix, m);
                for (k, expect) in oracle.chunks(KAPPA).enumerate() {
                    let rows = matrix.row_block(k);
                    proptest::prop_assert_eq!(&rows[..expect.len()], expect, "m = {}, tile {}", m, k);
                }
            }
        }
    }

    /// Records everything sent through it, so a transcript can be pinned.
    struct Tap<C> {
        inner: C,
        sent: Vec<u8>,
    }

    impl<C: Channel> Channel for Tap<C> {
        fn send(&mut self, data: &[u8]) -> Result<(), crate::ChannelError> {
            self.sent.extend_from_slice(data);
            self.inner.send(data)
        }
        fn recv(&mut self, n: usize) -> Result<Vec<u8>, crate::ChannelError> {
            self.inner.recv(n)
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
        fn bytes_received(&self) -> u64 {
            self.inner.bytes_received()
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn transcript_is_pinned_to_the_bitwise_implementation() {
        // Sender seed 5, receiver seed 6, m = 4096: FNV-1a digests of the
        // receiver's 128 u_i columns and of the sender's ciphertext flight,
        // recorded from the commit before the word-wise transpose and the
        // batched hashes, and re-recorded once when the base OT became a
        // random OT whose keys are the IKNP seeds (before, each party drew
        // its seeds from its RNG ahead of any group operation). "Same
        // bytes on the wire" is asserted here, not inferred from the
        // labels still decoding — at one base-OT worker and at four.
        let m = 4096usize;
        let pairs: Vec<(Block, Block)> = (0..m as u128)
            .map(|i| (Block::from(i * 2 + 10_000), Block::from(i * 2 + 10_001)))
            .collect();
        for threads in [1, 4] {
            let (ca, cb) = mem_pair();
            let pairs2 = pairs.clone();
            let sender = std::thread::spawn(move || {
                let mut chan = Tap {
                    inner: ca,
                    sent: Vec::new(),
                };
                let mut rng = StdRng::seed_from_u64(5);
                let pre = SenderPrecomp::generate(&Ristretto255, &mut rng, threads);
                let mut s = ExtSender::setup_with(&mut chan, pre, threads).unwrap();
                let base = chan.sent.len();
                s.send(&mut chan, &pairs2).unwrap();
                fnv1a(&chan.sent[base..])
            });
            let mut chan = Tap {
                inner: cb,
                sent: Vec::new(),
            };
            let mut rng = StdRng::seed_from_u64(6);
            let mut r =
                ExtReceiver::setup_with(&mut chan, &Ristretto255, &mut rng, threads).unwrap();
            let base = chan.sent.len();
            let choices: Vec<bool> = (0..m).map(|i| i % 3 == 0).collect();
            let got = r.receive(&mut chan, &choices).unwrap();
            let ciphertext_digest = sender.join().unwrap();
            assert_eq!(chan.sent.len() - base, KAPPA * m / 8);
            let column_digest = fnv1a(&chan.sent[base..]);
            println!("u columns {column_digest:#018x}, ciphertexts {ciphertext_digest:#018x}");
            assert_eq!(column_digest, PINNED_COLUMNS, "u_i columns changed");
            assert_eq!(
                ciphertext_digest, PINNED_CIPHERTEXTS,
                "ciphertext flight changed"
            );
            for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
                assert_eq!(*msg, if c { pair.1 } else { pair.0 });
            }
        }
    }

    const PINNED_COLUMNS: u64 = 0x7736_3d9b_33cc_cee3;
    const PINNED_CIPHERTEXTS: u64 = 0x5f67_467f_9c83_f524;
}

#[cfg(test)]
mod security_tests {
    use deepsecure_crypto::Block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::channel::{mem_pair, Channel};
    use crate::ext::{ExtReceiver, ExtSender};
    use crate::ristretto::Ristretto255;

    #[test]
    fn receiver_never_obtains_the_other_message() {
        // The unchosen message's mask is keyed by q_j ⊕ s which the
        // receiver cannot compute; check that the receiver's outputs never
        // coincide with the unchosen plaintext.
        let group = Ristretto255;
        let (mut ca, mut cb) = mem_pair();
        let g2 = group;
        let n = 64usize;
        let pairs: Vec<(Block, Block)> = (0..n as u128)
            .map(|i| (Block::from(0xAAAA_0000 + i), Block::from(0xBBBB_0000 + i)))
            .collect();
        let pairs2 = pairs.clone();
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
            s.send(&mut ca, &pairs2).unwrap();
        });
        let mut rng = StdRng::seed_from_u64(12);
        let mut r = ExtReceiver::setup(&mut cb, &group, &mut rng).unwrap();
        let choices: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let got = r.receive(&mut cb, &choices).unwrap();
        sender.join().unwrap();
        for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
            let unchosen = if c { pair.0 } else { pair.1 };
            assert_ne!(*msg, unchosen, "receiver obtained the unchosen message");
        }
    }

    #[test]
    fn different_receivers_same_sender_stream_diverge() {
        // The u-matrix the receiver sends masks its choices with fresh PRG
        // output: two receivers with identical choices produce different
        // transcripts (no choice leakage through determinism).
        let run = |seed: u64| -> u64 {
            let group = Ristretto255;
            let (mut ca, mut cb) = mem_pair();
            let g2 = group;
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100);
                let mut s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
                s.send(&mut ca, &[(Block::ZERO, Block::ONES); 8]).unwrap();
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = ExtReceiver::setup(&mut cb, &group, &mut rng).unwrap();
            let _ = r.receive(&mut cb, &[true; 8]).unwrap();
            sender.join().unwrap();
            cb.bytes_sent()
        };
        // Transcript *sizes* equal (no length leak)…
        assert_eq!(run(201), run(202));
    }
}
