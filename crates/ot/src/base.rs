//! Base 1-out-of-2 oblivious transfer (Bellare–Micali style) over a
//! prime-order group, secure against honest-but-curious parties.
//!
//! Protocol (batched over all transfers — a **constant number of
//! flights**, independent of the transfer count):
//!
//! 1. Sender samples `c` and publishes `C = c·G` (flight 1).
//! 2. Receiver with choice bit `σ_i` samples `k_i`, sets `PK_σ = k_i·G`
//!    and `PK_{1-σ} = C − k_i·G`, and sends **every** `PK_0` in one
//!    flight (the sender derives each `PK_1 = C − PK_0` itself).
//! 3. Sender ElGamal-encrypts `m_b` under `PK_b` with fresh randomness and
//!    sends all `(r_b·G, H(r_b·PK_b) ⊕ m_b)` pairs in one flight.
//! 4. Receiver decrypts only branch `σ_i`:
//!    `H(k_i·(r_σ·G)) = H(r_σ·PK_σ)`.
//!
//! The receiver cannot know the discrete logs of both `PK_0` and `PK_1`
//! (they sum to `C`), so it learns exactly one message; the sender sees
//! only `PK_0`, which is uniform either way.
//!
//! Production runs in [`Ristretto255`]: prime order, 32-byte elements,
//! and decoding is the validation — every element a peer sends (`C`,
//! each `PK_0`, both branches' `r·G`) must be the canonical encoding of
//! a group element other than the identity, and `PK_1 = C − PK_0` must
//! not be the identity either; anything else is an
//! [`OtError::Protocol`] before the next flight goes out. The receiver
//! derives `PK_0` and picks the branch it decrypts with constant-time
//! selects, so neither its timing nor its aborts depend on its choice
//! bits (the IKNP garbler's secret `s`).
//!
//! Batching matters on real links: the earlier per-transfer ping-pong cost
//! one round trip per transfer — 128 IKNP base OTs over a 40 ms WAN spent
//! ≈ 10 s in pure latency. The batched protocol costs the same bytes in
//! three one-way flights (≈ 1.5 RTT) regardless of the transfer count.
//!
//! The receiver's keypairs `(k_i, k_i·G)` are independent of both the
//! peer and the choice bits' messages, so [`ReceiverKeys::generate`] lets
//! callers hoist those scalar multiplications out of the connection's
//! critical path (the serving layer's precompute pool does exactly this).

use deepsecure_bigint::{DhGroup, Ubig};
use deepsecure_crypto::{Block, FixedKeyHash};
use rand::Rng;
use workpool::ThreadPool;

use crate::channel::Channel;
use crate::ristretto::Ristretto255;
use crate::OtError;

pub(crate) mod sealed {
    /// Keeps [`super::Group`] closed: the base OT's validation rules are
    /// written for the groups implemented in this crate.
    pub trait Sealed {}
}

/// A group the base OT can run in, written additively. Sealed: the
/// implementations are [`Ristretto255`] (every production path) and the
/// 768-bit MODP [`DhGroup`] bridge the benchmark ladder still measures.
pub trait Group: sealed::Sealed + Clone + Send + Sync {
    /// A secret exponent.
    type Scalar: Clone + Send + Sync;
    /// A group element.
    type Element: Clone + Send + Sync;

    /// The group's name, for diagnostics.
    fn name(&self) -> &'static str;
    /// Bytes per encoded element.
    fn element_len(&self) -> usize;
    /// A uniformly random nonzero exponent.
    fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Scalar;
    /// `k·G` for the generator `G`.
    fn mul_base(&self, k: &Self::Scalar) -> Self::Element;
    /// `k·e`.
    fn mul(&self, e: &Self::Element, k: &Self::Scalar) -> Self::Element;
    /// `a − b`.
    fn sub(&self, a: &Self::Element, b: &Self::Element) -> Self::Element;
    /// `b` if `pick_b`, else `a` (constant-time in [`Ristretto255`]).
    fn select(&self, a: &Self::Element, b: &Self::Element, pick_b: bool) -> Self::Element;
    /// Whether `e` is the neutral element.
    fn is_identity(&self, e: &Self::Element) -> bool;
    /// Appends `e`'s [`Group::element_len`]-byte encoding to `out`.
    fn encode(&self, e: &Self::Element, out: &mut Vec<u8>);
    /// Parses a peer's element: `None` unless `bytes` is the canonical
    /// encoding of a group element other than the identity.
    fn decode(&self, bytes: &[u8]) -> Option<Self::Element>;
}

impl sealed::Sealed for DhGroup {}

/// The 768-bit MODP bridge, kept only because the `dsbench` ladder runs
/// its `ot.base_setup_ms` / `ot.base_bytes` rows in this group. Its
/// `select` branches; no session uses it.
impl Group for DhGroup {
    type Scalar = Ubig;
    type Element = Ubig;

    fn name(&self) -> &'static str {
        DhGroup::name(self)
    }

    fn element_len(&self) -> usize {
        DhGroup::element_len(self)
    }

    fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        self.random_exponent(rng)
    }

    fn mul_base(&self, k: &Ubig) -> Ubig {
        self.pow(self.generator(), k)
    }

    fn mul(&self, e: &Ubig, k: &Ubig) -> Ubig {
        self.pow(e, k)
    }

    fn sub(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.div(a, b)
    }

    fn select(&self, a: &Ubig, b: &Ubig, pick_b: bool) -> Ubig {
        if pick_b { b } else { a }.clone()
    }

    fn is_identity(&self, e: &Ubig) -> bool {
        *e == Ubig::one()
    }

    fn encode(&self, e: &Ubig, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.element_to_bytes(e));
    }

    /// In `(1, p)`; subgroup membership is not checked.
    fn decode(&self, bytes: &[u8]) -> Option<Ubig> {
        let e = self.element_from_bytes(bytes);
        (e > Ubig::one() && e < *self.prime()).then_some(e)
    }
}

/// Precomputed receiver-side keypairs `(k_i, k_i·G)` for a batch of base
/// OTs — the scalar multiplications that need no peer. Bound to the group
/// they were generated in.
pub struct ReceiverKeys<G: Group = Ristretto255> {
    group: G,
    keys: Vec<(G::Scalar, G::Element)>,
}

impl<G: Group> std::fmt::Debug for ReceiverKeys<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReceiverKeys")
            .field("group", &self.group.name())
            .field("len", &self.keys.len())
            .finish_non_exhaustive()
    }
}

impl<G: Group> ReceiverKeys<G> {
    /// Generates keypairs for `n` transfers (one scalar multiplication
    /// each) — runnable long before any connection exists.
    pub fn generate<R: Rng + ?Sized>(group: &G, n: usize, rng: &mut R) -> ReceiverKeys<G> {
        ReceiverKeys::generate_with(group, n, rng, ThreadPool::sequential())
    }

    /// [`ReceiverKeys::generate`] with the multiplications fanned out
    /// across `pool`. Scalars are drawn sequentially first, so the RNG
    /// stream — and therefore the generated keys — are identical to the
    /// sequential path's for the same seed.
    pub fn generate_with<R: Rng + ?Sized>(
        group: &G,
        n: usize,
        rng: &mut R,
        pool: ThreadPool,
    ) -> ReceiverKeys<G> {
        let scalars: Vec<G::Scalar> = (0..n).map(|_| group.random_scalar(rng)).collect();
        let keys = pool.map(n, |i| (scalars[i].clone(), group.mul_base(&scalars[i])));
        ReceiverKeys {
            group: group.clone(),
            keys,
        }
    }

    /// Number of transfers these keys cover.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the key set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The group the keys live in.
    pub fn group(&self) -> &G {
        &self.group
    }
}

/// Runs the sender side for `pairs.len()` base OTs (three flights total).
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements.
pub fn send<C: Channel, G: Group, R: Rng + ?Sized>(
    channel: &mut C,
    group: &G,
    pairs: &[(Block, Block)],
    rng: &mut R,
) -> Result<(), OtError> {
    send_with_pool(channel, group, pairs, rng, ThreadPool::sequential())
}

/// [`send`] with the per-transfer work (two encryptions of two scalar
/// multiplications each) fanned out across `pool`. All randomness is
/// drawn in the same order as the sequential path, so the wire transcript
/// is byte-identical for the same seed.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements — every `PK_0`
/// is validated before any ciphertext is computed.
pub fn send_with_pool<C: Channel, G: Group, R: Rng + ?Sized>(
    channel: &mut C,
    group: &G,
    pairs: &[(Block, Block)],
    rng: &mut R,
    pool: ThreadPool,
) -> Result<(), OtError> {
    let hash = FixedKeyHash::new();
    let elem = group.element_len();
    let big_c = group.mul_base(&group.random_scalar(rng));
    let mut flight = Vec::with_capacity(elem);
    group.encode(&big_c, &mut flight);
    channel.send(&flight)?;
    // One flight carrying every PK_0; validate all of them (and the PK_1
    // each implies) up front.
    let pk_flight = channel.recv(pairs.len() * elem)?;
    let mut pks = Vec::with_capacity(pairs.len());
    for (i, bytes) in pk_flight.chunks_exact(elem).enumerate() {
        let pk0 = group.decode(bytes).ok_or_else(|| {
            OtError::Protocol(format!(
                "public key {i} is not a non-identity {} element",
                group.name()
            ))
        })?;
        let pk1 = group.sub(&big_c, &pk0);
        if group.is_identity(&pk1) {
            return Err(OtError::Protocol(format!(
                "public key {i} equals the sender key C"
            )));
        }
        pks.push([pk0, pk1]);
    }
    // Draw every encryption scalar in the sequential path's order
    // (transfer-major, branch-minor) before fanning out.
    let rs: Vec<G::Scalar> = (0..pairs.len() * 2)
        .map(|_| group.random_scalar(rng))
        .collect();
    // One flight carrying both ciphertexts of every transfer. Each
    // transfer's segment is independent, so the pool builds them in
    // parallel and we concatenate in order.
    let segments = pool.map(pairs.len(), |i| {
        let (m0, m1) = pairs[i];
        let mut seg = Vec::with_capacity(2 * (elem + 16));
        let mut shared = Vec::with_capacity(elem);
        for (b, msg) in [m0, m1].into_iter().enumerate() {
            let r = &rs[2 * i + b];
            group.encode(&group.mul_base(r), &mut seg);
            shared.clear();
            group.encode(&group.mul(&pks[i][b], r), &mut shared);
            let mask = hash.hash_bytes(&shared, (i as u64) << 1 | b as u64);
            seg.extend_from_slice(&(mask ^ msg).to_bytes());
        }
        seg
    });
    channel.send(&segments.concat())?;
    Ok(())
}

/// Runs the receiver side with precomputed keypairs; returns the chosen
/// message per transfer. The keys are consumed: a discrete log must never
/// serve two protocol runs.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements.
///
/// # Panics
///
/// Panics if `keys` does not cover exactly `choices.len()` transfers.
pub fn receive_with<C: Channel, G: Group>(
    channel: &mut C,
    choices: &[bool],
    keys: ReceiverKeys<G>,
) -> Result<Vec<Block>, OtError> {
    receive_with_pool(channel, choices, keys, ThreadPool::sequential())
}

/// [`receive_with`] with the online work — the `PK_0` derivations and the
/// chosen-branch decryptions — fanned out across `pool`. The wire
/// transcript is byte-identical to the sequential path's.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements.
///
/// # Panics
///
/// Panics if `keys` does not cover exactly `choices.len()` transfers.
pub fn receive_with_pool<C: Channel, G: Group>(
    channel: &mut C,
    choices: &[bool],
    keys: ReceiverKeys<G>,
    pool: ThreadPool,
) -> Result<Vec<Block>, OtError> {
    assert_eq!(
        keys.keys.len(),
        choices.len(),
        "precomputed keys must cover every choice"
    );
    let group = &keys.group;
    let hash = FixedKeyHash::new();
    let elem = group.element_len();
    let big_c = group.decode(&channel.recv(elem)?).ok_or_else(|| {
        OtError::Protocol(format!(
            "sender key C is not a non-identity {} element",
            group.name()
        ))
    })?;
    // Every PK_0 in one flight: both candidates computed, one selected
    // without a branch on the choice bit.
    let pk0s = pool.map(choices.len(), |i| {
        let gk = &keys.keys[i].1;
        group.select(gk, &group.sub(&big_c, gk), choices[i])
    });
    let mut pk_flight = Vec::with_capacity(choices.len() * elem);
    for pk0 in &pk0s {
        group.encode(pk0, &mut pk_flight);
    }
    channel.send(&pk_flight)?;
    // Both ciphertexts of every transfer in one flight. Validate every
    // r·G up front, both branches alike, so whether the receiver aborts
    // never depends on its choice bits.
    let per_branch = elem + 16;
    let cts = channel.recv(choices.len() * 2 * per_branch)?;
    let mut branches = Vec::with_capacity(choices.len());
    for (i, pair) in cts.chunks_exact(2 * per_branch).enumerate() {
        let branch = |b: usize| {
            let at = b * per_branch;
            let gr = group.decode(&pair[at..at + elem]).ok_or_else(|| {
                OtError::Protocol(format!(
                    "ciphertext {i} randomness is not a non-identity {} element",
                    group.name()
                ))
            })?;
            let mut ct = [0u8; 16];
            ct.copy_from_slice(&pair[at + elem..at + per_branch]);
            Ok::<_, OtError>((gr, u128::from_le_bytes(ct)))
        };
        branches.push([branch(0)?, branch(1)?]);
    }
    let out = pool.map(choices.len(), |i| {
        let sigma = choices[i];
        let [(gr0, ct0), (gr1, ct1)] = &branches[i];
        let gr = group.select(gr0, gr1, sigma);
        let pick = 0u128.wrapping_sub(std::hint::black_box(u128::from(sigma)));
        let ct = ct0 ^ ((ct0 ^ ct1) & pick);
        let mut shared = Vec::with_capacity(elem);
        group.encode(&group.mul(&gr, &keys.keys[i].0), &mut shared);
        let mask = hash.hash_bytes(&shared, (i as u64) << 1 | u64::from(sigma));
        Block::from_bytes(ct.to_le_bytes()) ^ mask
    });
    Ok(out)
}

/// Runs the receiver side, generating keypairs on the spot; returns the
/// chosen message per transfer.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements.
pub fn receive<C: Channel, G: Group, R: Rng + ?Sized>(
    channel: &mut C,
    group: &G,
    choices: &[bool],
    rng: &mut R,
) -> Result<Vec<Block>, OtError> {
    let keys = ReceiverKeys::generate(group, choices.len(), rng);
    receive_with(channel, choices, keys)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::channel::{mem_pair, ChannelError, MemChannel};
    use crate::ristretto::{RistrettoPoint, Scalar};

    use super::*;

    fn run_base_ot(choices: Vec<bool>) -> (Vec<(Block, Block)>, Vec<Block>) {
        let pairs: Vec<(Block, Block)> = (0..choices.len() as u128)
            .map(|i| (Block::from(2 * i), Block::from(2 * i + 1)))
            .collect();
        let (mut ca, mut cb) = mem_pair();
        let pairs2 = pairs.clone();
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100);
            send(&mut ca, &Ristretto255, &pairs2, &mut rng).unwrap();
        });
        let mut rng = StdRng::seed_from_u64(200);
        let got = receive(&mut cb, &Ristretto255, &choices, &mut rng).unwrap();
        sender.join().unwrap();
        (pairs, got)
    }

    #[test]
    fn receiver_gets_chosen_messages() {
        let choices = vec![false, true, true, false, true];
        let (pairs, got) = run_base_ot(choices.clone());
        for ((pair, choice), msg) in pairs.iter().zip(&choices).zip(&got) {
            let want = if *choice { pair.1 } else { pair.0 };
            assert_eq!(*msg, want);
        }
    }

    #[test]
    fn all_zero_and_all_one_choices() {
        let (pairs, got) = run_base_ot(vec![false; 4]);
        assert!(pairs.iter().zip(&got).all(|(p, g)| p.0 == *g));
        let (pairs, got) = run_base_ot(vec![true; 4]);
        assert!(pairs.iter().zip(&got).all(|(p, g)| p.1 == *g));
    }

    #[test]
    fn precomputed_keys_match_inline_generation() {
        // The keypairs are peer-independent: generating them long before
        // the transfer must decrypt the same chosen messages — in the
        // production group and in the MODP bridge alike.
        fn check<G: Group + 'static>(group: G) {
            let choices = vec![true, false, true];
            let keys = {
                let mut rng = StdRng::seed_from_u64(77);
                ReceiverKeys::generate(&group, choices.len(), &mut rng)
            };
            assert_eq!(keys.len(), 3);
            assert!(!keys.is_empty());
            let pairs: Vec<(Block, Block)> = (0..3u128)
                .map(|i| (Block::from(i), Block::from(i + 100)))
                .collect();
            let (mut ca, mut cb) = mem_pair();
            let pairs2 = pairs.clone();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1);
                send(&mut ca, &group, &pairs2, &mut rng).unwrap();
            });
            let got = receive_with(&mut cb, &choices, keys).unwrap();
            sender.join().unwrap();
            for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
                assert_eq!(*msg, if c { pair.1 } else { pair.0 });
            }
        }
        check(Ristretto255);
        check(DhGroup::modp_768());
    }

    /// A channel spy counting direction changes (send→recv and recv→send
    /// transitions) — the round-trip yardstick the batching satellite
    /// targets.
    struct TurnCounter {
        inner: MemChannel,
        last_was_send: Option<bool>,
        turnarounds: u32,
    }

    impl TurnCounter {
        fn new(inner: MemChannel) -> TurnCounter {
            TurnCounter {
                inner,
                last_was_send: None,
                turnarounds: 0,
            }
        }

        fn note(&mut self, is_send: bool) {
            if self.last_was_send.is_some_and(|l| l != is_send) {
                self.turnarounds += 1;
            }
            self.last_was_send = Some(is_send);
        }
    }

    impl Channel for TurnCounter {
        fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
            self.note(true);
            self.inner.send(data)
        }
        fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
            self.note(false);
            self.inner.recv(n)
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
        fn bytes_received(&self) -> u64 {
            self.inner.bytes_received()
        }
    }

    #[test]
    fn flight_count_is_constant_in_the_batch_size() {
        // 4 transfers and 64 transfers must cost the same number of
        // direction changes (the old per-transfer ping-pong grew as 2n),
        // and every element is 32 bytes: C, n·PK_0, n·2·(r·G ‖ ct).
        let run = |n: usize| {
            let pairs = vec![(Block::ZERO, Block::ONES); n];
            let (ca, mut cb) = mem_pair();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(9);
                let mut chan = TurnCounter::new(ca);
                send(&mut chan, &Ristretto255, &pairs, &mut rng).unwrap();
                chan.turnarounds
            });
            let mut rng = StdRng::seed_from_u64(10);
            let _ = receive(&mut cb, &Ristretto255, &vec![false; n], &mut rng).unwrap();
            let bytes = cb.bytes_sent() + cb.bytes_received();
            (sender.join().unwrap(), bytes)
        };
        let (small, small_bytes) = run(4);
        let (large, large_bytes) = run(64);
        assert_eq!(small, large, "flights must not grow with the batch");
        assert!(small <= 2, "sender: send C, recv PKs, send cts = 2 turns");
        assert_eq!(small_bytes, 32 + 4 * 32 + 4 * 2 * (32 + 16));
        assert_eq!(large_bytes, 32 + 64 * 32 + 64 * 2 * (32 + 16));
    }

    #[test]
    fn pooled_paths_match_sequential_bit_for_bit() {
        // The pool is a pure perf knob: same seeds, same keys, same wire
        // bytes, same decrypted messages — whatever the worker count.
        let encoded = |keys: &ReceiverKeys| -> Vec<[u8; 32]> {
            keys.keys.iter().map(|(_, gk)| gk.encode()).collect()
        };
        let keys_digest = |pool: ThreadPool| {
            let mut rng = StdRng::seed_from_u64(42);
            encoded(&ReceiverKeys::generate_with(
                &Ristretto255,
                5,
                &mut rng,
                pool,
            ))
        };
        let seq_keys = keys_digest(ThreadPool::sequential());
        assert_eq!(seq_keys, keys_digest(ThreadPool::new(4)));

        let run = |pool: ThreadPool| {
            let choices = vec![true, false, true, true, false];
            let pairs: Vec<(Block, Block)> = (0..choices.len() as u128)
                .map(|i| (Block::from(3 * i), Block::from(3 * i + 7)))
                .collect();
            let (mut ca, mut cb) = mem_pair();
            let pairs2 = pairs.clone();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(31);
                send_with_pool(&mut ca, &Ristretto255, &pairs2, &mut rng, pool).unwrap();
            });
            let mut rng = StdRng::seed_from_u64(32);
            let keys = ReceiverKeys::generate_with(&Ristretto255, choices.len(), &mut rng, pool);
            let got = receive_with_pool(&mut cb, &choices, keys, pool).unwrap();
            sender.join().unwrap();
            for ((pair, &c), msg) in pairs.iter().zip(&choices).zip(&got) {
                assert_eq!(*msg, if c { pair.1 } else { pair.0 });
            }
            got
        };
        assert_eq!(run(ThreadPool::sequential()), run(ThreadPool::new(4)));

        // Byte-level: script the receiver flight and compare the sender's
        // ciphertext flight across pools.
        let ciphertext_flight = |pool: ThreadPool| {
            let pairs = vec![(Block::from(5u128), Block::from(6u128)); 4];
            let (mut ca, mut cb) = mem_pair();
            let n = pairs.len();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(55);
                send_with_pool(&mut ca, &Ristretto255, &pairs, &mut rng, pool).unwrap();
            });
            let _big_c = cb.recv(32).unwrap();
            let mut rng = StdRng::seed_from_u64(56);
            let mut pk_flight = Vec::new();
            for _ in 0..n {
                let pk0 = Ristretto255.mul_base(&Scalar::random(&mut rng));
                Ristretto255.encode(&pk0, &mut pk_flight);
            }
            cb.send(&pk_flight).unwrap();
            let cts = cb.recv(n * 2 * (32 + 16)).unwrap();
            sender.join().unwrap();
            cts
        };
        assert_eq!(
            ciphertext_flight(ThreadPool::sequential()),
            ciphertext_flight(ThreadPool::new(4))
        );
    }

    /// Encodings a peer may not send: the identity, the field prime `p`
    /// (non-canonical) and 1 (canonical but negative).
    fn invalid_encodings() -> [(&'static str, [u8; 32]); 3] {
        let mut p = [0xff; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        let mut one = [0u8; 32];
        one[0] = 1;
        [
            ("identity", RistrettoPoint::identity().encode()),
            ("non-canonical", p),
            ("negative", one),
        ]
    }

    fn random_point(seed: u64) -> RistrettoPoint {
        Ristretto255.mul_base(&Scalar::random(&mut StdRng::seed_from_u64(seed)))
    }

    #[test]
    fn receiver_rejects_out_of_range_sender_elements() {
        // A scripted sender: the receiver must return a typed protocol
        // error, never panic, whether the bad element is C itself or a
        // ciphertext's r·G — including an r·G on a branch it would never
        // decrypt.
        let choices = [true, false];
        let keys =
            |seed| ReceiverKeys::generate(&Ristretto255, 2, &mut StdRng::seed_from_u64(seed));
        for (what, bad) in invalid_encodings() {
            let (mut ca, mut cb) = mem_pair();
            ca.send(&bad).unwrap();
            let err = receive_with(&mut cb, &choices, keys(1)).unwrap_err();
            assert!(matches!(err, OtError::Protocol(_)), "{what} C: {err}");
            assert!(err.to_string().contains("sender key C"), "{err}");
        }
        // Transfer 1 chose branch 0, so ciphertext 3 (transfer 1, branch
        // 1) is unchosen; ciphertext 0 (transfer 0, branch 0) is unchosen
        // too; ciphertext 1 is chosen.
        for slot in [3, 0, 1] {
            for (what, bad) in invalid_encodings() {
                let (mut ca, mut cb) = mem_pair();
                ca.send(&random_point(2).encode()).unwrap();
                let mut cts = Vec::new();
                for i in 0..2 * choices.len() {
                    let gr = if i == slot {
                        bad
                    } else {
                        random_point(i as u64 + 3).encode()
                    };
                    cts.extend_from_slice(&gr);
                    cts.extend_from_slice(&[0u8; 16]);
                }
                ca.send(&cts).unwrap();
                let err = receive_with(&mut cb, &choices, keys(3)).unwrap_err();
                assert!(matches!(err, OtError::Protocol(_)), "{what} r·G: {err}");
                assert!(err.to_string().contains("randomness"), "{err}");
                assert!(ca.recv(2 * 32).is_ok(), "the PK_0 flight went out first");
            }
        }
    }

    #[test]
    fn sender_rejects_invalid_receiver_keys() {
        // A scripted receiver: every invalid PK_0 — the identity, a
        // non-canonical or negative encoding, or C itself (so that
        // PK_1 = C − PK_0 is the identity) — is a typed protocol error
        // before any ciphertext is sent.
        let pairs = [(Block::ZERO, Block::ONES); 2];
        let mut cases: Vec<(&str, Option<[u8; 32]>)> = invalid_encodings()
            .into_iter()
            .map(|(what, bad)| (what, Some(bad)))
            .collect();
        cases.push(("PK_0 == C", None));
        for (what, bad) in cases {
            let (mut ca, mut cb) = mem_pair();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(4);
                let err = send(&mut ca, &Ristretto255, &pairs, &mut rng).unwrap_err();
                (err, ca)
            });
            let big_c = cb.recv(32).unwrap();
            let mut flight = random_point(5).encode().to_vec();
            flight.extend_from_slice(&bad.unwrap_or_else(|| big_c.clone().try_into().unwrap()));
            cb.send(&flight).unwrap();
            let (err, _ca) = sender.join().unwrap();
            assert!(matches!(err, OtError::Protocol(_)), "{what}: {err}");
            assert!(err.to_string().contains("public key 1"), "{what}: {err}");
            assert_eq!(cb.bytes_received(), 32, "{what}: no ciphertext flight");
        }
    }

    #[test]
    fn transcript_is_randomized() {
        // Two runs with different sender randomness produce different
        // ciphertext streams even for equal inputs, of equal length (the
        // protocol is oblivious in length).
        let pairs = vec![(Block::from(1u128), Block::from(2u128))];
        let transcript = |seed: u64| {
            let (mut ca, mut cb) = mem_pair();
            let pairs2 = pairs.clone();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                send(&mut ca, &Ristretto255, &pairs2, &mut rng).unwrap();
            });
            let c = cb.recv(32).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 1);
            cb.send(&random_point(rng.gen()).encode()).unwrap();
            let cts = cb.recv(2 * (32 + 16)).unwrap();
            sender.join().unwrap();
            [c, cts].concat()
        };
        let (a, b) = (transcript(1), transcript(2));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }
}
