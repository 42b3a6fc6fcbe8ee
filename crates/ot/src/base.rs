//! Base 1-out-of-2 oblivious transfer: the "simplest OT" of Chou and
//! Orlandi (LATINCRYPT 2015, ePrint 2015/267) over a prime-order group,
//! run as a batched *random* OT between honest-but-curious parties.
//!
//! Protocol, for `n` transfers in two flights whatever `n` is:
//!
//! 1. The sender samples `a` and sends `A = a·G`.
//! 2. The receiver, with choice bit `σ_i` and a fresh keypair
//!    `(b_i, b_i·G)` per transfer, sends every `B_i = b_i·G + σ_i·A` in
//!    one flight and outputs `H(A ‖ B_i ‖ b_i·A, i)`.
//! 3. The sender outputs the pair `k_0 = H(A ‖ B_i ‖ a·B_i, i)` and
//!    `k_1 = H(A ‖ B_i ‖ a·B_i − a·A, i)`.
//!
//! As `a·B_i = b_i·A + σ_i·a·A`, the receiver's output is `k_{σ_i}`.
//!
//! **Why a random OT is enough.** Neither key is chosen by the sender:
//! both come out of the protocol. That is all IKNP asks of its base OTs —
//! 128 pairs of independent uniform PRG seeds, of which the other party
//! holds one per pair, picked by its secret bits — so [`crate::ext`] uses
//! the keys as the seeds, and no flight of ciphertexts has to carry
//! chosen messages.
//!
//! **Security (semi-honest, `H` a random oracle).** The receiver's flight
//! hides `σ_i` perfectly: `b_i·G` is uniform, and so is `b_i·G + A`. The
//! receiver knows `b_i·A`; the key it did not choose is `H` at `b_i·A −
//! a²·G` (for `σ_i = 0`) or `b_i·A + a²·G` (for `σ_i = 1`), so querying it
//! needs `a²·G` from `A = a·G` — the square Diffie–Hellman problem, as
//! hard as CDH. Hashing `A ‖ B_i` and the index `i` in makes every key of
//! every session an independent oracle point.
//!
//! **Validation.** Production runs in [`Ristretto255`]: prime order,
//! 32-byte elements, and decoding is the validation. The receiver refuses
//! an `A` that is not the canonical encoding of a non-identity element
//! (an identity `A` would make both keys equal). The sender refuses any
//! `B_i` that is not, and any `B_i` equal to `A` (whose `k_1` would hash
//! the identity). Each refusal is an [`OtError::Protocol`] before any key
//! is derived or another byte is sent.
//!
//! **Constant time.** The receiver's bits `σ_i` (the IKNP garbler's
//! secret `s`) reach only a masked select between `b_i·G` and
//! `b_i·G + A`; it can abort only on `A`, before it reads a bit. Every
//! `b_i·A` comes from one window table of `A`, built once per session,
//! whose lookups scan every entry under a mask; `a` and the `b_i` go
//! through the constant-time window multiplications of [`Ristretto255`].
//!
//! The receiver's keypairs `(b_i, b_i·G)` depend on neither the peer nor
//! the choice bits, so [`ReceiverKeys::generate`] lets callers hoist
//! those multiplications out of the connection's critical path (the
//! serving layer's precompute pool does exactly this). Online, the
//! receiver does one addition per transfer before its flight and one
//! table multiplication after it, while the sender's `n` variable-base
//! multiplications run; those stay on the critical path.

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
    /// One element's precomputation for multiplying it by many scalars.
    type Table: Send + Sync;

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
    /// `e`'s table for [`Group::mul_table`].
    fn table(&self, e: &Self::Element) -> Self::Table;
    /// `k·e` from `e`'s [`Group::table`].
    fn mul_table(&self, table: &Self::Table, k: &Self::Scalar) -> Self::Element;
    /// `a + b`.
    fn add(&self, a: &Self::Element, b: &Self::Element) -> Self::Element;
    /// `a − b`.
    fn sub(&self, a: &Self::Element, b: &Self::Element) -> Self::Element;
    /// `b` if `pick_b`, else `a` (constant-time in [`Ristretto255`]).
    fn select(&self, a: &Self::Element, b: &Self::Element, pick_b: bool) -> Self::Element;
    /// Appends `e`'s [`Group::element_len`]-byte encoding to `out`.
    fn encode(&self, e: &Self::Element, out: &mut Vec<u8>);
    /// Parses a peer's element: `None` unless `bytes` is the canonical
    /// encoding of a group element other than the identity.
    fn decode(&self, bytes: &[u8]) -> Option<Self::Element>;
}

impl sealed::Sealed for DhGroup {}

/// The 768-bit MODP bridge, kept only because the `dsbench` ladder runs
/// its `ot.base_setup_ms` / `ot.base_bytes` rows in this group. Written
/// multiplicatively underneath: `add` is a modular product and a "table"
/// is the element itself. Its `select` branches; no session uses it.
impl Group for DhGroup {
    type Scalar = Ubig;
    type Element = Ubig;
    type Table = Ubig;

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

    fn table(&self, e: &Ubig) -> Ubig {
        e.clone()
    }

    fn mul_table(&self, table: &Ubig, k: &Ubig) -> Ubig {
        self.pow(table, k)
    }

    fn add(&self, a: &Ubig, b: &Ubig) -> Ubig {
        DhGroup::mul(self, a, b)
    }

    fn sub(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.div(a, b)
    }

    fn select(&self, a: &Ubig, b: &Ubig, pick_b: bool) -> Ubig {
        if pick_b { b } else { a }.clone()
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

/// Precomputed receiver-side keypairs `(b_i, b_i·G)` for a batch of base
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

/// Transfer `i`'s key `H(A ‖ B_i ‖ shared, i)`, from the encodings of `A`
/// and `B_i` as they crossed the wire.
fn key<G: Group>(
    hash: &FixedKeyHash,
    group: &G,
    a: &[u8],
    b: &[u8],
    shared: &G::Element,
    i: usize,
) -> Block {
    let mut data = Vec::with_capacity(a.len() + b.len() + group.element_len());
    data.extend_from_slice(a);
    data.extend_from_slice(b);
    group.encode(shared, &mut data);
    hash.hash_bytes(&data, i as u64)
}

/// Runs the sender side of `n` random base OTs (two flights in all) and
/// returns both keys of every transfer.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements.
pub fn send<C: Channel, G: Group, R: Rng + ?Sized>(
    channel: &mut C,
    group: &G,
    n: usize,
    rng: &mut R,
) -> Result<Vec<(Block, Block)>, OtError> {
    send_with_pool(channel, group, n, rng, ThreadPool::sequential())
}

/// [`send`] with the per-transfer work (decoding `B_i`, one
/// variable-base multiplication, two hashes) fanned out across `pool`.
/// The keys are identical to the sequential path's for the same seed.
///
/// # Errors
///
/// Fails on channel breakdown or invalid group elements — every `B_i` is
/// validated before any key is derived.
pub fn send_with_pool<C: Channel, G: Group, R: Rng + ?Sized>(
    channel: &mut C,
    group: &G,
    n: usize,
    rng: &mut R,
    pool: ThreadPool,
) -> Result<Vec<(Block, Block)>, OtError> {
    let elem = group.element_len();
    let a = group.random_scalar(rng);
    let big_a = group.mul_base(&a);
    let mut a_bytes = Vec::with_capacity(elem);
    group.encode(&big_a, &mut a_bytes);
    channel.send(&a_bytes)?;
    // `a·A` needs no peer: it is computed while the receiver works.
    let a_a = group.mul(&big_a, &a);
    let flight = channel.recv(n * elem)?;
    let b_bytes: Vec<&[u8]> = flight.chunks_exact(elem).collect();
    let decoded = pool.map(n, |i| group.decode(b_bytes[i]));
    let mut bs = Vec::with_capacity(n);
    for (i, (bytes, b)) in b_bytes.iter().zip(decoded).enumerate() {
        let b = b.ok_or_else(|| {
            OtError::Protocol(format!(
                "receiver element B_{i} is not a non-identity {} element",
                group.name()
            ))
        })?;
        if *bytes == a_bytes.as_slice() {
            return Err(OtError::Protocol(format!(
                "receiver element B_{i} equals the sender element A"
            )));
        }
        bs.push(b);
    }
    let hash = FixedKeyHash::new();
    Ok(pool.map(n, |i| {
        let ab = group.mul(&bs[i], &a);
        let k0 = key(&hash, group, &a_bytes, b_bytes[i], &ab, i);
        let k1 = key(&hash, group, &a_bytes, b_bytes[i], &group.sub(&ab, &a_a), i);
        (k0, k1)
    }))
}

/// Runs the receiver side with precomputed keypairs; returns the chosen
/// key per transfer. The keys are consumed: a discrete log must never
/// serve two protocol runs.
///
/// # Errors
///
/// Fails on channel breakdown or an invalid `A`.
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

/// [`receive_with`] with the online work — the `B_i` selections and the
/// table multiplications — fanned out across `pool`. The wire transcript
/// is byte-identical to the sequential path's.
///
/// # Errors
///
/// Fails on channel breakdown or an invalid `A`.
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
    let elem = group.element_len();
    let a_bytes = channel.recv(elem)?;
    let big_a = group.decode(&a_bytes).ok_or_else(|| {
        OtError::Protocol(format!(
            "sender element A is not a non-identity {} element",
            group.name()
        ))
    })?;
    // Every B_i in one flight: both candidates computed, one selected
    // without a branch on the choice bit.
    let b_flight = pool
        .map(choices.len(), |i| {
            let bg = &keys.keys[i].1;
            let mut b = Vec::with_capacity(elem);
            group.encode(
                &group.select(bg, &group.add(bg, &big_a), choices[i]),
                &mut b,
            );
            b
        })
        .concat();
    channel.send(&b_flight)?;
    // Every b_i·A from one table of A, built once the flight is out.
    let table = group.table(&big_a);
    let hash = FixedKeyHash::new();
    Ok(pool.map(choices.len(), |i| {
        let shared = group.mul_table(&table, &keys.keys[i].0);
        let b = &b_flight[i * elem..(i + 1) * elem];
        key(&hash, group, &a_bytes, b, &shared, i)
    }))
}

/// Runs the receiver side, generating keypairs on the spot; returns the
/// chosen key per transfer.
///
/// # Errors
///
/// Fails on channel breakdown or an invalid `A`.
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

    /// One run in `group` with the sender on a thread: `(sender pairs,
    /// receiver keys)`.
    fn run_in<G: Group + 'static>(group: G, choices: &[bool]) -> (Vec<(Block, Block)>, Vec<Block>) {
        let (mut ca, mut cb) = mem_pair();
        let n = choices.len();
        let g = group.clone();
        let sender = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100);
            send(&mut ca, &g, n, &mut rng).unwrap()
        });
        let mut rng = StdRng::seed_from_u64(200);
        let got = receive(&mut cb, &group, choices, &mut rng).unwrap();
        (sender.join().unwrap(), got)
    }

    /// Asserts that each receiver key is the sender's key for its bit and
    /// differs from the other one.
    fn assert_chosen(pairs: &[(Block, Block)], choices: &[bool], got: &[Block]) {
        assert_eq!((pairs.len(), got.len()), (choices.len(), choices.len()));
        for (i, ((&(k0, k1), &c), &k)) in pairs.iter().zip(choices).zip(got).enumerate() {
            let (chosen, other) = if c { (k1, k0) } else { (k0, k1) };
            assert_eq!(k, chosen, "transfer {i}, bit {c}");
            assert_ne!(k, other, "transfer {i}, bit {c}");
        }
    }

    #[test]
    fn receiver_key_is_the_sender_key_for_its_bit() {
        // One transfer per value of the bit, in the production group and
        // in the MODP bridge.
        for bit in [false, true] {
            let (pairs, got) = run_in(Ristretto255, &[bit]);
            assert_chosen(&pairs, &[bit], &got);
            let (pairs, got) = run_in(DhGroup::modp_768(), &[bit]);
            assert_chosen(&pairs, &[bit], &got);
        }
    }

    #[test]
    fn receiver_gets_chosen_messages() {
        let choices = [false, true, true, false, true];
        let (pairs, got) = run_in(Ristretto255, &choices);
        assert_chosen(&pairs, &choices, &got);
    }

    #[test]
    fn all_zero_and_all_one_choices() {
        for choices in [[false; 4], [true; 4]] {
            let (pairs, got) = run_in(Ristretto255, &choices);
            assert_chosen(&pairs, &choices, &got);
        }
    }

    #[test]
    fn keys_are_distinct_across_transfers_and_sessions() {
        // Every key hashes A, B_i and i: no two transfers, and no two
        // sessions with fresh randomness, share one.
        let choices = [false, true, false, true];
        let (pairs, _) = run_in(Ristretto255, &choices);
        let mut all: Vec<u128> = pairs
            .iter()
            .flat_map(|&(a, b)| [a.into(), b.into()])
            .collect();
        let (mut ca, mut cb) = mem_pair();
        let sender = std::thread::spawn(move || {
            send(&mut ca, &Ristretto255, 4, &mut StdRng::seed_from_u64(101)).unwrap()
        });
        receive(
            &mut cb,
            &Ristretto255,
            &choices,
            &mut StdRng::seed_from_u64(201),
        )
        .unwrap();
        all.extend(
            sender
                .join()
                .unwrap()
                .iter()
                .flat_map(|&(a, b)| [u128::from(a), b.into()]),
        );
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn precomputed_keys_match_inline_generation() {
        // The keypairs are peer-independent: generating them long before
        // the transfer must yield the same keys as generating them inline
        // from the same seed — in the production group and in the MODP
        // bridge alike.
        fn check<G: Group + 'static>(group: G) {
            let choices = vec![true, false, true];
            let (pairs, inline) = run_in(group.clone(), &choices);
            let keys =
                ReceiverKeys::generate(&group, choices.len(), &mut StdRng::seed_from_u64(200));
            assert_eq!(keys.len(), 3);
            assert!(!keys.is_empty());
            let (mut ca, mut cb) = mem_pair();
            let g = group.clone();
            let sender = std::thread::spawn(move || {
                send(&mut ca, &g, 3, &mut StdRng::seed_from_u64(100)).unwrap()
            });
            let got = receive_with(&mut cb, &choices, keys).unwrap();
            assert_eq!(sender.join().unwrap(), pairs);
            assert_eq!(got, inline, "{}", group.name());
            assert_chosen(&pairs, &choices, &got);
        }
        check(Ristretto255);
        check(DhGroup::modp_768());
    }

    /// A channel spy counting direction changes (send→recv and recv→send
    /// transitions) — the round-trip yardstick the batching satellite
    /// targets.
    struct TurnSpy {
        inner: MemChannel,
        last_was_send: Option<bool>,
        turnarounds: u32,
    }

    impl TurnSpy {
        fn new(inner: MemChannel) -> TurnSpy {
            TurnSpy {
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

    impl Channel for TurnSpy {
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
        // and every element is 32 bytes: A, then n·B_i.
        let run = |n: usize| {
            let (ca, mut cb) = mem_pair();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(9);
                let mut chan = TurnSpy::new(ca);
                send(&mut chan, &Ristretto255, n, &mut rng).unwrap();
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
        assert_eq!(small, 1, "sender: send A, recv every B_i = 1 turn");
        assert_eq!(small_bytes, 32 + 4 * 32);
        assert_eq!(large_bytes, 32 + 64 * 32);
    }

    #[test]
    fn pooled_paths_match_sequential_bit_for_bit() {
        // The pool is a pure perf knob: same seeds, same keys, same wire
        // bytes, same outputs on both sides — whatever the worker count.
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
            let (mut ca, mut cb) = mem_pair();
            let n = choices.len();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(31);
                send_with_pool(&mut ca, &Ristretto255, n, &mut rng, pool).unwrap()
            });
            let mut rng = StdRng::seed_from_u64(32);
            let keys = ReceiverKeys::generate_with(&Ristretto255, n, &mut rng, pool);
            let got = receive_with_pool(&mut cb, &choices, keys, pool).unwrap();
            let pairs = sender.join().unwrap();
            assert_chosen(&pairs, &choices, &got);
            (pairs, got)
        };
        assert_eq!(run(ThreadPool::sequential()), run(ThreadPool::new(4)));

        // Byte-level: script the sender's A and compare the receiver's
        // flight across pools.
        let receiver_flight = |pool: ThreadPool| {
            let (mut ca, mut cb) = mem_pair();
            ca.send(&random_point(55).encode()).unwrap();
            let keys = ReceiverKeys::generate(&Ristretto255, 4, &mut StdRng::seed_from_u64(56));
            receive_with_pool(&mut cb, &[true, false, false, true], keys, pool).unwrap();
            ca.recv(4 * 32).unwrap()
        };
        assert_eq!(
            receiver_flight(ThreadPool::sequential()),
            receiver_flight(ThreadPool::new(4))
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
        // A scripted sender: an identity, non-canonical or negative A is a
        // typed protocol error, never a panic, and the receiver sends
        // nothing — its choice bits are never read.
        for (what, bad) in invalid_encodings() {
            let (mut ca, mut cb) = mem_pair();
            ca.send(&bad).unwrap();
            let keys = ReceiverKeys::generate(&Ristretto255, 2, &mut StdRng::seed_from_u64(1));
            let err = receive_with(&mut cb, &[true, false], keys).unwrap_err();
            assert!(matches!(err, OtError::Protocol(_)), "{what} A: {err}");
            assert!(err.to_string().contains("sender element A"), "{err}");
            assert_eq!(cb.bytes_sent(), 0, "{what}: no B flight");
        }
    }

    #[test]
    fn sender_rejects_invalid_receiver_keys() {
        // A scripted receiver: every invalid B_1 — the identity, a
        // non-canonical or negative encoding, or A itself (so that
        // B_1 − A is the identity) — is a typed protocol error before any
        // key is derived, and the sender sends nothing after A.
        let mut cases: Vec<(&str, Option<[u8; 32]>)> = invalid_encodings()
            .into_iter()
            .map(|(what, bad)| (what, Some(bad)))
            .collect();
        cases.push(("B_1 == A", None));
        for (what, bad) in cases {
            let (mut ca, mut cb) = mem_pair();
            let sender = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(4);
                let err = send(&mut ca, &Ristretto255, 2, &mut rng).unwrap_err();
                (err, ca)
            });
            let big_a = cb.recv(32).unwrap();
            let mut flight = random_point(5).encode().to_vec();
            flight.extend_from_slice(&bad.unwrap_or_else(|| big_a.clone().try_into().unwrap()));
            cb.send(&flight).unwrap();
            let (err, ca) = sender.join().unwrap();
            assert!(matches!(err, OtError::Protocol(_)), "{what}: {err}");
            assert!(err.to_string().contains("element B_1"), "{what}: {err}");
            assert_eq!(ca.bytes_sent(), 32, "{what}: nothing after A");
        }
    }

    #[test]
    fn transcript_is_randomized() {
        // For one key set, bit 0 sends b_i·G and bit 1 sends b_i·G + A:
        // the flight depends on the bits, yet fresh keys make two flights
        // for equal bits differ, and every flight has the same length.
        let flight = |seed: u64, choices: &[bool]| {
            let (mut ca, mut cb) = mem_pair();
            ca.send(&random_point(7).encode()).unwrap();
            let keys = ReceiverKeys::generate(&Ristretto255, 2, &mut StdRng::seed_from_u64(seed));
            receive_with(&mut cb, choices, keys).unwrap();
            ca.recv(2 * 32).unwrap()
        };
        let zeros = flight(1, &[false, false]);
        assert_eq!(
            &zeros[..32],
            &random_point(1).encode()[..],
            "bit 0 sends b·G"
        );
        assert_ne!(flight(1, &[true, false])[..32], zeros[..32]);
        assert_eq!(flight(1, &[true, false])[32..], zeros[32..]);
        assert_ne!(flight(2, &[false, false]), zeros);
    }
}
