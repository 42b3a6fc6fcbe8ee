//! Ristretto255 (RFC 9496): the prime-order group every base OT runs in.
//!
//! Ristretto255 is the prime-order quotient of the twisted Edwards curve
//! `-x² + y² = 1 + d·x²y²` over GF(2²⁵⁵ − 19) (edwards25519, RFC 7748).
//! Its order is the prime `ℓ = 2²⁵² + 27742317777372353535851937790883648493`,
//! and every element has exactly one 32-byte encoding, so a peer's bytes
//! are validated by decoding them: a non-canonical or off-group string
//! simply does not decode, and there is no cofactor to clear.
//!
//! * `Fe` — a field element in five 51-bit limbs with `u128`
//!   products. Every operation leaves each limb below 2⁵², so sums and
//!   differences need no reduction before the next product; only
//!   `Fe::to_bytes` reduces fully.
//! * [`RistrettoPoint`] — extended Edwards coordinates `(X : Y : Z : T)`
//!   with `x = X/Z`, `y = Y/Z`, `xy = T/Z`, and the unified
//!   addition and doubling formulas of Hisil–Wong–Carter–Dawson, which
//!   are complete on this curve (`a = −1` is a square, `d` is not).
//! * [`Scalar`] — an exponent in `[1, ℓ)`.
//!
//! Scalar multiplication uses a signed 4-bit fixed window. The 64 digits
//! are all in `[−8, 8]`, and each table lookup scans all eight entries
//! with masks, so neither a branch nor a memory index depends on the
//! scalar. A point that is multiplied many times gets a [`WindowTable`]
//! of every window's eight multiples instead, which drops the doublings:
//! the generator's is built once per process, and the base OT builds one
//! per session for the peer's element. Encoding (which runs on secret
//! shared points) is written the same way; decoding only ever sees the
//! peer's public bytes.
//!
//! The curve constants `d`, `√−1`, `1/√(a − d)` and the generator are
//! derived from field operations on first use rather than pasted as
//! hex; the RFC 9496 test vectors in this module's tests pin the result.

use std::sync::OnceLock;

use rand::Rng;

use crate::base::{sealed, Group};

/// One limb's worth of bits: 2⁵¹ − 1.
const MASK51: u64 = (1 << 51) - 1;

/// All ones when `bit` is 1, zero when it is 0. `black_box` keeps the
/// optimiser from turning the mask back into a branch.
fn mask(bit: u64) -> u64 {
    0u64.wrapping_sub(std::hint::black_box(bit))
}

/// All ones when `a == b` (both below 2⁶³), in constant time.
fn mask_eq(a: u64, b: u64) -> u64 {
    mask((a ^ b).wrapping_sub(1) >> 63)
}

/// An element of GF(2²⁵⁵ − 19): `Σ limbs[i] · 2^(51·i)`, each limb below
/// 2⁵² between operations.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// A small constant (`v < 2⁵¹`).
    const fn small(v: u64) -> Fe {
        Fe([v, 0, 0, 0, 0])
    }

    /// Carries every limb into the next (the top one wraps around times
    /// 19, as 2²⁵⁵ ≡ 19), leaving limbs below 2⁵¹ + 2¹⁸.
    fn carry(mut l: [u64; 5]) -> Fe {
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[0] += (l[4] >> 51) * 19;
        l[4] &= MASK51;
        Fe(l)
    }

    fn add(&self, b: &Fe) -> Fe {
        let mut l = self.0;
        for (x, y) in l.iter_mut().zip(&b.0) {
            *x += y;
        }
        Fe::carry(l)
    }

    /// `self − b`, computed as `self + 16p − b` so no limb underflows.
    fn sub(&self, b: &Fe) -> Fe {
        const SIXTEEN_P: [u64; 5] = [
            16 * (MASK51 - 18),
            16 * MASK51,
            16 * MASK51,
            16 * MASK51,
            16 * MASK51,
        ];
        let mut l = self.0;
        for ((x, y), p) in l.iter_mut().zip(&b.0).zip(SIXTEEN_P) {
            *x = *x + p - y;
        }
        Fe::carry(l)
    }

    fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Reduces five `u128` column sums (each below 2¹¹²) to limbs.
    fn reduce_wide(c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry = 0u128;
        for (o, col) in out.iter_mut().zip(c) {
            let v = col + carry;
            *o = (v as u64) & MASK51;
            carry = v >> 51;
        }
        // carry < 2⁶², so 19 · carry fits a u128 easily and the sum below
        // one more carry step.
        let v = u128::from(out[0]) + carry * 19;
        out[0] = (v as u64) & MASK51;
        out[1] += (v >> 51) as u64;
        Fe(out)
    }

    fn mul(&self, b: &Fe) -> Fe {
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = b.0;
        let (b1_19, b2_19, b3_19, b4_19) = (b1 * 19, b2 * 19, b3 * 19, b4 * 19);
        Fe::reduce_wide([
            m(a0, b0) + m(a4, b1_19) + m(a3, b2_19) + m(a2, b3_19) + m(a1, b4_19),
            m(a1, b0) + m(a0, b1) + m(a4, b2_19) + m(a3, b3_19) + m(a2, b4_19),
            m(a2, b0) + m(a1, b1) + m(a0, b2) + m(a4, b3_19) + m(a3, b4_19),
            m(a3, b0) + m(a2, b1) + m(a1, b2) + m(a0, b3) + m(a4, b4_19),
            m(a4, b0) + m(a3, b1) + m(a2, b2) + m(a1, b3) + m(a0, b4),
        ])
    }

    fn square(&self) -> Fe {
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let [a0, a1, a2, a3, a4] = self.0;
        let (a0_2, a1_2, a2_2, a3_2) = (2 * a0, 2 * a1, 2 * a2, 2 * a3);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        Fe::reduce_wide([
            m(a0, a0) + m(a1_2, a4_19) + m(a2_2, a3_19),
            m(a0_2, a1) + m(a2_2, a4_19) + m(a3, a3_19),
            m(a0_2, a2) + m(a1, a1) + m(a3_2, a4_19),
            m(a0_2, a3) + m(a1_2, a2) + m(a4, a4_19),
            m(a0_2, a4) + m(a1_2, a3) + m(a2, a2),
        ])
    }

    /// `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Fe {
        (0..k).fold(*self, |x, _| x.square())
    }

    /// `(self^(2²⁵⁰ − 1), self^11)`: the shared prefix of the inversion
    /// and square-root exponents.
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t2 = self.mul(&t0.pow2k(2)); // 9
        let t3 = t0.mul(&t2); // 11
        let t5 = t2.mul(&t3.square()); // 2^5 - 1
        let t7 = t5.pow2k(5).mul(&t5); // 2^10 - 1
        let t9 = t7.pow2k(10).mul(&t7); // 2^20 - 1
        let t11 = t9.pow2k(20).mul(&t9); // 2^40 - 1
        let t13 = t11.pow2k(10).mul(&t7); // 2^50 - 1
        let t15 = t13.pow2k(50).mul(&t13); // 2^100 - 1
        let t17 = t15.pow2k(100).mul(&t15); // 2^200 - 1
        let t19 = t17.pow2k(50).mul(&t13); // 2^250 - 1
        (t19, t3)
    }

    /// `self^(p − 2) = 1/self` (and 0 for 0).
    fn invert(&self) -> Fe {
        let (t19, t3) = self.pow22501();
        t19.pow2k(5).mul(&t3)
    }

    /// `self^((p − 5)/8) = self^(2²⁵² − 3)`.
    fn pow_p58(&self) -> Fe {
        self.pow22501().0.pow2k(2).mul(self)
    }

    /// Reads 32 little-endian bytes, ignoring the top bit (so the value
    /// may be in `[p, 2²⁵⁵)`: decoding rejects those by re-encoding).
    fn from_bytes(b: &[u8; 32]) -> Fe {
        let mut w = [0u64; 4];
        for (word, chunk) in w.iter_mut().zip(b.chunks_exact(8)) {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(chunk);
            *word = u64::from_le_bytes(lane);
        }
        Fe([
            w[0] & MASK51,
            (w[0] >> 51 | w[1] << 13) & MASK51,
            (w[1] >> 38 | w[2] << 26) & MASK51,
            (w[2] >> 25 | w[3] << 39) & MASK51,
            (w[3] >> 12) & MASK51,
        ])
    }

    /// The canonical encoding: the value fully reduced into `[0, p)`,
    /// 32 little-endian bytes.
    fn to_bytes(self) -> [u8; 32] {
        let mut l = Fe::carry(self.0).0;
        // The value is now below 2p; q = 1 exactly when it is ≥ p, i.e.
        // when adding 19 carries out of bit 255.
        let mut q = (l[0] + 19) >> 51;
        for &limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;
        let mut out = [0u8; 32];
        let (mut acc, mut bits, mut at) = (0u128, 0, 0);
        for limb in l {
            acc |= u128::from(limb) << bits;
            bits += 51;
            while bits >= 8 {
                out[at] = acc as u8;
                acc >>= 8;
                bits -= 8;
                at += 1;
            }
        }
        out[at] = acc as u8;
        out
    }

    /// All ones when the canonical value is odd (RFC 9496 `IS_NEGATIVE`).
    fn is_negative(&self) -> u64 {
        mask(u64::from(self.to_bytes()[0] & 1))
    }

    /// All ones when the value is 0 mod p.
    fn is_zero(&self) -> u64 {
        self.ct_eq(&Fe::ZERO)
    }

    /// All ones when `self ≡ b (mod p)`, in constant time.
    fn ct_eq(&self, b: &Fe) -> u64 {
        let (x, y) = (self.to_bytes(), b.to_bytes());
        let diff = x.iter().zip(&y).fold(0u8, |acc, (p, q)| acc | (p ^ q));
        mask_eq(u64::from(diff), 0)
    }

    /// `b` where `m` is all ones, `a` where it is zero.
    fn select(a: &Fe, b: &Fe, m: u64) -> Fe {
        let mut l = a.0;
        for (x, y) in l.iter_mut().zip(&b.0) {
            *x ^= m & (*x ^ y);
        }
        Fe(l)
    }

    /// `−self` where `m` is all ones.
    fn cneg(&self, m: u64) -> Fe {
        Fe::select(self, &self.neg(), m)
    }

    /// The nonnegative (even) one of `±self`.
    fn abs(&self) -> Fe {
        self.cneg(self.is_negative())
    }
}

/// RFC 9496 `SQRT_RATIO_M1(u, v)` given `i = √−1`: `(all ones,
/// √(u/v))` when `u/v` is a square, else `(0, √(i·u/v))`; the root
/// returned is the nonnegative one, and `v = 0` gives `(u = 0, 0)`.
fn sqrt_ratio_i(u: &Fe, v: &Fe, i: &Fe) -> (u64, Fe) {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
    let check = v.mul(&r.square());
    let u_neg = u.neg();
    let correct = check.ct_eq(u);
    let flipped = check.ct_eq(&u_neg);
    let flipped_i = check.ct_eq(&u_neg.mul(i));
    let r = Fe::select(&r, &r.mul(i), flipped | flipped_i);
    (correct | flipped, r.abs())
}

/// [`sqrt_ratio_i`] with the derived `√−1`.
fn sqrt_ratio_m1(u: &Fe, v: &Fe) -> (u64, Fe) {
    sqrt_ratio_i(u, v, &consts().sqrt_m1)
}

/// The curve constants, derived once from field operations.
struct Consts {
    /// `√−1 = 2^((p − 1)/4)`, the nonnegative root.
    sqrt_m1: Fe,
    /// `d = −121665/121666`.
    d: Fe,
    /// `2d`, the addition formula's constant.
    d2: Fe,
    /// `1/√(a − d)` with `a = −1`, the nonnegative root.
    invsqrt_a_minus_d: Fe,
    /// The edwards25519 base point: `y = 4/5`, `x` nonnegative.
    generator: RistrettoPoint,
}

fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        // 2 is a non-square mod p (p ≡ 5 mod 8), so 2^((p−1)/2) = −1 and
        // 2^((p−1)/4) squares to −1; (p − 1)/4 = 2²⁵³ − 5.
        let two = Fe::small(2);
        let sqrt_m1 = two.pow22501().0.pow2k(3).mul(&two.square().mul(&two)).abs();
        let d = Fe::small(121_665).neg().mul(&Fe::small(121_666).invert());
        let minus_one = Fe::ONE.neg();
        let (_, invsqrt_a_minus_d) = sqrt_ratio_i(&Fe::ONE, &minus_one.sub(&d), &sqrt_m1);
        // On the curve, x² = (y² − 1)/(d·y² + 1).
        let y = Fe::small(4).mul(&Fe::small(5).invert());
        let yy = y.square();
        let (_, x) = sqrt_ratio_i(&yy.sub(&Fe::ONE), &d.mul(&yy).add(&Fe::ONE), &sqrt_m1);
        Consts {
            sqrt_m1,
            d,
            d2: d.add(&d),
            invsqrt_a_minus_d,
            generator: RistrettoPoint {
                x,
                y,
                z: Fe::ONE,
                t: x.mul(&y),
            },
        }
    })
}

/// The group order ℓ's low 128 bits; ℓ = 2²⁵² + this.
const ELL_LOW: u128 = 0x14de_f9de_a2f7_9cd6_5812_631a_5cf5_d3ed;

/// ℓ as 32 little-endian bytes.
fn ell_bytes() -> [u8; 32] {
    let mut b = [0u8; 32];
    b[..16].copy_from_slice(&ELL_LOW.to_le_bytes());
    b[31] = 0x10;
    b
}

/// A secret exponent in `[1, ℓ)`, 32 little-endian bytes.
#[derive(Clone)]
pub struct Scalar([u8; 32]);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scalar(..)")
    }
}

impl Scalar {
    /// A uniform scalar in `[1, ℓ)` by rejection: 253-bit candidates,
    /// about two draws on average. The comparison with ℓ is a
    /// branch-free borrow chain, so an accepted scalar's timing says
    /// nothing about its value.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Scalar {
        let ell = ell_bytes();
        loop {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            b[31] &= 0x1f;
            let mut borrow = 0i16;
            let mut any = 0u8;
            for (x, l) in b.iter().zip(&ell) {
                borrow = (i16::from(*x) - i16::from(*l) + borrow) >> 8;
                any |= x;
            }
            if borrow != 0 && any != 0 {
                return Scalar(b);
            }
        }
    }

    /// Signed radix-16 digits `e[i] ∈ [−8, 8)` (the top one `≤ 8`) with
    /// `Σ e[i]·16^i` equal to the scalar, which must be below 2²⁵⁵.
    fn radix16(&self) -> [i8; 64] {
        let mut e = [0i8; 64];
        for (i, b) in self.0.iter().enumerate() {
            e[2 * i] = (b & 15) as i8;
            e[2 * i + 1] = (b >> 4) as i8;
        }
        for i in 0..63 {
            let carry = (e[i] + 8) >> 4;
            e[i] -= carry << 4;
            e[i + 1] += carry;
        }
        e
    }
}

/// An element of Ristretto255, held as one edwards25519 representative
/// in extended coordinates. Two representatives of one element encode to
/// the same bytes.
#[derive(Clone, Copy, Debug)]
pub struct RistrettoPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl RistrettoPoint {
    /// The neutral element.
    pub(crate) fn identity() -> RistrettoPoint {
        RistrettoPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The RFC 9496 generator (the edwards25519 base point).
    pub fn generator() -> RistrettoPoint {
        consts().generator
    }

    /// `self + q` (unified: any inputs, doubling included).
    fn add(&self, q: &RistrettoPoint) -> RistrettoPoint {
        let a = self.y.sub(&self.x).mul(&q.y.sub(&q.x));
        let b = self.y.add(&self.x).mul(&q.y.add(&q.x));
        let c = self.t.mul(&consts().d2).mul(&q.t);
        let zz = self.z.mul(&q.z);
        let d = zz.add(&zz);
        let (e, f, g, h) = (b.sub(&a), d.sub(&c), d.add(&c), b.add(&a));
        RistrettoPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// `2·self` (the doubling formula reads no `T`).
    fn double(&self) -> RistrettoPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        let e = self.x.add(&self.y).square().sub(&yy_plus_xx);
        let f = zz2.sub(&yy_minus_xx);
        RistrettoPoint {
            x: e.mul(&f),
            y: yy_plus_xx.mul(&yy_minus_xx),
            z: yy_minus_xx.mul(&f),
            t: e.mul(&yy_plus_xx),
        }
    }

    /// `−self`.
    fn neg(&self) -> RistrettoPoint {
        RistrettoPoint {
            x: self.x.neg(),
            t: self.t.neg(),
            ..*self
        }
    }

    /// `self − q`.
    fn sub(&self, q: &RistrettoPoint) -> RistrettoPoint {
        self.add(&q.neg())
    }

    /// `b` where `m` is all ones, `a` where it is zero.
    fn select(a: &RistrettoPoint, b: &RistrettoPoint, m: u64) -> RistrettoPoint {
        RistrettoPoint {
            x: Fe::select(&a.x, &b.x, m),
            y: Fe::select(&a.y, &b.y, m),
            z: Fe::select(&a.z, &b.z, m),
            t: Fe::select(&a.t, &b.t, m),
        }
    }

    /// All ones when `self` and `q` are the same Ristretto element
    /// (RFC 9496 §4.3.3: `x₁y₂ = y₁x₂` or `y₁y₂ = x₁x₂`).
    fn ct_eq(&self, q: &RistrettoPoint) -> u64 {
        self.x.mul(&q.y).ct_eq(&self.y.mul(&q.x)) | self.y.mul(&q.y).ct_eq(&self.x.mul(&q.x))
    }

    /// Whether `self` and `q` are the same Ristretto element.
    fn equals(&self, q: &RistrettoPoint) -> bool {
        self.ct_eq(q) != 0
    }

    /// Whether `self` is the neutral element.
    fn is_identity(&self) -> bool {
        self.equals(&RistrettoPoint::identity())
    }

    /// `[self, 2·self, …, 8·self]`: one window's table.
    fn multiples(&self) -> [RistrettoPoint; 8] {
        let mut table = [*self; 8];
        for j in 1..8 {
            table[j] = table[j - 1].add(self);
        }
        table
    }

    /// `digit·P` for a signed digit in `[−8, 8]` from `P`'s
    /// [`RistrettoPoint::multiples`]: every entry is scanned under a
    /// mask, so neither a branch nor an index depends on the digit.
    fn lookup(table: &[RistrettoPoint; 8], digit: i8) -> RistrettoPoint {
        let d = i16::from(digit);
        let sign = d >> 15;
        let abs = ((d ^ sign) - sign) as u64;
        let mut out = RistrettoPoint::identity();
        for (j, p) in (1u64..).zip(table) {
            out = RistrettoPoint::select(&out, p, mask_eq(abs, j));
        }
        RistrettoPoint::select(&out, &out.neg(), mask(u64::from(sign as u16 & 1)))
    }

    /// `k·self`: a signed 4-bit fixed window, four doublings and one
    /// masked lookup per digit.
    pub fn mul(&self, k: &Scalar) -> RistrettoPoint {
        let table = self.multiples();
        let digits = k.radix16();
        let mut acc = RistrettoPoint::lookup(&table, digits[63]);
        for &digit in digits[..63].iter().rev() {
            let acc16 = acc.double().double().double().double();
            acc = acc16.add(&RistrettoPoint::lookup(&table, digit));
        }
        acc
    }

    /// `k·G` for the generator, from its [`WindowTable`].
    pub fn mul_generator(k: &Scalar) -> RistrettoPoint {
        WindowTable::generator().mul(k)
    }

    /// The canonical 32-byte encoding (RFC 9496 §4.3.2), in constant
    /// time.
    pub fn encode(&self) -> [u8; 32] {
        let k = consts();
        let u1 = self.z.add(&self.y).mul(&self.z.sub(&self.y));
        let u2 = self.x.mul(&self.y);
        let (_, invsqrt) = sqrt_ratio_m1(&Fe::ONE, &u1.mul(&u2.square()));
        let den1 = invsqrt.mul(&u1);
        let den2 = invsqrt.mul(&u2);
        let z_inv = den1.mul(&den2).mul(&self.t);
        let rotate = self.t.mul(&z_inv).is_negative();
        let x = Fe::select(&self.x, &self.y.mul(&k.sqrt_m1), rotate);
        let y = Fe::select(&self.y, &self.x.mul(&k.sqrt_m1), rotate);
        let den_inv = Fe::select(&den2, &den1.mul(&k.invsqrt_a_minus_d), rotate);
        let y = y.cneg(x.mul(&z_inv).is_negative());
        den_inv.mul(&self.z.sub(&y)).abs().to_bytes()
    }

    /// Decodes 32 bytes (RFC 9496 §4.3.1): `None` unless they are the
    /// canonical encoding of an element. The identity (all zero bytes)
    /// decodes; [`Ristretto255`]'s `decode` refuses it.
    pub fn decode(bytes: &[u8]) -> Option<RistrettoPoint> {
        let bytes: &[u8; 32] = bytes.try_into().ok()?;
        let s = Fe::from_bytes(bytes);
        if s.to_bytes() != *bytes || s.is_negative() != 0 {
            return None;
        }
        let ss = s.square();
        let u1 = Fe::ONE.sub(&ss);
        let u2 = Fe::ONE.add(&ss);
        let u2_sqr = u2.square();
        let v = consts().d.mul(&u1.square()).neg().sub(&u2_sqr);
        let (was_square, invsqrt) = sqrt_ratio_m1(&Fe::ONE, &v.mul(&u2_sqr));
        let den_x = invsqrt.mul(&u2);
        let den_y = invsqrt.mul(&den_x).mul(&v);
        let x = s.add(&s).mul(&den_x).abs();
        let y = u1.mul(&den_y);
        let t = x.mul(&y);
        if was_square == 0 || t.is_negative() != 0 || y.is_zero() != 0 {
            return None;
        }
        Some(RistrettoPoint {
            x,
            y,
            z: Fe::ONE,
            t,
        })
    }
}

/// `j·16^i·P` for every window `i < 64` and multiple `j ∈ [1, 8]` of
/// one point `P` (80 KiB): `k·P` costs one masked lookup and one addition
/// per digit and no doublings, against a build of about two windowed
/// multiplications.
pub struct WindowTable(Box<[[RistrettoPoint; 8]; 64]>);

impl std::fmt::Debug for WindowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WindowTable(..)")
    }
}

impl WindowTable {
    /// `p`'s table: each window's multiples, then four doublings to the
    /// next window.
    pub fn new(p: &RistrettoPoint) -> WindowTable {
        let mut table = Box::new([[RistrettoPoint::identity(); 8]; 64]);
        let mut window = *p;
        for row in table.iter_mut() {
            *row = window.multiples();
            window = window.double().double().double().double();
        }
        WindowTable(table)
    }

    /// The generator's table, built on first use.
    pub fn generator() -> &'static WindowTable {
        static TABLE: OnceLock<WindowTable> = OnceLock::new();
        TABLE.get_or_init(|| WindowTable::new(&RistrettoPoint::generator()))
    }

    /// `k·P`: the sum of one masked lookup per signed radix-16 digit.
    pub fn mul(&self, k: &Scalar) -> RistrettoPoint {
        let digits = k.radix16();
        self.0
            .iter()
            .zip(digits)
            .fold(RistrettoPoint::identity(), |acc, (row, digit)| {
                acc.add(&RistrettoPoint::lookup(row, digit))
            })
    }
}

/// The Ristretto255 group as the base OT sees it: every production
/// session's 128 base OTs run here, with 32-byte elements.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ristretto255;

impl sealed::Sealed for Ristretto255 {}

impl Group for Ristretto255 {
    type Scalar = Scalar;
    type Element = RistrettoPoint;
    type Table = WindowTable;

    fn name(&self) -> &'static str {
        "ristretto255"
    }

    fn element_len(&self) -> usize {
        32
    }

    fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar::random(rng)
    }

    fn mul_base(&self, k: &Scalar) -> RistrettoPoint {
        RistrettoPoint::mul_generator(k)
    }

    fn mul(&self, e: &RistrettoPoint, k: &Scalar) -> RistrettoPoint {
        e.mul(k)
    }

    fn table(&self, e: &RistrettoPoint) -> WindowTable {
        WindowTable::new(e)
    }

    fn mul_table(&self, table: &WindowTable, k: &Scalar) -> RistrettoPoint {
        table.mul(k)
    }

    fn add(&self, a: &RistrettoPoint, b: &RistrettoPoint) -> RistrettoPoint {
        a.add(b)
    }

    fn sub(&self, a: &RistrettoPoint, b: &RistrettoPoint) -> RistrettoPoint {
        a.sub(b)
    }

    fn select(&self, a: &RistrettoPoint, b: &RistrettoPoint, pick_b: bool) -> RistrettoPoint {
        RistrettoPoint::select(a, b, mask(u64::from(pick_b)))
    }

    fn encode(&self, e: &RistrettoPoint, out: &mut Vec<u8>) {
        out.extend_from_slice(&e.encode());
    }

    fn decode(&self, bytes: &[u8]) -> Option<RistrettoPoint> {
        RistrettoPoint::decode(bytes).filter(|p| !p.is_identity())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use super::*;

    // ---- A test-only schoolbook oracle: little-endian u64 words, reduced
    // mod p = 2²⁵⁵ − 19 by folding 2²⁵⁵ ≡ 19, nothing shared with `Fe`.

    const P: [u64; 4] = [
        0xffff_ffff_ffff_ffed,
        u64::MAX,
        u64::MAX,
        0x7fff_ffff_ffff_ffff,
    ];

    fn add_words(a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = a.len().max(b.len()) + 1;
        let mut out = vec![0u64; n];
        let mut carry = 0u128;
        for (i, o) in out.iter_mut().enumerate() {
            let s = u128::from(a.get(i).copied().unwrap_or(0))
                + u128::from(b.get(i).copied().unwrap_or(0))
                + carry;
            *o = s as u64;
            carry = s >> 64;
        }
        out
    }

    fn mul_words(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + b.len()] = carry as u64;
        }
        out
    }

    fn reduce(mut v: Vec<u64>) -> [u64; 4] {
        v.resize(v.len().max(5), 0);
        loop {
            let hi: Vec<u64> = (3..v.len())
                .map(|j| v[j] >> 63 | v.get(j + 1).map_or(0, |w| w << 1))
                .collect();
            if hi.iter().all(|&w| w == 0) {
                break;
            }
            let mut lo = v[..4].to_vec();
            lo[3] &= u64::MAX >> 1;
            v = add_words(&lo, &mul_words(&hi, &[19]));
        }
        let mut r = [v[0], v[1], v[2], v[3]];
        if (0..4).rev().map(|i| r[i].cmp(&P[i])).find(|o| o.is_ne())
            != Some(std::cmp::Ordering::Less)
        {
            let mut borrow = 0i128;
            for (x, p) in r.iter_mut().zip(P) {
                let d = i128::from(*x) - i128::from(p) + borrow;
                *x = d as u64;
                borrow = d >> 64;
            }
        }
        r
    }

    fn omul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        reduce(mul_words(a, b))
    }

    fn oadd(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        reduce(add_words(a, b))
    }

    /// `a − b` as `a + (p − b)` on reduced inputs.
    fn osub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let mut neg = P;
        let mut borrow = 0i128;
        for (x, y) in neg.iter_mut().zip(b) {
            let d = i128::from(*x) - i128::from(*y) + borrow;
            *x = d as u64;
            borrow = d >> 64;
        }
        oadd(a, &neg)
    }

    fn small(v: u64) -> [u64; 4] {
        [v, 0, 0, 0]
    }

    /// The integer a limb vector stands for (unreduced), reduced by the
    /// oracle.
    fn value(x: &Fe) -> [u64; 4] {
        let v = x.0.iter().rev().fold(vec![0u64], |acc, &limb| {
            add_words(&mul_words(&acc, &[1 << 51]), &[limb])
        });
        reduce(v)
    }

    /// The oracle's reading of a canonical encoding.
    fn words(b: &[u8; 32]) -> [u64; 4] {
        let mut w = [0u64; 4];
        for (word, chunk) in w.iter_mut().zip(b.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        w
    }

    /// A field element with every limb drawn below 2⁵² — the widest
    /// operands the arithmetic promises to accept.
    fn wide(rng: &mut StdRng) -> Fe {
        Fe([0; 5].map(|_: u64| rng.next_u64() >> 12))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn field_ops_match_a_schoolbook_reduction(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (wide(&mut rng), wide(&mut rng));
            let (oa, ob) = (value(&a), value(&b));
            proptest::prop_assert_eq!(words(&a.to_bytes()), oa);
            proptest::prop_assert_eq!(value(&a.mul(&b)), omul(&oa, &ob));
            proptest::prop_assert_eq!(value(&a.square()), omul(&oa, &oa));
            proptest::prop_assert_eq!(value(&a.add(&b)), oadd(&oa, &ob));
            proptest::prop_assert_eq!(value(&a.sub(&b)), osub(&oa, &ob));
            proptest::prop_assert_eq!(value(&a.neg()), osub(&small(0), &oa));
            // Results feed the next operation unreduced.
            let c = a.sub(&b).mul(&a.add(&b)).square();
            let oc = omul(&omul(&osub(&oa, &ob), &oadd(&oa, &ob)), &omul(&osub(&oa, &ob), &oadd(&oa, &ob)));
            proptest::prop_assert_eq!(words(&c.to_bytes()), oc);
            // Inversion: a · a⁻¹ = 1.
            proptest::prop_assert_eq!(omul(&oa, &value(&a.invert())), small(1));
            // Byte round trip of the canonical form.
            proptest::prop_assert_eq!(value(&Fe::from_bytes(&a.to_bytes())), oa);
        }

        #[test]
        fn sqrt_ratio_matches_the_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (v, w) = (wide(&mut rng), wide(&mut rng));
            let i = consts().sqrt_m1;
            // A square ratio: u = v·w² gives r = |w|, with v·r² = u.
            let u = v.mul(&w.square());
            let (ok, r) = sqrt_ratio_m1(&u, &v);
            proptest::prop_assert_eq!(ok, u64::MAX);
            proptest::prop_assert_eq!(omul(&value(&v), &omul(&value(&r), &value(&r))), value(&u));
            proptest::prop_assert_eq!(r.to_bytes(), w.abs().to_bytes());
            // A non-square ratio: u = i·v·w² gives v·r² = i·u.
            let u = i.mul(&u);
            let (ok, r) = sqrt_ratio_m1(&u, &v);
            proptest::prop_assert_eq!(ok, 0);
            proptest::prop_assert_eq!(
                omul(&value(&v), &omul(&value(&r), &value(&r))),
                omul(&value(&i), &value(&u))
            );
            proptest::prop_assert_eq!(r.to_bytes()[0] & 1, 0, "root is nonnegative");
        }
    }

    #[test]
    fn field_edges_reduce_canonically() {
        let p_minus_one = osub(&small(0), &small(1));
        let top = [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1];
        let mut p_bytes = [0xff; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        for (fe, want) in [
            (Fe::ZERO, small(0)),
            (Fe::ONE.neg(), p_minus_one),
            (Fe::from_bytes(&p_bytes), small(0)),
            (Fe::from_bytes(&[0xff; 32]), reduce(top.to_vec())),
            (Fe([MASK51; 5]), small(18)),
            (Fe([(1 << 52) - 1; 5]), value(&Fe([(1 << 52) - 1; 5]))),
        ] {
            assert_eq!(words(&fe.to_bytes()), want, "{fe:?}");
        }
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0; 32]);
        // u = 0 is a square ratio; v = 0 with u ≠ 0 is not.
        assert_eq!(sqrt_ratio_m1(&Fe::ZERO, &Fe::ONE).0, u64::MAX);
        let (ok, r) = sqrt_ratio_m1(&Fe::ONE, &Fe::ZERO);
        assert_eq!((ok, r.to_bytes()), (0, [0; 32]));
    }

    #[test]
    fn derived_constants_satisfy_their_definitions() {
        let k = consts();
        let minus_one = osub(&small(0), &small(1));
        let (i, d) = (value(&k.sqrt_m1), value(&k.d));
        assert_eq!(omul(&i, &i), minus_one, "√−1 squares to −1");
        assert_eq!(omul(&d, &small(121_666)), osub(&small(0), &small(121_665)));
        assert_eq!(value(&k.d2), oadd(&d, &d));
        let inv = value(&k.invsqrt_a_minus_d);
        assert_eq!(omul(&omul(&inv, &inv), &osub(&minus_one, &d)), small(1));
        // The generator is on −x² + y² = 1 + d·x²·y², with y = 4/5.
        let g = &k.generator;
        let (x, y) = (value(&g.x), value(&g.y));
        let (xx, yy) = (omul(&x, &x), omul(&y, &y));
        assert_eq!(osub(&yy, &xx), oadd(&small(1), &omul(&d, &omul(&xx, &yy))));
        assert_eq!(omul(&y, &small(5)), small(4));
        for c in [&k.sqrt_m1, &k.invsqrt_a_minus_d, &g.x] {
            assert_eq!(c.to_bytes()[0] & 1, 0, "nonnegative root");
        }
    }

    fn hex(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (o, i) in out.iter_mut().zip((0..64).step_by(2)) {
            *o = u8::from_str_radix(&s[i..i + 2], 16).unwrap();
        }
        out
    }

    /// RFC 9496 Appendix A.1: the encodings of `k·B` for `k = 0..16`.
    const GENERATOR_MULTIPLES: [&str; 16] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
        "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
        "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
        "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
        "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
        "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
        "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
        "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
        "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
        "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
        "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
        "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
        "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
        "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
        "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
    ];

    fn scalar(k: u64) -> Scalar {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&k.to_le_bytes());
        Scalar(b)
    }

    #[test]
    fn generator_multiples_match_rfc_9496() {
        let b = RistrettoPoint::generator();
        let mut sum = RistrettoPoint::identity();
        for (k, want) in GENERATOR_MULTIPLES.iter().enumerate() {
            let want = hex(want);
            assert_eq!(sum.encode(), want, "{k}·B by addition");
            assert_eq!(b.mul(&scalar(k as u64)).encode(), want, "{k}·B by window");
            let decoded = RistrettoPoint::decode(&want).unwrap();
            assert_eq!(decoded.encode(), want, "{k}·B round trip");
            assert!(decoded.equals(&sum));
            sum = sum.add(&b);
        }
    }

    #[test]
    fn bad_encodings_are_rejected() {
        // RFC 9496 Appendix A.2's non-canonical field encodings, its
        // negative ones that are simple to state, and s = −1, which
        // passes both byte checks and then gives y = 0.
        for bad in [
            "00ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        ] {
            assert!(RistrettoPoint::decode(&hex(bad)).is_none(), "{bad}");
        }
        // A valid encoding with the top bit set, and wrong lengths.
        let mut high = RistrettoPoint::generator().encode();
        high[31] |= 0x80;
        assert!(RistrettoPoint::decode(&high).is_none());
        assert!(RistrettoPoint::decode(&[0u8; 31]).is_none());
        assert!(RistrettoPoint::decode(&[0u8; 33]).is_none());
        // The group as the base OT sees it also refuses the identity.
        assert!(RistrettoPoint::decode(&[0u8; 32]).is_some());
        assert!(Ristretto255.decode(&[0u8; 32]).is_none());
    }

    #[test]
    fn negative_and_non_square_encodings_never_decode() {
        // Every odd s is negative; about half of the even ones are not
        // an element (x² or xy fails). Whatever decodes re-encodes to the
        // same bytes.
        let mut rng = StdRng::seed_from_u64(9);
        let (mut decoded, mut refused) = (0, 0);
        for _ in 0..200 {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            b[31] &= 0x7f;
            b[0] |= 1;
            assert!(RistrettoPoint::decode(&b).is_none());
            b[0] &= 0xfe;
            match RistrettoPoint::decode(&b) {
                Some(p) => {
                    assert_eq!(p.encode(), b);
                    decoded += 1;
                }
                None => refused += 1,
            }
        }
        assert!(
            decoded > 0 && refused > 0,
            "{decoded} decoded, {refused} refused"
        );
    }

    /// Test-only reference: plain double-and-add over the scalar's bits.
    fn mul_reference(p: &RistrettoPoint, k: &Scalar) -> RistrettoPoint {
        let mut acc = RistrettoPoint::identity();
        for bit in (0..256).rev() {
            acc = acc.double();
            if k.0[bit / 8] >> (bit % 8) & 1 == 1 {
                acc = acc.add(p);
            }
        }
        acc
    }

    #[test]
    fn window_multiplication_matches_double_and_add() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = RistrettoPoint::generator().mul(&Scalar::random(&mut rng));
        let mut nibble_edges = [0x88u8; 32];
        nibble_edges[31] = 0x08;
        let mut sevens = [0x77u8; 32];
        sevens[31] = 0x07;
        let scalars = (0..40)
            .map(scalar)
            .chain([Scalar(nibble_edges), Scalar(sevens), Scalar(ell_bytes())])
            .chain((0..8).map(|_| Scalar::random(&mut rng)));
        for k in scalars {
            assert!(p.mul(&k).equals(&mul_reference(&p, &k)), "{:?}", k.0);
        }
    }

    #[test]
    fn generator_table_matches_the_window() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = RistrettoPoint::generator();
        let scalars = (0..20)
            .map(scalar)
            .chain([Scalar(ell_bytes())])
            .chain((0..16).map(|_| Scalar::random(&mut rng)));
        for k in scalars {
            let want = b.mul(&k).encode();
            assert_eq!(
                RistrettoPoint::mul_generator(&k).encode(),
                want,
                "{:?}",
                k.0
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]
        #[test]
        fn table_multiply_matches_the_window(seed in proptest::prelude::any::<u64>()) {
            // Any point's table, not just the generator's: the base OT
            // builds one per session for the peer's element.
            let mut rng = StdRng::seed_from_u64(seed);
            let p = RistrettoPoint::generator().mul(&Scalar::random(&mut rng));
            let table = WindowTable::new(&p);
            // ℓ's low byte is 0xed, so ℓ − 1 borrows nothing.
            let mut ell_minus_one = ell_bytes();
            ell_minus_one[0] -= 1;
            let scalars = [scalar(1), Scalar(ell_minus_one), Scalar::random(&mut rng)];
            for k in scalars {
                proptest::prop_assert_eq!(table.mul(&k).encode(), p.mul(&k).encode(), "{:?}", k.0);
            }
            proptest::prop_assert_eq!(table.mul(&scalar(1)).encode(), p.encode());
            proptest::prop_assert_eq!(table.mul(&Scalar(ell_minus_one)).encode(), p.neg().encode());
        }
    }

    #[test]
    fn group_laws_hold() {
        let mut rng = StdRng::seed_from_u64(17);
        let b = RistrettoPoint::generator();
        let p = b.mul(&Scalar::random(&mut rng));
        let ell = Scalar(ell_bytes());
        // ℓ·P = O for the generator and for a random element.
        assert!(b.mul(&ell).is_identity());
        assert!(p.mul(&ell).is_identity());
        assert!(!p.is_identity());
        // Diffie–Hellman commutes.
        let (x, y) = (Scalar::random(&mut rng), Scalar::random(&mut rng));
        assert_eq!(b.mul(&x).mul(&y).encode(), b.mul(&y).mul(&x).encode());
        // decode ∘ encode = id, and subtraction undoes addition.
        let q = RistrettoPoint::decode(&p.encode()).unwrap();
        assert!(q.equals(&p));
        assert!(p.add(&b).sub(&b).equals(&p));
        assert!(p.sub(&p).is_identity());
        assert_eq!(p.add(&p).encode(), p.double().encode());
        assert_eq!(p.neg().add(&p).encode(), [0; 32]);
    }

    #[test]
    fn each_element_has_one_canonical_encoding() {
        // Every edwards25519 representative of one Ristretto element —
        // the coset P + E[4] and any projective rescaling — encodes to the
        // same 32 bytes.
        let mut rng = StdRng::seed_from_u64(23);
        let i = consts().sqrt_m1;
        let torsion = [
            RistrettoPoint::identity(),
            RistrettoPoint {
                x: Fe::ZERO,
                y: Fe::ONE.neg(),
                z: Fe::ONE,
                t: Fe::ZERO,
            },
            RistrettoPoint {
                x: i,
                y: Fe::ZERO,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
            RistrettoPoint {
                x: i.neg(),
                y: Fe::ZERO,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
        ];
        for _ in 0..4 {
            let p = RistrettoPoint::generator().mul(&Scalar::random(&mut rng));
            let want = p.encode();
            let lambda = wide(&mut rng);
            let scaled = RistrettoPoint {
                x: p.x.mul(&lambda),
                y: p.y.mul(&lambda),
                z: p.z.mul(&lambda),
                t: p.t.mul(&lambda),
            };
            assert_eq!(scaled.encode(), want);
            for t in &torsion {
                let q = p.add(t);
                assert_eq!(q.encode(), want);
                assert!(q.equals(&p));
            }
        }
    }

    #[test]
    fn random_scalars_are_nonzero_and_below_ell() {
        let mut rng = StdRng::seed_from_u64(5);
        let ell = ell_bytes();
        for _ in 0..2000 {
            let k = Scalar::random(&mut rng);
            assert!(k.0.iter().any(|&b| b != 0));
            let below = (0..32)
                .rev()
                .map(|i| k.0[i].cmp(&ell[i]))
                .find(|o| o.is_ne());
            assert_eq!(below, Some(std::cmp::Ordering::Less));
        }
    }
}
