//! Fixed-point multipliers.
//!
//! The paper's MULT element supports *signed* operands (its stated
//! improvement over TinyGarble's library). Two variants are provided:
//!
//! * [`mul_fixed`] — bit-exact against [`deepsecure_fixed::Fixed::mul`]
//!   (floor-truncating two's-complement semantics), built as a radix-4
//!   Booth array: 393 non-free gates at 16 bits.
//! * [`mul_truncated`] — an approximate truncated-array multiplier that
//!   discards partial-product columns below the guard band, with error
//!   below `2^-(frac-guard-1)` (the style of multiplier whose count
//!   Table 3 reports). It is cheaper than [`mul_fixed`] only at guard 0.

use deepsecure_circuit::{Builder, Wire};

use crate::arith;
use crate::word::{self, Word};

/// Exact fixed-point multiply: same width in and out, floor-truncating by
/// `frac` bits — bit-identical to [`deepsecure_fixed::Fixed::mul`], i.e.
/// `⌊x·w / 2^frac⌋ mod 2^n`.
///
/// Construction: a radix-4 Booth two's-complement array, which floors for
/// free, so no magnitudes, sticky bit or final negation are needed.
///
/// * `x` (the activation) is recoded into `⌈n/2⌉` digits in {−2, …, 2}
///   (odd widths sign-extend it). Digit `k` reads `x₂ₖ₋₁, x₂ₖ, x₂ₖ₊₁` and
///   costs one AND: `two = (x₂ₖ₊₁⊕x₂ₖ) ∧ ¬(x₂ₖ⊕x₂ₖ₋₁)`, while `one` and
///   `neg = x₂ₖ₊₁` are free. Hash-consing shares a word's recoding across
///   every multiply that reads it.
/// * Row `k` holds `(one∧wⱼ) ⊕ (two∧wⱼ₋₁) ⊕ neg` at column `2k+j` over the
///   sign-extended `w`, plus `neg` at column `2k` to finish the negation.
///   Each row's sign extension folds into its inverted top bit and one
///   constant shared by all rows.
/// * Columns `0..frac+n` reduce with one-AND full adders; higher columns
///   are never built, and the top column needs only its parity.
pub fn mul_fixed(b: &mut Builder, x: &[Wire], w: &[Wire], frac: u32) -> Word {
    let n = x.len();
    assert_eq!(n, w.len(), "multiplier width mismatch");
    let frac = frac as usize;
    let top = frac + n;
    assert!(top <= 128, "multiplier wider than 128 product columns");
    let xs = word::sign_extend(x, n + n % 2);
    let mut cols: Vec<Vec<Wire>> = vec![Vec::new(); top];
    // Σ −2^(n+2k) over the rows: their sign extensions, mod 2^top.
    let mut constant: u128 = 0;
    for base in (0..xs.len()).step_by(2) {
        let lo = if base == 0 { b.const0() } else { xs[base - 1] };
        let neg = xs[base + 1];
        let one = b.xor(xs[base], lo);
        let flip = b.xor(neg, xs[base]);
        let not_one = b.not(one);
        let two = b.and(flip, not_one);
        for j in 0..=n.min(top - 1 - base) {
            let mut bit = b.and(one, w[j.min(n - 1)]);
            if j > 0 {
                let shifted = b.and(two, w[j - 1]);
                bit = b.xor(bit, shifted);
            }
            bit = b.xor(bit, neg);
            cols[base + j].push(if j == n { b.not(bit) } else { bit });
        }
        cols[base].push(neg);
        if base + n < top {
            constant = constant.wrapping_sub(1 << (base + n));
        }
    }
    for (c, col) in cols.iter_mut().enumerate() {
        if (constant >> c) & 1 == 1 {
            col.push(b.const1());
        }
    }
    let mut out = Word::with_capacity(n);
    for c in 0..top {
        let mut col = std::mem::take(&mut cols[c]);
        let bit = if c + 1 == top {
            col.iter().fold(b.const0(), |acc, &v| b.xor(acc, v))
        } else {
            while col.len() > 1 {
                let p = col.pop().expect("column holds two bits");
                let q = col.pop().expect("column holds two bits");
                let r = col.pop().unwrap_or(b.const0());
                let (sum, carry) = arith::full_adder(b, p, q, r);
                col.push(sum);
                cols[c + 1].push(carry);
            }
            col.pop().unwrap_or(b.const0())
        };
        if c >= frac {
            out.push(bit);
        }
    }
    out
}

/// Approximate truncated multiplier: discards partial-product columns below
/// `frac - guard`, around a sign-magnitude array. Absolute error is below
/// `2^-(frac - guard - 1)` of the represented value. At 16 bits it costs
/// 381 / 444 / 489 non-free gates at guard 0 / 3 / 6, so only guard 0
/// undercuts the exact [`mul_fixed`] (393).
pub fn mul_truncated(b: &mut Builder, x: &[Wire], y: &[Wire], frac: u32, guard: u32) -> Word {
    let n = x.len();
    assert_eq!(n, y.len(), "multiplier width mismatch");
    let frac = frac as usize;
    let guard = (guard as usize).min(frac);
    let drop = frac - guard;
    let (xm, xs) = arith::abs(b, x);
    let (ym, ys) = arith::abs(b, y);
    let sign = b.xor(xs, ys);

    // Accumulate only columns >= drop: row j contributes columns j..j+n,
    // so its low (drop - j) bits are discarded.
    let keep = frac + n;
    let mut acc: Word = vec![b.const0(); keep - drop];
    for (j, &xj) in xm.iter().enumerate() {
        if j >= keep {
            break;
        }
        let lo_cut = drop.saturating_sub(j);
        if lo_cut >= ym.len() {
            continue;
        }
        let hi_cut = ym.len().min(keep - j);
        let row = word::and_all(b, xj, &ym[lo_cut..hi_cut]);
        let offset = j + lo_cut - drop;
        let width = row.len();
        let target: Word = acc[offset..offset + width].to_vec();
        let (sum, cout) = arith::add_with_carry(b, &target, &row, b.const0());
        acc.splice(offset..offset + width, sum);
        // Ripple the carry into the higher bits.
        let mut carry = cout;
        for slot in acc.iter_mut().skip(offset + width) {
            let new = b.xor(*slot, carry);
            carry = b.and(*slot, carry);
            *slot = new;
        }
    }
    let hi = &acc[guard..];
    let mut out: Word = hi.to_vec();
    out.resize(n, b.const0());
    arith::cond_neg(b, &out, sign)
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Circuit;
    use deepsecure_fixed::{Fixed, Format};
    use proptest::prelude::*;

    use super::*;
    use crate::word::{garbler_word, output_word};

    const Q: Format = Format::Q3_12;

    /// One multiply of `bits`-wide words: the exact one, or the truncated
    /// one at `guard`.
    fn build(bits: usize, frac: u32, guard: Option<u32>) -> Circuit {
        let mut b = Builder::new();
        let x = garbler_word(&mut b, bits);
        let y = b.evaluator_inputs(bits);
        let p = match guard {
            None => mul_fixed(&mut b, &x, &y, frac),
            Some(g) => mul_truncated(&mut b, &x, &y, frac, g),
        };
        output_word(&mut b, &p);
        b.finish()
    }

    fn mul_circuit() -> Circuit {
        build(16, 12, None)
    }

    fn check_raw(c: &Circuit, a: i64, d: i64, f: Format) {
        let x = Fixed::from_raw(a, f);
        let y = Fixed::from_raw(d, f);
        let got = Fixed::from_bits(&c.eval(&x.to_bits(), &y.to_bits()), f);
        assert_eq!(got, x.mul(y), "raw {a} * {d} in {f:?}");
    }

    #[test]
    fn mul_fixed_matches_reference_samples() {
        let c = mul_circuit();
        let cases = [
            (1.5, 2.0),
            (-1.5, 2.0),
            (1.5, -2.0),
            (-1.5, -2.0),
            (0.000244140625, 0.5),  // 1 raw * 0.5 → floor
            (-0.000244140625, 0.5), // -1 raw * 0.5 → floor to -1
            (7.99, 7.99),           // overflow wraps
            (0.0, 3.0),
            (-8.0, 1.0),
        ];
        for (a, d) in cases {
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(d, Q);
            let got = Fixed::from_bits(&c.eval(&x.to_bits(), &y.to_bits()), Q);
            assert_eq!(got, x.mul(y), "{a} * {d}: got {got}, want {}", x.mul(y));
        }
    }

    #[test]
    fn mul_fixed_matches_reference_randomized() {
        use rand::Rng;
        use rand::SeedableRng;
        let c = mul_circuit();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = rng.gen_range(-32768i64..32768);
            let d = rng.gen_range(-32768i64..32768);
            check_raw(&c, a, d, Q);
        }
    }

    #[test]
    fn mul_fixed_is_exhaustively_exact_at_8_and_7_bits() {
        for bits in [8u32, 7] {
            let half = 1i64 << (bits - 1);
            for frac in 0..bits {
                let f = Format::new(bits - 1 - frac, frac);
                let c = build(bits as usize, frac, None);
                for a in -half..half {
                    for d in -half..half {
                        check_raw(&c, a, d, f);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn mul_fixed_matches_fixed_mul_at_q3_12(a in -32768i64..32768, d in -32768i64..32768) {
            check_raw(&mul_circuit(), a, d, Q);
        }

        #[test]
        fn mul_fixed_matches_fixed_mul_at_q7_12(a in -(1i64 << 19)..(1 << 19), d in -(1i64 << 19)..(1 << 19)) {
            check_raw(&build(20, 12, None), a, d, Format::Q7_12);
        }
    }

    #[test]
    fn exact_multiplier_cost_is_pinned() {
        assert!(mul_circuit().stats().non_xor <= 393);
        // In a 64-input, 16-output dense block each activation's recoding
        // is shared by the 16 multiplies that read it; the per-MAC figure
        // includes the accumulating adder.
        let mut b = Builder::new();
        let xs: Vec<Word> = (0..64).map(|_| garbler_word(&mut b, 16)).collect();
        for _ in 0..16 {
            let ws: Vec<Option<Word>> = (0..64).map(|_| Some(b.evaluator_inputs(16))).collect();
            let init = word::constant(&b, 0, 16);
            let acc =
                crate::matvec::sparse_row(&mut b, init, &xs, &ws, |b, x, w| mul_fixed(b, x, w, 12));
            output_word(&mut b, &acc);
        }
        let per_mac = b.finish().stats().non_xor as f64 / (64.0 * 16.0);
        assert!(per_mac <= 400.5, "{per_mac} non-free gates per MAC");
    }

    #[test]
    fn truncated_multiplier_is_cheaper_and_close() {
        let cost = |guard| build(16, 12, guard).stats().non_xor;
        let (g0, exact, g3) = (cost(Some(0)), cost(None), cost(Some(3)));
        // Only guard 0 undercuts the exact Booth array; guard 3 is both
        // dearer and approximate.
        assert!(
            g0 < exact && exact < g3,
            "guard 0 {g0}, exact {exact}, guard 3 {g3}"
        );
        use rand::Rng;
        use rand::SeedableRng;
        let ct = build(16, 12, Some(3));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut max_err: f64 = 0.0;
        for _ in 0..200 {
            let a = rng.gen_range(-2.0..2.0);
            let d = rng.gen_range(-2.0..2.0);
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(d, Q);
            let got = Fixed::from_bits(&ct.eval(&x.to_bits(), &y.to_bits()), Q);
            max_err = max_err.max((got.to_f64() - x.to_f64() * y.to_f64()).abs());
        }
        assert!(max_err < (2.0f64).powi(-8), "max_err {max_err}");
    }
}
