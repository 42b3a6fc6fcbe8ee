//! The fixed-point multiplier.
//!
//! The paper's MULT element supports *signed* operands (its stated
//! improvement over TinyGarble's library). [`mul_fixed`] is the one MAC
//! multiplier every compiled model uses: bit-exact against
//! [`deepsecure_fixed::Fixed::mul`] (floor-truncating two's-complement
//! semantics), built as a radix-4 Booth array, 393 non-free gates at 16
//! bits (Table 3 reports 212 for its truncated array; see ROADMAP.md
//! item 2).

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

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Circuit;
    use deepsecure_fixed::{Fixed, Format};
    use proptest::prelude::*;

    use super::*;
    use crate::word::{garbler_word, output_word};

    const Q: Format = Format::Q3_12;

    /// One multiply of `bits`-wide words.
    fn build(bits: usize, frac: u32) -> Circuit {
        let mut b = Builder::new();
        let x = garbler_word(&mut b, bits);
        let y = b.evaluator_inputs(bits);
        let p = mul_fixed(&mut b, &x, &y, frac);
        output_word(&mut b, &p);
        b.finish()
    }

    fn mul_circuit() -> Circuit {
        build(16, 12)
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
                let c = build(bits as usize, frac);
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
            check_raw(&build(20, 12), a, d, Format::Q7_12);
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
            let acc = crate::matvec::sparse_row(&mut b, init, &xs, &ws, 12);
            output_word(&mut b, &acc);
        }
        let per_mac = b.finish().stats().non_xor as f64 / (64.0 * 16.0);
        assert!(per_mac <= 400.5, "{per_mac} non-free gates per MAC");
    }
}
