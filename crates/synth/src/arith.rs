//! Word-level arithmetic with minimum non-XOR cost.
//!
//! The workhorse is the Free-XOR-optimized full adder (Boyar–Peralta):
//! `t₁ = a⊕c`, `t₂ = b⊕c`, `c' = c ⊕ (t₁ ∧ t₂)`, `s = t₁ ⊕ b` — exactly
//! one AND per bit. All comparators are built from the same carry chain.

use deepsecure_circuit::{Builder, Wire};

use crate::word::{self, Word};

/// One full-adder bit: returns `(sum, carry_out)` at a cost of 1 AND.
pub fn full_adder(b: &mut Builder, a: Wire, x: Wire, cin: Wire) -> (Wire, Wire) {
    let t1 = b.xor(a, cin);
    let t2 = b.xor(x, cin);
    let t3 = b.and(t1, t2);
    let cout = b.xor(cin, t3);
    let sum = b.xor(t1, x);
    (sum, cout)
}

/// Ripple-carry addition with explicit carry-in; returns `(sum, carry_out)`
/// where `sum` has the width of the inputs.
///
/// # Panics
///
/// Panics on width mismatch.
pub fn add_with_carry(b: &mut Builder, x: &[Wire], y: &[Wire], cin: Wire) -> (Word, Wire) {
    assert_eq!(x.len(), y.len(), "adder width mismatch");
    let mut carry = cin;
    let mut sum = Word::with_capacity(x.len());
    for (&a, &c) in x.iter().zip(y) {
        let (s, co) = full_adder(b, a, c, carry);
        sum.push(s);
        carry = co;
    }
    (sum, carry)
}

/// Wrapping addition (hardware adder): `n` bits in, `n` bits out.
pub fn add(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Word {
    add_with_carry(b, x, y, b.const0()).0
}

/// Widening addition: `n` bits in, `n+1` bits out (no overflow loss).
/// Inputs are interpreted as signed two's complement.
pub fn add_wide(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Word {
    let n = x.len().max(y.len()) + 1;
    let xs = word::sign_extend(x, n);
    let ys = word::sign_extend(y, n);
    add(b, &xs, &ys)
}

/// Wrapping subtraction `x - y` via `x + ¬y + 1`.
pub fn sub(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Word {
    let ny = word::not(b, y);
    add_with_carry(b, x, &ny, b.const1()).0
}

/// Subtraction with *no-borrow* flag: returns `(x - y, x >= y)` for
/// unsigned interpretation (the flag is the adder carry-out).
pub fn sub_with_geq(b: &mut Builder, x: &[Wire], y: &[Wire]) -> (Word, Wire) {
    let ny = word::not(b, y);
    add_with_carry(b, x, &ny, b.const1())
}

/// Two's-complement negation (wrapping).
pub fn neg(b: &mut Builder, x: &[Wire]) -> Word {
    let zero = vec![b.const0(); x.len()];
    sub(b, &zero, x)
}

/// Conditional negation: `sel ? -x : x`, costing one adder
/// (`(x ⊕ sel…) + sel`).
pub fn cond_neg(b: &mut Builder, x: &[Wire], sel: Wire) -> Word {
    let flipped: Word = x.iter().map(|&w| b.xor(w, sel)).collect();
    let mut sel_word = vec![b.const0(); x.len()];
    sel_word[0] = sel;
    add(b, &flipped, &sel_word)
}

/// Absolute value: returns `(|x|, sign)` where `|x|` is unsigned magnitude
/// (note `|MIN|` wraps like hardware).
pub fn abs(b: &mut Builder, x: &[Wire]) -> (Word, Wire) {
    let s = word::sign(x);
    (cond_neg(b, x, s), s)
}

/// Signed less-than: `x < y` via sign-extended subtraction.
pub fn lt_signed(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Wire {
    let n = x.len().max(y.len()) + 1;
    let xs = word::sign_extend(x, n);
    let ys = word::sign_extend(y, n);
    let diff = sub(b, &xs, &ys);
    word::sign(&diff)
}

/// Unsigned less-than: `x < y` (¬carry of `x - y`).
pub fn lt_unsigned(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Wire {
    let (_, geq) = sub_with_geq(b, x, y);
    b.not(geq)
}

/// Equality over words (an AND tree over XNORs; `n-1` non-XOR gates).
pub fn eq(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Wire {
    assert_eq!(x.len(), y.len(), "eq width mismatch");
    let mut bits: Vec<Wire> = x.iter().zip(y).map(|(&a, &c)| b.xnor(a, c)).collect();
    while bits.len() > 1 {
        let mut next = Vec::with_capacity(bits.len().div_ceil(2));
        for pair in bits.chunks(2) {
            next.push(if pair.len() == 2 {
                b.and(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        bits = next;
    }
    bits[0]
}

/// Word multiplexer: `sel ? t : f`, one AND per bit.
pub fn mux_word(b: &mut Builder, sel: Wire, t: &[Wire], f: &[Wire]) -> Word {
    assert_eq!(t.len(), f.len(), "mux width mismatch");
    t.iter()
        .zip(f)
        .map(|(&tv, &fv)| b.mux(sel, tv, fv))
        .collect()
}

/// Signed maximum — the paper's `Max` element (CMP + MUX).
pub fn max_signed(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Word {
    let lt = lt_signed(b, x, y);
    mux_word(b, lt, y, x)
}

/// Signed minimum.
pub fn min_signed(b: &mut Builder, x: &[Wire], y: &[Wire]) -> Word {
    let lt = lt_signed(b, x, y);
    mux_word(b, lt, x, y)
}

/// Multiplies by a public constant with shift-and-add over the constant's
/// canonical signed-digit recoding (free shifts; one adder per non-zero
/// digit).
pub fn mul_const(b: &mut Builder, x: &[Wire], c: i64) -> Word {
    let n = x.len();
    if c == 0 {
        return vec![b.const0(); n];
    }
    let mut acc: Option<Word> = None;
    for (shift, digit) in csd_digits(c) {
        let shifted = word::shl(b, x, shift);
        let term = shifted;
        acc = Some(match acc {
            None => {
                if digit > 0 {
                    term
                } else {
                    neg(b, &term)
                }
            }
            Some(a) => {
                if digit > 0 {
                    add(b, &a, &term)
                } else {
                    sub(b, &a, &term)
                }
            }
        });
    }
    acc.expect("non-zero constant has digits")
}

/// Canonical signed-digit (non-adjacent form) decomposition of `c` as
/// `(shift, ±1)` pairs; minimizes adder count for constant multiplication.
pub fn csd_digits(c: i64) -> Vec<(usize, i8)> {
    let negative = c < 0;
    let mut v = c.unsigned_abs();
    let mut out = Vec::new();
    let mut shift = 0usize;
    while v != 0 {
        if v & 1 == 1 {
            // NAF: digit is ±1 chosen so the next two bits are not 11.
            let digit: i8 = if v & 2 == 2 { -1 } else { 1 };
            out.push((shift, if negative { -digit } else { digit }));
            if digit == -1 {
                v += 1;
            }
        }
        v >>= 1;
        shift += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use deepsecure_fixed::{Fixed, Format};

    use super::*;
    use crate::word::{garbler_word, output_word};

    const Q: Format = Format::Q3_12;

    fn eval_binary(
        build: impl FnOnce(&mut Builder, &[Wire], &[Wire]) -> Word,
        x: Fixed,
        y: Fixed,
    ) -> Fixed {
        let mut b = Builder::new();
        let xin = garbler_word(&mut b, 16);
        let yin = b.evaluator_inputs(16);
        let out = build(&mut b, &xin, &yin);
        output_word(&mut b, &out);
        let c = b.finish();
        Fixed::from_bits(&c.eval(&x.to_bits(), &y.to_bits()), Q)
    }

    #[test]
    fn adder_matches_fixed() {
        for (a, c) in [(1.5, 2.25), (-3.0, 1.0), (7.99, 0.5), (-8.0, -8.0)] {
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(c, Q);
            assert_eq!(eval_binary(add, x, y), x.add(y), "{a} + {c}");
        }
    }

    #[test]
    fn adder_cost_is_n_minus_one_ands() {
        // carry-in zero lets the builder fold the first AND's XORs but the
        // last carry is dead, so an n-bit wrap adder costs n-1 ANDs.
        let mut b = Builder::new();
        let x = garbler_word(&mut b, 16);
        let y = b.evaluator_inputs(16);
        let s = add(&mut b, &x, &y);
        output_word(&mut b, &s);
        let c = b.finish();
        assert_eq!(c.stats().non_xor, 15);
    }

    #[test]
    fn sub_and_neg_match_fixed() {
        for (a, c) in [(1.5, 2.25), (-3.0, 1.0), (0.0, -7.5)] {
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(c, Q);
            assert_eq!(eval_binary(sub, x, y), x.sub(y), "{a} - {c}");
        }
        let x = Fixed::from_f64(-2.5, Q);
        let got = eval_binary(|b, w, _| neg(b, w), x, Fixed::zero(Q));
        assert_eq!(got, x.neg());
    }

    #[test]
    fn cond_neg_both_ways() {
        let x = Fixed::from_f64(3.25, Q);
        let mut b = Builder::new();
        let xin = garbler_word(&mut b, 16);
        let sel = b.garbler_input();
        let out = cond_neg(&mut b, &xin, sel);
        output_word(&mut b, &out);
        let c = b.finish();
        let mut input = x.to_bits();
        input.push(false);
        assert_eq!(Fixed::from_bits(&c.eval(&input, &[]), Q), x);
        let mut input = x.to_bits();
        input.push(true);
        assert_eq!(Fixed::from_bits(&c.eval(&input, &[]), Q), x.neg());
    }

    #[test]
    fn comparisons() {
        let pairs = [
            (-3.0, 2.0),
            (2.0, -3.0),
            (1.0, 1.0),
            (7.9, -8.0),
            (-8.0, -7.9),
        ];
        for (a, c) in pairs {
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(c, Q);
            let mut b = Builder::new();
            let xin = garbler_word(&mut b, 16);
            let yin = b.evaluator_inputs(16);
            let lt = lt_signed(&mut b, &xin, &yin);
            let e = eq(&mut b, &xin, &yin);
            b.output(lt);
            b.output(e);
            let circ = b.finish();
            let out = circ.eval(&x.to_bits(), &y.to_bits());
            assert_eq!(out[0], a < c, "{a} < {c}");
            assert_eq!(out[1], a == c, "{a} == {c}");
        }
    }

    #[test]
    fn max_matches() {
        for (a, c) in [(1.0, 2.0), (-1.0, -2.0), (0.0, 0.0), (-7.0, 7.0)] {
            let x = Fixed::from_f64(a, Q);
            let y = Fixed::from_f64(c, Q);
            assert_eq!(eval_binary(max_signed, x, y).to_f64(), a.max(c));
            assert_eq!(eval_binary(min_signed, x, y).to_f64(), a.min(c));
        }
    }

    #[test]
    fn csd_digits_reconstruct() {
        for c in [1i64, 2, 3, 7, 12, 255, 1000, -5, -4096, 4095] {
            let sum: i64 = csd_digits(c).iter().map(|(s, d)| i64::from(*d) << s).sum();
            assert_eq!(sum, c, "csd({c})");
        }
    }

    #[test]
    fn csd_is_sparse() {
        // 255 = 0b11111111 would need 8 adds in plain binary; NAF needs 2.
        assert_eq!(csd_digits(255).len(), 2);
    }

    #[test]
    fn mul_const_matches() {
        for c in [0i64, 1, 2, 3, 5, -7, 12] {
            let x = Fixed::from_f64(0.125, Q);
            let got = eval_binary(|b, w, _| mul_const(b, w, c), x, Fixed::zero(Q));
            let want = Q.wrap(x.raw() * c);
            assert_eq!(got.raw(), want, "x * {c}");
        }
    }

    #[test]
    fn wide_add_no_overflow() {
        let x = Fixed::from_f64(7.5, Q);
        let y = Fixed::from_f64(7.5, Q);
        let mut b = Builder::new();
        let xin = garbler_word(&mut b, 16);
        let yin = b.evaluator_inputs(16);
        let s = add_wide(&mut b, &xin, &yin);
        output_word(&mut b, &s);
        let c = b.finish();
        let bits = c.eval(&x.to_bits(), &y.to_bits());
        assert_eq!(bits.len(), 17);
        let wide = Format::new(4, 12);
        assert_eq!(Fixed::from_bits(&bits, wide).to_f64(), 15.0);
    }
}
