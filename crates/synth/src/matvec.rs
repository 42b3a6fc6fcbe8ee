//! Matrix–vector multiplication (Table 1's FC / convolution kernel), with
//! signed operands — the enhancement over TinyGarble's library that §1
//! calls out — plus the folded sequential MAC of §3.5.

use deepsecure_circuit::{Builder, Circuit};

use crate::word::{self, Word};
use crate::{arith, mul};

/// Dot product `Σ xᵢ·wᵢ` with fixed-point truncating multiplies and
/// wrap-around accumulation.
///
/// # Panics
///
/// Panics if the operand lists differ in length or are empty.
pub fn dot(b: &mut Builder, xs: &[Word], ws: &[Word], frac: u32) -> Word {
    assert_eq!(xs.len(), ws.len(), "dot product arity mismatch");
    assert!(!xs.is_empty(), "empty dot product");
    let mut acc: Option<Word> = None;
    for (x, w) in xs.iter().zip(ws) {
        let p = mul::mul_fixed(b, x, w, frac);
        acc = Some(match acc {
            None => p,
            Some(a) => arith::add(b, &a, &p),
        });
    }
    acc.expect("non-empty")
}

/// Dense matrix–vector product: `weights` is row-major `n_out × n_in`.
///
/// # Panics
///
/// Panics if row lengths do not match `xs`.
pub fn matvec(b: &mut Builder, xs: &[Word], weights: &[Vec<Word>], frac: u32) -> Vec<Word> {
    weights.iter().map(|row| dot(b, xs, row, frac)).collect()
}

/// Sparse dot product: only the MACs named by `mask` are synthesized —
/// this is how the public sparsity map of the pruned network (§3.2.2)
/// removes gates from the netlist.
pub fn dot_masked(
    b: &mut Builder,
    xs: &[Word],
    ws: &[Word],
    mask: &[bool],
    frac: u32,
) -> Option<Word> {
    assert_eq!(xs.len(), mask.len(), "mask arity mismatch");
    let mut acc: Option<Word> = None;
    for ((x, w), &keep) in xs.iter().zip(ws).zip(mask) {
        if !keep {
            continue;
        }
        let p = mul::mul_fixed(b, x, w, frac);
        acc = Some(match acc {
            None => p,
            Some(a) => arith::add(b, &a, &p),
        });
    }
    acc
}

/// Sparsity-aware accumulator row: sums `mul_fixed(xᵢ, wᵢ)` over the
/// *declared* weight slots only (a `None` slot is a pruned weight that
/// never reaches the netlist), on top of a starting word (typically the
/// bias).
///
/// This is the synth-time half of the paper's §3.2.2 pipeline: the public
/// sparsity map decides which multiplies exist at all, so a pruned MAC
/// costs zero gates rather than being folded away after the fact.
pub fn sparse_row(
    b: &mut Builder,
    init: Word,
    xs: &[Word],
    ws: &[Option<Word>],
    frac: u32,
) -> Word {
    assert_eq!(xs.len(), ws.len(), "sparse row arity mismatch");
    let mut acc = init;
    for (x, w) in xs.iter().zip(ws) {
        if let Some(w) = w {
            let p = mul::mul_fixed(b, x, w, frac);
            acc = arith::add(b, &acc, &p);
        }
    }
    acc
}

/// The folded sequential multiply-accumulate core of §3.5: "one MULT, one
/// ADD, and multiple registers to accumulate the result", clocked once per
/// weight.
///
/// Per cycle the garbler (client) supplies one activation word and a
/// `reset` bit that clears the accumulator at neuron boundaries; the
/// evaluator (server) supplies one weight word. The output is the running
/// accumulator *after* the cycle's MAC, so the caller samples it on the
/// last cycle of each neuron.
pub fn mac_circuit(bits: usize, frac: u32) -> Circuit {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, bits);
    let reset = b.garbler_input();
    let w = word::evaluator_word(&mut b, bits);
    let acc: Word = (0..bits).map(|_| b.register(false)).collect();
    let keep = b.not(reset);
    let acc_kept = word::and_all(&mut b, keep, &acc);
    let p = mul::mul_fixed(&mut b, &x, &w, frac);
    let next = arith::add(&mut b, &acc_kept, &p);
    for (q, d) in acc.iter().zip(&next) {
        b.connect_register(*q, *d);
    }
    word::output_word(&mut b, &next);
    b.finish()
}

/// A streaming plan for running a dense layer on the folded MAC core:
/// one cycle per (neuron, input) pair, reset at neuron boundaries.
#[derive(Clone, Debug)]
pub struct MacSchedule {
    /// Per-cycle garbler bits: activation word (LSB first) + reset bit.
    pub garbler: Vec<Vec<bool>>,
    /// Per-cycle evaluator bits: weight word.
    pub evaluator: Vec<Vec<bool>>,
    /// For each neuron, the cycle index whose output carries its final
    /// accumulator value.
    pub outputs_at: Vec<usize>,
}

/// Schedules a dense layer (`weights`: `n_out` rows over `inputs.len()`
/// columns) onto [`mac_circuit`]: the client streams its activations, the
/// server streams its weights, and each neuron's sum appears on the output
/// at its last cycle — "a single multiplication is performed at a time and
/// the result is added to the previous steps" (§3.5).
///
/// # Panics
///
/// Panics on ragged weights or empty inputs.
pub fn mac_schedule(
    inputs: &[deepsecure_fixed::Fixed],
    weights: &[Vec<deepsecure_fixed::Fixed>],
) -> MacSchedule {
    assert!(!inputs.is_empty(), "empty input vector");
    let n_in = inputs.len();
    let mut garbler = Vec::with_capacity(weights.len() * n_in);
    let mut evaluator = Vec::with_capacity(weights.len() * n_in);
    let mut outputs_at = Vec::with_capacity(weights.len());
    for row in weights {
        assert_eq!(row.len(), n_in, "ragged weight row");
        for (i, (x, w)) in inputs.iter().zip(row).enumerate() {
            let mut g = x.to_bits();
            g.push(i == 0); // reset the accumulator at the neuron boundary
            garbler.push(g);
            evaluator.push(w.to_bits());
        }
        outputs_at.push(garbler.len() - 1);
    }
    MacSchedule {
        garbler,
        evaluator,
        outputs_at,
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Simulator;
    use deepsecure_fixed::{Fixed, Format};

    use super::*;
    use crate::word::{garbler_word, output_word};

    const Q: Format = Format::Q3_12;

    #[test]
    fn dot_matches_fixed_reference() {
        let xs_f = [0.5, -1.25, 2.0];
        let ws_f = [1.5, 0.25, -0.5];
        let mut b = Builder::new();
        let xs: Vec<Word> = xs_f.iter().map(|_| garbler_word(&mut b, 16)).collect();
        let ws: Vec<Word> = ws_f
            .iter()
            .map(|_| word::evaluator_word(&mut b, 16))
            .collect();
        let out = dot(&mut b, &xs, &ws, 12);
        output_word(&mut b, &out);
        let c = b.finish();
        let gbits: Vec<bool> = xs_f
            .iter()
            .flat_map(|v| Fixed::from_f64(*v, Q).to_bits())
            .collect();
        let ebits: Vec<bool> = ws_f
            .iter()
            .flat_map(|v| Fixed::from_f64(*v, Q).to_bits())
            .collect();
        let got = Fixed::from_bits(&c.eval(&gbits, &ebits), Q);
        let want = xs_f
            .iter()
            .zip(&ws_f)
            .map(|(x, w)| Fixed::from_f64(*x, Q).mul(Fixed::from_f64(*w, Q)))
            .fold(Fixed::zero(Q), |a, p| a.add(p));
        assert_eq!(got, want);
    }

    #[test]
    fn masked_dot_skips_pruned_macs() {
        let mut b = Builder::new();
        let xs: Vec<Word> = (0..4).map(|_| garbler_word(&mut b, 16)).collect();
        let ws: Vec<Word> = (0..4).map(|_| word::evaluator_word(&mut b, 16)).collect();
        let out = dot_masked(&mut b, &xs, &ws, &[true, false, false, true], 12).unwrap();
        output_word(&mut b, &out);
        let sparse = b.finish();

        let mut b = Builder::new();
        let xs: Vec<Word> = (0..4).map(|_| garbler_word(&mut b, 16)).collect();
        let ws: Vec<Word> = (0..4).map(|_| word::evaluator_word(&mut b, 16)).collect();
        let out = dot(&mut b, &xs, &ws, 12);
        output_word(&mut b, &out);
        let dense = b.finish();

        assert!(
            sparse.stats().non_xor * 2 <= dense.stats().non_xor + 32,
            "50% sparsity should halve MAC gates: {} vs {}",
            sparse.stats().non_xor,
            dense.stats().non_xor
        );
    }

    #[test]
    fn sparse_row_matches_masked_dot() {
        // sparse_row over Option slots == bias + dot_masked over the same
        // mask.
        let mask = [true, false, true, false];
        let mut b = Builder::new();
        let xs: Vec<Word> = (0..4).map(|_| garbler_word(&mut b, 16)).collect();
        let bias = word::evaluator_word(&mut b, 16);
        let ws: Vec<Option<Word>> = mask
            .iter()
            .map(|&m| m.then(|| word::evaluator_word(&mut b, 16)))
            .collect();
        let out = sparse_row(&mut b, bias, &xs, &ws, 12);
        output_word(&mut b, &out);
        let via_row = b.finish();

        let mut b = Builder::new();
        let xs: Vec<Word> = (0..4).map(|_| garbler_word(&mut b, 16)).collect();
        let bias = word::evaluator_word(&mut b, 16);
        let ws: Vec<Word> = mask
            .iter()
            .filter(|&&m| m)
            .map(|_| word::evaluator_word(&mut b, 16))
            .collect();
        let xs_live: Vec<Word> = xs
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(x, _)| x.clone())
            .collect();
        let d = dot(&mut b, &xs_live, &ws, 12);
        let out = arith::add(&mut b, &bias, &d);
        output_word(&mut b, &out);
        let via_dot = b.finish();

        assert_eq!(via_row.stats().non_xor, via_dot.stats().non_xor);
        let g: Vec<bool> = [0.5, -1.0, 2.0, 0.25]
            .iter()
            .flat_map(|&v| deepsecure_fixed::Fixed::from_f64(v, Q).to_bits())
            .collect();
        let e: Vec<bool> = [0.125, 1.5, -0.5]
            .iter()
            .flat_map(|&v| deepsecure_fixed::Fixed::from_f64(v, Q).to_bits())
            .collect();
        assert_eq!(via_row.eval(&g, &e), via_dot.eval(&g, &e));
    }

    #[test]
    fn fully_masked_dot_is_none() {
        let mut b = Builder::new();
        let xs: Vec<Word> = (0..2).map(|_| garbler_word(&mut b, 16)).collect();
        let ws: Vec<Word> = (0..2).map(|_| word::evaluator_word(&mut b, 16)).collect();
        assert!(dot_masked(&mut b, &xs, &ws, &[false, false], 12).is_none());
    }

    #[test]
    fn mac_circuit_accumulates_two_neurons() {
        let c = mac_circuit(16, 12);
        assert!(c.is_sequential());
        let mut sim = Simulator::new(&c);
        // Neuron 1: 0.5*2.0 + 1.5*1.0 = 2.5 ; Neuron 2: -1.0*0.25 = -0.25
        let schedule: [(f64, f64, bool); 3] =
            [(0.5, 2.0, true), (1.5, 1.0, false), (-1.0, 0.25, true)];
        let mut outs = Vec::new();
        for (x, w, reset) in schedule {
            let mut g = Fixed::from_f64(x, Q).to_bits();
            g.push(reset);
            let e = Fixed::from_f64(w, Q).to_bits();
            outs.push(Fixed::from_bits(&sim.step(&g, &e), Q).to_f64());
        }
        assert!((outs[1] - 2.5).abs() < 1e-3, "neuron 1 = {}", outs[1]);
        assert!((outs[2] + 0.25).abs() < 1e-3, "neuron 2 = {}", outs[2]);
    }

    #[test]
    fn mac_schedule_computes_a_dense_layer() {
        let q = Format::Q3_12;
        let inputs: Vec<Fixed> = [0.5, -1.0, 2.0]
            .iter()
            .map(|&v| Fixed::from_f64(v, q))
            .collect();
        let weights: Vec<Vec<Fixed>> = [[1.0, 0.5, 0.25], [-1.0, 2.0, 0.125]]
            .iter()
            .map(|row| row.iter().map(|&v| Fixed::from_f64(v, q)).collect())
            .collect();
        let plan = mac_schedule(&inputs, &weights);
        assert_eq!(plan.garbler.len(), 6);
        assert_eq!(plan.outputs_at, vec![2, 5]);
        let circuit = mac_circuit(16, 12);
        let mut sim = Simulator::new(&circuit);
        let mut per_cycle = Vec::new();
        for (g, e) in plan.garbler.iter().zip(&plan.evaluator) {
            per_cycle.push(Fixed::from_bits(&sim.step(g, e), q));
        }
        for (o, &cycle) in plan.outputs_at.iter().enumerate() {
            let want = inputs
                .iter()
                .zip(&weights[o])
                .map(|(x, w)| x.mul(*w))
                .fold(Fixed::zero(q), |a, p| a.add(p));
            assert_eq!(per_cycle[cycle], want, "neuron {o}");
        }
    }

    #[test]
    fn mac_circuit_is_compact() {
        // The whole point of §3.5: the folded core is a constant-size
        // netlist regardless of layer width.
        let c = mac_circuit(16, 12);
        assert!(
            c.stats().non_xor < 1000,
            "folded MAC should be < 1000 non-XOR, got {}",
            c.stats().non_xor
        );
        assert_eq!(c.registers().len(), 16);
    }
}
