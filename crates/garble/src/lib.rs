//! The garbling engine: Free-XOR + point-and-permute + half-gates over the
//! fixed-key AES hash — the optimization stack of §2.3.
//!
//! * XOR/XNOR/NOT/BUF gates are free (label XOR, no table, no bytes).
//! * Every non-XOR two-input gate is normalized to
//!   `((a⊕α) ∧ (b⊕β)) ⊕ γ` and garbled with half-gates — exactly two
//!   128-bit ciphertexts, which is where the paper's
//!   `α = N_non-XOR × 2 × 128 bit` communication formula (Table 2) comes
//!   from.
//! * Sequential circuits garble cycle by cycle with register labels carried
//!   across cycles (TinyGarble-style, §3.5): the material for one cycle is
//!   constant-size no matter how many cycles run.
//! * Within a cycle, garbling and evaluation both run **incrementally**:
//!   [`Garbler::begin_cycle`] assigns input labels up front and
//!   [`CycleGarbling::garble_chunk`] emits the table stream any number of
//!   non-free gates at a time, while [`Evaluator::begin_cycle`] +
//!   [`CycleEval::feed`] consume it as it arrives — the producer/consumer
//!   halves of the streaming pipeline, holding O(chunk) tables instead of
//!   O(circuit). The buffered [`Garbler::garble_cycle`] /
//!   [`Evaluator::eval_cycle`] are thin wrappers over the same walk, so
//!   chunking can never change the bytes (property-tested).
//!
//! [`Garbler`] and [`Evaluator`] are transport-agnostic state machines;
//! `deepsecure-core` wires them to channels and OT. [`execute_locally`]
//! runs both in-process for tests and calibration.
//!
//! # Example
//!
//! ```
//! use deepsecure_circuit::Builder;
//! use deepsecure_garble::execute_locally;
//! use rand::SeedableRng;
//!
//! let mut b = Builder::new();
//! let x = b.garbler_input();
//! let y = b.evaluator_input();
//! let z = b.and(x, y);
//! b.output(z);
//! let c = b.finish();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let run = execute_locally(&c, &[true], &[true], 1, &mut rng);
//! assert_eq!(run.outputs, vec![true]);
//! assert_eq!(run.material_bytes, 32, "one AND = two ciphertexts");
//! ```

mod evaluator;
mod garbler;

pub use evaluator::{CycleEval, Evaluator};
pub use garbler::{CycleGarbling, GarbledCycle, Garbler};

use deepsecure_circuit::Circuit;
use rand::Rng;

/// Result of [`execute_locally`].
#[derive(Debug, Clone)]
pub struct LocalRun {
    /// Decoded output bits of the final cycle.
    pub outputs: Vec<bool>,
    /// Total garbled-table bytes produced (what would cross the network).
    pub material_bytes: u64,
    /// Decoded outputs of every cycle.
    pub per_cycle_outputs: Vec<Vec<bool>>,
}

/// Garbles and evaluates a circuit in-process, feeding the same inputs
/// every cycle. The reference for correctness tests and the β-coefficient
/// calibration of §4.3.
///
/// # Panics
///
/// Panics if input lengths do not match the circuit.
pub fn execute_locally<R: Rng + ?Sized>(
    circuit: &Circuit,
    garbler_inputs: &[bool],
    evaluator_inputs: &[bool],
    cycles: usize,
    rng: &mut R,
) -> LocalRun {
    let mut garbler = Garbler::new(circuit, rng);
    let mut evaluator = Evaluator::new(circuit);
    evaluator.set_initial_registers(garbler.initial_register_labels());
    let mut material = 0u64;
    let mut per_cycle = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let cycle = garbler.garble_cycle(rng);
        material += (cycle.tables.len() * 16) as u64;
        evaluator.set_constant_labels(cycle.constant_labels[0], cycle.constant_labels[1]);
        let g_labels = cycle.garbler_active(garbler_inputs);
        let e_labels = cycle.evaluator_active(evaluator_inputs);
        let outputs =
            evaluator.eval_cycle(&cycle.tables, &g_labels, &e_labels, &cycle.output_decode);
        per_cycle.push(outputs);
    }
    LocalRun {
        outputs: per_cycle.last().cloned().unwrap_or_default(),
        material_bytes: material,
        per_cycle_outputs: per_cycle,
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::{Builder, Circuit, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn exhaustive_check(circuit: &Circuit) {
        let ng = circuit.garbler_inputs().len();
        let ne = circuit.evaluator_inputs().len();
        let mut rng = StdRng::seed_from_u64(0xabc);
        for bits in 0..(1u32 << (ng + ne)) {
            let g: Vec<bool> = (0..ng).map(|i| (bits >> i) & 1 == 1).collect();
            let e: Vec<bool> = (0..ne).map(|i| (bits >> (ng + i)) & 1 == 1).collect();
            let run = execute_locally(circuit, &g, &e, 1, &mut rng);
            let want = circuit.eval(&g, &e);
            assert_eq!(run.outputs, want, "inputs g={g:?} e={e:?}");
        }
    }

    #[test]
    fn all_gate_kinds_garble_correctly() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let g1 = b.and(x, y);
        let g2 = b.or(x, y);
        let g3 = b.nand(x, y);
        let g4 = b.nor(x, y);
        let g5 = b.xor(x, y);
        let g6 = b.xnor(x, y);
        let g7 = b.not(x);
        for w in [g1, g2, g3, g4, g5, g6, g7] {
            b.output(w);
        }
        exhaustive_check(&b.finish());
    }

    #[test]
    fn constants_garble_correctly() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let one = b.const1();
        let zero = b.const0();
        let a = b.and(x, one);
        let o = b.or(x, zero);
        b.output(a);
        b.output(o);
        b.output(one);
        b.output(zero);
        exhaustive_check(&b.finish());
    }

    #[test]
    fn full_adder_exhaustive() {
        let mut b = Builder::new();
        let a = b.garbler_input();
        let cin = b.garbler_input();
        let x = b.evaluator_input();
        let t1 = b.xor(a, cin);
        let t2 = b.xor(x, cin);
        let t3 = b.and(t1, t2);
        let cout = b.xor(cin, t3);
        let sum = b.xor(t1, x);
        b.output(sum);
        b.output(cout);
        exhaustive_check(&b.finish());
    }

    #[test]
    fn sequential_accumulator_matches_simulator() {
        // acc' = acc + x (2-bit counter with evaluator-controlled step).
        let mut b = Builder::new();
        let x = b.evaluator_input();
        let q0 = b.register(false);
        let q1 = b.register(false);
        let d0 = b.xor(q0, x);
        let carry = b.and(q0, x);
        let d1 = b.xor(q1, carry);
        b.connect_register(q0, d0);
        b.connect_register(q1, d1);
        b.output(d0);
        b.output(d1);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(77);
        let run = execute_locally(&c, &[], &[true], 5, &mut rng);
        let mut sim = Simulator::new(&c);
        let mut last = Vec::new();
        for _ in 0..5 {
            last = sim.step(&[], &[true]);
        }
        assert_eq!(run.outputs, last, "after 5 increments");
        // Check every intermediate cycle too.
        let mut sim = Simulator::new(&c);
        for cyc in 0..5 {
            assert_eq!(
                run.per_cycle_outputs[cyc],
                sim.step(&[], &[true]),
                "cycle {cyc}"
            );
        }
    }

    #[test]
    fn registers_with_nonzero_init() {
        let mut b = Builder::new();
        let q = b.register(true);
        let n = b.not(q);
        b.connect_register(q, n);
        b.output(q);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(4);
        let run = execute_locally(&c, &[], &[], 3, &mut rng);
        assert_eq!(
            run.per_cycle_outputs,
            vec![vec![true], vec![false], vec![true]]
        );
    }

    #[test]
    fn material_size_counts_only_non_free_gates() {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(4);
        let ys = b.evaluator_inputs(4);
        let mut outs = Vec::new();
        for (x, y) in xs.iter().zip(&ys) {
            outs.push(b.xor(*x, *y)); // free
        }
        let a = b.and(outs[0], outs[1]);
        let o = b.or(outs[2], outs[3]);
        b.output(a);
        b.output(o);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(3);
        let run = execute_locally(&c, &[true; 4], &[false; 4], 1, &mut rng);
        assert_eq!(run.material_bytes, 2 * 32, "2 non-XOR gates x 32 bytes");
    }

    #[test]
    fn random_circuits_match_simulator() {
        use rand::Rng as _;
        let mut meta_rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..30 {
            let mut b = Builder::new();
            let ng = meta_rng.gen_range(1..5);
            let ne = meta_rng.gen_range(1..5);
            let mut pool: Vec<_> = b.garbler_inputs(ng);
            pool.extend(b.evaluator_inputs(ne));
            for _ in 0..meta_rng.gen_range(5..40) {
                let a = pool[meta_rng.gen_range(0..pool.len())];
                let c = pool[meta_rng.gen_range(0..pool.len())];
                let w = match meta_rng.gen_range(0..7) {
                    0 => b.xor(a, c),
                    1 => b.and(a, c),
                    2 => b.or(a, c),
                    3 => b.xnor(a, c),
                    4 => b.nand(a, c),
                    5 => b.nor(a, c),
                    _ => b.not(a),
                };
                pool.push(w);
            }
            for _ in 0..3 {
                let w = pool[meta_rng.gen_range(0..pool.len())];
                b.output(w);
            }
            let circuit = b.finish();
            let g: Vec<bool> = (0..ng).map(|_| meta_rng.gen()).collect();
            let e: Vec<bool> = (0..ne).map(|_| meta_rng.gen()).collect();
            let run = execute_locally(&circuit, &g, &e, 1, &mut meta_rng);
            assert_eq!(run.outputs, circuit.eval(&g, &e), "trial {trial}");
        }
    }
}

#[cfg(test)]
mod streaming_tests {
    use deepsecure_circuit::{Builder, Circuit};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    use super::*;

    /// A random mixed-gate circuit with `ng`/`ne` inputs (same shape family
    /// as `random_circuits_match_simulator`).
    fn random_circuit(seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Builder::new();
        let ng = rng.gen_range(1..4);
        let ne = rng.gen_range(1..4);
        let mut pool: Vec<_> = b.garbler_inputs(ng);
        pool.extend(b.evaluator_inputs(ne));
        for _ in 0..rng.gen_range(8..60) {
            let a = pool[rng.gen_range(0..pool.len())];
            let c = pool[rng.gen_range(0..pool.len())];
            let w = match rng.gen_range(0..7) {
                0 => b.xor(a, c),
                1 => b.and(a, c),
                2 => b.or(a, c),
                3 => b.xnor(a, c),
                4 => b.nand(a, c),
                5 => b.nor(a, c),
                _ => b.not(a),
            };
            pool.push(w);
        }
        for _ in 0..3 {
            let w = pool[rng.gen_range(0..pool.len())];
            b.output(w);
        }
        b.finish()
    }

    /// Garbles one cycle through the chunked API with `chunk` non-free
    /// gates per call; returns the concatenated stream plus the metadata.
    fn garble_chunked(
        garbler: &mut Garbler<'_>,
        rng: &mut StdRng,
        chunk: usize,
    ) -> (Vec<Vec<Block>>, GarbledCycle) {
        let mut cycle = garbler.begin_cycle(rng);
        let garbler_input_labels = cycle.garbler_input_labels().to_vec();
        let evaluator_input_labels = cycle.evaluator_input_labels().to_vec();
        let constant_labels = cycle.constant_labels();
        let mut chunks = Vec::new();
        loop {
            let mut buf = Vec::new();
            let done = cycle.garble_chunk(chunk, &mut buf);
            if done == 0 {
                assert!(buf.is_empty());
                break;
            }
            assert!(done <= chunk);
            assert_eq!(buf.len(), 2 * done, "two rows per non-free gate");
            chunks.push(buf);
        }
        let output_decode = cycle.finish();
        let tables = chunks.iter().flatten().copied().collect();
        (
            chunks,
            GarbledCycle {
                tables,
                garbler_input_labels,
                evaluator_input_labels,
                constant_labels,
                output_decode,
            },
        )
    }

    use deepsecure_crypto::{Block, FixedKeyHash};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn chunked_garble_and_feed_eval_are_bit_identical_to_buffered(
            circuit_seed in 0u64..1u64 << 48,
            rng_seed in 0u64..1u64 << 48,
            chunk_sel in 0usize..8,
        ) {
            // Chunk sizes: 1 gate, a handful, and far larger than any
            // test circuit (one chunk ≡ buffered).
            let chunk = match chunk_sel {
                0 => 1,
                7 => 1usize << 20,
                n => n,
            };
            let c = random_circuit(circuit_seed);
            let ng = c.garbler_inputs().len();
            let ne = c.evaluator_inputs().len();
            let mut bit_rng = StdRng::seed_from_u64(rng_seed ^ 0xb17);
            let g_bits: Vec<bool> = (0..ng).map(|_| bit_rng.gen()).collect();
            let e_bits: Vec<bool> = (0..ne).map(|_| bit_rng.gen()).collect();

            // Buffered reference (one RNG stream)…
            let mut rng_a = StdRng::seed_from_u64(rng_seed);
            let mut garbler_a = Garbler::new(&c, &mut rng_a);
            let buffered = garbler_a.garble_cycle(&mut rng_a);
            // …versus the chunked producer on an identical RNG stream.
            let mut rng_b = StdRng::seed_from_u64(rng_seed);
            let mut garbler_b = Garbler::new(&c, &mut rng_b);
            let (chunks, streamed) = garble_chunked(&mut garbler_b, &mut rng_b, chunk);

            // Identical material and labels, whatever the chunk size.
            prop_assert_eq!(&streamed.tables, &buffered.tables);
            prop_assert_eq!(
                &streamed.garbler_input_labels,
                &buffered.garbler_input_labels
            );
            prop_assert_eq!(
                &streamed.evaluator_input_labels,
                &buffered.evaluator_input_labels
            );
            prop_assert_eq!(streamed.constant_labels, buffered.constant_labels);
            prop_assert_eq!(&streamed.output_decode, &buffered.output_decode);

            // Feeding the evaluator chunk by chunk decodes the same bits as
            // the buffered call — and matches the plaintext circuit.
            let g_labels = buffered.garbler_active(&g_bits);
            let e_labels = buffered.evaluator_active(&e_bits);
            let mut ev_buf = Evaluator::new(&c);
            ev_buf.set_constant_labels(buffered.constant_labels[0], buffered.constant_labels[1]);
            let want = ev_buf.eval_cycle(
                &buffered.tables,
                &g_labels,
                &e_labels,
                &buffered.output_decode,
            );
            let mut ev_str = Evaluator::new(&c);
            ev_str.set_constant_labels(streamed.constant_labels[0], streamed.constant_labels[1]);
            let mut cyc = ev_str.begin_cycle(&g_labels, &e_labels);
            for part in &chunks {
                cyc.feed(part);
            }
            // An all-free cycle has no chunks; an empty feed still walks it.
            cyc.feed(&[]);
            prop_assert!(cyc.is_complete());
            let got = cyc.finish(&streamed.output_decode);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got, c.eval(&g_bits, &e_bits));
        }
    }

    /// Everything one party pair produces over `cycles` clock cycles of
    /// `c`, garbled in `chunk`-gate chunks, starting from the given
    /// wire-label arrays — plus the arrays handed back.
    #[allow(clippy::type_complexity)]
    fn run_on_arrays(
        c: &Circuit,
        cycles: usize,
        chunk: usize,
        arrays: (Vec<Block>, Vec<Block>),
    ) -> (
        Vec<(
            Vec<Vec<Block>>,
            Vec<(Block, Block)>,
            Vec<(Block, Block)>,
            [Block; 2],
            Vec<bool>,
            Vec<bool>,
        )>,
        (Vec<Block>, Vec<Block>),
    ) {
        let mut rng = StdRng::seed_from_u64(0xd1e7);
        let mut garbler = Garbler::new(c, &mut rng).with_labels(arrays.0);
        let mut ev = Evaluator::new(c).with_labels(arrays.1);
        ev.set_initial_registers(garbler.initial_register_labels());
        let g_bits: Vec<bool> = (0..c.garbler_inputs().len()).map(|i| i % 3 == 0).collect();
        let e_bits: Vec<bool> = (0..c.evaluator_inputs().len())
            .map(|i| i % 2 == 0)
            .collect();
        let mut sim = deepsecure_circuit::Simulator::new(c);
        let mut seen = Vec::new();
        for _ in 0..cycles {
            let (chunks, cy) = garble_chunked(&mut garbler, &mut rng, chunk);
            ev.set_constant_labels(cy.constant_labels[0], cy.constant_labels[1]);
            let mut cyc =
                ev.begin_cycle(&cy.garbler_active(&g_bits), &cy.evaluator_active(&e_bits));
            for part in &chunks {
                cyc.feed(part);
            }
            let outputs = cyc.finish(&cy.output_decode);
            assert_eq!(outputs, sim.step(&g_bits, &e_bits));
            seen.push((
                chunks,
                cy.garbler_input_labels,
                cy.evaluator_input_labels,
                cy.constant_labels,
                cy.output_decode,
                outputs,
            ));
        }
        (seen, (garbler.into_labels(), ev.into_labels()))
    }

    #[test]
    fn dirty_label_arrays_garble_and_evaluate_bit_identically_to_fresh_ones() {
        // The recycled array is never cleared, so whatever a previous
        // owner left in it — another circuit's labels, larger or smaller,
        // or plain junk — must be unobservable: tables, label pairs, decode
        // bits and outputs equal a fresh state machine's bit for bit.
        let tiny = {
            let mut b = Builder::new();
            let (x, y) = (b.garbler_input(), b.evaluator_input());
            let z = b.and(x, y);
            b.output(z);
            b.finish()
        };
        let comb = random_circuit(0xc0b);
        let mac = deepsecure_synth::matvec::mac_circuit(16, 12);
        let big_mac = deepsecure_synth::matvec::mac_circuit(24, 12);
        assert!(mac.is_sequential());
        let sizes = [&tiny, &comb, &mac, &big_mac].map(Circuit::wire_count);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes {sizes:?}");
        let used_by = |a: &Circuit| run_on_arrays(a, 1, usize::MAX, (Vec::new(), Vec::new())).1;
        for (b, cycles) in [(&comb, 1), (&mac, 3)] {
            for chunk in [1, 64, usize::MAX] {
                let (fresh, _) = run_on_arrays(b, cycles, chunk, (Vec::new(), Vec::new()));
                let junk = vec![Block::ONES; b.wire_count() + 7];
                let junk_at = (junk.as_ptr(), junk.capacity());
                for (what, arrays) in [
                    ("larger circuit's", used_by(&big_mac)),
                    ("smaller circuit's", used_by(&tiny)),
                    ("all-ones", (junk.clone(), junk)),
                ] {
                    let (got, back) = run_on_arrays(b, cycles, chunk, arrays);
                    assert_eq!(got, fresh, "{what} array, chunk {chunk}");
                    assert_eq!(back.0.len(), b.wire_count());
                    assert_eq!(back.1.len(), b.wire_count());
                    if what == "all-ones" {
                        // Handed back, not replaced: same allocation
                        // (the garbler's clone differs only in address).
                        assert_eq!((back.1.as_ptr(), back.1.capacity()), junk_at);
                        assert_eq!(back.0.capacity(), junk_at.1);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "constant labels never provided")]
    fn dirty_array_does_not_stand_in_for_missing_constant_labels() {
        // The array comes back from a cycle of the same circuit holding
        // valid constant labels in slots 0 and 1; a new evaluator that was
        // never given its own must still refuse to start.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let one = b.const1();
        let z = b.and(x, one);
        b.output(z);
        b.output(one);
        let c = b.finish();
        assert!(c.references_constants());
        let (_, (_, used)) = run_on_arrays(&c, 1, usize::MAX, (Vec::new(), Vec::new()));
        let mut rng = StdRng::seed_from_u64(21);
        let cy = Garbler::new(&c, &mut rng).garble_cycle(&mut rng);
        let mut ev = Evaluator::new(&c).with_labels(used);
        let _ = ev.eval_cycle(
            &cy.tables,
            &cy.garbler_active(&[true]),
            &[],
            &cy.output_decode,
        );
    }

    #[test]
    #[should_panic(expected = "register labels never provided")]
    fn dirty_array_does_not_stand_in_for_missing_register_labels() {
        let c = deepsecure_synth::matvec::mac_circuit(16, 12);
        let (_, (_, used)) = run_on_arrays(&c, 1, usize::MAX, (Vec::new(), Vec::new()));
        let mut rng = StdRng::seed_from_u64(23);
        let cy = Garbler::new(&c, &mut rng).garble_cycle(&mut rng);
        let mut ev = Evaluator::new(&c).with_labels(used);
        ev.set_constant_labels(cy.constant_labels[0], cy.constant_labels[1]);
        // Deliberately skip set_initial_registers.
        let g = cy.garbler_active(&vec![false; c.garbler_inputs().len()]);
        let e = cy.evaluator_active(&vec![false; c.evaluator_inputs().len()]);
        let _ = ev.eval_cycle(&cy.tables, &g, &e, &cy.output_decode);
    }

    /// A random circuit with registers: the mixed-gate family of
    /// [`random_circuit`] over inputs and 1–4 register outputs, each
    /// register latching a random pool wire.
    fn random_sequential_circuit(seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Builder::new();
        let ng = rng.gen_range(1..4);
        let ne = rng.gen_range(1..4);
        let mut pool: Vec<_> = b.garbler_inputs(ng);
        pool.extend(b.evaluator_inputs(ne));
        let regs: Vec<_> = (0..rng.gen_range(1..5))
            .map(|_| b.register(rng.gen()))
            .collect();
        pool.extend(&regs);
        for _ in 0..rng.gen_range(8..60) {
            let a = pool[rng.gen_range(0..pool.len())];
            let c = pool[rng.gen_range(0..pool.len())];
            let w = match rng.gen_range(0..7) {
                0 => b.xor(a, c),
                1 => b.and(a, c),
                2 => b.or(a, c),
                3 => b.xnor(a, c),
                4 => b.nand(a, c),
                5 => b.nor(a, c),
                _ => b.not(a),
            };
            pool.push(w);
        }
        for &q in &regs {
            let d = pool[rng.gen_range(0..pool.len())];
            b.connect_register(q, d);
        }
        for _ in 0..3 {
            let w = pool[rng.gen_range(0..pool.len())];
            b.output(w);
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn aes_ni_and_t_table_kernels_garble_and_evaluate_identically(
            circuit_seed in 0u64..1u64 << 48,
            rng_seed in 0u64..1u64 << 48,
            chunk_sel in 0usize..3,
        ) {
            // Both walks are compiled once per hash kernel; the two
            // compilations must agree bit for bit. Chunk sizes: 1 gate, a
            // handful, and the whole cycle.
            if FixedKeyHash::new().backend_name() != "aes-ni" {
                static NOTE: std::sync::Once = std::sync::Once::new();
                NOTE.call_once(|| {
                    eprintln!("note: no AES-NI on this host — kernel-equivalence cases skipped");
                });
                return Ok(());
            }
            let chunk = [1, 5, usize::MAX][chunk_sel];
            let c = random_sequential_circuit(circuit_seed);
            let cycles = 3;
            let mut bit_rng = StdRng::seed_from_u64(rng_seed ^ 0xb17);
            let inputs: Vec<(Vec<bool>, Vec<bool>)> = (0..cycles)
                .map(|_| {
                    let g = (0..c.garbler_inputs().len()).map(|_| bit_rng.gen()).collect();
                    let e = (0..c.evaluator_inputs().len()).map(|_| bit_rng.gen()).collect();
                    (g, e)
                })
                .collect();
            let garble = |hash: FixedKeyHash| {
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let mut garbler = Garbler::new(&c, &mut rng).with_hash(hash);
                let registers = garbler.initial_register_labels();
                let cycles: Vec<_> = (0..cycles)
                    .map(|_| garble_chunked(&mut garbler, &mut rng, chunk))
                    .collect();
                (registers, cycles)
            };
            let (registers, on_aes_ni) = garble(FixedKeyHash::new());
            let (_, on_t_tables) = garble(FixedKeyHash::portable());
            for ((hw_chunks, hw), (tt_chunks, tt)) in on_aes_ni.iter().zip(&on_t_tables) {
                prop_assert_eq!(hw_chunks, tt_chunks);
                prop_assert_eq!(&hw.garbler_input_labels, &tt.garbler_input_labels);
                prop_assert_eq!(&hw.evaluator_input_labels, &tt.evaluator_input_labels);
                prop_assert_eq!(hw.constant_labels, tt.constant_labels);
                prop_assert_eq!(&hw.output_decode, &tt.output_decode);
            }
            for hash in [FixedKeyHash::new(), FixedKeyHash::portable()] {
                let backend = hash.backend_name();
                let mut ev = Evaluator::new(&c).with_hash(hash);
                ev.set_initial_registers(registers.clone());
                let mut sim = deepsecure_circuit::Simulator::new(&c);
                for ((chunks, cy), (g, e)) in on_aes_ni.iter().zip(&inputs) {
                    ev.set_constant_labels(cy.constant_labels[0], cy.constant_labels[1]);
                    let mut cyc = ev.begin_cycle(&cy.garbler_active(g), &cy.evaluator_active(e));
                    for part in chunks {
                        cyc.feed(part);
                    }
                    let got = cyc.finish(&cy.output_decode);
                    prop_assert_eq!(got, sim.step(g, e), "evaluated on {}", backend);
                }
            }
        }
    }

    #[test]
    fn feed_handles_row_misaligned_chunks() {
        // Feeds that split a non-free gate's two rows across calls must
        // buffer the orphan row and resume — streaming never requires the
        // producer's chunking to align with gate boundaries.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let mut w = b.and(x, y);
        for _ in 0..4 {
            w = b.and(w, y);
        }
        b.output(w);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = Garbler::new(&c, &mut rng);
        let cy = g.garble_cycle(&mut rng);
        let g_labels = cy.garbler_active(&[true]);
        let e_labels = cy.evaluator_active(&[true]);
        let mut ev = Evaluator::new(&c);
        let mut cyc = ev.begin_cycle(&g_labels, &e_labels);
        // One row at a time: every other feed leaves an orphan row pending.
        for row in &cy.tables {
            cyc.feed(std::slice::from_ref(row));
        }
        assert!(cyc.is_complete());
        assert_eq!(cyc.finish(&cy.output_decode), vec![true]);
    }

    #[test]
    fn sequential_chunked_cycles_match_buffered_cycles() {
        // Register latching must carry across chunk-streamed cycles exactly
        // as it does across buffered ones.
        let mut b = Builder::new();
        let x = b.evaluator_input();
        let q0 = b.register(false);
        let q1 = b.register(true);
        let d0 = b.xor(q0, x);
        let carry = b.and(q0, x);
        let d1 = b.xor(q1, carry);
        b.connect_register(q0, d0);
        b.connect_register(q1, d1);
        b.output(d0);
        b.output(d1);
        let c = b.finish();

        let run = |chunk: Option<usize>| -> Vec<Vec<bool>> {
            let mut rng = StdRng::seed_from_u64(91);
            let mut garbler = Garbler::new(&c, &mut rng);
            let mut ev = Evaluator::new(&c);
            ev.set_initial_registers(garbler.initial_register_labels());
            let mut outs = Vec::new();
            for _ in 0..5 {
                match chunk {
                    None => {
                        let cy = garbler.garble_cycle(&mut rng);
                        ev.set_constant_labels(cy.constant_labels[0], cy.constant_labels[1]);
                        let e = cy.evaluator_active(&[true]);
                        outs.push(ev.eval_cycle(&cy.tables, &[], &e, &cy.output_decode));
                    }
                    Some(k) => {
                        let mut gc = garbler.begin_cycle(&mut rng);
                        let consts = gc.constant_labels();
                        let e: Vec<Block> = [true]
                            .iter()
                            .zip(gc.evaluator_input_labels())
                            .map(|(&bit, (l0, l1))| if bit { *l1 } else { *l0 })
                            .collect();
                        ev.set_constant_labels(consts[0], consts[1]);
                        let mut ec = ev.begin_cycle(&[], &e);
                        let mut buf = Vec::new();
                        loop {
                            buf.clear();
                            if gc.garble_chunk(k, &mut buf) == 0 {
                                break;
                            }
                            ec.feed(&buf);
                        }
                        let decode = gc.finish();
                        outs.push(ec.finish(&decode));
                    }
                }
            }
            outs
        };
        let buffered = run(None);
        assert_eq!(run(Some(1)), buffered);
        assert_eq!(run(Some(3)), buffered);
        assert_eq!(run(Some(1 << 20)), buffered);
    }
}

#[cfg(test)]
mod failure_tests {
    use deepsecure_circuit::Builder;
    use deepsecure_crypto::Block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::{Evaluator, Garbler};

    fn and_tree() -> deepsecure_circuit::Circuit {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(4);
        let ys = b.evaluator_inputs(4);
        let mut acc = b.const1();
        for (x, y) in xs.iter().zip(&ys) {
            let t = b.and(*x, *y);
            acc = b.and(acc, t);
        }
        b.output(acc);
        b.finish()
    }

    #[test]
    fn corrupted_table_changes_or_garbles_output() {
        // Flipping one garbled-table bit must not silently yield the
        // correct wire semantics for all inputs (integrity is not part of
        // HbC guarantees, but corruption must visibly derail evaluation).
        let c = and_tree();
        let mut rng = StdRng::seed_from_u64(7);
        let mut diverged = false;
        for trial in 0..8 {
            let mut garbler = Garbler::new(&c, &mut rng);
            let mut evaluator = Evaluator::new(&c);
            evaluator.set_initial_registers(garbler.initial_register_labels());
            let mut cyc = garbler.garble_cycle(&mut rng);
            evaluator.set_constant_labels(cyc.constant_labels[0], cyc.constant_labels[1]);
            // Corrupt one row.
            let idx = trial % cyc.tables.len();
            cyc.tables[idx] ^= Block::from(1u128 << (trial * 7 % 128));
            let g = cyc.garbler_active(&[true; 4]);
            let e = cyc.evaluator_active(&[true; 4]);
            let out = evaluator.eval_cycle(&cyc.tables, &g, &e, &cyc.output_decode);
            if out != vec![true] {
                diverged = true;
            }
        }
        assert!(diverged, "corruption never affected any evaluation");
    }

    #[test]
    fn wrong_input_label_changes_result() {
        // Handing the evaluator the label for the other input value flips
        // the computed function — labels really do carry the semantics.
        let c = and_tree();
        let mut rng = StdRng::seed_from_u64(8);
        let mut garbler = Garbler::new(&c, &mut rng);
        let mut evaluator = Evaluator::new(&c);
        evaluator.set_initial_registers(garbler.initial_register_labels());
        let cyc = garbler.garble_cycle(&mut rng);
        evaluator.set_constant_labels(cyc.constant_labels[0], cyc.constant_labels[1]);
        let g = cyc.garbler_active(&[true; 4]);
        // Correct labels say all-true AND = true; swap one evaluator label
        // to the `false` branch.
        let mut e = cyc.evaluator_active(&[true; 4]);
        e[2] = cyc.evaluator_input_labels[2].0;
        let out = evaluator.eval_cycle(&cyc.tables, &g, &e, &cyc.output_decode);
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn two_sessions_share_nothing() {
        let c = and_tree();
        let mut rng = StdRng::seed_from_u64(9);
        let g1 = Garbler::new(&c, &mut rng);
        let g2 = Garbler::new(&c, &mut rng);
        assert_ne!(g1.delta(), g2.delta(), "fresh Δ per session");
    }
}
