//! End-to-end smoke test: the garbled execution of a compiled network must
//! agree **bit-for-bit** with the plaintext circuit simulator.
//!
//! This is the cheapest whole-stack check the workspace has: it exercises
//! `nn::zoo` → `core::compile` → (`circuit::sim` | garbler + OT + evaluator
//! over byte-counted channels) and compares the raw output bits, not just
//! the decoded label.

use deepsecure::circuit::Simulator;
use deepsecure::core::compile::{compile, plain_label, CompileOptions};
use deepsecure::core::protocol::{run_circuit, run_secure_inference, InferenceConfig};
use deepsecure::nn::{data, zoo};
use deepsecure::synth::activation::Activation;

fn fast_cfg() -> InferenceConfig {
    InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        ..InferenceConfig::default()
    }
}

#[test]
fn garbled_execution_matches_simulator_bit_for_bit() {
    let set = data::digits_small(8, 11);
    let net = zoo::tiny_mlp(set.num_classes);
    let cfg = fast_cfg();
    let compiled = compile(&net, &cfg.options);
    let weight_bits = compiled.weight_bits(&net);

    for x in set.inputs.iter().take(2) {
        let input_bits = compiled.input_bits(x);
        let sim_bits = Simulator::new(&compiled.circuit).run(&input_bits, &weight_bits, 1);
        let (gc_bits, report) =
            run_circuit(&compiled.circuit, &input_bits, &weight_bits, &cfg).expect("protocol");
        assert_eq!(
            gc_bits, sim_bits,
            "garbled run diverged from plaintext simulation"
        );
        assert_eq!(report.label, compiled.decode_label(&sim_bits));
    }
}

#[test]
fn sequential_circuit_with_constants_matches_simulator() {
    // A hand-built sequential circuit that leans on both features the
    // evaluator used to silently mishandle: constant wires feeding gates
    // and outputs, and register state carried across clock cycles. The
    // garbled protocol run (real OT, byte-counted channels) must agree
    // with the plaintext simulator on every cycle.
    use deepsecure::circuit::Builder;
    use deepsecure::core::compile::Compiled;
    use deepsecure::core::protocol::run_compiled;
    use std::sync::Arc;

    let mut b = Builder::new();
    let x = b.garbler_input();
    let en = b.evaluator_input();
    // 2-bit counter stepped by `en`, with a constant-1 routed through a
    // non-foldable path: sum bit XOR const wiring and direct const output.
    let q0 = b.register(false);
    let q1 = b.register(true);
    let step = b.and(en, x);
    let d0 = b.xor(q0, step);
    let carry = b.and(q0, step);
    let d1 = b.xor(q1, carry);
    b.connect_register(q0, d0);
    b.connect_register(q1, d1);
    let one = b.const1();
    let zero = b.const0();
    b.output(d0);
    b.output(d1);
    b.output(one);
    b.output(zero);
    let circuit = b.finish();
    assert!(circuit.is_sequential());
    assert!(circuit.references_constants());

    let cfg = fast_cfg();
    let cycles = 4;
    let g_bits = vec![vec![true]; cycles];
    let e_bits = vec![vec![true]; cycles];
    let compiled = Arc::new(Compiled {
        circuit: circuit.clone(),
        weight_order: Vec::new(),
        format: cfg.options.format,
    });
    let report = run_compiled(compiled, g_bits, e_bits, &cfg).expect("protocol");

    let mut sim = Simulator::new(&circuit);
    for (cycle, &label) in report.cycle_labels.iter().enumerate() {
        let sim_bits = sim.step(&[true], &[true]);
        let sim_label = sim_bits
            .iter()
            .enumerate()
            .map(|(i, &b)| usize::from(b) << i)
            .sum::<usize>();
        assert_eq!(label, sim_label, "cycle {cycle} diverged");
    }
}

#[test]
fn run_secure_inference_smoke() {
    let set = data::digits_small(8, 12);
    let net = zoo::tiny_mlp(set.num_classes);
    let cfg = fast_cfg();
    let compiled = compile(&net, &cfg.options);
    let x = &set.inputs[0];

    let report = run_secure_inference(&net, x, &cfg).expect("protocol");
    assert_eq!(report.label, plain_label(&compiled, &net, x));
    assert!(report.label < set.num_classes);
    assert!(report.wire.tables > 0 && report.client_sent > report.wire.tables);
}
