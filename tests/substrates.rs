//! Cross-crate integration over the substrates: netlist serialization →
//! optimization → garbling; component circuits through the real protocol.

use deepsecure::circuit::{netlist, passes, Builder};
use deepsecure::core::protocol::{run_circuit, InferenceConfig};
use deepsecure::fixed::{Fixed, Format};
use deepsecure::garble::execute_locally;
use deepsecure::synth::{arith, word};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn netlist_roundtrip_then_garble() {
    // Build an adder, serialize to text, parse back, re-optimize, garble.
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, 8);
    let y = word::evaluator_word(&mut b, 8);
    let s = arith::add(&mut b, &x, &y);
    word::output_word(&mut b, &s);
    let circuit = b.finish();

    let text = netlist::serialize(&circuit);
    let parsed = netlist::parse(&text).expect("parse");
    let optimized = passes::optimize(&parsed);
    assert!(optimized.stats().non_xor <= circuit.stats().non_xor);

    let mut rng = StdRng::seed_from_u64(1);
    let g: Vec<bool> = (0..8).map(|i| (37 >> i) & 1 == 1).collect();
    let e: Vec<bool> = (0..8).map(|i| (90 >> i) & 1 == 1).collect();
    let run = execute_locally(&optimized, &g, &e, 1, &mut rng);
    let got: u64 = run
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &v)| u64::from(v) << i)
        .sum();
    assert_eq!(got, (37 + 90) & 0xff);
}

#[test]
fn fixed_point_multiplier_through_real_protocol() {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, 16);
    let y = word::evaluator_word(&mut b, 16);
    let p = deepsecure::synth::mul::mul_fixed(&mut b, &x, &y, 12);
    word::output_word(&mut b, &p);
    let circuit = b.finish();
    let q = Format::Q3_12;
    let a = Fixed::from_f64(2.5, q);
    let c = Fixed::from_f64(-1.25, q);
    let cfg = InferenceConfig::default();
    let (bits, report) = run_circuit(&circuit, &a.to_bits(), &c.to_bits(), &cfg).expect("run");
    assert_eq!(Fixed::from_bits(&bits, q), a.mul(c));
    assert_eq!(report.wire.tables, circuit.stats().non_xor * 32);
}
