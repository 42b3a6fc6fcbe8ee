//! Streaming-equivalence integration tests: the chunk-streamed pipeline
//! must be observably identical to the buffered one — same decoded
//! labels, same per-phase wire bytes — on random circuits across chunk
//! sizes (including 1 gate and larger than the circuit), on the demo
//! model, and across the cycles of a sequential circuit. What changes is
//! *when* bytes move and how many table bytes are ever resident, which
//! the peak-material measurements pin down.

use std::sync::Arc;

use deepsecure::circuit::Builder;
use deepsecure::core::compile::{folded_mac, CompileOptions, Compiled};
use deepsecure::core::protocol::{run_circuit, run_compiled, InferenceConfig, InferenceReport};
use deepsecure::fixed::Format;
use deepsecure::synth::activation::Activation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

fn cfg_with_chunk(chunk_gates: usize) -> InferenceConfig {
    InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        chunk_gates,
        ..InferenceConfig::default()
    }
}

/// Wire totals and label must match; streaming only reorders.
fn assert_equivalent(streamed: &InferenceReport, buffered: &InferenceReport, what: &str) {
    assert_eq!(streamed.label, buffered.label, "{what}: label");
    assert_eq!(
        streamed.cycle_labels, buffered.cycle_labels,
        "{what}: cycle labels"
    );
    assert_eq!(streamed.wire, buffered.wire, "{what}: per-phase wire bytes");
    assert_eq!(
        streamed.client_sent, buffered.client_sent,
        "{what}: client bytes"
    );
    assert_eq!(
        streamed.server_sent, buffered.server_sent,
        "{what}: server bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn random_circuits_stream_identically_at_every_chunk_size(
        circuit_seed in 0u64..1u64 << 48,
        input_seed in 0u64..1u64 << 48,
    ) {
        // Random mixed-gate circuit through the *real* protocol (base OT,
        // IKNP, channels) — buffered versus chunk sizes 1, 5, and one far
        // larger than the circuit.
        let mut rng = StdRng::seed_from_u64(circuit_seed);
        let mut b = Builder::new();
        let ng = rng.gen_range(1..4);
        let ne = rng.gen_range(1..4);
        let mut pool: Vec<_> = b.garbler_inputs(ng);
        pool.extend(b.evaluator_inputs(ne));
        for _ in 0..rng.gen_range(10..50) {
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
        for _ in 0..2 {
            let w = pool[rng.gen_range(0..pool.len())];
            b.output(w);
        }
        let circuit = b.finish();
        let mut in_rng = StdRng::seed_from_u64(input_seed);
        let g: Vec<bool> = (0..ng).map(|_| in_rng.gen()).collect();
        let e: Vec<bool> = (0..ne).map(|_| in_rng.gen()).collect();

        let (bits_buf, buffered) = run_circuit(&circuit, &g, &e, &cfg_with_chunk(0)).unwrap();
        prop_assert_eq!(&bits_buf, &circuit.eval(&g, &e), "buffered vs plaintext");
        for chunk in [1usize, 5, 1 << 22] {
            let (bits_str, streamed) =
                run_circuit(&circuit, &g, &e, &cfg_with_chunk(chunk)).unwrap();
            prop_assert_eq!(&bits_str, &bits_buf, "chunk {}", chunk);
            assert_equivalent(&streamed, &buffered, &format!("chunk {chunk}"));
        }
    }
}

#[test]
fn sequential_multi_cycle_streams_identically() {
    // The folded MAC over 4 clock cycles: register labels latch across
    // chunk-streamed cycles exactly as across buffered ones, and every
    // cycle's decoded value matches.
    let compiled = Arc::new(Compiled {
        circuit: folded_mac(&CompileOptions::default()),
        weight_order: Vec::new(),
        format: Format::Q3_12,
    });
    let n = 4;
    let g_bits: Vec<Vec<bool>> = (0..n)
        .map(|i| (0..17).map(|j| (i + j) % 3 == 0).collect())
        .collect();
    let e_bits: Vec<Vec<bool>> = (0..n)
        .map(|i| (0..16).map(|j| (i * j) % 2 == 1).collect())
        .collect();
    let buffered = run_compiled(
        Arc::clone(&compiled),
        g_bits.clone(),
        e_bits.clone(),
        &cfg_with_chunk(0),
    )
    .unwrap();
    assert_eq!(buffered.cycle_labels.len(), n);
    for chunk in [1usize, 64, 1 << 22] {
        let streamed = run_compiled(
            Arc::clone(&compiled),
            g_bits.clone(),
            e_bits.clone(),
            &cfg_with_chunk(chunk),
        )
        .unwrap();
        assert_equivalent(&streamed, &buffered, &format!("folded_mac chunk {chunk}"));
        if chunk == 64 {
            // 4 cycles buffered hold a full cycle each; streamed holds one
            // 64-gate chunk.
            assert!(
                streamed.peak_material_bytes < buffered.peak_material_bytes,
                "streamed peak {} must undercut buffered {}",
                streamed.peak_material_bytes,
                buffered.peak_material_bytes
            );
            assert_eq!(streamed.peak_material_bytes, 64 * 32);
        }
    }
}

#[test]
fn demo_model_streams_identically_over_tcp() {
    // The tiny_mlp zoo model over real loopback sockets, streamed in
    // 4096-gate chunks versus buffered in memory: same label, same wire,
    // peak resident material equal to exactly one chunk on both sides.
    use deepsecure::core::protocol::run_compiled_over;
    use deepsecure::ot::tcp_pair;
    use deepsecure::serve::demo;

    let model = demo::load("tiny_mlp").expect("model");
    let g_bits = vec![model.compiled.input_bits(&model.dataset.inputs[0])];
    let e_bits = vec![model.compiled.weight_bits(&model.net)];
    let buffered = run_compiled(
        Arc::clone(&model.compiled),
        g_bits.clone(),
        e_bits.clone(),
        &cfg_with_chunk(0),
    )
    .expect("buffered run");
    assert_eq!(
        buffered.peak_material_bytes, buffered.wire.tables,
        "buffered holds the whole cycle"
    );

    const CHUNK: usize = 4096;
    let (ca, cb) = tcp_pair().expect("loopback pair");
    let streamed = run_compiled_over(
        Arc::clone(&model.compiled),
        g_bits,
        e_bits,
        &cfg_with_chunk(CHUNK),
        ca,
        cb,
    )
    .expect("streamed run");
    assert_equivalent(&streamed, &buffered, "tiny_mlp tcp chunk 4096");
    assert_eq!(
        streamed.peak_material_bytes,
        (CHUNK * 32) as u64,
        "exactly one chunk resident"
    );
    assert!(streamed.peak_material_bytes * 100 < buffered.peak_material_bytes);
}
