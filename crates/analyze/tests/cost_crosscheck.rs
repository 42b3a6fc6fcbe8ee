//! The analyzer's cost predictions cross-checked against the *measured*
//! protocol: the static numbers must match what the garbler and the live
//! two-party run actually produce, bit for bit. This is what keeps
//! `deepsecure-analyze` from drifting away from the runtime it models.

use std::sync::Arc;

use deepsecure_analyze::cost::cost;
use deepsecure_analyze::json::Json;
use deepsecure_analyze::{analyze, report};
use deepsecure_circuit::{Builder, Circuit, GATE_TABLE_BYTES};
use deepsecure_core::compile::plain_label;
use deepsecure_core::protocol::{run_circuit, run_compiled, InferenceConfig};
use deepsecure_core::session::{ClientSession, GarbledMaterial, MaterialSource, ServerSession};
use deepsecure_ot::mem_pair;
use deepsecure_serve::demo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A combinational circuit with `nonfree` AND gates in a chain — wide
/// enough that a 1024-gate chunk is a real streaming window, small enough
/// for a debug-mode protocol run.
fn chain_circuit(nonfree: usize) -> Circuit {
    let mut b = Builder::new();
    let xs = b.garbler_inputs(8);
    let ys = b.evaluator_inputs(8);
    let mut acc = b.xor(xs[0], ys[0]);
    for i in 0..nonfree {
        // Every AND has a distinct `acc` operand, so the builder's CSE
        // keeps all of them and the non-free count is exactly `nonfree`.
        let t = b.and(acc, xs[i % 8]);
        acc = b.xor(t, ys[i % 8]);
    }
    b.output(acc);
    b.finish()
}

#[test]
fn prediction_matches_live_protocol_at_chunk_0_and_1024() {
    let c = chain_circuit(2500);
    let report = cost(&c);
    assert_eq!(report.non_free_gates, 2500);
    assert_eq!(report.table_bytes, 2500 * GATE_TABLE_BYTES);

    let g_bits = vec![true; 8];
    let e_bits = vec![false; 8];
    for chunk_gates in [0usize, 1024] {
        let cfg = InferenceConfig {
            chunk_gates,
            ..InferenceConfig::default()
        };
        let (_, run) = run_circuit(&c, &g_bits, &e_bits, &cfg).expect("protocol run");
        // Wire tables and the high-water mark of resident table bytes must
        // equal the static prediction exactly — buffered holds the whole
        // stream, streamed holds one 1024-gate chunk.
        assert_eq!(run.wire.tables, report.table_bytes, "chunk {chunk_gates}");
        assert_eq!(
            run.peak_material_bytes,
            report.peak_resident_table_bytes(chunk_gates),
            "chunk {chunk_gates}"
        );
    }
    assert_eq!(report.peak_resident_table_bytes(0), 2500 * 32);
    assert_eq!(report.peak_resident_table_bytes(1024), 1024 * 32);
}

#[test]
fn prediction_matches_garbler_on_small_zoo_models() {
    // `BENCH_RESULTS.json` is `circuit_lint --model all --json`; CI
    // regenerates and diffs it, this catches a stale pin locally.
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_RESULTS.json"
    ))
    .expect("reading BENCH_RESULTS.json");
    let pinned = Json::parse(&pinned).expect("parsing BENCH_RESULTS.json");
    for name in ["tiny_mlp", "tiny_cnn"] {
        let model = demo::load(name).expect("demo model");
        let c = &model.compiled.circuit;
        let fresh = report::render_json(
            &[(name.to_string(), analyze(c))],
            report::DEFAULT_CHUNK_SIZES,
        );
        let fresh = Json::parse(&fresh).expect("parsing render_json");
        let model_entry = |doc: &Json| doc.get("models").and_then(|m| m.get(name)).cloned();
        assert_eq!(
            model_entry(&pinned),
            model_entry(&fresh),
            "{name}: BENCH_RESULTS.json is stale; regenerate it with \
             `circuit_lint --model all --deny-warnings --json`"
        );

        let report = cost(c);

        // The garbler's own static count agrees...
        assert_eq!(
            report.non_free_gates,
            c.nonfree_gate_count() as u64,
            "{name}"
        );
        assert_eq!(report.non_free_gates, c.stats().non_xor, "{name}");

        // ...and so does the material it actually produces: 2 ciphertexts
        // of 16 bytes per non-free gate, for every cycle garbled.
        let mut rng = StdRng::seed_from_u64(7);
        let cycles = 2usize;
        let material = GarbledMaterial::garble(&model.compiled, cycles, &mut rng);
        assert_eq!(
            material.table_bytes(),
            report.table_bytes * cycles as u64,
            "{name}"
        );
        assert_eq!(
            material.table_bytes(),
            report.precomputed_client_resident_bytes(cycles as u64),
            "{name}"
        );
    }
}

/// Full live two-party run over the MNIST-scale model at both chunk
/// settings — minutes of work, so ignored by default; CI runs it release
/// with `-- --ignored`.
#[test]
#[ignore = "trains and runs mnist_mlp; release-mode CI job covers it"]
fn prediction_matches_live_protocol_on_mnist_mlp() {
    let model = demo::load("mnist_mlp").expect("demo model");
    let report = cost(&model.compiled.circuit);
    let g_bits = model.compiled.input_bits(&model.dataset.inputs[0]);
    let e_bits = model.compiled.weight_bits(&model.net);
    for chunk_gates in [0usize, 1024] {
        let cfg = InferenceConfig {
            chunk_gates,
            ..demo::inference_config()
        };
        let run = run_compiled(
            Arc::clone(&model.compiled),
            vec![g_bits.clone()],
            vec![e_bits.clone()],
            &cfg,
        )
        .expect("protocol run");
        assert_eq!(run.wire.tables, report.table_bytes, "chunk {chunk_gates}");
        assert_eq!(
            run.peak_material_bytes,
            report.peak_resident_table_bytes(chunk_gates),
            "chunk {chunk_gates}"
        );
    }
}

/// Three streamed live queries on one setup pair at paper scale: the
/// 246 MB wire-label arrays are sized by the first query and then carried
/// — neither party's resident bytes move again — while table memory stays
/// one 8192-gate chunk. (That the arrays are the *same allocations*, by
/// address, is asserted in-crate by `core::session`'s tests; from outside
/// only their size is visible.)
#[test]
#[ignore = "trains and runs mnist_mlp; release-mode CI job covers it"]
fn live_mnist_mlp_session_recycles_its_label_arrays() {
    const CHUNK_GATES: usize = 8192;
    const QUERIES: usize = 3;
    let model = demo::load("mnist_mlp").expect("demo model");
    let compiled = &model.compiled;
    let cfg = InferenceConfig {
        chunk_gates: CHUNK_GATES,
        ..demo::inference_config()
    };
    let label_array_bytes = 16 * compiled.circuit.wire_count() as u64;
    let chunk_bytes = 32 * CHUNK_GATES as u64;
    let (mut garbler_end, mut evaluator_end) = mem_pair();
    let epoch = std::time::Instant::now();

    let evaluator = ServerSession::new(Arc::clone(compiled), &cfg);
    let e_bits = vec![compiled.weight_bits(&model.net)];
    let peer = std::thread::spawn(move || {
        let mut setup = evaluator.setup(&mut evaluator_end).expect("setup");
        for query in 0..QUERIES {
            let out = evaluator
                .run_online(&mut evaluator_end, &mut setup, &e_bits, epoch)
                .expect("evaluator run");
            assert_eq!(out.peak_material_bytes, chunk_bytes, "query {query}");
            assert_eq!(
                setup.resident_bytes(),
                label_array_bytes + chunk_bytes,
                "query {query}"
            );
        }
    });

    let garbler = ClientSession::new(Arc::clone(compiled), &cfg);
    let mut setup = garbler.setup(&mut garbler_end, epoch).expect("setup");
    for query in 0..QUERIES {
        let input = &model.dataset.inputs[query];
        let live = MaterialSource::Live {
            n_cycles: 1,
            seed: 40 + query as u64,
        };
        let out = garbler
            .run_online(
                &mut garbler_end,
                &mut setup,
                live,
                &[compiled.input_bits(input)],
                epoch,
            )
            .expect("garbler run");
        assert_eq!(
            out.label,
            plain_label(compiled, &model.net, input),
            "query {query}"
        );
        assert_eq!(out.peak_material_bytes, chunk_bytes, "query {query}");
        assert_eq!(setup.resident_bytes(), label_array_bytes, "query {query}");
    }
    peer.join().expect("evaluator thread");
}
