//! Netlist round-trip for *compressed* circuits: a pruned network
//! compiled with the served models' options and run through circuit
//! pre-processing must survive `netlist::serialize` → `parse_raw` exactly,
//! and the re-imported circuit must analyze clean (no DS-E*, no DS-W*) —
//! the same path `circuit_lint --netlist` walks in CI.

use deepsecure_analyze::analyze;
use deepsecure_circuit::netlist;
use deepsecure_core::compile::compile;
use deepsecure_core::preprocess::preprocess_compiled;
use deepsecure_nn::{prune, zoo};
use deepsecure_serve::demo;

#[test]
fn compressed_circuit_roundtrips_and_lints_clean() {
    // No training needed: the seeded random init is deterministic and the
    // sparsity map is all magnitude pruning cares about here.
    let mut net = zoo::tiny_mlp(4);
    prune::magnitude_prune(&mut net, 0.9);
    assert!(prune::sparsity(&net) >= 0.85);
    let (compiled, _) = preprocess_compiled(compile(&net, &demo::inference_config().options));
    let circuit = &compiled.circuit;

    // The sparsity-aware matvec must have dropped the pruned multiplies:
    // well under the dense tiny_mlp's 436_163 non-free gates.
    let stats = circuit.stats();
    assert!(
        stats.non_xor < 300_000,
        "compressed tiny_mlp still has {} non-free gates",
        stats.non_xor
    );

    let text = netlist::serialize(circuit);
    let parsed = netlist::parse_raw(&text).expect("serialized compressed circuit parses");
    assert_eq!(parsed.wire_count(), circuit.wire_count());
    assert_eq!(parsed.garbler_inputs(), circuit.garbler_inputs());
    assert_eq!(parsed.evaluator_inputs(), circuit.evaluator_inputs());
    assert_eq!(parsed.outputs(), circuit.outputs());
    assert_eq!(parsed.gates(), circuit.gates());
    assert_eq!(parsed.stats(), stats);
    // Byte-exact re-serialization — the round trip is lossless.
    assert_eq!(netlist::serialize(&parsed), text);

    // The `circuit_lint --netlist` path: re-imported compressed circuits
    // must be clean even with warnings denied (zero DS-W01 dead gates /
    // DS-W03 duplicates survive pre-processing).
    let analysis = analyze(&parsed);
    assert!(
        analysis.is_clean(),
        "diagnostics: {:?}",
        analysis.diagnostics
    );
    assert_eq!(analysis.error_count(), 0);
    assert_eq!(analysis.warning_count(), 0);
    let cost = analysis.cost.expect("clean circuit has a cost report");
    assert_eq!(cost.non_free_gates, stats.non_xor);
    assert_eq!(cost.table_bytes, 32 * stats.non_xor);
}
