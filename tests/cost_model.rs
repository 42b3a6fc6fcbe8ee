//! Cross-crate integration of the Table 2 cost model: analytic counts vs
//! compiled netlists vs measured protocol bytes, and the Figure 6
//! crossover structure.

use deepsecure::core::compile::{compile, CompileOptions};
use deepsecure::core::cost::{cryptonets, network_stats, CostModel};
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::nn::{data, prune, zoo};
use deepsecure::synth::activation::Activation;

fn fast_opts() -> CompileOptions {
    CompileOptions {
        tanh: Activation::TanhPl,
        sigmoid: Activation::SigmoidPlan,
        ..CompileOptions::default()
    }
}

#[test]
fn analytic_count_tracks_compiled_count() {
    for net in [zoo::tiny_mlp(4), zoo::tiny_cnn(4)] {
        let analytic = network_stats(&net, &fast_opts());
        let compiled = compile(&net, &fast_opts()).circuit.stats();
        let ratio = analytic.non_xor as f64 / compiled.non_xor as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "analytic {} vs compiled {} ({ratio})",
            analytic.non_xor,
            compiled.non_xor
        );
    }
}

#[test]
fn measured_tables_equal_alpha_formula() {
    // Table 2: α = N_nonXOR × 2 × 128 bits — verified against real
    // protocol bytes.
    let set = data::digits_small(4, 55);
    let net = zoo::tiny_mlp(set.num_classes);
    let cfg = InferenceConfig {
        options: fast_opts(),
        ..InferenceConfig::default()
    };
    let compiled = compile(&net, &cfg.options);
    let report = run_secure_inference(&net, &set.inputs[0], &cfg).expect("protocol");
    assert_eq!(
        report.wire.tables,
        compiled.circuit.stats().non_xor * 2 * 128 / 8
    );
}

#[test]
fn benchmark_cost_ordering_matches_paper() {
    // Table 4's ordering: B4 >> B2 > B1 > B3 in every cost column.
    let opts = CompileOptions::default();
    let model = CostModel::default();
    let costs: Vec<f64> = [
        zoo::benchmark1_cnn(),
        zoo::benchmark2_lenet300(),
        zoo::benchmark3_audio_dnn(),
        zoo::benchmark4_sensing_dnn(),
    ]
    .iter()
    .map(|net| model.cost(network_stats(net, &opts)).exec_s)
    .collect();
    assert!(costs[3] > costs[1], "B4 > B2");
    assert!(costs[1] > costs[0], "B2 > B1");
    assert!(costs[0] > costs[2], "B1 > B3");
    // B4 is two to three orders above B3, as in the paper.
    assert!(
        costs[3] / costs[2] > 100.0,
        "B4/B3 = {}",
        costs[3] / costs[2]
    );
}

#[test]
fn pruning_improves_execution_by_roughly_the_fold() {
    let opts = CompileOptions::default();
    let model = CostModel::default();
    let dense = model.cost(network_stats(&zoo::benchmark1_cnn(), &opts));
    let mut net = zoo::benchmark1_cnn();
    prune::magnitude_prune(&mut net, 1.0 - 1.0 / 9.0);
    let pruned = model.cost(network_stats(&net, &opts));
    let improvement = dense.exec_s / pruned.exec_s;
    assert!(
        (5.0..12.0).contains(&improvement),
        "9-fold pruning gave {improvement}x"
    );
}

#[test]
fn figure6_crossover_structure() {
    let opts = CompileOptions::default();
    let model = CostModel::default();
    let dense = model.cost(network_stats(&zoo::benchmark1_cnn(), &opts));
    let mut net = zoo::benchmark1_cnn();
    prune::magnitude_prune(&mut net, 1.0 - 1.0 / 9.0);
    let pruned = model.cost(network_stats(&net, &opts));

    let cross_dense = cryptonets::BATCH_LATENCY_S / dense.exec_s;
    let cross_pruned = cryptonets::BATCH_LATENCY_S / pruned.exec_s;
    // The paper's figure marks 288 and 2590; our constructions land in the
    // same decade with the same ordering.
    assert!(
        (50.0..2000.0).contains(&cross_dense),
        "dense crossover {cross_dense}"
    );
    assert!(
        (500.0..20000.0).contains(&cross_pruned),
        "pruned crossover {cross_pruned}"
    );
    assert!(
        cross_pruned > cross_dense * 3.0,
        "pre-processing extends the win region"
    );
    // Below the crossover DeepSecure wins; above it CryptoNets wins.
    let n_small = (cross_dense * 0.5) as usize;
    let n_large = cryptonets::BATCH;
    assert!(dense.exec_s * n_small as f64 * 0.99 < cryptonets::delay(n_small));
    assert!(dense.exec_s * n_large as f64 > cryptonets::delay(n_large));
}
