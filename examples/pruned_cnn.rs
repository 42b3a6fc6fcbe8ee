//! Benchmark-1-style workload: a convolutional network with pruning
//! pre-processing (§3.2.2), showing the sparsity map shrinking the garbled
//! circuit without hurting accuracy.
//!
//! The network is a scaled-down version of the paper's 5C2 CNN (same layer
//! types) so the whole secure protocol runs in seconds; the full-size cost
//! accounting lives in `cargo run -p deepsecure-bench --bin table5`.
//!
//! Run with: `cargo run --release --example pruned_cnn`

use deepsecure::core::compile::{compile, CompileOptions};
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::nn::train::TrainConfig;
use deepsecure::nn::{data, prune, train, zoo};
use deepsecure::synth::activation::Activation;

fn main() {
    let set = data::digits_small(96, 21);
    let (train_set, test_set) = set.split_validation(24);
    let mut net = zoo::tiny_cnn(train_set.num_classes);
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 25,
            lr: 0.05,
            seed: 2,
        },
    );
    let dense_acc = train::accuracy(&net, &test_set);

    let opts = CompileOptions {
        tanh: Activation::TanhPl,
        sigmoid: Activation::SigmoidPlan,
        ..CompileOptions::default()
    };
    let dense_stats = compile(&net, &opts).circuit.stats();
    println!(
        "dense CNN: accuracy {:.0}%, circuit {} non-XOR gates",
        dense_acc * 100.0,
        dense_stats.non_xor
    );

    // Network pre-processing: prune 70% of the weights, re-train under the
    // mask (Han et al.), publish the sparsity map.
    let pruned_acc = prune::prune_and_retrain(
        &mut net,
        &train_set,
        &test_set,
        0.7,
        &TrainConfig {
            epochs: 25,
            lr: 0.02,
            seed: 3,
        },
    );
    let sparse_stats = compile(&net, &opts).circuit.stats();
    println!(
        "pruned CNN ({:.0}% sparsity): accuracy {:.0}%, circuit {} non-XOR gates ({:.1}x smaller)",
        prune::sparsity(&net) * 100.0,
        pruned_acc * 100.0,
        sparse_stats.non_xor,
        dense_stats.non_xor as f64 / sparse_stats.non_xor as f64
    );

    // The pruned model still runs securely.
    let cfg = InferenceConfig {
        options: opts,
        ..InferenceConfig::default()
    };
    let x = &test_set.inputs[0];
    let report = run_secure_inference(&net, x, &cfg).expect("protocol");
    println!(
        "secure inference on the pruned net: label {} (plaintext {}), {:.2} MB of tables",
        report.label,
        net.predict(x),
        report.wire.tables as f64 / 1e6
    );
}
