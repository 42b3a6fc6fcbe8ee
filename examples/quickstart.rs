//! Quickstart: one complete DeepSecure round.
//!
//! A server trains a small MLP on synthetic digit data; a client holds one
//! sample. The two parties run Yao's protocol over in-memory channels —
//! the client garbles, the server's weights arrive through IKNP OT, the
//! server evaluates, and only the client learns the inference label.
//!
//! Run with: `cargo run --release --example quickstart`

use deepsecure::core::compile::CompileOptions;
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::nn::train::TrainConfig;
use deepsecure::nn::{data, train, zoo};
use deepsecure::synth::activation::Activation;

fn main() {
    // --- Server side: train the model (plaintext, one-time). ---
    let set = data::digits_small(64, 7);
    let (train_set, test_set) = set.split_validation(16);
    let mut net = zoo::tiny_mlp(train_set.num_classes);
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 25,
            lr: 0.1,
            seed: 1,
        },
    );
    println!(
        "server: trained a {}-parameter MLP, plaintext accuracy {:.0}%",
        net.num_params(),
        train::accuracy(&net, &test_set) * 100.0
    );

    // --- Joint: secure inference on the client's samples. ---
    let cfg = InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        ..InferenceConfig::default()
    };
    let mut agree = 0;
    let samples = 5.min(test_set.len());
    for (x, &label) in test_set.inputs.iter().zip(&test_set.labels).take(samples) {
        let report = run_secure_inference(&net, x, &cfg).expect("protocol");
        let plain = net.predict(x);
        println!(
            "client: secure label {} | plaintext label {} | true {} | {:.1} MB tables, {:.0} ms",
            report.label,
            plain,
            label,
            report.wire.tables as f64 / 1e6,
            report.total_s * 1e3
        );
        agree += usize::from(report.label == plain);
    }
    println!("secure/plaintext agreement: {agree}/{samples}");
    println!();
    println!("Neither party revealed its asset: the sample stayed on the client");
    println!("(only wire labels left it) and the weights stayed on the server");
    println!("(only OT-chosen labels arrived).");
}
