//! Benchmark-3-style workload: streaming audio-feature classification with
//! the data-projection pre-processing of Algorithm 1/2.
//!
//! The server fits a dictionary on its (synthetic, low-rank) training
//! corpus, re-trains the DNN on the embedding, and releases the projection
//! basis; each streamed client sample is then projected locally
//! (one matrix-vector product, Algorithm 2) before entering the — much
//! smaller — garbled circuit.
//!
//! Run with: `cargo run --release --example streaming_audio`

use deepsecure::core::compile::CompileOptions;
use deepsecure::core::cost::{network_stats, CostModel};
use deepsecure::core::preprocess::{embedding_classifier, fit_projection, ProjectionConfig};
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::nn::train::TrainConfig;
use deepsecure::nn::{data, zoo, Tensor};
use deepsecure::synth::activation::Activation;

fn main() {
    // Server-side corpus: 617-dim audio-like features, 26 classes.
    let corpus = data::audio(260, 11);
    let (train_set, val) = corpus.split_validation(52);

    // Off-line step 1 (server): Algorithm 1.
    let cfg = ProjectionConfig {
        gamma: 0.3,
        batch: 52,
        patience: 500,
        max_dim: Some(64),
        retrain: TrainConfig {
            epochs: 3,
            lr: 0.05,
            seed: 4,
        },
    };
    let outcome = fit_projection(
        &train_set,
        &val,
        |l| embedding_classifier(l, 24, 26, 5),
        &cfg,
    );
    println!(
        "projection: 617 -> {} dims ({:.1}-fold), validation error {:.2}",
        outcome.model.dim_out(),
        outcome.model.fold(),
        outcome.final_error
    );

    // GC cost before/after (Table 2 model).
    let opts = CompileOptions {
        tanh: Activation::TanhPl,
        sigmoid: Activation::SigmoidPlan,
        ..CompileOptions::default()
    };
    let model = CostModel::default();
    let before = model.cost(network_stats(
        &zoo::benchmark3_audio_dnn(),
        &CompileOptions::default(),
    ));
    let after = model.cost(network_stats(&outcome.net, &CompileOptions::default()));
    println!(
        "modeled exec: {:.2} s -> {:.2} s per sample ({:.1}x improvement)",
        before.exec_s,
        after.exec_s,
        before.exec_s / after.exec_s
    );

    // On-line: stream three client samples through Algorithm 2 + GC.
    let proto_cfg = InferenceConfig {
        options: opts,
        ..InferenceConfig::default()
    };
    for (i, (x, &label)) in val.inputs.iter().zip(&val.labels).take(3).enumerate() {
        // Client-side Algorithm 2: y = Uᵀx.
        let raw: Vec<f64> = x.data().iter().map(|&v| f64::from(v)).collect();
        let embedded: Vec<f32> = outcome
            .model
            .project(&raw)
            .iter()
            .map(|&v| v as f32)
            .collect();
        let y = Tensor::from_flat(embedded);
        let report = run_secure_inference(&outcome.net, &y, &proto_cfg).expect("protocol");
        println!(
            "sample {i}: secure label {:>2} | plaintext {:>2} | true {:>2} | {:.2} MB tables",
            report.label,
            outcome.net.predict(&y),
            label,
            report.wire.tables as f64 / 1e6
        );
    }
    println!();
    println!("streaming wins: each sample is processed immediately (no batching),");
    println!("which is Figure 6's regime where DeepSecure beats CryptoNets.");
}
