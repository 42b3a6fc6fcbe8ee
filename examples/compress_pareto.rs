//! Pareto sweep behind the README's "Compressed inference" section.
//!
//! Two arms:
//!
//! * **Sparsity sweep** — the `mnist_mlp_c` recipe (same data, seeds and
//!   held-out split as `demo::load`) at sparsity 0 / 0.5 / 0.8 / 0.9,
//!   every point compiled with `demo::inference_config`'s options and
//!   run through circuit pre-processing, then *measured* end-to-end over
//!   the simulated 40 Mbps / 40 ms WAN (streamed, chunk 8192 — the same
//!   configuration as the 3.1 s dense tiny_mlp figure the README quotes).
//! * **Activation menu** — a small 64-16FC-Tanh-`classes`FC network
//!   compiled against each Tanh realization from the paper's Table 3
//!   menu, showing the LUT ⇄ piecewise-linear table-byte trade the
//!   served models exploit.
//!
//! Run with: `cargo run --release --example compress_pareto`
//! (the dense mnist_mlp point compiles for ~a minute and its WAN run
//! sleeps through ~33 s of modelled transfer; the compressed points are
//! proportionally faster — that contrast is the result).

use std::sync::Arc;

use deepsecure::core::compile::{compile, plain_label, CompileOptions};
use deepsecure::core::preprocess::preprocess_compiled;
use deepsecure::core::protocol::{run_compiled_over, InferenceConfig, InferenceReport};
use deepsecure::nn::train::TrainConfig;
use deepsecure::nn::{data, prune, train, zoo, ActKind, Dense, Layer, Network};
use deepsecure::ot::{mem_pair, NetModel, SimChannel};
use deepsecure::serve::demo;
use deepsecure::synth::activation::Activation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured point of the sparsity sweep.
struct ParetoPoint {
    label: &'static str,
    sparsity: f64,
    holdout_accuracy: f64,
    non_free_gates: u64,
    table_bytes: u64,
    sim_wan_s: f64,
}

fn main() {
    let points = sparsity_sweep();
    println!("\n== mnist_mlp compression Pareto (sim WAN 40 Mbps / 40 ms, streamed chunk 8192) ==");
    println!("| point | sparsity | held-out acc | non-free gates | table bytes | sim-WAN e2e s |");
    println!("|---|---|---|---|---|---|");
    for p in &points {
        println!(
            "| {} | {:.0}% | {:.1}% | {} | {} | {:.2} |",
            p.label,
            p.sparsity * 100.0,
            p.holdout_accuracy * 100.0,
            p.non_free_gates,
            p.table_bytes,
            p.sim_wan_s
        );
    }
    let dense = &points[0];
    let best = points.last().expect("sweep is non-empty");
    println!(
        "compressed vs dense: {:.1}% fewer table bytes, accuracy {:+.1} pt, {:.1}x faster over the WAN",
        100.0 * (1.0 - best.table_bytes as f64 / dense.table_bytes as f64),
        100.0 * (best.holdout_accuracy - dense.holdout_accuracy),
        dense.sim_wan_s / best.sim_wan_s
    );

    activation_menu();
}

/// The `mnist_mlp_c` recipe at several sparsities, each measured over the
/// simulated WAN.
fn sparsity_sweep() -> Vec<ParetoPoint> {
    let mut points = Vec::new();
    for (label, sparsity) in [
        ("dense (zoo mnist_mlp)", 0.0),
        ("pruned 50%", 0.5),
        ("pruned 80%", 0.8),
        ("pruned 90% (zoo mnist_mlp_c)", 0.9),
    ] {
        // Same dataset, seeds and held-out split as demo::load("mnist_mlp_c").
        let set = data::digits(96, 41);
        let (train_set, held_out) = set.split_validation(24);
        let mut net = zoo::mnist_mlp(train_set.num_classes);
        train::train(
            &mut net,
            &train_set,
            &TrainConfig {
                epochs: 6,
                lr: 0.1,
                seed: 11,
            },
        );
        let accuracy = if sparsity == 0.0 {
            train::accuracy(&net, &held_out)
        } else {
            prune::prune_and_retrain(
                &mut net,
                &train_set,
                &held_out,
                sparsity,
                &TrainConfig {
                    epochs: 10,
                    lr: 0.05,
                    seed: 12,
                },
            )
        };
        eprintln!("compress_pareto: compiling {label}...");
        let (compiled, prep) =
            preprocess_compiled(compile(&net, &demo::inference_config().options));
        if prep.table_bytes_saved() > 0 {
            eprintln!(
                "compress_pareto: pre-processing removed {} gates ({} table B)",
                prep.gates_before - prep.gates_after,
                prep.table_bytes_saved()
            );
        }
        let stats = compiled.circuit.stats();
        eprintln!(
            "compress_pareto: running {label} over the simulated WAN ({} table B)...",
            compiled.circuit.table_bytes()
        );
        let expected = plain_label(&compiled, &net, &held_out.inputs[0]);
        let report = wan_inference(&net, &held_out.inputs[0], compiled);
        assert_eq!(
            report.label, expected,
            "{label}: secure label must match the fixed-point plaintext oracle"
        );
        points.push(ParetoPoint {
            label,
            sparsity: prune::sparsity(&net),
            holdout_accuracy: accuracy,
            non_free_gates: stats.non_xor,
            table_bytes: report.wire.tables,
            sim_wan_s: report.total_s,
        });
    }
    points
}

/// Runs one streamed secure inference over the simulated WAN.
fn wan_inference(
    net: &Network,
    sample: &deepsecure::nn::Tensor,
    compiled: deepsecure::core::compile::Compiled,
) -> InferenceReport {
    let cfg = InferenceConfig {
        chunk_gates: 8192,
        ..demo::inference_config()
    };
    let compiled = Arc::new(compiled);
    let input_bits = compiled.input_bits(sample);
    let weight_bits = compiled.weight_bits(net);
    let (cc, cs) = mem_pair();
    run_compiled_over(
        compiled,
        vec![input_bits],
        vec![weight_bits],
        &cfg,
        SimChannel::new(cc, NetModel::wan()),
        SimChannel::new(cs, NetModel::wan()),
    )
    .expect("protocol")
}

/// Compiles a small Tanh MLP against each realization from the paper's
/// Table 3 menu and prints the table-byte cost of each.
fn activation_menu() {
    let set = data::digits_small(96, 21);
    let (train_set, held_out) = set.split_validation(24);
    let mut rng = StdRng::seed_from_u64(0x7a9);
    let mut net = Network::new(
        vec![1, 8, 8],
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(64, 16, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(16, train_set.num_classes, &mut rng)),
        ],
    );
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 20,
            lr: 0.1,
            seed: 5,
        },
    );
    println!(
        "\n== Tanh realization menu (64-16FC-Tanh-{}FC, held-out acc {:.1}%) ==",
        train_set.num_classes,
        train::accuracy(&net, &held_out) * 100.0
    );
    println!("| realization | non-free gates | table bytes |");
    println!("|---|---|---|");
    for tanh in [
        Activation::TanhLut,
        Activation::TanhTrunc,
        Activation::TanhCordic,
        Activation::TanhPl,
    ] {
        let options = CompileOptions {
            tanh,
            ..CompileOptions::default()
        };
        let circuit = compile(&net, &options).circuit;
        println!(
            "| {} | {} | {} |",
            tanh.name(),
            circuit.stats().non_xor,
            circuit.table_bytes()
        );
    }
}
