//! Deterministic demo models shared by every multi-process binary.
//!
//! Both endpoints of a session derive the same trained network from the
//! same synthetic dataset and training seed — standing in for a model the
//! parties pre-shared out of band. The compiled circuit's shape is hashed
//! into a fingerprint so two processes that drifted (different `--model`,
//! different code version) fail the handshake before any labels move.

use std::sync::Arc;

use deepsecure_core::compile::{compile, CompileOptions, Compiled};
use deepsecure_core::preprocess::preprocess_compiled;
use deepsecure_core::protocol::InferenceConfig;
use deepsecure_nn::train::TrainConfig;
use deepsecure_nn::{data, prune, train, zoo, Network};
use deepsecure_synth::activation::Activation;

/// The zoo models every binary can serve. `mnist_mlp` is the paper-scale
/// one: ≈225 MB of garbled tables per inference, the workload that makes
/// the streaming pipeline's O(chunk) memory visible (building it trains
/// and compiles for ~a minute — the small models stay the default).
/// `mnist_mlp_c` is its compressed twin: the same architecture
/// magnitude-pruned to 90 % sparsity with masked re-training (§3.2.2),
/// compiled at the [`CompileOptions::compressed`] operating point and run
/// through circuit pre-processing — the paper's own lever for beating the
/// WAN bandwidth floor with fewer table bytes.
pub const MODEL_NAMES: &[&str] = &["tiny_mlp", "tiny_cnn", "mnist_mlp", "mnist_mlp_c"];

/// One deterministic demo model: network, dataset, compiled circuit and
/// its shape fingerprint.
#[derive(Debug)]
pub struct DemoModel {
    /// Zoo name (`tiny_mlp`, `tiny_cnn`).
    pub name: String,
    /// The trained network (weights identical in every process).
    pub net: Network,
    /// The synthetic dataset the inputs come from.
    pub dataset: data::Dataset,
    /// The compiled argmax circuit.
    pub compiled: Arc<Compiled>,
    /// Order-sensitive hash of the circuit's shape.
    pub fingerprint: u64,
}

/// The compile options every demo binary must agree on; the fingerprint
/// handshake catches accidental drift. Compressed models swap in
/// [`model_options`]'s cheaper realizations — still deterministic, still
/// pinned by the fingerprint.
pub fn inference_config() -> InferenceConfig {
    InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        ..InferenceConfig::default()
    }
}

/// The deterministic compression recipe of a compressed zoo model: prune
/// to `sparsity` with masked re-training, holding out the last `holdout`
/// dataset samples for the accuracy budget.
#[derive(Clone, Copy, Debug)]
pub struct Compression {
    /// Target magnitude-pruning sparsity (fraction of weights removed).
    pub sparsity: f64,
    /// Samples split off the end of the dataset as the held-out set.
    pub holdout: usize,
    /// Masked re-training schedule after pruning.
    pub retrain: TrainConfig,
}

/// The compression recipe of a model name, or `None` for dense models.
pub fn compression(name: &str) -> Option<Compression> {
    match name {
        "mnist_mlp_c" => Some(Compression {
            sparsity: 0.9,
            holdout: 24,
            retrain: TrainConfig {
                epochs: 10,
                lr: 0.05,
                seed: 12,
            },
        }),
        _ => None,
    }
}

/// Compile options of a model name: dense models share
/// [`inference_config`]'s realizations; compressed models use the
/// table-byte-minimal [`CompileOptions::compressed`] point (lerp-style
/// nonlinearities + truncated multiplier).
pub fn model_options(name: &str) -> CompileOptions {
    if compression(name).is_some() {
        CompileOptions::compressed()
    } else {
        inference_config().options
    }
}

/// The untrained network, dataset, and training recipe of a model name —
/// cheap (no training, no compilation).
fn spec(name: &str) -> Result<(Network, data::Dataset, TrainConfig), String> {
    match name {
        "tiny_mlp" => {
            let set = data::digits_small(32, 31);
            let net = zoo::tiny_mlp(set.num_classes);
            Ok((
                net,
                set,
                TrainConfig {
                    epochs: 20,
                    lr: 0.1,
                    seed: 5,
                },
            ))
        }
        "tiny_cnn" => {
            let set = data::digits_small(24, 22);
            let net = zoo::tiny_cnn(set.num_classes);
            Ok((
                net,
                set,
                TrainConfig {
                    epochs: 15,
                    lr: 0.05,
                    seed: 2,
                },
            ))
        }
        "mnist_mlp" => {
            // MNIST-shaped 28×28 digits; few samples and epochs keep the
            // deterministic training a small fraction of the (dominant)
            // circuit-compilation cost.
            let set = data::digits(20, 41);
            let net = zoo::mnist_mlp(set.num_classes);
            Ok((
                net,
                set,
                TrainConfig {
                    epochs: 6,
                    lr: 0.1,
                    seed: 11,
                },
            ))
        }
        "mnist_mlp_c" => {
            // The compressed twin: same architecture and data generator as
            // mnist_mlp, but with enough samples to carve out a held-out
            // split the accuracy budget is judged on (the last
            // `Compression::holdout` samples never see training).
            let set = data::digits(96, 41);
            let net = zoo::mnist_mlp(set.num_classes);
            Ok((
                net,
                set,
                TrainConfig {
                    epochs: 6,
                    lr: 0.1,
                    seed: 11,
                },
            ))
        }
        other => Err(format!(
            "unknown model {other:?} (known: {})",
            MODEL_NAMES.join(", ")
        )),
    }
}

/// Builds (trains + compiles) the named demo model.
///
/// Compressed models run the full §3.2 pipeline: train dense on the
/// non-held-out split, magnitude-prune + masked re-train to the recipe's
/// sparsity, compile at the compressed operating point (sparsity-aware
/// matvec skips every pruned multiply at synth time), then apply circuit
/// pre-processing before anything is garbled. Every step is seeded, so
/// two processes derive bit-identical compressed models and the
/// fingerprint handshake passes unchanged.
///
/// # Errors
///
/// Returns a message listing the known names when `name` is unknown.
pub fn load(name: &str) -> Result<DemoModel, String> {
    let (mut net, dataset, train_cfg) = spec(name)?;
    let compiled = match compression(name) {
        None => {
            train::train(&mut net, &dataset, &train_cfg);
            compile(&net, &model_options(name))
        }
        Some(comp) => {
            let (train_set, held_out) = dataset.clone().split_validation(comp.holdout);
            train::train(&mut net, &train_set, &train_cfg);
            prune::prune_and_retrain(
                &mut net,
                &train_set,
                &held_out,
                comp.sparsity,
                &comp.retrain,
            );
            let (compiled, _) = preprocess_compiled(compile(&net, &model_options(name)));
            compiled
        }
    };
    let compiled = Arc::new(compiled);
    let fingerprint = circuit_fingerprint(&compiled);
    Ok(DemoModel {
        name: name.to_string(),
        net,
        dataset,
        compiled,
        fingerprint,
    })
}

/// Held-out accuracies behind the CI accuracy budget: the compressed
/// model's recipe applied next to a dense twin trained identically on the
/// same split, both scored on the samples neither ever trained on.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyBudget {
    /// Dense baseline accuracy on the held-out split.
    pub dense: f64,
    /// Compressed (pruned + re-trained) accuracy on the same split.
    pub compressed: f64,
    /// Achieved weight sparsity of the compressed network.
    pub sparsity: f64,
}

/// Measures the held-out accuracy of a compressed model against its dense
/// baseline — cheap (training only; nothing is compiled).
///
/// # Errors
///
/// Returns a message when `name` is unknown or not a compressed model.
pub fn compressed_accuracy(name: &str) -> Result<AccuracyBudget, String> {
    let comp = compression(name).ok_or_else(|| format!("{name} is not a compressed model"))?;
    let (mut net, dataset, train_cfg) = spec(name)?;
    let (train_set, held_out) = dataset.split_validation(comp.holdout);
    train::train(&mut net, &train_set, &train_cfg);
    let dense = train::accuracy(&net, &held_out);
    let compressed = prune::prune_and_retrain(
        &mut net,
        &train_set,
        &held_out,
        comp.sparsity,
        &comp.retrain,
    );
    Ok(AccuracyBudget {
        dense,
        compressed,
        sparsity: prune::sparsity(&net),
    })
}

/// Order-sensitive FNV-1a over the circuit's shape: enough to catch two
/// processes compiling different circuits before any labels move.
pub fn circuit_fingerprint(compiled: &Compiled) -> u64 {
    let c = &compiled.circuit;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        c.garbler_inputs().len() as u64,
        c.evaluator_inputs().len() as u64,
        c.outputs().len() as u64,
        c.registers().len() as u64,
        c.nonfree_gate_count() as u64,
        compiled.weight_order.len() as u64,
    ] {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_model_lists_the_zoo() {
        let err = load("resnet151").unwrap_err();
        assert!(err.contains("tiny_mlp"), "{err}");
        assert!(err.contains("tiny_cnn"), "{err}");
    }

    #[test]
    fn compressed_model_is_deterministic_and_sparse() {
        let a = load("mnist_mlp_c").unwrap();
        assert!(
            prune::sparsity(&a.net) >= 0.85,
            "sparsity {}",
            prune::sparsity(&a.net)
        );
        // The whole point: well under the dense mnist_mlp's 7_020_901
        // non-free gates (224_668_832 table bytes, BENCH_RESULTS.json) —
        // the ≥40 % acceptance bar with a wide margin.
        let nonfree = a.compiled.circuit.nonfree_gate_count();
        assert!(
            nonfree <= 7_020_901 * 6 / 10,
            "compressed mnist_mlp has {nonfree} non-free gates"
        );
        // Both serving processes must derive bit-identical compressed
        // models: same fingerprint, same weight stream.
        let b = load("mnist_mlp_c").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.compiled.weight_bits(&a.net),
            b.compiled.weight_bits(&b.net)
        );
    }

    #[test]
    #[ignore = "CI accuracy budget (slow-ish training): cargo test --release -- --ignored"]
    fn compressed_accuracy_within_one_percent_of_dense() {
        let budget = compressed_accuracy("mnist_mlp_c").unwrap();
        assert!(
            budget.sparsity >= 0.85,
            "achieved sparsity {}",
            budget.sparsity
        );
        assert!(
            budget.compressed >= budget.dense - 0.01,
            "compressed held-out accuracy {} fell more than 1% below dense {}",
            budget.compressed,
            budget.dense
        );
    }

    #[test]
    fn fingerprint_is_shape_sensitive() {
        // Two different zoo models must never collide (they differ in
        // every shape field).
        let a = load("tiny_mlp").unwrap();
        // Loading twice is deterministic.
        let b = load("tiny_mlp").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.compiled.weight_bits(&a.net),
            b.compiled.weight_bits(&b.net),
            "training must be deterministic across loads"
        );
    }
}
