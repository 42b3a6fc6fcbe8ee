//! Ablation studies for the compiler's main design choices:
//!
//! 1. **Nonlinearity realization** (Table 3's menu) on an
//!    activation-heavy network.
//! 2. **Pruning sweep** — execution time vs sparsity, showing where the
//!    Table 5 folds come from.
//! 3. **Security-parameter sweep** — label width vs communication.

use deepsecure_core::compile::CompileOptions;
use deepsecure_core::cost::{network_stats, CostModel};
use deepsecure_nn::{prune, zoo};
use deepsecure_synth::activation::Activation;

fn main() {
    let model = CostModel::default();

    println!("Ablation 1: Tanh realization on benchmark 3 (Σ = MACs + 76 activations)");
    for tanh in [
        Activation::TanhLut,
        Activation::TanhCordic,
        Activation::TanhTrunc,
        Activation::TanhPl,
    ] {
        let opts = CompileOptions {
            tanh,
            ..CompileOptions::default()
        };
        let cost = model.cost(network_stats(&zoo::benchmark3_audio_dnn(), &opts));
        println!(
            "  {:<14} {:>10.3e} non-XOR   exec {:>6.2} s",
            tanh.name(),
            cost.stats.non_xor as f64,
            cost.exec_s
        );
    }
    println!();

    println!("Ablation 2: pruning sweep on benchmark 1 (execution vs sparsity)");
    let dense = model
        .cost(network_stats(
            &zoo::benchmark1_cnn(),
            &CompileOptions::default(),
        ))
        .exec_s;
    for sparsity in [0.0, 0.5, 0.8, 0.889, 0.95, 0.99] {
        let mut net = zoo::benchmark1_cnn();
        if sparsity > 0.0 {
            prune::magnitude_prune(&mut net, sparsity);
        }
        let cost = model.cost(network_stats(&net, &CompileOptions::default()));
        println!(
            "  sparsity {:>5.1}%  exec {:>6.2} s  improvement {:>6.2}x",
            sparsity * 100.0,
            cost.exec_s,
            dense / cost.exec_s
        );
    }
    println!();

    println!("Ablation 3: GC security parameter (label bits) vs communication, benchmark 1");
    for bits in [80u32, 128, 256] {
        let m = CostModel {
            label_bits: bits,
            ..CostModel::default()
        };
        let cost = m.cost(network_stats(
            &zoo::benchmark1_cnn(),
            &CompileOptions::default(),
        ));
        println!(
            "  k = {bits:>3}  comm {:>8.1} MB  exec {:>6.2} s",
            cost.comm_bytes as f64 / 1e6,
            cost.exec_s
        );
    }
    println!("  (the paper fixes k = 128, §4.1)");
}
