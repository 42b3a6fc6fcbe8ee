//! Ablation studies for the compiler's main design choices:
//!
//! 1. **Multiplier realization** (exact floor vs truncated array) — the
//!    single biggest lever on absolute GC cost.
//! 2. **Nonlinearity realization** (Table 3's menu) on an
//!    activation-heavy network.
//! 3. **Pruning sweep** — execution time vs sparsity, showing where the
//!    Table 5 folds come from.
//! 4. **Security-parameter sweep** — label width vs communication.

use deepsecure_core::compile::{CompileOptions, Multiplier};
use deepsecure_core::cost::{mult_stats_with, network_stats, CostModel};
use deepsecure_fixed::Format;
use deepsecure_nn::{prune, zoo};
use deepsecure_synth::activation::Activation;

fn main() {
    let model = CostModel::default();
    let q = Format::Q3_12;

    println!("Ablation 1: multiplier realization (per 16-bit MULT)");
    for (name, kind) in [
        ("exact floor (bit-true)", Multiplier::Exact),
        ("truncated, guard 3", Multiplier::Truncated { guard: 3 }),
        ("truncated, guard 1", Multiplier::Truncated { guard: 1 }),
    ] {
        let stats = mult_stats_with(q, kind);
        println!(
            "  {name:<24} {:>5} non-XOR  {:>6} XOR",
            stats.non_xor, stats.xor
        );
    }
    println!("  (paper Table 3 MULT: 212 non-XOR — the truncated regime)");
    println!();

    println!("Ablation 2: Tanh realization on benchmark 3 (Σ = MACs + 76 activations)");
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

    println!("Ablation 3: pruning sweep on benchmark 1 (execution vs sparsity)");
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

    println!("Ablation 4: GC security parameter (label bits) vs communication, benchmark 1");
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
