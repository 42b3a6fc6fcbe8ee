//! Regenerates **Figure 6**: expected processing delay from the client's
//! point of view as a function of batch size, for DeepSecure without
//! pre-processing, DeepSecure with pre-processing, and CryptoNets.
//!
//! DeepSecure scales linearly per sample; CryptoNets pays a flat batched
//! cost per 8192 samples. The paper's marked crossovers (288 and 2590
//! samples) are reproduced from the same constants: CryptoNets' batch
//! latency is 2797 s, and 2797 / 9.67 ≈ 289, 2797 / 1.08 ≈ 2590.

use deepsecure_core::compile::CompileOptions;
use deepsecure_core::cost::{cryptonets, network_stats, CostModel};
use deepsecure_nn::{prune, zoo};

fn main() {
    let opts = CompileOptions::default();
    let model = CostModel::default();
    let dense = model.cost(network_stats(&zoo::benchmark1_cnn(), &opts));
    let mut pruned_net = zoo::benchmark1_cnn();
    prune::magnitude_prune(&mut pruned_net, 1.0 - 1.0 / 9.0);
    let pruned = model.cost(network_stats(&pruned_net, &opts));

    println!("Figure 6: expected processing delay vs number of samples (log-log)");
    println!(
        "per-sample exec: w/o pre-p {:.2} s (paper 9.67), w/ pre-p {:.2} s (paper 1.08)",
        dense.exec_s, pruned.exec_s
    );
    println!();
    println!(
        "{:>8}  {:>14}  {:>14}  {:>14}",
        "N", "DS w/o pre-p", "DS w/ pre-p", "CryptoNets"
    );
    let ns = [1usize, 10, 50, 100, 288, 500, 1000, 2590, 4000, 8192, 10000];
    for &n in &ns {
        println!(
            "{:>8}  {:>12.1} s  {:>12.1} s  {:>12.1} s",
            n,
            dense.exec_s * n as f64,
            pruned.exec_s * n as f64,
            cryptonets::delay(n)
        );
    }
    println!();
    let cross_dense = cryptonets::BATCH_LATENCY_S / dense.exec_s;
    let cross_pruned = cryptonets::BATCH_LATENCY_S / pruned.exec_s;
    println!(
        "crossovers: w/o pre-p at N = {:.0} (paper: 288), w/ pre-p at N = {:.0} (paper: 2590)",
        cross_dense, cross_pruned
    );
    println!(
        "CryptoNets flat until its batch capacity of {} samples.",
        cryptonets::BATCH
    );
    println!();
    println!("ASCII sketch (log-log, d = w/o pre-p, p = w/ pre-p, c = CryptoNets):");
    let rows = 16;
    let cols = 64;
    let n_of = |col: usize| 10f64.powf(col as f64 / (cols - 1) as f64 * 4.0); // 1..10^4
    let y_of = |delay: f64| {
        // map log10(delay) in [0, 5] to row
        let lg = delay.log10().clamp(0.0, 5.0);
        rows - 1 - ((lg / 5.0) * (rows - 1) as f64) as usize
    };
    let mut grid = vec![vec![' '; cols]; rows];
    #[allow(clippy::needless_range_loop)]
    for col in 0..cols {
        let n = n_of(col);
        let d = y_of(dense.exec_s * n);
        let p = y_of(pruned.exec_s * n);
        let c = y_of(cryptonets::delay(n.ceil() as usize));
        grid[c][col] = 'c';
        grid[d][col] = 'd';
        grid[p][col] = 'p';
    }
    for r in grid {
        println!("  |{}", r.into_iter().collect::<String>());
    }
    println!("  +{}", "-".repeat(cols));
    println!("   1        10        100       1000      10000   (samples, log)");
}
