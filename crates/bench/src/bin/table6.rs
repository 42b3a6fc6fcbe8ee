//! Regenerates **Table 6**: per-sample communication/computation/execution
//! of DeepSecure (with and without pre-processing) versus CryptoNets on
//! benchmark 1, including the 58.96× / 527.88× headline improvements.
//!
//! DeepSecure numbers come from our cost model on the benchmark-1 CNN;
//! CryptoNets numbers are the paper's published figures.

use deepsecure_bench::{mb, row};
use deepsecure_core::compile::CompileOptions;
use deepsecure_core::cost::{cryptonets, network_stats, CostModel};
use deepsecure_nn::{prune, zoo};

fn main() {
    let opts = CompileOptions::default();
    let model = CostModel::default();

    let dense = network_stats(&zoo::benchmark1_cnn(), &opts);
    let dense_cost = model.cost(dense);

    // Pre-processed benchmark 1: the paper's 9-fold compaction.
    let mut pruned_net = zoo::benchmark1_cnn();
    prune::magnitude_prune(&mut pruned_net, 1.0 - 1.0 / 9.0);
    let pruned = network_stats(&pruned_net, &opts);
    let pruned_cost = model.cost(pruned);

    println!("Table 6: DeepSecure vs CryptoNets, benchmark 1, per sample");
    println!("(paper values in parentheses; CryptoNets rows are the paper's numbers)");
    println!();
    let widths = [28usize, 16, 12, 14, 14];
    println!(
        "{}",
        row(
            &[
                "Framework".into(),
                "Comm.".into(),
                "Comp (s)".into(),
                "Exec (s)".into(),
                "Improvement".into()
            ],
            &widths
        )
    );
    let cn_exec = cryptonets::COMPUTE_S;
    println!(
        "{}",
        row(
            &[
                "DeepSecure w/o pre-p".into(),
                format!("{} MB (791)", mb(dense_cost.comm_bytes)),
                format!("{:.2} (1.98)", dense_cost.comp_s),
                format!("{:.2} (9.67)", dense_cost.exec_s),
                format!("{:.2}x (58.96x)", cn_exec / dense_cost.exec_s),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "DeepSecure w/ pre-p".into(),
                format!("{} MB (88.2)", mb(pruned_cost.comm_bytes)),
                format!("{:.2} (0.22)", pruned_cost.comp_s),
                format!("{:.2} (1.08)", pruned_cost.exec_s),
                format!("{:.2}x (527.88x)", cn_exec / pruned_cost.exec_s),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "CryptoNets".into(),
                "74 KB".into(),
                format!("{cn_exec:.2}"),
                format!("{cn_exec:.2}"),
                "-".into()
            ],
            &widths
        )
    );
    println!();
    println!(
        "Headline: DeepSecure achieves >{:.0}-fold higher per-sample throughput without",
        (cn_exec / dense_cost.exec_s).floor()
    );
    println!(
        "pre-processing and {:.0}-fold with it (paper: 58.96x / 527.88x).",
        (cn_exec / pruned_cost.exec_s).floor()
    );
    println!();
    println!("Note: CryptoNets' 74 KB communication reflects HE's compactness —");
    println!("the trade is its 570 s batched compute and 5-10 bit precision.");
}
