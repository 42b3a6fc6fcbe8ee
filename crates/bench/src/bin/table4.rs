//! Regenerates **Table 4**: gate counts, communication, computation and
//! execution time for benchmarks 1–4 *without* pre-processing.
//!
//! Counts come from the analytic Table-2 sum over our synthesized
//! components; times from the cost model at the paper's operating point
//! (3.4 GHz, 62/164 clk/gate, and the 102.8 MB/s effective link that the
//! paper's own rows imply: comm / (execution − comp)). A last line
//! measures this host's β coefficients with [`calibrate`] and prints them
//! in clocks per gate beside the paper's 62 / 164.

use deepsecure_bench::{mb, row, sci};
use deepsecure_core::compile::CompileOptions;
use deepsecure_core::cost::{calibrate, network_stats, CostModel};
use deepsecure_nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The host's nominal clock in GHz, from the CPU model string ("… @
/// 2.10GHz"); `None` where the model does not state one.
fn nominal_ghz() -> Option<f64> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let model = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    model
        .rsplit('@')
        .next()?
        .trim()
        .strip_suffix("GHz")?
        .parse()
        .ok()
}

fn main() {
    let opts = CompileOptions::default(); // CORDIC nonlinearities, as §4.5
    let model = CostModel::default();
    println!("Table 4: benchmarks without pre-processing (paper values in parentheses)");
    println!();
    let widths = [12usize, 46, 12, 12, 14, 12, 12];
    println!(
        "{}",
        row(
            &[
                "Name".into(),
                "Architecture".into(),
                "#XOR".into(),
                "#non-XOR".into(),
                "Comm (MB)".into(),
                "Comp (s)".into(),
                "Exec (s)".into()
            ],
            &widths
        )
    );
    let benchmarks = [
        (
            "Benchmark 1",
            "28x28-5C2-ReLu-100FC-ReLu-10FC-Softmax",
            zoo::benchmark1_cnn(),
            (4.31e7, 2.47e7, 791.0, 1.98, 9.67),
        ),
        (
            "Benchmark 2",
            "28x28-300FC-Sig-100FC-Sig-10FC-Softmax",
            zoo::benchmark2_lenet300(),
            (1.09e8, 6.23e7, 1990.0, 4.99, 24.37),
        ),
        (
            "Benchmark 3",
            "617-50FC-Tanh-26FC-Softmax",
            zoo::benchmark3_audio_dnn(),
            (1.32e7, 7.54e6, 241.0, 0.60, 2.95),
        ),
        (
            "Benchmark 4",
            "5625-2000FC-Tanh-500FC-Tanh-19FC-Softmax",
            zoo::benchmark4_sensing_dnn(),
            (4.89e9, 2.81e9, 89_800.0, 224.5, 1098.3),
        ),
    ];
    for (name, arch, net, paper) in benchmarks {
        let stats = network_stats(&net, &opts);
        let cost = model.cost(stats);
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    arch.into(),
                    format!("{} ({})", sci(stats.xor as f64), sci(paper.0)),
                    format!("{} ({})", sci(stats.non_xor as f64), sci(paper.1)),
                    format!("{} ({})", mb(cost.comm_bytes), paper.2),
                    format!("{:.2} ({})", cost.comp_s, paper.3),
                    format!("{:.2} ({})", cost.exec_s, paper.4),
                ],
                &widths
            )
        );
    }
    println!();
    println!("Shape checks:");
    let s3 = network_stats(&zoo::benchmark3_audio_dnn(), &opts);
    let s4 = network_stats(&zoo::benchmark4_sensing_dnn(), &opts);
    println!(
        "  B4/B3 non-XOR ratio: {:.0}x (paper: {:.0}x) — driven by the MAC count",
        s4.non_xor as f64 / s3.non_xor as f64,
        2.81e9 / 7.54e6
    );
    let c4 = model.cost(s4);
    println!(
        "  B4 execution dominated by transfer: comm/BW = {:.0}s of {:.0}s total",
        c4.comm_bytes as f64 / model.bandwidth,
        c4.exec_s
    );
    println!();
    let (hz, clock) = match nominal_ghz() {
        Some(ghz) => (ghz * 1e9, format!("the nominal {ghz:.2} GHz")),
        None => (
            model.cpu_hz,
            format!(
                "the paper's {:.2} GHz, as /proc/cpuinfo states no nominal clock",
                model.cpu_hz / 1e9
            ),
        ),
    };
    let t = calibrate(hz, &mut StdRng::seed_from_u64(2));
    println!(
        "Calibrated gate cost: XOR {:.0} / non-XOR {:.0} clks/gate at {clock} (paper: 62 / 164)",
        t.xor_clks, t.non_xor_clks
    );
}
