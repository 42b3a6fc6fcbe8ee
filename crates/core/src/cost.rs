//! The Table 2 cost model.
//!
//! `T_comp = (N_XOR·C_XOR + N_nonXOR·C_nonXOR) / f_CPU` and
//! `T_comm = N_nonXOR · 2 · 128 bit / BW_net`; DeepSecure "finds an
//! estimation of the physical coefficients (β and α) by running a set of
//! subroutines" (§3.1.1/§4.3) — [`calibrate`] is that subroutine here.
//!
//! Defaults reproduce the paper's operating point: 62/164 clocks per
//! XOR/non-XOR gate on a 3.4 GHz CPU, and the effective 102.8 MB/s link
//! implied by Table 4's (comm, comp, execution) triples: comm / (execution
//! − comp) ≈ 102.8 MB/s on all four benchmarks.

use std::time::Instant;

use deepsecure_circuit::{Builder, GateStats, GATE_TABLE_BYTES};
use deepsecure_fixed::Format;
use deepsecure_garble::Garbler;
use deepsecure_nn::{Layer, Network};
use deepsecure_synth::activation::Activation;
use deepsecure_synth::{arith, mul, word};
use rand::Rng;

use crate::compile::CompileOptions;

/// Per-gate cost in CPU clocks (the paper's `C_XOR` / `C_nonXOR`). The
/// default is §4.3's figure; [`calibrate`] measures garbling alone on
/// this host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateTimings {
    /// Clocks per free gate.
    pub xor_clks: f64,
    /// Clocks per half-gates gate.
    pub non_xor_clks: f64,
}

impl Default for GateTimings {
    fn default() -> GateTimings {
        // §4.3: "garbling/evaluating each non-XOR and XOR gate requires
        // 164 and 62 CPU clock cycles on average".
        GateTimings {
            xor_clks: 62.0,
            non_xor_clks: 164.0,
        }
    }
}

/// The full cost model: gate timings + platform parameters.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-gate clocks.
    pub timings: GateTimings,
    /// CPU frequency (`f_CPU`), default 3.4 GHz (i7-2600, §4.1).
    pub cpu_hz: f64,
    /// Link bandwidth in bytes/s; default calibrated from Table 4.
    pub bandwidth: f64,
    /// GC security parameter in bits (`N_bits`), default 128 (§4.1).
    pub label_bits: u32,
}

/// The effective bandwidth implied by the paper's Table 4 rows
/// (`comm / (execution − comp)` ≈ 102.8 MB/s for all four benchmarks).
pub const PAPER_BANDWIDTH_BYTES_PER_S: f64 = 102.8e6;

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            timings: GateTimings::default(),
            cpu_hz: 3.4e9,
            bandwidth: PAPER_BANDWIDTH_BYTES_PER_S,
            label_bits: 128,
        }
    }
}

/// Predicted cost of one secure inference.
#[derive(Clone, Copy, Debug)]
pub struct NetworkCost {
    /// Gate counts.
    pub stats: GateStats,
    /// Garbled-table traffic in bytes (`α`).
    pub comm_bytes: u64,
    /// Computation time in seconds (`T_comp`).
    pub comp_s: f64,
    /// End-to-end execution: `T_comp + comm/BW` (the Table 4 relation).
    pub exec_s: f64,
}

impl CostModel {
    /// Applies the Table 2 formulas to a gate count. Table bytes are
    /// [`GATE_TABLE_BYTES`] per non-XOR gate, scaled by `label_bits / 128`
    /// (two ciphertexts of one label each).
    pub fn cost(&self, stats: GateStats) -> NetworkCost {
        let comm_bytes = stats.non_xor * GATE_TABLE_BYTES * u64::from(self.label_bits) / 128;
        let comp_s = (stats.xor as f64 * self.timings.xor_clks
            + stats.non_xor as f64 * self.timings.non_xor_clks)
            / self.cpu_hz;
        NetworkCost {
            stats,
            comm_bytes,
            comp_s,
            exec_s: comp_s + comm_bytes as f64 / self.bandwidth,
        }
    }

    /// Sustained garbling throughput in gates/second under this model
    /// (compare §4.4's 2.56M non-XOR/s and 5.11M XOR/s).
    pub fn throughput_gates_per_s(&self) -> (f64, f64) {
        (
            self.cpu_hz / self.timings.non_xor_clks,
            self.cpu_hz / self.timings.xor_clks,
        )
    }
}

/// Timed repetitions of each probe in [`calibrate`]; the fastest counts.
const CALIBRATION_REPS: usize = 25;

/// Measures this host's β coefficients as the paper's §4.3 states them
/// for the garbler: it garbles two probe circuits (64 × 200 XOR gates,
/// then 64 × 200 AND gates) with `Garbler::new` + `garble_cycle`, keeps
/// the fastest of [`CALIBRATION_REPS`] runs of each (the least disturbed
/// by other work on the host), and solves for the per-gate costs. Neither
/// evaluation nor label transfer is timed. Returns clocks at `cpu_hz`;
/// the `table4` binary prints them beside the paper's 62 / 164.
pub fn calibrate<R: Rng + ?Sized>(cpu_hz: f64, rng: &mut R) -> GateTimings {
    let mut probe = |and_heavy: bool| -> (GateStats, f64) {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(64);
        let ys = b.evaluator_inputs(64);
        let mut acc: Vec<_> = xs.clone();
        for round in 0..200 {
            for i in 0..64 {
                let other = ys[(i + round) % 64];
                acc[i] = if and_heavy {
                    b.and(acc[i], other)
                } else {
                    b.xor(acc[i], other)
                };
            }
            // Keep AND chains from collapsing to constants: rotate.
            acc.rotate_left(1);
        }
        b.outputs(&acc);
        let c = b.finish();
        let mut garble = || {
            let start = Instant::now();
            std::hint::black_box(Garbler::new(&c, rng).garble_cycle(rng));
            start.elapsed().as_secs_f64()
        };
        garble(); // warm-up
        let best = (0..CALIBRATION_REPS)
            .map(|_| garble())
            .fold(f64::INFINITY, f64::min);
        (c.stats(), best)
    };
    let (s_x, t_x) = probe(false);
    let (s_a, t_a) = probe(true);
    // Solve: t = (x·cx + n·cn)/hz for the two probes.
    let (x1, n1) = (s_x.xor as f64, s_x.non_xor as f64);
    let (x2, n2) = (s_a.xor as f64, s_a.non_xor as f64);
    // The XOR probe has no non-XOR gate and the AND probe has no XOR gate,
    // so `det = x1·n2 > 0`.
    let det = x1 * n2 - x2 * n1;
    let cx = (t_x * cpu_hz * n2 - t_a * cpu_hz * n1) / det;
    let cn = (x1 * t_a * cpu_hz - x2 * t_x * cpu_hz) / det;
    GateTimings {
        xor_clks: cx.max(1.0),
        non_xor_clks: cn.max(1.0),
    }
}

/// Per-component gate statistics (Table 3 infrastructure): synthesizes one
/// instance of the component and reports its cost.
pub fn activation_stats(act: Activation, format: Format) -> GateStats {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, format.total_bits() as usize);
    let y = act.build(&mut b, &x);
    word::output_word(&mut b, &y);
    b.finish().stats()
}

/// Gate statistics of one `MULT` (exact fixed-point multiply, private
/// weight).
pub fn mult_stats(format: Format) -> GateStats {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, format.total_bits() as usize);
    let y = word::evaluator_word(&mut b, format.total_bits() as usize);
    let p = mul::mul_fixed(&mut b, &x, &y, format.frac_bits);
    word::output_word(&mut b, &p);
    b.finish().stats()
}

/// Gate statistics of one `ADD`.
pub fn add_stats(format: Format) -> GateStats {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, format.total_bits() as usize);
    let y = word::evaluator_word(&mut b, format.total_bits() as usize);
    let s = arith::add(&mut b, &x, &y);
    word::output_word(&mut b, &s);
    b.finish().stats()
}

/// Gate statistics of one signed `Max` (CMP + MUX), the pooling element.
pub fn max_stats(format: Format) -> GateStats {
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, format.total_bits() as usize);
    let y = word::evaluator_word(&mut b, format.total_bits() as usize);
    let m = arith::max_signed(&mut b, &x, &y);
    word::output_word(&mut b, &m);
    b.finish().stats()
}

/// Analytic gate count of a full network — the Table 2 sum
/// `Σ n^(l)·n^(l+1)·(mult+add) + Σ n^(l)·act` — with the sparsity map
/// shrinking the MAC term. This is how Tables 4/5 are produced for
/// networks too large to compile into an explicit netlist (benchmark 4's
/// unrolled circuit would hold billions of gates).
pub fn network_stats(net: &Network, opts: &CompileOptions) -> GateStats {
    let format = opts.format;
    let mult = mult_stats(format);
    let add = add_stats(format);
    let maxg = max_stats(format);
    let shapes = net.shapes();
    let mut total = GateStats::default();
    for (layer, shape) in net.layers.iter().zip(&shapes) {
        match layer {
            Layer::Dense(d) => {
                let macs = d.live_weights() as u64;
                total = total + (mult + add).scaled(macs);
                // bias add per output neuron
                total = total + add.scaled(d.n_out as u64);
            }
            Layer::Conv2d(c) => {
                let macs = layer.mac_count(shape) as u64;
                total = total + (mult + add).scaled(macs);
                let (oh, ow) = c.out_size(shape[1], shape[2]);
                total = total + add.scaled((c.out_ch * oh * ow) as u64);
            }
            Layer::MaxPool2d { k, stride } | Layer::MeanPool2d { k, stride } => {
                let oh = (shape[1] - k) / stride + 1;
                let ow = (shape[2] - k) / stride + 1;
                let windows = (shape[0] * oh * ow) as u64;
                let per_window = (k * k - 1) as u64;
                if matches!(layer, Layer::MaxPool2d { .. }) {
                    total = total + maxg.scaled(windows * per_window);
                } else {
                    total = total + add.scaled(windows * per_window);
                }
            }
            Layer::Activation(kind) => {
                let act = activation_stats(opts.realize(*kind), format);
                let units: u64 = shape.iter().product::<usize>() as u64;
                total = total + act.scaled(units);
            }
            Layer::Flatten => {}
        }
    }
    // Output argmax chain: (classes - 1) CMP+MUX stages plus index muxes.
    let classes = shapes.last().map_or(0, |s| s[0]) as u64;
    if classes > 1 {
        total = total + maxg.scaled(classes - 1);
    }
    total
}

/// Figure 6's CryptoNets constants. `COMPUTE_S` is Table 6's per-batch
/// computation time; `BATCH_LATENCY_S` is the end-to-end batch latency the
/// figure plots (≈ 4.9× compute; 2797/9.67 ≈ 289 and 2797/1.08 ≈ 2590
/// match the figure's marked crossovers exactly).
pub mod cryptonets {
    /// Table 6 computation time per ≤8192-sample batch.
    pub const COMPUTE_S: f64 = 570.11;
    /// Batch capacity set by the polynomial degree.
    pub const BATCH: usize = 8192;
    /// Figure 6 end-to-end batch latency.
    pub const BATCH_LATENCY_S: f64 = 2797.0;

    /// Expected client-side delay for `n` samples (step function).
    pub fn delay(n: usize) -> f64 {
        (n as f64 / BATCH as f64).ceil().max(1.0) * BATCH_LATENCY_S
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_nn::zoo;

    use super::*;

    #[test]
    fn cost_formulas() {
        let model = CostModel::default();
        let stats = GateStats {
            xor: 1_000_000,
            non_xor: 500_000,
        };
        let cost = model.cost(stats);
        assert_eq!(cost.comm_bytes, 500_000 * GATE_TABLE_BYTES);
        let expect_comp = (1_000_000.0 * 62.0 + 500_000.0 * 164.0) / 3.4e9;
        assert!((cost.comp_s - expect_comp).abs() < 1e-12);
        assert!(cost.exec_s > cost.comp_s);
    }

    #[test]
    fn default_throughput_matches_paper_order() {
        let (non_xor, xor) = CostModel::default().throughput_gates_per_s();
        // §4.4: 2.56M non-XOR/s and 5.11M XOR/s effective... our model
        // gives the per-gate upper bound (20.7M/54.8M); same order drivers.
        assert!(non_xor > 1e6);
        assert!(xor > non_xor);
    }

    #[test]
    fn component_stats_are_sane() {
        let f = Format::Q3_12;
        assert_eq!(add_stats(f).non_xor, 15);
        // The counts `table3` prints (and ROADMAP item 2 ratchets down).
        assert_eq!(mult_stats(f).non_xor, 393);
        assert_eq!(activation_stats(Activation::Relu, f).non_xor, 15);
        assert_eq!(max_stats(f).non_xor, 32);
    }

    #[test]
    fn analytic_matches_compiled_on_small_net() {
        let net = zoo::tiny_mlp(4);
        let opts = CompileOptions::default();
        let analytic = network_stats(&net, &opts);
        let compiled = crate::compile::compile(&net, &opts).circuit.stats();
        let ratio = analytic.non_xor as f64 / compiled.non_xor as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "analytic {} vs compiled {} (ratio {ratio})",
            analytic.non_xor,
            compiled.non_xor
        );
    }

    #[test]
    fn benchmark4_scale_matches_paper_order() {
        // Table 4 reports 2.81E9 non-XOR for benchmark 4; our constructions
        // land within a small factor.
        let net = zoo::benchmark4_sensing_dnn();
        let stats = network_stats(&net, &CompileOptions::default());
        assert!(
            stats.non_xor > 1.0e9 as u64 && stats.non_xor < 2.0e10 as u64,
            "benchmark 4 non-XOR = {:.3e}",
            stats.non_xor as f64
        );
    }

    #[test]
    fn cryptonets_delay_steps() {
        assert_eq!(cryptonets::delay(1), cryptonets::BATCH_LATENCY_S);
        assert_eq!(cryptonets::delay(8192), cryptonets::BATCH_LATENCY_S);
        assert_eq!(cryptonets::delay(8193), 2.0 * cryptonets::BATCH_LATENCY_S);
    }

    #[test]
    fn calibration_produces_positive_costs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = calibrate(3.4e9, &mut rng);
        assert!(t.xor_clks > 0.0);
        assert!(t.non_xor_clks > t.xor_clks, "{t:?}");
    }
}
