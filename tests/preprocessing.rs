//! Cross-crate integration: the pre-processing pipelines end to end —
//! Algorithm 1/2 projection plus pruning — and their effect on the
//! compiled circuit.

use deepsecure::core::compile::{compile, CompileOptions};
use deepsecure::core::cost::network_stats;
use deepsecure::core::preprocess::{
    embedding_classifier, fit_projection, preprocess_network, ProjectionConfig,
};
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::linalg::Matrix;
use deepsecure::nn::train::{self, TrainConfig};
use deepsecure::nn::{data, zoo, Tensor};
use deepsecure::synth::activation::Activation;

fn fast_opts() -> CompileOptions {
    CompileOptions {
        tanh: Activation::TanhPl,
        sigmoid: Activation::SigmoidPlan,
        ..CompileOptions::default()
    }
}

#[test]
fn projection_plus_secure_inference() {
    // Low-rank corpus; project, re-train, and run the projected model
    // through the full protocol.
    let set = data::low_rank(160, 96, 4, 10, 77);
    let (train_set, val) = set.split_validation(32);
    let cfg = ProjectionConfig {
        gamma: 0.3,
        batch: 32,
        patience: 500,
        max_dim: Some(20),
        retrain: TrainConfig {
            epochs: 4,
            lr: 0.1,
            seed: 1,
        },
    };
    let out = fit_projection(
        &train_set,
        &val,
        |l| embedding_classifier(l, 10, 4, 2),
        &cfg,
    );
    assert!(out.model.fold() >= 4.0, "fold {}", out.model.fold());
    assert!(out.final_error < 0.4, "error {}", out.final_error);

    // Client side: Algorithm 2 then GC.
    let raw: Vec<f64> = val.inputs[0].data().iter().map(|&v| f64::from(v)).collect();
    let y = Tensor::from_flat(out.model.project(&raw).iter().map(|&v| v as f32).collect());
    let proto = InferenceConfig {
        options: fast_opts(),
        ..InferenceConfig::default()
    };
    let report = run_secure_inference(&out.net, &y, &proto).expect("protocol");
    assert_eq!(report.label, out.net.predict(&y));
}

#[test]
fn projection_shrinks_circuit_by_the_fold() {
    let set = data::low_rank(120, 128, 4, 8, 78);
    let (train_set, val) = set.split_validation(24);
    let cfg = ProjectionConfig {
        gamma: 0.3,
        batch: 24,
        patience: 500,
        max_dim: Some(16),
        retrain: TrainConfig {
            epochs: 2,
            lr: 0.1,
            seed: 2,
        },
    };
    let out = fit_projection(
        &train_set,
        &val,
        |l| embedding_classifier(l, 12, 4, 3),
        &cfg,
    );
    let big = embedding_classifier(128, 12, 4, 3);
    let before = network_stats(&big, &fast_opts()).non_xor;
    let after = network_stats(&out.net, &fast_opts()).non_xor;
    // The MAC term shrinks roughly by the input fold.
    assert!(
        (before as f64 / after as f64) > out.model.fold() * 0.4,
        "before {before}, after {after}, fold {}",
        out.model.fold()
    );
}

#[test]
fn public_w_is_consistent_between_algorithms() {
    // W from the streaming Algorithm 1 == the projector of its dictionary
    // (Prop 3.1's D(DᵀD)⁻¹Dᵀ), and projecting then reconstructing is
    // idempotent.
    let set = data::low_rank(80, 48, 4, 6, 79);
    let (train_set, val) = set.split_validation(16);
    let cfg = ProjectionConfig {
        gamma: 0.3,
        batch: 16,
        patience: 500,
        max_dim: Some(12),
        retrain: TrainConfig {
            epochs: 1,
            lr: 0.1,
            seed: 3,
        },
    };
    let out = fit_projection(&train_set, &val, |l| embedding_classifier(l, 8, 4, 4), &cfg);
    let w = out.model.w();
    let d_proj: Matrix = out.model.dictionary().projector();
    assert!(w.sub(&d_proj).frobenius_norm() < 1e-6);
    // Algorithm 2 consistency: Uᵀ(UUᵀ x) == Uᵀ x.
    let x: Vec<f64> = train_set.inputs[0]
        .data()
        .iter()
        .map(|&v| f64::from(v))
        .collect();
    let wx = w.matvec(&x);
    let y1 = out.model.project(&x);
    let y2 = out.model.project(&wx);
    for (a, b) in y1.iter().zip(&y2) {
        assert!((a - b).abs() < 1e-8);
    }
}

#[test]
fn combined_pipeline_prune_then_compile() {
    let set = data::digits_small(64, 80);
    let (train_set, val) = set.split_validation(16);
    let mut net = zoo::tiny_mlp(train_set.num_classes);
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 20,
            lr: 0.1,
            seed: 4,
        },
    );
    let dense = compile(&net, &fast_opts()).circuit.stats().non_xor;
    let (fold, acc) = preprocess_network(
        &mut net,
        &train_set,
        &val,
        0.75,
        &TrainConfig {
            epochs: 20,
            lr: 0.05,
            seed: 5,
        },
    );
    let sparse = compile(&net, &fast_opts()).circuit.stats().non_xor;
    assert!(fold > 2.5, "fold {fold}");
    assert!(acc > 0.5, "accuracy {acc}");
    assert!(
        sparse * 2 < dense,
        "circuit must shrink: {dense} -> {sparse}"
    );
}

/// The analyzer's predicted saving from circuit pre-processing must equal
/// the *live* garbled-material delta: run the same redundant netlist
/// through the real protocol before and after [`preprocess_compiled`] and
/// compare `wire.tables` against the report's `table_bytes_saved`.
#[test]
fn preprocess_savings_match_live_material_delta() {
    use deepsecure::circuit::{Circuit, Gate, GateKind, Wire};
    use deepsecure::core::compile::Compiled;
    use deepsecure::core::preprocess::preprocess_compiled;
    use deepsecure::core::protocol::run_compiled;
    use std::sync::Arc;

    // 0=c0 1=c1 2=g0 3=e0 | 4 = g0 AND e0, 5 = e0 AND g0 (duplicate),
    // 6 = 4 XOR 5 (== 0), 7 = 6 OR g0 (== g0), 8 = g0 AND e0 (another
    // duplicate, dead). Optimizes to the single AND at wire 4.
    let and = |a, b, out| Gate {
        kind: GateKind::And,
        a: Wire(a),
        b: Wire(b),
        out: Wire(out),
    };
    let gates = vec![
        and(2, 3, 4),
        and(3, 2, 5),
        Gate {
            kind: GateKind::Xor,
            a: Wire(4),
            b: Wire(5),
            out: Wire(6),
        },
        Gate {
            kind: GateKind::Or,
            a: Wire(6),
            b: Wire(2),
            out: Wire(7),
        },
        and(2, 3, 8),
    ];
    let circuit = Circuit::from_raw_parts(
        9,
        vec![Wire(2)],
        vec![Wire(3)],
        vec![Wire(4)],
        gates,
        vec![],
    );
    circuit.validate().expect("fixture is structurally valid");

    let cfg = InferenceConfig::default();
    let wrap = |circuit| {
        Arc::new(Compiled {
            circuit,
            weight_order: Vec::new(),
            format: cfg.options.format,
        })
    };
    let compiled = wrap(circuit);
    let (optimized, prep) = preprocess_compiled(Compiled {
        circuit: compiled.circuit.clone(),
        weight_order: Vec::new(),
        format: cfg.options.format,
    });
    assert!(prep.table_bytes_saved() > 0, "fixture must be reducible");

    let g_bits = vec![vec![true]];
    let e_bits = vec![vec![true]];
    let before = run_compiled(Arc::clone(&compiled), g_bits.clone(), e_bits.clone(), &cfg)
        .expect("protocol (redundant)");
    let after = run_compiled(wrap(optimized.circuit), g_bits, e_bits, &cfg)
        .expect("protocol (preprocessed)");
    assert_eq!(before.cycle_labels, after.cycle_labels);
    assert_eq!(
        before.wire.tables - after.wire.tables,
        prep.table_bytes_saved(),
        "analyzer-predicted saving must equal the live material delta"
    );
    // And both live runs must match the analyzer's absolute prediction.
    assert_eq!(before.wire.tables, 32 * prep.non_free_before);
    assert_eq!(after.wire.tables, 32 * prep.non_free_after);
}

mod properties {
    use deepsecure::circuit::{passes, Circuit, Gate, GateKind, Wire};
    use deepsecure::nn::{prune, ActKind, Dense, Layer, Network};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Raw-netlist generator: wires 0/1 are the constants, then the
    /// declared inputs, then one new wire per gate whose operands are
    /// drawn from anything already defined — topologically valid by
    /// construction, but full of duplicate, dead and constant-foldable
    /// gates the optimizer can harvest.
    fn build_circuit(n_g: u32, n_e: u32, ops: &[(usize, u32, u32)], out_sels: &[u32]) -> Circuit {
        const KINDS: [GateKind; 8] = [
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let garbler: Vec<Wire> = (2..2 + n_g).map(Wire).collect();
        let evaluator: Vec<Wire> = (2 + n_g..2 + n_g + n_e).map(Wire).collect();
        let mut wires = 2 + n_g + n_e;
        let mut gates = Vec::with_capacity(ops.len());
        for &(k, a_sel, b_sel) in ops {
            let kind = KINDS[k % KINDS.len()];
            let a = Wire(a_sel % wires);
            // validate() requires unary gates to carry b == a.
            let b = if matches!(kind, GateKind::Not | GateKind::Buf) {
                a
            } else {
                Wire(b_sel % wires)
            };
            gates.push(Gate {
                kind,
                a,
                b,
                out: Wire(wires),
            });
            wires += 1;
        }
        let outputs = out_sels.iter().map(|s| Wire(s % wires)).collect();
        Circuit::from_raw_parts(wires, garbler, evaluator, outputs, gates, vec![])
    }

    /// A two-layer MLP with random weights *and random non-zero biases*
    /// (fresh nets initialize biases to zero, which would make the
    /// "pruning spares biases" property vacuous).
    fn random_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut l1 = Dense::new(64, 12, &mut rng);
        let mut l2 = Dense::new(12, 4, &mut rng);
        for b in l1.bias.iter_mut().chain(l2.bias.iter_mut()) {
            *b = rng.gen_range(0.25..1.0);
        }
        Network::new(
            vec![1, 8, 8],
            vec![
                Layer::Flatten,
                Layer::Dense(l1),
                Layer::Activation(ActKind::Relu),
                Layer::Dense(l2),
            ],
        )
    }

    fn dense_biases(net: &Network) -> Vec<Vec<f32>> {
        net.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Dense(d) => Some(d.bias.clone()),
                _ => None,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // `magnitude_prune` lands on the requested sparsity (up to the
        // per-layer floor(len·s) rounding) and never touches a bias.
        #[test]
        fn magnitude_prune_hits_target_and_spares_biases(
            seed in any::<u64>(),
            target in 0.0f64..0.95,
        ) {
            let mut net = random_net(seed);
            let biases_before = dense_biases(&net);
            prune::magnitude_prune(&mut net, target);
            let achieved = prune::sparsity(&net);
            // Smallest prunable layer here is 12x4 = 48 weights, so the
            // rounding error is bounded by 1/48 per layer.
            prop_assert!(
                (achieved - target).abs() < 0.05,
                "target {target}, achieved {achieved}"
            );
            prop_assert_eq!(dense_biases(&net), biases_before);
            // Masks cover weights only, and tightening is monotone.
            prune::magnitude_prune(&mut net, target);
            prop_assert!(prune::sparsity(&net) >= achieved - 1e-12);
        }

        // Circuit pre-processing on an arbitrary valid netlist: the
        // optimized circuit computes the same function bit-for-bit on
        // every input assignment and never has more non-free gates.
        #[test]
        fn preprocess_preserves_outputs_and_never_grows(
            n_g in 1u32..=4,
            n_e in 1u32..=4,
            ops in proptest::collection::vec((0usize..8, any::<u32>(), any::<u32>()), 0..48),
            out_sels in proptest::collection::vec(any::<u32>(), 1..5),
        ) {
            let c = build_circuit(n_g, n_e, &ops, &out_sels);
            prop_assert!(c.validate().is_ok(), "generator must emit valid circuits");
            let opt = passes::optimize(&c);
            prop_assert!(opt.validate().is_ok());
            prop_assert!(
                opt.stats().non_xor <= c.stats().non_xor,
                "non-free grew: {} -> {}",
                c.stats().non_xor,
                opt.stats().non_xor
            );
            prop_assert!(opt.stats().total() <= c.stats().total());
            let n_g = c.garbler_inputs().len();
            let n_e = c.evaluator_inputs().len();
            for assignment in 0u32..1 << (n_g + n_e) {
                let g: Vec<bool> = (0..n_g).map(|i| assignment >> i & 1 == 1).collect();
                let e: Vec<bool> = (0..n_e).map(|i| assignment >> (n_g + i) & 1 == 1).collect();
                prop_assert_eq!(c.eval(&g, &e), opt.eval(&g, &e), "assignment {:#b}", assignment);
            }
        }
    }
}
