//! Data and DL network pre-processing (§3.2) — the paper's headline
//! runtime lever (up to 82-fold in Table 5).
//!
//! **Data projection (Algorithm 1/2).** The server streams its training
//! columns, growing a dictionary `D` whenever the projection residual
//! `‖D(DᵀD)⁻¹Dᵀa − a‖/‖a‖` exceeds `γ`, re-training the model on the
//! low-dimensional embedding every `nbatch` samples with patience-based
//! early stopping, and finally releasing the projection matrix `W = DD⁺`
//! publicly. Clients then compute their embedding locally (Algorithm 2)
//! before garbling, so the GC input layer shrinks by the fold `m / l`.
//!
//! *Implementation notes*: `W = UUᵀ` where `U` is
//! an orthonormal basis of `D`'s column space; releasing `U` leaks exactly
//! the subspace that `W` leaks (Prop 3.1), and `y = Uᵀx ∈ R^l` is the
//! embedding the re-trained `l`-input network consumes. Line 28 of
//! Algorithm 1 writes the embedding as `D(DᵀD)⁻¹Dᵀaᵢ` (an `m`-vector);
//! the quantity consumed by `UpdateDL` is its coordinate form
//! `D⁺aᵢ ∈ R^l`, which is what we store in `C`.
//!
//! **Network pre-processing** is re-exported from
//! [`deepsecure_nn::prune`]; [`preprocess_network`] runs the combined
//! pipeline and reports the compaction fold.

use deepsecure_circuit::{passes, GATE_TABLE_BYTES};
use deepsecure_linalg::{vec_ops, Matrix};
use deepsecure_nn::data::Dataset;
use deepsecure_nn::train::{self, TrainConfig};
use deepsecure_nn::{prune, ActKind, Dense, Layer, Network, Tensor};

use crate::compile::Compiled;

/// Parameters of Algorithm 1.
#[derive(Clone, Debug)]
pub struct ProjectionConfig {
    /// Residual threshold `γ`: grow the dictionary when the projection
    /// error exceeds this.
    pub gamma: f64,
    /// Re-train the model every `batch` streamed samples (`nbatch`).
    pub batch: usize,
    /// Early-stopping patience (samples of non-improving validation error
    /// after which the dictionary stops growing).
    pub patience: usize,
    /// Optional hard cap on the dictionary size `l`.
    pub max_dim: Option<usize>,
    /// Re-training schedule for each `UpdateDL` call.
    pub retrain: TrainConfig,
}

impl Default for ProjectionConfig {
    fn default() -> ProjectionConfig {
        ProjectionConfig {
            gamma: 0.25,
            batch: 32,
            patience: 64,
            max_dim: None,
            retrain: TrainConfig {
                epochs: 2,
                lr: 0.05,
                seed: 7,
            },
        }
    }
}

/// The publicly releasable projection: an orthonormal basis `U` of the
/// dictionary's column space.
#[derive(Clone, Debug)]
pub struct ProjectionModel {
    u: Matrix,
    dict: Matrix,
}

impl ProjectionModel {
    /// Ambient (raw feature) dimension `m`.
    pub fn dim_in(&self) -> usize {
        self.u.rows()
    }

    /// Embedding dimension `l`.
    pub fn dim_out(&self) -> usize {
        self.u.cols()
    }

    /// The compaction fold `m / l`.
    pub fn fold(&self) -> f64 {
        self.dim_in() as f64 / self.dim_out() as f64
    }

    /// The public projection matrix `W = UUᵀ = D(DᵀD)⁻¹Dᵀ` (Prop 3.1).
    pub fn w(&self) -> Matrix {
        self.u.matmul(&self.u.transpose())
    }

    /// The normalized dictionary (server-private; exposed for tests).
    pub fn dictionary(&self) -> &Matrix {
        &self.dict
    }

    /// Algorithm 2, per sample: the client's local embedding `y = Uᵀx`.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        self.u.transpose().matvec(x)
    }

    /// Reconstruction `Uy` (for residual measurements).
    pub fn reconstruct(&self, y: &[f64]) -> Vec<f64> {
        self.u.matvec(y)
    }

    /// Projects a whole dataset into embedding space (Algorithm 2's loop).
    pub fn project_dataset(&self, ds: &Dataset) -> Dataset {
        let inputs: Vec<Tensor> = ds
            .inputs
            .iter()
            .map(|t| {
                let col: Vec<f64> = t.data().iter().map(|&v| f64::from(v)).collect();
                Tensor::from_flat(self.project(&col).iter().map(|&v| v as f32).collect())
            })
            .collect();
        Dataset {
            inputs,
            labels: ds.labels.clone(),
            input_shape: vec![self.dim_out()],
            num_classes: ds.num_classes,
        }
    }
}

/// Result of running Algorithm 1.
#[derive(Debug)]
pub struct ProjectionOutcome {
    /// The public projection.
    pub model: ProjectionModel,
    /// The re-trained network (input width = `l`).
    pub net: Network,
    /// Final validation error `δ`.
    pub final_error: f64,
}

/// Algorithm 1: streaming dictionary learning with interleaved model
/// re-training. `make_net(l)` builds the architecture for input width `l`
/// (the first call fixes the shape; afterwards the input layer is expanded
/// in place as the dictionary grows).
///
/// # Panics
///
/// Panics if the training set is empty or `make_net` returns a network
/// whose first trainable layer is not dense.
pub fn fit_projection(
    train_set: &Dataset,
    val: &Dataset,
    make_net: impl Fn(usize) -> Network,
    cfg: &ProjectionConfig,
) -> ProjectionOutcome {
    assert!(!train_set.is_empty(), "empty training set");
    let columns = train_set.as_columns();
    let m = columns[0].len();
    let max_dim = cfg.max_dim.unwrap_or(m).min(m);

    let mut dict_cols: Vec<Vec<f64>> = Vec::new(); // normalized D columns
    let mut q_cols: Vec<Vec<f64>> = Vec::new(); // orthonormal basis of D
    let mut embeddings: Vec<Vec<f64>> = Vec::new(); // C columns (l-dim, padded later)
    let mut net: Option<Network> = None;
    let mut delta = 1.0f64;
    let mut delta_best = 1.0f64;
    let mut itr = 0usize;

    for (i, a) in columns.iter().enumerate() {
        // V_p(a_i): projection residual on the current dictionary.
        let vp = if q_cols.is_empty() {
            1.0
        } else {
            let norm = vec_ops::norm2(a).max(1e-12);
            let mut residual = a.clone();
            for q in &q_cols {
                let d = vec_ops::dot(q, &residual);
                residual = vec_ops::axpy(&residual, -d, q);
            }
            vec_ops::norm2(&residual) / norm
        };

        if delta <= delta_best {
            delta_best = delta;
            itr = 0;
        } else {
            itr += 1;
        }

        if vp > cfg.gamma && itr < cfg.patience && dict_cols.len() < max_dim {
            // Grow the dictionary with the normalized sample.
            if let Some(normed) = vec_ops::normalized(a) {
                dict_cols.push(normed);
                // Extend the orthonormal basis (Gram-Schmidt residual).
                let mut residual = a.clone();
                for q in &q_cols {
                    let d = vec_ops::dot(q, &residual);
                    residual = vec_ops::axpy(&residual, -d, q);
                }
                if let Some(qn) = vec_ops::normalized(&residual) {
                    q_cols.push(qn);
                }
            }
        }
        // Embedding of a_i in the current basis (C column).
        let emb: Vec<f64> = q_cols.iter().map(|q| vec_ops::dot(q, a)).collect();
        embeddings.push(emb);

        // UpdateDL every nbatch samples.
        if (i + 1) % cfg.batch == 0 && !q_cols.is_empty() {
            let l = q_cols.len();
            let model = net.get_or_insert_with(|| make_net(l));
            expand_input(model, l);
            let batch = embedded_dataset(&embeddings, train_set, l);
            train::train(model, &batch, &cfg.retrain);
            let u = Matrix::from_columns(&q_cols);
            let projection = ProjectionModel {
                u,
                dict: Matrix::from_columns(&dict_cols),
            };
            delta = train::error_rate(model, &projection.project_dataset(val));
        }
    }

    let l = q_cols.len().max(1);
    if q_cols.is_empty() {
        // Degenerate inputs: fall back to the first unit vector.
        let mut e0 = vec![0.0; m];
        e0[0] = 1.0;
        q_cols.push(e0.clone());
        dict_cols.push(e0);
    }
    let model = ProjectionModel {
        u: Matrix::from_columns(&q_cols),
        dict: Matrix::from_columns(&dict_cols),
    };
    let mut final_net = net.unwrap_or_else(|| make_net(l));
    expand_input(&mut final_net, model.dim_out());
    // Final consolidation pass on the full projected set.
    let projected = model.project_dataset(train_set);
    train::train(&mut final_net, &projected, &cfg.retrain);
    let final_error = train::error_rate(&final_net, &model.project_dataset(val));
    ProjectionOutcome {
        model,
        net: final_net,
        final_error,
    }
}

/// Grows the first dense layer to accept `l` inputs, preserving learned
/// weights (new columns start at zero).
#[expect(
    clippy::panic,
    reason = "documented precondition: zoo models always start dense"
)]
fn expand_input(net: &mut Network, l: usize) {
    net.input_shape = vec![l];
    for layer in &mut net.layers {
        if let Layer::Dense(d) = layer {
            assert!(d.n_in <= l, "input layer cannot shrink ({} -> {l})", d.n_in);
            if d.n_in < l {
                let mut weights = vec![0.0f32; d.n_out * l];
                for o in 0..d.n_out {
                    weights[o * l..o * l + d.n_in]
                        .copy_from_slice(&d.weights[o * d.n_in..(o + 1) * d.n_in]);
                }
                if let Some(mask) = &d.mask {
                    let mut new_mask = vec![true; d.n_out * l];
                    for o in 0..d.n_out {
                        new_mask[o * l..o * l + d.n_in]
                            .copy_from_slice(&mask[o * d.n_in..(o + 1) * d.n_in]);
                    }
                    d.mask = Some(new_mask);
                }
                d.weights = weights;
                d.n_in = l;
            }
            return;
        }
    }
    panic!("no dense input layer to expand");
}

/// Builds the interim dataset of embeddings (padding earlier, shorter
/// embeddings with zeros up to the current dictionary size).
fn embedded_dataset(embeddings: &[Vec<f64>], source: &Dataset, l: usize) -> Dataset {
    let inputs: Vec<Tensor> = embeddings
        .iter()
        .map(|e| {
            let mut v: Vec<f32> = e.iter().map(|&x| x as f32).collect();
            v.resize(l, 0.0);
            Tensor::from_flat(v)
        })
        .collect();
    let labels = source.labels[..inputs.len()].to_vec();
    Dataset {
        inputs,
        labels,
        input_shape: vec![l],
        num_classes: source.num_classes,
    }
}

/// Builds a fresh dense classifier for embedded data: `l → hidden → classes`
/// with Tanh — the shape used when re-training projected benchmarks.
pub fn embedding_classifier(l: usize, hidden: usize, classes: usize, seed: u64) -> Network {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(
        vec![l],
        vec![
            Layer::Dense(Dense::new(l, hidden, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ],
    )
}

/// The combined pre-processing pipeline: magnitude-prune + masked
/// re-train (§3.2.2). Returns the achieved MAC fold
/// (`dense MACs / pruned MACs`).
pub fn preprocess_network(
    net: &mut Network,
    train_set: &Dataset,
    val: &Dataset,
    target_sparsity: f64,
    retrain: &TrainConfig,
) -> (f64, f64) {
    let before = net.total_macs() as f64;
    let acc = prune::prune_and_retrain(net, train_set, val, target_sparsity, retrain);
    let after = net.total_macs().max(1) as f64;
    (before / after, acc)
}

/// What the circuit pre-processing pass removed, in the same units the
/// static analyzer's `OptReport` predicts — gate-exact, so a pipeline can
/// assert `analyzer-predicted savings == applied savings` and the live
/// protocol's `wire.tables` delta follows bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitPreprocessReport {
    /// Gates before / after the pass.
    pub gates_before: u64,
    /// Gates after.
    pub gates_after: u64,
    /// Non-free (table-carrying) gates before / after.
    pub non_free_before: u64,
    /// Non-free gates after.
    pub non_free_after: u64,
}

impl CircuitPreprocessReport {
    /// Garbled-table bytes the pass removed ([`GATE_TABLE_BYTES`] per
    /// non-free gate).
    pub fn table_bytes_saved(&self) -> u64 {
        GATE_TABLE_BYTES * (self.non_free_before - self.non_free_after)
    }
}

/// Circuit-level pre-processing: applies the dead/constant/duplicate-gate
/// opportunities the analyzer reports by replaying the netlist through a
/// fresh builder ([`deepsecure_circuit::passes::optimize`] — constant
/// folding, CSE, dead-gate removal in one sweep). Input/output ordering is
/// preserved, so the [`Compiled`] weight layout stays valid; gate count
/// never grows. Builder-produced circuits are already optimal and pass
/// through unchanged — the pass earns its keep on imported netlists and as
/// the applied-before-garbling guarantee of the compressed pipeline.
pub fn preprocess_compiled(compiled: Compiled) -> (Compiled, CircuitPreprocessReport) {
    let before = compiled.circuit.stats();
    let circuit = passes::optimize(&compiled.circuit);
    let after = circuit.stats();
    (
        Compiled {
            circuit,
            ..compiled
        },
        CircuitPreprocessReport {
            gates_before: before.total(),
            gates_after: after.total(),
            non_free_before: before.non_xor,
            non_free_after: after.non_xor,
        },
    )
}

#[cfg(test)]
mod tests {
    use deepsecure_nn::data;

    use super::*;

    fn quick_cfg() -> ProjectionConfig {
        ProjectionConfig {
            gamma: 0.3,
            batch: 16,
            patience: 500,
            max_dim: Some(24),
            retrain: TrainConfig {
                epochs: 3,
                lr: 0.1,
                seed: 1,
            },
        }
    }

    #[test]
    fn projection_compacts_low_rank_data() {
        let set = data::low_rank(160, 96, 4, 10, 3);
        let (train_set, val) = set.split_validation(40);
        let out = fit_projection(
            &train_set,
            &val,
            |l| embedding_classifier(l, 12, 4, 9),
            &quick_cfg(),
        );
        // Rank-10 data in 96 dims: the dictionary should stay near the
        // true rank, giving a large fold.
        assert!(out.model.dim_out() <= 24, "l = {}", out.model.dim_out());
        assert!(out.model.fold() >= 4.0, "fold = {}", out.model.fold());
        // And the classifier must still work.
        assert!(out.final_error < 0.3, "error = {}", out.final_error);
    }

    #[test]
    fn residuals_bounded_by_gamma_after_convergence() {
        let set = data::low_rank(120, 64, 4, 8, 5);
        let (train_set, val) = set.split_validation(20);
        let cfg = quick_cfg();
        let out = fit_projection(&train_set, &val, |l| embedding_classifier(l, 8, 4, 9), &cfg);
        // Fresh samples from the same distribution project with residual
        // close to gamma.
        let fresh = data::low_rank(20, 64, 4, 8, 5);
        for t in &fresh.inputs {
            let x: Vec<f64> = t.data().iter().map(|&v| f64::from(v)).collect();
            let y = out.model.project(&x);
            let back = out.model.reconstruct(&y);
            let residual = vec_ops::norm2(&vec_ops::sub(&x, &back)) / vec_ops::norm2(&x);
            assert!(residual < 2.0 * cfg.gamma, "residual {residual}");
        }
    }

    #[test]
    fn w_is_projector_and_matches_uut() {
        let set = data::low_rank(64, 32, 4, 6, 7);
        let (train_set, val) = set.split_validation(16);
        let out = fit_projection(
            &train_set,
            &val,
            |l| embedding_classifier(l, 8, 4, 9),
            &quick_cfg(),
        );
        let w = out.model.w();
        let w2 = w.matmul(&w);
        assert!(w.sub(&w2).frobenius_norm() < 1e-8, "W idempotent");
        // W equals the projector derived from the raw dictionary.
        let d_proj = out.model.dictionary().projector();
        assert!(w.sub(&d_proj).frobenius_norm() < 1e-6, "W = D(DᵀD)⁻¹Dᵀ");
    }

    #[test]
    fn expand_input_preserves_weights() {
        let mut net = embedding_classifier(4, 3, 2, 1);
        let w_before = match &net.layers[0] {
            Layer::Dense(d) => d.weights.clone(),
            _ => unreachable!(),
        };
        expand_input(&mut net, 6);
        match &net.layers[0] {
            Layer::Dense(d) => {
                assert_eq!(d.n_in, 6);
                for o in 0..3 {
                    assert_eq!(&d.weights[o * 6..o * 6 + 4], &w_before[o * 4..(o + 1) * 4]);
                    assert_eq!(&d.weights[o * 6 + 4..(o + 1) * 6], &[0.0, 0.0]);
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pruning_pipeline_reports_fold() {
        let set = data::digits_small(48, 19);
        let (train_set, val) = set.split_validation(16);
        let mut net = deepsecure_nn::zoo::tiny_mlp(train_set.num_classes);
        train::train(
            &mut net,
            &train_set,
            &TrainConfig {
                epochs: 15,
                lr: 0.1,
                seed: 3,
            },
        );
        let (fold, acc) = preprocess_network(
            &mut net,
            &train_set,
            &val,
            0.75,
            &TrainConfig {
                epochs: 15,
                lr: 0.05,
                seed: 4,
            },
        );
        assert!(fold >= 3.0, "fold {fold}");
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn circuit_preprocess_is_identity_on_builder_output_and_keeps_layout() {
        use crate::compile::{compile, plain_label, CompileOptions};
        let set = data::digits_small(16, 23);
        let mut net = deepsecure_nn::zoo::tiny_mlp(set.num_classes);
        prune::magnitude_prune(&mut net, 0.6);
        let compiled = compile(&net, &CompileOptions::default());
        let weight_order = compiled.weight_order.clone();
        let label_before = plain_label(&compiled, &net, &set.inputs[0]);
        let (opt, report) = preprocess_compiled(compiled);
        // Builder circuits are already optimal: the pass must not grow
        // anything, and on this input it removes nothing either.
        assert_eq!(report.gates_before, report.gates_after);
        assert_eq!(report.non_free_before, report.non_free_after);
        assert_eq!(report.table_bytes_saved(), 0);
        // The weight layout survives (input ordering is preserved).
        assert_eq!(opt.weight_order, weight_order);
        assert_eq!(plain_label(&opt, &net, &set.inputs[0]), label_before);
    }

    #[test]
    fn circuit_preprocess_applies_reported_opportunities() {
        use deepsecure_circuit::{Circuit, Gate, GateKind, Wire};
        // A hand-built netlist with a duplicate AND and a dead OR — the
        // kind an import produces. The pass must realize exactly the
        // savings the analyzer's opportunity report prices.
        let gates = vec![
            Gate {
                kind: GateKind::And,
                a: Wire(2),
                b: Wire(3),
                out: Wire(4),
            },
            Gate {
                kind: GateKind::And,
                a: Wire(3),
                b: Wire(2),
                out: Wire(5),
            },
            Gate {
                kind: GateKind::Or,
                a: Wire(4),
                b: Wire(3),
                out: Wire(6), // dead: never read, never an output
            },
            Gate {
                kind: GateKind::Xor,
                a: Wire(4),
                b: Wire(5),
                out: Wire(7), // folds to const 0
            },
            Gate {
                kind: GateKind::Or,
                a: Wire(7),
                b: Wire(4),
                out: Wire(8), // folds to wire 4
            },
        ];
        let circuit = Circuit::from_raw_parts(
            9,
            vec![Wire(2)],
            vec![Wire(3)],
            vec![Wire(8)],
            gates,
            vec![],
        );
        circuit.validate().unwrap();
        let compiled = Compiled {
            circuit,
            weight_order: vec![],
            format: deepsecure_fixed::Format::Q3_12,
        };
        let (opt, report) = preprocess_compiled(compiled);
        assert_eq!(report.gates_before, 5);
        assert_eq!(report.non_free_before, 4);
        // One AND survives (the shared x & y); everything else folds.
        assert_eq!(report.gates_after, 1);
        assert_eq!(report.non_free_after, 1);
        assert_eq!(report.table_bytes_saved(), 3 * 32);
        for g in [false, true] {
            for e in [false, true] {
                assert_eq!(opt.circuit.eval(&[g], &[e]), [g && e]);
            }
        }
    }
}
