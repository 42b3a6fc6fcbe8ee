//! The network-to-netlist compiler.
//!
//! The DL architecture (layer shapes + sparsity map) is public (§3.1), so
//! both parties can deterministically build the same circuit; only the
//! *values* of the weights are private, entering as evaluator input bits
//! delivered by OT. The client's sample enters as garbler input bits.
//!
//! Outputs follow §4.2: the circuit ends in the CMP/MUX argmax chain, so
//! the only thing decoded is the inference label.

use deepsecure_circuit::{Builder, Circuit};
use deepsecure_fixed::{Fixed, Format};
use deepsecure_nn::{ActKind, Layer, Network, Tensor};
use deepsecure_synth::activation::{softmax_argmax, Activation};
use deepsecure_synth::{arith, matvec, mul, pool, word, Word};

/// Which synthesized variant implements each training-time activation.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Realization for ReLU layers.
    pub relu: Activation,
    /// Realization for Tanh layers.
    pub tanh: Activation,
    /// Realization for Sigmoid layers.
    pub sigmoid: Activation,
    /// Fixed-point format (must currently be Q3.12 for the nonlinearity
    /// library).
    pub format: Format,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        // The paper's experiments use the CORDIC realizations (§4.2).
        CompileOptions {
            relu: Activation::Relu,
            tanh: Activation::TanhCordic,
            sigmoid: Activation::SigmoidCordic,
            format: Format::Q3_12,
        }
    }
}

impl CompileOptions {
    /// Maps a training-time activation to its circuit realization.
    pub fn realize(&self, kind: ActKind) -> Activation {
        match kind {
            ActKind::Relu => self.relu,
            ActKind::Tanh => self.tanh,
            ActKind::Sigmoid => self.sigmoid,
        }
    }
}

/// Identifies one private parameter in traversal order — the contract that
/// keeps the client's circuit and the server's weight-bit stream aligned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightRef {
    /// Dense weight at flat index `idx` of layer `layer`.
    Dense {
        /// Layer index in `Network::layers`.
        layer: usize,
        /// Flat index into the weight matrix.
        idx: usize,
    },
    /// Dense bias `o` of layer `layer`.
    DenseBias {
        /// Layer index.
        layer: usize,
        /// Output index.
        o: usize,
    },
    /// Convolution kernel weight at flat index `idx` of layer `layer`.
    Conv {
        /// Layer index.
        layer: usize,
        /// Flat kernel index.
        idx: usize,
    },
    /// Convolution bias for output channel `oc` of layer `layer`.
    ConvBias {
        /// Layer index.
        layer: usize,
        /// Output channel.
        oc: usize,
    },
}

/// A compiled network: the public circuit plus the private-parameter
/// layout.
#[derive(Debug)]
pub struct Compiled {
    /// The combinational netlist (argmax output).
    pub circuit: Circuit,
    /// Evaluator-input parameter order (16 bits per entry).
    pub weight_order: Vec<WeightRef>,
    /// Number format used.
    pub format: Format,
}

impl Compiled {
    /// Serializes the server's private parameters into the evaluator input
    /// bit stream (the OT choice bits).
    #[expect(
        clippy::panic,
        reason = "compiler invariant: the layout is derived from the same Network"
    )]
    pub fn weight_bits(&self, net: &Network) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.weight_order.len() * 16);
        for wr in &self.weight_order {
            let v = match *wr {
                WeightRef::Dense { layer, idx } => match &net.layers[layer] {
                    Layer::Dense(d) => d.weights[idx],
                    _ => panic!("layout/network mismatch at layer {layer}"),
                },
                WeightRef::DenseBias { layer, o } => match &net.layers[layer] {
                    Layer::Dense(d) => d.bias[o],
                    _ => panic!("layout/network mismatch at layer {layer}"),
                },
                WeightRef::Conv { layer, idx } => match &net.layers[layer] {
                    Layer::Conv2d(c) => c.weights[idx],
                    _ => panic!("layout/network mismatch at layer {layer}"),
                },
                WeightRef::ConvBias { layer, oc } => match &net.layers[layer] {
                    Layer::Conv2d(c) => c.bias[oc],
                    _ => panic!("layout/network mismatch at layer {layer}"),
                },
            };
            bits.extend(Fixed::from_f64(f64::from(v), self.format).to_bits());
        }
        bits
    }

    /// Quantizes a client sample into the garbler input bit stream.
    pub fn input_bits(&self, x: &Tensor) -> Vec<bool> {
        x.data()
            .iter()
            .flat_map(|&v| Fixed::from_f64(f64::from(v), self.format).to_bits())
            .collect()
    }

    /// Decodes the circuit's output bits into the inference label.
    pub fn decode_label(&self, bits: &[bool]) -> usize {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| usize::from(b) << i)
            .sum()
    }
}

/// Compiles a network into a combinational argmax circuit.
///
/// Only the architecture and the sparsity map are read — weights are not
/// baked in (they are the server's private OT inputs).
///
/// # Panics
///
/// Panics if a layer sequence is inconsistent with the declared input
/// shape.
pub fn compile(net: &Network, opts: &CompileOptions) -> Compiled {
    let bits = opts.format.total_bits() as usize;
    let mut b = Builder::new();
    // Client data words first.
    let input_len: usize = net.input_shape.iter().product();
    let values: Vec<Word> = (0..input_len)
        .map(|_| word::garbler_word(&mut b, bits))
        .collect();
    let (logits, weight_order) = build_layers(&mut b, net, values, opts);
    let label = softmax_argmax(&mut b, &logits);
    word::output_word(&mut b, &label);
    let circuit = b.finish();
    Compiled {
        circuit,
        weight_order,
        format: opts.format,
    }
}

/// Walks the layer stack building MACs, pools and nonlinearities on top of
/// the provided input words; returns the logit words and the private-
/// parameter layout. Shared by [`compile`] and the outsourcing compiler.
pub(crate) fn build_layers(
    b: &mut Builder,
    net: &Network,
    mut values: Vec<Word>,
    opts: &CompileOptions,
) -> (Vec<Word>, Vec<WeightRef>) {
    let bits = opts.format.total_bits() as usize;
    let frac = opts.format.frac_bits;
    let mut weight_order = Vec::new();
    let mut shape = net.input_shape.clone();

    for (li, layer) in net.layers.iter().enumerate() {
        match layer {
            Layer::Dense(d) => {
                // Declare shared weight words for live weights only.
                let mut w_words: Vec<Option<Word>> = vec![None; d.weights.len()];
                for o in 0..d.n_out {
                    for i in 0..d.n_in {
                        let idx = o * d.n_in + i;
                        let live = d.mask.as_ref().is_none_or(|m| m[idx]);
                        if live {
                            w_words[idx] = Some(word::evaluator_word(b, bits));
                            weight_order.push(WeightRef::Dense { layer: li, idx });
                        }
                    }
                }
                let mut outs = Vec::with_capacity(d.n_out);
                for o in 0..d.n_out {
                    let bias = word::evaluator_word(b, bits);
                    weight_order.push(WeightRef::DenseBias { layer: li, o });
                    let row = &w_words[o * d.n_in..(o + 1) * d.n_in];
                    let acc = matvec::sparse_row(b, bias, &values, row, frac);
                    outs.push(acc);
                }
                values = outs;
                shape = vec![d.n_out];
            }
            Layer::Conv2d(c) => {
                let (h, w) = (shape[1], shape[2]);
                let (oh, ow) = c.out_size(h, w);
                // Shared kernel-weight words.
                let mut k_words: Vec<Option<Word>> = vec![None; c.weights.len()];
                for (idx, slot) in k_words.iter_mut().enumerate() {
                    let live = c.mask.as_ref().is_none_or(|m| m[idx]);
                    if live {
                        *slot = Some(word::evaluator_word(b, bits));
                        weight_order.push(WeightRef::Conv { layer: li, idx });
                    }
                }
                let mut bias_words = Vec::with_capacity(c.out_ch);
                for oc in 0..c.out_ch {
                    bias_words.push(word::evaluator_word(b, bits));
                    weight_order.push(WeightRef::ConvBias { layer: li, oc });
                }
                let at = |ic: usize, y: usize, x: usize| values[(ic * h + y) * w + x].clone();
                let mut outs = Vec::with_capacity(c.out_ch * oh * ow);
                #[allow(clippy::needless_range_loop)]
                for oc in 0..c.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = bias_words[oc].clone();
                            for ic in 0..c.in_ch {
                                for dy in 0..c.k {
                                    for dx in 0..c.k {
                                        let idx = ((oc * c.in_ch + ic) * c.k + dy) * c.k + dx;
                                        let Some(wv) = &k_words[idx] else { continue };
                                        let iy = (oy * c.stride + dy) as isize - c.pad as isize;
                                        let ix = (ox * c.stride + dx) as isize - c.pad as isize;
                                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                        {
                                            continue; // zero padding: MAC folds away
                                        }
                                        let xv = at(ic, iy as usize, ix as usize);
                                        let p = mul::mul_fixed(b, &xv, wv, frac);
                                        acc = arith::add(b, &acc, &p);
                                    }
                                }
                            }
                            outs.push(acc);
                        }
                    }
                }
                values = outs;
                shape = vec![c.out_ch, oh, ow];
            }
            Layer::MaxPool2d { k, stride } | Layer::MeanPool2d { k, stride } => {
                let (ch, h, w) = (shape[0], shape[1], shape[2]);
                let oh = (h - k) / stride + 1;
                let ow = (w - k) / stride + 1;
                let is_max = matches!(layer, Layer::MaxPool2d { .. });
                let at = |c: usize, y: usize, x: usize| values[(c * h + y) * w + x].clone();
                let mut outs = Vec::with_capacity(ch * oh * ow);
                for c in 0..ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let window: Vec<Word> = (0..*k)
                                .flat_map(|dy| {
                                    (0..*k)
                                        .map(|dx| at(c, oy * stride + dy, ox * stride + dx))
                                        .collect::<Vec<_>>()
                                })
                                .collect();
                            outs.push(if is_max {
                                pool::max_pool(b, &window)
                            } else {
                                pool::mean_pool(b, &window, frac)
                            });
                        }
                    }
                }
                values = outs;
                shape = vec![ch, oh, ow];
            }
            Layer::Activation(kind) => {
                let act = opts.realize(*kind);
                values = values.iter().map(|v| act.build(b, v)).collect();
            }
            Layer::Flatten => {
                shape = vec![shape.iter().product()];
            }
        }
    }

    (values, weight_order)
}

/// Fixed-point plaintext inference through the *compiled circuit* via the
/// reference simulator — the oracle secure executions are tested against.
pub fn plain_label(compiled: &Compiled, net: &Network, x: &Tensor) -> usize {
    let out = compiled
        .circuit
        .eval(&compiled.input_bits(x), &compiled.weight_bits(net));
    compiled.decode_label(&out)
}

/// Helper used by matvec-style benchmarks: number of evaluator input bits.
pub fn evaluator_bit_count(compiled: &Compiled) -> usize {
    compiled.circuit.evaluator_inputs().len()
}

/// The sequential folded-MAC circuit of §3.5 for a given format — exposed
/// here so protocol benchmarks and Figure 5 use the compiler's format
/// conventions.
pub fn folded_mac(opts: &CompileOptions) -> Circuit {
    matvec::mac_circuit(opts.format.total_bits() as usize, opts.format.frac_bits)
}

#[cfg(test)]
mod tests {
    use deepsecure_nn::{data, train, zoo};

    use super::*;

    fn small_options() -> CompileOptions {
        // PL variants keep test circuits small.
        CompileOptions {
            relu: Activation::Relu,
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        }
    }

    #[test]
    fn compiled_mlp_matches_float_predictions() {
        let set = data::digits_small(40, 21);
        let mut net = zoo::tiny_mlp(set.num_classes);
        train::train(
            &mut net,
            &set,
            &train::TrainConfig {
                epochs: 25,
                lr: 0.1,
                seed: 1,
            },
        );
        let compiled = compile(&net, &small_options());
        let mut agree = 0;
        for x in set.inputs.iter().take(12) {
            let gc = plain_label(&compiled, &net, x);
            let float = net.predict(x);
            agree += usize::from(gc == float);
        }
        assert!(agree >= 10, "fixed-point circuit agreed on {agree}/12");
    }

    #[test]
    fn compiled_cnn_runs() {
        let set = data::digits_small(24, 22);
        let mut net = zoo::tiny_cnn(set.num_classes);
        train::train(
            &mut net,
            &set,
            &train::TrainConfig {
                epochs: 15,
                lr: 0.05,
                seed: 2,
            },
        );
        let compiled = compile(&net, &small_options());
        let label = plain_label(&compiled, &net, &set.inputs[0]);
        assert!(label < set.num_classes);
    }

    #[test]
    fn pruning_shrinks_the_circuit() {
        let set = data::digits_small(16, 23);
        let mut net = zoo::tiny_mlp(set.num_classes);
        let dense_stats = compile(&net, &small_options()).circuit.stats();
        deepsecure_nn::prune::magnitude_prune(&mut net, 0.7);
        let sparse = compile(&net, &small_options());
        let sparse_stats = sparse.circuit.stats();
        assert!(
            sparse_stats.non_xor < dense_stats.non_xor / 2,
            "70% pruning: {} -> {}",
            dense_stats.non_xor,
            sparse_stats.non_xor
        );
        // Weight stream shrinks identically.
        assert!(sparse.weight_bits(&net).len() < net.num_params() * 16);
        let _ = set;
    }

    #[test]
    fn weight_stream_matches_evaluator_arity() {
        let net = zoo::tiny_mlp(4);
        let compiled = compile(&net, &small_options());
        assert_eq!(
            compiled.weight_bits(&net).len(),
            compiled.circuit.evaluator_inputs().len()
        );
        assert_eq!(
            compiled
                .input_bits(&deepsecure_nn::Tensor::zeros(&[1, 8, 8]))
                .len(),
            compiled.circuit.garbler_inputs().len()
        );
    }

    #[test]
    fn argmax_output_width() {
        let net = zoo::tiny_mlp(4);
        let compiled = compile(&net, &small_options());
        assert_eq!(compiled.circuit.outputs().len(), 2, "4 classes -> 2 bits");
    }
}
