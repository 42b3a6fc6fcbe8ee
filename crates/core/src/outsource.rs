//! Secure outsourcing for constrained clients (§3.3).
//!
//! The client cannot afford to garble, so it XOR-shares its input:
//! a random pad `s` goes to the **proxy** (who garbles, using `s` as its
//! own garbler input) and `x ⊕ s` goes to the **main server** (who
//! evaluates, feeding `x ⊕ s` through OT alongside its weights). One layer
//! of XOR gates at the circuit mouth reconstructs `x = (x⊕s) ⊕ s` — free
//! under Free-XOR, so "almost the same computation and communication
//! overhead as the original scheme".
//!
//! Security rests on Proposition 3.2: each share alone is uniform, so
//! neither non-colluding server learns anything about `x`.

use std::sync::Arc;

use deepsecure_circuit::Builder;
use deepsecure_nn::{Network, Tensor};
use deepsecure_synth::activation::softmax_argmax;
use deepsecure_synth::{word, Word};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::compile::{build_layers, CompileOptions, Compiled};
use crate::protocol::{run_compiled, InferenceConfig, InferenceReport, ProtocolError};

/// Compiles a network for the outsourced setting: the garbler (proxy)
/// holds the pad share, the evaluator (server) holds the other share
/// *followed by* the weights, and a free XOR layer reconstructs the input.
pub fn compile_outsourced(net: &Network, opts: &CompileOptions) -> Compiled {
    let bits = opts.format.total_bits() as usize;
    let input_len: usize = net.input_shape.iter().product();
    let mut b = Builder::new();
    let pad_words: Vec<Word> = (0..input_len)
        .map(|_| word::garbler_word(&mut b, bits))
        .collect();
    let masked_words: Vec<Word> = (0..input_len)
        .map(|_| word::evaluator_word(&mut b, bits))
        .collect();
    // x = (x ⊕ s) ⊕ s — one free XOR layer (§3.3).
    let values: Vec<Word> = pad_words
        .iter()
        .zip(&masked_words)
        .map(|(s, m)| word::xor(&mut b, s, m))
        .collect();
    let (logits, weight_order) = build_layers(&mut b, net, values, opts);
    let label = softmax_argmax(&mut b, &logits);
    word::output_word(&mut b, &label);
    Compiled {
        circuit: b.finish(),
        weight_order,
        format: opts.format,
    }
}

/// The client-side share generation: quantizes the sample, samples a
/// uniform pad, and returns `(pad, masked)` bit vectors.
pub fn share_input<R: Rng + ?Sized>(
    compiled: &Compiled,
    x: &Tensor,
    rng: &mut R,
) -> (Vec<bool>, Vec<bool>) {
    let plain = compiled.input_bits(x);
    let pad: Vec<bool> = (0..plain.len()).map(|_| rng.gen()).collect();
    let masked: Vec<bool> = plain.iter().zip(&pad).map(|(&p, &s)| p ^ s).collect();
    (pad, masked)
}

/// Report of an outsourced inference.
#[derive(Clone, Debug)]
pub struct OutsourcedReport {
    /// The inference label (returned to the client by the proxy).
    pub label: usize,
    /// Client upload: the two shares (versus garbling the whole circuit).
    pub client_bytes: u64,
    /// The proxy↔server protocol report.
    pub inner: InferenceReport,
}

/// Runs the three-party outsourced inference: client shares its input,
/// proxy garbles, server evaluates.
///
/// # Errors
///
/// Returns [`ProtocolError`] on channel/OT failure.
pub fn run_outsourced_inference(
    net: &Network,
    sample: &Tensor,
    cfg: &InferenceConfig,
) -> Result<OutsourcedReport, ProtocolError> {
    let compiled = Arc::new(compile_outsourced(net, &cfg.options));
    // Client: generate shares (the only computation it performs, §3.3).
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc11e);
    let (pad, masked) = share_input(&compiled, sample, &mut rng);
    let client_bytes = (pad.len() + masked.len()) as u64 / 8;
    // Server's evaluator input stream: its share of x, then the weights.
    let mut evaluator_bits = masked;
    evaluator_bits.extend(compiled.weight_bits(net));
    // Proxy (garbler) runs with the pad as its input.
    let inner = run_compiled(Arc::clone(&compiled), vec![pad], vec![evaluator_bits], cfg)?;
    Ok(OutsourcedReport {
        label: inner.label,
        client_bytes,
        inner,
    })
}

#[cfg(test)]
mod tests {
    use deepsecure_nn::{data, train, zoo};
    use deepsecure_synth::activation::Activation;

    use crate::compile::{compile, plain_label};

    use super::*;

    fn fast_cfg() -> InferenceConfig {
        InferenceConfig {
            options: CompileOptions {
                tanh: Activation::TanhPl,
                sigmoid: Activation::SigmoidPlan,
                ..CompileOptions::default()
            },
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn outsourced_inference_matches_direct() {
        let set = data::digits_small(32, 41);
        let mut net = zoo::tiny_mlp(set.num_classes);
        train::train(
            &mut net,
            &set,
            &train::TrainConfig {
                epochs: 20,
                lr: 0.1,
                seed: 6,
            },
        );
        let cfg = fast_cfg();
        let direct = compile(&net, &cfg.options);
        for x in set.inputs.iter().take(2) {
            let report = run_outsourced_inference(&net, x, &cfg).unwrap();
            assert_eq!(report.label, plain_label(&direct, &net, x));
        }
    }

    #[test]
    fn xor_layer_is_free() {
        let net = zoo::tiny_mlp(4);
        let opts = fast_cfg().options;
        let direct = compile(&net, &opts).circuit.stats();
        let outsourced = compile_outsourced(&net, &opts).circuit.stats();
        assert_eq!(
            direct.non_xor, outsourced.non_xor,
            "XOR reconstruction layer must add no non-XOR gates"
        );
        assert!(outsourced.xor >= direct.xor, "adds only free gates");
    }

    #[test]
    fn shares_reconstruct_and_look_uniform() {
        let net = zoo::tiny_mlp(4);
        let opts = fast_cfg().options;
        let compiled = compile_outsourced(&net, &opts);
        let x = data::digits_small(1, 43).inputs.remove(0);
        let mut rng = StdRng::seed_from_u64(7);
        let (pad, masked) = share_input(&compiled, &x, &mut rng);
        let plain: Vec<bool> = compiled.input_bits(&x);
        for ((p, m), orig) in pad.iter().zip(&masked).zip(&plain) {
            assert_eq!(p ^ m, *orig);
        }
        // Pad balance: roughly half ones.
        let ones = pad.iter().filter(|&&b| b).count();
        assert!((pad.len() / 3..2 * pad.len() / 3).contains(&ones));
    }

    #[test]
    fn shares_of_every_sample_reconstruct_it() {
        // Prop. 3.2: pad ⊕ masked is the quantized sample, for each of
        // several samples and pads.
        let compiled = compile_outsourced(&zoo::tiny_mlp(4), &fast_cfg().options);
        for (seed, x) in data::digits_small(8, 5).inputs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let (pad, masked) = share_input(&compiled, x, &mut rng);
            let back: Vec<bool> = pad.iter().zip(&masked).map(|(p, m)| p ^ m).collect();
            assert_eq!(back, compiled.input_bits(x));
        }
    }

    #[test]
    fn shares_of_an_all_zero_sample_are_balanced() {
        // Prop. 3.2's worst case: with a fixed all-zero input both shares
        // must still look uniform, since the pad is fresh randomness and
        // the masked share is a one-time-pad ciphertext of zero.
        let compiled = compile_outsourced(&zoo::tiny_mlp(4), &fast_cfg().options);
        let x = data::digits_small(1, 43).inputs.remove(0);
        let zero = Tensor::zeros(x.shape());
        assert!(compiled.input_bits(&zero).iter().all(|&b| !b));
        let mut rng = StdRng::seed_from_u64(6);
        let (pad, masked) = share_input(&compiled, &zero, &mut rng);
        for (name, share) in [("pad", &pad), ("masked", &masked)] {
            let ones = share.iter().filter(|&&b| b).count();
            assert!(
                (share.len() / 3..2 * share.len() / 3).contains(&ones),
                "{name} ones = {ones} out of {}",
                share.len()
            );
        }
        assert_eq!(pad, masked, "x = 0 ⇒ masked == pad (OTP of zero)");
    }

    #[test]
    fn a_fixed_pad_masks_samples_one_to_one() {
        // Under one pad the masked shares of two samples differ exactly
        // where the samples' bits differ: sharing is a bijection for a
        // fixed pad, losing and leaking nothing asymmetrically.
        let compiled = compile_outsourced(&zoo::tiny_mlp(4), &fast_cfg().options);
        let set = data::digits_small(2, 7);
        let (x1, x2) = (&set.inputs[0], &set.inputs[1]);
        let (pad1, m1) = share_input(&compiled, x1, &mut StdRng::seed_from_u64(7));
        let (pad2, m2) = share_input(&compiled, x2, &mut StdRng::seed_from_u64(7));
        assert_eq!(pad1, pad2, "same seed, same pad");
        let (b1, b2) = (compiled.input_bits(x1), compiled.input_bits(x2));
        assert_ne!(b1, b2, "the two samples differ");
        for i in 0..b1.len() {
            assert_eq!(m1[i] ^ m2[i], b1[i] ^ b2[i], "bit {i}");
        }
    }

    #[test]
    fn client_cost_is_tiny() {
        let set = data::digits_small(4, 47);
        let net = zoo::tiny_mlp(set.num_classes);
        let report = run_outsourced_inference(&net, &set.inputs[0], &fast_cfg()).unwrap();
        assert!(
            report.client_bytes * 100 < report.inner.client_sent,
            "client sends {} vs proxy {}",
            report.client_bytes,
            report.inner.client_sent
        );
    }
}
