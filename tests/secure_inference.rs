//! Cross-crate integration: full two-party and three-party secure
//! inference against plaintext oracles.

use deepsecure::core::compile::{compile, plain_label, CompileOptions};
use deepsecure::core::outsource::run_outsourced_inference;
use deepsecure::core::protocol::{run_secure_inference, InferenceConfig};
use deepsecure::nn::train::TrainConfig;
use deepsecure::nn::{data, train, zoo, Network};
use deepsecure::synth::activation::Activation;

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

fn trained_mlp() -> (Network, deepsecure::nn::data::Dataset) {
    let set = data::digits_small(64, 100);
    let (train_set, test) = set.split_validation(16);
    let mut net = zoo::tiny_mlp(train_set.num_classes);
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 25,
            lr: 0.1,
            seed: 9,
        },
    );
    (net, test)
}

#[test]
fn secure_label_equals_fixed_point_oracle() {
    let (net, test) = trained_mlp();
    let cfg = fast_cfg();
    let compiled = compile(&net, &cfg.options);
    for x in test.inputs.iter().take(4) {
        let report = run_secure_inference(&net, x, &cfg).expect("protocol");
        assert_eq!(report.label, plain_label(&compiled, &net, x));
    }
}

#[test]
fn secure_accuracy_tracks_float_accuracy() {
    let (net, test) = trained_mlp();
    let cfg = fast_cfg();
    let n = 8.min(test.len());
    let mut secure_hits = 0usize;
    let mut float_hits = 0usize;
    for (x, &y) in test.inputs.iter().zip(&test.labels).take(n) {
        let report = run_secure_inference(&net, x, &cfg).expect("protocol");
        secure_hits += usize::from(report.label == y);
        float_hits += usize::from(net.predict(x) == y);
    }
    assert!(
        secure_hits + 2 >= float_hits,
        "secure {secure_hits}/{n} vs float {float_hits}/{n}"
    );
}

#[test]
fn outsourced_equals_direct() {
    let (net, test) = trained_mlp();
    let cfg = fast_cfg();
    for x in test.inputs.iter().take(2) {
        let direct = run_secure_inference(&net, x, &cfg).expect("direct");
        let outsourced = run_outsourced_inference(&net, x, &cfg).expect("outsourced");
        assert_eq!(direct.label, outsourced.label);
        // Client upload in outsourced mode is orders of magnitude below the
        // garbler's upload in direct mode.
        assert!(outsourced.client_bytes * 50 < direct.client_sent);
    }
}

#[test]
fn cnn_pipeline_end_to_end() {
    let set = data::digits_small(48, 101);
    let (train_set, test) = set.split_validation(12);
    let mut net = zoo::tiny_cnn(train_set.num_classes);
    train::train(
        &mut net,
        &train_set,
        &TrainConfig {
            epochs: 15,
            lr: 0.05,
            seed: 10,
        },
    );
    let cfg = fast_cfg();
    let compiled = compile(&net, &cfg.options);
    let x = &test.inputs[0];
    let report = run_secure_inference(&net, x, &cfg).expect("protocol");
    assert_eq!(report.label, plain_label(&compiled, &net, x));
    // Communication accounting: tables dominate and match the non-XOR count.
    assert_eq!(
        report.wire.tables,
        compiled.circuit.stats().non_xor * 32,
        "2 x 16-byte rows per non-XOR gate"
    );
}

#[test]
fn pruned_model_still_infers_securely() {
    let (mut net, test) = trained_mlp();
    deepsecure::nn::prune::magnitude_prune(&mut net, 0.6);
    let cfg = fast_cfg();
    let compiled = compile(&net, &cfg.options);
    let x = &test.inputs[0];
    let report = run_secure_inference(&net, x, &cfg).expect("protocol");
    assert_eq!(report.label, plain_label(&compiled, &net, x));
}

#[test]
fn secure_inference_over_tcp_loopback_matches_in_memory() {
    // The full protocol over a real socket pair on an ephemeral loopback
    // port, via the same channel-generic sessions the in-memory runner
    // uses: the decoded label must match the plaintext oracle, and the
    // wire-byte accounting must be identical to the MemChannel run.
    use deepsecure::core::protocol::{run_compiled, run_compiled_over};
    use deepsecure::ot::tcp_pair;
    use std::sync::Arc;

    let (net, test) = trained_mlp();
    let cfg = fast_cfg();
    let compiled = Arc::new(compile(&net, &cfg.options));
    let x = &test.inputs[0];
    let g_bits = vec![compiled.input_bits(x)];
    let e_bits = vec![compiled.weight_bits(&net)];

    let mem = run_compiled(Arc::clone(&compiled), g_bits.clone(), e_bits.clone(), &cfg)
        .expect("in-memory run");
    let (chan_client, chan_server) = tcp_pair().expect("loopback pair");
    let tcp = run_compiled_over(
        Arc::clone(&compiled),
        g_bits,
        e_bits,
        &cfg,
        chan_client,
        chan_server,
    )
    .expect("tcp run");

    assert_eq!(tcp.label, plain_label(&compiled, &net, x));
    assert_eq!(tcp.label, mem.label);
    // Transport must not change what crosses the wire, only how.
    assert_eq!(tcp.client_sent, mem.client_sent);
    assert_eq!(tcp.server_sent, mem.server_sent);
    assert_eq!(tcp.wire, mem.wire);
    assert_eq!(tcp.wire.total(), tcp.client_sent + tcp.server_sent);
}

#[test]
fn streamed_dense_layer_on_folded_mac() {
    // §3.5 end to end: a whole dense layer streamed through the constant-
    // size MAC core over the real protocol, one weight per clock cycle.
    use deepsecure::core::compile::{folded_mac, CompileOptions, Compiled};
    use deepsecure::core::protocol::run_compiled;
    use deepsecure::fixed::{Fixed, Format};
    use deepsecure::synth::matvec::mac_schedule;
    use std::sync::Arc;

    let q = Format::Q3_12;
    let inputs: Vec<Fixed> = [0.5, -1.0, 2.0, 0.25]
        .iter()
        .map(|&v| Fixed::from_f64(v, q))
        .collect();
    let weights: Vec<Vec<Fixed>> = [
        [1.0, 0.5, 0.25, -1.0],
        [-1.0, 2.0, 0.125, 0.5],
        [0.75, -0.5, 1.0, 2.0],
    ]
    .iter()
    .map(|row| row.iter().map(|&v| Fixed::from_f64(v, q)).collect())
    .collect();
    let plan = mac_schedule(&inputs, &weights);
    let compiled = Arc::new(Compiled {
        circuit: folded_mac(&CompileOptions::default()),
        weight_order: Vec::new(),
        format: q,
    });
    let cfg = fast_cfg();
    let report = run_compiled(compiled, plan.garbler, plan.evaluator, &cfg).expect("protocol");
    for (o, &cycle) in plan.outputs_at.iter().enumerate() {
        let got = Fixed::from_raw(q.wrap(report.cycle_labels[cycle] as i64), q);
        let want = inputs
            .iter()
            .zip(&weights[o])
            .map(|(x, w)| x.mul(*w))
            .fold(Fixed::zero(q), |a, p| a.add(p));
        assert_eq!(got, want, "neuron {o}");
    }
    // The whole layer used one constant-size table bundle per cycle.
    assert_eq!(report.cycle_labels.len(), inputs.len() * weights.len());
}
