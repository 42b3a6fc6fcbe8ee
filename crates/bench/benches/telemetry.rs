//! Telemetry overhead: the disabled sink must cost next to nothing on
//! the hot paths (one relaxed atomic load per `span!`), and flipping the
//! sink on must not move end-to-end protocol time beyond noise.
//!
//! Three layers:
//!   * primitive costs — span guard (sink off/on), counter add,
//!     histogram record;
//!   * `and_chain` garbling — an uninstrumented hot loop, shown
//!     indifferent to the sink flag;
//!   * the full instrumented protocol (tiny_mlp over `mem_pair`, whose
//!     sessions emit per-phase and per-chunk spans) off vs. on.
//!
//! End to end, `dsbench --trace 1` reports the same off-vs-on delta as
//! `trace.overhead_pct` (see `benchmark/README.md`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use deepsecure_circuit::Builder;
use deepsecure_core::compile::{compile, CompileOptions};
use deepsecure_core::protocol::{run_compiled, InferenceConfig};
use deepsecure_garble::execute_locally;
use deepsecure_nn::{data, zoo};
use deepsecure_synth::activation::Activation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::{Counter, Histogram};

fn and_chain(rounds: usize) -> deepsecure_circuit::Circuit {
    let mut b = Builder::new();
    let xs = b.garbler_inputs(64);
    let ys = b.evaluator_inputs(64);
    let mut acc = xs.clone();
    for round in 0..rounds {
        for i in 0..64 {
            acc[i] = b.and(acc[i], ys[(i + round) % 64]);
        }
        acc.rotate_left(1);
    }
    b.outputs(&acc);
    b.finish()
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");

    telemetry::set_enabled(false);
    group.bench_function("span_guard_disabled", |bench| {
        bench.iter(|| telemetry::span!("bench.op"));
    });
    telemetry::set_enabled(true);
    group.bench_function("span_guard_enabled", |bench| {
        bench.iter(|| telemetry::span!("bench.op"));
    });
    telemetry::set_enabled(false);
    telemetry::reset();

    static COUNTER: Counter = Counter::new();
    group.bench_function("counter_add", |bench| {
        bench.iter(|| COUNTER.add(3));
    });
    let hist = Histogram::new();
    group.bench_function("histogram_record", |bench| {
        let mut v = 1u64;
        bench.iter(|| {
            hist.record(v);
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) >> 33;
        });
    });
    group.finish();
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);

    // An uninstrumented garbling hot loop: the sink flag must be
    // invisible here (no spans fire either way).
    let chain = and_chain(400);
    let g = vec![true; 64];
    let e: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
    for (name, enabled) in [("and_chain_off", false), ("and_chain_on", true)] {
        telemetry::set_enabled(enabled);
        group.bench_function(name, |bench| {
            let mut rng = StdRng::seed_from_u64(1);
            bench.iter(|| execute_locally(&chain, &g, &e, 1, &mut rng));
        });
        telemetry::set_enabled(false);
        telemetry::reset();
    }

    // The instrumented end-to-end protocol: sessions bracket every phase
    // and every streamed chunk with spans, so this is the worst case for
    // "telemetry on".
    let set = data::digits_small(4, 1);
    let net = zoo::tiny_mlp(set.num_classes);
    let cfg = InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        ..InferenceConfig::default()
    };
    let compiled = Arc::new(compile(&net, &cfg.options));
    let weight_bits = compiled.weight_bits(&net);
    let input_bits = compiled.input_bits(&set.inputs[0]);
    for (name, enabled) in [("protocol_off", false), ("protocol_on", true)] {
        telemetry::set_enabled(enabled);
        group.bench_function(name, |bench| {
            bench.iter(|| {
                run_compiled(
                    Arc::clone(&compiled),
                    vec![input_bits.clone()],
                    vec![weight_bits.clone()],
                    &cfg,
                )
                .unwrap()
            });
        });
        telemetry::set_enabled(false);
        telemetry::reset();
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_overhead);
criterion_main!(benches);
