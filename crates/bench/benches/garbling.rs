//! Garbling throughput (§4.4): gates per second for XOR-heavy and
//! AND-heavy circuits, plus the β-coefficient calibration of §4.3.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use deepsecure_circuit::Builder;
use deepsecure_crypto::{Block, FixedKeyHash};
use deepsecure_garble::execute_locally;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chain_circuit(and_heavy: bool, rounds: usize) -> deepsecure_circuit::Circuit {
    let mut b = Builder::new();
    let xs = b.garbler_inputs(64);
    let ys = b.evaluator_inputs(64);
    let mut acc = xs.clone();
    for round in 0..rounds {
        for i in 0..64 {
            let other = ys[(i + round) % 64];
            acc[i] = if and_heavy {
                b.and(acc[i], other)
            } else {
                b.xor(acc[i], other)
            };
        }
        acc.rotate_left(1);
    }
    b.outputs(&acc);
    b.finish()
}

/// The fixed-key hash four at a time, as the garbler calls it, on the
/// backend this host selects and on the portable fallback. Each call feeds
/// the next, so the rows read as latency per `hash4`.
fn bench_hash4(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    group.throughput(Throughput::Elements(4));
    let selected = FixedKeyHash::new();
    println!(
        "aes/hash4_hw runs on the {} backend",
        selected.backend_name()
    );
    for (name, hash) in [
        ("hash4_hw", selected),
        ("hash4_portable", FixedKeyHash::portable()),
    ] {
        group.bench_function(name, |bench| {
            let mut acc = [1u128, 2, 3, 4].map(Block::from);
            bench.iter(|| {
                acc = hash.hash4(black_box(acc), [0, 1, 2, 3]);
                acc
            });
        });
    }
    group.finish();
}

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

/// Garbling alone on `and_chain`, as clocks per non-XOR gate at the host's
/// nominal clock — the unit of the paper's 164.
fn report_clks_per_gate() {
    let circuit = chain_circuit(true, 400);
    let nonfree = circuit.nonfree_gate_count() as f64;
    let mut rng = StdRng::seed_from_u64(3);
    let mut garbler = deepsecure_garble::Garbler::new(&circuit, &mut rng);
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t = Instant::now();
        black_box(garbler.garble_cycle(&mut rng));
        best = best.min(t.elapsed().as_secs_f64());
    }
    let ns = best * 1e9 / nonfree;
    match nominal_ghz() {
        Some(ghz) => println!(
            "and_chain garbling: {ns:.1} ns/gate = {:.0} clks/gate at the nominal {ghz:.2} GHz (paper, AES-NI: 164)",
            ns * ghz
        ),
        None => println!(
            "and_chain garbling: {ns:.1} ns/gate (no nominal clock in /proc/cpuinfo; paper, AES-NI: 164 clks/gate)"
        ),
    }
}

fn bench_garbling(c: &mut Criterion) {
    let mut group = c.benchmark_group("garbling");
    group.sample_size(10);
    for (name, and_heavy) in [("xor_chain", false), ("and_chain", true)] {
        let circuit = chain_circuit(and_heavy, 400);
        let total = circuit.stats().total();
        group.throughput(Throughput::Elements(total));
        let g = vec![true; 64];
        let e: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
        group.bench_function(name, |bench| {
            let mut rng = StdRng::seed_from_u64(1);
            bench.iter(|| execute_locally(&circuit, &g, &e, 1, &mut rng));
        });
    }
    group.finish();
    report_clks_per_gate();

    // Report the measured β coefficients once per run.
    let mut rng = StdRng::seed_from_u64(2);
    let timings = deepsecure_core::cost::calibrate(3.4e9, &mut rng);
    println!(
        "calibrated gate timings @3.4GHz-equivalent: XOR {:.0} clks, non-XOR {:.0} clks (paper: 62 / 164)",
        timings.xor_clks, timings.non_xor_clks
    );
}

criterion_group!(benches, bench_hash4, bench_garbling);
criterion_main!(benches);
