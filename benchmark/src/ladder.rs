//! The layer ladder: each layer timed alone, from outside, on the
//! workload's own circuit — so the rows can be summed and set against the
//! workload's end-to-end latency.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use deepsecure::bigint::DhGroup;
use deepsecure::core::compile::{evaluator_bit_count, plain_label};
use deepsecure::core::protocol::InferenceConfig;
use deepsecure::core::session::{ClientSession, MaterialSource, ServerSession};
use deepsecure::crypto::{Block, FixedKeyHash};
use deepsecure::garble::{Evaluator, Garbler};
use deepsecure::ot::ext::{ExtReceiver, ExtSender};
use deepsecure::ot::{mem_pair, tcp_pair, Channel, MemChannel};
use deepsecure::serve::client::ClientModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, Row};
use crate::trace::Tracer;

/// The streamed workloads' chunk size; the chunked channel probe uses it
/// on every workload so the rows compare.
pub const CHUNK_GATES: usize = 8192;

const HASHES: u64 = 1 << 22;
const MODEXPS: usize = 32;
const BASE_SETUPS: u64 = 3;
/// The garble + eval probe repeats until garbling alone took this long.
const PROBE_MIN_S: f64 = 1.0;

pub struct Ladder {
    pub rows: Vec<Row>,
    /// Seconds one op spends in each summed layer on this circuit.
    pub garble_s: f64,
    pub eval_s: f64,
    pub ext_s: f64,
    pub base_s: f64,
    /// Probe outputs that disagreed with their oracle.
    pub mismatches: u64,
}

/// Moves `blocks` from one endpoint to the other in `chunk`-block sends;
/// returns the wall seconds until the receiver holds them all.
fn channel_probe<A, B>(mut tx: A, mut rx: B, blocks: &[Block], chunk: usize) -> f64
where
    A: Channel,
    B: Channel + Send,
{
    let sizes: Vec<usize> = blocks.chunks(chunk).map(<[Block]>::len).collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            for n in sizes {
                black_box(rx.recv_blocks(n).expect("channel probe: receive"));
            }
        });
        for part in blocks.chunks(chunk) {
            tx.send_blocks(part).expect("channel probe: send");
        }
        tx.flush().expect("channel probe: flush");
        receiver.join().expect("channel probe receiver panicked");
    });
    t.elapsed().as_secs_f64()
}

/// One ladder probe: `f` inside a top-level span of its own.
fn probe<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.scope(name, None, 0, 0, |_| f())
}

pub fn run(model: &ClientModel, sample: usize, seed: u64, tracer: &Tracer) -> Ladder {
    let compiled = &model.demo.compiled;
    let circuit = &compiled.circuit;
    let nonfree = circuit.nonfree_gate_count() as u64;
    let input = &model.demo.dataset.inputs[sample];
    let g_bits = compiled.input_bits(input);
    let oracle = plain_label(compiled, &model.demo.net, input);
    let mut rows = Vec::new();
    let mut mismatches = 0u64;

    // crypto: the fixed-key hash, four at a time as the garbler calls it.
    let hash = FixedKeyHash::new();
    let hash_s = probe(tracer, "ladder.crypto.hash", || {
        let mut acc = [1u128, 2, 3, 4].map(Block::from);
        let t = Instant::now();
        for i in 0..HASHES / 4 {
            acc = hash.hash4(black_box(acc), [4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3]);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    });
    let hash_ns = hash_s * 1e9 / HASHES as f64;
    // Half-gates: four hashes to garble a gate, two to evaluate it.
    let hashes_per_op = 6 * nonfree;
    rows.push(Row::new(
        "crypto.hash_ns",
        "ns",
        hash_ns,
        hashes_per_op,
        hash_ns * hashes_per_op as f64 / 1e9,
    ));

    // garble + eval: whole-cycle garbling of this circuit, then the
    // evaluator on those tables. The two advance in lockstep (their gate
    // tweaks count cycles), so each repetition does one of each.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a7b1e);
    let mut garbler = Garbler::new(circuit, &mut rng);
    let mut evaluator = Evaluator::new(circuit);
    evaluator.set_initial_registers(garbler.initial_register_labels());
    let mut garble_runs = Vec::new();
    let mut eval_runs = Vec::new();
    let (cycle, e_labels) = loop {
        let t = Instant::now();
        let cycle = probe(tracer, "ladder.garble.garble_cycle", || {
            garbler.garble_cycle(&mut rng)
        });
        garble_runs.push(t.elapsed().as_secs_f64());
        evaluator.set_constant_labels(cycle.constant_labels[0], cycle.constant_labels[1]);
        let g_labels = cycle.garbler_active(&g_bits);
        let e_labels = cycle.evaluator_active(&model.weight_bits);
        let t = Instant::now();
        let out_bits = probe(tracer, "ladder.garble.eval_cycle", || {
            evaluator.eval_cycle(&cycle.tables, &g_labels, &e_labels, &cycle.output_decode)
        });
        eval_runs.push(t.elapsed().as_secs_f64());
        if compiled.decode_label(&out_bits) != oracle {
            mismatches += 1;
        }
        if garble_runs.iter().sum::<f64>() >= PROBE_MIN_S {
            break (cycle, e_labels);
        }
    };
    let garble_s = median(&garble_runs);
    let eval_s = median(&eval_runs);
    for (name, secs) in [
        ("garble.garble_ns_per_gate", garble_s),
        ("garble.eval_ns_per_gate", eval_s),
    ] {
        rows.push(Row::new(
            name,
            "ns",
            secs * 1e9 / nonfree as f64,
            nonfree,
            secs,
        ));
    }

    // bigint: one 768-bit modular exponentiation, the unit of base OT.
    let group = DhGroup::modp_768();
    let modexp_runs: Vec<f64> = probe(tracer, "ladder.bigint.modexp", || {
        (0..MODEXPS)
            .map(|_| {
                let exp = group.random_exponent(&mut rng);
                let t = Instant::now();
                black_box(group.pow(group.generator(), &exp));
                t.elapsed().as_secs_f64()
            })
            .collect()
    });
    rows.push(Row::median_of("bigint.modexp_us", "us", 1e6, &modexp_runs));

    // ot: base setup (both parties, in memory), then one extension batch
    // of this circuit's evaluator-input size on the last pair.
    let mut base_runs = Vec::new();
    let mut pair = None;
    probe(tracer, "ladder.ot.base_setup", || {
        for i in 0..BASE_SETUPS {
            let (mut ca, mut cb) = mem_pair();
            let t = Instant::now();
            let (sender, ca, receiver) = std::thread::scope(|s| {
                let group = &group;
                let h = s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xa11ce + i));
                    let sender =
                        ExtSender::setup(&mut ca, group, &mut rng).expect("base OT (sender)");
                    (sender, ca)
                });
                let mut rng = StdRng::seed_from_u64(seed ^ (0xb0b + i));
                let receiver =
                    ExtReceiver::setup(&mut cb, group, &mut rng).expect("base OT (receiver)");
                let (sender, ca) = h.join().expect("base OT sender panicked");
                (sender, ca, receiver)
            });
            base_runs.push(t.elapsed().as_secs_f64());
            pair = Some((sender, ca, receiver, cb));
        }
    });
    let (mut sender, mut ca, mut receiver, mut cb) = pair.expect("base setup ran");
    let wire = |c: &MemChannel| c.bytes_sent() + c.bytes_received();
    let base_bytes = wire(&ca);
    let base_s = median(&base_runs);
    rows.push(Row::median_of("ot.base_setup_ms", "ms", 1e3, &base_runs));
    rows.push(Row::new("ot.base_bytes", "B", base_bytes as f64, 1, 0.0));

    let ots = evaluator_bit_count(compiled) as u64;
    let ext_s = probe(tracer, "ladder.ot.ext", || {
        let t = Instant::now();
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| {
                sender
                    .send(&mut ca, &cycle.evaluator_input_labels)
                    .expect("OT extension (send)");
            });
            let got = receiver
                .receive(&mut cb, &model.weight_bits)
                .expect("OT extension (receive)");
            h.join().expect("OT extension sender panicked");
            got
        });
        if got != e_labels {
            mismatches += 1;
        }
        t.elapsed().as_secs_f64()
    });
    let ext_bytes = wire(&ca) - base_bytes;
    rows.push(Row::new(
        "ot.ext_ns_per_ot",
        "ns",
        ext_s * 1e9 / ots as f64,
        ots,
        ext_s,
    ));
    rows.push(Row::new("ot.ext_ots_per_op", "count", ots as f64, ots, 0.0));
    rows.push(Row::new(
        "ot.ext_bytes_per_ot",
        "B",
        ext_bytes as f64 / ots as f64,
        ots,
        0.0,
    ));

    // Channel: this circuit's table bytes over loopback TCP in streaming
    // chunks and whole, and over the in-memory pair.
    let tables = &cycle.tables;
    let table_bytes = (tables.len() * 16) as u64;
    let chunk_blocks = 2 * CHUNK_GATES;
    let tcp = || tcp_pair().expect("loopback TCP pair");
    let channel_rows = [
        (
            "ot.channel_mb_s",
            probe(tracer, "ladder.ot.channel_tcp_chunked", || {
                let (a, b) = tcp();
                channel_probe(a, b, tables, chunk_blocks)
            }),
        ),
        (
            "ot.channel_whole_mb_s",
            probe(tracer, "ladder.ot.channel_tcp_whole", || {
                let (a, b) = tcp();
                channel_probe(a, b, tables, tables.len().max(1))
            }),
        ),
        (
            "ot.channel_mem_mb_s",
            probe(tracer, "ladder.ot.channel_mem", || {
                let (a, b) = mem_pair();
                channel_probe(a, b, tables, chunk_blocks)
            }),
        ),
    ];
    for (name, secs) in channel_rows {
        let mb_s = table_bytes as f64 / 1e6 / secs;
        rows.push(Row::new(name, "MB/s", mb_s, table_bytes, secs));
    }
    drop(cycle);

    // core: one buffered online inference over the in-memory pair with
    // the garbling live, so what is left after subtracting the garble,
    // eval and OT-extension rows is the session layer's own cost.
    let cfg = InferenceConfig {
        seed,
        chunk_gates: 0,
        threads: 1,
        ..InferenceConfig::default()
    };
    let online_s = probe(tracer, "ladder.core.session_online", || {
        let (mut ca, mut cb) = mem_pair();
        let epoch = Instant::now();
        let server = ServerSession::new(Arc::clone(compiled), &cfg);
        let client = ClientSession::new(Arc::clone(compiled), &cfg);
        let e_bits = std::slice::from_ref(&model.weight_bits);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut setup = server.setup(&mut cb).expect("session setup (evaluator)");
                server
                    .run_online(&mut cb, &mut setup, e_bits, epoch)
                    .expect("session online (evaluator)");
            });
            let mut setup = client
                .setup(&mut ca, epoch)
                .expect("session setup (garbler)");
            let source = MaterialSource::Live {
                n_cycles: 1,
                seed: seed ^ 0x11fe,
            };
            let t = Instant::now();
            let out = client
                .run_online(
                    &mut ca,
                    &mut setup,
                    source,
                    std::slice::from_ref(&g_bits),
                    epoch,
                )
                .expect("session online (garbler)");
            let online_s = t.elapsed().as_secs_f64();
            h.join().expect("session evaluator panicked");
            if out.label != oracle {
                mismatches += 1;
            }
            online_s
        })
    });
    rows.push(Row::new(
        "core.session_online_s",
        "s",
        online_s,
        1,
        online_s,
    ));
    let residual_s = online_s - (garble_s + eval_s + ext_s);
    rows.push(Row::new("core.session_residual_s", "s", residual_s, 1, 0.0));

    Ladder {
        rows,
        garble_s,
        eval_s,
        ext_s,
        base_s,
        mismatches,
    }
}
