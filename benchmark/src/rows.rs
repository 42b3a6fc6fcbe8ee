//! From a measurement to the reported rows: the correctness gate, the
//! end-to-end metrics, and (traced run) the per-layer rows with the ladder.

use std::collections::BTreeMap;

use deepsecure::core::compile::plain_label;
use deepsecure::serve::client::ClientModel;
use deepsecure::serve::pool::PoolStats;
use deepsecure::serve::stats::ServeStats;

use crate::host::{self, Host};
use crate::ladder;
use crate::report::{quantile, share, Row, WorkloadResult, LAYERS};
use crate::trace::Tracer;
use crate::workload::{self, Measured, OpRecord, RunOpts, Shape, Spec, SMOKE_OPS};

/// `latency_p90_s` is reported only with at least this many timed ops.
const P90_MIN_N: usize = 100;
const WAN_BITS_PER_S: f64 = 40e6;

/// The ops that passed the correctness gate, and what failed it.
struct Checked<'a> {
    good: Vec<&'a OpRecord>,
    attempted: u64,
    failed: u64,
    /// Ops that returned an error (a subset of `failed`).
    errors: u64,
    /// Wire bytes of each good op; they must all be equal.
    wires: Vec<u64>,
}

/// Every label against the plaintext oracle, every op's table bytes
/// against the compiled circuit.
fn check<'a>(
    spec: &Spec,
    model: &ClientModel,
    per_client: &'a [(Vec<OpRecord>, f64)],
    table_bytes: u64,
) -> Checked<'a> {
    let model = &model.demo;
    let mut oracle: BTreeMap<usize, usize> = BTreeMap::new();
    let mut checked = Checked {
        good: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: 0,
        wires: Vec::new(),
    };
    for rec in per_client.iter().flat_map(|(records, _)| records) {
        checked.attempted += 1;
        match &rec.out {
            Err(e) => {
                checked.errors += 1;
                checked.failed += 1;
                eprintln!("{}: op failed: {e}", spec.name);
            }
            Ok(out) => {
                let want = *oracle.entry(rec.sample).or_insert_with(|| {
                    plain_label(
                        &model.compiled,
                        &model.net,
                        &model.dataset.inputs[rec.sample],
                    )
                });
                if out.label != want || out.tables != table_bytes {
                    checked.failed += 1;
                    eprintln!(
                        "{}: sample {}: label {} (oracle {want}), table bytes {} (circuit {table_bytes})",
                        spec.name, rec.sample, out.label, out.tables
                    );
                } else {
                    checked.wires.push(out.wire);
                    checked.good.push(rec);
                }
            }
        }
    }
    checked
}

/// The `serve.*` rows: counter deltas over the timed part.
fn serve_rows(
    spec: &Spec,
    serve: &Option<[(ServeStats, PoolStats); 2]>,
    session_connects: &[f64],
    checked: &Checked<'_>,
    rows: &mut Vec<Row>,
) {
    let Some([(s0, p0), (s1, p1)]) = serve else {
        return;
    };
    let outs = || checked.good.iter().filter_map(|r| r.out.as_ref().ok());
    let connects: Vec<f64> = if spec.shape == Shape::Fresh {
        outs().filter_map(|o| o.connect_s).collect()
    } else {
        session_connects.to_vec()
    };
    rows.push(Row::median_of("serve.setup_ms", "ms", 1e3, &connects));
    rows.push(Row::new(
        "serve.server_setup_ms",
        "ms",
        s1.setup_us.mean() / 1e3,
        s1.setup_us.count(),
        s1.setup_us.sum() as f64 / 1e6,
    ));
    let hits = p1.material_hits - p0.material_hits;
    let takes = hits + p1.material_misses - p0.material_misses;
    rows.push(Row::new(
        "serve.pool_hit_share",
        "ratio",
        share(hits as f64, takes as f64),
        takes,
        0.0,
    ));
    let shed = |s: &ServeStats| s.shed_queue_full + s.shed_model_limit + s.shed_live_capacity;
    rows.push(Row::count("serve.pool_produced", p1.produced - p0.produced));
    rows.push(Row::count(
        "serve.live_takes",
        p1.live_takes - p0.live_takes,
    ));
    rows.push(Row::count("serve.shed", shed(s1) - shed(s0)));
    rows.push(Row::count("serve.retries", outs().map(|o| o.retries).sum()));
    rows.push(Row::count(
        "serve.failed",
        s1.sessions_failed - s0.sessions_failed + checked.errors,
    ));
}

pub fn run(spec: &Spec, opts: &RunOpts, host: &Host) -> WorkloadResult {
    let clients = spec.clients.min(host.nproc).max(1);
    let mut notes = vec![format!("why: {}", spec.why)];
    if clients < spec.clients {
        notes.push(format!(
            "undersized: {} core(s), ran {clients} of {} client sessions — not a capacity number",
            host.nproc, spec.clients
        ));
    }
    if spec.shape == Shape::SimWan {
        notes.push(
            "simulated link: SimChannel 40 Mbps / 40 ms over an in-memory pair, not a real network"
                .to_string(),
        );
    }
    if opts.smoke {
        notes.push(format!(
            "smoke: {SMOKE_OPS} ops per client, one set-up — a schema check, not a measurement"
        ));
    }

    let tracer = opts.trace.then(Tracer::new);
    let Measured {
        world,
        setup_runs,
        compile_runs,
        per_client,
        serve,
        cpu_s: (user, sys),
    } = workload::measure(spec, opts, clients, tracer.as_ref());
    let nonfree = world.model.demo.compiled.circuit.nonfree_gate_count() as u64;
    let table_bytes = nonfree * 32;
    let checked = check(spec, &world.model, &per_client, table_bytes);
    let wire_repeats = checked.wires.windows(2).all(|w| w[0] == w[1]);
    if !wire_repeats {
        notes.push("wire bytes differ between ops of one workload".to_string());
    }

    let timed: Vec<&OpRecord> = checked.good.iter().copied().filter(|r| r.timed).collect();
    // In a traced run the end-to-end figures come from the untraced half.
    let latencies = |traced: bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency_s)
            .collect()
    };
    let untraced = latencies(false);
    let throughput: f64 = per_client
        .iter()
        .enumerate()
        .map(|(k, (_, wall))| timed.iter().filter(|r| r.client == k).count() as f64 / wall)
        .sum();
    let wire_per_op = share(
        checked.wires.iter().sum::<u64>() as f64,
        checked.wires.len() as f64,
    );
    let peak = checked
        .good
        .iter()
        .filter_map(|r| r.out.as_ref().ok())
        .map(|o| o.peak)
        .max()
        .unwrap_or(0);

    let digits = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("set-up runs, s: {}", digits(&setup_runs)));
    notes.push(format!(
        "latency min / p25 / p50 / p75 / max, s: {}",
        digits(&[0.0, 0.25, 0.5, 0.75, 1.0].map(|q| quantile(&untraced, q)))
    ));
    let latency = Row::median_of("latency_p50_s", "s", 1.0, &untraced);
    let e2e = vec![
        Row::median_of("setup_s", "s", 1.0, &setup_runs),
        latency.clone(),
        Row::new(
            "throughput_rps",
            "ops/s",
            throughput,
            timed.len() as u64,
            0.0,
        ),
        Row::new(
            "wire_bytes_per_op",
            "B",
            wire_per_op,
            checked.wires.len() as u64,
            0.0,
        ),
    ];
    let mut diag = Vec::new();
    if untraced.len() >= P90_MIN_N {
        diag.push(Row::new(
            "diag.latency_p90_s",
            "s",
            quantile(&untraced, 0.9),
            latency.n,
            0.0,
        ));
    }
    diag.push(Row::new(
        "failed_share",
        "ratio",
        share(checked.failed as f64, checked.attempted as f64),
        checked.attempted,
        0.0,
    ));
    let counts = [
        Row::new("core.nonfree_gates", "count", nonfree as f64, 1, 0.0),
        Row::new("core.table_bytes", "B", table_bytes as f64, 1, 0.0),
        Row::new(
            "core.peak_table_bytes",
            "B",
            peak as f64,
            checked.good.len() as u64,
            0.0,
        ),
    ];

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    let mut ladder_mismatches = 0;
    if let Some(tracer) = &tracer {
        let mut rows: Vec<Row> = counts.to_vec();
        rows.push(Row::median_of("core.compile_s", "s", 1.0, &compile_runs));
        let traced = Row::median_of("trace.latency_p50_s", "s", 1.0, &latencies(true));
        let t_p50 = traced.value;
        rows.push(traced);
        rows.push(Row::new(
            "trace.overhead_pct",
            "%",
            (share(t_p50, latency.value) - 1.0) * 100.0,
            latency.n,
            0.0,
        ));
        if spec.shape == Shape::SimWan {
            // Computed from the byte count, not measured.
            let floor = wire_per_op * 8.0 / WAN_BITS_PER_S;
            rows.push(Row::new("core.wan_floor_s", "s", floor, 1, 0.0));
            rows.push(Row::new("core.wan_overhead_s", "s", t_p50 - floor, 1, 0.0));
        }
        serve_rows(spec, &serve, &world.connect_s, &checked, &mut rows);

        let ops: u64 = per_client
            .iter()
            .map(|(records, _)| records.iter().filter(|r| r.timed).count() as u64)
            .sum();
        rows.push(Row::new(
            "proc.cpu_s_per_op",
            "s",
            share(user + sys, ops as f64),
            ops,
            user + sys,
        ));
        rows.push(Row::new(
            "proc.sys_share",
            "ratio",
            share(sys, user + sys),
            ops,
            sys,
        ));
        rows.push(Row::new(
            "proc.peak_rss_mb",
            "MB",
            host::peak_rss_mb(),
            1,
            0.0,
        ));

        let sample = checked.good.first().map_or(0, |r| r.sample);
        let ladder = ladder::run(&world.model, sample, opts.seed, tracer);
        ladder_mismatches = ladder.mismatches;
        let mut sum = ladder.garble_s + ladder.eval_s + ladder.ext_s;
        if spec.shape != Shape::Persistent {
            // The op pays base OT too.
            sum += ladder.base_s;
        }
        rows.extend(ladder.rows);
        rows.push(Row::new("ladder.layer_sum_s", "s", sum, 1, sum));
        rows.push(Row::new(
            "ladder.e2e_over_layer_sum",
            "ratio",
            share(t_p50, sum),
            1,
            0.0,
        ));
        // Every per-layer row, in the documented order; a layer this
        // workload never calls reads 0 with count 0.
        layers = LAYERS
            .iter()
            .map(|&(name, unit)| {
                rows.iter()
                    .find(|r| r.name == name)
                    .cloned()
                    .unwrap_or_else(|| Row::new(name, unit, 0.0, 0, 0.0))
            })
            .collect();

        spans.push(format!(
            "{:<30} {:>6} {:>12} {:>12}",
            "span", "count", "total s", "self s"
        ));
        for (name, t) in tracer.totals() {
            spans.push(format!(
                "{:<30} {:>6} {:>12.4} {:>12.4}",
                name, t.count, t.total_s, t.self_s
            ));
        }
        let path = crate::out_dir().join(format!("{}.trace.json", spec.name));
        match tracer.write_chrome(&path) {
            Ok(()) => spans.push(format!("trace file: {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    } else {
        diag.extend(counts);
    }
    world.teardown();

    let finite = e2e
        .iter()
        .chain(&diag)
        .chain(&layers)
        .all(|r| r.value.is_finite());
    WorkloadResult {
        name: spec.name,
        attempted: checked.attempted,
        failed: checked.failed,
        correct: checked.failed == 0
            && wire_repeats
            && ladder_mismatches == 0
            && finite
            && !untraced.is_empty()
            && peak > 0,
        e2e,
        diag,
        layers,
        spans,
        notes,
    }
}
