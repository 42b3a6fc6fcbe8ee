//! Metric names, units and bounds (the same ones `BENCHMARK.json` lists),
//! plus the small statistics and JSON/table rendering the runs share.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric: `bound` is the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The gated end-to-end metrics, reported for every workload with tracing
/// off. `wire_bytes_per_op` is an exact count: its bound only has to be
/// positive for the driver, `selfcheck` demands bit-identity.
pub const E2E: &[E2eDef] = &[
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "latency_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "throughput_rps",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2eDef {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.001,
    },
];

/// Metrics `selfcheck` requires to be bit-identical between sets and
/// between seeds: they depend on the circuit, not on samples or OT seeds.
pub const EXACT: &[&str] = &[
    "wire_bytes_per_op",
    "core.nonfree_gates",
    "core.table_bytes",
    "core.peak_table_bytes",
];

/// The per-layer rows of the traced run: `(name, unit)`; `BENCHMARK.json`
/// adds which way each improves. A row whose layer the workload never
/// calls reads 0 with count 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("crypto.hash_ns", "ns"),
    ("garble.garble_ns_per_gate", "ns"),
    ("garble.eval_ns_per_gate", "ns"),
    ("bigint.modexp_us", "us"),
    ("ot.base_setup_ms", "ms"),
    ("ot.base_bytes", "B"),
    ("ot.ext_ns_per_ot", "ns"),
    ("ot.ext_ots_per_op", "count"),
    ("ot.ext_bytes_per_ot", "B"),
    ("ot.channel_mb_s", "MB/s"),
    ("ot.channel_whole_mb_s", "MB/s"),
    ("ot.channel_mem_mb_s", "MB/s"),
    ("core.compile_s", "s"),
    ("core.nonfree_gates", "count"),
    ("core.table_bytes", "B"),
    ("core.session_online_s", "s"),
    ("core.session_residual_s", "s"),
    ("core.wan_floor_s", "s"),
    ("core.wan_overhead_s", "s"),
    ("core.peak_table_bytes", "B"),
    ("serve.setup_ms", "ms"),
    ("serve.server_setup_ms", "ms"),
    ("serve.pool_hit_share", "ratio"),
    ("serve.pool_produced", "count"),
    ("serve.live_takes", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.failed", "count"),
    ("proc.cpu_s_per_op", "s"),
    ("proc.sys_share", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("ladder.layer_sum_s", "s"),
    ("ladder.e2e_over_layer_sum", "ratio"),
    ("trace.latency_p50_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// One reported number: `n` is the count behind it (ops, gates, OTs, …)
/// and `busy_s` the seconds the layer was busy producing it.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
    pub busy_s: f64,
}

impl Row {
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: u64, busy_s: f64) -> Row {
        Row {
            name,
            unit,
            value,
            n,
            busy_s,
        }
    }

    /// A pure event count.
    pub fn count(name: &'static str, n: u64) -> Row {
        Row::new(name, "count", n as f64, n, 0.0)
    }

    /// The median of `runs` seconds, reported in `unit` = seconds × `scale`.
    pub fn median_of(name: &'static str, unit: &'static str, scale: f64, runs: &[f64]) -> Row {
        Row::new(
            name,
            unit,
            median(runs) * scale,
            runs.len() as u64,
            runs.iter().sum(),
        )
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops plus gate mismatches (table bytes, wire repeatability).
    pub correct: bool,
    /// The gated end-to-end metrics (tracing off).
    pub e2e: Vec<Row>,
    /// Reported-not-gated rows (`diag.*`, exact counts).
    pub diag: Vec<Row>,
    /// Per-layer rows (traced run only).
    pub layers: Vec<Row>,
    /// Count, total and self seconds per span name, as printable lines
    /// (traced run only).
    pub spans: Vec<String>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.diag)
            .chain(&self.layers)
            .find(|r| r.name == name)
            .map(|r| r.value)
    }
}

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A JSON number with all its digits (shortest round-trip form).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Rows as one JSON object keyed by name; `detail` adds n and busy seconds.
fn rows_json(rows: &[Row], detail: bool) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let extra = if detail {
                format!(",\"n\":{},\"busy_s\":{}", r.n, jnum(r.busy_s))
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{extra}}}",
                jstr(r.name),
                jnum(r.value),
                jstr(r.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The driver's result line: every end-to-end metric untraced, every
/// per-layer metric traced, nothing else.
pub fn contract_line(res: &WorkloadResult, trace: bool) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        res.correct,
        res.attempted,
        res.failed,
        rows_json(if trace { &res.layers } else { &res.e2e }, false)
    )
}

/// One workload's full record (every row, with n and busy seconds) for
/// the all-workloads report.
pub fn full_json(res: &WorkloadResult) -> String {
    let notes: Vec<String> = res.notes.iter().map(|n| jstr(n)).collect();
    format!(
        "{{\"name\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\
         \"diag\":{},\"layers\":{},\"notes\":[{}]}}",
        jstr(res.name),
        res.correct,
        res.attempted,
        res.failed,
        rows_json(&res.e2e, true),
        rows_json(&res.diag, true),
        rows_json(&res.layers, true),
        notes.join(",")
    )
}

/// Prints one workload's rows as a table: name, value, unit, n, and for
/// gated metrics the direction and bound.
pub fn print_table(res: &WorkloadResult) {
    println!(
        "== {} — attempted {}, failed {}, {}",
        res.name,
        res.attempted,
        res.failed,
        if res.correct {
            "all outputs correct"
        } else {
            "OUTPUTS WRONG"
        }
    );
    for note in &res.notes {
        println!("   note: {note}");
    }
    for r in &res.e2e {
        let def = E2E.iter().find(|d| d.name == r.name);
        let gate = def.map_or(String::new(), |d| {
            format!(
                "{} is better, bound {:.1}%",
                d.better.as_str(),
                d.bound * 100.0
            )
        });
        println!(
            "   {:<30} {:>16.6} {:<6} n={:<8} {}",
            r.name, r.value, r.unit, r.n, gate
        );
    }
    for r in &res.diag {
        println!(
            "   {:<30} {:>16.6} {:<6} n={:<8} reported, not gated",
            r.name, r.value, r.unit, r.n
        );
    }
    for r in &res.layers {
        println!(
            "   {:<30} {:>16.6} {:<6} n={:<8} busy {:.4} s",
            r.name, r.value, r.unit, r.n, r.busy_s
        );
    }
    for line in &res.spans {
        println!("   {line}");
    }
}
