//! Human- and machine-readable rendering of [`Analysis`] results.
//!
//! Shared by the `circuit_lint` and `deepsecure_serve` binaries so every
//! surface prints identical numbers. The JSON emitter is
//! hand-rolled (the workspace is offline and carries no serde); the schema
//! is flat and stable so shell pipelines can `grep`/`jq` the output, and
//! `BENCH_RESULTS.json` is exactly `circuit_lint --model all --json`.

use std::fmt::Write as _;

use crate::{Analysis, Savings};

/// Chunk sizes reported by default: buffered, the CI cross-check size, and
/// the streaming default used in the serving benchmarks.
pub const DEFAULT_CHUNK_SIZES: &[usize] = &[0, 1024, 8192];

/// Renders one circuit's analysis as a short human-readable block.
pub fn render_text(name: &str, a: &Analysis, chunks: &[usize]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {name} ==");
    if let Some(c) = &a.cost {
        let _ = writeln!(
            s,
            "  wires {}, gates {} ({} free + {} non-free)",
            c.wires, c.gates, c.free_gates, c.non_free_gates
        );
        let _ = writeln!(
            s,
            "  tables {} B/cycle, depth {} (non-XOR depth {}), widest level {} of {}",
            c.table_bytes,
            c.depth,
            c.non_xor_depth,
            c.max_level_width(),
            c.level_widths.len()
        );
        let mut peaks = String::new();
        for (i, &chunk) in chunks.iter().enumerate() {
            if i > 0 {
                peaks.push_str(", ");
            }
            let label = if chunk == 0 {
                "buffered".to_string()
            } else {
                format!("chunk {chunk}")
            };
            let _ = write!(peaks, "{label} -> {} B", c.peak_resident_table_bytes(chunk));
        }
        let _ = writeln!(s, "  peak resident tables: {peaks}");
    }
    if let Some(o) = &a.opportunities {
        let render = |sv: &Savings| {
            format!(
                "{} gates ({} non-free, {} table B)",
                sv.gates, sv.non_free_gates, sv.table_bytes
            )
        };
        if o.dead.gates + o.constant.gates + o.duplicate.gates == 0 {
            let _ = writeln!(s, "  opportunities: none");
        } else {
            let _ = writeln!(
                s,
                "  opportunities: dead {}; constant {}; duplicate {}",
                render(&o.dead),
                render(&o.constant),
                render(&o.duplicate)
            );
        }
    }
    if a.diagnostics.is_empty() {
        let _ = writeln!(s, "  diagnostics: none");
    } else {
        let _ = writeln!(
            s,
            "  diagnostics: {} error(s), {} warning(s)",
            a.error_count(),
            a.warning_count()
        );
        for d in &a.diagnostics {
            let _ = writeln!(s, "    {d}");
        }
    }
    s
}

/// Renders a set of analyses as one stable JSON document
/// (`deepsecure-analyze/1` schema).
pub fn render_json(models: &[(String, Analysis)], chunks: &[usize]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"deepsecure-analyze/1\",\n  \"models\": {\n");
    for (mi, (name, a)) in models.iter().enumerate() {
        let _ = writeln!(s, "    {}: {{", json_str(name));
        let _ = write!(
            s,
            "      \"errors\": {},\n      \"warnings\": {}",
            a.error_count(),
            a.warning_count()
        );
        if !a.diagnostics.is_empty() {
            s.push_str(",\n      \"diagnostics\": [");
            for (i, d) in a.diagnostics.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\n        {{\"code\": {}, \"severity\": {}, \"detail\": {}}}",
                    json_str(d.code.as_str()),
                    json_str(&d.severity().to_string()),
                    json_str(&d.to_string())
                );
            }
            s.push_str("\n      ]");
        }
        if let Some(c) = &a.cost {
            let _ = write!(
                s,
                ",\n      \"digest\": \"{:016x}\",\n      \"wires\": {},\n      \"gates\": {},\n      \"free_gates\": {},\n      \"non_free_gates\": {},\n      \"table_bytes\": {},\n      \"depth\": {},\n      \"non_xor_depth\": {},\n      \"levels\": {},\n      \"max_level_width\": {}",
                c.digest,
                c.wires,
                c.gates,
                c.free_gates,
                c.non_free_gates,
                c.table_bytes,
                c.depth,
                c.non_xor_depth,
                c.level_widths.len(),
                c.max_level_width()
            );
            s.push_str(",\n      \"width_histogram\": [");
            for (i, (cap, n)) in c.width_histogram().iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{cap}, {n}]");
            }
            s.push_str("],\n      \"peak_resident_table_bytes\": {");
            for (i, &chunk) in chunks.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{chunk}\": {}", c.peak_resident_table_bytes(chunk));
            }
            s.push('}');
        }
        if let Some(o) = &a.opportunities {
            let sv = |sv: &Savings| {
                format!(
                    "{{\"gates\": {}, \"non_free_gates\": {}, \"table_bytes\": {}}}",
                    sv.gates, sv.non_free_gates, sv.table_bytes
                )
            };
            let _ = write!(
                s,
                ",\n      \"opportunities\": {{\"dead\": {}, \"constant\": {}, \"duplicate\": {}}}",
                sv(&o.dead),
                sv(&o.constant),
                sv(&o.duplicate)
            );
        }
        s.push_str("\n    }");
        if mi + 1 < models.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  }\n}\n");
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use deepsecure_circuit::Builder;

    fn sample() -> Analysis {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        analyze(&b.finish())
    }

    #[test]
    fn text_report_mentions_the_key_numbers() {
        let a = sample();
        let text = render_text("half_and", &a, DEFAULT_CHUNK_SIZES);
        assert!(text.contains("== half_and =="));
        assert!(text.contains("1 non-free"));
        assert!(text.contains("tables 32 B/cycle"));
        assert!(text.contains("diagnostics: none"));
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let a = sample();
        let digest = a.cost.as_ref().map(|c| c.digest);
        let json = render_json(&[("m\"1".to_string(), a)], &[0, 1024]);
        assert!(json.contains(&format!("\"digest\": \"{:016x}\"", digest.unwrap())));
        assert!(json.contains("\"schema\": \"deepsecure-analyze/1\""));
        assert!(json.contains("\"m\\\"1\""));
        assert!(json.contains("\"non_free_gates\": 1"));
        assert!(json.contains("\"peak_resident_table_bytes\": {\"0\": 32, \"1024\": 32}"));
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
    }
}
