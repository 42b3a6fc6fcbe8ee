//! A line-oriented text format for netlists, in the spirit of the
//! "Bristol fashion" circuit files used by the MPC community, extended with
//! registers for sequential circuits.
//!
//! ```text
//! # comment
//! wires 12
//! garbler_inputs 2 3
//! evaluator_inputs 4 5
//! outputs 10 11
//! register 9 6 0        # d q init
//! gate XOR 2 4 7
//! gate AND 3 5 8
//! ```
//!
//! Wires `0` and `1` are implicitly the constants.

use std::fmt::Write as _;
use std::num::ParseIntError;

use crate::ir::{Circuit, Gate, GateKind, Register, Wire};

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "netlist parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseNetlistError {}

/// Serializes a circuit to the text format.
///
/// # Example
///
/// ```
/// use deepsecure_circuit::{Builder, netlist};
///
/// let mut b = Builder::new();
/// let x = b.garbler_input();
/// let y = b.evaluator_input();
/// let z = b.and(x, y);
/// b.output(z);
/// let c = b.finish();
/// let text = netlist::serialize(&c);
/// let back = netlist::parse(&text).unwrap();
/// assert_eq!(back.stats(), c.stats());
/// ```
pub fn serialize(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# DeepSecure netlist v1");
    let _ = writeln!(out, "wires {}", circuit.wire_count());
    let mut line = String::from("garbler_inputs");
    for w in circuit.garbler_inputs() {
        let _ = write!(line, " {}", w.0);
    }
    out.push_str(&line);
    out.push('\n');
    let mut line = String::from("evaluator_inputs");
    for w in circuit.evaluator_inputs() {
        let _ = write!(line, " {}", w.0);
    }
    out.push_str(&line);
    out.push('\n');
    let mut line = String::from("outputs");
    for w in circuit.outputs() {
        let _ = write!(line, " {}", w.0);
    }
    out.push_str(&line);
    out.push('\n');
    for r in circuit.registers() {
        let _ = writeln!(out, "register {} {} {}", r.d.0, r.q.0, u8::from(r.init));
    }
    for g in circuit.gates() {
        let _ = writeln!(
            out,
            "gate {} {} {} {}",
            g.kind.name(),
            g.a.0,
            g.b.0,
            g.out.0
        );
    }
    out
}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError {
        line,
        message: message.into(),
    }
}

fn parse_wire(tok: &str, line: usize) -> Result<Wire, ParseNetlistError> {
    tok.parse::<u32>()
        .map(Wire)
        .map_err(|e: ParseIntError| err(line, format!("bad wire id {tok:?}: {e}")))
}

/// Parses the text format back into a validated [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on malformed input or if the parsed
/// circuit fails [`Circuit::validate`].
pub fn parse(text: &str) -> Result<Circuit, ParseNetlistError> {
    let circuit = parse_raw(text)?;
    circuit.validate().map_err(|d| err(0, d.to_string()))?;
    Ok(circuit)
}

/// Parses the text format **without** validating the circuit's structural
/// invariants.
///
/// This is the import path for analysis tooling (`circuit_lint`) that wants
/// to load a possibly-broken netlist and report *all* violations with
/// structured diagnostics rather than stopping at the parser's first
/// complaint. Use [`parse`] everywhere a usable circuit is required.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on syntactically malformed input.
pub fn parse_raw(text: &str) -> Result<Circuit, ParseNetlistError> {
    let mut wire_count: Option<u32> = None;
    let mut garbler_inputs = Vec::new();
    let mut evaluator_inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut registers = Vec::new();
    let mut gates = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().expect("non-empty line");
        match head {
            "wires" => {
                let n = toks
                    .next()
                    .ok_or_else(|| err(lineno, "missing wire count"))?
                    .parse::<u32>()
                    .map_err(|e| err(lineno, format!("bad wire count: {e}")))?;
                wire_count = Some(n);
            }
            "garbler_inputs" => {
                for t in toks {
                    garbler_inputs.push(parse_wire(t, lineno)?);
                }
            }
            "evaluator_inputs" => {
                for t in toks {
                    evaluator_inputs.push(parse_wire(t, lineno)?);
                }
            }
            "outputs" => {
                for t in toks {
                    outputs.push(parse_wire(t, lineno)?);
                }
            }
            "register" => {
                let d = parse_wire(toks.next().ok_or_else(|| err(lineno, "missing d"))?, lineno)?;
                let q = parse_wire(toks.next().ok_or_else(|| err(lineno, "missing q"))?, lineno)?;
                let init = match toks.next() {
                    Some("0") | None => false,
                    Some("1") => true,
                    Some(other) => return Err(err(lineno, format!("bad init bit {other:?}"))),
                };
                registers.push(Register { d, q, init });
            }
            "gate" => {
                let kind_tok = toks
                    .next()
                    .ok_or_else(|| err(lineno, "missing gate kind"))?;
                let kind = GateKind::from_name(kind_tok)
                    .ok_or_else(|| err(lineno, format!("unknown gate kind {kind_tok:?}")))?;
                let a = parse_wire(
                    toks.next().ok_or_else(|| err(lineno, "missing input a"))?,
                    lineno,
                )?;
                let b_tok = toks.next().ok_or_else(|| err(lineno, "missing input b"))?;
                let b = parse_wire(b_tok, lineno)?;
                let out = parse_wire(
                    toks.next().ok_or_else(|| err(lineno, "missing output"))?,
                    lineno,
                )?;
                gates.push(Gate { kind, a, b, out });
            }
            other => return Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    }

    Ok(Circuit::from_raw_parts(
        wire_count.ok_or_else(|| err(0, "missing `wires` directive"))?,
        garbler_inputs,
        evaluator_inputs,
        outputs,
        gates,
        registers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn sample() -> Circuit {
        let mut b = Builder::new();
        let x = b.garbler_inputs(2);
        let y = b.evaluator_inputs(2);
        let q = b.register(true);
        let t = b.and(x[0], y[0]);
        let u = b.xor(t, x[1]);
        let d = b.xor(u, q);
        let v = b.or(d, y[1]);
        b.connect_register(q, d);
        b.output(v);
        b.output(q);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample();
        let text = serialize(&c);
        let back = parse(&text).unwrap();
        assert_eq!(back.wire_count(), c.wire_count());
        assert_eq!(back.garbler_inputs(), c.garbler_inputs());
        assert_eq!(back.evaluator_inputs(), c.evaluator_inputs());
        assert_eq!(back.outputs(), c.outputs());
        assert_eq!(back.gates(), c.gates());
        assert_eq!(back.registers(), c.registers());
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let c = sample();
        let back = parse(&serialize(&c)).unwrap();
        let mut sim_a = crate::Simulator::new(&c);
        let mut sim_b = crate::Simulator::new(&back);
        for step in 0..8u8 {
            let g = [step & 1 == 1, step & 2 == 2];
            let e = [step & 1 == 0, step & 4 == 4];
            assert_eq!(sim_a.step(&g, &e), sim_b.step(&g, &e));
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let bad = "wires 4\ngate FROB 0 1 2\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("FROB"));
    }

    #[test]
    fn parse_rejects_invalid_topology() {
        // Gate reads wire 5 which is never driven.
        let bad = "wires 6\ngarbler_inputs 2\noutputs 3\ngate XOR 2 5 3\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nwires 3\ngarbler_inputs 2\noutputs 2\n  # trailing\n";
        let c = parse(text).unwrap();
        assert_eq!(c.garbler_inputs().len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{netlist, passes, Builder, Circuit, GateKind, Wire};

    /// Replays a random op list into a builder; ops index into the pool of
    /// existing wires, so every generated circuit is well-formed.
    fn build_random(ops: &[(u8, u16, u16)], ng: usize, ne: usize) -> Circuit {
        let mut b = Builder::new();
        let mut pool: Vec<Wire> = b.garbler_inputs(ng);
        pool.extend(b.evaluator_inputs(ne));
        for (kind, ai, bi) in ops {
            let a = pool[*ai as usize % pool.len()];
            let c = pool[*bi as usize % pool.len()];
            let w = match kind % 7 {
                0 => b.xor(a, c),
                1 => b.and(a, c),
                2 => b.or(a, c),
                3 => b.xnor(a, c),
                4 => b.nand(a, c),
                5 => b.nor(a, c),
                _ => b.not(a),
            };
            pool.push(w);
        }
        let out = *pool.last().expect("non-empty pool");
        b.output(out);
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn serialize_parse_roundtrip_preserves_semantics(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..40),
            inputs in any::<u16>(),
        ) {
            let c = build_random(&ops, 3, 3);
            let back = netlist::parse(&netlist::serialize(&c)).expect("roundtrip parses");
            let g: Vec<bool> = (0..3).map(|i| (inputs >> i) & 1 == 1).collect();
            let e: Vec<bool> = (0..3).map(|i| (inputs >> (3 + i)) & 1 == 1).collect();
            prop_assert_eq!(back.eval(&g, &e), c.eval(&g, &e));
        }

        #[test]
        fn optimize_never_grows_and_preserves_semantics(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..40),
        ) {
            let c = build_random(&ops, 3, 3);
            let opt = passes::optimize(&c);
            prop_assert!(opt.stats().non_xor <= c.stats().non_xor);
            for bits in 0..64u16 {
                let g: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
                let e: Vec<bool> = (0..3).map(|i| (bits >> (3 + i)) & 1 == 1).collect();
                prop_assert_eq!(opt.eval(&g, &e), c.eval(&g, &e));
            }
        }

        #[test]
        fn stored_nonfree_count_matches_stats_on_every_construction_route(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..40),
        ) {
            let built = build_random(&ops, 3, 3);
            let parsed = netlist::parse(&netlist::serialize(&built)).expect("roundtrip parses");
            let raw = Circuit::from_raw_parts(
                built.wire_count() as u32,
                built.garbler_inputs().to_vec(),
                built.evaluator_inputs().to_vec(),
                built.outputs().to_vec(),
                built.gates().to_vec(),
                built.registers().to_vec(),
            );
            let optimized = passes::optimize(&built);
            for c in [&built, &parsed, &raw, &optimized, &optimized.clone()] {
                prop_assert_eq!(c.nonfree_gate_count() as u64, c.stats().non_xor);
            }
            // The count is derived state: `Debug` shows the six structural
            // fields it showed before the count was stored.
            let shown = format!("{built:?}");
            prop_assert!(shown.starts_with("Circuit { wire_count: "));
            prop_assert!(shown.ends_with(&format!("registers: {:?} }}", built.registers())));
            prop_assert!(!shown.contains("nonfree"));
        }

        #[test]
        fn gate_kinds_serialize_stably(kind_idx in 0usize..8) {
            let kinds = [
                GateKind::Xor, GateKind::Xnor, GateKind::And, GateKind::Nand,
                GateKind::Or, GateKind::Nor, GateKind::Not, GateKind::Buf,
            ];
            let k = kinds[kind_idx];
            prop_assert_eq!(GateKind::from_name(k.name()), Some(k));
        }
    }
}
