//! Netlist optimization passes.
//!
//! Circuits built through [`Builder`] are optimized online; these passes
//! bring *imported* netlists (e.g. parsed from [`crate::netlist`] text) to
//! the same quality by replaying them through a fresh builder, which applies
//! constant folding, complement cancellation, common-subexpression
//! elimination and dead-gate removal in one sweep.

use crate::ir::{Circuit, GateKind, Wire, CONST_0, CONST_1};
use crate::Builder;

/// Re-optimizes a circuit by replaying it through a fresh [`Builder`].
///
/// The result computes the same function (same input/output ordering) with
/// a gate count no larger than the original.
///
/// # Example
///
/// ```
/// use deepsecure_circuit::{Builder, passes};
///
/// let mut b = Builder::new();
/// let x = b.garbler_input();
/// let y = b.garbler_input();
/// let t = b.xor(x, y);
/// b.output(t);
/// let c = b.finish();
/// let opt = passes::optimize(&c);
/// assert_eq!(opt.stats(), c.stats());
/// ```
pub fn optimize(circuit: &Circuit) -> Circuit {
    let mut b = Builder::new();
    // Old wire → new wire. Wire ids are dense, so a flat Vec is the map.
    const UNMAPPED: u32 = u32::MAX;
    let mut map = vec![UNMAPPED; circuit.wire_count()];
    let get = |map: &[u32], w: Wire| {
        let nw = map[w.index()];
        assert_ne!(nw, UNMAPPED, "wire {w:?} used before defined");
        Wire(nw)
    };
    map[CONST_0.index()] = CONST_0.0;
    map[CONST_1.index()] = CONST_1.0;
    for w in circuit.garbler_inputs() {
        map[w.index()] = b.garbler_input().0;
    }
    for w in circuit.evaluator_inputs() {
        map[w.index()] = b.evaluator_input().0;
    }
    for r in circuit.registers() {
        map[r.q.index()] = b.register(r.init).0;
    }
    for g in circuit.gates() {
        let a = get(&map, g.a);
        let bw = get(&map, g.b);
        let out = match g.kind {
            GateKind::Xor => b.xor(a, bw),
            GateKind::Xnor => b.xnor(a, bw),
            GateKind::And => b.and(a, bw),
            GateKind::Nand => b.nand(a, bw),
            GateKind::Or => b.or(a, bw),
            GateKind::Nor => b.nor(a, bw),
            GateKind::Not => b.not(a),
            GateKind::Buf => b.buf(a),
        };
        map[g.out.index()] = out.0;
    }
    for w in circuit.outputs() {
        b.output(get(&map, *w));
    }
    for r in circuit.registers() {
        b.connect_register(get(&map, r.q), get(&map, r.d));
    }
    b.finish()
}

/// Dependency levels of a circuit's topologically-ordered gate list.
///
/// Wires that exist before any gate fires (constants, inputs, register
/// outputs) sit at level 0; a gate's level is `max(level(a), level(b)) + 1`.
/// Gates sharing a level are mutually independent; the per-level widths
/// feed the static cost report.
#[derive(Debug, Clone)]
pub struct Levels {
    gate_level: Vec<u32>,
    max_level: u32,
}

/// Computes [`Levels`] for a circuit in one linear pass.
pub fn levelize(circuit: &Circuit) -> Levels {
    let gates = circuit.gates();
    let mut wire_level = vec![0u32; circuit.wire_count()];
    let mut gate_level = Vec::with_capacity(gates.len());
    let mut max_level = 0u32;
    for g in gates {
        let level = wire_level[g.a.index()].max(wire_level[g.b.index()]) + 1;
        wire_level[g.out.index()] = level;
        max_level = max_level.max(level);
        gate_level.push(level);
    }
    Levels {
        gate_level,
        max_level,
    }
}

impl Levels {
    /// Number of gates covered.
    pub fn gate_count(&self) -> usize {
        self.gate_level.len()
    }

    /// Dependency level of gate `i` (1-based; primary wires are level 0).
    pub fn gate_level(&self, i: usize) -> u32 {
        self.gate_level[i]
    }

    /// Deepest gate level (equals [`depth`] of the circuit).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }
}

/// Computes the depth (longest gate chain) of the combinational core —
/// the metric that bounds garbling latency per clock cycle.
pub fn depth(circuit: &Circuit) -> usize {
    let mut d = vec![0usize; circuit.wire_count()];
    let mut max = 0;
    for g in circuit.gates() {
        let dd = d[g.a.index()].max(d[g.b.index()]) + 1;
        d[g.out.index()] = dd;
        max = max.max(dd);
    }
    max
}

/// Counts non-XOR gates along the critical path (the "multiplicative depth"
/// analog that governs HE comparisons).
pub fn non_xor_depth(circuit: &Circuit) -> usize {
    let mut d = vec![0usize; circuit.wire_count()];
    let mut max = 0;
    for g in circuit.gates() {
        let base = d[g.a.index()].max(d[g.b.index()]);
        let dd = base + usize::from(!g.kind.is_free());
        d[g.out.index()] = dd;
        max = max.max(dd);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Gate;

    /// Builds a deliberately unoptimized circuit by hand.
    fn redundant_circuit() -> Circuit {
        // Wires: 0=c0 1=c1 2=g0 3=g1 | 4 = g0 AND g1, 5 = g1 AND g0 (dup),
        // 6 = 4 XOR 5 (== 0), 7 = 6 OR g0 (== g0)
        let gates = vec![
            Gate {
                kind: GateKind::And,
                a: Wire(2),
                b: Wire(3),
                out: Wire(4),
            },
            Gate {
                kind: GateKind::And,
                a: Wire(3),
                b: Wire(2),
                out: Wire(5),
            },
            Gate {
                kind: GateKind::Xor,
                a: Wire(4),
                b: Wire(5),
                out: Wire(6),
            },
            Gate {
                kind: GateKind::Or,
                a: Wire(6),
                b: Wire(2),
                out: Wire(7),
            },
        ];
        Circuit::from_raw_parts(
            8,
            vec![Wire(2), Wire(3)],
            vec![],
            vec![Wire(7)],
            gates,
            vec![],
        )
    }

    #[test]
    fn optimize_collapses_redundancy() {
        let c = redundant_circuit();
        c.validate().unwrap();
        assert_eq!(c.stats().total(), 4);
        let opt = optimize(&c);
        // g0 AND g1 == g1 AND g0; their XOR folds to 0; 0 OR g0 folds to g0.
        assert_eq!(opt.stats().total(), 0);
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(opt.eval(&[a, b], &[]), c.eval(&[a, b], &[]));
            }
        }
    }

    #[test]
    fn optimize_preserves_semantics_exhaustively() {
        let c = redundant_circuit();
        let opt = optimize(&c);
        for bits in 0..4u8 {
            let input = [bits & 1 == 1, bits & 2 == 2];
            assert_eq!(opt.eval(&input, &[]), c.eval(&input, &[]));
        }
    }

    #[test]
    fn levelize_matches_depth_and_orders_stably() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let t1 = b.and(x, y); // level 1
        let t2 = b.xor(t1, x); // level 2
        let t3 = b.and(t2, y); // level 3
        let t4 = b.and(x, y); // CSE'd with t1
        let t5 = b.and(t4, t3); // level 4
        b.output(t5);
        let c = b.finish();
        let lv = levelize(&c);
        assert_eq!(lv.gate_count(), c.gates().len());
        assert_eq!(lv.max_level() as usize, depth(&c));
        // Levels respect topological dependencies.
        for g in 0..lv.gate_count() {
            let gate = &c.gates()[g];
            for input in [gate.a, gate.b] {
                if let Some(src) = c.gates().iter().position(|p| p.out == input) {
                    assert!(lv.gate_level(src) < lv.gate_level(g));
                }
            }
        }
    }

    #[test]
    fn depth_measures() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.garbler_input();
        let t1 = b.and(x, y);
        let t2 = b.xor(t1, x);
        let t3 = b.and(t2, y);
        b.output(t3);
        let c = b.finish();
        assert_eq!(depth(&c), 3);
        assert_eq!(non_xor_depth(&c), 2);
    }
}
