//! Exhaustive structural verification and optimization-opportunity
//! detection.
//!
//! [`Circuit::validate`] stops at the first structural error; this pass
//! reports *every* violation, and — when the structure is sound — layers
//! efficiency warnings on top: dead gates, constant-foldable cones,
//! duplicate (CSE-candidate) gates, duplicate and constant outputs. Each
//! warning class is exactly what a [`deepsecure_circuit::Builder`] replay
//! (`passes::optimize`) would clean up, so the reports are the analysis
//! front-end for the pruning pipeline: they say how many non-free gates and
//! garbled-table bytes re-synthesis would save *before* anyone pays them.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::ControlFlow;

use deepsecure_circuit::{
    Circuit, DiagCode, DiagLoc, Diagnostic, Gate, GateKind, Wire, CONST_0, CONST_1,
    GATE_TABLE_BYTES,
};

/// Cap on materialized diagnostics per [`DiagCode`]; a million-gate import
/// with systematic damage would otherwise allocate a diagnostic per gate.
/// Exact per-class totals always live in [`OptReport`].
pub const MAX_DIAGNOSTICS_PER_CODE: usize = 50;

/// What deleting one class of redundant gates would save.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Savings {
    /// Gates in the class (free and non-free).
    pub gates: u64,
    /// Non-free (AND/NAND/OR/NOR) gates in the class.
    pub non_free_gates: u64,
    /// Garbled-table bytes the non-free gates cost per cycle (32 each under
    /// half-gates).
    pub table_bytes: u64,
}

impl Savings {
    fn count(&mut self, g: &Gate) {
        self.gates += 1;
        if !g.kind.is_free() {
            self.non_free_gates += 1;
            self.table_bytes += GATE_TABLE_BYTES;
        }
    }
}

/// Optimization opportunities a [`deepsecure_circuit::Builder`] replay
/// would realize, as exact totals (unlike the capped diagnostic list).
///
/// The classes overlap — a dead duplicate gate counts in both `dead` and
/// `duplicate` — so each is an independent upper bound, not a sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates whose output reaches no circuit output or live register.
    pub dead: Savings,
    /// Gates in constant cones (output statically known, or an input is
    /// statically known so the gate strength-reduces away).
    pub constant: Savings,
    /// Gates structurally identical to an earlier gate (commutative inputs
    /// normalized) — common-subexpression candidates.
    pub duplicate: Savings,
}

/// Internal result of the full verification pipeline.
#[derive(Clone, Debug)]
pub(crate) struct VerifyOutcome {
    pub diagnostics: Vec<Diagnostic>,
    pub opportunities: Option<OptReport>,
    pub structurally_sound: bool,
}

/// Collects diagnostics with a per-code cap.
#[derive(Default)]
struct Emitter {
    diagnostics: Vec<Diagnostic>,
    counts: HashMap<DiagCode, u64>,
    errors: u64,
}

impl Emitter {
    fn emit(&mut self, code: DiagCode, loc: DiagLoc, message: String) {
        let seen = self.counts.entry(code).or_insert(0);
        *seen += 1;
        if code.severity() == deepsecure_circuit::Severity::Error {
            self.errors += 1;
        }
        if (*seen as usize) <= MAX_DIAGNOSTICS_PER_CODE {
            self.diagnostics.push(Diagnostic::new(code, loc, message));
        }
    }
}

/// Runs the exhaustive verification pass and returns all diagnostics
/// (errors first, then warnings; at most [`MAX_DIAGNOSTICS_PER_CODE`] per
/// code). An empty result means the circuit is structurally valid *and*
/// carries no statically-detectable waste.
pub fn verify(circuit: &Circuit) -> Vec<Diagnostic> {
    verify_full(circuit).diagnostics
}

pub(crate) fn verify_full(circuit: &Circuit) -> VerifyOutcome {
    let mut em = Emitter::default();
    structural_pass(circuit, &mut em);
    if em.errors > 0 {
        return VerifyOutcome {
            diagnostics: em.diagnostics,
            opportunities: None,
            structurally_sound: false,
        };
    }
    let opportunities = warning_pass(circuit, &mut em);
    VerifyOutcome {
        diagnostics: em.diagnostics,
        opportunities: Some(opportunities),
        structurally_sound: true,
    }
}

/// Every structural violation [`Circuit::validate`] would stop at, not
/// just the first, so a broken import is diagnosed in one shot.
fn structural_pass(circuit: &Circuit, em: &mut Emitter) {
    let _ = circuit.check_structure(|d| {
        em.emit(d.code, d.loc, d.message);
        ControlFlow::<()>::Continue(())
    });
}

/// Efficiency warnings over a structurally-sound circuit. Each check mirrors
/// one of the [`deepsecure_circuit::Builder`]'s online optimizations, so a
/// builder-produced circuit is warning-free by construction.
fn warning_pass(circuit: &Circuit, em: &mut Emitter) -> OptReport {
    let mut opp = OptReport::default();
    let n = circuit.wire_count();
    let gates = circuit.gates();

    // DS-W04: the same wire listed as an output more than once.
    let mut seen_outputs: HashMap<Wire, usize> = HashMap::new();
    for (i, w) in circuit.outputs().iter().enumerate() {
        match seen_outputs.entry(*w) {
            Entry::Vacant(v) => {
                v.insert(i);
            }
            Entry::Occupied(first) => em.emit(
                DiagCode::DuplicateOutput,
                DiagLoc::Output(i),
                format!("wire {w:?} already listed as output {}", first.get()),
            ),
        }
    }

    // DS-W05: sinks tied directly to a constant wire.
    let is_const = |w: Wire| w == CONST_0 || w == CONST_1;
    for (i, w) in circuit.outputs().iter().enumerate() {
        if is_const(*w) {
            em.emit(
                DiagCode::ConstantSink,
                DiagLoc::Output(i),
                format!("output tied to constant {w:?}"),
            );
        }
    }
    for (i, r) in circuit.registers().iter().enumerate() {
        if is_const(r.d) {
            em.emit(
                DiagCode::ConstantSink,
                DiagLoc::Register(i),
                format!("register data input tied to constant {:?}", r.d),
            );
        }
    }

    // DS-W01: liveness fixed point matching Builder::finish — outputs are
    // roots, and a register whose q is live makes its d a root (so a dead
    // register's whole feed cone is reported, exactly what re-synthesis
    // deletes).
    let mut live = vec![false; n];
    for w in circuit.outputs() {
        live[w.index()] = true;
    }
    loop {
        for g in gates.iter().rev() {
            if live[g.out.index()] {
                live[g.a.index()] = true;
                live[g.b.index()] = true;
            }
        }
        let mut changed = false;
        for r in circuit.registers() {
            if live[r.q.index()] && !live[r.d.index()] {
                live[r.d.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, g) in gates.iter().enumerate() {
        if !live[g.out.index()] {
            opp.dead.count(g);
            em.emit(
                DiagCode::DeadGate,
                DiagLoc::Gate(i),
                format!(
                    "{} gate output {:?} reaches no output or live register",
                    g.kind.name(),
                    g.out
                ),
            );
        }
    }

    // DS-W02: constant-cone propagation. Any gate with a statically-known
    // input strength-reduces to a copy, complement or constant, and the
    // known-ness propagates forward through the cone.
    let mut known: Vec<Option<bool>> = vec![None; n];
    known[CONST_0.index()] = Some(false);
    known[CONST_1.index()] = Some(true);
    for (i, g) in gates.iter().enumerate() {
        let ka = known[g.a.index()];
        let kb = known[g.b.index()];
        let flagged = if g.kind.is_binary() {
            ka.is_some() || kb.is_some()
        } else {
            ka.is_some()
        };
        known[g.out.index()] = fold(g.kind, ka, kb);
        if flagged {
            opp.constant.count(g);
            em.emit(
                DiagCode::ConstantFoldable,
                DiagLoc::Gate(i),
                match known[g.out.index()] {
                    Some(v) => format!(
                        "{} gate output {:?} is statically {}",
                        g.kind.name(),
                        g.out,
                        u8::from(v)
                    ),
                    None => format!(
                        "{} gate reads a statically-known wire and reduces to a copy",
                        g.kind.name()
                    ),
                },
            );
        }
    }

    // DS-W03: structural duplicates under the Builder's hash-consing key
    // (commutative inputs sorted; unary keyed on the single input).
    let mut cse: HashMap<(GateKind, Wire, Wire), usize> = HashMap::new();
    for (i, g) in gates.iter().enumerate() {
        let key = if g.kind.is_binary() {
            (g.kind, g.a.min(g.b), g.a.max(g.b))
        } else {
            (g.kind, g.a, g.a)
        };
        match cse.entry(key) {
            Entry::Vacant(v) => {
                v.insert(i);
            }
            Entry::Occupied(first) => {
                opp.duplicate.count(g);
                em.emit(
                    DiagCode::DuplicateGate,
                    DiagLoc::Gate(i),
                    format!(
                        "{} gate duplicates gate {} (same kind and inputs)",
                        g.kind.name(),
                        first.get()
                    ),
                );
            }
        }
    }

    opp
}

/// Three-valued truth function: `None` = statically unknown.
fn fold(kind: GateKind, a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match kind {
        GateKind::Xor => Some(a? ^ b?),
        GateKind::Xnor => Some(!(a? ^ b?)),
        GateKind::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        GateKind::Nand => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(true),
            (Some(true), Some(true)) => Some(false),
            _ => None,
        },
        GateKind::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        GateKind::Nor => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(false),
            (Some(false), Some(false)) => Some(true),
            _ => None,
        },
        GateKind::Not => Some(!a?),
        GateKind::Buf => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsecure_circuit::{Builder, Register};

    fn raw(wire_count: u32, garbler: Vec<Wire>, outputs: Vec<Wire>, gates: Vec<Gate>) -> Circuit {
        Circuit::from_raw_parts(wire_count, garbler, vec![], outputs, gates, vec![])
    }

    fn gate(kind: GateKind, a: u32, b: u32, out: u32) -> Gate {
        Gate {
            kind,
            a: Wire(a),
            b: Wire(b),
            out: Wire(out),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn reports_all_structural_errors_not_just_first() {
        // Gate 0 reads an out-of-bounds wire AND gate 1 re-drives a source.
        let c = raw(
            4,
            vec![Wire(2)],
            vec![Wire(3)],
            vec![gate(GateKind::And, 2, 9, 3), gate(GateKind::Xor, 2, 2, 2)],
        );
        let diags = verify(&c);
        let cs = codes(&diags);
        assert!(cs.contains(&DiagCode::InputOutOfBounds), "{diags:?}");
        assert!(cs.contains(&DiagCode::DuplicateDriver), "{diags:?}");
        // validate() agrees something is wrong (first error only).
        assert!(c.validate().is_err());
    }

    #[test]
    fn use_before_def_matches_validate() {
        let c = raw(
            5,
            vec![Wire(2)],
            vec![Wire(4)],
            vec![
                gate(GateKind::And, 2, 3, 4), // w3 defined by the *next* gate
                gate(GateKind::Xor, 2, 2, 3),
            ],
        );
        let diags = verify(&c);
        assert!(codes(&diags).contains(&DiagCode::UseBeforeDef), "{diags:?}");
        assert_eq!(c.validate().unwrap_err().code, DiagCode::UseBeforeDef);
    }

    #[test]
    fn unary_arity_is_an_error() {
        let c = raw(
            5,
            vec![Wire(2), Wire(3)],
            vec![Wire(4)],
            vec![gate(GateKind::Not, 2, 3, 4)],
        );
        let diags = verify(&c);
        assert_eq!(codes(&diags), vec![DiagCode::UnaryArity]);
        assert_eq!(c.validate().unwrap_err().code, DiagCode::UnaryArity);
    }

    #[test]
    fn dead_constant_and_duplicate_warnings_with_savings() {
        // w4 = a AND b (live), w5 = b AND a (duplicate of w4, dead),
        // w6 = a AND c0 (constant-foldable, dead).
        let c = raw(
            7,
            vec![Wire(2), Wire(3)],
            vec![Wire(4)],
            vec![
                gate(GateKind::And, 2, 3, 4),
                gate(GateKind::And, 3, 2, 5),
                gate(GateKind::And, 2, 0, 6),
            ],
        );
        let out = verify_full(&c);
        assert!(out.structurally_sound);
        let cs = codes(&out.diagnostics);
        assert!(cs.contains(&DiagCode::DeadGate));
        assert!(cs.contains(&DiagCode::ConstantFoldable));
        assert!(cs.contains(&DiagCode::DuplicateGate));
        let opp = out.opportunities.unwrap();
        assert_eq!(opp.dead.gates, 2);
        assert_eq!(opp.dead.table_bytes, 64);
        assert_eq!(
            opp.constant,
            Savings {
                gates: 1,
                non_free_gates: 1,
                table_bytes: 32
            }
        );
        assert_eq!(
            opp.duplicate,
            Savings {
                gates: 1,
                non_free_gates: 1,
                table_bytes: 32
            }
        );
        // The builder replay actually realizes the savings.
        let opt = deepsecure_circuit::passes::optimize(&c);
        assert_eq!(opt.stats().non_xor, 1);
    }

    #[test]
    fn constant_cones_propagate() {
        // w4 = a XOR c1 (reduces to NOT a), w5 = w4 AND c0-cone: w5 = w4 AND w6
        // where w6 = c0 XOR c0 is statically 0, so w5 is statically 0 too.
        let c = raw(
            8,
            vec![Wire(2)],
            vec![Wire(5)],
            vec![
                gate(GateKind::Xor, 2, 1, 4),
                gate(GateKind::Xor, 0, 0, 6),
                gate(GateKind::And, 4, 6, 5),
            ],
        );
        let out = verify_full(&c);
        assert!(out.structurally_sound);
        let opp = out.opportunities.unwrap();
        // All three gates sit in constant cones.
        assert_eq!(opp.constant.gates, 3);
        assert_eq!(opp.constant.non_free_gates, 1);
    }

    #[test]
    fn duplicate_and_constant_outputs_warn() {
        let c = raw(
            4,
            vec![Wire(2)],
            vec![Wire(3), Wire(3), Wire(1)],
            vec![gate(GateKind::Not, 2, 2, 3)],
        );
        let cs = codes(&verify(&c));
        assert!(cs.contains(&DiagCode::DuplicateOutput));
        assert!(cs.contains(&DiagCode::ConstantSink));
    }

    #[test]
    fn dead_register_cone_is_reported() {
        // Register q=w3 latches w4 = NOT input, but q feeds nothing and is
        // not an output: the whole cone is dead, as Builder would delete it.
        let c = Circuit::from_raw_parts(
            6,
            vec![Wire(2)],
            vec![],
            vec![Wire(5)],
            vec![gate(GateKind::Not, 2, 2, 4), gate(GateKind::Buf, 2, 2, 5)],
            vec![Register {
                d: Wire(4),
                q: Wire(3),
                init: false,
            }],
        );
        let out = verify_full(&c);
        assert!(out.structurally_sound, "{:?}", out.diagnostics);
        assert_eq!(out.opportunities.unwrap().dead.gates, 1);
    }

    #[test]
    fn builder_circuits_are_warning_free() {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(8);
        let ys = b.evaluator_inputs(8);
        let mut acc = b.const0();
        for (x, y) in xs.iter().zip(&ys) {
            let t = b.and(*x, *y);
            let u = b.and(*y, *x); // CSE'd
            let v = b.xor(t, u); // folds to 0
            let w = b.or(v, t); // reduces to t
            acc = b.xor(acc, w);
        }
        b.output(acc);
        let c = b.finish();
        assert_eq!(verify(&c), vec![]);
    }

    #[test]
    fn diagnostics_cap_per_code() {
        // 60 dead NOT gates -> 50 materialized diagnostics, exact total in
        // the opportunity report.
        let mut gates = Vec::new();
        for i in 0..60u32 {
            gates.push(gate(GateKind::Not, 2, 2, 4 + i));
        }
        gates.push(gate(GateKind::Buf, 2, 2, 3));
        let c = raw(64, vec![Wire(2)], vec![Wire(3)], gates);
        let out = verify_full(&c);
        let dead: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::DeadGate)
            .collect();
        assert_eq!(dead.len(), MAX_DIAGNOSTICS_PER_CODE);
        assert_eq!(out.opportunities.unwrap().dead.gates, 60);
    }
}
