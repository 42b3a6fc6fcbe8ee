use std::fmt;
use std::ops::ControlFlow;

use crate::diag::{DiagCode, DiagLoc, Diagnostic};

/// A wire in a circuit, identified by a dense index.
///
/// Wire 0 is the constant-false wire and wire 1 the constant-true wire in
/// every circuit produced by [`crate::Builder`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Wire(pub u32);

/// The constant-false wire.
pub const CONST_0: Wire = Wire(0);
/// The constant-true wire.
pub const CONST_1: Wire = Wire(1);

/// Garbled-table bytes of one non-free gate: two 128-bit half-gate
/// ciphertexts. Free gates (XOR/XNOR/NOT/BUF) cost none.
pub const GATE_TABLE_BYTES: u64 = 32;

impl Wire {
    /// The wire's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// The gate alphabet. Under Free-XOR, `Xor`, `Xnor`, `Not` and `Buf` are
/// *free* (no garbled table, no communication); all others are *non-XOR*
/// and cost two 128-bit ciphertexts with half-gates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Exclusive or.
    Xor,
    /// Complemented exclusive or.
    Xnor,
    /// Conjunction.
    And,
    /// Complemented conjunction.
    Nand,
    /// Disjunction.
    Or,
    /// Complemented disjunction.
    Nor,
    /// Inverter (single input, `b` ignored).
    Not,
    /// Buffer (single input, `b` ignored).
    Buf,
}

impl GateKind {
    /// Whether the gate garbles for free under Free-XOR.
    pub fn is_free(self) -> bool {
        matches!(
            self,
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf
        )
    }

    /// Whether the gate takes two inputs.
    pub fn is_binary(self) -> bool {
        !matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Plaintext truth function.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateKind::Xor => a ^ b,
            GateKind::Xnor => !(a ^ b),
            GateKind::And => a & b,
            GateKind::Nand => !(a & b),
            GateKind::Or => a | b,
            GateKind::Nor => !(a | b),
            GateKind::Not => !a,
            GateKind::Buf => a,
        }
    }

    /// Decomposes a non-free binary gate as `((a⊕α) ∧ (b⊕β)) ⊕ γ`.
    ///
    /// Every 2-input gate whose truth table has odd weight 1 or 3 fits this
    /// form, which is exactly what the half-gates garbler consumes: input
    /// inversions fold into label bookkeeping and the output inversion into
    /// the output label, so AND/NAND/OR/NOR all cost two ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics when called on a free gate.
    pub fn and_form(self) -> (bool, bool, bool) {
        match self {
            GateKind::And => (false, false, false),
            GateKind::Nand => (false, false, true),
            GateKind::Or => (true, true, true),
            GateKind::Nor => (true, true, false),
            _ => panic!("and_form on free gate {self:?}"),
        }
    }

    /// Parses the canonical upper-case name used in netlist files.
    pub fn from_name(s: &str) -> Option<GateKind> {
        Some(match s {
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" => GateKind::Buf,
            _ => return None,
        })
    }

    /// Canonical upper-case name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }
}

/// A gate: `out = kind(a, b)`. For unary kinds, `b == a` by convention.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Gate {
    /// The truth function.
    pub kind: GateKind,
    /// First input wire.
    pub a: Wire,
    /// Second input wire (equal to `a` for unary gates).
    pub b: Wire,
    /// Output wire.
    pub out: Wire,
}

/// A D-flip-flop register for sequential circuits: at each clock edge the
/// value on `d` is latched and presented on `q` during the next cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Register {
    /// Data input (a combinational wire).
    pub d: Wire,
    /// Latched output (acts as a source for the next cycle).
    pub q: Wire,
    /// Power-on value.
    pub init: bool,
}

/// Gate-count statistics; `non_xor` is the quantity that determines GC
/// communication under Free-XOR (paper Table 2: α = N_non-XOR × 2 × 128).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GateStats {
    /// Free gates (XOR, XNOR, NOT, BUF).
    pub xor: u64,
    /// Costly gates (AND, NAND, OR, NOR).
    pub non_xor: u64,
}

impl GateStats {
    /// Total gates.
    pub fn total(&self) -> u64 {
        self.xor + self.non_xor
    }

    /// Statistics scaled by `cycles` executions of a sequential core.
    pub fn scaled(&self, cycles: u64) -> GateStats {
        GateStats {
            xor: self.xor * cycles,
            non_xor: self.non_xor * cycles,
        }
    }

    /// Element-wise sum.
    pub fn merge(&self, other: GateStats) -> GateStats {
        GateStats {
            xor: self.xor + other.xor,
            non_xor: self.non_xor + other.non_xor,
        }
    }
}

impl std::ops::Add for GateStats {
    type Output = GateStats;
    fn add(self, rhs: GateStats) -> GateStats {
        self.merge(rhs)
    }
}

impl fmt::Display for GateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} XOR + {} non-XOR", self.xor, self.non_xor)
    }
}

/// A (possibly sequential) Boolean circuit in topological gate order.
///
/// Wires `0` and `1` are the constants; then garbler inputs, evaluator
/// inputs and register outputs act as sources. Use [`crate::Builder`] to
/// construct circuits and [`crate::Simulator`] to evaluate them in
/// plaintext.
#[derive(Clone, PartialEq, Eq)]
pub struct Circuit {
    wire_count: u32,
    garbler_inputs: Vec<Wire>,
    evaluator_inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    gates: Vec<Gate>,
    registers: Vec<Register>,
    /// Non-free gates in `gates`, counted once in
    /// [`Circuit::from_raw_parts`] — the only constructor, and the gate
    /// list is immutable afterwards, so the two cannot drift.
    nonfree: usize,
}

impl fmt::Debug for Circuit {
    /// The structural fields only: `nonfree` is derived from `gates`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("wire_count", &self.wire_count)
            .field("garbler_inputs", &self.garbler_inputs)
            .field("evaluator_inputs", &self.evaluator_inputs)
            .field("outputs", &self.outputs)
            .field("gates", &self.gates)
            .field("registers", &self.registers)
            .finish()
    }
}

impl Circuit {
    /// Assembles a circuit from raw parts **without validating it**.
    ///
    /// Intended for netlist importers and analysis tooling (fuzzers, the
    /// `deepsecure-analyze` verifier) that need to represent possibly-broken
    /// circuits. Run [`Circuit::validate`] — or the full analyzer — before
    /// handing the result to a garbler, evaluator or simulator; those
    /// components assume the structural invariants hold.
    ///
    /// Every circuit is built here ([`crate::Builder::finish`] and the
    /// netlist parser included), which is where the non-free gate count
    /// behind [`Circuit::nonfree_gate_count`] is taken.
    pub fn from_raw_parts(
        wire_count: u32,
        garbler_inputs: Vec<Wire>,
        evaluator_inputs: Vec<Wire>,
        outputs: Vec<Wire>,
        gates: Vec<Gate>,
        registers: Vec<Register>,
    ) -> Circuit {
        Circuit {
            nonfree: gates.iter().filter(|g| !g.kind.is_free()).count(),
            wire_count,
            garbler_inputs,
            evaluator_inputs,
            outputs,
            gates,
            registers,
        }
    }

    /// Total number of wires (including constants and dead wires).
    pub fn wire_count(&self) -> usize {
        self.wire_count as usize
    }

    /// Wires carrying the garbler's (client's) input bits.
    pub fn garbler_inputs(&self) -> &[Wire] {
        &self.garbler_inputs
    }

    /// Wires carrying the evaluator's (server's) input bits.
    pub fn evaluator_inputs(&self) -> &[Wire] {
        &self.evaluator_inputs
    }

    /// Output wires, in declaration order.
    pub fn outputs(&self) -> &[Wire] {
        &self.outputs
    }

    /// Gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Registers (empty for combinational circuits).
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Whether the circuit contains registers.
    pub fn is_sequential(&self) -> bool {
        !self.registers.is_empty()
    }

    /// Number of non-free gates (AND/NAND/OR/NOR) — each costs exactly two
    /// garbled-table ciphertexts under half-gates, so the per-cycle table
    /// stream has length `2 * nonfree_gate_count()`. Used by the garbler to
    /// preallocate and by the protocol to size channel reads, once per
    /// query: a stored count, not a scan of the gate list (242 MB on
    /// `mnist_mlp`).
    pub fn nonfree_gate_count(&self) -> usize {
        self.nonfree
    }

    /// Garbled-table bytes per cycle: [`GATE_TABLE_BYTES`] for each
    /// non-free gate. The analyzer's cost report and the serving pool's
    /// material cap both read this, so a new garbling scheme changes the
    /// size in one place.
    pub fn table_bytes(&self) -> u64 {
        GATE_TABLE_BYTES * self.nonfree as u64
    }

    /// Order-sensitive 64-bit digest of the whole netlist: wire count, the
    /// input, output and register lists and every gate, in order.
    ///
    /// Two circuits with equal counts but a different gate list — reordered
    /// gates, swapped inputs, another wiring — get different digests, which
    /// the serving handshake and the `BENCH_RESULTS.json` pin rely on. Each
    /// step folds two 64-bit words `x, y` in as
    /// `h ← (rotl(h) ⊕ x·K ⊕ y) · K`, a bijection of `h` and of either
    /// word, so changing any single word always changes the digest. A gate
    /// is one step, so the walk costs one multiply per word and one on the
    /// dependency chain per gate: on `mnist_mlp`'s 15 M gates it takes
    /// ~60 ms where a bare sum over the gate list takes ~47 ms (2-vCPU
    /// x86-64 host).
    pub fn digest(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = 0u64;
        let mut mix = |x: u64, y: u64| {
            h = (h.rotate_left(23) ^ x.wrapping_mul(K) ^ y).wrapping_mul(K);
        };
        let pair = |lo: Wire, hi: Wire| u64::from(lo.0) | u64::from(hi.0) << 32;
        mix(u64::from(self.wire_count), 0);
        for list in [&self.garbler_inputs, &self.evaluator_inputs, &self.outputs] {
            mix(list.len() as u64, 0);
            for w in list.iter() {
                mix(u64::from(w.0), 0);
            }
        }
        mix(self.registers.len() as u64, 0);
        for r in &self.registers {
            mix(pair(r.d, r.q), u64::from(r.init));
        }
        mix(self.gates.len() as u64, 0);
        for g in &self.gates {
            mix(pair(g.a, g.b), u64::from(g.out.0) | (g.kind as u64) << 32);
        }
        h
    }

    /// Whether any gate, output, or register data input reads the constant
    /// wires. The evaluator uses this to reject evaluation when constant
    /// labels were never installed instead of silently computing garbage.
    pub fn references_constants(&self) -> bool {
        let is_const = |w: Wire| w == CONST_0 || w == CONST_1;
        self.gates.iter().any(|g| is_const(g.a) || is_const(g.b))
            || self.outputs.iter().any(|w| is_const(*w))
            || self.registers.iter().any(|r| is_const(r.d))
    }

    /// Per-execution gate statistics (one clock cycle for sequential
    /// circuits).
    pub fn stats(&self) -> GateStats {
        let mut s = GateStats::default();
        for g in &self.gates {
            if g.kind.is_free() {
                s.xor += 1;
            } else {
                s.non_xor += 1;
            }
        }
        s
    }

    /// Evaluates a combinational circuit on plaintext inputs.
    ///
    /// Convenience wrapper over [`crate::Simulator`] for single-step
    /// circuits; sequential circuits latch registers once.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths do not match the declared input wires.
    pub fn eval(&self, garbler: &[bool], evaluator: &[bool]) -> Vec<bool> {
        crate::Simulator::new(self).step(garbler, evaluator)
    }

    /// Checks structural invariants: topological order, wire bounds, unique
    /// gate outputs, unary fan-in (`b == a` for NOT/BUF), and that sources
    /// are not driven.
    ///
    /// This is the cheap inline check used by [`crate::Builder`] and the
    /// netlist parser; it stops at the first violation. The
    /// `deepsecure-analyze` crate collects every violation through
    /// [`Circuit::check_structure`] and adds efficiency warnings on top.
    ///
    /// # Errors
    ///
    /// Returns a structured [`Diagnostic`] (stable `DS-Exx` code, location,
    /// detail) for the first violation; its [`fmt::Display`] is a one-line
    /// human-readable description.
    pub fn validate(&self) -> Result<(), Diagnostic> {
        match self.check_structure(ControlFlow::Break) {
            ControlFlow::Break(first) => Err(first),
            ControlFlow::Continue(()) => Ok(()),
        }
    }

    /// The structural walk behind [`Circuit::validate`]: hands every
    /// violation, in netlist order, to `report`, and stops as soon as
    /// `report` breaks. A violation never marks its wire driven, so later
    /// checks see the circuit as far as it is well-formed; an out-of-range
    /// constant wire ends the walk (nothing else can be checked).
    pub fn check_structure<B>(
        &self,
        mut report: impl FnMut(Diagnostic) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let n = self.wire_count as usize;
        let mut emit = |code: DiagCode, loc: DiagLoc, message: String| {
            report(Diagnostic::new(code, loc, message))
        };
        if CONST_1.index() >= n {
            return emit(
                DiagCode::SourceOutOfBounds,
                DiagLoc::Source(CONST_1),
                format!("constant wires need wire_count >= 2, have {n}"),
            );
        }
        let mut driven = vec![false; n];
        driven[CONST_0.index()] = true;
        driven[CONST_1.index()] = true;
        for w in self
            .garbler_inputs
            .iter()
            .chain(&self.evaluator_inputs)
            .chain(self.registers.iter().map(|r| &r.q))
        {
            if w.index() >= n {
                emit(
                    DiagCode::SourceOutOfBounds,
                    DiagLoc::Source(*w),
                    format!("source {w:?} out of bounds (wire_count {n})"),
                )?;
            } else if driven[w.index()] {
                emit(
                    DiagCode::DuplicateSource,
                    DiagLoc::Source(*w),
                    format!("source {w:?} declared twice"),
                )?;
            } else {
                driven[w.index()] = true;
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            for w in [g.a, g.b] {
                if w.index() >= n {
                    emit(
                        DiagCode::InputOutOfBounds,
                        DiagLoc::Gate(i),
                        format!("input {w:?} out of bounds (wire_count {n})"),
                    )?;
                } else if !driven[w.index()] {
                    emit(
                        DiagCode::UseBeforeDef,
                        DiagLoc::Gate(i),
                        format!("input {w:?} not yet driven"),
                    )?;
                }
            }
            if !g.kind.is_binary() && g.b != g.a {
                emit(
                    DiagCode::UnaryArity,
                    DiagLoc::Gate(i),
                    format!(
                        "unary {} gate has b = {:?} != a = {:?}",
                        g.kind.name(),
                        g.b,
                        g.a
                    ),
                )?;
            }
            if g.out.index() >= n {
                emit(
                    DiagCode::OutputOutOfBounds,
                    DiagLoc::Gate(i),
                    format!("output {:?} out of bounds (wire_count {n})", g.out),
                )?;
            } else if driven[g.out.index()] {
                emit(
                    DiagCode::DuplicateDriver,
                    DiagLoc::Gate(i),
                    format!("output {:?} already driven", g.out),
                )?;
            } else {
                driven[g.out.index()] = true;
            }
        }
        for (i, w) in self.outputs.iter().enumerate() {
            if w.index() >= n || !driven[w.index()] {
                emit(
                    DiagCode::UndrivenSink,
                    DiagLoc::Output(i),
                    format!("output {w:?} not driven"),
                )?;
            }
        }
        for (i, r) in self.registers.iter().enumerate() {
            if r.d.index() >= n || !driven[r.d.index()] {
                emit(
                    DiagCode::UndrivenSink,
                    DiagLoc::Register(i),
                    format!("register data input {:?} not driven", r.d),
                )?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_kind_truth_tables() {
        for (kind, table) in [
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
        ] {
            for (i, want) in table.iter().enumerate() {
                let (a, b) = (i & 2 != 0, i & 1 != 0);
                assert_eq!(kind.eval(a, b), *want, "{kind:?}({a},{b})");
            }
        }
        assert!(GateKind::Not.eval(false, false));
        assert!(GateKind::Buf.eval(true, true));
    }

    #[test]
    fn and_form_matches_truth_tables() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let (alpha, beta, gamma) = kind.and_form();
            for a in [false, true] {
                for b in [false, true] {
                    let via_form = ((a ^ alpha) & (b ^ beta)) ^ gamma;
                    assert_eq!(via_form, kind.eval(a, b), "{kind:?}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for kind in [
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Not,
            GateKind::Buf,
        ] {
            assert_eq!(GateKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(GateKind::from_name("FROB"), None);
    }

    #[test]
    fn free_classification() {
        assert!(GateKind::Xor.is_free());
        assert!(GateKind::Not.is_free());
        assert!(!GateKind::And.is_free());
        assert!(!GateKind::Nor.is_free());
    }

    #[test]
    fn digest_sees_every_gate_field_and_order() {
        let gate = |kind, a, b, out| Gate {
            kind,
            a: Wire(a),
            b: Wire(b),
            out: Wire(out),
        };
        let circuit = |gates| {
            Circuit::from_raw_parts(
                7,
                vec![Wire(2), Wire(3)],
                vec![Wire(4)],
                vec![Wire(6)],
                gates,
                vec![],
            )
        };
        let base = circuit(vec![
            gate(GateKind::And, 2, 4, 5),
            gate(GateKind::Xor, 5, 3, 6),
        ]);
        assert_eq!(base.digest(), base.clone().digest());
        for changed in [
            circuit(vec![
                gate(GateKind::And, 4, 2, 5),
                gate(GateKind::Xor, 5, 3, 6),
            ]),
            circuit(vec![
                gate(GateKind::Or, 2, 4, 5),
                gate(GateKind::Xor, 5, 3, 6),
            ]),
            circuit(vec![
                gate(GateKind::And, 2, 4, 5),
                gate(GateKind::Xor, 3, 5, 6),
            ]),
            circuit(vec![
                gate(GateKind::Xor, 5, 3, 6),
                gate(GateKind::And, 2, 4, 5),
            ]),
        ] {
            assert_eq!(changed.stats(), base.stats());
            assert_ne!(changed.digest(), base.digest(), "{changed:?}");
        }
    }

    #[test]
    fn stats_scale_and_merge() {
        let s = GateStats { xor: 3, non_xor: 2 };
        assert_eq!(
            s.scaled(10),
            GateStats {
                xor: 30,
                non_xor: 20
            }
        );
        assert_eq!(
            s + GateStats { xor: 1, non_xor: 1 },
            GateStats { xor: 4, non_xor: 3 }
        );
        assert_eq!(s.total(), 5);
    }
}
