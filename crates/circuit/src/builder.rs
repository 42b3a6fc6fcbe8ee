use std::collections::HashMap;

use crate::ir::{Circuit, Gate, GateKind, Register, Wire, CONST_0, CONST_1};

/// An incremental circuit builder with online logic optimization.
///
/// The builder stands in for the paper's "logic synthesis tool with a
/// GC-optimized custom library" (§3.4): every created gate is constant-
/// folded, strength-reduced (e.g. `x ⊕ x → 0`, `x ∧ 1 → x`, complements
/// cancel) and hash-consed so that structurally identical subcircuits are
/// shared. The result is a netlist with the minimum non-XOR count these
/// local rules can reach — the area objective of setting "XOR area = 0" in
/// a commercial synthesis flow.
///
/// Sequential circuits use the two-phase register API: [`Builder::register`]
/// creates the `q` source up front (so feedback loops can be expressed) and
/// [`Builder::connect_register`] later ties its `d` input.
///
/// # Example
///
/// ```
/// use deepsecure_circuit::Builder;
///
/// let mut b = Builder::new();
/// let x = b.garbler_input();
/// let y = b.garbler_input();
/// let a1 = b.and(x, y);
/// let a2 = b.and(y, x); // hash-consed: same gate
/// assert_eq!(a1, a2);
/// let z = b.xor(x, x); // folded to constant 0
/// assert_eq!(z, deepsecure_circuit::CONST_0);
/// ```
#[derive(Debug, Default)]
pub struct Builder {
    next: u32,
    gates: Vec<Gate>,
    garbler_inputs: Vec<Wire>,
    evaluator_inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    registers: Vec<(Wire, Option<Wire>, bool)>,
    cse: HashMap<(GateKind, Wire, Wire), Wire>,
    complement: HashMap<Wire, Wire>,
}

impl Builder {
    /// Creates an empty builder with the two constant wires pre-allocated.
    pub fn new() -> Builder {
        Builder {
            next: 2,
            ..Builder::default()
        }
    }

    /// The constant-false wire.
    pub fn const0(&self) -> Wire {
        CONST_0
    }

    /// The constant-true wire.
    pub fn const1(&self) -> Wire {
        CONST_1
    }

    /// Returns the constant wire for `bit`.
    pub fn constant(&self, bit: bool) -> Wire {
        if bit {
            CONST_1
        } else {
            CONST_0
        }
    }

    fn fresh(&mut self) -> Wire {
        let w = Wire(self.next);
        self.next += 1;
        w
    }

    /// Declares one garbler (client) input bit.
    pub fn garbler_input(&mut self) -> Wire {
        let w = self.fresh();
        self.garbler_inputs.push(w);
        w
    }

    /// Declares `n` garbler input bits (LSB first when used as a word).
    pub fn garbler_inputs(&mut self, n: usize) -> Vec<Wire> {
        (0..n).map(|_| self.garbler_input()).collect()
    }

    /// Declares one evaluator (server) input bit.
    pub fn evaluator_input(&mut self) -> Wire {
        let w = self.fresh();
        self.evaluator_inputs.push(w);
        w
    }

    /// Declares `n` evaluator input bits (LSB first when used as a word).
    pub fn evaluator_inputs(&mut self, n: usize) -> Vec<Wire> {
        (0..n).map(|_| self.evaluator_input()).collect()
    }

    /// Declares a register with power-on value `init`, returning its `q`
    /// output. The `d` input must be tied later with
    /// [`Builder::connect_register`].
    pub fn register(&mut self, init: bool) -> Wire {
        let q = self.fresh();
        self.registers.push((q, None, init));
        q
    }

    /// Ties the data input of the register whose output is `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` does not name a register or is already connected.
    pub fn connect_register(&mut self, q: Wire, d: Wire) {
        let reg = self
            .registers
            .iter_mut()
            .find(|(rq, _, _)| *rq == q)
            .expect("connect_register: not a register output");
        assert!(reg.1.is_none(), "register {q:?} connected twice");
        reg.1 = Some(d);
    }

    /// Marks `w` as a circuit output.
    pub fn output(&mut self, w: Wire) {
        self.outputs.push(w);
    }

    /// Marks every wire in `ws` as an output, in order.
    pub fn outputs(&mut self, ws: &[Wire]) {
        self.outputs.extend_from_slice(ws);
    }

    fn known_const(w: Wire) -> Option<bool> {
        match w {
            CONST_0 => Some(false),
            CONST_1 => Some(true),
            _ => None,
        }
    }

    fn are_complements(&self, a: Wire, b: Wire) -> bool {
        self.complement.get(&a) == Some(&b)
    }

    fn emit(&mut self, kind: GateKind, a: Wire, b: Wire) -> Wire {
        let (ka, kb) = if kind.is_binary() && a > b {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(&w) = self.cse.get(&(kind, ka, kb)) {
            return w;
        }
        let out = self.fresh();
        self.gates.push(Gate {
            kind,
            a: ka,
            b: kb,
            out,
        });
        self.cse.insert((kind, ka, kb), out);
        out
    }

    /// Logical NOT (free under Free-XOR).
    pub fn not(&mut self, a: Wire) -> Wire {
        if let Some(c) = Self::known_const(a) {
            return self.constant(!c);
        }
        if let Some(&w) = self.complement.get(&a) {
            return w;
        }
        let out = self.emit(GateKind::Not, a, a);
        self.complement.insert(a, out);
        self.complement.insert(out, a);
        out
    }

    /// Buffer; returns the input unchanged (kept for netlist import parity).
    pub fn buf(&mut self, a: Wire) -> Wire {
        a
    }

    /// Exclusive or (free).
    pub fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return CONST_0;
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(ca ^ cb),
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (Some(true), None) => self.not(b),
            (None, Some(true)) => self.not(a),
            (None, None) => self.emit(GateKind::Xor, a, b),
        }
    }

    /// Complemented exclusive or (free).
    pub fn xnor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return CONST_1;
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(!(ca ^ cb)),
            (Some(true), None) => b,
            (None, Some(true)) => a,
            (Some(false), None) => self.not(b),
            (None, Some(false)) => self.not(a),
            (None, None) => {
                let out = self.emit(GateKind::Xnor, a, b);
                let x = self.cse.get(&(GateKind::Xor, a.min(b), a.max(b))).copied();
                if let Some(x) = x {
                    self.complement.insert(x, out);
                    self.complement.insert(out, x);
                }
                out
            }
        }
    }

    /// Conjunction (one non-XOR gate).
    pub fn and(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return a;
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(ca & cb),
            (Some(false), _) | (_, Some(false)) => CONST_0,
            (Some(true), None) => b,
            (None, Some(true)) => a,
            (None, None) => self.emit(GateKind::And, a, b),
        }
    }

    /// Disjunction (one non-XOR gate).
    pub fn or(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return a;
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(ca | cb),
            (Some(true), _) | (_, Some(true)) => CONST_1,
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (None, None) => self.emit(GateKind::Or, a, b),
        }
    }

    /// Complemented conjunction (one non-XOR gate).
    pub fn nand(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return self.not(a);
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(!(ca & cb)),
            (Some(false), _) | (_, Some(false)) => CONST_1,
            (Some(true), None) => self.not(b),
            (None, Some(true)) => self.not(a),
            (None, None) => self.emit(GateKind::Nand, a, b),
        }
    }

    /// Complemented disjunction (one non-XOR gate).
    pub fn nor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return self.not(a);
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Self::known_const(a), Self::known_const(b)) {
            (Some(ca), Some(cb)) => self.constant(!(ca | cb)),
            (Some(true), _) | (_, Some(true)) => CONST_0,
            (Some(false), None) => self.not(b),
            (None, Some(false)) => self.not(a),
            (None, None) => self.emit(GateKind::Nor, a, b),
        }
    }

    /// 2:1 multiplexer `sel ? t : f` built as `f ⊕ (sel ∧ (t ⊕ f))` — the
    /// GC-optimized MUX costing exactly one non-XOR gate (paper §3.4).
    pub fn mux(&mut self, sel: Wire, t: Wire, f: Wire) -> Wire {
        let d = self.xor(t, f);
        let g = self.and(sel, d);
        self.xor(f, g)
    }

    /// Finalizes the circuit: dead gates and unused registers are removed
    /// and wires renumbered densely.
    ///
    /// # Panics
    ///
    /// Panics if any register was left unconnected.
    pub fn finish(self) -> Circuit {
        // Destructuring drops the hash-consing maps here — on a
        // multi-million-gate circuit they are hundreds of MB the rest of
        // finish() must not sit on top of.
        let Builder {
            next,
            mut gates,
            garbler_inputs,
            evaluator_inputs,
            outputs,
            registers,
            ..
        } = self;
        // Return the growth slack of the gate list before allocating the
        // finish-phase structures (a doubling Vec holds up to ~2× its
        // final size).
        gates.shrink_to_fit();

        let registers: Vec<(Wire, Wire, bool)> = registers
            .into_iter()
            .map(|(q, d, init)| (q, d.expect("register left unconnected"), init))
            .collect();

        // Liveness: outputs are roots; a live register's d is a root.
        let mut live = vec![false; next as usize];
        for w in &outputs {
            live[w.index()] = true;
        }
        loop {
            // Backward sweep over gates.
            for g in gates.iter().rev() {
                if live[g.out.index()] {
                    live[g.a.index()] = true;
                    live[g.b.index()] = true;
                }
            }
            let mut changed = false;
            for (q, d, _) in &registers {
                if live[q.index()] && !live[d.index()] {
                    live[d.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Dense renumbering: constants, inputs, live register outputs, live
        // gate outputs. Wire ids are dense already, so a flat Vec is the
        // map — a HashMap here costs ~6× the memory on big circuits.
        const UNMAPPED: u32 = u32::MAX;
        let mut map: Vec<u32> = vec![UNMAPPED; next as usize];
        let mut next_id = 0u32;
        let mut assign = |w: Wire, map: &mut Vec<u32>| {
            let nw = next_id;
            next_id += 1;
            map[w.index()] = nw;
            Wire(nw)
        };
        let lookup = |w: Wire, map: &[u32]| {
            let nw = map[w.index()];
            // Hard check even in release: a liveness-sweep bug would
            // otherwise emit a structurally corrupt circuit that only
            // fails far downstream (the HashMap this replaced panicked
            // here too, and the branch is free next to the old hashing).
            assert_ne!(nw, UNMAPPED, "wire {w:?} used before defined");
            Wire(nw)
        };
        assign(CONST_0, &mut map);
        assign(CONST_1, &mut map);
        let new_garbler: Vec<Wire> = garbler_inputs
            .iter()
            .map(|&w| assign(w, &mut map))
            .collect();
        let new_evaluator: Vec<Wire> = evaluator_inputs
            .iter()
            .map(|&w| assign(w, &mut map))
            .collect();
        let live_registers: Vec<&(Wire, Wire, bool)> = registers
            .iter()
            .filter(|(q, _, _)| live[q.index()])
            .collect();
        let new_q: Vec<Wire> = live_registers
            .iter()
            .map(|(q, _, _)| assign(*q, &mut map))
            .collect();
        let live_gate_count = gates.iter().filter(|g| live[g.out.index()]).count();
        let mut new_gates = Vec::with_capacity(live_gate_count);
        for g in &gates {
            if !live[g.out.index()] {
                continue;
            }
            let a = lookup(g.a, &map);
            let b = lookup(g.b, &map);
            let out = assign(g.out, &mut map);
            new_gates.push(Gate {
                kind: g.kind,
                a,
                b,
                out,
            });
        }
        let new_outputs: Vec<Wire> = outputs.iter().map(|&w| lookup(w, &map)).collect();
        let new_registers: Vec<Register> = live_registers
            .iter()
            .zip(new_q)
            .map(|((_, d, init), q)| Register {
                d: lookup(*d, &map),
                q,
                init: *init,
            })
            .collect();

        let circuit = Circuit::from_raw_parts(
            next_id,
            new_garbler,
            new_evaluator,
            new_outputs,
            new_gates,
            new_registers,
        );
        debug_assert_eq!(circuit.validate(), Ok(()));
        circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_rules() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        assert_eq!(b.xor(x, x), CONST_0);
        assert_eq!(b.and(x, CONST_0), CONST_0);
        assert_eq!(b.and(x, CONST_1), x);
        assert_eq!(b.or(x, CONST_1), CONST_1);
        assert_eq!(b.xor(x, CONST_0), x);
        let nx = b.not(x);
        assert_eq!(b.not(nx), x, "double negation cancels");
        assert_eq!(b.and(x, nx), CONST_0, "x AND NOT x = 0");
        assert_eq!(b.or(x, nx), CONST_1);
        assert_eq!(b.xor(x, nx), CONST_1);
    }

    #[test]
    fn nonfree_gate_count_matches_stats() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let a = b.and(x, y);
        let o = b.or(x, y);
        let z = b.xor(a, o);
        let n = b.nand(z, x);
        b.output(n);
        let c = b.finish();
        assert_eq!(c.nonfree_gate_count() as u64, c.stats().non_xor);
        assert_eq!(c.nonfree_gate_count(), 3, "and + or + nand");
    }

    #[test]
    fn references_constants_detection() {
        // Pure input→output circuit: no constant references.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        assert!(!b.finish().references_constants());

        // A constant routed to an output is a reference.
        let mut b = Builder::new();
        let x = b.garbler_input();
        b.output(x);
        let one = b.const1();
        b.output(one);
        assert!(b.finish().references_constants());
    }

    #[test]
    fn cse_shares_gates() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.garbler_input();
        let g1 = b.and(x, y);
        let g2 = b.and(y, x);
        assert_eq!(g1, g2);
        let x1 = b.xor(x, y);
        let x2 = b.xor(y, x);
        assert_eq!(x1, x2);
    }

    #[test]
    fn mux_single_non_xor() {
        let mut b = Builder::new();
        let s = b.garbler_input();
        let t = b.garbler_input();
        let f = b.evaluator_input();
        let m = b.mux(s, t, f);
        b.output(m);
        let c = b.finish();
        assert_eq!(c.stats().non_xor, 1);
        for sel in [false, true] {
            for tv in [false, true] {
                for fv in [false, true] {
                    let out = c.eval(&[sel, tv], &[fv]);
                    assert_eq!(out[0], if sel { tv } else { fv });
                }
            }
        }
    }

    #[test]
    fn dce_removes_dead_gates() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.garbler_input();
        let _dead = b.and(x, y);
        let live = b.xor(x, y);
        b.output(live);
        let c = b.finish();
        assert_eq!(c.stats().non_xor, 0);
        assert_eq!(c.stats().xor, 1);
    }

    #[test]
    fn dead_register_removed() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let q = b.register(false);
        let d = b.xor(q, x);
        b.connect_register(q, d);
        // No output depends on the register.
        b.output(x);
        let c = b.finish();
        assert!(c.registers().is_empty());
    }

    #[test]
    fn feedback_register_kept() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let q = b.register(false);
        let d = b.xor(q, x);
        b.connect_register(q, d);
        b.output(q);
        let c = b.finish();
        assert_eq!(c.registers().len(), 1);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "unconnected")]
    fn unconnected_register_panics() {
        let mut b = Builder::new();
        let q = b.register(false);
        b.output(q);
        let _ = b.finish();
    }

    #[test]
    fn validate_passes_on_built_circuits() {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(4);
        let ys = b.evaluator_inputs(4);
        let mut acc = b.const0();
        for (x, y) in xs.iter().zip(&ys) {
            let t = b.and(*x, *y);
            acc = b.xor(acc, t);
        }
        b.output(acc);
        let c = b.finish();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.stats().non_xor, 4);
    }
}
