use crate::ir::{Circuit, Gate, GateKind, Register, Wire, CONST_0, CONST_1};

/// "No gate" / "no wire" in the builder's index tables.
const NONE: u32 = u32::MAX;

/// Reader count from which a wire is a *hub*. A gate whose two inputs are
/// both hubs is found through [`HubTable`]; any other gate by walking the
/// reader chain of its less-read input, which is then shorter than this.
/// At 16 every `mnist_mlp` weight bit becomes a hub and the table fills
/// with 2.6 M gates that are probed 12 k times; at 32 it holds 7 k.
const HUB_READERS: u32 = 32;

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
/// Hash-consing indexes the gate list itself rather than hashing every
/// `(kind, a, b)` triple: each wire heads a chain of the gates that read
/// it, and a lookup walks the chain of whichever input has fewer readers.
/// Only gates between two hubs (wires with at least 32 readers — a
/// convolution weight bit, an input pixel) go into a small hash table.
/// Every lookup is therefore at most 31 chain steps or one probe.
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
    gates: Vec<Gate>,
    garbler_inputs: Vec<Wire>,
    evaluator_inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    registers: Vec<(Wire, Option<Wire>, bool)>,
    /// One entry per wire, so its length is the number of wires.
    wires: Vec<WireEntry>,
    /// Per gate: the next-older gate in its `a` input's reader chain and in
    /// its `b` input's (unary gates sit in `a`'s chain only).
    links: Vec<[u32; 2]>,
    hubs: HubTable,
}

/// What the builder knows about one wire, in one entry so the complement
/// check and the lookup that follows it load it once.
#[derive(Clone, Copy, Debug)]
struct WireEntry {
    /// The wire known to be its complement, or [`NONE`].
    complement: u32,
    /// The latest gate reading it, or [`NONE`]: the head of its chain.
    head: u32,
    /// How many gates read it.
    readers: u32,
}

const FRESH_WIRE: WireEntry = WireEntry {
    complement: NONE,
    head: NONE,
    readers: 0,
};

/// Open-addressed set of the gates whose inputs are both hubs, keyed by
/// `(kind, a, b)` and compared against the gate list it indexes.
///
/// The hash is a fixed multiply: the keys are wire ids this builder
/// numbered itself, and the only outside input that reaches it is a
/// netlist a local tool replays through [`crate::passes::optimize`]. A
/// keyed SipHash here made loading `tiny_cnn` ~40 % slower: its
/// convolution weights make most of its lookups hub probes.
#[derive(Debug, Default)]
struct HubTable {
    /// Gate indices, [`NONE`] for empty; the length is zero or a power of
    /// two at most half full.
    slots: Vec<u32>,
    len: usize,
}

impl HubTable {
    /// First slot of `(kind, a, b)`'s linear probe.
    fn home(&self, kind: GateKind, a: Wire, b: Wire) -> usize {
        let key = (u64::from(a.0) | u64::from(b.0) << 32) ^ kind as u64;
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    fn find(&self, gates: &[Gate], kind: GateKind, a: Wire, b: Wire) -> Option<Wire> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(kind, a, b);
        loop {
            let g = self.slots[i];
            if g == NONE {
                return None;
            }
            let gate = gates[g as usize];
            if (gate.kind, gate.a, gate.b) == (kind, a, b) {
                return Some(gate.out);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds gate `g`; adding it again is a no-op.
    fn insert(&mut self, gates: &[Gate], g: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![NONE; (2 * self.slots.len()).max(64)];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for h in old.into_iter().filter(|&h| h != NONE) {
                self.insert(gates, h);
            }
        }
        let gate = gates[g as usize];
        let mask = self.slots.len() - 1;
        let mut i = self.home(gate.kind, gate.a, gate.b);
        while self.slots[i] != NONE {
            if self.slots[i] == g {
                return;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = g;
        self.len += 1;
    }
}

impl Builder {
    /// Creates an empty builder with the two constant wires pre-allocated.
    pub fn new() -> Builder {
        Builder {
            wires: vec![FRESH_WIRE; 2],
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
        let w = Wire(u32::try_from(self.wires.len()).expect("wire ids exhausted"));
        self.wires.push(FRESH_WIRE);
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
        self.wires[a.index()].complement == b.0
    }

    fn set_complements(&mut self, a: Wire, b: Wire) {
        self.wires[a.index()].complement = b.0;
        self.wires[b.index()].complement = a.0;
    }

    /// The output of the existing `kind(a, b)` gate (inputs in canonical
    /// order), if any.
    fn find(&self, kind: GateKind, a: Wire, b: Wire) -> Option<Wire> {
        let (ea, eb) = (self.wires[a.index()], self.wires[b.index()]);
        if ea.readers.min(eb.readers) >= HUB_READERS {
            return self.hubs.find(&self.gates, kind, a, b);
        }
        let (w, mut g) = if ea.readers <= eb.readers {
            (a, ea.head)
        } else {
            (b, eb.head)
        };
        while g != NONE {
            let gate = self.gates[g as usize];
            if (gate.kind, gate.a, gate.b) == (kind, a, b) {
                return Some(gate.out);
            }
            g = self.links[g as usize][usize::from(gate.a != w)];
        }
        None
    }

    fn emit(&mut self, kind: GateKind, a: Wire, b: Wire) -> Wire {
        let (a, b) = if kind.is_binary() && a > b {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(w) = self.find(kind, a, b) {
            return w;
        }
        let g = u32::try_from(self.gates.len()).expect("gate ids exhausted");
        let out = self.fresh();
        self.gates.push(Gate { kind, a, b, out });
        let head = |w: Wire| self.wires[w.index()].head;
        let next_b = if b == a { NONE } else { head(b) };
        self.links.push([head(a), next_b]);
        self.add_reader(a, g);
        if b != a {
            self.add_reader(b, g);
        }
        let readers = |w: Wire| self.wires[w.index()].readers;
        if readers(a).min(readers(b)) >= HUB_READERS {
            self.hubs.insert(&self.gates, g);
        }
        out
    }

    /// Puts gate `g`, already linked, at the head of `w`'s reader chain.
    fn add_reader(&mut self, w: Wire, g: u32) {
        let e = &mut self.wires[w.index()];
        e.head = g;
        e.readers += 1;
        if e.readers == HUB_READERS {
            self.promote(w);
        }
    }

    /// `w` just became a hub: files every gate on its chain whose other
    /// input is a hub too.
    fn promote(&mut self, w: Wire) {
        let mut g = self.wires[w.index()].head;
        while g != NONE {
            let gate = self.gates[g as usize];
            let other = if gate.a == w { gate.b } else { gate.a };
            if self.wires[other.index()].readers >= HUB_READERS {
                self.hubs.insert(&self.gates, g);
            }
            g = self.links[g as usize][usize::from(gate.a != w)];
        }
    }

    /// Logical NOT (free under Free-XOR).
    pub fn not(&mut self, a: Wire) -> Wire {
        if let Some(c) = Self::known_const(a) {
            return self.constant(!c);
        }
        let c = self.wires[a.index()].complement;
        if c != NONE {
            return Wire(c);
        }
        let out = self.emit(GateKind::Not, a, a);
        self.set_complements(a, out);
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
                if let Some(x) = self.find(GateKind::Xor, a.min(b), a.max(b)) {
                    self.set_complements(x, out);
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
        // Drop the hash-consing index here — ~20 B per wire the rest of
        // finish() must not sit on top of. (Fields a `..` pattern leaves
        // behind would live until finish() returns.)
        let Builder {
            mut gates,
            garbler_inputs,
            evaluator_inputs,
            outputs,
            registers,
            wires,
            links,
            hubs,
        } = self;
        let next = wires.len();
        drop((wires, links, hubs));
        // Return the growth slack of the gate list before allocating the
        // finish-phase structures (a doubling Vec holds up to ~2× its
        // final size).
        gates.shrink_to_fit();

        let registers: Vec<(Wire, Wire, bool)> = registers
            .into_iter()
            .map(|(q, d, init)| (q, d.expect("register left unconnected"), init))
            .collect();

        // Liveness: outputs are roots; a live register's d is a root.
        let mut live = vec![false; next];
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
        let mut map: Vec<u32> = vec![UNMAPPED; next];
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
mod reference;

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
