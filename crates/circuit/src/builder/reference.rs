//! The hash-consing [`Builder`] as it was before the gate-list index — two
//! SipHash maps, `(kind, a, b) → out` and `wire → complement` — kept as the
//! oracle the index must match gate for gate.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

/// The old lookup logic over a [`Builder`] used only for its wire
/// numbering, gate list, input/output lists and [`Builder::finish`].
#[derive(Default)]
struct Reference {
    b: Builder,
    cse: HashMap<(GateKind, Wire, Wire), Wire>,
    complement: HashMap<Wire, Wire>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            b: Builder::new(),
            ..Reference::default()
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
        let out = self.b.fresh();
        self.b.gates.push(Gate {
            kind,
            a: ka,
            b: kb,
            out,
        });
        self.cse.insert((kind, ka, kb), out);
        out
    }

    fn not(&mut self, a: Wire) -> Wire {
        if let Some(c) = Builder::known_const(a) {
            return self.b.constant(!c);
        }
        if let Some(&w) = self.complement.get(&a) {
            return w;
        }
        let out = self.emit(GateKind::Not, a, a);
        self.complement.insert(a, out);
        self.complement.insert(out, a);
        out
    }

    fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return CONST_0;
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(ca ^ cb),
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (Some(true), None) => self.not(b),
            (None, Some(true)) => self.not(a),
            (None, None) => self.emit(GateKind::Xor, a, b),
        }
    }

    fn xnor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return CONST_1;
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(!(ca ^ cb)),
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

    fn and(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return a;
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(ca & cb),
            (Some(false), _) | (_, Some(false)) => CONST_0,
            (Some(true), None) => b,
            (None, Some(true)) => a,
            (None, None) => self.emit(GateKind::And, a, b),
        }
    }

    fn or(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return a;
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(ca | cb),
            (Some(true), _) | (_, Some(true)) => CONST_1,
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (None, None) => self.emit(GateKind::Or, a, b),
        }
    }

    fn nand(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return self.not(a);
        }
        if self.are_complements(a, b) {
            return CONST_1;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(!(ca & cb)),
            (Some(false), _) | (_, Some(false)) => CONST_1,
            (Some(true), None) => self.not(b),
            (None, Some(true)) => self.not(a),
            (None, None) => self.emit(GateKind::Nand, a, b),
        }
    }

    fn nor(&mut self, a: Wire, b: Wire) -> Wire {
        if a == b {
            return self.not(a);
        }
        if self.are_complements(a, b) {
            return CONST_0;
        }
        match (Builder::known_const(a), Builder::known_const(b)) {
            (Some(ca), Some(cb)) => self.b.constant(!(ca | cb)),
            (Some(true), _) | (_, Some(true)) => CONST_0,
            (Some(false), None) => self.not(b),
            (None, Some(false)) => self.not(a),
            (None, None) => self.emit(GateKind::Nor, a, b),
        }
    }

    fn mux(&mut self, sel: Wire, t: Wire, f: Wire) -> Wire {
        let d = self.xor(t, f);
        let g = self.and(sel, d);
        self.xor(f, g)
    }
}

/// Requests gate `op` of `b` (a [`Builder`] or a [`Reference`]).
macro_rules! apply {
    ($b:expr, $op:expr, $x:expr, $y:expr, $z:expr) => {
        match $op {
            0 => $b.and($x, $y),
            1 => $b.or($x, $y),
            2 => $b.nand($x, $y),
            3 => $b.nor($x, $y),
            4 => $b.xor($x, $y),
            5 => $b.xnor($x, $y),
            6 => $b.not($x),
            _ => $b.mux($x, $y, $z),
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn index_matches_the_two_map_builder(seed in 0u64..1u64 << 48, steps in 100usize..1200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut new, mut old) = (Builder::new(), Reference::new());
        let mut pool = vec![CONST_0, CONST_1];
        for _ in 0..3 {
            pool.push(new.garbler_input());
            old.b.garbler_input();
            pool.push(new.evaluator_input());
            old.b.evaluator_input();
        }
        for step in 0..steps {
            // Half the operands come from the first few wires, so they
            // collect enough readers to become hubs mid-sequence.
            let mut pick = || {
                let hot = rng.gen_bool(0.5);
                pool[rng.gen_range(0..if hot { 8 } else { pool.len() })]
            };
            let (x, mut y, z) = (pick(), pick(), pick());
            if rng.gen_range(0..6) == 0 {
                y = new.not(x);
                prop_assert_eq!(y, old.not(x));
            }
            let op = rng.gen_range(0..8u8);
            let w = apply!(new, op, x, y, z);
            prop_assert_eq!(w, apply!(old, op, x, y, z), "step {} op {}", step, op);
            pool.push(w);
        }
        prop_assert_eq!(&new.gates, &old.b.gates);
        let hubs = new.wires.iter().filter(|e| e.readers >= HUB_READERS).count();
        prop_assert!(steps < 600 || hubs > 0, "no wire reached {} readers", HUB_READERS);
        for &w in &pool {
            new.output(w);
            old.b.output(w);
        }
        prop_assert_eq!(new.finish(), old.b.finish());
    }
}

#[test]
fn outer_product_requested_twice_emits_n_squared_gates() {
    // Every garbler bit meets every evaluator bit, so all 2n inputs pass
    // the hub threshold part-way through the first sweep.
    let n = 3 * HUB_READERS as usize / 2;
    let (mut new, mut old) = (Builder::new(), Reference::new());
    let g = new.garbler_inputs(n);
    let e = new.evaluator_inputs(n);
    old.b.garbler_inputs(n);
    old.b.evaluator_inputs(n);
    let mut products = Vec::new();
    for &x in &g {
        for &y in &e {
            let p = new.and(x, y);
            assert_eq!(new.and(y, x), p, "immediate repeat, swapped");
            assert_eq!(old.and(x, y), p);
            products.push(p);
        }
    }
    for (i, &x) in g.iter().enumerate() {
        for (j, &y) in e.iter().enumerate() {
            assert_eq!(new.and(x, y), products[i * n + j], "second sweep");
        }
    }
    assert!(new.wires[2..2 + 2 * n]
        .iter()
        .all(|e| e.readers >= HUB_READERS));
    assert_eq!(new.hubs.len, n * n);
    new.outputs(&products);
    old.b.outputs(&products);
    let (c, reference) = (new.finish(), old.b.finish());
    assert_eq!(c.gates().len(), n * n);
    assert_eq!(c, reference);
}
