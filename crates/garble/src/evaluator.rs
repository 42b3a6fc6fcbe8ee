use deepsecure_circuit::{Circuit, Gate, GateKind, CONST_0, CONST_1};
use deepsecure_crypto::{Block, FixedKeyHash, GateHash, GateWalk};

/// The evaluation state machine (the server/Bob role in DeepSecure).
///
/// Receives garbled tables and active input labels, walks the netlist
/// (already topologically sorted) decrypting one half-gates pair per
/// non-XOR gate, and decodes outputs with the point-and-permute bits.
/// Register labels carry across cycles exactly like the garbler's.
pub struct Evaluator<'c> {
    circuit: &'c Circuit,
    hash: FixedKeyHash,
    /// Active labels of register q wires for the next cycle.
    reg_labels: Vec<Block>,
    /// Whether real register labels were ever installed. Starts `false` for
    /// sequential circuits: evaluating before [`Evaluator::set_initial_registers`]
    /// would silently walk the netlist with all-zero register labels.
    regs_initialized: bool,
    /// Mirrors the garbler's monotone per-gate tweak counter.
    tweak: u64,
    /// Constant-wire active labels (learned from the first cycle's stream —
    /// they ride along with the garbler input labels).
    const_labels: Option<[Block; 2]>,
    /// The wire-label array, recycled across cycles: lent to each
    /// [`CycleEval`] and handed back by its `finish`. Empty until the first
    /// cycle (or [`Evaluator::with_labels`]), and after a cycle that was
    /// dropped unfinished.
    labels: Vec<Block>,
}

impl std::fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("tweak", &self.tweak)
            .finish_non_exhaustive()
    }
}

impl<'c> Evaluator<'c> {
    /// Creates an evaluator for the circuit.
    pub fn new(circuit: &'c Circuit) -> Evaluator<'c> {
        Evaluator {
            circuit,
            hash: FixedKeyHash::new(),
            reg_labels: vec![Block::ZERO; circuit.registers().len()],
            // Combinational circuits have no register state to install.
            regs_initialized: !circuit.is_sequential(),
            tweak: 0,
            const_labels: None,
            labels: Vec::new(),
        }
    }

    /// Adopts `labels` as the wire-label array — the allocation a previous
    /// evaluator gave up through [`Evaluator::into_labels`], whatever
    /// circuit it served and whatever it still holds (see
    /// [`Evaluator::begin_cycle`] for why stale contents are harmless).
    pub fn with_labels(mut self, labels: Vec<Block>) -> Self {
        self.labels = labels;
        self
    }

    /// Swaps the fixed-key hash for `hash` — how the kernel-equivalence
    /// test runs the T-table kernel on an AES-NI host.
    #[cfg(test)]
    pub(crate) fn with_hash(mut self, hash: FixedKeyHash) -> Self {
        self.hash = hash;
        self
    }

    /// Gives up the wire-label array for the next evaluator's
    /// [`Evaluator::with_labels`].
    pub fn into_labels(self) -> Vec<Block> {
        self.labels
    }

    /// Installs the initial register labels (sent by the garbler before the
    /// first cycle).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn set_initial_registers(&mut self, labels: Vec<Block>) {
        assert_eq!(labels.len(), self.reg_labels.len(), "register arity");
        self.reg_labels = labels;
        self.regs_initialized = true;
    }

    /// Installs the constant-wire active labels (the garbler sends them
    /// once, before the first cycle's tables).
    pub fn set_constant_labels(&mut self, const0: Block, const1: Block) {
        self.const_labels = Some([const0, const1]);
    }

    /// Evaluates one cycle and returns the decoded output bits.
    ///
    /// `garbler_labels` are the active labels of the garbler's inputs (sent
    /// directly); `evaluator_labels` are this party's own input labels
    /// (obtained via OT).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, if constant labels were never provided
    /// while the circuit references constants (see
    /// [`Evaluator::set_constant_labels`]), or if the circuit is sequential
    /// and [`Evaluator::set_initial_registers`] was never called —
    /// evaluating with placeholder labels would silently produce garbage
    /// bits instead of an error.
    pub fn eval_cycle(
        &mut self,
        tables: &[Block],
        garbler_labels: &[Block],
        evaluator_labels: &[Block],
        output_decode: &[bool],
    ) -> Vec<bool> {
        let mut cycle = self.begin_cycle(garbler_labels, evaluator_labels);
        cycle.feed(tables);
        cycle.finish(output_decode)
    }

    /// Starts evaluating one cycle incrementally: input labels install now,
    /// garbled tables arrive later through [`CycleEval::feed`] — the
    /// constant-memory consumer half of the streaming pipeline. Gate walk
    /// progress is bounded only by how much material has been fed, so the
    /// evaluator works while later chunks are still in flight.
    ///
    /// The wire-label array is **recycled**, exactly as on the garbling
    /// side ([`crate::Garbler::begin_cycle`]): sized on first use, then
    /// only the source wires are overwritten per cycle. Stale labels on
    /// the other wires are never read — def-before-use gate order means
    /// this cycle's walk writes every gate output first — and the two
    /// sources the caller could forget (constants, initial registers) are
    /// still rejected below rather than left holding a previous cycle's
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, missing constant labels (when the circuit
    /// references constants), or a sequential circuit whose initial
    /// register labels were never installed — same contract as
    /// [`Evaluator::eval_cycle`].
    pub fn begin_cycle(
        &mut self,
        garbler_labels: &[Block],
        evaluator_labels: &[Block],
    ) -> CycleEval<'_, 'c> {
        let c = self.circuit;
        assert_eq!(
            garbler_labels.len(),
            c.garbler_inputs().len(),
            "garbler label arity"
        );
        assert_eq!(
            evaluator_labels.len(),
            c.evaluator_inputs().len(),
            "evaluator label arity"
        );
        assert!(
            self.regs_initialized,
            "register labels never provided for a sequential circuit: call \
             Evaluator::set_initial_registers before eval_cycle"
        );
        let mut labels = std::mem::take(&mut self.labels);
        // A no-op on every cycle after the first.
        labels.resize(c.wire_count(), Block::ZERO);
        match self.const_labels {
            Some([c0, c1]) => {
                labels[CONST_0.index()] = c0;
                labels[CONST_1.index()] = c1;
            }
            None => assert!(
                !c.references_constants(),
                "constant labels never provided but the circuit references \
                 constants: call Evaluator::set_constant_labels before eval_cycle"
            ),
        }
        for (w, &l) in c.garbler_inputs().iter().zip(garbler_labels) {
            labels[w.index()] = l;
        }
        for (w, &l) in c.evaluator_inputs().iter().zip(evaluator_labels) {
            labels[w.index()] = l;
        }
        for (r, &l) in c.registers().iter().zip(&self.reg_labels) {
            labels[r.q.index()] = l;
        }
        CycleEval {
            evaluator: self,
            labels,
            next_gate: 0,
            pending: Vec::new(),
        }
    }
}

/// One clock cycle being evaluated incrementally (the streaming consumer).
///
/// Created by [`Evaluator::begin_cycle`]. Each [`CycleEval::feed`] hands
/// over the next table rows in stream order and immediately evaluates
/// every gate they unblock; [`CycleEval::finish`] checks the stream
/// consumed exactly, latches registers, and decodes the outputs.
///
/// Rows are consumed straight from the fed slice — no copy of the stream
/// is ever made, so the buffered [`Evaluator::eval_cycle`] wrapper stays
/// zero-copy and a streamed run buffers at most one orphan row between
/// feeds (a feed may split a gate's two rows across calls).
pub struct CycleEval<'e, 'c> {
    evaluator: &'e mut Evaluator<'c>,
    /// Active labels of this cycle's wires (settled gate by gate) — the
    /// evaluator's recycled array, on loan until `finish`.
    labels: Vec<Block>,
    /// Next gate to evaluate.
    next_gate: usize,
    /// Fed-but-unconsumed table rows: at most one orphan row while gates
    /// remain; only an oversupplied stream (an error [`CycleEval::finish`]
    /// reports) accumulates more.
    pending: Vec<Block>,
}

impl std::fmt::Debug for CycleEval<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleEval")
            .field("next_gate", &self.next_gate)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl CycleEval<'_, '_> {
    /// Feeds the next table rows (in stream order) and evaluates as far as
    /// the material allows: every free gate, plus each non-free gate whose
    /// two rows are available.
    pub fn feed(&mut self, tables: &[Block]) {
        let ev = &mut *self.evaluator;
        let used = ev.hash.run(EvalWalk {
            gates: ev.circuit.gates(),
            tweak: &mut ev.tweak,
            labels: &mut self.labels,
            next_gate: &mut self.next_gate,
            pending: &mut self.pending,
            tables,
        });
        // Stash the unconsumed tail: at most one row while gates remain;
        // everything left over (an error) once the gate walk is complete.
        self.pending.extend_from_slice(&tables[used..]);
    }

    /// Whether every gate of the cycle has been evaluated.
    pub fn is_complete(&self) -> bool {
        self.next_gate == self.evaluator.circuit.gates().len()
    }

    /// Closes the cycle: verifies the table stream was consumed exactly,
    /// latches register labels forward, and decodes the output bits.
    ///
    /// # Panics
    ///
    /// Panics on decode-arity mismatch or a table stream length mismatch
    /// (truncated or oversized material).
    pub fn finish(mut self, output_decode: &[bool]) -> Vec<bool> {
        // A circuit whose cycle carries no material (all-free gates) is
        // never fed; an empty feed walks its gates here.
        self.feed(&[]);
        let ev = self.evaluator;
        let c = ev.circuit;
        assert_eq!(output_decode.len(), c.outputs().len(), "decode arity");
        assert!(
            self.next_gate == c.gates().len(),
            "table stream length mismatch (truncated material): \
             {} of {} gates evaluated",
            self.next_gate,
            c.gates().len()
        );
        assert!(
            self.pending.is_empty(),
            "table stream length mismatch: {} unconsumed rows",
            self.pending.len()
        );
        let labels = self.labels;
        for (slot, r) in ev.reg_labels.iter_mut().zip(c.registers()) {
            *slot = labels[r.d.index()];
        }
        let outputs = c
            .outputs()
            .iter()
            .zip(output_decode)
            .map(|(w, &d)| labels[w.index()].color() ^ d)
            .collect();
        ev.labels = labels;
        outputs
    }
}

/// The evaluator's gate walk over one feed: every gate from `next_gate` on
/// until the walk completes or a non-free gate lacks its two rows.
/// [`FixedKeyHash::run`] compiles it once per hash kernel; it returns how
/// many rows of `tables` it consumed.
struct EvalWalk<'w> {
    gates: &'w [Gate],
    tweak: &'w mut u64,
    labels: &'w mut [Block],
    next_gate: &'w mut usize,
    /// The orphan row a previous feed left, if any.
    pending: &'w mut Vec<Block>,
    tables: &'w [Block],
}

impl GateWalk for EvalWalk<'_> {
    type Output = usize;

    #[inline(always)]
    fn walk<H: GateHash>(self, hash: &H) -> usize {
        let (gates, labels, tables) = (self.gates, self.labels, self.tables);
        let mut tweak = *self.tweak;
        let mut next = *self.next_gate;
        let mut pos = 0usize;
        while next < gates.len() {
            let gate = &gates[next];
            let a = labels[gate.a.index()];
            let b = labels[gate.b.index()];
            let out = match gate.kind {
                GateKind::Xor | GateKind::Xnor => a ^ b,
                GateKind::Not | GateKind::Buf => a,
                // Half-gates evaluation; input/output inversions are
                // garbler-side bookkeeping, invisible here.
                _ => {
                    // Assemble the row pair from the orphan (if any) plus
                    // the fed slice; rows are never copied ahead of use.
                    debug_assert!(self.pending.len() <= 1, "orphan invariant");
                    let avail = self.pending.len() + (tables.len() - pos);
                    if avail < 2 {
                        // Blocked on material still in flight.
                        break;
                    }
                    let (table_g, table_e) = if let Some(&orphan) = self.pending.first() {
                        self.pending.clear();
                        pos += 1;
                        (orphan, tables[pos - 1])
                    } else {
                        pos += 2;
                        (tables[pos - 2], tables[pos - 1])
                    };
                    let (t_g, t_e) = (tweak, tweak + 1);
                    tweak += 2;
                    // Both half-gate hashes in one batch; the colour-bit
                    // selects are masks, not branches.
                    let [h_g, h_e] = hash.hash([a, b], [t_g, t_e]);
                    let w_g = h_g ^ table_g.masked(a.color());
                    let w_e = h_e ^ (table_e ^ a).masked(b.color());
                    w_g ^ w_e
                }
            };
            labels[gate.out.index()] = out;
            next += 1;
        }
        *self.tweak = tweak;
        *self.next_gate = next;
        pos
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Builder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::Garbler;

    use super::*;

    #[test]
    fn evaluator_never_sees_delta_structure() {
        // The two possible active labels the evaluator could hold for a
        // wire differ by Δ, but each individual label is uniform; check
        // at least that evaluating twice with re-garbled material yields
        // unrelated intermediate labels.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(9);
        let mut g1 = Garbler::new(&c, &mut rng);
        let cy1 = g1.garble_cycle(&mut rng);
        let mut g2 = Garbler::new(&c, &mut rng);
        let cy2 = g2.garble_cycle(&mut rng);
        assert_ne!(
            cy1.garbler_input_labels[0].0, cy2.garbler_input_labels[0].0,
            "independent sessions, independent labels"
        );
    }

    #[test]
    #[should_panic(expected = "constant labels never provided")]
    fn missing_constant_labels_panics() {
        // Regression: this used to leave CONST_0/CONST_1 as Block::ZERO and
        // silently misevaluate.
        let mut b = Builder::new();
        let x = b.garbler_input();
        b.output(x);
        let one = b.const1();
        b.output(one);
        let c = b.finish();
        assert!(c.references_constants());
        let mut rng = StdRng::seed_from_u64(21);
        let mut g = Garbler::new(&c, &mut rng);
        let cy = g.garble_cycle(&mut rng);
        let mut e = Evaluator::new(&c);
        let gl = cy.garbler_active(&[true]);
        let _ = e.eval_cycle(&cy.tables, &gl, &[], &cy.output_decode);
    }

    #[test]
    fn missing_constant_labels_ok_when_unreferenced() {
        // A circuit that never reads the constant wires must keep working
        // without set_constant_labels.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.finish();
        assert!(!c.references_constants());
        let mut rng = StdRng::seed_from_u64(22);
        let mut g = Garbler::new(&c, &mut rng);
        let cy = g.garble_cycle(&mut rng);
        let mut e = Evaluator::new(&c);
        let gl = cy.garbler_active(&[true]);
        let el = cy.evaluator_active(&[true]);
        let out = e.eval_cycle(&cy.tables, &gl, &el, &cy.output_decode);
        assert_eq!(out, vec![true]);
    }

    #[test]
    #[should_panic(expected = "register labels never provided")]
    fn missing_initial_registers_panics() {
        // Regression: this used to evaluate with all-zero register labels
        // and produce wrong bits instead of an error.
        let mut b = Builder::new();
        let x = b.garbler_input();
        let q = b.register(false);
        let d = b.and(q, x);
        b.connect_register(q, d);
        b.output(d);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(23);
        let mut g = Garbler::new(&c, &mut rng);
        let cy = g.garble_cycle(&mut rng);
        let mut e = Evaluator::new(&c);
        // Deliberately skip set_initial_registers.
        let gl = cy.garbler_active(&[true]);
        let _ = e.eval_cycle(&cy.tables, &gl, &[], &cy.output_decode);
    }

    #[test]
    #[should_panic(expected = "table stream length")]
    fn truncated_tables_detected() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(10);
        let mut g = Garbler::new(&c, &mut rng);
        let cy = g.garble_cycle(&mut rng);
        let mut e = Evaluator::new(&c);
        let gl = cy.garbler_active(&[true]);
        let el = cy.evaluator_active(&[true]);
        // Drop one table row.
        let _ = e.eval_cycle(&cy.tables[..1], &gl, &el, &cy.output_decode);
    }
}
