use deepsecure_circuit::{Circuit, Gate, GateKind, CONST_0, CONST_1};
use deepsecure_crypto::{Block, FixedKeyHash, GateHash, GateWalk};
use rand::Rng;

/// The material and label metadata for one garbled clock cycle.
#[derive(Debug, Clone)]
pub struct GarbledCycle {
    /// Two ciphertexts per non-free gate, in topological gate order.
    pub tables: Vec<Block>,
    /// `(label_false, label_true)` for each garbler input wire.
    pub garbler_input_labels: Vec<(Block, Block)>,
    /// `(label_false, label_true)` for each evaluator input wire — the OT
    /// message pairs.
    pub evaluator_input_labels: Vec<(Block, Block)>,
    /// Active labels for the two constant wires (fixed across cycles; the
    /// garbler transmits them with the first cycle).
    pub constant_labels: [Block; 2],
    /// Point-and-permute decode bit per output wire.
    pub output_decode: Vec<bool>,
}

impl GarbledCycle {
    /// The active labels for the garbler's own input bits.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn garbler_active(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            bits.len(),
            self.garbler_input_labels.len(),
            "garbler input arity"
        );
        bits.iter()
            .zip(&self.garbler_input_labels)
            .map(|(&b, (l0, l1))| if b { *l1 } else { *l0 })
            .collect()
    }

    /// The active labels for given evaluator bits — what OT would deliver
    /// (used by tests and the local runner; the protocol uses real OT).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn evaluator_active(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            bits.len(),
            self.evaluator_input_labels.len(),
            "evaluator input arity"
        );
        bits.iter()
            .zip(&self.evaluator_input_labels)
            .map(|(&b, (l0, l1))| if b { *l1 } else { *l0 })
            .collect()
    }
}

/// The garbling state machine (the client/Alice role in DeepSecure).
///
/// Holds the Free-XOR offset Δ, the constant-wire labels, and the carried
/// false labels of register outputs so that sequential circuits garble one
/// cycle at a time in constant memory (§3.5).
pub struct Garbler<'c> {
    circuit: &'c Circuit,
    delta: Block,
    hash: FixedKeyHash,
    const_labels: [Block; 2],
    /// False labels of register q wires, carried across cycles.
    reg_labels: Vec<Block>,
    /// Monotone per-gate tweak counter (never reused across cycles).
    tweak: u64,
    /// Non-free gate count, fixed per circuit: every cycle's table stream
    /// has exactly `2 * nonfree` entries.
    nonfree: usize,
    /// The wire-label array, recycled across cycles: lent to each
    /// [`CycleGarbling`] and handed back by its `finish`. Empty until the
    /// first cycle (or [`Garbler::with_labels`]), and after a cycle that
    /// was dropped unfinished.
    labels: Vec<Block>,
}

impl std::fmt::Debug for Garbler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Garbler")
            .field("tweak", &self.tweak)
            .finish_non_exhaustive()
    }
}

impl<'c> Garbler<'c> {
    /// Creates a garbler with a fresh Δ and register/constant labels.
    pub fn new<R: Rng + ?Sized>(circuit: &'c Circuit, rng: &mut R) -> Garbler<'c> {
        let delta = Block::random_delta(rng);
        Garbler {
            circuit,
            delta,
            hash: FixedKeyHash::new(),
            const_labels: [Block::random(rng), Block::random(rng)],
            reg_labels: (0..circuit.registers().len())
                .map(|_| Block::random(rng))
                .collect(),
            tweak: 0,
            nonfree: circuit.nonfree_gate_count(),
            labels: Vec::new(),
        }
    }

    /// Adopts `labels` as the wire-label array — the allocation a previous
    /// garbler gave up through [`Garbler::into_labels`], whatever circuit it
    /// served and whatever it still holds (see [`Garbler::begin_cycle`] for
    /// why stale contents are harmless). A caller that garbles query after
    /// query threads one array through all of them, so only the first pays
    /// for `wire_count × 16` bytes of fresh pages.
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

    /// Gives up the wire-label array for the next garbler's
    /// [`Garbler::with_labels`]. It holds this garbler's false labels:
    /// keep it inside the garbling party.
    pub fn into_labels(self) -> Vec<Block> {
        self.labels
    }

    /// The global Free-XOR offset (exposed for invariant tests; a real
    /// deployment never reveals it).
    pub fn delta(&self) -> Block {
        self.delta
    }

    /// Active labels encoding each register's initial power-on value; sent
    /// to the evaluator once before the first cycle.
    pub fn initial_register_labels(&self) -> Vec<Block> {
        self.circuit
            .registers()
            .iter()
            .zip(&self.reg_labels)
            .map(|(r, &l0)| if r.init { l0 ^ self.delta } else { l0 })
            .collect()
    }

    /// Garbles one clock cycle, assigning fresh input labels and producing
    /// the table stream. Register output labels are the ones carried from
    /// the previous cycle; register input labels are carried forward.
    ///
    /// Implemented on top of [`Garbler::begin_cycle`] — the buffered and
    /// the chunk-streamed paths share one code path, which is what makes
    /// them bit-identical by construction.
    pub fn garble_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> GarbledCycle {
        let mut cycle = self.begin_cycle(rng);
        let mut tables = Vec::with_capacity(2 * cycle.remaining_nonfree());
        cycle.garble_chunk(usize::MAX, &mut tables);
        let garbler_input_labels = cycle.garbler_input_labels().to_vec();
        let evaluator_input_labels = cycle.evaluator_input_labels().to_vec();
        let constant_labels = cycle.constant_labels();
        let output_decode = cycle.finish();
        GarbledCycle {
            tables,
            garbler_input_labels,
            evaluator_input_labels,
            constant_labels,
            output_decode,
        }
    }

    /// Starts garbling one clock cycle incrementally: input labels are
    /// assigned immediately (so OT and label transfer can begin before any
    /// gate is garbled), tables are produced on demand by
    /// [`CycleGarbling::garble_chunk`] in fixed-size chunks — the
    /// constant-memory producer half of the streaming pipeline.
    ///
    /// The returned handle borrows the garbler; it must be driven to
    /// completion ([`CycleGarbling::finish`]) before the next cycle starts.
    ///
    /// The wire-label array is **recycled**: it is sized to the circuit on
    /// first use and from then on only the source wires (constants,
    /// inputs, register outputs) are overwritten here — never the whole
    /// array, which on a paper-size circuit is hundreds of MB to allocate,
    /// zero and fault in per cycle. Whatever the previous cycle (or a
    /// previous owner, see [`Garbler::with_labels`]) left on the other
    /// wires is never observed: the gate list is in def-before-use order
    /// ([`Circuit::validate`]), so every gate output is written by this
    /// cycle's walk before any gate, output or register reads it.
    pub fn begin_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CycleGarbling<'_, 'c> {
        let c = self.circuit;
        let mut labels = std::mem::take(&mut self.labels);
        // A no-op on every cycle after the first.
        labels.resize(c.wire_count(), Block::ZERO);
        labels[CONST_0.index()] = self.const_labels[0];
        // The evaluator's label for const-1 *encodes true*: its false label
        // is offset by Δ.
        labels[CONST_1.index()] = self.const_labels[1];

        let mut garbler_inputs = Vec::with_capacity(c.garbler_inputs().len());
        for w in c.garbler_inputs() {
            let l0 = Block::random(rng);
            labels[w.index()] = l0;
            garbler_inputs.push((l0, l0 ^ self.delta));
        }
        let mut evaluator_inputs = Vec::with_capacity(c.evaluator_inputs().len());
        for w in c.evaluator_inputs() {
            let l0 = Block::random(rng);
            labels[w.index()] = l0;
            evaluator_inputs.push((l0, l0 ^ self.delta));
        }
        for (r, &l0) in c.registers().iter().zip(&self.reg_labels) {
            labels[r.q.index()] = l0;
        }
        CycleGarbling {
            garbler: self,
            labels,
            next_gate: 0,
            rows_emitted: 0,
            garbler_input_labels: garbler_inputs,
            evaluator_input_labels: evaluator_inputs,
        }
    }

    /// Label sanity helper: every wire pair must differ by exactly Δ.
    /// (Used by invariant tests.)
    pub fn labels_differ_by_delta(&self, l0: Block, l1: Block) -> bool {
        l0 ^ l1 == self.delta
    }
}

/// One clock cycle being garbled incrementally (the streaming producer).
///
/// Created by [`Garbler::begin_cycle`]. Input label pairs are available
/// from the start; [`CycleGarbling::garble_chunk`] then emits the table
/// stream in gate order, any number of non-free gates at a time, and
/// [`CycleGarbling::finish`] closes the cycle (latching register labels
/// forward and yielding the output decode bits).
///
/// Chunk boundaries never change the produced bytes: the concatenation of
/// all chunks is bit-identical to [`Garbler::garble_cycle`]'s `tables`
/// for the same RNG stream, whatever the chunk sizes.
pub struct CycleGarbling<'g, 'c> {
    garbler: &'g mut Garbler<'c>,
    /// Wire labels of this cycle (false labels; settled gate by gate) — the
    /// garbler's recycled array, on loan until `finish`.
    labels: Vec<Block>,
    /// Next gate to garble (netlist is topologically sorted).
    next_gate: usize,
    /// Table rows emitted so far (2 per non-free gate).
    rows_emitted: usize,
    garbler_input_labels: Vec<(Block, Block)>,
    evaluator_input_labels: Vec<(Block, Block)>,
}

impl std::fmt::Debug for CycleGarbling<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleGarbling")
            .field("next_gate", &self.next_gate)
            .field("rows_emitted", &self.rows_emitted)
            .finish_non_exhaustive()
    }
}

impl CycleGarbling<'_, '_> {
    /// `(label_false, label_true)` per garbler input wire.
    pub fn garbler_input_labels(&self) -> &[(Block, Block)] {
        &self.garbler_input_labels
    }

    /// `(label_false, label_true)` per evaluator input wire — the OT
    /// message pairs, available before any gate is garbled.
    pub fn evaluator_input_labels(&self) -> &[(Block, Block)] {
        &self.evaluator_input_labels
    }

    /// Active labels for the constant wires (const-0 encodes false,
    /// const-1 encodes true).
    pub fn constant_labels(&self) -> [Block; 2] {
        [
            self.garbler.const_labels[0],
            self.garbler.const_labels[1] ^ self.garbler.delta,
        ]
    }

    /// Active labels for the garbler's own input bits.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn garbler_active(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            bits.len(),
            self.garbler_input_labels.len(),
            "garbler input arity"
        );
        bits.iter()
            .zip(&self.garbler_input_labels)
            .map(|(&b, (l0, l1))| if b { *l1 } else { *l0 })
            .collect()
    }

    /// Non-free gates not yet garbled in this cycle.
    pub fn remaining_nonfree(&self) -> usize {
        self.garbler.nonfree - self.rows_emitted / 2
    }

    /// Garbles up to `max_nonfree` non-free gates (and every free gate in
    /// between), appending their table rows to `out`. Returns the number
    /// of non-free gates garbled — `0` means the cycle's gate walk is
    /// complete and [`CycleGarbling::finish`] may be called.
    pub fn garble_chunk(&mut self, max_nonfree: usize, out: &mut Vec<Block>) -> usize {
        let g = &mut *self.garbler;
        let done = g.hash.run(GarbleWalk {
            gates: g.circuit.gates(),
            delta: g.delta,
            tweak: &mut g.tweak,
            labels: &mut self.labels,
            next_gate: &mut self.next_gate,
            max_nonfree,
            out,
        });
        self.rows_emitted += 2 * done;
        done
    }

    /// Closes the cycle: latches register labels forward for the next
    /// cycle and returns the point-and-permute decode bit per output wire.
    ///
    /// # Panics
    ///
    /// Panics if gates remain ungarbled, or on table-count drift (a gate
    /// having pushed the wrong number of rows) — caught here, at garble
    /// time, where the evaluator's stream-length check would report it a
    /// party too late.
    pub fn finish(self) -> Vec<bool> {
        let g = self.garbler;
        let c = g.circuit;
        assert_eq!(
            self.next_gate,
            c.gates().len(),
            "finish before the cycle's gate walk completed ({} of {} gates)",
            self.next_gate,
            c.gates().len()
        );
        assert_eq!(
            self.rows_emitted,
            2 * g.nonfree,
            "garbled table count drift: produced {} rows for {} non-free gates",
            self.rows_emitted,
            g.nonfree
        );
        let labels = self.labels;
        // Latch: next cycle's q false labels are this cycle's d labels.
        for (slot, r) in g.reg_labels.iter_mut().zip(c.registers()) {
            *slot = labels[r.d.index()];
        }
        let output_decode = c
            .outputs()
            .iter()
            .map(|w| labels[w.index()].color())
            .collect();
        g.labels = labels;
        output_decode
    }
}

/// The garbler's gate walk over one chunk: every gate from `next_gate` on,
/// stopping after `max_nonfree` non-free ones. [`FixedKeyHash::run`]
/// compiles it once per hash kernel; it returns the non-free gates
/// garbled.
struct GarbleWalk<'w> {
    gates: &'w [Gate],
    delta: Block,
    tweak: &'w mut u64,
    labels: &'w mut [Block],
    next_gate: &'w mut usize,
    max_nonfree: usize,
    out: &'w mut Vec<Block>,
}

impl GateWalk for GarbleWalk<'_> {
    type Output = usize;

    #[inline(always)]
    fn walk<H: GateHash>(self, hash: &H) -> usize {
        let (gates, delta, labels) = (self.gates, self.delta, self.labels);
        let mut tweak = *self.tweak;
        let mut next = *self.next_gate;
        let mut done = 0usize;
        while next < gates.len() && done < self.max_nonfree {
            let gate = &gates[next];
            let a = labels[gate.a.index()];
            let b = labels[gate.b.index()];
            let out_label = match gate.kind {
                GateKind::Xor => a ^ b,
                GateKind::Xnor => a ^ b ^ delta,
                GateKind::Not => a ^ delta,
                GateKind::Buf => a,
                kind => {
                    // Half-gates (Zahur–Rosulek–Evans) on the gate's AND
                    // form ((a ⊕ α) ∧ (b ⊕ β)) ⊕ γ: two ciphertexts, the
                    // four hashes `hg0/hg1/he0/he1` in one batch. Every
                    // select is a mask, so no branch depends on a colour.
                    let (alpha, beta, gamma) = kind.and_form();
                    let a0 = a ^ delta.masked(alpha);
                    let b0 = b ^ delta.masked(beta);
                    let (p_a, p_b) = (a0.color(), b0.color());
                    let (t_g, t_e) = (tweak, tweak + 1);
                    tweak += 2;
                    let [hg0, hg1, he0, he1] =
                        hash.hash([a0, a0 ^ delta, b0, b0 ^ delta], [t_g, t_g, t_e, t_e]);
                    // Generator half gate.
                    let table_g = hg0 ^ hg1 ^ delta.masked(p_b);
                    let w_g = hg0 ^ table_g.masked(p_a);
                    // Evaluator half gate.
                    let table_e = he0 ^ he1 ^ a0;
                    let w_e = he0 ^ (table_e ^ a0).masked(p_b);
                    self.out.push(table_g);
                    self.out.push(table_e);
                    done += 1;
                    w_g ^ w_e ^ delta.masked(gamma)
                }
            };
            labels[gate.out.index()] = out_label;
            next += 1;
        }
        *self.tweak = tweak;
        *self.next_gate = next;
        done
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Builder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn label_pairs_differ_by_delta() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Garbler::new(&c, &mut rng);
        let cyc = g.garble_cycle(&mut rng);
        for (l0, l1) in cyc
            .garbler_input_labels
            .iter()
            .chain(&cyc.evaluator_input_labels)
        {
            assert!(g.labels_differ_by_delta(*l0, *l1));
            assert_ne!(l0.color(), l1.color(), "point-permute colors differ");
        }
    }

    #[test]
    fn tweaks_never_repeat_across_cycles() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let q = b.register(false);
        let d = b.and(q, x);
        b.connect_register(q, d);
        b.output(d);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Garbler::new(&c, &mut rng);
        let before = g.tweak;
        let _ = g.garble_cycle(&mut rng);
        let mid = g.tweak;
        let _ = g.garble_cycle(&mut rng);
        assert!(mid > before);
        assert!(g.tweak > mid);
    }

    #[test]
    fn fresh_labels_each_cycle() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        b.output(x);
        let c = b.finish();
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Garbler::new(&c, &mut rng);
        let c1 = g.garble_cycle(&mut rng);
        let c2 = g.garble_cycle(&mut rng);
        assert_ne!(c1.garbler_input_labels[0].0, c2.garbler_input_labels[0].0);
    }
}
