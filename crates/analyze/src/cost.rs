//! Static garbling-cost prediction.
//!
//! Everything the protocol pays for is a pure function of the circuit: each
//! non-free gate costs two 128-bit ciphertexts (32 bytes) under half-gates
//! with Free-XOR, the depth bounds per-cycle latency, the level widths bound
//! parallel speedup, and the streaming chunk size bounds peak resident
//! table memory. This module computes all of it without garbling a single
//! gate; the `cost_crosscheck` integration tests pin every number to the
//! garbler's measured counters so the predictions can never drift from
//! runtime.

use deepsecure_circuit::{passes, Circuit, GATE_TABLE_BYTES};

/// Statically-predicted garbling cost of one circuit (one clock cycle for
/// sequential circuits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// [`Circuit::digest`]: pins the exact gate list, not just its counts.
    pub digest: u64,
    /// Total wires, including the two constants.
    pub wires: u64,
    /// Total gates.
    pub gates: u64,
    /// Free gates (XOR/XNOR/NOT/BUF) — zero communication under Free-XOR.
    pub free_gates: u64,
    /// Non-free gates (AND/NAND/OR/NOR).
    pub non_free_gates: u64,
    /// Garbled-table bytes per cycle, [`Circuit::table_bytes`]
    /// (`32 × non_free_gates` under half-gates). Equals the
    /// protocol's measured `WireBreakdown::tables` for a one-cycle run and
    /// the garbler's `GarbledCycle` table length in bytes.
    pub table_bytes: u64,
    /// Longest gate chain (levelized depth).
    pub depth: u32,
    /// Non-free gates on the critical path (multiplicative-depth analog).
    pub non_xor_depth: u32,
    /// Gates at each level; index `l` holds the width of level `l + 1`
    /// (primary wires sit at level 0 and are not counted).
    pub level_widths: Vec<u32>,
    /// Garbler (client) input bits.
    pub garbler_inputs: u64,
    /// Evaluator (server) input bits.
    pub evaluator_inputs: u64,
    /// Output bits.
    pub outputs: u64,
    /// Registers (0 for combinational circuits).
    pub registers: u64,
}

impl CostReport {
    /// Widest level. This describes circuit shape only: both gate walks
    /// are sequential, so it bounds no parallelism the protocol uses.
    pub fn max_level_width(&self) -> u32 {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }

    /// Peak garbled-table bytes resident in memory at once, per cycle, for
    /// either live party at streaming chunk size `chunk_gates` (0 = fully
    /// buffered, matching the protocol's convention).
    ///
    /// This reproduces the `PeakBytes` accounting in
    /// `deepsecure-core::session` exactly: a buffered cycle holds the whole
    /// table stream (`32 × non_free`), a streamed cycle at most one chunk of
    /// `chunk_gates` non-free gates (`32 × min(chunk_gates, non_free)`).
    /// A client replaying *precomputed* material instead holds the whole
    /// material buffer; see
    /// [`CostReport::precomputed_client_resident_bytes`].
    pub fn peak_resident_table_bytes(&self, chunk_gates: usize) -> u64 {
        if chunk_gates == 0 {
            self.table_bytes
        } else {
            GATE_TABLE_BYTES * (chunk_gates as u64).min(self.non_free_gates)
        }
    }

    /// Table bytes a client holds when replaying precomputed material for
    /// `cycles` clock cycles: the whole material buffer, independent of the
    /// streaming chunk size.
    pub fn precomputed_client_resident_bytes(&self, cycles: u64) -> u64 {
        self.table_bytes * cycles
    }

    /// Level-width histogram in power-of-two buckets: `(bucket_max, levels)`
    /// pairs, where a level of width `w` lands in the smallest bucket with
    /// `w <= bucket_max`. Compact enough to print for million-gate circuits
    /// whose raw `level_widths` run to tens of thousands of entries.
    pub fn width_histogram(&self) -> Vec<(u32, u32)> {
        let mut buckets: Vec<(u32, u32)> = Vec::new();
        for &w in &self.level_widths {
            let cap = w.max(1).next_power_of_two();
            match buckets.binary_search_by_key(&cap, |b| b.0) {
                Ok(i) => buckets[i].1 += 1,
                Err(i) => buckets.insert(i, (cap, 1)),
            }
        }
        buckets
    }
}

/// Predicts the garbling cost of a structurally-valid circuit.
///
/// Call on validated circuits only (e.g. after
/// [`crate::verify`] reports no errors); out-of-bounds wires would panic.
pub fn cost(circuit: &Circuit) -> CostReport {
    let stats = circuit.stats();
    let levels = passes::levelize(circuit);
    let mut level_widths = vec![0u32; levels.max_level() as usize];
    for i in 0..levels.gate_count() {
        level_widths[(levels.gate_level(i) - 1) as usize] += 1;
    }
    CostReport {
        digest: circuit.digest(),
        wires: circuit.wire_count() as u64,
        gates: stats.total(),
        free_gates: stats.xor,
        non_free_gates: stats.non_xor,
        table_bytes: circuit.table_bytes(),
        depth: levels.max_level(),
        non_xor_depth: passes::non_xor_depth(circuit) as u32,
        level_widths,
        garbler_inputs: circuit.garbler_inputs().len() as u64,
        evaluator_inputs: circuit.evaluator_inputs().len() as u64,
        outputs: circuit.outputs().len() as u64,
        registers: circuit.registers().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsecure_circuit::Builder;

    fn sample() -> Circuit {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let t1 = b.and(x, y); // level 1, non-free
        let t2 = b.xor(t1, x); // level 2, free
        let t3 = b.and(t2, y); // level 3, non-free
        b.output(t3);
        b.finish()
    }

    #[test]
    fn counts_and_depths() {
        let c = sample();
        let r = cost(&c);
        assert_eq!(r.gates, 3);
        assert_eq!(r.free_gates, 1);
        assert_eq!(r.non_free_gates, 2);
        assert_eq!(r.table_bytes, 64);
        assert_eq!(r.depth, 3);
        assert_eq!(r.non_xor_depth, 2);
        assert_eq!(r.level_widths, vec![1, 1, 1]);
        assert_eq!(r.max_level_width(), 1);
        assert_eq!(r.garbler_inputs, 1);
        assert_eq!(r.evaluator_inputs, 1);
        assert_eq!(r.outputs, 1);
    }

    #[test]
    fn peak_prediction_matches_streaming_rules() {
        let c = sample();
        let r = cost(&c);
        // Buffered: whole table stream.
        assert_eq!(r.peak_resident_table_bytes(0), 64);
        // Chunk smaller than the stream: one chunk resident.
        assert_eq!(r.peak_resident_table_bytes(1), 32);
        // Chunk at least the stream: the stream itself.
        assert_eq!(r.peak_resident_table_bytes(2), 64);
        assert_eq!(r.peak_resident_table_bytes(1024), 64);
        assert_eq!(r.precomputed_client_resident_bytes(3), 192);
    }

    #[test]
    fn zero_nonfree_circuit_costs_nothing() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let t = b.xor(x, y);
        b.output(t);
        let c = b.finish();
        let r = cost(&c);
        assert_eq!(r.non_free_gates, 0);
        assert_eq!(r.table_bytes, 0);
        assert_eq!(r.peak_resident_table_bytes(0), 0);
        assert_eq!(r.peak_resident_table_bytes(1024), 0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut b = Builder::new();
        let xs = b.garbler_inputs(6);
        let ys = b.evaluator_inputs(6);
        // Level 1: six independent ANDs. Level 2+: a reduction tree.
        let mut acc: Vec<_> = xs.iter().zip(&ys).map(|(x, y)| b.and(*x, *y)).collect();
        while acc.len() > 1 {
            let mut next = Vec::new();
            for pair in acc.chunks(2) {
                next.push(if pair.len() == 2 {
                    b.or(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            acc = next;
        }
        b.output(acc[0]);
        let c = b.finish();
        let r = cost(&c);
        assert_eq!(r.level_widths.iter().sum::<u32>() as u64, r.gates);
        let hist = r.width_histogram();
        assert_eq!(
            hist.iter().map(|(_, n)| n).sum::<u32>() as usize,
            r.level_widths.len()
        );
        assert!(hist.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
