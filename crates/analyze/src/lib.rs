//! Static analysis for DeepSecure circuits.
//!
//! DeepSecure's scalability story rests on knowing, *before* any party
//! connects, exactly what a circuit costs — non-XOR gates, garbled-table
//! bytes, depth, peak resident memory — and on trimming what can be proven
//! dead or constant. This crate is the analysis front-end for that work:
//!
//! * [`verify`] runs the structural checks behind
//!   [`Circuit::validate`](deepsecure_circuit::Circuit::validate)
//!   exhaustively (every violation, not just the first) and layers
//!   efficiency warnings on top: dead gates, constant-foldable cones,
//!   duplicate (CSE-candidate) gates, duplicate and constant outputs.
//! * [`cost`] predicts the garbling cost of a clean circuit statically —
//!   the numbers are cross-checked in tests against the garbler's measured
//!   `nonfree_gate_count`, wire-byte breakdown and `peak_material_bytes`,
//!   so the analyzer can never drift from runtime.
//! * [`report`] renders an analysis as text or as the stable
//!   `deepsecure-analyze/1` JSON document; [`json`] reads such documents
//!   (and Chrome traces) back.
//!
//! The `circuit_lint` binary (in the `deepsecure` facade package) exposes
//! all of this on the command line. CI runs it over every zoo model with
//! warnings denied and writes its `--json` output over the committed
//! `BENCH_RESULTS.json`: any change to a model's costs shows up as a diff.
//!
//! # Example
//!
//! ```
//! use deepsecure_circuit::Builder;
//! use deepsecure_analyze::analyze;
//!
//! let mut b = Builder::new();
//! let x = b.garbler_input();
//! let y = b.evaluator_input();
//! let z = b.and(x, y);
//! b.output(z);
//! let c = b.finish();
//!
//! let report = analyze(&c);
//! assert!(report.is_clean());
//! let cost = report.cost.unwrap();
//! assert_eq!(cost.non_free_gates, 1);
//! assert_eq!(cost.table_bytes, 32); // two 128-bit ciphertexts
//! ```

pub mod cost;
pub mod json;
pub mod report;
pub mod verify;

pub use cost::{cost, CostReport};
// Re-export the structured diagnostic types so analyzer consumers need only
// this crate (satellite: `Diagnostic` lives in `deepsecure-circuit`, where
// `Circuit::validate` produces it, and is surfaced here).
pub use deepsecure_circuit::{DiagCode, DiagLoc, Diagnostic, Severity};
pub use verify::{verify, OptReport, Savings, MAX_DIAGNOSTICS_PER_CODE};

use deepsecure_circuit::Circuit;

/// The result of a full static analysis of one circuit.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Structural errors and efficiency warnings, errors first. At most
    /// [`MAX_DIAGNOSTICS_PER_CODE`] per code are materialized; exact totals
    /// for the warning classes live in [`Analysis::opportunities`].
    pub diagnostics: Vec<Diagnostic>,
    /// Cost prediction — `None` when structural errors make the gate list
    /// meaningless (out-of-bounds wires, broken topological order).
    pub cost: Option<CostReport>,
    /// Optimization-opportunity totals — `None` under the same condition.
    pub opportunities: Option<OptReport>,
}

impl Analysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics materialized (see
    /// [`Analysis::opportunities`] for exact per-class totals).
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether the analysis produced no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the full analysis pipeline: exhaustive structural verification,
/// then (when the structure is sound) the optimization-opportunity and
/// cost-prediction passes.
pub fn analyze(circuit: &Circuit) -> Analysis {
    let outcome = verify::verify_full(circuit);
    let cost = outcome.structurally_sound.then(|| cost::cost(circuit));
    Analysis {
        diagnostics: outcome.diagnostics,
        cost,
        opportunities: outcome.opportunities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsecure_circuit::Builder;

    #[test]
    fn clean_circuit_analyzes_clean() {
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

        let a = analyze(&c);
        assert!(a.is_clean(), "diagnostics: {:?}", a.diagnostics);
        let cost = a.cost.expect("clean circuit has a cost report");
        assert_eq!(cost.non_free_gates, c.stats().non_xor);
        assert_eq!(cost.table_bytes, 32 * c.stats().non_xor);
        let opp = a.opportunities.expect("clean circuit has opportunities");
        assert_eq!(opp.dead.gates, 0);
        assert_eq!(opp.constant.gates, 0);
        assert_eq!(opp.duplicate.gates, 0);
    }
}
