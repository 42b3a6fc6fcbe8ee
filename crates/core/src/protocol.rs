//! The two-party secure inference protocol of Fig. 3.
//!
//! Roles follow the paper: the **client (Alice) garbles** — she owns the
//! data sample — and the **cloud server (Bob) evaluates** with his DL
//! parameters entering through OT. The result travels back to the client
//! as output-label color bits, which only she can decode (the decode bits
//! never leave her side), matching GC step (iv).
//!
//! The runner supports sequential circuits: each clock cycle ships one
//! table bundle while register labels carry over (§3.5). Fig. 5 pipelines
//! the garbling of cycle `c+1` with the evaluation of cycle `c`; here the
//! client decodes cycle `c` before it garbles cycle `c+1`, and garbling,
//! transfer and evaluation overlap only within a chunk-streamed cycle.
//! The timeline is the sessions' telemetry spans (`client.garble`,
//! `server.eval`, …), the record `--trace-out` exports and `fig5` draws.
//!
//! The party halves themselves live in [`crate::session`] as
//! channel-generic state machines; this module provides the in-process
//! runners that join them — over `mem_pair` ([`run_compiled`]) or over
//! any caller-supplied channel pair ([`run_compiled_over`], which the
//! TCP-loopback and simulated-link tests use). Separate processes skip
//! the runners entirely and drive the sessions directly (see the
//! `deepsecure_serve` and `loadgen` binaries).

use std::sync::Arc;
use std::time::Instant;

use deepsecure_circuit::Circuit;
use deepsecure_nn::{Network, Tensor};
use deepsecure_ot::channel::{mem_pair, Channel};
use deepsecure_ot::{ChannelError, OtError};

use crate::compile::{compile, CompileOptions, Compiled};
use crate::session::{ClientSession, ServerSession, WireBreakdown};

/// Errors surfaced by protocol executions.
#[derive(Debug)]
pub enum ProtocolError {
    /// OT subprotocol failure.
    Ot(OtError),
    /// Raw channel failure.
    Channel(ChannelError),
    /// A party thread panicked.
    PartyPanic(&'static str),
    /// Both parties failed; the server's error is usually the root cause
    /// and the client's the downstream symptom.
    BothParties {
        /// What the client observed.
        client: Box<ProtocolError>,
        /// What the server observed.
        server: Box<ProtocolError>,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Ot(e) => write!(f, "protocol ot failure: {e}"),
            ProtocolError::Channel(e) => write!(f, "protocol channel failure: {e}"),
            ProtocolError::PartyPanic(who) => write!(f, "{who} thread panicked"),
            ProtocolError::BothParties { client, server } => write!(
                f,
                "both parties failed — server (likely root cause): {server}; client: {client}"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Ot(e) => Some(e),
            ProtocolError::Channel(e) => Some(e),
            ProtocolError::PartyPanic(_) => None,
            // The server's error is usually the root cause.
            ProtocolError::BothParties { server, .. } => Some(server.as_ref()),
        }
    }
}

impl From<OtError> for ProtocolError {
    fn from(e: OtError) -> ProtocolError {
        ProtocolError::Ot(e)
    }
}

impl From<ChannelError> for ProtocolError {
    fn from(e: ChannelError) -> ProtocolError {
        ProtocolError::Channel(e)
    }
}

/// Configuration for a secure inference run.
///
/// No field selects the base-OT group: every session runs its 128 base
/// OTs in Ristretto255 ([`deepsecure_ot::Ristretto255`]), a prime-order
/// group with 32-byte elements.
#[derive(Clone, Debug)]
pub struct InferenceConfig {
    /// Compiler options (nonlinearity realizations, format).
    pub options: CompileOptions,
    /// Garbler randomness seed.
    pub seed: u64,
    /// Non-free gates per garbled-table chunk. The sessions have one
    /// cycle driver per party and this picks its chunking and wire order:
    /// `0` (the default) sends each cycle's tables as one whole-cycle
    /// chunk *before* labels + OT (the evaluator holds it: O(circuit)
    /// resident); `> 0` sends labels + OT first, then chunks of this many
    /// gates, so garbling, transfer, and evaluation overlap and peak
    /// resident material is O(chunk). The whole-cycle chunk keeps the
    /// tables-first order because it measured 10 % faster on pooled
    /// serving than behind the OT round trip (see `session`'s module
    /// docs). **Both parties must agree** — chunk boundaries are derived,
    /// not framed, which is what keeps every chunking byte-identical.
    pub chunk_gates: usize,
    /// Worker threads for the base-OT scalar multiplications of the OT
    /// set-up; garbling and evaluation are one sequential gate walk per
    /// party whatever the value. `0` means auto (one per available core).
    ///
    /// A pure perf knob: every thread count moves **bit-identical** wire
    /// bytes, so the parties need not agree on it. Defaults to the
    /// `DEEPSECURE_THREADS` env var, else `1`.
    pub threads: usize,
}

impl InferenceConfig {
    /// The worker pool `threads` selects (resolving `0` to the core
    /// count) for the run's base-OT scalar multiplications.
    pub fn pool(&self) -> workpool::ThreadPool {
        if self.threads == 0 {
            workpool::ThreadPool::new(workpool::auto_threads())
        } else {
            workpool::ThreadPool::new(self.threads)
        }
    }
}

impl Default for InferenceConfig {
    fn default() -> InferenceConfig {
        InferenceConfig {
            options: CompileOptions::default(),
            seed: 0,
            chunk_gates: 0,
            threads: workpool::threads_from_env("DEEPSECURE_THREADS").unwrap_or(1),
        }
    }
}

/// The outcome of a secure inference.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// The decoded inference label (client side; final cycle).
    pub label: usize,
    /// Decoded output value of every cycle (sequential circuits expose
    /// per-neuron results through these; combinational runs have one).
    pub cycle_labels: Vec<usize>,
    /// Bytes the client sent (tables + labels + OT).
    pub client_sent: u64,
    /// Bytes the server sent (OT matrix + result colors).
    pub server_sent: u64,
    /// High-water mark of garbled-table bytes either party held at once
    /// (max over both sides): equals `wire.tables` on buffered runs,
    /// one chunk on streamed live runs — the O(chunk) memory measurement.
    pub peak_material_bytes: u64,
    /// Per-phase wire traffic (base OT / OT-ext / tables / labels /
    /// output bits; both directions per phase). `wire.tables` is the
    /// garbled-table `α` term.
    pub wire: WireBreakdown,
    /// Total wall-clock time.
    pub total_s: f64,
}

/// Runs a full two-party secure inference for one sample.
///
/// Both parties run in-process over byte-counted channels; the `net` value
/// stands for the public architecture on the client side and the private
/// parameters on the server side: the in-process convention that one
/// value carries both, where a deployment gives each party only its own.
///
/// # Errors
///
/// Returns [`ProtocolError`] on channel/OT failure.
pub fn run_secure_inference(
    net: &Network,
    sample: &Tensor,
    cfg: &InferenceConfig,
) -> Result<InferenceReport, ProtocolError> {
    let compiled = Arc::new(compile(net, &cfg.options));
    let weight_bits = compiled.weight_bits(net);
    let input_bits = compiled.input_bits(sample);
    let report = run_compiled(
        Arc::clone(&compiled),
        vec![input_bits],
        vec![weight_bits],
        cfg,
    )?;
    Ok(report)
}

/// Runs the protocol over an already compiled circuit with explicit
/// per-cycle input streams (one entry per clock cycle; combinational
/// circuits take exactly one).
///
/// # Errors
///
/// Returns [`ProtocolError`] on channel/OT failure.
///
/// # Panics
///
/// Panics if the streams are empty or have mismatched lengths.
pub fn run_compiled(
    compiled: Arc<Compiled>,
    garbler_bits_per_cycle: Vec<Vec<bool>>,
    evaluator_bits_per_cycle: Vec<Vec<bool>>,
    cfg: &InferenceConfig,
) -> Result<InferenceReport, ProtocolError> {
    let (chan_client, chan_server) = mem_pair();
    run_compiled_over(
        compiled,
        garbler_bits_per_cycle,
        evaluator_bits_per_cycle,
        cfg,
        chan_client,
        chan_server,
    )
}

/// Runs the protocol in-process over a caller-supplied channel pair — the
/// two endpoints of one duplex link (in-memory, TCP loopback, or a
/// [`deepsecure_ot::SimChannel`]-modelled LAN/WAN). The server half runs
/// on a spawned thread with `chan_server`; the client half runs on the
/// calling thread with `chan_client`.
///
/// Both halves are [`ClientSession`] / [`ServerSession`] — exactly the
/// code separate processes run, so reports from this runner and from the
/// `deepsecure_serve` + `loadgen` pair are directly comparable.
///
/// # Errors
///
/// Returns [`ProtocolError`] on channel/OT failure.
///
/// # Panics
///
/// Panics if the streams are empty or have mismatched lengths.
pub fn run_compiled_over<CC, CS>(
    compiled: Arc<Compiled>,
    garbler_bits_per_cycle: Vec<Vec<bool>>,
    evaluator_bits_per_cycle: Vec<Vec<bool>>,
    cfg: &InferenceConfig,
    mut chan_client: CC,
    mut chan_server: CS,
) -> Result<InferenceReport, ProtocolError>
where
    CC: Channel,
    CS: Channel + Send + 'static,
{
    assert!(
        !garbler_bits_per_cycle.is_empty(),
        "need at least one cycle"
    );
    assert_eq!(
        garbler_bits_per_cycle.len(),
        evaluator_bits_per_cycle.len(),
        "cycle count mismatch"
    );
    let start = Instant::now();
    let server = ServerSession::new(Arc::clone(&compiled), cfg);
    let handle =
        std::thread::spawn(move || server.run(&mut chan_server, &evaluator_bits_per_cycle));
    let client = ClientSession::new(compiled, cfg);
    let cout = match client.run(&mut chan_client, &garbler_bits_per_cycle) {
        Ok(cout) => cout,
        Err(client_err) => {
            // Drop our endpoint so a server blocked on recv unblocks,
            // then harvest its error — usually the root cause behind the
            // client-side symptom.
            drop(chan_client);
            return Err(match handle.join() {
                Ok(Ok(_)) => client_err,
                Ok(Err(server_err)) => ProtocolError::BothParties {
                    client: Box::new(client_err),
                    server: Box::new(server_err),
                },
                Err(_) => ProtocolError::BothParties {
                    client: Box::new(client_err),
                    server: Box::new(ProtocolError::PartyPanic("server")),
                },
            });
        }
    };
    let sout = handle
        .join()
        .map_err(|_| ProtocolError::PartyPanic("server"))??;
    let total_s = start.elapsed().as_secs_f64();
    debug_assert_eq!(cout.wire, sout.wire, "parties disagree on the wire");
    Ok(InferenceReport {
        label: cout.label,
        cycle_labels: cout.cycle_labels,
        client_sent: cout.sent,
        server_sent: sout.sent,
        peak_material_bytes: cout.peak_material_bytes.max(sout.peak_material_bytes),
        wire: cout.wire,
        total_s,
    })
}

/// Convenience: secure inference over a raw circuit with single-cycle
/// inputs (used by tests and calibration probes).
///
/// # Errors
///
/// Returns [`ProtocolError`] on channel/OT failure.
pub fn run_circuit(
    circuit: &Circuit,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    cfg: &InferenceConfig,
) -> Result<(Vec<bool>, InferenceReport), ProtocolError> {
    let compiled = Arc::new(Compiled {
        circuit: circuit.clone(),
        weight_order: Vec::new(),
        format: cfg.options.format,
    });
    let report = run_compiled(
        Arc::clone(&compiled),
        vec![garbler_bits.to_vec()],
        vec![evaluator_bits.to_vec()],
        cfg,
    )?;
    // Recover raw output bits from the label integer.
    let n_out = circuit.outputs().len();
    let bits = (0..n_out).map(|i| (report.label >> i) & 1 == 1).collect();
    Ok((bits, report))
}

#[cfg(test)]
mod tests {
    use deepsecure_circuit::Builder;
    use deepsecure_nn::{data, train, zoo};
    use deepsecure_synth::activation::Activation;

    use crate::compile::plain_label;

    use super::*;

    fn fast_cfg() -> InferenceConfig {
        InferenceConfig {
            options: CompileOptions {
                tanh: Activation::TanhPl,
                sigmoid: Activation::SigmoidPlan,
                ..CompileOptions::default()
            },
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn secure_inference_matches_plain_circuit() {
        let set = data::digits_small(32, 31);
        let mut net = zoo::tiny_mlp(set.num_classes);
        train::train(
            &mut net,
            &set,
            &train::TrainConfig {
                epochs: 20,
                lr: 0.1,
                seed: 5,
            },
        );
        let cfg = fast_cfg();
        let compiled = compile(&net, &cfg.options);
        for x in set.inputs.iter().take(3) {
            let report = run_secure_inference(&net, x, &cfg).unwrap();
            assert_eq!(report.label, plain_label(&compiled, &net, x));
            assert!(report.wire.tables > 0);
            assert!(report.client_sent > report.wire.tables);
        }
    }

    #[test]
    fn communication_is_dominated_by_tables() {
        let set = data::digits_small(8, 37);
        let net = zoo::tiny_mlp(set.num_classes);
        let cfg = fast_cfg();
        let report = run_secure_inference(&net, &set.inputs[0], &cfg).unwrap();
        // Tables must be the majority of client traffic (the paper's
        // premise that transfer of garbled tables dominates).
        assert!(
            report.wire.tables * 2 > report.client_sent,
            "tables {} of {}",
            report.wire.tables,
            report.client_sent
        );
        // The per-phase breakdown partitions the wire: every byte either
        // party sent lands in exactly one phase bucket.
        assert_eq!(report.wire.total(), report.client_sent + report.server_sent);
        assert!(report.wire.base_ot > 0);
        assert!(report.wire.ot_ext > 0);
        assert!(report.wire.output_bits > 0);
    }

    #[test]
    fn sequential_protocol_runs_folded_mac() {
        use deepsecure_fixed::{Fixed, Format};
        // Dot product over 4 cycles on the folded MAC core (§3.5).
        let circuit = crate::compile::folded_mac(&CompileOptions::default());
        let compiled = Arc::new(Compiled {
            circuit,
            weight_order: Vec::new(),
            format: Format::Q3_12,
        });
        let xs = [0.5f64, 1.5, -0.75, 2.0];
        let ws = [1.0f64, 0.5, 2.0, -0.25];
        let g_bits: Vec<Vec<bool>> = xs
            .iter()
            .map(|&x| {
                let mut b = Fixed::from_f64(x, Format::Q3_12).to_bits();
                b.push(false); // reset = 0 (single accumulation)
                b
            })
            .collect();
        let e_bits: Vec<Vec<bool>> = ws
            .iter()
            .map(|&w| Fixed::from_f64(w, Format::Q3_12).to_bits())
            .collect();
        let cfg = fast_cfg();
        let report = run_compiled(compiled, g_bits, e_bits, &cfg).unwrap();
        let got = Format::Q3_12.wrap(report.label as i64) as f64 * Format::Q3_12.epsilon();
        let want: f64 = xs.iter().zip(&ws).map(|(x, w)| x * w).sum();
        assert!((got - want).abs() < 0.01, "got {got}, want {want}");
        assert_eq!(report.cycle_labels.len(), 4);
    }

    #[test]
    fn both_party_failures_are_aggregated() {
        use deepsecure_ot::MemChannel;

        // A server channel that dies on its first receive: the server
        // session errors out during base-OT setup, which in turn strands
        // the client mid-setup. The runner must surface both failures —
        // the server's root cause, not just the client-side symptom.
        struct FailOnRecv(MemChannel);
        impl Channel for FailOnRecv {
            fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
                self.0.send(data)
            }
            fn recv(&mut self, _n: usize) -> Result<Vec<u8>, ChannelError> {
                Err(ChannelError::msg("injected server-side fault"))
            }
            fn bytes_sent(&self) -> u64 {
                self.0.bytes_sent()
            }
            fn bytes_received(&self) -> u64 {
                self.0.bytes_received()
            }
        }

        let compiled = Arc::new(Compiled {
            circuit: crate::compile::folded_mac(&CompileOptions::default()),
            weight_order: Vec::new(),
            format: deepsecure_fixed::Format::Q3_12,
        });
        let (cc, cs) = mem_pair();
        let err = run_compiled_over(
            compiled,
            vec![vec![false; 17]],
            vec![vec![false; 16]],
            &fast_cfg(),
            cc,
            FailOnRecv(cs),
        )
        .unwrap_err();
        match &err {
            ProtocolError::BothParties { server, .. } => {
                assert!(
                    server.to_string().contains("injected server-side fault"),
                    "server root cause lost: {server}"
                );
            }
            other => panic!("expected BothParties, got: {other}"),
        }
        assert!(err.to_string().contains("root cause"), "{err}");
    }

    #[test]
    fn run_circuit_helper_decodes_bits() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        let w = b.xor(x, y);
        b.output(z);
        b.output(w);
        let c = b.finish();
        let (bits, _) = run_circuit(&c, &[true], &[false], &fast_cfg()).unwrap();
        assert_eq!(bits, vec![false, true]);
    }
}
