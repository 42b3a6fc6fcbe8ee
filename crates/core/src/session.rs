//! Channel-generic party state machines for the Fig. 3 protocol.
//!
//! [`ClientSession`] (Alice: garbles, owns the data sample, decodes the
//! result) and [`ServerSession`] (Bob: evaluates, his DL parameters enter
//! through OT) are the two halves of `run_compiled`, factored out so the
//! *same* code runs as two threads over `mem_pair` (tests, benches), two
//! OS processes over [`TcpChannel`], or under a [`SimChannel`] link model
//! — the transport is a type parameter, never a fork in the protocol
//! logic.
//!
//! # Offline/online split
//!
//! DeepSecure's garbling is input-independent, so both halves also come
//! apart into a **setup** phase (base-OT / IKNP seeding, garbling) and an
//! **online** phase (OT extension + table streaming + evaluation):
//!
//! * [`GarbledMaterial::garble`] produces a run's tables and labels with
//!   no channel at all — a precompute pool can stockpile them.
//! * [`ClientSession::setup`] / [`ServerSession::setup`] run the one-time
//!   base-OT seeding on a fresh connection (the client side can feed it
//!   offline-generated [`SenderPrecomp`] keypairs via
//!   [`ClientSession::setup_with`]).
//! * [`ClientSession::run_online`] / [`ServerSession::run_online`] then
//!   execute one inference per call, **reusing** the setup across
//!   requests on the same connection — the serving layer's per-query hot
//!   path.
//!
//! [`ClientSession::run`] / [`ServerSession::run`] compose the pieces
//! back into the original single-shot behaviour.
//!
//! The setups carry more than OT state across requests: everything
//! O(circuit) a query needs *outside* its gate walk is paid once per
//! connection. Each party's `wire_count × 16`-byte wire-label array moves
//! from the setup into the query's [`Garbler`] / [`Evaluator`] and back
//! (`with_labels` / `into_labels`), and [`ServerSetup`] also keeps the
//! table receive buffer — so from the second query on, `run_online`
//! allocates and faults in nothing of that size (246 MB per party on
//! `mnist_mlp`, where doing it per query cost more than the garbling). A
//! fresh setup holds empty buffers and a failed query drops the ones it
//! had taken; the next query then allocates, exactly as a first one does.
//! The price is residency: see [`ClientSetup::resident_bytes`].
//!
//! # One cycle driver per party, two wire orders
//!
//! The online protocol is one loop (Fig. 3; §3.5 for sequential circuits),
//! written once per party — the loop bodies of
//! [`ClientSession::run_online`] and [`ServerSession::run_online`]: the first-cycle payload (constant +
//! initial register labels), then per clock cycle the garbled tables, the
//! garbler's active labels with the OT extension, and the colour exchange.
//! Tables always travel as ⌈nonfree ÷ chunk⌉ chunks, sliced from a stored
//! [`GarbledCycle`] or garbled on the fly through [`Garbler::begin_cycle`].
//! `InferenceConfig::chunk_gates` sets the chunking **and the position of
//! the table step**, one `bool` at the top of each driver:
//!
//! * `0` — **tables first**: one whole-cycle chunk, then labels + OT. The
//!   evaluator holds the chunk until the labels arrive: O(circuit)
//!   resident material.
//! * `> 0` — **labels first**: labels + OT, then chunks of `chunk_gates`
//!   non-free gates, fed to the evaluator's gate walk as they arrive.
//!   Garbling, transfer, and evaluation overlap and resident material is
//!   O(chunk) (measured: `peak_material_bytes` on both outcomes).
//!
//! The single chunk stays tables-first on purpose. Sent labels-first
//! ("buffered ≡ streamed with chunk = circuit") it moves the same bytes
//! and passes every test, but measured 10 % slower on pooled serving
//! (`dsbench serve_warm` `latency_p50_s` 0.087 → 0.098 s, 4 of 4
//! alternating pairs): with the OT round trip ahead of a 19 MB table send
//! the parties wait on each other across the hand-off (`client.ot_ext`
//! 3.6 → 9.4 ms, `server.ot_ext` 2.7 → 5.1 ms) instead of the OT work
//! overlapping the tail of the transfer.
//!
//! Chunk boundaries are *derived* from the circuit's non-free gate count
//! and the agreed `chunk_gates` — never framed — so every chunking moves
//! bit-identical per-phase wire bytes; both parties must simply agree on
//! the value (binaries pin it in their handshakes).
//!
//! Sessions measure their own traffic as *deltas* of the channel's byte
//! counters, so pre-protocol traffic (e.g. the `DSRV/4` serving handshake) is
//! never attributed to the protocol, and both parties' [`WireBreakdown`]s
//! describe the same wire regardless of transport.
//!
//! Time is recorded once, as telemetry spans: `client.base_ot` /
//! `server.base_ot` around the setups, one `client.garble` per garbled
//! cycle and one `server.eval` per evaluated cycle (the Fig. 5 windows),
//! and a span per metered wire step inside them. With the sink enabled
//! (`telemetry::set_enabled`) they are the run's timeline; disabled, each
//! costs one relaxed atomic load.
//!
//! [`TcpChannel`]: deepsecure_ot::TcpChannel
//! [`SimChannel`]: deepsecure_ot::SimChannel

use std::sync::Arc;
use std::time::Instant;

use deepsecure_crypto::Block;
use deepsecure_garble::{CycleEval, CycleGarbling, Evaluator, GarbledCycle, Garbler};
use deepsecure_ot::channel::Channel;
use deepsecure_ot::ext::{ExtReceiver, ExtSender, SenderPrecomp};
use deepsecure_ot::Ristretto255;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::compile::Compiled;
use crate::protocol::{InferenceConfig, ProtocolError};

/// Per-phase wire traffic of one protocol run, in bytes.
///
/// Each field counts **both directions** of its phase as observed from one
/// endpoint (sent + received deltas around the phase), so the two parties
/// report identical breakdowns and the fields sum to the total traffic of
/// the run. This is the measured decomposition behind the paper's
/// communication columns: garbled tables are the `α` term that dominates,
/// OT-extension the per-weight-bit term, base OT the fixed setup cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireBreakdown {
    /// One-time base-OT setup (public-key transfers seeding IKNP).
    pub base_ot: u64,
    /// IKNP OT-extension traffic (u-matrix + masked label pairs).
    pub ot_ext: u64,
    /// Garbled tables (client → server), the dominant `α` term.
    pub tables: u64,
    /// Active input labels: constants, initial registers, and the
    /// garbler's own input labels (client → server).
    pub input_labels: u64,
    /// Output color bits (server → client), length prefix included.
    pub output_bits: u64,
}

impl WireBreakdown {
    /// Total protocol traffic, both directions.
    pub fn total(&self) -> u64 {
        self.base_ot + self.ot_ext + self.tables + self.input_labels + self.output_bits
    }
}

impl std::ops::AddAssign for WireBreakdown {
    /// Field-wise accumulation — what server-level stats sum per request.
    fn add_assign(&mut self, rhs: WireBreakdown) {
        self.base_ot += rhs.base_ot;
        self.ot_ext += rhs.ot_ext;
        self.tables += rhs.tables;
        self.input_labels += rhs.input_labels;
        self.output_bits += rhs.output_bits;
    }
}

/// Sent + received — the phase-delta yardstick used by both sessions.
fn traffic<C: Channel>(chan: &C) -> u64 {
    chan.bytes_sent() + chan.bytes_received()
}

/// Process-global live wire counters: every phase delta a session measures
/// is also added here the moment it is measured (per chunk on streamed
/// table transfers), so a scraper sees the [`WireBreakdown`] decomposition
/// *while* requests run instead of waiting for end-of-run reports. The
/// counters observe the same deltas the breakdown records — they never
/// touch the channel, so wire bytes are bit-identical with telemetry on or
/// off.
pub mod wire_metrics {
    use telemetry::Counter;

    /// Base-OT setup bytes (both directions).
    pub static BASE_OT: Counter = Counter::new();
    /// OT-extension bytes (both directions).
    pub static OT_EXT: Counter = Counter::new();
    /// Garbled-table bytes.
    pub static TABLES: Counter = Counter::new();
    /// Active input-label bytes.
    pub static INPUT_LABELS: Counter = Counter::new();
    /// Output color-bit bytes.
    pub static OUTPUT_BITS: Counter = Counter::new();
    /// Bytes sent by sessions in this process (direction counter).
    pub static SENT: Counter = Counter::new();
    /// Bytes received by sessions in this process (direction counter).
    pub static RECEIVED: Counter = Counter::new();

    /// The per-phase counters as `(phase_label, value)` rows, in
    /// [`super::WireBreakdown`] field order — the `/metrics` family body.
    #[must_use]
    pub fn phases() -> [(&'static str, u64); 5] {
        [
            ("base_ot", BASE_OT.get()),
            ("ot_ext", OT_EXT.get()),
            ("tables", TABLES.get()),
            ("input_labels", INPUT_LABELS.get()),
            ("output_bits", OUTPUT_BITS.get()),
        ]
    }
}

/// A phase of the online run: one [`WireBreakdown`] field and its live
/// counter in [`wire_metrics`].
enum Phase {
    OtExt,
    Tables,
    InputLabels,
    OutputBits,
}

/// The books of one online run, shared by both parties' drivers.
struct Online<'a, C: Channel> {
    chan: &'a mut C,
    sent0: u64,
    recv0: u64,
    wire: WireBreakdown,
    /// High-water mark of garbled-table bytes resident in this session's
    /// own buffers — the measured number behind the streaming pipeline's
    /// O(chunk) memory claim. Counts table blocks held (material, chunk
    /// buffers), not transient serialization copies. A plain maximum is
    /// exact because these buffers never coexist: precomputed material is
    /// resident whole from the start; otherwise a party holds one cycle
    /// or one chunk at a time.
    peak: u64,
}

impl<'a, C: Channel> Online<'a, C> {
    fn begin(chan: &'a mut C) -> Online<'a, C> {
        Online {
            sent0: chan.bytes_sent(),
            recv0: chan.bytes_received(),
            chan,
            wire: WireBreakdown::default(),
            peak: 0,
        }
    }

    /// Runs one step of `phase` on the channel and books the bytes it
    /// moved (both directions) to the breakdown field and the matching
    /// live counter — the single point keeping [`WireBreakdown`] and
    /// [`wire_metrics`] in agreement.
    fn metered<T, E>(
        &mut self,
        phase: Phase,
        step: impl FnOnce(&mut C) -> Result<T, E>,
    ) -> Result<T, E> {
        let before = traffic(self.chan);
        let out = step(self.chan)?;
        let delta = traffic(self.chan) - before;
        let (field, counter) = match phase {
            Phase::OtExt => (&mut self.wire.ot_ext, &wire_metrics::OT_EXT),
            Phase::Tables => (&mut self.wire.tables, &wire_metrics::TABLES),
            Phase::InputLabels => (&mut self.wire.input_labels, &wire_metrics::INPUT_LABELS),
            Phase::OutputBits => (&mut self.wire.output_bits, &wire_metrics::OUTPUT_BITS),
        };
        *field += delta;
        counter.add(delta);
        Ok(out)
    }

    /// [`Online::metered`] under the telemetry span `span`.
    fn spanned<T, E>(
        &mut self,
        span: &'static str,
        phase: Phase,
        step: impl FnOnce(&mut C) -> Result<T, E>,
    ) -> Result<T, E> {
        let _s = telemetry::span!(span);
        self.metered(phase, step)
    }

    /// Notes a table buffer of `rows` garbled rows as resident.
    fn resident(&mut self, rows: usize) {
        self.peak = self.peak.max((rows * 16) as u64);
    }

    /// Flushes and closes the books: `(sent, received, wire, peak)`. The
    /// evaluator's final colour bits are the last thing on the wire —
    /// without the flush a buffered transport would strand them and hang
    /// the garbler's last receive.
    fn close(self) -> Result<(u64, u64, WireBreakdown, u64), ProtocolError> {
        self.chan.flush()?;
        let sent = self.chan.bytes_sent() - self.sent0;
        let received = self.chan.bytes_received() - self.recv0;
        debug_assert_eq!(
            self.wire.total(),
            sent + received,
            "breakdown must cover all online traffic"
        );
        wire_metrics::SENT.add(sent);
        wire_metrics::RECEIVED.add(received);
        Ok((sent, received, self.wire, self.peak))
    }
}

/// Non-free gates per table chunk of one cycle, in wire order — derived
/// identically by both parties, which is why chunks need no framing.
/// `chunk_gates == 0` is one whole-cycle chunk (a zero-length transfer
/// when the circuit has no non-free gate); otherwise ⌈nonfree ÷
/// chunk_gates⌉ chunks, the last one short.
fn chunk_sizes(nonfree: usize, chunk_gates: usize) -> impl Iterator<Item = usize> {
    let (step, chunks) = match chunk_gates {
        0 => (nonfree.max(1), 1),
        n => (n, nonfree.div_ceil(n)),
    };
    (0..chunks).map(move |i| step.min(nonfree - i * step))
}

/// Input-independent garbled material for one protocol run: every cycle's
/// tables and labels plus the initial register labels — producible long
/// before the inputs (or even the peer) exist.
///
/// Consumed by [`ClientSession::run_online`]: wire labels are one-time
/// pads, so one material must never serve two runs.
pub struct GarbledMaterial {
    cycles: Vec<GarbledCycle>,
    initial_registers: Vec<Block>,
}

impl std::fmt::Debug for GarbledMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GarbledMaterial")
            .field("cycles", &self.cycles.len())
            .finish_non_exhaustive()
    }
}

impl GarbledMaterial {
    /// Garbles `n_cycles` clock cycles of the compiled circuit offline.
    pub fn garble<R: Rng + ?Sized>(
        compiled: &Compiled,
        n_cycles: usize,
        rng: &mut R,
    ) -> GarbledMaterial {
        GarbledMaterial::garble_with(compiled, n_cycles, rng, &mut Vec::new())
    }

    /// [`GarbledMaterial::garble`] on a recycled wire-label array.
    ///
    /// `labels` is the garbler's wire-label array, taken on entry and left
    /// behind on return: a caller that garbles one material after another
    /// (a pool refill worker) passes the same `Vec` every time and pays
    /// for `wire_count × 16` bytes of fresh pages once, whatever mix of
    /// circuits it garbles; an empty `Vec` is the one-shot case.
    pub fn garble_with<R: Rng + ?Sized>(
        compiled: &Compiled,
        n_cycles: usize,
        rng: &mut R,
        labels: &mut Vec<Block>,
    ) -> GarbledMaterial {
        let mut garbler = Garbler::new(&compiled.circuit, rng).with_labels(std::mem::take(labels));
        // Must be read before the first garble_cycle: garbling latches the
        // register labels forward to the next cycle.
        let initial_registers = garbler.initial_register_labels();
        let cycles = (0..n_cycles)
            .map(|_| {
                let _s = telemetry::span!("client.garble");
                garbler.garble_cycle(rng)
            })
            .collect();
        *labels = garbler.into_labels();
        GarbledMaterial {
            cycles,
            initial_registers,
        }
    }

    /// Number of clock cycles this material covers.
    pub fn num_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Total garbled-table bytes across every cycle (what holding this
    /// material resident costs).
    pub fn table_bytes(&self) -> u64 {
        self.cycles
            .iter()
            .map(|c| (c.tables.len() * 16) as u64)
            .sum()
    }
}

/// Where a run's garbled material comes from.
///
/// The serving pool hands [`MaterialSource::Precomputed`] for models cheap
/// enough to stockpile whole (the classic offline/online split), and
/// [`MaterialSource::Live`] for models whose tables are too large to pin
/// per pooled instance — those garble **while streaming**, chunk by chunk,
/// holding O(chunk) table bytes instead of O(circuit).
#[derive(Debug)]
pub enum MaterialSource {
    /// Fully pre-garbled offline; resident cost is the whole material.
    Precomputed(GarbledMaterial),
    /// Garbled on the fly during the run; `seed` derives the garbler's
    /// RNG stream (the same seed reproduces the same labels and tables).
    Live {
        /// Clock cycles to garble (must match the per-cycle input bits).
        n_cycles: usize,
        /// Garbler RNG seed.
        seed: u64,
    },
}

impl From<GarbledMaterial> for MaterialSource {
    fn from(material: GarbledMaterial) -> MaterialSource {
        MaterialSource::Precomputed(material)
    }
}

impl MaterialSource {
    /// Clock cycles this source will produce.
    pub fn num_cycles(&self) -> usize {
        match self {
            MaterialSource::Precomputed(m) => m.num_cycles(),
            MaterialSource::Live { n_cycles, .. } => *n_cycles,
        }
    }
}

/// A client session's completed base-OT setup: the live IKNP sender plus
/// the setup's traffic. Reused across every [`ClientSession::run_online`]
/// call on the same connection — and with it the garbler's wire-label
/// array, so only the first live-garbled query on a connection allocates
/// one (see [`ClientSetup::resident_bytes`]).
#[derive(Debug)]
pub struct ClientSetup {
    ot: ExtSender,
    /// The live garbler's wire-label array between queries; empty until a
    /// query garbles live, and again after one that failed mid-cycle.
    labels: Vec<Block>,
    /// Bytes this endpoint sent during setup.
    pub sent: u64,
    /// Bytes this endpoint received during setup.
    pub received: u64,
}

impl ClientSetup {
    /// Both directions of the base-OT setup — the `base_ot` wire term.
    pub fn base_ot_bytes(&self) -> u64 {
        self.sent + self.received
    }

    /// `true` when the OT-extension state is at a batch boundary and can
    /// be carried across a reconnect without re-running base OT. `false`
    /// while an extension batch is mid-transfer (the correlation streams
    /// have advanced past the peer's view — resuming would desynchronise).
    #[must_use]
    pub fn resumable(&self) -> bool {
        !self.ot.is_in_flight()
    }

    /// Bytes this setup keeps allocated between queries so the next one
    /// need not allocate, zero and fault them in again: `wire_count × 16`
    /// once a query has garbled live (246 MB on `mnist_mlp`), nothing
    /// while every query ran on precomputed material.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        (self.labels.capacity() * 16) as u64
    }

    /// Frees what [`ClientSetup::resident_bytes`] counts. The next query
    /// allocates afresh — reuse is a saving, never a correctness
    /// condition — so a setup that is parked rather than queried (the
    /// serving layer's resume stash) should not sit on O(circuit) memory.
    pub fn release_buffers(&mut self) {
        self.labels = Vec::new();
    }
}

/// A server session's completed base-OT setup (IKNP receiver side), plus
/// the evaluator's buffers recycled across [`ServerSession::run_online`]
/// calls (see [`ServerSetup::resident_bytes`]).
#[derive(Debug)]
pub struct ServerSetup {
    ot: ExtReceiver,
    /// The evaluator's wire-label array between queries; empty until the
    /// first query, and again after one that failed.
    labels: Vec<Block>,
    /// The table receive buffer between queries: one chunk, which in
    /// single-chunk mode is a whole cycle's tables.
    tables: Vec<Block>,
    /// Bytes this endpoint sent during setup.
    pub sent: u64,
    /// Bytes this endpoint received during setup.
    pub received: u64,
}

impl ServerSetup {
    /// Both directions of the base-OT setup — the `base_ot` wire term.
    pub fn base_ot_bytes(&self) -> u64 {
        self.sent + self.received
    }

    /// `true` when the OT-extension state is at a batch boundary and can
    /// be carried across a reconnect — see [`ClientSetup::resumable`].
    #[must_use]
    pub fn resumable(&self) -> bool {
        !self.ot.is_in_flight()
    }

    /// Bytes this setup keeps allocated between queries so the next one
    /// need not allocate and fault them in again: the evaluator's
    /// wire-label array (`wire_count × 16`, 246 MB on `mnist_mlp`) plus
    /// the table receive buffer (one chunk; a whole cycle's tables when
    /// `chunk_gates == 0`). Zero before the first query.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        ((self.labels.capacity() + self.tables.capacity()) * 16) as u64
    }
}

/// What the client knows after a run: the decoded result plus its side of
/// the traffic accounting.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    /// Decoded inference label of the final cycle.
    pub label: usize,
    /// Decoded output value of every cycle.
    pub cycle_labels: Vec<usize>,
    /// Bytes this session sent (delta over the run).
    pub sent: u64,
    /// Bytes this session received (delta over the run).
    pub received: u64,
    /// Per-phase wire traffic (`wire.tables` is the `α` material term).
    /// Online-only runs report `base_ot == 0`; the setup accounts for it.
    pub wire: WireBreakdown,
    /// High-water mark of garbled-table bytes this session held at once:
    /// the whole material on buffered runs, one chunk buffer on streamed
    /// live runs — the measured O(chunk) memory claim.
    pub peak_material_bytes: u64,
}

/// What the server knows after a run: traffic, never outputs.
#[derive(Clone, Debug)]
pub struct ServerOutcome {
    /// Bytes this session sent (delta over the run).
    pub sent: u64,
    /// Bytes this session received (delta over the run).
    pub received: u64,
    /// Per-phase wire traffic (mirrors the client's view). Online-only
    /// runs report `base_ot == 0`; the setup accounts for it.
    pub wire: WireBreakdown,
    /// High-water mark of garbled-table bytes this session held at once:
    /// a whole cycle's tables on buffered runs, one chunk on streamed.
    pub peak_material_bytes: u64,
}

/// The garbling party (Alice / the client of the paper).
#[derive(Debug)]
pub struct ClientSession {
    compiled: Arc<Compiled>,
    cfg: InferenceConfig,
}

/// Where one cycle's garbled tables come from.
enum CycleTables<'a, 'c> {
    /// Garbled before the cycle starts — offline by a precompute pool, or
    /// up front by a live garbler in single-chunk mode; shipped as slices.
    Stored(&'a GarbledCycle),
    /// Garbled chunk by chunk while shipping: at no point does more than
    /// one chunk of tables exist on this side.
    Live(CycleGarbling<'a, 'c>),
}

impl CycleTables<'_, '_> {
    fn constant_labels(&self) -> [Block; 2] {
        match self {
            CycleTables::Stored(cycle) => cycle.constant_labels,
            CycleTables::Live(cycle) => cycle.constant_labels(),
        }
    }

    fn garbler_active(&self, bits: &[bool]) -> Vec<Block> {
        match self {
            CycleTables::Stored(cycle) => cycle.garbler_active(bits),
            CycleTables::Live(cycle) => cycle.garbler_active(bits),
        }
    }

    fn evaluator_input_labels(&self) -> &[(Block, Block)] {
        match self {
            CycleTables::Stored(cycle) => &cycle.evaluator_input_labels,
            CycleTables::Live(cycle) => cycle.evaluator_input_labels(),
        }
    }

    /// The table step: ships the cycle's tables as its [`chunk_sizes`]
    /// chunks. A live source garbles each chunk right before it goes out,
    /// and the cycle's `client.garble` span covers that interleaving.
    fn ship<C: Channel>(
        &mut self,
        run: &mut Online<'_, C>,
        chunk_gates: usize,
    ) -> Result<(), ProtocolError> {
        let span = match chunk_gates {
            0 => "client.tables",
            _ => "client.tables.chunk",
        };
        match self {
            CycleTables::Stored(cycle) => {
                let mut rows = cycle.tables.as_slice();
                for k in chunk_sizes(rows.len() / 2, chunk_gates) {
                    let (chunk, rest) = rows.split_at(2 * k);
                    run.spanned(span, Phase::Tables, |chan| chan.send_blocks(chunk))?;
                    rows = rest;
                }
            }
            CycleTables::Live(cycle) => {
                let _garble = telemetry::span!("client.garble");
                let nonfree = cycle.remaining_nonfree();
                let mut buf: Vec<Block> = Vec::with_capacity(2 * chunk_gates.min(nonfree));
                for k in chunk_sizes(nonfree, chunk_gates) {
                    buf.clear();
                    {
                        let _s = telemetry::span!("client.garble.chunk");
                        cycle.garble_chunk(k, &mut buf);
                    }
                    run.resident(buf.len());
                    run.spanned(span, Phase::Tables, |chan| chan.send_blocks(&buf))?;
                }
                // A chunk ends at its last non-free gate: walk the free
                // gates behind the final one (no rows come out).
                cycle.garble_chunk(usize::MAX, &mut buf);
            }
        }
        Ok(())
    }

    /// Closes the cycle: the point-and-permute decode bit per output wire.
    fn finish(self) -> Vec<bool> {
        match self {
            CycleTables::Stored(cycle) => cycle.output_decode.clone(),
            CycleTables::Live(cycle) => cycle.finish(),
        }
    }
}

impl ClientSession {
    /// Builds the client half for one compiled circuit.
    pub fn new(compiled: Arc<Compiled>, cfg: &InferenceConfig) -> ClientSession {
        ClientSession {
            compiled,
            cfg: cfg.clone(),
        }
    }

    /// Runs the one-time base-OT setup (IKNP sender side), generating the
    /// keypairs on the spot.
    ///
    /// `_epoch` is unused; the parameter stays only until the benchmark's
    /// frozen callers stop passing it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    pub fn setup<C: Channel>(
        &self,
        chan: &mut C,
        _epoch: Instant,
    ) -> Result<ClientSetup, ProtocolError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xa11ce);
        let pre = SenderPrecomp::generate_with(&Ristretto255, &mut rng, self.cfg.pool());
        self.setup_with(chan, pre)
    }

    /// Runs the base-OT setup with offline-generated [`SenderPrecomp`]
    /// material — only the two batched flights stay on the wire path.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    pub fn setup_with<C: Channel>(
        &self,
        chan: &mut C,
        pre: SenderPrecomp,
    ) -> Result<ClientSetup, ProtocolError> {
        let _s = telemetry::span!("client.base_ot");
        let sent0 = chan.bytes_sent();
        let recv0 = chan.bytes_received();
        let ot = ExtSender::setup_with_pool(chan, pre, self.cfg.pool())?;
        let sent = chan.bytes_sent() - sent0;
        let received = chan.bytes_received() - recv0;
        wire_metrics::BASE_OT.add(sent + received);
        wire_metrics::SENT.add(sent);
        wire_metrics::RECEIVED.add(received);
        Ok(ClientSetup {
            ot,
            labels: Vec::new(),
            sent,
            received,
        })
    }

    /// Runs one **online** inference over an established setup. The
    /// [`MaterialSource`] decides where tables come from (pre-garbled
    /// offline, or garbled live); the session's `chunk_gates` decides how
    /// they travel (module docs): as one whole-cycle chunk ahead of labels
    /// and OT — a live source garbles the cycle to completion first — or
    /// behind them in `chunk_gates`-gate chunks, so the evaluator works
    /// while later chunks (and a live source's garbling) are in flight.
    ///
    /// The setup is reusable: call again with a fresh source for the next
    /// request on the same connection. The outcome's `wire.base_ot` is
    /// zero — setup traffic is accounted once, by the [`ClientSetup`].
    ///
    /// `_epoch` is unused, as in [`ClientSession::setup`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    ///
    /// # Panics
    ///
    /// Panics if the source's cycle count mismatches
    /// `garbler_bits_per_cycle`, or either is empty.
    pub fn run_online<C: Channel>(
        &self,
        chan: &mut C,
        setup: &mut ClientSetup,
        source: impl Into<MaterialSource>,
        garbler_bits_per_cycle: &[Vec<bool>],
        _epoch: Instant,
    ) -> Result<ClientOutcome, ProtocolError> {
        let source = source.into();
        assert!(
            !garbler_bits_per_cycle.is_empty(),
            "need at least one cycle"
        );
        assert_eq!(
            source.num_cycles(),
            garbler_bits_per_cycle.len(),
            "material cycles must match input cycles"
        );
        let chunk_gates = self.cfg.chunk_gates;
        let mut run = Online::begin(chan);
        let mut stored = Vec::new();
        let mut live = None;
        let initial_registers = match source {
            MaterialSource::Precomputed(material) => {
                // The whole material is resident when the run starts;
                // each cycle's tables are released once they have shipped.
                run.peak = material.table_bytes();
                stored = material.cycles;
                material.initial_registers
            }
            MaterialSource::Live { seed, .. } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let garbler = Garbler::new(&self.compiled.circuit, &mut rng)
                    .with_labels(std::mem::take(&mut setup.labels));
                // Must be read before the first cycle garbles: garbling
                // latches the register labels forward to the next cycle.
                let registers = garbler.initial_register_labels();
                live = Some((garbler, rng));
                registers
            }
        };
        // The two wire orders (module docs): a single whole-cycle chunk
        // goes out before labels + OT, `chunk_gates`-sized chunks after
        // them — so the evaluator can work through them while later ones
        // are in flight.
        let tables_first = chunk_gates == 0;
        let mut label = 0;
        let mut cycle_labels = Vec::with_capacity(garbler_bits_per_cycle.len());
        for (i, g_bits) in garbler_bits_per_cycle.iter().enumerate() {
            let whole;
            let mut tables = match &mut live {
                None => CycleTables::Stored(&stored[i]),
                // Nothing precedes a whole-cycle chunk on the wire, so the
                // cycle is garbled to completion first (Fig. 5's G, then T).
                Some((garbler, rng)) if tables_first => {
                    let garble_span = telemetry::span!("client.garble");
                    whole = garbler.garble_cycle(rng);
                    garble_span.end();
                    run.resident(whole.tables.len());
                    CycleTables::Stored(&whole)
                }
                Some((garbler, rng)) => CycleTables::Live(garbler.begin_cycle(rng)),
            };
            if i == 0 {
                let [const0, const1] = tables.constant_labels();
                run.spanned("client.input_labels", Phase::InputLabels, |chan| {
                    chan.send_block(const0)?;
                    chan.send_block(const1)?;
                    chan.send_blocks(&initial_registers)
                })?;
            }
            if tables_first {
                tables.ship(&mut run, chunk_gates)?;
            }
            run.spanned("client.input_labels", Phase::InputLabels, |chan| {
                chan.send_blocks(&tables.garbler_active(g_bits))
            })?;
            run.spanned("client.ot_ext", Phase::OtExt, |chan| {
                setup.ot.send(chan, tables.evaluator_input_labels())
            })?;
            if !tables_first {
                tables.ship(&mut run, chunk_gates)?;
            }
            let output_decode = tables.finish();
            let colors = run.spanned("client.turnaround", Phase::OutputBits, |chan| {
                chan.recv_bits()
            })?;
            let label_bits: Vec<bool> = colors
                .iter()
                .zip(&output_decode)
                .map(|(&col, &d)| col ^ d)
                .collect();
            label = self.compiled.decode_label(&label_bits);
            cycle_labels.push(label);
            if let Some(shipped) = stored.get_mut(i) {
                shipped.tables = Vec::new();
            }
        }
        if let Some((garbler, _)) = live {
            // Only a completed run hands the array on; a failed one drops
            // it with the garbler and the next query allocates again.
            setup.labels = garbler.into_labels();
        }
        let (sent, received, wire, peak_material_bytes) = run.close()?;
        Ok(ClientOutcome {
            label,
            cycle_labels,
            sent,
            received,
            wire,
            peak_material_bytes,
        })
    }

    /// Runs the full client side over any channel: base-OT setup, then per
    /// cycle garble → ship tables/labels → OT → decode returned colors.
    /// Cycle `c`'s colors are decoded before cycle `c+1` is garbled, so
    /// cycles do not overlap. With `chunk_gates > 0` each cycle itself
    /// streams: garble a chunk, send a chunk — garbling, transfer, and the
    /// peer's evaluation overlap *within* a cycle, and at most one chunk of
    /// tables is ever resident.
    ///
    /// Composes [`ClientSession::setup`] with a live-garbling
    /// [`ClientSession::run_online`], which is what keeps the single-shot
    /// and the split serving paths wire-compatible.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    ///
    /// # Panics
    ///
    /// Panics if `garbler_bits_per_cycle` is empty or a cycle's bit count
    /// mismatches the circuit's garbler arity.
    pub fn run<C: Channel>(
        &self,
        chan: &mut C,
        garbler_bits_per_cycle: &[Vec<bool>],
    ) -> Result<ClientOutcome, ProtocolError> {
        assert!(
            !garbler_bits_per_cycle.is_empty(),
            "need at least one cycle"
        );
        let mut setup = self.setup(chan, Instant::now())?;
        let mut out = self.run_online(
            chan,
            &mut setup,
            MaterialSource::Live {
                n_cycles: garbler_bits_per_cycle.len(),
                seed: self.cfg.seed ^ 0x9a4b1e,
            },
            garbler_bits_per_cycle,
            Instant::now(),
        )?;
        out.wire.base_ot = setup.base_ot_bytes();
        out.sent += setup.sent;
        out.received += setup.received;
        Ok(out)
    }
}

/// The evaluating party (Bob / the cloud server of the paper).
#[derive(Debug)]
pub struct ServerSession {
    compiled: Arc<Compiled>,
    cfg: InferenceConfig,
}

impl ServerSession {
    /// Builds the server half for one compiled circuit.
    pub fn new(compiled: Arc<Compiled>, cfg: &InferenceConfig) -> ServerSession {
        ServerSession {
            compiled,
            cfg: cfg.clone(),
        }
    }

    /// Runs the one-time base-OT setup (IKNP receiver side).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    pub fn setup<C: Channel>(&self, chan: &mut C) -> Result<ServerSetup, ProtocolError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xb0b);
        let _s = telemetry::span!("server.base_ot");
        let sent0 = chan.bytes_sent();
        let recv0 = chan.bytes_received();
        let ot = ExtReceiver::setup_with_pool(chan, &Ristretto255, &mut rng, self.cfg.pool())?;
        let sent = chan.bytes_sent() - sent0;
        let received = chan.bytes_received() - recv0;
        wire_metrics::BASE_OT.add(sent + received);
        wire_metrics::SENT.add(sent);
        wire_metrics::RECEIVED.add(received);
        Ok(ServerSetup {
            ot,
            labels: Vec::new(),
            tables: Vec::new(),
            sent,
            received,
        })
    }

    /// Runs one **online** inference over an established setup. With
    /// `chunk_gates == 0` the cycle's one table chunk arrives *before* the
    /// labels and is held until they do; with `chunk_gates > 0` the chunks
    /// arrive *after* labels + OT and are fed to the gate walk one by one
    /// — peak resident material drops from O(circuit) to O(chunk). Chunk
    /// boundaries are computed from the circuit's non-free gate count and
    /// the agreed `chunk_gates`, so no framing bytes are added.
    ///
    /// The setup is reusable across requests on one connection; each call
    /// expects the peer to stream fresh garbled material. The outcome's
    /// `wire.base_ot` is zero — setup traffic is accounted once, by the
    /// [`ServerSetup`].
    ///
    /// `_epoch` is unused, as in [`ClientSession::setup`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    ///
    /// # Panics
    ///
    /// Panics if `evaluator_bits_per_cycle` is empty or a cycle's bit
    /// count mismatches the circuit's evaluator arity.
    pub fn run_online<C: Channel>(
        &self,
        chan: &mut C,
        setup: &mut ServerSetup,
        evaluator_bits_per_cycle: &[Vec<bool>],
        _epoch: Instant,
    ) -> Result<ServerOutcome, ProtocolError> {
        assert!(
            !evaluator_bits_per_cycle.is_empty(),
            "need at least one cycle"
        );
        let c = &self.compiled.circuit;
        let chunk_gates = self.cfg.chunk_gates;
        // Mirrors the garbling side: the one mode switch of this driver.
        let tables_first = chunk_gates == 0;
        let mut run = Online::begin(chan);

        let (const0, const1, init_regs) =
            run.spanned("server.input_labels", Phase::InputLabels, |chan| {
                let (const0, const1) = (chan.recv_block()?, chan.recv_block()?);
                Ok::<_, ProtocolError>((const0, const1, chan.recv_blocks(c.registers().len())?))
            })?;
        let mut evaluator = Evaluator::new(c).with_labels(std::mem::take(&mut setup.labels));
        evaluator.set_constant_labels(const0, const1);
        evaluator.set_initial_registers(init_regs);
        let nonfree = c.nonfree_gate_count();
        let no_decode = vec![false; c.outputs().len()];
        // One receive buffer for every chunk of every cycle — and, through
        // the setup, of every later query — sized for the widest chunk.
        let mut chunk = std::mem::take(&mut setup.tables);
        chunk.clear();
        chunk.reserve(2 * chunk_sizes(nonfree, chunk_gates).max().unwrap_or(0));
        // The table step, in either position: receives the cycle's chunks
        // through one buffer, handing each to the gate walk if it is
        // already under way (else the single chunk stays in `chunk`).
        let chunk_span = match chunk_gates {
            0 => "server.tables",
            _ => "server.eval.chunk",
        };
        let recv_tables = |run: &mut Online<'_, C>,
                           chunk: &mut Vec<Block>,
                           mut walk: Option<&mut CycleEval<'_, '_>>| {
            for k in chunk_sizes(nonfree, chunk_gates) {
                let _s = telemetry::span!(chunk_span);
                chunk.clear();
                run.metered(Phase::Tables, |chan| chan.recv_blocks_into(chunk, 2 * k))?;
                run.resident(chunk.len());
                if let Some(cycle) = walk.as_deref_mut() {
                    cycle.feed(chunk);
                }
            }
            Ok::<(), ProtocolError>(())
        };
        for choice_bits in evaluator_bits_per_cycle {
            if tables_first {
                recv_tables(&mut run, &mut chunk, None)?;
            }
            let g_labels = run.spanned("server.input_labels", Phase::InputLabels, |chan| {
                chan.recv_blocks(c.garbler_inputs().len())
            })?;
            let e_labels = run.spanned("server.ot_ext", Phase::OtExt, |chan| {
                setup.ot.receive(chan, choice_bits)
            })?;
            // With labels first the span includes table transfer time —
            // that interleaving is the point of streaming.
            let eval_span = telemetry::span!("server.eval");
            let mut cycle = evaluator.begin_cycle(&g_labels, &e_labels);
            if tables_first {
                cycle.feed(&chunk);
            } else {
                recv_tables(&mut run, &mut chunk, Some(&mut cycle))?;
            }
            let colors = cycle.finish(&no_decode);
            eval_span.end();
            run.metered(Phase::OutputBits, |chan| chan.send_bits(&colors))?;
        }
        // Only a completed run hands its buffers on; a failed one drops
        // them and the next query allocates again.
        setup.labels = evaluator.into_labels();
        setup.tables = chunk;
        let (sent, received, wire, peak_material_bytes) = run.close()?;
        Ok(ServerOutcome {
            sent,
            received,
            wire,
            peak_material_bytes,
        })
    }

    /// Runs the full server side over any channel: base-OT setup, then per
    /// cycle receive tables/labels → OT-receive own labels → evaluate →
    /// return output colors.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on channel/OT failure.
    ///
    /// # Panics
    ///
    /// Panics if `evaluator_bits_per_cycle` is empty or a cycle's bit
    /// count mismatches the circuit's evaluator arity.
    pub fn run<C: Channel>(
        &self,
        chan: &mut C,
        evaluator_bits_per_cycle: &[Vec<bool>],
    ) -> Result<ServerOutcome, ProtocolError> {
        let mut setup = self.setup(chan)?;
        let (setup_sent, setup_received) = (setup.sent, setup.received);
        let mut out =
            self.run_online(chan, &mut setup, evaluator_bits_per_cycle, Instant::now())?;
        out.wire.base_ot = setup_sent + setup_received;
        out.sent += setup_sent;
        out.received += setup_received;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_fixed::Format;
    use deepsecure_ot::channel::{mem_pair, ChannelError, MemChannel};

    use crate::compile::{folded_mac, CompileOptions};

    use super::*;

    fn mac_compiled() -> Arc<Compiled> {
        Arc::new(Compiled {
            circuit: folded_mac(&CompileOptions::default()),
            weight_order: Vec::new(),
            format: Format::Q3_12,
        })
    }

    #[test]
    fn both_parties_report_the_same_breakdown() {
        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();
        let (mut cc, mut cs) = mem_pair();
        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let e_bits = vec![vec![false; 16]; 2];
        let handle = std::thread::spawn(move || server.run(&mut cs, &e_bits));
        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let g_bits = vec![vec![false; 17]; 2];
        let cout = client.run(&mut cc, &g_bits).unwrap();
        let sout = handle.join().unwrap().unwrap();
        // Same wire, observed from either end.
        assert_eq!(cout.wire, sout.wire);
        assert_eq!(cout.sent, sout.received);
        assert_eq!(cout.received, sout.sent);
        assert_eq!(cout.wire.total(), cout.sent + cout.received);
        assert!(cout.wire.tables > 0);
        assert!(cout.wire.base_ot > 0);
        assert!(cout.wire.ot_ext > 0);
        assert!(cout.wire.output_bits > 0);
        assert!(cout.wire.input_labels > 0);
    }

    #[test]
    fn session_deltas_exclude_pre_protocol_traffic() {
        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();
        let (mut cc, mut cs) = mem_pair();
        // A handshake before the sessions start must not be attributed to
        // the protocol.
        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let handle = std::thread::spawn(move || {
            let hello = cs.recv(5).unwrap();
            assert_eq!(hello, b"hello");
            cs.send(b"again").unwrap();
            let e_bits = vec![vec![false; 16]];
            server.run(&mut cs, &e_bits).unwrap()
        });
        cc.send(b"hello").unwrap();
        assert_eq!(cc.recv(5).unwrap(), b"again");
        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let cout = client.run(&mut cc, &[vec![false; 17]]).unwrap();
        let sout = handle.join().unwrap();
        assert_eq!(cout.sent, cc.bytes_sent() - 5);
        assert_eq!(cout.wire, sout.wire);
    }

    #[test]
    fn split_setup_and_online_reuse_one_connection_for_many_requests() {
        // Two requests over one setup: the serving layer's shape. Each
        // request streams fresh offline-garbled material; the base OT
        // happens exactly once and appears in no request's breakdown.
        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();
        let (mut cc, mut cs) = mem_pair();
        let epoch = Instant::now();
        const REQUESTS: usize = 2;

        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let handle = std::thread::spawn(move || {
            let mut setup = server.setup(&mut cs).unwrap();
            let base = setup.base_ot_bytes();
            let outs: Vec<ServerOutcome> = (0..REQUESTS)
                .map(|_| {
                    let e_bits = vec![vec![false; 16]];
                    server
                        .run_online(&mut cs, &mut setup, &e_bits, epoch)
                        .unwrap()
                })
                .collect();
            (base, outs)
        });

        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let mut setup = client.setup(&mut cc, epoch).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let couts: Vec<ClientOutcome> = (0..REQUESTS)
            .map(|_| {
                let material = GarbledMaterial::garble(&compiled, 1, &mut rng);
                assert_eq!(material.num_cycles(), 1);
                let g_bits = vec![vec![false; 17]];
                client
                    .run_online(&mut cc, &mut setup, material, &g_bits, epoch)
                    .unwrap()
            })
            .collect();
        let (server_base, souts) = handle.join().unwrap();

        assert_eq!(setup.base_ot_bytes(), server_base);
        assert!(server_base > 0, "setup must carry the base-OT traffic");
        for (cout, sout) in couts.iter().zip(&souts) {
            assert_eq!(cout.wire, sout.wire);
            assert_eq!(cout.wire.base_ot, 0, "base OT paid once, not per request");
            assert!(cout.wire.tables > 0);
            assert!(cout.wire.ot_ext > 0);
            assert_eq!(cout.cycle_labels.len(), 1);
        }
        // Both requests moved identical byte counts (same circuit shape).
        assert_eq!(couts[0].wire, couts[1].wire);
    }

    #[test]
    fn base_ot_setup_is_two_flights_on_a_simulated_link() {
        use deepsecure_ot::sim::{NetModel, SimChannel};

        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();
        let (cc, cs) = mem_pair();
        let mut cc = SimChannel::new(cc, NetModel::ideal());
        let mut cs = SimChannel::new(cs, NetModel::ideal());
        let epoch = Instant::now();

        let counted_before = wire_metrics::BASE_OT.get();
        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let handle = std::thread::spawn(move || {
            let setup = server.setup(&mut cs).unwrap();
            (setup.base_ot_bytes(), cs.turnarounds())
        });
        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let setup = client.setup(&mut cc, epoch).unwrap();
        let (server_bytes, server_turnarounds) = handle.join().unwrap();

        // Batched base OT is two one-way flights: the server's A, then the
        // client's every B_i. Each flight is received exactly once, and on
        // a strictly alternating link every receive is a turnaround, so
        // the two endpoints' turnaround counts sum to the flight count:
        // one each.
        assert_eq!(
            [cc.turnarounds(), server_turnarounds],
            [1, 1],
            "batched base OT must stay 2 flights"
        );

        // Both endpoints feed the process-global phase counter (sent +
        // received each), so one setup adds twice the per-party total.
        // Concurrent tests may add more in between, never less.
        assert_eq!(setup.base_ot_bytes(), server_bytes);
        assert!(
            wire_metrics::BASE_OT.get() - counted_before >= 2 * server_bytes,
            "wire_metrics::BASE_OT must observe the setup traffic"
        );
    }

    /// One full run over `mem_pair` with the given chunk setting.
    fn run_with_chunk(chunk_gates: usize, n_cycles: usize) -> (ClientOutcome, ServerOutcome) {
        let compiled = mac_compiled();
        let cfg = InferenceConfig {
            chunk_gates,
            ..InferenceConfig::default()
        };
        let (mut cc, mut cs) = mem_pair();
        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let e_bits = vec![vec![true; 16]; n_cycles];
        let handle = std::thread::spawn(move || server.run(&mut cs, &e_bits).unwrap());
        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let g_bits = vec![vec![true; 17]; n_cycles];
        let cout = client.run(&mut cc, &g_bits).unwrap();
        let sout = handle.join().unwrap();
        assert_eq!(cout.wire, sout.wire, "parties disagree on the wire");
        (cout, sout)
    }

    #[test]
    fn streamed_run_is_wire_identical_to_buffered_per_phase() {
        // Chunk sizes: 1 gate, a small one, and one far larger than the
        // circuit (a single chunk) — every streamed variant must move
        // exactly the buffered bytes in every phase and decode the same
        // labels, single-cycle and multi-cycle (register latching).
        for n_cycles in [1usize, 3] {
            let (buffered, buf_s) = run_with_chunk(0, n_cycles);
            if n_cycles == 1 {
                assert_eq!(
                    buffered.peak_material_bytes, buffered.wire.tables,
                    "a buffered single-cycle client holds the whole stream"
                );
            }
            for chunk in [1usize, 7, 1 << 24] {
                let (streamed, str_s) = run_with_chunk(chunk, n_cycles);
                assert_eq!(streamed.cycle_labels, buffered.cycle_labels);
                assert_eq!(streamed.wire, buffered.wire, "chunk {chunk}");
                assert_eq!(streamed.sent, buffered.sent);
                assert_eq!(streamed.received, buffered.received);
                assert_eq!(str_s.wire, buf_s.wire);
                // O(chunk) resident: a small chunk beats the whole cycle.
                if chunk < 7_000 {
                    let per_cycle = buffered.wire.tables / n_cycles as u64;
                    assert!(
                        streamed.peak_material_bytes <= (2 * chunk * 16) as u64,
                        "client chunk {chunk}: peak {}",
                        streamed.peak_material_bytes
                    );
                    assert!(
                        str_s.peak_material_bytes < per_cycle,
                        "server chunk {chunk}: peak {} vs cycle {per_cycle}",
                        str_s.peak_material_bytes
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_online_run_with_precomputed_material_matches_buffered() {
        // The pool's precomputed path, streamed: same bytes per phase,
        // same label; the evaluator side still only holds O(chunk).
        let compiled = mac_compiled();
        let run = |chunk_gates: usize| {
            let cfg = InferenceConfig {
                chunk_gates,
                ..InferenceConfig::default()
            };
            let (mut cc, mut cs) = mem_pair();
            let epoch = Instant::now();
            let server = ServerSession::new(Arc::clone(&compiled), &cfg);
            let handle = std::thread::spawn(move || {
                let mut setup = server.setup(&mut cs).unwrap();
                server
                    .run_online(&mut cs, &mut setup, &[vec![true; 16]], epoch)
                    .unwrap()
            });
            let client = ClientSession::new(Arc::clone(&compiled), &cfg);
            let mut setup = client.setup(&mut cc, epoch).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let material = GarbledMaterial::garble(&compiled, 1, &mut rng);
            let total = material.table_bytes();
            let cout = client
                .run_online(&mut cc, &mut setup, material, &[vec![true; 17]], epoch)
                .unwrap();
            let sout = handle.join().unwrap();
            (cout, sout, total)
        };
        let (b_c, b_s, total) = run(0);
        let (s_c, s_s, _) = run(5);
        assert_eq!(s_c.label, b_c.label);
        assert_eq!(s_c.wire, b_c.wire);
        assert_eq!(s_s.wire, b_s.wire);
        // Client holds the whole precomputed material either way…
        assert_eq!(s_c.peak_material_bytes, total);
        assert_eq!(b_c.peak_material_bytes, total);
        // …but the streamed evaluator only ever holds one chunk.
        assert_eq!(b_s.peak_material_bytes, total);
        assert!(
            s_s.peak_material_bytes <= 5 * 32,
            "peak {}",
            s_s.peak_material_bytes
        );
    }

    #[test]
    fn multicore_run_is_wire_identical_to_sequential_per_phase() {
        // threads is a pure perf knob: the same seeds must move the same
        // per-phase wire bytes and decode the same labels at any worker
        // count, buffered and streamed.
        let run = |threads: usize, chunk_gates: usize| {
            let compiled = mac_compiled();
            let cfg = InferenceConfig {
                chunk_gates,
                threads,
                ..InferenceConfig::default()
            };
            let (mut cc, mut cs) = mem_pair();
            let server = ServerSession::new(Arc::clone(&compiled), &cfg);
            let e_bits = vec![vec![true; 16]; 3];
            let handle = std::thread::spawn(move || server.run(&mut cs, &e_bits).unwrap());
            let client = ClientSession::new(Arc::clone(&compiled), &cfg);
            let g_bits = vec![vec![true; 17]; 3];
            let cout = client.run(&mut cc, &g_bits).unwrap();
            let sout = handle.join().unwrap();
            assert_eq!(cout.wire, sout.wire);
            (
                cout.cycle_labels.clone(),
                cout.wire,
                cout.sent,
                cout.received,
            )
        };
        for chunk_gates in [0usize, 5] {
            let seq = run(1, chunk_gates);
            for threads in [2usize, 4] {
                assert_eq!(run(threads, chunk_gates), seq, "chunk {chunk_gates}");
            }
        }
    }

    #[test]
    fn live_source_reproduces_run_labels_exactly() {
        // MaterialSource::Live with run()'s seed derivation must produce
        // the same garbling stream run() itself would — the property the
        // two-process --check replay relies on.
        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();
        let seed = cfg.seed ^ 0x9a4b1e;
        let mut rng = StdRng::seed_from_u64(seed);
        let material = GarbledMaterial::garble(&compiled, 2, &mut rng);
        let source = MaterialSource::Live { n_cycles: 2, seed };
        assert_eq!(source.num_cycles(), material.num_cycles());
        let mut rng2 = StdRng::seed_from_u64(seed);
        let material2 = GarbledMaterial::garble(&compiled, 2, &mut rng2);
        assert_eq!(material.cycles[0].tables, material2.cycles[0].tables);
        assert_eq!(material.initial_registers, material2.initial_registers);
    }

    #[test]
    fn online_run_matches_full_run_byte_for_byte() {
        // The split path must be wire-compatible with run(): same label,
        // same per-phase bytes (base OT accounted in the setup instead).
        let compiled = mac_compiled();
        let cfg = InferenceConfig::default();

        let full = {
            let (mut cc, mut cs) = mem_pair();
            let server = ServerSession::new(Arc::clone(&compiled), &cfg);
            let e_bits = vec![vec![true; 16]];
            let handle = std::thread::spawn(move || server.run(&mut cs, &e_bits).unwrap());
            let client = ClientSession::new(Arc::clone(&compiled), &cfg);
            let cout = client.run(&mut cc, &[vec![true; 17]]).unwrap();
            handle.join().unwrap();
            cout
        };

        let split = {
            let (mut cc, mut cs) = mem_pair();
            let epoch = Instant::now();
            let server = ServerSession::new(Arc::clone(&compiled), &cfg);
            let handle = std::thread::spawn(move || {
                let mut setup = server.setup(&mut cs).unwrap();
                let e_bits = vec![vec![true; 16]];
                let out = server
                    .run_online(&mut cs, &mut setup, &e_bits, epoch)
                    .unwrap();
                (setup.base_ot_bytes(), out)
            });
            let client = ClientSession::new(Arc::clone(&compiled), &cfg);
            let mut setup = client.setup(&mut cc, epoch).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let material = GarbledMaterial::garble(&compiled, 1, &mut rng);
            let cout = client
                .run_online(&mut cc, &mut setup, material, &[vec![true; 17]], epoch)
                .unwrap();
            let (server_base, _sout) = handle.join().unwrap();
            (setup.base_ot_bytes(), server_base, cout)
        };

        let (client_base, server_base, cout) = split;
        assert_eq!(cout.label, full.label, "labels must agree across paths");
        assert_eq!(client_base, full.wire.base_ot);
        assert_eq!(server_base, full.wire.base_ot);
        assert_eq!(cout.wire.ot_ext, full.wire.ot_ext);
        assert_eq!(cout.wire.tables, full.wire.tables);
        assert_eq!(cout.wire.input_labels, full.wire.input_labels);
        assert_eq!(cout.wire.output_bits, full.wire.output_bits);
    }

    /// Records what one endpoint puts on the wire: FNV-1a of the bytes it
    /// sends, and of its `(operation, length)` sequence with a block
    /// transfer as one operation — the granularity `FaultChannel` scripts
    /// drops at, so the resilience tests' operation indices stay valid.
    struct Tap {
        inner: MemChannel,
        bytes: u64,
        ops: u64,
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv1a(h: u64, data: &[u8]) -> u64 {
        data.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    impl Tap {
        fn op(&mut self, kind: u8, len: usize) {
            self.ops = fnv1a(fnv1a(self.ops, &[kind]), &(len as u64).to_le_bytes());
        }
    }

    impl Channel for Tap {
        fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
            self.op(b's', data.len());
            self.bytes = fnv1a(self.bytes, data);
            self.inner.send(data)
        }
        fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
            self.op(b'r', n);
            self.inner.recv(n)
        }
        fn flush(&mut self) -> Result<(), ChannelError> {
            self.op(b'f', 0);
            self.inner.flush()
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
        fn bytes_received(&self) -> u64 {
            self.inner.bytes_received()
        }
        fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
            self.op(b'S', blocks.len());
            for b in blocks {
                self.bytes = fnv1a(self.bytes, &b.to_bytes());
            }
            self.inner.send_blocks(blocks)
        }
        fn recv_blocks_into(&mut self, out: &mut Vec<Block>, n: usize) -> Result<(), ChannelError> {
            self.op(b'R', n);
            self.inner.recv_blocks_into(out, n)
        }
    }

    /// 72 AND gates behind 8 garbler and 9 evaluator inputs: a
    /// combinational circuit whose last 64-gate chunk is short.
    fn and_grid_compiled() -> Arc<Compiled> {
        let mut b = deepsecure_circuit::Builder::new();
        let xs = b.garbler_inputs(8);
        let ys = b.evaluator_inputs(9);
        for &x in &xs {
            let mut acc = b.const0();
            for &y in &ys {
                let t = b.and(x, y);
                acc = b.xor(acc, t);
            }
            b.output(acc);
        }
        Arc::new(Compiled {
            circuit: b.finish(),
            weight_order: Vec::new(),
            format: Format::Q3_12,
        })
    }

    /// Setup plus one online run under taps: `(bytes, ops)`, each digest
    /// the garbling endpoint's chained into the evaluating endpoint's.
    fn transcript(
        compiled: &Arc<Compiled>,
        n_cycles: usize,
        cfg: &InferenceConfig,
        live: bool,
    ) -> (u64, u64) {
        let bits = |inputs: usize, period: usize| -> Vec<Vec<bool>> {
            let cycle = |k| (0..inputs).map(|i| (i + k) % period == 0).collect();
            (0..n_cycles).map(cycle).collect()
        };
        let g_bits = bits(compiled.circuit.garbler_inputs().len(), 3);
        let e_bits = bits(compiled.circuit.evaluator_inputs().len(), 2);
        let (cc, cs) = mem_pair();
        let tap = |inner| Tap {
            inner,
            bytes: FNV_OFFSET,
            ops: FNV_OFFSET,
        };
        let epoch = Instant::now();
        let server = ServerSession::new(Arc::clone(compiled), cfg);
        let handle = std::thread::spawn(move || {
            let mut cs = tap(cs);
            let mut setup = server.setup(&mut cs).unwrap();
            let out = server.run_online(&mut cs, &mut setup, &e_bits, epoch);
            out.map(|_| cs).unwrap()
        });
        let client = ClientSession::new(Arc::clone(compiled), cfg);
        let mut cc = tap(cc);
        let mut setup = client.setup(&mut cc, epoch).unwrap();
        let seed = 77;
        let source = if live {
            MaterialSource::Live { n_cycles, seed }
        } else {
            GarbledMaterial::garble(compiled, n_cycles, &mut StdRng::seed_from_u64(seed)).into()
        };
        let out = client.run_online(&mut cc, &mut setup, source, &g_bits, epoch);
        out.unwrap();
        let cs = handle.join().unwrap();
        (
            fnv1a(cc.bytes, &cs.bytes.to_le_bytes()),
            fnv1a(cc.ops, &cs.ops.to_le_bytes()),
        )
    }

    /// Where a buffer lives and how much it holds: reuse means neither
    /// moves from one query to the next.
    fn place(buf: &Vec<Block>) -> (usize, usize) {
        (buf.as_ptr() as usize, buf.capacity())
    }

    /// The input bits of query `q`, one party's `inputs` wires per cycle.
    fn query_bits(inputs: usize, n_cycles: usize, q: usize) -> Vec<Vec<bool>> {
        let cycle = |k: usize| (0..inputs).map(|i| (i + k + q).is_multiple_of(3)).collect();
        (0..n_cycles).map(cycle).collect()
    }

    /// What query `q` must decode to, cycle by cycle: the plaintext circuit.
    fn plain_labels(compiled: &Compiled, n_cycles: usize, q: usize) -> Vec<usize> {
        let c = &compiled.circuit;
        let g_bits = query_bits(c.garbler_inputs().len(), n_cycles, q);
        let e_bits = query_bits(c.evaluator_inputs().len(), n_cycles, q);
        let mut sim = deepsecure_circuit::Simulator::new(c);
        let cycles = g_bits.iter().zip(&e_bits);
        cycles
            .map(|(g, e)| compiled.decode_label(&sim.step(g, e)))
            .collect()
    }

    /// Queries `queries` (an index picks the inputs and the garbling seed)
    /// back to back on one connection and one setup pair: the decoded
    /// labels per query, then after each query the garbler's label array
    /// and the evaluator's label array and receive buffer.
    #[allow(clippy::type_complexity)]
    fn queries_on_one_setup(
        compiled: &Arc<Compiled>,
        n_cycles: usize,
        cfg: &InferenceConfig,
        live: bool,
        queries: std::ops::Range<usize>,
    ) -> (
        Vec<Vec<usize>>,
        Vec<(usize, usize)>,
        Vec<[(usize, usize); 2]>,
    ) {
        let bits = move |inputs, q| query_bits(inputs, n_cycles, q);
        let (mut cc, mut cs) = mem_pair();
        let epoch = Instant::now();
        let server = ServerSession::new(Arc::clone(compiled), cfg);
        let e_inputs = compiled.circuit.evaluator_inputs().len();
        let server_queries = queries.clone();
        let handle = std::thread::spawn(move || {
            let mut setup = server.setup(&mut cs).unwrap();
            assert_eq!(setup.resident_bytes(), 0, "a fresh setup holds nothing");
            server_queries
                .map(|q| {
                    server
                        .run_online(&mut cs, &mut setup, &bits(e_inputs, q), epoch)
                        .unwrap();
                    [place(&setup.labels), place(&setup.tables)]
                })
                .collect()
        });
        let client = ClientSession::new(Arc::clone(compiled), cfg);
        let mut setup = client.setup(&mut cc, epoch).unwrap();
        assert_eq!(setup.resident_bytes(), 0, "a fresh setup holds nothing");
        let mut labels = Vec::new();
        let mut garbler_side = Vec::new();
        for q in queries {
            let seed = 500 + q as u64;
            let source = if live {
                MaterialSource::Live { n_cycles, seed }
            } else {
                GarbledMaterial::garble(compiled, n_cycles, &mut StdRng::seed_from_u64(seed)).into()
            };
            let g_bits = bits(compiled.circuit.garbler_inputs().len(), q);
            let out = client
                .run_online(&mut cc, &mut setup, source, &g_bits, epoch)
                .unwrap();
            labels.push(out.cycle_labels);
            garbler_side.push(place(&setup.labels));
        }
        (labels, garbler_side, handle.join().unwrap())
    }

    #[test]
    fn setups_carry_their_buffers_from_query_to_query() {
        // Three queries on one setup pair: the first sizes the label arrays
        // and the receive buffer, the next two find them where they were —
        // and decode what the plaintext circuit computes.
        for (compiled, n_cycles) in [(mac_compiled(), 3), (and_grid_compiled(), 1)] {
            let c = &compiled.circuit;
            for (live, chunk_gates, threads) in [
                (true, 0, 1),
                (true, 64, 1),
                (true, 64, 4),
                (false, 0, 1),
                (false, 64, 1),
            ] {
                let cfg = InferenceConfig {
                    chunk_gates,
                    threads,
                    ..InferenceConfig::default()
                };
                let what = format!("live {live}, chunk {chunk_gates}, {threads} threads");
                let (labels, garbler_side, evaluator_side) =
                    queries_on_one_setup(&compiled, n_cycles, &cfg, live, 0..3);
                for (q, got) in labels.iter().enumerate() {
                    assert_eq!(
                        got,
                        &plain_labels(&compiled, n_cycles, q),
                        "query {q}, {what}"
                    );
                }
                let widest = match chunk_gates {
                    0 => c.nonfree_gate_count(),
                    n => n.min(c.nonfree_gate_count()),
                };
                let [e_labels, e_tables] = evaluator_side[0];
                assert!(e_labels.1 >= c.wire_count(), "{what}");
                assert!(e_tables.1 >= 2 * widest, "{what}");
                // Precomputed material was garbled elsewhere: the garbling
                // party's setup never grows an array of its own.
                let g_capacity = if live { c.wire_count() } else { 0 };
                assert!(garbler_side[0].1 >= g_capacity, "{what}");
                assert!(live || garbler_side[0].1 == 0, "{what}");
                for q in 1..3 {
                    assert_eq!(garbler_side[q], garbler_side[0], "query {q}, {what}");
                    assert_eq!(evaluator_side[q], evaluator_side[0], "query {q}, {what}");
                }
            }
        }
    }

    #[test]
    fn a_released_setup_simply_allocates_again() {
        // Reuse is a saving, never a correctness condition: a setup whose
        // array was released (the resume stash does this) — or dropped by
        // a run that failed after taking it — is a fresh setup again.
        let compiled = mac_compiled();
        let cfg = InferenceConfig {
            chunk_gates: 64,
            ..InferenceConfig::default()
        };
        let (want, _, _) = queries_on_one_setup(&compiled, 1, &cfg, true, 0..1);
        let g_bits = vec![(0..17).map(|i| i % 3 == 0).collect::<Vec<bool>>()];
        let e_bits = vec![(0..16).map(|i| i % 3 == 0).collect::<Vec<bool>>()];
        let (mut cc, mut cs) = mem_pair();
        let epoch = Instant::now();
        let server = ServerSession::new(Arc::clone(&compiled), &cfg);
        let handle = std::thread::spawn(move || {
            let mut setup = server.setup(&mut cs).unwrap();
            for _ in 0..2 {
                server
                    .run_online(&mut cs, &mut setup, &e_bits, epoch)
                    .unwrap();
            }
        });
        let client = ClientSession::new(Arc::clone(&compiled), &cfg);
        let mut setup = client.setup(&mut cc, epoch).unwrap();
        for q in 0..2 {
            let source = MaterialSource::Live {
                n_cycles: 1,
                seed: 500,
            };
            let out = client
                .run_online(&mut cc, &mut setup, source, &g_bits, epoch)
                .unwrap();
            assert_eq!(out.cycle_labels, want[0], "query {q}");
            assert!(setup.resident_bytes() >= 16 * compiled.circuit.wire_count() as u64);
            setup.release_buffers();
            assert_eq!(setup.resident_bytes(), 0);
        }
        handle.join().unwrap();
    }

    #[test]
    fn transcript_is_pinned_to_the_five_path_implementation() {
        // Byte order and `Channel` operation boundaries of both endpoints,
        // recorded from the commit before the cycle paths were merged into
        // one driver per party, and re-recorded once when the base OT
        // moved to Ristretto255 (the test below shows every other phase's
        // bytes did not move). The `mac` rows were re-recorded once more
        // when the exact multiplier became a Booth array (fewer tables,
        // same function); the `grid` rows did not move. Every row was
        // re-recorded once when the base OT became the two-flight random
        // OT, whose keys are the IKNP seeds, so the OT-extension bytes
        // moved with the base-OT ones. Neither the material source nor
        // the thread count may move a byte or an operation boundary.
        let (mac, grid) = (mac_compiled(), and_grid_compiled());
        for &(name, chunk_gates, bytes, ops) in &PINNED_TRANSCRIPTS {
            let (compiled, n_cycles) = if name == "mac" { (&mac, 3) } else { (&grid, 1) };
            for (threads, live) in [(1, false), (1, true), (4, false), (4, true)] {
                let cfg = InferenceConfig {
                    chunk_gates,
                    threads,
                    seed: 3,
                    ..InferenceConfig::default()
                };
                let got = transcript(compiled, n_cycles, &cfg, live);
                assert_eq!(got, (bytes, ops), "{name} {chunk_gates} {threads} {live}");
            }
        }
    }

    #[test]
    fn the_base_ot_group_moves_only_the_base_ot_bytes() {
        // Every other phase's bytes were recorded on the commit before the
        // base OT moved from the 768-bit MODP group (41 056 base-OT bytes)
        // to Ristretto255 (16 416 B), and hold still since it became the
        // two-flight random OT: A and 128 B_i, 32 + 128·32 = 4 128. The
        // `mac` tables are 3 cycles × 424 non-free gates × 32 B since the
        // exact multiplier became a Booth array.
        let (mac, grid) = (mac_compiled(), and_grid_compiled());
        for (name, compiled, n_cycles, ot_ext, tables, input_labels, output_bits) in [
            ("mac", &mac, 3, 2304, 40_704, 1104, 30),
            ("grid", &grid, 1, 544, 2304, 160, 9),
        ] {
            let want = WireBreakdown {
                base_ot: 4_128,
                ot_ext,
                tables,
                input_labels,
                output_bits,
            };
            for chunk_gates in [0, 1, 64, 99_999] {
                let cfg = InferenceConfig {
                    chunk_gates,
                    seed: 3,
                    ..InferenceConfig::default()
                };
                let bits = |inputs: usize, period: usize| -> Vec<Vec<bool>> {
                    let cycle = |k| (0..inputs).map(|i| (i + k) % period == 0).collect();
                    (0..n_cycles).map(cycle).collect()
                };
                let g_bits = bits(compiled.circuit.garbler_inputs().len(), 3);
                let e_bits = bits(compiled.circuit.evaluator_inputs().len(), 2);
                let (mut cc, mut cs) = mem_pair();
                let server = ServerSession::new(Arc::clone(compiled), &cfg);
                let handle = std::thread::spawn(move || server.run(&mut cs, &e_bits));
                let client = ClientSession::new(Arc::clone(compiled), &cfg);
                let cout = client.run(&mut cc, &g_bits).unwrap();
                let sout = handle.join().unwrap().unwrap();
                assert_eq!(cout.wire, want, "{name} chunk {chunk_gates}");
                assert_eq!(sout.wire, want, "{name} chunk {chunk_gates}");
            }
        }
    }

    /// `(circuit, chunk_gates, byte-stream digest, operation digest)`; the
    /// last chunk size of each circuit exceeds its non-free gate count.
    const PINNED_TRANSCRIPTS: [(&str, usize, u64, u64); 8] = [
        ("mac", 0, 0xcd53_f2e5_ab2a_780d, 0x4448_c290_ecad_6b4c),
        ("mac", 1, 0xda8a_5419_f905_e899, 0x4701_7e65_a200_25af),
        ("mac", 64, 0xda8a_5419_f905_e899, 0x4b96_a186_8ce6_5d05),
        ("mac", 99_999, 0xda8a_5419_f905_e899, 0x5a55_8cee_5965_3e9d),
        ("grid", 0, 0xbc05_0f18_9d2c_2bfc, 0x7eb6_c900_1792_1d6d),
        ("grid", 1, 0xaed2_9288_f488_fe9c, 0xd410_05c5_93b4_a84c),
        ("grid", 64, 0xaed2_9288_f488_fe9c, 0x1855_c070_84b3_a53f),
        ("grid", 99_999, 0xaed2_9288_f488_fe9c, 0x0ffc_36b8_1daf_e81a),
    ];
}
