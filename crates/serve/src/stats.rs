//! Server-level aggregation of per-request reports.
//!
//! Every request's [`WireBreakdown`] and online latency, and every
//! session's setup cost, fold into one [`ServeStats`] — the serving
//! analogue of a single run's `InferenceReport`, summed across clients.
//! It is the server's only byte ledger: the sessions count their own
//! traffic, and nothing else in the process adds up wire bytes, so the
//! shutdown summary, the `/metrics` scrape and the clients' own reports
//! agree to the byte once the clients are done.
//!
//! Latencies are held as [`HistSnapshot`]s from the vendored `telemetry`
//! crate rather than scalar sums: the same snapshot that the shutdown
//! summary reduces to percentiles is what the `/metrics` endpoint renders
//! as a Prometheus histogram ([`ServeStats::write_prometheus`]), so the
//! report and the scrape read one accumulator.

use std::collections::BTreeMap;

use deepsecure_core::session::{ClientOutcome, WireBreakdown};
use telemetry::prom::PromWriter;
use telemetry::HistSnapshot;

use crate::pool::PoolStats;

/// Aggregated serving counters; snapshot via `Clone`.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Connections accepted (handshake attempted).
    pub sessions_opened: u64,
    /// Sessions that ended cleanly (client sent DONE).
    pub sessions_completed: u64,
    /// Sessions that ended in an error (bad handshake, disconnect, …).
    pub sessions_failed: u64,
    /// Sessions re-attached to stashed OT-extension state via a `RESUME`
    /// hello (each also counts in `sessions_opened`).
    pub sessions_resumed: u64,
    /// Sessions that died on an I/O timeout (idle client or blown
    /// per-phase deadline) — a subset of `sessions_failed`.
    pub sessions_timed_out: u64,
    /// Connections shed with a `BUSY` frame because `queue_cap`
    /// connections were already open.
    pub shed_queue_full: u64,
    /// Connections shed with a `BUSY` frame because the model's admission
    /// limit was reached.
    pub shed_model_limit: u64,
    /// Connections shed with a `BUSY` frame because an over-cap model
    /// missed the pool and live-garble capacity was saturated.
    pub shed_live_capacity: u64,
    /// Wire traffic of every completed setup and request, by protocol
    /// phase, both directions: `base_ot` sums the setups, the other
    /// fields the requests. A setup or request adds to it when it
    /// finishes, never while it runs.
    pub wire: WireBreakdown,
    /// Bytes the server sent over the same setups and requests.
    pub sent: u64,
    /// Bytes the server received over the same setups and requests
    /// (`sent + received == wire.total()`).
    pub received: u64,
    /// Per-request online-phase latency distribution, microseconds; its
    /// count is the number of requests served.
    pub online_us: HistSnapshot,
    /// Per-session setup latency distribution, microseconds; its count
    /// is the number of completed base-OT setups (sessions that die
    /// during the handshake never reach one).
    pub setup_us: HistSnapshot,
    /// High-water mark, across all requests, of garbled-table bytes one
    /// session held at once — O(cycle tables) when serving buffered,
    /// O(chunk) when streaming. The measured number behind the streaming
    /// pipeline's constant-memory claim, printed at shutdown.
    pub peak_material_bytes: u64,
    /// Requests per model.
    pub per_model: BTreeMap<String, u64>,
    /// Precompute-pool counters. The server's live accumulator leaves
    /// this at zero; the snapshots it reports and scrapes carry the
    /// pool's own counters here.
    pub pool: PoolStats,
}

const US_PER_S: f64 = 1e6;

impl ServeStats {
    /// A connection was accepted.
    pub fn open_session(&mut self) {
        self.sessions_opened += 1;
    }

    /// A session ended cleanly.
    pub fn complete_session(&mut self) {
        self.sessions_completed += 1;
    }

    /// A session ended in an error.
    pub fn fail_session(&mut self) {
        self.sessions_failed += 1;
    }

    /// A session re-attached to stashed OT-extension state.
    pub fn resume_session(&mut self) {
        self.sessions_resumed += 1;
    }

    /// A session died on an I/O timeout (also counts as failed).
    pub fn timeout_session(&mut self) {
        self.sessions_timed_out += 1;
        self.sessions_failed += 1;
    }

    /// Total connections shed with a `BUSY` frame, all reasons.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_model_limit + self.shed_live_capacity
    }

    /// Requests served across all sessions.
    pub fn requests(&self) -> u64 {
        self.online_us.count()
    }

    /// A session finished its base-OT setup, having sent and received
    /// the given bytes (a `ClientSetup`'s `sent` / `received`).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn record_setup(&mut self, setup_s: f64, sent: u64, received: u64) {
        self.setup_us.record((setup_s.max(0.0) * US_PER_S) as u64);
        self.wire.base_ot += sent + received;
        self.sent += sent;
        self.received += received;
    }

    /// A request finished its online phase with outcome `out`.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn record_request(&mut self, model: &str, online_s: f64, out: &ClientOutcome) {
        self.online_us.record((online_s.max(0.0) * US_PER_S) as u64);
        self.wire += out.wire;
        self.sent += out.sent;
        self.received += out.received;
        self.peak_material_bytes = self.peak_material_bytes.max(out.peak_material_bytes);
        *self.per_model.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Mean online latency per request, seconds (0 with no requests).
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_online_s(&self) -> f64 {
        self.online_us.mean() / US_PER_S
    }

    /// Mean setup latency per completed setup, seconds (sessions that die
    /// before setup don't dilute the mean).
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_setup_s(&self) -> f64 {
        self.setup_us.mean() / US_PER_S
    }

    /// An online-latency quantile in seconds (nearest-rank on the
    /// histogram's bucket bounds, so within the buckets' ≤12.5% width).
    #[allow(clippy::cast_precision_loss)]
    pub fn online_quantile_s(&self, q: f64) -> f64 {
        self.online_us.quantile(q) as f64 / US_PER_S
    }

    /// Human-readable multi-line summary (the server's shutdown report).
    pub fn summary(&self) -> String {
        let mut lines = vec![
            format!(
                "sessions     {} opened, {} completed, {} failed",
                self.sessions_opened, self.sessions_completed, self.sessions_failed
            ),
            format!(
                "resilience   {} resumed, {} timed out, shed {} \
                 (queue {}, model-limit {}, live-capacity {})",
                self.sessions_resumed,
                self.sessions_timed_out,
                self.sheds(),
                self.shed_queue_full,
                self.shed_model_limit,
                self.shed_live_capacity
            ),
            format!(
                "requests     {} total (mean online {:.3} s; mean session setup {:.3} s)",
                self.requests(),
                self.mean_online_s(),
                self.mean_setup_s()
            ),
            format!(
                "latency      online p50 {:.3} s  p95 {:.3} s  p99 {:.3} s",
                self.online_quantile_s(0.50),
                self.online_quantile_s(0.95),
                self.online_quantile_s(0.99),
            ),
            format!(
                "wire bytes   online: ot-ext {} | tables {} | input-labels {} | \
                 output-bits {} — setup: base-ot {}",
                self.wire.ot_ext,
                self.wire.tables,
                self.wire.input_labels,
                self.wire.output_bits,
                self.wire.base_ot
            ),
            format!(
                "io bytes     sent {} | received {} (setups and requests)",
                self.sent, self.received
            ),
            format!(
                "peak tables  {} B resident per session (max over requests)",
                self.peak_material_bytes
            ),
            format!(
                "pool         base {} hits / {} misses, material {} hits / {} misses, \
                 {} live takes, {} produced",
                self.pool.base_hits,
                self.pool.base_misses,
                self.pool.material_hits,
                self.pool.material_misses,
                self.pool.live_takes,
                self.pool.produced
            ),
        ];
        for (model, n) in &self.per_model {
            lines.push(format!("model        {model}: {n} requests"));
        }
        lines.join("\n")
    }

    /// Renders this accumulator's families into a Prometheus exposition
    /// document — the same snapshot the shutdown summary reduces, so the
    /// scrape and the final report can never disagree.
    #[allow(clippy::cast_precision_loss)]
    pub fn write_prometheus(&self, w: &mut PromWriter) {
        w.family(
            "deepsecure_sessions_total",
            "counter",
            "Sessions by terminal state.",
        );
        for (state, n) in [
            ("opened", self.sessions_opened),
            ("completed", self.sessions_completed),
            ("failed", self.sessions_failed),
        ] {
            w.sample("deepsecure_sessions_total", &[("state", state)], n as f64);
        }
        w.family(
            "deepsecure_sessions_resumed_total",
            "counter",
            "Sessions re-attached to stashed OT-extension state via RESUME.",
        );
        w.sample(
            "deepsecure_sessions_resumed_total",
            &[],
            self.sessions_resumed as f64,
        );
        w.family(
            "deepsecure_session_timeouts_total",
            "counter",
            "Sessions that died on an I/O timeout (subset of failed).",
        );
        w.sample(
            "deepsecure_session_timeouts_total",
            &[],
            self.sessions_timed_out as f64,
        );
        w.family(
            "deepsecure_shed_total",
            "counter",
            "Connections shed with a BUSY frame, by admission-control reason.",
        );
        for (reason, n) in [
            ("queue_full", self.shed_queue_full),
            ("model_limit", self.shed_model_limit),
            ("live_capacity", self.shed_live_capacity),
        ] {
            w.sample("deepsecure_shed_total", &[("reason", reason)], n as f64);
        }
        w.family(
            "deepsecure_requests_total",
            "counter",
            "Online inference requests served.",
        );
        w.sample("deepsecure_requests_total", &[], self.requests() as f64);
        w.family(
            "deepsecure_requests_by_model_total",
            "counter",
            "Online inference requests served, per hosted model.",
        );
        for (model, n) in &self.per_model {
            w.sample(
                "deepsecure_requests_by_model_total",
                &[("model", model)],
                *n as f64,
            );
        }
        w.family(
            "deepsecure_wire_bytes_total",
            "counter",
            "Protocol wire bytes of completed setups and requests, by phase, both directions.",
        );
        for (phase, n) in self.wire.phases() {
            w.sample("deepsecure_wire_bytes_total", &[("phase", phase)], n as f64);
        }
        w.family(
            "deepsecure_io_bytes_total",
            "counter",
            "Protocol wire bytes of completed setups and requests, by direction.",
        );
        for (direction, n) in [("sent", self.sent), ("received", self.received)] {
            w.sample(
                "deepsecure_io_bytes_total",
                &[("direction", direction)],
                n as f64,
            );
        }
        w.family(
            "deepsecure_peak_material_bytes",
            "gauge",
            "Most garbled-table bytes one session held at once.",
        );
        w.sample(
            "deepsecure_peak_material_bytes",
            &[],
            self.peak_material_bytes as f64,
        );
        w.family(
            "deepsecure_online_latency_seconds",
            "histogram",
            "Per-request online-phase latency.",
        );
        w.histogram(
            "deepsecure_online_latency_seconds",
            &[],
            &self.online_us,
            1.0 / US_PER_S,
        );
        w.family(
            "deepsecure_setup_latency_seconds",
            "histogram",
            "Per-session base-OT setup latency.",
        );
        w.histogram(
            "deepsecure_setup_latency_seconds",
            &[],
            &self.setup_us,
            1.0 / US_PER_S,
        );
        w.family(
            "deepsecure_pool_events_total",
            "counter",
            "Precompute-pool take outcomes and production.",
        );
        for (kind, n) in [
            ("base_hit", self.pool.base_hits),
            ("base_miss", self.pool.base_misses),
            ("material_hit", self.pool.material_hits),
            ("material_miss", self.pool.material_misses),
            ("live_take", self.pool.live_takes),
            ("produced", self.pool.produced),
        ] {
            w.sample("deepsecure_pool_events_total", &[("kind", kind)], n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request outcome that moved `wire`, split `sent`/rest by direction.
    fn outcome(wire: WireBreakdown, sent: u64, peak_material_bytes: u64) -> ClientOutcome {
        ClientOutcome {
            label: 0,
            cycle_labels: Vec::new(),
            sent,
            received: wire.total() - sent,
            wire,
            peak_material_bytes,
        }
    }

    #[test]
    fn aggregation_sums_requests_and_sessions() {
        let mut stats = ServeStats::default();
        stats.open_session();
        stats.record_setup(0.5, 400, 600);
        let wire = WireBreakdown {
            tables: 100,
            ot_ext: 10,
            ..WireBreakdown::default()
        };
        stats.record_request("tiny_mlp", 0.2, &outcome(wire, 70, 640));
        stats.record_request("tiny_mlp", 0.4, &outcome(wire, 70, 96));
        stats.record_request("mnist_mlp", 0.3, &outcome(wire, 70, 900));
        stats.complete_session();
        // A handshake-only failure must not dilute the setup mean.
        stats.open_session();
        stats.fail_session();
        assert!((stats.mean_setup_s() - 0.5).abs() < 0.05);
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.sessions_completed, 1);
        assert_eq!(stats.sessions_failed, 1);
        assert_eq!(stats.requests(), 3);
        assert_eq!(stats.wire.tables, 300);
        assert_eq!(stats.wire.ot_ext, 30);
        assert_eq!(stats.wire.base_ot, 1000, "setup bytes book to base_ot");
        assert_eq!([stats.sent, stats.received], [400 + 3 * 70, 600 + 3 * 40]);
        assert_eq!(stats.sent + stats.received, stats.wire.total());
        assert!((stats.mean_online_s() - 0.3).abs() < 1e-6);
        // Nearest-rank on log-scale buckets: within the bucket width.
        assert!((stats.online_quantile_s(0.5) - 0.3).abs() < 0.3 * 0.13);
        assert!((stats.online_quantile_s(0.99) - 0.4).abs() < 0.4 * 0.13);
        assert_eq!(stats.per_model["tiny_mlp"], 2);
        assert_eq!(stats.per_model["mnist_mlp"], 1);
        assert_eq!(
            stats.peak_material_bytes, 900,
            "peak is a max, not a sum, across requests"
        );
        // The pool's counters ride along in the snapshot the server reports.
        stats.pool.base_hits = 1;
        stats.pool.base_misses = 3;
        stats.pool.material_hits = 6;
        stats.pool.produced = 5;
        let text = stats.summary();
        assert!(text.contains("3 total"), "{text}");
        assert!(text.contains("resilience   0 resumed"), "{text}");
        assert!(text.contains("tiny_mlp: 2 requests"), "{text}");
        assert!(text.contains("mnist_mlp: 1 requests"), "{text}");
        assert!(text.contains("peak tables  900 B"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(
            text.contains("pool         base 1 hits / 3 misses"),
            "{text}"
        );
        assert!(text.contains("material 6 hits / 0 misses"), "{text}");
        assert!(text.contains("5 produced"), "{text}");
    }

    #[test]
    fn prometheus_rendering_matches_the_accumulator() {
        let mut stats = ServeStats::default();
        stats.open_session();
        stats.record_setup(0.5, 2064, 2064);
        let wire = WireBreakdown {
            base_ot: 0,
            ot_ext: 200,
            tables: 3000,
            input_labels: 40,
            output_bits: 5,
        };
        stats.record_request("tiny_mlp", 0.2, &outcome(wire, 3040, 64));
        stats.complete_session();
        stats.pool.base_hits = 1;
        let mut w = PromWriter::new();
        stats.write_prometheus(&mut w);
        let text = w.finish();
        for line in [
            "deepsecure_requests_total 1",
            "deepsecure_sessions_total{state=\"completed\"} 1",
            "deepsecure_requests_by_model_total{model=\"tiny_mlp\"} 1",
            "deepsecure_online_latency_seconds_count 1",
            "deepsecure_pool_events_total{kind=\"base_hit\"} 1",
            "deepsecure_wire_bytes_total{phase=\"base_ot\"} 4128",
            "deepsecure_wire_bytes_total{phase=\"ot_ext\"} 200",
            "deepsecure_wire_bytes_total{phase=\"tables\"} 3000",
            "deepsecure_wire_bytes_total{phase=\"input_labels\"} 40",
            "deepsecure_wire_bytes_total{phase=\"output_bits\"} 5",
            "deepsecure_io_bytes_total{direction=\"sent\"} 5104",
            "deepsecure_io_bytes_total{direction=\"received\"} 2269",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
        assert!(
            !text.contains("deepsecure_setup_bytes_total")
                && !text.contains("deepsecure_online_wire_bytes_total"),
            "the wire families are declared once:\n{text}"
        );
    }

    #[test]
    fn resilience_counters_merge_and_render() {
        let mut stats = ServeStats::default();
        stats.open_session();
        stats.resume_session();
        stats.open_session();
        stats.timeout_session();
        stats.shed_queue_full += 1;
        stats.shed_live_capacity += 2;
        stats.shed_model_limit += 3;
        assert_eq!(stats.sessions_resumed, 1);
        assert_eq!(stats.sessions_timed_out, 1);
        assert_eq!(stats.sessions_failed, 1, "a timeout is also a failure");
        assert_eq!(stats.sheds(), 6);
        let text = stats.summary();
        assert!(
            text.contains("resilience   1 resumed, 1 timed out, shed 6"),
            "{text}"
        );
        let mut w = PromWriter::new();
        stats.write_prometheus(&mut w);
        let doc = w.finish();
        assert!(doc.contains("deepsecure_sessions_resumed_total 1"), "{doc}");
        assert!(doc.contains("deepsecure_session_timeouts_total 1"), "{doc}");
        for (reason, n) in [("queue_full", 1), ("model_limit", 3), ("live_capacity", 2)] {
            let line = format!("deepsecure_shed_total{{reason=\"{reason}\"}} {n}");
            assert!(doc.contains(&line), "{line} missing from:\n{doc}");
        }
    }
}
