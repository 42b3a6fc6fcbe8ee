//! A scrapeable Prometheus `/metrics` endpoint for a running [`Server`].
//!
//! A minimal `std::net` HTTP/1.1 responder — no routing framework, no
//! keep-alive, one short-lived connection per scrape — serving the text
//! exposition format (version 0.0.4) rendered by [`render`]. The document
//! combines three sources:
//!
//! * the server's one [`ServeStats`] snapshot (every family the shutdown
//!   summary also reduces — requests, sessions, latency histograms, wire
//!   bytes, pool hit/miss counters), each family declared once;
//! * live gauges read at scrape time: active sessions, open connections
//!   (what `--queue-cap` bounds), resume-stash and precompute-pool stock
//!   depths;
//! * the process-global per-phase wire-byte counters that the protocol
//!   sessions feed in `deepsecure_core::session::wire_metrics` — the
//!   `WireBreakdown` as a live metric family, covering setup traffic
//!   and in-flight requests that no per-request record has seen yet.
//!
//! [`Server`]: crate::server::Server
//! [`ServeStats`]: crate::stats::ServeStats

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use deepsecure_core::session::wire_metrics;
use telemetry::prom::PromWriter;

use crate::lock;
use crate::server::ServerHandle;

/// Renders the full exposition document for one scrape.
#[allow(clippy::cast_precision_loss)]
#[must_use]
pub fn render(handle: &ServerHandle) -> String {
    let mut w = PromWriter::new();
    handle.stats().write_prometheus(&mut w);
    w.family(
        "deepsecure_active_sessions",
        "gauge",
        "Sessions currently being served.",
    );
    w.sample(
        "deepsecure_active_sessions",
        &[],
        handle.active_sessions() as f64,
    );
    w.family(
        "deepsecure_accept_queue_depth",
        "gauge",
        "Open connections (handshakes included); --queue-cap bounds it.",
    );
    w.sample(
        "deepsecure_accept_queue_depth",
        &[],
        handle.open_connections() as f64,
    );
    w.family(
        "deepsecure_resume_stash_depth",
        "gauge",
        "Disconnected sessions whose OT-extension state is stashed awaiting RESUME.",
    );
    w.sample(
        "deepsecure_resume_stash_depth",
        &[],
        handle.resume_stash_depth() as f64,
    );
    let (base_depth, model_depths) = handle.pool_depths();
    w.family(
        "deepsecure_pool_depth",
        "gauge",
        "Precomputed items in stock (base-OT keypairs and per-model garbled material).",
    );
    w.sample(
        "deepsecure_pool_depth",
        &[("queue", "base")],
        base_depth as f64,
    );
    for (model, depth) in &model_depths {
        w.sample(
            "deepsecure_pool_depth",
            &[("queue", "material"), ("model", model)],
            *depth as f64,
        );
    }
    // Process-global phase counters fed by the protocol sessions
    // themselves: the live WireBreakdown, including setup traffic and
    // requests still in flight.
    w.family(
        "deepsecure_wire_bytes_total",
        "counter",
        "Protocol wire bytes by phase, both directions, process-wide.",
    );
    for (phase, bytes) in wire_metrics::phases() {
        w.sample(
            "deepsecure_wire_bytes_total",
            &[("phase", phase)],
            bytes as f64,
        );
    }
    w.family(
        "deepsecure_io_bytes_total",
        "counter",
        "Protocol channel bytes by direction, process-wide.",
    );
    for (direction, bytes) in [
        ("sent", wire_metrics::SENT.get()),
        ("received", wire_metrics::RECEIVED.get()),
    ] {
        w.sample(
            "deepsecure_io_bytes_total",
            &[("direction", direction)],
            bytes as f64,
        );
    }
    w.finish()
}

/// The background `/metrics` responder. Stops (and joins its accept
/// thread) on [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Binds `addr` (`HOST:PORT`; port 0 picks an ephemeral port) and
    /// starts answering `GET /metrics` scrapes against `handle`.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(addr: &str, handle: ServerHandle) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop_flag.load(Ordering::SeqCst) {
                            break; // the stop poke
                        }
                        // Scrapes are short-lived: serve inline; a slow
                        // scraper only delays the next scrape, and the
                        // timeout unwedges a silent one.
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                        serve_scrape(stream, &handle);
                    }
                    Err(_) => {
                        if stop_flag.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
        });
        Ok(MetricsServer {
            addr: local,
            stop,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the responder and joins its thread. Idempotent; also run by
    /// drop.
    pub fn stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = lock(&self.thread).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Answers one HTTP exchange: `GET /metrics` (or `GET /`) gets the
/// exposition document, anything else a 404. Errors just drop the
/// connection — the scraper retries on its own schedule.
fn serve_scrape(mut stream: TcpStream, handle: &ServerHandle) {
    let mut buf = [0u8; 1024];
    let mut len = 0usize;
    // Read until the end of the request head (or the buffer fills — more
    // than enough for any scraper's GET).
    while len < buf.len() {
        let Ok(n) = stream.read(&mut buf[len..]) else {
            return;
        };
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let response = if head.starts_with("GET ") && (path == "/metrics" || path == "/") {
        let body = render(handle);
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
