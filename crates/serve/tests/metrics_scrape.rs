//! Scrapes the Prometheus endpoint while a multi-threaded server is
//! serving: the exposition text must parse, declare every advertised
//! family exactly once, and — once the clients are done — report exactly
//! the request/session counts and the per-phase wire bytes the clients
//! observed on their side of the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use deepsecure_core::session::WireBreakdown;
use deepsecure_serve::client::{ClientModel, ServeClient};
use deepsecure_serve::metrics::MetricsServer;
use deepsecure_serve::server::{ServeConfig, Server};

/// Minimal HTTP/1.0 GET: one request line, read to EOF, split off the
/// header block. Returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("writing request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reading response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response must have a header block");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Asserts the text format's one-`TYPE`-line-per-metric-name rule.
fn assert_families_declared_once(body: &str) {
    let mut seen = std::collections::HashSet::new();
    for name in body.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let name = name.split_whitespace().next().unwrap_or_default();
        assert!(seen.insert(name), "# TYPE {name} declared twice:\n{body}");
    }
    assert!(!seen.is_empty(), "no # TYPE lines:\n{body}");
}

/// Value of an unlabeled sample line, e.g. `deepsecure_requests_total 6`.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn scraping_a_sharded_server_matches_the_clients_view() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 1,
        seed: 23,
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let metrics = MetricsServer::start("127.0.0.1:0", server.handle()).expect("metrics bind");
    let metrics_addr = metrics.local_addr().to_string();
    let join = thread::spawn(move || server.run());
    let addr = handle.local_addr().to_string();

    let model = Arc::new(ClientModel::load("tiny_mlp").expect("model"));
    const CLIENTS: usize = 3;
    const REQUESTS: usize = 2;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|tid| {
            let model = Arc::clone(&model);
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client =
                    ServeClient::connect(&addr, &model, 300 + tid as u64, Duration::from_secs(10))
                        .expect("connect");
                // The client's own tally: its setup, then every request.
                let mut wire = WireBreakdown {
                    base_ot: client.setup_bytes(),
                    ..WireBreakdown::default()
                };
                for q in 0..REQUESTS {
                    wire += client
                        .query(q % model.demo.dataset.len())
                        .expect("query")
                        .wire;
                }
                client.finish().expect("finish");
                wire
            })
        })
        .collect();

    // Mid-run scrape: the endpoint must answer while sessions are live,
    // with every family the flag's documentation advertises present.
    let (status, body) = http_get(&metrics_addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK", "mid-run scrape failed");
    for family in [
        "deepsecure_requests_total",
        "deepsecure_sessions_total",
        "deepsecure_online_latency_seconds_bucket",
        "deepsecure_setup_latency_seconds_bucket",
        "deepsecure_pool_events_total",
        "deepsecure_pool_depth",
        "deepsecure_active_sessions",
        "deepsecure_accept_queue_depth",
        "deepsecure_wire_bytes_total",
        "deepsecure_io_bytes_total",
    ] {
        assert!(
            body.contains(family),
            "mid-run exposition misses {family}:\n{body}"
        );
    }
    assert_families_declared_once(&body);

    let mut clients_wire = WireBreakdown::default();
    for w in workers {
        clients_wire += w.join().expect("client thread");
    }

    // Settled scrape: the counters must equal the client-side
    // tally exactly — every request the clients made, no more, no less.
    // The clients' `finish()` returns before the server's handler folds
    // the session into its accumulator, so poll until the counters catch
    // up (they can only ever reach the exact tally, never pass it).
    let requests = (CLIENTS * REQUESTS) as f64;
    let mut scrape = http_get(&metrics_addr, "/metrics");
    for _ in 0..100 {
        if sample(&scrape.1, "deepsecure_requests_total") == Some(requests)
            && sample(&scrape.1, "deepsecure_sessions_total{state=\"completed\"}")
                == Some(CLIENTS as f64)
            && sample(&scrape.1, "deepsecure_active_sessions") == Some(0.0)
            && sample(&scrape.1, "deepsecure_accept_queue_depth") == Some(0.0)
        {
            break;
        }
        thread::sleep(Duration::from_millis(100));
        scrape = http_get(&metrics_addr, "/metrics");
    }
    let (status, body) = scrape;
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_families_declared_once(&body);
    assert_eq!(
        sample(&body, "deepsecure_requests_total"),
        Some(requests),
        "server-side request count diverges from the clients':\n{body}"
    );
    assert_eq!(
        sample(
            &body,
            "deepsecure_requests_by_model_total{model=\"tiny_mlp\"}"
        ),
        Some(requests)
    );
    assert_eq!(
        sample(&body, "deepsecure_sessions_total{state=\"completed\"}"),
        Some(CLIENTS as f64)
    );
    assert_eq!(
        sample(&body, "deepsecure_sessions_total{state=\"failed\"}"),
        Some(0.0)
    );
    assert_eq!(sample(&body, "deepsecure_active_sessions"), Some(0.0));
    assert_eq!(sample(&body, "deepsecure_accept_queue_depth"), Some(0.0));
    // The latency histogram saw one observation per request, and its
    // +Inf bucket agrees with the count.
    assert_eq!(
        sample(&body, "deepsecure_online_latency_seconds_count"),
        Some(requests)
    );
    assert_eq!(
        sample(
            &body,
            "deepsecure_online_latency_seconds_bucket{le=\"+Inf\"}"
        ),
        Some(requests)
    );
    // Every phase's wire bytes equal the clients' own tally to the byte,
    // and the two directions add up to the same total.
    for (phase, bytes) in clients_wire.phases() {
        assert_eq!(
            sample(
                &body,
                &format!("deepsecure_wire_bytes_total{{phase=\"{phase}\"}}")
            ),
            Some(bytes as f64),
            "{phase} bytes diverge from the clients' tally:\n{body}"
        );
    }
    assert!(clients_wire.tables > 0, "no table bytes moved");
    let io = |direction: &str| {
        sample(
            &body,
            &format!("deepsecure_io_bytes_total{{direction=\"{direction}\"}}"),
        )
        .expect("io family")
    };
    assert_eq!(io("sent") + io("received"), clients_wire.total() as f64);

    // Unknown paths 404; the endpoint stays up until stopped.
    let (status, _) = http_get(&metrics_addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    handle.shutdown();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.requests(), CLIENTS as u64 * REQUESTS as u64);
    assert_eq!(
        stats.wire, clients_wire,
        "the returned stats are the scrape's"
    );
    metrics.stop();
    // Stopped endpoint refuses further scrapes.
    assert!(
        TcpStream::connect(&metrics_addr).is_err() || {
            // The OS may still accept briefly; a scrape must at least fail.
            let mut s = TcpStream::connect(&metrics_addr).expect("reconnect");
            let _ = write!(s, "GET /metrics HTTP/1.0\r\n\r\n");
            let mut out = String::new();
            s.set_read_timeout(Some(Duration::from_secs(2))).ok();
            s.read_to_string(&mut out)
                .map(|_| out.is_empty())
                .unwrap_or(true)
        }
    );
}
