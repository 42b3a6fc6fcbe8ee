//! Concurrency end-to-end tests: N evaluator clients against one server
//! on loopback, every label checked against the in-memory replay, plus
//! fault tolerance for clients that die mid-handshake.

use std::io::Write;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use deepsecure_core::compile::plain_label;
use deepsecure_core::protocol::run_compiled;
use deepsecure_serve::client::{ClientModel, ClientOptions, QueryOutcome, ServeClient};
use deepsecure_serve::demo;
use deepsecure_serve::server::{ServeConfig, Server, ServerHandle};
use deepsecure_serve::stats::ServeStats;

fn start_server(pool_target: usize) -> (ServerHandle, thread::JoinHandle<ServeStats>) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target,
        seed: 11,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (handle, join)
}

#[test]
fn four_concurrent_clients_match_replays_and_reports_are_independent() {
    let (handle, join) = start_server(2);
    let addr = handle.local_addr().to_string();
    let model = Arc::new(ClientModel::load("tiny_mlp").expect("model"));
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 2;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|tid| {
            let model = Arc::clone(&model);
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client =
                    ServeClient::connect(&addr, &model, 500 + tid as u64, Duration::from_secs(10))
                        .expect("connect");
                let setup_bytes = client.setup_bytes();
                let sid = client.session_id;
                let outs: Vec<(usize, QueryOutcome)> = (0..REQUESTS)
                    .map(|q| {
                        let sample = (tid * REQUESTS + q) % model.demo.dataset.len();
                        (sample, client.query(sample).expect("query"))
                    })
                    .collect();
                client.finish().expect("finish");
                (sid, setup_bytes, outs)
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // One full in-memory protocol replay gives the wire-byte oracle (the
    // byte counts are sample-independent for a fixed circuit).
    let cfg = demo::inference_config();
    let replay = run_compiled(
        Arc::clone(&model.demo.compiled),
        vec![model
            .demo
            .compiled
            .input_bits(&model.demo.dataset.inputs[0])],
        vec![model.weight_bits.clone()],
        &cfg,
    )
    .expect("replay");

    let mut seen_sids = std::collections::HashSet::new();
    for (sid, setup_bytes, outs) in &results {
        assert!(seen_sids.insert(*sid), "session ids must be unique");
        // Every session pays the base OT exactly once, and it matches the
        // replay's base-OT bytes.
        assert_eq!(*setup_bytes, replay.wire.base_ot);
        for (sample, out) in outs {
            // Labels bit-identical to the in-memory path (which the
            // replay itself asserts against the plaintext oracle).
            let oracle = plain_label(
                &model.demo.compiled,
                &model.demo.net,
                &model.demo.dataset.inputs[*sample],
            );
            assert_eq!(out.label, oracle, "sample {sample} label diverged");
            // Per-request reports are independent and each covers its own
            // online phase exactly.
            assert_eq!(out.wire.base_ot, 0, "base OT must not leak into requests");
            assert_eq!(out.wire.ot_ext, replay.wire.ot_ext);
            assert_eq!(out.wire.tables, replay.wire.tables);
            assert_eq!(out.wire.input_labels, replay.wire.input_labels);
            assert_eq!(out.wire.output_bits, replay.wire.output_bits);
            assert!(out.online_s > 0.0);
        }
    }

    // Server-level aggregation saw it all.
    let pool = handle.pool_stats();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_opened, CLIENTS as u64);
    assert_eq!(stats.sessions_completed, CLIENTS as u64);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.requests(), (CLIENTS * REQUESTS) as u64);
    assert_eq!(stats.per_model["tiny_mlp"], (CLIENTS * REQUESTS) as u64);
    assert_eq!(
        stats.wire.tables,
        replay.wire.tables * (CLIENTS * REQUESTS) as u64
    );
    assert_eq!(stats.wire.base_ot, replay.wire.base_ot * CLIENTS as u64);
    assert_eq!(handle.active_sessions(), 0, "registry must drain");
    // The pool actually served: every take was either a hit or an inline
    // miss, and the worker produced stock.
    assert_eq!(pool.base_hits + pool.base_misses, CLIENTS as u64);
    assert_eq!(
        pool.material_hits + pool.material_misses,
        (CLIENTS * REQUESTS) as u64
    );
    assert!(pool.produced > 0, "the background worker never produced");
}

#[test]
fn chunk_streamed_serving_is_wire_identical_and_chunk_resident() {
    // A streaming server (chunked tables pinned in the OK frame): clients
    // adopt the chunk size, labels and per-phase online wire bytes stay
    // bit-identical to the buffered in-memory replay, and the evaluator's
    // peak resident material is one chunk instead of a whole cycle.
    const CHUNK: usize = 512;
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 1,
        seed: 17,
        chunk_gates: CHUNK,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let addr = handle.local_addr().to_string();

    let model = ClientModel::load("tiny_mlp").expect("model");
    let cfg = demo::inference_config();
    let replay = run_compiled(
        Arc::clone(&model.demo.compiled),
        vec![model
            .demo
            .compiled
            .input_bits(&model.demo.dataset.inputs[0])],
        vec![model.weight_bits.clone()],
        &cfg,
    )
    .expect("replay");

    let mut client =
        ServeClient::connect(&addr, &model, 41, Duration::from_secs(10)).expect("connect");
    assert_eq!(client.chunk_gates, CHUNK, "OK frame must pin the chunking");
    assert_eq!(client.setup_bytes(), replay.wire.base_ot);
    let out = client.query(0).expect("query");
    let oracle = plain_label(
        &model.demo.compiled,
        &model.demo.net,
        &model.demo.dataset.inputs[0],
    );
    assert_eq!(out.label, oracle);
    assert_eq!(out.label, replay.label);
    // Streaming reorders, never adds: per-phase bytes match the buffered
    // replay exactly.
    assert_eq!(out.wire.ot_ext, replay.wire.ot_ext);
    assert_eq!(out.wire.tables, replay.wire.tables);
    assert_eq!(out.wire.input_labels, replay.wire.input_labels);
    assert_eq!(out.wire.output_bits, replay.wire.output_bits);
    // O(chunk) resident on the evaluator: one chunk is 2 rows × 16 B per
    // non-free gate.
    assert_eq!(out.peak_material_bytes, (CHUNK * 32) as u64);
    assert!(
        out.peak_material_bytes * 10 < replay.wire.tables,
        "peak {} should be well under the cycle's {} table bytes",
        out.peak_material_bytes,
        replay.wire.tables
    );
    client.finish().expect("finish");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 1);
    // The garbler side pooled whole material (tiny model), so its peak is
    // the full cycle — the client side is where streaming pays off here.
    assert_eq!(stats.peak_material_bytes, replay.wire.tables);
}

#[test]
fn sharded_server_serves_concurrent_clients_and_merges_shard_stats() {
    // threads: 3 → three pool fill workers and 3-wide base-OT
    // fan-out in every session set-up. Results must be indistinguishable
    // from the sequential server's: same labels, same per-phase wire
    // bytes, and totals that cover every session.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 1,
        seed: 19,
        threads: 3,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let addr = handle.local_addr().to_string();
    let model = Arc::new(ClientModel::load("tiny_mlp").expect("model"));
    const CLIENTS: usize = 3;

    let cfg = demo::inference_config();
    let replay = run_compiled(
        Arc::clone(&model.demo.compiled),
        vec![model
            .demo
            .compiled
            .input_bits(&model.demo.dataset.inputs[0])],
        vec![model.weight_bits.clone()],
        &cfg,
    )
    .expect("replay");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|tid| {
            let model = Arc::clone(&model);
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client =
                    ServeClient::connect(&addr, &model, 900 + tid as u64, Duration::from_secs(10))
                        .expect("connect");
                let out = client.query(tid).expect("query");
                client.finish().expect("finish");
                (tid, out)
            })
        })
        .collect();
    for w in workers {
        let (tid, out) = w.join().unwrap();
        let oracle = plain_label(
            &model.demo.compiled,
            &model.demo.net,
            &model.demo.dataset.inputs[tid],
        );
        assert_eq!(out.label, oracle, "sample {tid} label diverged");
        assert_eq!(out.wire.tables, replay.wire.tables);
        assert_eq!(out.wire.ot_ext, replay.wire.ot_ext);
    }

    // Live stats reach the tally while the server still runs (the
    // clients' `finish()` can return before the handlers fold their
    // sessions in, so poll)…
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.stats().sessions_completed < CLIENTS as u64 && std::time::Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().sessions_completed, CLIENTS as u64);
    handle.shutdown();
    // …and the final totals cover every session.
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_opened, CLIENTS as u64);
    assert_eq!(stats.sessions_completed, CLIENTS as u64);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.requests(), CLIENTS as u64);
    assert_eq!(stats.per_model["tiny_mlp"], CLIENTS as u64);
    assert_eq!(stats.wire.tables, replay.wire.tables * CLIENTS as u64);
    assert_eq!(stats.wire.base_ot, replay.wire.base_ot * CLIENTS as u64);
    assert_eq!(handle.active_sessions(), 0, "registry must drain");
}

#[test]
fn sharded_max_sessions_auto_shutdown_counts_across_shards() {
    // max_sessions reads the one stats accumulator: two sessions against
    // a 2-thread server must shut the server down by themselves.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 1,
        seed: 29,
        threads: 2,
        max_sessions: Some(2),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let addr = handle.local_addr().to_string();
    let model = ClientModel::load("tiny_mlp").expect("model");
    for seed in [1u64, 2] {
        let mut client =
            ServeClient::connect(&addr, &model, seed, Duration::from_secs(10)).expect("connect");
        let _ = client.query(0).expect("query");
        client.finish().expect("finish");
    }
    // No handle.shutdown(): the session count alone must end the run.
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 2);
    assert_eq!(stats.requests(), 2);
}

#[test]
fn mid_handshake_disconnects_leave_the_server_serving_others() {
    let (handle, join) = start_server(1);
    let addr = handle.local_addr().to_string();

    // A client that sends half a frame header and hangs up…
    {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.write_all(&[0x03, 0x00]).expect("partial header");
    }
    // …and one that connects and says nothing at all.
    {
        let _ = std::net::TcpStream::connect(&addr).expect("connect");
    }
    // …and one that claims a ~1 GiB hello and sends nothing more: the
    // server must refuse the header outright, not allocate and await the
    // body until its idle timeout.
    {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.write_all(&0x3fff_ffffu32.to_le_bytes()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let timed_out = s.read(&mut [0u8; 64]).is_err_and(|e| {
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        });
        assert!(!timed_out, "oversized header left hanging");
    }
    // …and one that handshakes a model the server does not host (raw
    // frames: a 4-byte LE length prefix, as FramedChannel writes them).
    {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        let hello = deepsecure_serve::proto::hello("tiny_cnn", 0);
        s.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
        s.write_all(hello.as_bytes()).unwrap();
        let mut header = [0u8; 4];
        s.read_exact(&mut header).expect("reply header");
        let mut reply = vec![0u8; u32::from_le_bytes(header) as usize];
        s.read_exact(&mut reply).expect("reply body");
        let err = deepsecure_serve::proto::parse_reply(&reply).unwrap_err();
        assert!(err.contains("not hosted"), "{err}");
    }

    // A well-behaved client is still served correctly.
    let model = ClientModel::load("tiny_mlp").expect("model");
    let mut client =
        ServeClient::connect(&addr, &model, 2, Duration::from_secs(10)).expect("connect");
    let out = client.query(0).expect("query");
    let oracle = plain_label(
        &model.demo.compiled,
        &model.demo.net,
        &model.demo.dataset.inputs[0],
    );
    assert_eq!(out.label, oracle);
    client.finish().expect("finish");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 1);
    assert!(
        stats.sessions_failed >= 4,
        "expected the four broken sessions to be counted: {stats:?}"
    );
    assert_eq!(stats.requests(), 1);
}

/// Sends a well-formed `old`-version hello with a matching model and
/// fingerprint: the server must answer with one ERR frame naming `old`
/// and its own version and hang up — no base-OT element (nor any other
/// byte) follows the refusal.
fn assert_refused_before_any_base_ot_byte(old: &str) {
    use std::io::Read;
    let (handle, join) = start_server(1);
    let addr = handle.local_addr().to_string();
    let model = ClientModel::load("tiny_mlp").expect("model");
    let mut s = std::net::TcpStream::connect(&addr).expect("connect");
    let hello = format!("{old} tiny_mlp {:016x}", model.demo.fingerprint);
    s.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    s.write_all(hello.as_bytes()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut got = Vec::new();
    s.read_to_end(&mut got)
        .expect("the server closes after refusing");
    let len = u32::from_le_bytes(got[..4].try_into().unwrap()) as usize;
    assert_eq!(got.len(), 4 + len, "bytes followed the refusal");
    let err = deepsecure_serve::proto::parse_reply(&got[4..]).unwrap_err();
    assert!(err.contains(old) && err.contains("DSRV/4"), "{err}");
    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 0);
    assert_eq!(stats.requests(), 0);
}

#[test]
fn a_dsrv2_hello_is_refused_before_any_base_ot_byte() {
    // A client still on the 768-bit MODP base OT.
    assert_refused_before_any_base_ot_byte("DSRV/2");
}

#[test]
fn a_dsrv3_hello_is_refused_before_any_base_ot_byte() {
    // A client still on the three-flight Bellare–Micali base OT, which
    // would otherwise wait forever for a third flight.
    assert_refused_before_any_base_ot_byte("DSRV/3");
}

#[test]
fn abrupt_mid_query_disconnect_drains_the_registry_and_serving_continues() {
    // Regression: a client that dies mid-online-phase (no DONE, no
    // reconnect) must not leave its SessionRegistry entry behind — the
    // guard deregisters on the handler's error path, and the server keeps
    // serving fresh clients afterwards.
    let (handle, join) = start_server(1);
    let addr = handle.local_addr().to_string();
    let model = ClientModel::load("tiny_mlp").expect("model");

    {
        let mut client = ServeClient::connect_opts(
            &addr,
            &model,
            ClientOptions {
                seed: 3,
                max_retries: 0,
                ..ClientOptions::default()
            },
        )
        .expect("connect");
        assert_eq!(handle.active_sessions(), 1);
        // Kill the connection a few operations into the query; with no
        // retry budget the error surfaces and the client just dies.
        let drop_op = client.fault_channel_mut().ops() + 4;
        client.fault_channel_mut().set_drop_at(drop_op);
        client.query(0).expect_err("the injected drop must surface");
    } // client dropped here: the socket closes with the session mid-flight

    // The handler must notice the dead peer and deregister promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.active_sessions() != 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.active_sessions(), 0, "leaked registry entry");

    // A fresh client is still served correctly.
    let mut client =
        ServeClient::connect(&addr, &model, 4, Duration::from_secs(10)).expect("connect");
    let out = client.query(0).expect("query");
    let oracle = plain_label(
        &model.demo.compiled,
        &model.demo.net,
        &model.demo.dataset.inputs[0],
    );
    assert_eq!(out.label, oracle);
    client.finish().expect("finish");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.sessions_failed, 1);
}

#[test]
fn wedged_client_times_out_and_graceful_shutdown_still_drains() {
    // A client that connects and never speaks must not pin its handler
    // thread forever — the per-read idle timeout fails the session, so a
    // graceful shutdown (which drains in-flight sessions) completes.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 0,
        idle_timeout: Some(Duration::from_millis(400)),
        seed: 13,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let addr = handle.local_addr();

    // Hold the socket open, silently, past the idle timeout.
    let wedged = std::net::TcpStream::connect(addr).expect("connect");
    thread::sleep(Duration::from_millis(1500));
    assert_eq!(handle.active_sessions(), 0, "wedged session must be reaped");

    handle.shutdown();
    // Must return promptly instead of waiting on the wedged handler.
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_failed, 1);
    drop(wedged);
}
