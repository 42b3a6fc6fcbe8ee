//! Resilience end-to-end tests: scripted connection drops at distinct
//! protocol phases resumed with zero extra base-OT traffic, `BUSY`
//! shedding under admission limits, and accepted-latency stability at
//! 2× saturation.

use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use deepsecure_core::compile::plain_label;
use deepsecure_core::protocol::run_compiled;
use deepsecure_serve::client::{ClientModel, ClientOptions, ServeClient};
use deepsecure_serve::demo;
use deepsecure_serve::server::{ServeConfig, Server, ServerHandle};
use deepsecure_serve::stats::ServeStats;
use deepsecure_serve::ServeError;

/// The saturation test compares wall-clock latencies, so it takes this
/// exclusively and has the cores to itself; the other tests share it.
/// (Sharing two cores with three protocol tests put its loaded latency at
/// 2.5× the unloaded one in 1 of 20 suite runs with nothing shed wrongly.)
static QUIET: RwLock<()> = RwLock::new(());

fn start_server(config: ServeConfig) -> (ServerHandle, thread::JoinHandle<ServeStats>) {
    let server = Server::bind(&config).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (handle, join)
}

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec!["tiny_mlp".to_string()],
        pool_target: 2,
        seed: 23,
        ..ServeConfig::default()
    }
}

/// The in-memory replay: label oracle cross-check and the base-OT
/// wire-byte denominator for the zero-extra-setup assertions.
fn replay(model: &ClientModel) -> deepsecure_core::protocol::InferenceReport {
    run_compiled(
        Arc::clone(&model.demo.compiled),
        vec![model
            .demo
            .compiled
            .input_bits(&model.demo.dataset.inputs[0])],
        vec![model.weight_bits.clone()],
        &demo::inference_config(),
    )
    .expect("replay")
}

#[test]
fn scripted_drops_at_three_phases_resume_with_zero_extra_base_ot() {
    let _shared = QUIET.read().unwrap_or_else(|p| p.into_inner());
    // The tentpole acceptance test: kill the connection at three distinct
    // protocol phases — request dispatch (the sample-index send), table
    // transfer (the bulk recv), and output decode (the final label recv).
    // Each time the client must reconnect, RESUME its OT-extension state
    // (same session ID, zero additional base-OT wire bytes), and decode
    // the bit-identical label.
    let (handle, join) = start_server(base_config());
    let addr = handle.local_addr().to_string();
    let model = ClientModel::load("tiny_mlp").expect("model");
    let rep = replay(&model);

    // (offset into the query's operation stream, phase being killed)
    // 0 = the sample-index send; 4 = the garbled-table recv (after
    // consts + initial registers); measured-1 = the final label recv.
    // All three sit at OT-extension batch boundaries, so the state is
    // resumable — a drop *inside* the extension batch falls back to a
    // fresh setup instead (covered by the loadgen chaos path).
    let phases: [(Option<u64>, &str); 3] = [
        (Some(0), "request dispatch"),
        (Some(4), "table transfer"),
        (None, "output decode"), // resolved to D-1 after calibration
    ];
    for (offset, phase) in phases {
        let mut client = ServeClient::connect_opts(
            &addr,
            &model,
            ClientOptions {
                seed: 7,
                ..ClientOptions::default()
            },
        )
        .expect("connect");
        let sid = client.session_id;
        assert_eq!(client.total_setup_bytes(), rep.wire.base_ot);

        // Calibrate: one clean query measures the per-query operation
        // count D (deterministic for a fixed model + chunking).
        let ops_before = client.fault_channel_mut().ops();
        let clean = client.query(0).expect("calibration query");
        assert_eq!(
            clean.label,
            plain_label(
                &model.demo.compiled,
                &model.demo.net,
                &model.demo.dataset.inputs[0]
            )
        );
        let ops_after = client.fault_channel_mut().ops();
        let per_query = ops_after - ops_before;
        assert!(per_query > 8, "unexpectedly few channel ops per query");
        let drop_op = ops_after + offset.unwrap_or(per_query - 1);

        client.fault_channel_mut().set_drop_at(drop_op);
        let out = client.query(1).expect("query across the drop");
        let oracle = plain_label(
            &model.demo.compiled,
            &model.demo.net,
            &model.demo.dataset.inputs[1],
        );
        assert_eq!(out.label, oracle, "label diverged after {phase} drop");
        assert_eq!(client.retries, 1, "{phase}: expected exactly one retry");
        assert_eq!(client.resumes, 1, "{phase}: the reconnect must RESUME");
        assert_eq!(
            client.fresh_reconnects, 0,
            "{phase}: no fresh setup allowed"
        );
        assert_eq!(
            client.session_id, sid,
            "{phase}: the OK frame must echo the resumed session ID"
        );
        // The acceptance bar: zero additional base-OT wire bytes across
        // the whole drop-and-resume episode.
        assert_eq!(
            client.total_setup_bytes(),
            rep.wire.base_ot,
            "{phase}: resume must move zero extra base-OT bytes"
        );
        client.finish().expect("finish");
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_resumed, 3);
    // Each drop failed one connection; each resume completed one. The
    // books always balance: opened == completed + failed.
    assert_eq!(
        stats.sessions_opened,
        stats.sessions_completed + stats.sessions_failed
    );
    assert_eq!(stats.sessions_completed, 3);
    assert_eq!(handle.active_sessions(), 0, "registry must drain");
    assert_eq!(handle.resume_stash_depth(), 0, "stash must be consumed");
}

#[test]
fn model_session_cap_sheds_with_busy_and_clients_back_off() {
    let _shared = QUIET.read().unwrap_or_else(|p| p.into_inner());
    let (handle, join) = start_server(ServeConfig {
        model_session_cap: Some(1),
        retry_after_ms: 25,
        ..base_config()
    });
    let addr = handle.local_addr().to_string();
    let model = Arc::new(ClientModel::load("tiny_mlp").expect("model"));

    // First client occupies the model's only session slot.
    let mut first =
        ServeClient::connect(&addr, &model, 31, Duration::from_secs(10)).expect("connect");

    // An impatient client (no busy retries) is shed immediately with the
    // server's advertised backoff hint.
    let err = ServeClient::connect_opts(
        &addr,
        &model,
        ClientOptions {
            seed: 32,
            busy_attempt_cap: 0,
            ..ClientOptions::default()
        },
    )
    .expect_err("must be shed");
    match err {
        ServeError::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 25),
        other => panic!("expected Busy, got {other}"),
    }

    // A patient client backs off on BUSY and gets in once the slot frees.
    let patient = {
        let addr = addr.clone();
        let model = Arc::clone(&model);
        thread::spawn(move || {
            // A generous attempt budget: the slot stays held for the
            // whole of the first client's query, however slow the box.
            let mut c = ServeClient::connect_opts(
                &addr,
                &model,
                ClientOptions {
                    seed: 33,
                    busy_attempt_cap: 10_000,
                    ..ClientOptions::default()
                },
            )
            .expect("patient connect");
            let out = c.query(0).expect("patient query");
            let backoffs = c.busy_backoffs;
            c.finish().expect("finish");
            (out.label, backoffs)
        })
    };
    // Hold the slot long enough that the patient client provably eats at
    // least one BUSY, then release it.
    thread::sleep(Duration::from_millis(60));
    let out = first.query(0).expect("first query");
    first.finish().expect("finish");
    let (patient_label, patient_backoffs) = patient.join().unwrap();
    assert_eq!(patient_label, out.label);
    assert!(
        patient_backoffs >= 1,
        "the patient client should have been shed at least once while the slot was held"
    );

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.sessions_completed, 2);
    assert_eq!(stats.sessions_failed, 0);
    // Sheds are their own books — never opened, never failed.
    assert!(stats.shed_model_limit >= 2, "stats: {stats:?}");
    assert_eq!(stats.sheds(), stats.shed_model_limit);
    assert_eq!(
        stats.sessions_opened,
        stats.sessions_completed + stats.sessions_failed
    );
}

#[test]
fn queue_cap_sheds_the_connection_past_the_open_handlers() {
    let _shared = QUIET.read().unwrap_or_else(|p| p.into_inner());
    let (handle, join) = start_server(ServeConfig {
        queue_cap: 1,
        retry_after_ms: 25,
        ..base_config()
    });
    let addr = handle.local_addr().to_string();
    let model = ClientModel::load("tiny_mlp").expect("model");

    // A connection that never says hello holds the only handler slot.
    let silent = std::net::TcpStream::connect(&addr).expect("connect");
    let t = Instant::now();
    while handle.open_connections() == 0 && t.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.open_connections(), 1);

    // The next arrival is shed at accept time, before any handshake.
    let err = ServeClient::connect_opts(
        &addr,
        &model,
        ClientOptions {
            seed: 34,
            busy_attempt_cap: 0,
            ..ClientOptions::default()
        },
    )
    .expect_err("must be shed");
    match err {
        ServeError::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 25),
        other => panic!("expected Busy, got {other}"),
    }

    // Hanging up frees the slot for the next client once its handler
    // has seen the disconnect.
    drop(silent);
    let t = Instant::now();
    while handle.open_connections() > 0 && t.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(5));
    }
    let mut client =
        ServeClient::connect(&addr, &model, 35, Duration::from_secs(10)).expect("connect");
    client.query(0).expect("query");
    client.finish().expect("finish");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.shed_queue_full, 1, "stats: {stats:?}");
    assert_eq!(stats.sheds(), 1);
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(handle.open_connections(), 0);
}

#[test]
fn a_dead_server_fails_the_connect_within_one_budget() {
    let _shared = QUIET.read().unwrap_or_else(|p| p.into_inner());
    let model = ClientModel::load("tiny_mlp").expect("model");
    // Reserve a port and free it: nothing listens there.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("probe")
        .to_string();
    let t = Instant::now();
    let err = ServeClient::connect_opts(
        &addr,
        &model,
        ClientOptions {
            connect_timeout: Duration::from_millis(100),
            ..ClientOptions::default()
        },
    )
    .expect_err("nothing listens");
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "gave up after {:.2} s: {err}",
        t.elapsed().as_secs_f64()
    );
}

#[test]
fn saturation_sheds_busy_and_keeps_accepted_latency_stable() {
    let _alone = QUIET.write().unwrap_or_else(|p| p.into_inner());
    // Drive the server at well over its admission capacity: excess
    // arrivals must shed with BUSY (not queue into unbounded latency),
    // every arrival must be accounted for, and the accepted requests'
    // worst latency must stay within 25% (at least 100 ms) of the unloaded
    // worst case.
    // pool_target 0: every request garbles live, so the unloaded baseline
    // and the loaded burst measure the same work — with a pool, whether a
    // query hits pre-garbled stock dominates the latency and drowns the
    // signal this test is after.
    let (handle, join) = start_server(ServeConfig {
        model_session_cap: Some(1),
        retry_after_ms: 10,
        pool_target: 0,
        ..base_config()
    });
    let addr = handle.local_addr().to_string();
    let model = Arc::new(ClientModel::load("tiny_mlp").expect("model"));

    // Unloaded baseline, measured with the same session shape as the
    // burst arrivals below (one-shot connect → query → finish, so both
    // sides pay identical per-session first-query costs): one warmup
    // session, then the worst case over three measured ones.
    let mut unloaded_worst = 0.0f64;
    for seed in 0..4u64 {
        let mut c = ServeClient::connect(&addr, &model, 61 + seed, Duration::from_secs(10))
            .expect("baseline connect");
        let online_s = c.query(seed as usize).expect("baseline query").online_s;
        c.finish().expect("finish");
        if seed > 0 {
            unloaded_worst = unloaded_worst.max(online_s);
        }
    }

    // `finish()` does not wait for the server's handler to tear down, and
    // the burst's hellos land within a millisecond of it: let the last
    // baseline session leave the registry first, or its slot can shed all
    // six arrivals and the burst starves.
    let drained = std::time::Instant::now();
    while handle.active_sessions() > 0 && drained.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }

    // 2× saturation: with one admission slot, a burst of 6 one-shot
    // arrivals is far past capacity. Impatient arrivals (busy cap 0)
    // make every shed observable.
    const BURST: usize = 6;
    let workers: Vec<_> = (0..BURST)
        .map(|tid| {
            let addr = addr.clone();
            let model = Arc::clone(&model);
            thread::spawn(move || {
                let opts = ClientOptions {
                    seed: 70 + tid as u64,
                    busy_attempt_cap: 0,
                    ..ClientOptions::default()
                };
                let mut c = match ServeClient::connect_opts(&addr, &model, opts) {
                    Ok(c) => c,
                    Err(ServeError::Busy { .. }) => return Ok(None),
                    Err(e) => return Err(format!("arrival {tid}: {e}")),
                };
                let out = c.query(tid).map_err(|e| format!("arrival {tid}: {e}"))?;
                c.finish().map_err(|e| format!("arrival {tid}: {e}"))?;
                Ok(Some(out.online_s))
            })
        })
        .collect();
    let mut completed = Vec::new();
    let mut shed = 0usize;
    for w in workers {
        match w.join().unwrap() {
            Ok(Some(online_s)) => completed.push(online_s),
            Ok(None) => shed += 1,
            Err(e) => panic!("{e}"),
        }
    }

    // No silent drops: every arrival either completed or was shed.
    assert_eq!(completed.len() + shed, BURST);
    assert!(shed >= 1, "an over-capacity burst must shed");
    assert!(!completed.is_empty(), "the burst must not starve entirely");
    let accepted_worst = completed.iter().fold(0.0f64, |acc, &s| acc.max(s));
    // 25 % of the unloaded worst case, but never under 100 ms: the five
    // shed arrivals still cost connects and handshakes on the same cores,
    // and once a query takes 0.15 s a bare 25 % is 40 ms of scheduler
    // noise on a 2-vCPU host. Sessions that were admitted side by side
    // instead of shed would each take a multiple of the unloaded time,
    // well past either bound.
    let slack = (unloaded_worst * 0.25).max(0.100);
    assert!(
        accepted_worst <= unloaded_worst + slack,
        "accepted worst-case online latency {accepted_worst:.3}s blew past \
         the unloaded worst case {unloaded_worst:.3}s + {slack:.3}s — \
         shedding failed to protect admitted sessions"
    );

    handle.shutdown();
    let stats = join.join().unwrap();
    // At least every client-observed shed is on the server's books. (The
    // server may count more: finish() does not wait for handler teardown,
    // so a back-to-back baseline connect can be shed and transparently
    // retried without the client-side counter ever seeing it.)
    assert!(
        stats.sheds() >= shed as u64,
        "server books {} < client-observed sheds {shed}",
        stats.sheds()
    );
    assert_eq!(
        stats.sessions_opened,
        stats.sessions_completed + stats.sessions_failed
    );
    assert_eq!(stats.sessions_completed as usize, 4 + completed.len());
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // A connection fault anywhere after the last streamed table
        // chunk (the output-bits sends and the label receive) always
        // yields the correct label on retry: the resumed session
        // re-issues the query against fresh material, never splitting
        // one garbling across two attempts.
        #[test]
        fn fault_after_last_table_chunk_yields_correct_label_on_retry(
            ops_from_end in 1u64..=3,
            sample in 0usize..4,
        ) {
            let _shared = QUIET.read().unwrap_or_else(|p| p.into_inner());
            let (handle, join) = start_server(ServeConfig {
                chunk_gates: 2048,
                ..base_config()
            });
            let addr = handle.local_addr().to_string();
            let model = ClientModel::load("tiny_mlp").expect("model");
            let mut client = ServeClient::connect_opts(
                &addr,
                &model,
                ClientOptions { seed: 5, ..ClientOptions::default() },
            )
            .expect("connect");

            // Calibrate the per-query op count on a clean query.
            let ops_before = client.fault_channel_mut().ops();
            client.query(0).expect("calibration query");
            let per_query = client.fault_channel_mut().ops() - ops_before;
            prop_assert!(per_query > 4);

            // The last 3 operations of a query sit after the final table
            // chunk: the two output-bits sends and the label receive.
            let drop_op = client.fault_channel_mut().ops() + per_query - ops_from_end;
            client.fault_channel_mut().set_drop_at(drop_op);
            let out = client.query(sample).expect("query across the fault");
            let oracle = plain_label(
                &model.demo.compiled,
                &model.demo.net,
                &model.demo.dataset.inputs[sample],
            );
            prop_assert_eq!(out.label, oracle);
            prop_assert_eq!(client.retries, 1);
            prop_assert_eq!(client.resumes + client.fresh_reconnects, 1);
            client.finish().expect("finish");
            handle.shutdown();
            let stats = join.join().unwrap();
            prop_assert_eq!(
                stats.sessions_opened,
                stats.sessions_completed + stats.sessions_failed
            );
        }
    }
}
