//! End-to-end daemon tests over real loopback TCP: protocol behavior,
//! kill-and-restore determinism, and the load-generator harness.

use haste_distributed::{replay_trace, OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::{loadgen, serve, Client, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small deployment: chargers only; tasks arrive over the wire.
fn base_scenario(seed: u64, chargers: usize, slots: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let chargers = (0..chargers)
        .map(|i| {
            Charger::new(
                i as u32,
                Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
            )
        })
        .collect();
    Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, slots),
        chargers,
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .unwrap()
}

/// A deterministic stream of submissions: `(slot, spec)` sorted by slot.
fn submission_trace(seed: u64, count: usize, slots: usize) -> Vec<(usize, TaskSpec)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace: Vec<(usize, TaskSpec)> = (0..count)
        .map(|_| {
            let slot = rng.gen_range(0..slots);
            let duration = rng.gen_range(2..=6usize);
            (
                slot,
                TaskSpec {
                    device_pos: Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
                    device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    end_slot: (slot + duration).min(slots),
                    required_energy: rng.gen_range(500.0..2500.0),
                    weight: 1.0,
                },
            )
        })
        .collect();
    trace.sort_by_key(|(slot, _)| *slot);
    trace
}

/// Drives a full session: submit each spec in its slot, tick through the
/// grid, return (schedule text, utility fields).
fn drive(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    slots: usize,
    from_slot: usize,
) -> (String, f64, f64) {
    let mut next = trace.partition_point(|(slot, _)| *slot < from_slot);
    for slot in from_slot..slots {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
    assert_eq!(next, trace.len());
    let schedule = client.snapshot().unwrap(); // full state, includes schedule
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed)
}

#[test]
fn daemon_session_is_deterministic_across_kill_and_restore() {
    let scenario = base_scenario(42, 5, 12);
    let trace = submission_trace(43, 30, 12);

    // Run A: one daemon, uninterrupted.
    let server_a = serve(ServerConfig::default()).unwrap();
    let mut client_a = Client::connect(server_a.addr()).unwrap();
    client_a.load(&scenario).unwrap();
    let (snap_a, utility_a, relaxed_a) = drive(&mut client_a, &trace, 12, 0);
    client_a.bye().unwrap();
    server_a.shutdown();

    // Run B: daemon killed mid-run, state carried over via SNAPSHOT into a
    // fresh daemon, session continues with the identical remaining trace.
    let server_b1 = serve(ServerConfig::default()).unwrap();
    let mut client_b = Client::connect(server_b1.addr()).unwrap();
    client_b.load(&scenario).unwrap();
    let mut next = 0;
    for slot in 0..6 {
        while next < trace.len() && trace[next].0 == slot {
            client_b.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client_b.tick(1).unwrap();
    }
    let mid_snapshot = client_b.snapshot().unwrap();
    drop(client_b);
    server_b1.shutdown(); // kill

    let server_b2 = serve(ServerConfig::default()).unwrap();
    let mut client_b2 = Client::connect(server_b2.addr()).unwrap();
    let restored_clock = client_b2.restore(&mid_snapshot).unwrap();
    assert_eq!(restored_clock, 6);
    let (snap_b, utility_b, relaxed_b) = drive(&mut client_b2, &trace, 12, 6);
    client_b2.bye().unwrap();
    server_b2.shutdown();

    // Bit-identical final state: full snapshots (schedule, counters,
    // negotiation statistics) and utilities agree exactly.
    assert_eq!(snap_a, snap_b);
    assert_eq!(utility_a.to_bits(), utility_b.to_bits());
    assert_eq!(relaxed_a.to_bits(), relaxed_b.to_bits());
}

#[test]
fn daemon_streamed_session_matches_batch_replay() {
    let scenario = base_scenario(7, 4, 10);
    let trace = submission_trace(8, 20, 10);
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (final_snapshot, utility, _relaxed) = drive(&mut client, &trace, 10, 0);
    client.bye().unwrap();
    server.shutdown();

    let engine = OnlineEngine::restore(&final_snapshot).unwrap();
    let replayed = replay_trace(engine.scenario().clone(), engine.config().clone());
    assert_eq!(replayed.report.total_utility.to_bits(), utility.to_bits());
}

#[test]
fn protocol_error_paths() {
    let server = serve(ServerConfig {
        max_pending: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = TaskSpec {
        device_pos: Vec2::new(5.0, 5.0),
        device_facing: Angle::from_radians(1.0),
        end_slot: 4,
        required_energy: 700.0,
        weight: 1.0,
    };

    // Engine queries before LOAD.
    assert_eq!(
        client.submit(&spec).unwrap_err().code(),
        Some("no-scenario")
    );
    assert_eq!(client.tick(1).unwrap_err().code(), Some("no-scenario"));
    assert_eq!(client.schedule().unwrap_err().code(), Some("no-scenario"));

    client.load(&base_scenario(1, 3, 6)).unwrap();
    // Double LOAD is rejected.
    assert_eq!(
        client.load(&base_scenario(2, 3, 6)).unwrap_err().code(),
        Some("already-loaded")
    );
    // Admission control: third submission in a slot bounces.
    client.submit(&spec).unwrap();
    client.submit(&spec).unwrap();
    assert_eq!(client.submit(&spec).unwrap_err().code(), Some("overload"));
    // A tick drains the pending window.
    client.tick(1).unwrap();
    client.submit(&spec).unwrap();
    // Bad task: window already over.
    assert_eq!(
        client
            .submit(&TaskSpec {
                end_slot: 1,
                ..spec
            })
            .unwrap_err()
            .code(),
        Some("bad-task")
    );
    // Exhaust the grid; further ticks and submits report at-horizon.
    client.tick(16).unwrap();
    assert_eq!(client.tick(1).unwrap_err().code(), Some("at-horizon"));
    assert_eq!(client.submit(&spec).unwrap_err().code(), Some("at-horizon"));
    // Garbage snapshot.
    assert_eq!(
        client.restore("not a snapshot\n").unwrap_err().code(),
        Some("bad-snapshot")
    );
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn concurrent_sessions_share_one_engine() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    a.load(&base_scenario(3, 3, 8)).unwrap();
    let spec = TaskSpec {
        device_pos: Vec2::new(5.0, 5.0),
        device_facing: Angle::from_radians(0.5),
        end_slot: 6,
        required_energy: 900.0,
        weight: 1.0,
    };
    let (id_a, _) = a.submit(&spec).unwrap();
    let (id_b, _) = b.submit(&spec).unwrap();
    // Ids are assigned from one shared arrival sequence.
    assert_ne!(id_a, id_b);
    let (clock, open) = b.tick(1).unwrap();
    assert_eq!(clock, 1);
    assert!(open);
    let (clock_seen_by_a, _) = a.clock().unwrap();
    assert_eq!(clock_seen_by_a, 1);
    a.bye().unwrap();
    b.bye().unwrap();
    server.shutdown();
}

/// Rule-P1 regression guard: every malformed-but-parseable request must
/// produce a structured `ERR <code>` reply, and no sequence of them may
/// kill the daemon's connection loop. Raw TCP (no `Client`) so the test
/// controls the exact wire bytes, hostile values included.
#[test]
fn malformed_sequences_cannot_kill_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Sends `payload` verbatim and reads back one reply line.
    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        payload: &str,
    ) -> String {
        write!(stream, "{payload}").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            !reply.is_empty(),
            "connection died after request {payload:?}"
        );
        reply.trim_end().to_string()
    }
    fn code_of(reply: &str) -> String {
        let mut fields = reply.split_whitespace();
        assert_eq!(fields.next(), Some("ERR"), "expected ERR reply: {reply}");
        fields.next().unwrap_or_default().to_string()
    }

    let server = serve(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |payload: String| roundtrip(&mut stream, &mut reader, &payload);

    // A hostile sequence: every line parses (or fails to parse) without
    // panicking, and each gets exactly one structured reply.
    assert_eq!(code_of(&send("HELLO v9\n".into())), "version");
    // `nan`/`inf` are valid f64 spellings — parseable, then rejected.
    assert_eq!(
        code_of(&send("SUBMIT nan nan nan 6 700 1\n".into())),
        "bad-task"
    );
    assert_eq!(code_of(&send("TICK 0\n".into())), "bad-request");
    assert_eq!(
        code_of(&send("TICK 99999999999999999999999999\n".into())),
        "bad-request"
    );
    assert_eq!(code_of(&send("CLOCK? noise\n".into())), "bad-request");
    assert_eq!(code_of(&send("SCHEDULE?\n".into())), "no-scenario");

    // LOAD with an unparsable one-line scenario document.
    assert_eq!(
        code_of(&send("LOAD 1\nnot a scenario\n".into())),
        "bad-request"
    );

    // Load a real scenario over the same (still healthy) connection.
    let scenario_text = haste_model::io::write_scenario(&base_scenario(11, 3, 8));
    let load = format!("LOAD {}\n{scenario_text}", scenario_text.lines().count());
    assert!(send(load).starts_with("OK "), "LOAD failed");

    // Hostile submissions against the live engine.
    assert_eq!(
        code_of(&send("SUBMIT 5 5 0.5 6 nan 1\n".into())),
        "bad-task"
    );
    assert_eq!(
        code_of(&send("SUBMIT 5 5 0.5 6 -700 1\n".into())),
        "bad-task"
    );
    assert_eq!(
        code_of(&send("SUBMIT 5 5 0.5 6 700 nan\n".into())),
        "bad-task"
    );
    assert_eq!(
        code_of(&send("SUBMIT 5 5 0.5 999999 700 1\n".into())),
        "bad-task"
    );
    assert_eq!(
        code_of(&send("SUBMIT 5 5 inf 6 700 1\n".into())),
        "bad-task"
    );

    // RESTORE with a garbage one-line snapshot.
    assert_eq!(
        code_of(&send("RESTORE 1\ngarbage\n".into())),
        "bad-snapshot"
    );

    // The connection loop survived all of it: a normal session still works.
    assert!(send("SUBMIT 5 5 0.5 6 900 1\n".into()).starts_with("OK task=0"));
    assert!(send("TICK\n".into()).starts_with("OK slot=1"));
    assert!(send("UTILITY?\n".into()).starts_with("OK utility="));
    assert_eq!(send("BYE\n".into()), "OK bye");

    // A request line, or a counted payload, may not outgrow the v3 frame
    // bound (16 MiB, newlines included): the daemon answers bad-request
    // and closes, as it does for an oversized frame. Each case consumes
    // exactly the bound, so the close is a clean EOF, and each gets a
    // connection of its own because it closes it.
    const MAX_FRAME: usize = 16 * 1024 * 1024;
    let unterminated = "x".repeat(MAX_FRAME);
    for request in [unterminated.clone(), format!("LOAD 1\n{unterminated}")] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A daemon that waits for the newline fails the test, not hangs it.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = roundtrip(&mut stream, &mut reader, &request);
        assert_eq!(code_of(&reply), "bad-request", "{reply}");
        assert!(reply.contains("16777216-byte limit"), "{reply}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "closed after");
    }
    server.shutdown();
}

/// A scenario task whose facing is `nan` or `inf` is refused at `LOAD`
/// by the single-engine daemon and the router alike: `Task::validate`
/// checks the facing, so no path — `LOAD`, engine restore, or a
/// restored router's rebuilt history — can hold such a task.
#[test]
fn a_load_with_a_non_finite_facing_is_refused() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};

    fn load_reply(addr: SocketAddr, facing: &str) -> String {
        let text = haste_model::io::write_scenario(&base_scenario(5, 2, 8));
        let text = format!("{text}task 0 10 10 {facing} 0 3 700 1\n");
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write!(stream, "LOAD {}\n{text}", text.lines().count()).unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    let daemon = serve(ServerConfig::default()).unwrap();
    let router = haste_service::serve_router(haste_service::RouterConfig::default()).unwrap();
    for addr in [daemon.addr(), router.addr()] {
        for facing in ["nan", "inf"] {
            let reply = load_reply(addr, facing);
            assert!(
                reply.starts_with("ERR bad-request") && reply.contains("facing must be finite"),
                "facing {facing}: {reply}"
            );
        }
        // The same document with a finite facing loads.
        assert!(load_reply(addr, "0.5").starts_with("OK "));
    }
    daemon.shutdown();
    router.shutdown();
}

/// An engine snapshot whose staged tasks are out of release order is
/// refused: no engine writes one, and the engine would inject the late
/// task slots after its release.
#[test]
fn a_restore_with_staged_tasks_out_of_release_order_is_refused() {
    let mut scenario = base_scenario(9, 3, 8);
    scenario.tasks = (0..2)
        .map(|j| {
            Task::new(
                j,
                Vec2::new(10.0, 10.0),
                Angle::ZERO,
                3 + j as usize,
                7,
                800.0,
                1.0,
            )
        })
        .collect();
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.load(&scenario).unwrap();
    let snapshot = client.snapshot().unwrap();
    let mut early = scenario.tasks[1];
    early.release_slot = 2;
    let line = haste_model::io::task_line(&scenario.tasks[1]);
    assert_eq!(snapshot.matches(&line).count(), 1, "{snapshot}");
    let reordered = snapshot.replace(&line, &haste_model::io::task_line(&early));
    let err = client.restore(&reordered).unwrap_err();
    assert_eq!(err.code(), Some("bad-snapshot"), "{err}");
    assert!(
        err.to_string()
            .contains("staged task 1 releases in slot 2, before the task ahead of it"),
        "{err}"
    );
    // The unedited snapshot still restores.
    assert_eq!(client.restore(&snapshot).unwrap(), 0);
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn loadgen_smoke_run_verifies_replay() {
    let report = loadgen::run(&loadgen::LoadgenConfig {
        connections: 4,
        submissions: 300,
        chargers: 5,
        field: 120.0,
        slots: 16,
        seed: 5,
        verify_replay: true,
        ..loadgen::LoadgenConfig::default()
    })
    .unwrap();
    assert_eq!(report.submitted, 300);
    assert_eq!(report.accepted, 300);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.replay_matches, Some(true));
    assert!(report.p50_us <= report.p99_us);
    assert!(report.p99_us <= report.max_us);
    assert!(report.utility.is_finite());
}
