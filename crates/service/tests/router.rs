//! End-to-end sharded-router tests over real loopback TCP: bit-identical
//! equivalence with a single-engine daemon, composite consistent-cut
//! kill-and-restore, topology reporting, and partition rejection.

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TaskId, TimeGrid};
use haste_service::{loadgen, serve, serve_router, Client, RouterConfig, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// Scheduling config for bit-equivalence runs: localized replanning keeps
/// Alg. 3 negotiations inside a partition cell, the precondition for the
/// router's bitwise contract. Used for BOTH the router and the reference
/// single-engine daemon.
fn localized() -> OnlineConfig {
    OnlineConfig {
        localized: true,
        ..OnlineConfig::default()
    }
}

/// A 200×100 field that splits cleanly into 2×1 cells of width 100:
/// chargers cluster in `x ∈ [30, 70]` (cell 0) and `x ∈ [130, 170]`
/// (cell 1), comfortably clear of the halo (radius 20 m) around the
/// interior boundary at `x = 100`. Includes release-0 tasks and staged
/// (release > 0) tasks in both cells.
fn partitionable_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chargers = Vec::new();
    for i in 0..6u32 {
        let x0 = if i % 2 == 0 { 30.0 } else { 130.0 };
        chargers.push(Charger::new(
            i,
            Vec2::new(x0 + rng.gen_range(0.0..40.0), rng.gen_range(20.0..80.0)),
        ));
    }
    let mut tasks = Vec::new();
    for j in 0..8u32 {
        let x0 = if j % 2 == 0 { 25.0 } else { 125.0 };
        let release = if j < 4 { 0 } else { rng.gen_range(1..5) };
        tasks.push(Task::new(
            j,
            Vec2::new(x0 + rng.gen_range(0.0..50.0), rng.gen_range(15.0..85.0)),
            Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
            release,
            (release + rng.gen_range(3..6usize)).min(SLOTS),
            rng.gen_range(500.0..2000.0),
            1.0,
        ));
    }
    Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, SLOTS),
        chargers,
        tasks,
        1.0 / 12.0,
        1,
    )
    .unwrap()
}

/// Live submissions whose devices stay inside their cell's charger reach
/// (never within the 20 m radius of the other cell's chargers).
fn submission_trace(seed: u64, count: usize) -> Vec<(usize, TaskSpec)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace: Vec<(usize, TaskSpec)> = (0..count)
        .map(|k| {
            let slot = rng.gen_range(0..SLOTS);
            let x0 = if k % 2 == 0 { 25.0 } else { 125.0 };
            (
                slot,
                TaskSpec {
                    device_pos: Vec2::new(x0 + rng.gen_range(0.0..50.0), rng.gen_range(15.0..85.0)),
                    device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    end_slot: (slot + rng.gen_range(2..6usize)).min(SLOTS),
                    required_energy: rng.gen_range(500.0..2500.0),
                    weight: 1.0,
                },
            )
        })
        .collect();
    trace.sort_by_key(|(slot, _)| *slot);
    trace
}

/// The `(task, release)` of every `SUBMIT` reply, in submission order.
type SubmitIds = Vec<(TaskId, usize)>;

/// Drives a session from `from_slot` to the horizon, submitting each spec
/// in its slot; returns (merged schedule, utility, relaxed utility,
/// `SUBMIT` replies).
fn drive(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    from_slot: usize,
) -> (haste_model::Schedule, f64, f64, SubmitIds) {
    let mut ids = Vec::new();
    let mut next = trace.partition_point(|(slot, _)| *slot < from_slot);
    for slot in from_slot..SLOTS {
        while next < trace.len() && trace[next].0 == slot {
            ids.push(client.submit(&trace[next].1).unwrap());
            next += 1;
        }
        client.tick(1).unwrap();
    }
    assert_eq!(next, trace.len());
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed, ids)
}

fn router_config() -> RouterConfig {
    RouterConfig {
        scheduling: localized(),
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    }
}

#[test]
fn router_with_two_shards_matches_single_engine_bit_for_bit() {
    let scenario = partitionable_scenario(21);
    let trace = submission_trace(22, 24);

    // Reference: one engine owning the whole field.
    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut ref_client = Client::connect(single.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed, ref_ids) = drive(&mut ref_client, &trace, 0);
    ref_client.bye().unwrap();
    single.shutdown();

    // Router: same scenario split across 2 shards, same submissions.
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed, ids) = drive(&mut client, &trace, 0);
    client.bye().unwrap();
    router.shutdown();

    // The merged schedule is the single engine's, bit for bit; so are the
    // streamed utility totals (same addends, same summation order) and
    // every SUBMIT's global task id and release slot, which skip the
    // staged releases exactly as the engine's do.
    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    assert_eq!(ids, ref_ids);
}

/// Drives a session like [`drive`], but over one v3 binary-framed
/// connection with `batch`-sized `OP_BATCH` submissions. One client means
/// the global arrival order is the trace order — the precondition for
/// comparing utilities bit for bit across wire formats.
fn drive_batched(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    batch: usize,
) -> (haste_model::Schedule, f64, f64, SubmitIds) {
    let mut ids = Vec::new();
    let mut next = 0;
    for slot in 0..SLOTS {
        let mut specs = Vec::new();
        while next < trace.len() && trace[next].0 == slot {
            specs.push(trace[next].1);
            next += 1;
        }
        for chunk in specs.chunks(batch) {
            for ack in client.submit_batch(chunk).unwrap() {
                ids.push(ack.unwrap());
            }
        }
        client.tick(1).unwrap();
    }
    assert_eq!(next, trace.len());
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed, ids)
}

#[test]
fn binary_batched_router_matches_single_engine_bit_for_bit() {
    let scenario = partitionable_scenario(21);
    let trace = submission_trace(22, 24);

    // Reference: one engine, plain v1 text, serial SUBMITs.
    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut ref_client = Client::connect(single.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed, ref_ids) = drive(&mut ref_client, &trace, 0);
    ref_client.bye().unwrap();
    single.shutdown();

    // Same scenario and trace through the 2-shard router over protocol v3
    // binary framing, 5 submissions per OP_BATCH frame (a size that
    // leaves a ragged final chunk), with the pipelined lockstep tick.
    let router = serve_router(router_config()).unwrap();
    let (mut client, topology) = Client::connect_v3(router.addr()).unwrap();
    assert!(client.is_binary());
    assert_eq!(topology.shards, 2);
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed, ids) = drive_batched(&mut client, &trace, 5);
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    assert_eq!(ids, ref_ids);
}

#[test]
fn router_session_survives_kill_and_restore_bit_identically() {
    let scenario = partitionable_scenario(31);
    let trace = submission_trace(32, 20);

    // Reference for the SUBMIT replies: one engine owning the whole field.
    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut ref_client = Client::connect(single.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let ref_ids = drive(&mut ref_client, &trace, 0).3;
    ref_client.bye().unwrap();
    single.shutdown();

    // Run A: one router, uninterrupted.
    let router_a = serve_router(router_config()).unwrap();
    let mut client_a = Client::connect(router_a.addr()).unwrap();
    client_a.load(&scenario).unwrap();
    let (schedule_a, utility_a, relaxed_a, ids_a) = drive(&mut client_a, &trace, 0);
    let final_a = client_a.snapshot().unwrap();
    client_a.bye().unwrap();
    router_a.shutdown();

    // Run B: killed at mid-horizon, composite snapshot carried into a
    // fresh router, identical remaining trace.
    let router_b1 = serve_router(router_config()).unwrap();
    let mut client_b = Client::connect(router_b1.addr()).unwrap();
    client_b.load(&scenario).unwrap();
    let mut ids_b = Vec::new();
    let mut next = 0;
    for slot in 0..SLOTS / 2 {
        while next < trace.len() && trace[next].0 == slot {
            ids_b.push(client_b.submit(&trace[next].1).unwrap());
            next += 1;
        }
        client_b.tick(1).unwrap();
    }
    let mid = client_b.snapshot().unwrap();
    drop(client_b);
    router_b1.shutdown(); // kill

    let router_b2 = serve_router(router_config()).unwrap();
    let mut client_b2 = Client::connect(router_b2.addr()).unwrap();
    let restored_clock = client_b2.restore(&mid).unwrap();
    assert_eq!(restored_clock, SLOTS / 2);
    let (schedule_b, utility_b, relaxed_b, ids_after) = drive(&mut client_b2, &trace, SLOTS / 2);
    ids_b.extend(ids_after);
    let final_b = client_b2.snapshot().unwrap();
    client_b2.bye().unwrap();
    router_b2.shutdown();

    assert_eq!(schedule_a, schedule_b);
    assert_eq!(utility_a.to_bits(), utility_b.to_bits());
    assert_eq!(relaxed_a.to_bits(), relaxed_b.to_bits());
    // The full composite documents agree: every shard's engine state,
    // the arrival order and the staged-release plan restored exactly.
    assert_eq!(final_a, final_b);
    // The restored router numbers its submissions on from where the
    // document left off, as the single engine does.
    assert_eq!(ids_a, ref_ids);
    assert_eq!(ids_b, ref_ids);
}

/// `partitionable_scenario` with every charger moved into cell 0, so
/// cell 1's shard holds tasks but no charger.
fn chargerless_cell_scenario(seed: u64) -> Scenario {
    let mut scenario = partitionable_scenario(seed);
    for charger in &mut scenario.chargers {
        if charger.pos.x > 100.0 {
            charger.pos.x -= 100.0;
        }
    }
    scenario
}

#[test]
fn a_router_with_a_chargerless_cell_restores_its_own_snapshot() {
    let scenario = chargerless_cell_scenario(41);
    let trace = submission_trace(42, 16);
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let mut next = 0;
    for slot in 0..SLOTS / 2 {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
    let mid = client.snapshot().unwrap();

    let fresh = serve_router(router_config()).unwrap();
    let mut restored = Client::connect(fresh.addr()).unwrap();
    assert_eq!(restored.restore(&mid).unwrap(), SLOTS / 2);
    assert_eq!(restored.snapshot().unwrap(), mid);
    // Both finish the trace in the same state.
    let a = drive(&mut client, &trace, SLOTS / 2);
    let b = drive(&mut restored, &trace, SLOTS / 2);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1.to_bits(), b.1.to_bits());
    assert_eq!(client.snapshot().unwrap(), restored.snapshot().unwrap());
    client.bye().unwrap();
    restored.bye().unwrap();
    router.shutdown();
    fresh.shutdown();
}

/// The `UTILITY?` reply line after `LOAD`ing `scenario` on a fresh v1
/// session, raw: the client's parsed floats would hide the sign of zero.
fn raw_utility(addr: std::net::SocketAddr, scenario: &Scenario) -> String {
    use std::io::{BufRead, Write};
    let text = haste_model::io::write_scenario(scenario);
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let request = format!(
        "HELLO v1\nLOAD {}\n{text}UTILITY?\nBYE\n",
        text.lines().count()
    );
    (&stream).write_all(request.as_bytes()).unwrap();
    let mut replies = Vec::new();
    for _ in 0..3 {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim_end().to_string());
    }
    assert!(replies[1].starts_with("OK "), "LOAD: {}", replies[1]);
    replies.pop().unwrap()
}

#[test]
fn a_task_free_tenant_answers_utility_like_the_single_engine() {
    // One charger in each cell and no task at all: both totals are empty
    // sums, which the single engine starts from +0.
    let mut scenario = partitionable_scenario(51);
    scenario.chargers.truncate(2);
    scenario.tasks.clear();
    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let router = serve_router(router_config()).unwrap();
    let expected = raw_utility(single.addr(), &scenario);
    assert_eq!(expected, "OK utility=0 relaxed=0");
    assert_eq!(raw_utility(router.addr(), &scenario), expected);
    single.shutdown();
    router.shutdown();
}

#[test]
fn hello_v2_advertises_topology_and_shards_reports_per_shard_state() {
    let router = serve_router(router_config()).unwrap();
    let (mut client, topology) = Client::connect_v2(router.addr()).unwrap();
    assert_eq!(topology.shards, 2);
    assert_eq!(topology.cells, (2, 1));

    client.load(&partitionable_scenario(41)).unwrap();
    client.tick(2).unwrap();
    let shards = client.shards().unwrap();
    assert_eq!(shards.len(), 2);
    for (i, shard) in shards.iter().enumerate() {
        assert_eq!(shard.index, i);
        assert_eq!(shard.cell, (i, 0));
        assert_eq!(shard.slot, 2);
        assert!(shard.open);
        assert!(shard.tasks > 0, "both cells hold tasks in this scenario");
    }

    // The plain daemon reports itself as a 1×1 topology.
    let single = serve(ServerConfig::default()).unwrap();
    let (mut mono, topology) = Client::connect_v2(single.addr()).unwrap();
    assert_eq!(topology.shards, 1);
    assert_eq!(topology.cells, (1, 1));
    // SHARDS? needs a loaded engine, exactly like the router.
    assert_eq!(mono.shards().unwrap_err().code(), Some("no-scenario"));
    mono.load(&partitionable_scenario(42)).unwrap();
    let shards = mono.shards().unwrap();
    assert_eq!(shards.len(), 1);
    mono.bye().unwrap();
    single.shutdown();

    client.bye().unwrap();
    router.shutdown();
}

#[test]
fn unpartitionable_scenarios_are_rejected_at_load() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    // Queries before LOAD still produce the structured v1 errors.
    assert_eq!(client.tick(1).unwrap_err().code(), Some("no-scenario"));
    assert_eq!(client.schedule().unwrap_err().code(), Some("no-scenario"));

    // A charger 5 m from the interior boundary sits inside the 20 m halo:
    // its reach crosses the cut, so the partition is invalid.
    let bad = Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, SLOTS),
        vec![
            Charger::new(0, Vec2::new(50.0, 50.0)),
            Charger::new(1, Vec2::new(95.0, 50.0)),
        ],
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .unwrap();
    assert_eq!(
        client.load(&bad).unwrap_err().code(),
        Some("unpartitionable")
    );

    // The rejection left no partial state behind: a good LOAD succeeds.
    client.load(&partitionable_scenario(51)).unwrap();
    client.bye().unwrap();
    router.shutdown();
}

#[test]
fn loadgen_router_mode_verifies_merged_shard_replay() {
    let report = loadgen::run(&loadgen::LoadgenConfig {
        connections: 3,
        submissions: 200,
        chargers: 6,
        field: 200.0,
        slots: 16,
        seed: 9,
        verify_replay: true,
        cells: Some((2, 1)),
        ..loadgen::LoadgenConfig::default()
    })
    .unwrap();
    assert_eq!(report.shards, Some(2));
    assert_eq!(report.submitted, 200);
    assert_eq!(report.accepted + report.rejected, 200);
    assert_eq!(report.replay_matches, Some(true));
    assert!(report.utility.is_finite());
}

#[test]
fn loadgen_binary_batched_matches_the_text_run_bit_for_bit() {
    // One connection pins the global arrival order to the generated plan,
    // so the streamed utility is comparable across wire formats bit for
    // bit; both runs also self-verify against the merged shard replay.
    let config = loadgen::LoadgenConfig {
        connections: 1,
        submissions: 150,
        chargers: 6,
        field: 200.0,
        slots: 16,
        seed: 13,
        verify_replay: true,
        cells: Some((2, 1)),
        ..loadgen::LoadgenConfig::default()
    };
    let text = loadgen::run(&config).unwrap();
    let binary = loadgen::run(&loadgen::LoadgenConfig {
        binary: true,
        batch: 8,
        ..config
    })
    .unwrap();

    assert_eq!(text.replay_matches, Some(true));
    assert_eq!(binary.replay_matches, Some(true));
    assert_eq!(binary.accepted, text.accepted);
    assert_eq!(binary.utility.to_bits(), text.utility.to_bits());
    assert_eq!(binary.relaxed.to_bits(), text.relaxed.to_bits());
    assert!(binary.submit_elapsed_s > 0.0);
    assert!(binary.submit_elapsed_s <= binary.elapsed_s);
}
