//! Fault-injection tests for the out-of-process router over real
//! loopback TCP: shards run as supervised `haste-shardd` child processes
//! (resolved via `CARGO_BIN_EXE_haste-shardd`), a seeded fault plan kills
//! or stalls them mid-run, and the surviving cells must finish
//! bit-identical to an undisturbed run while the targeted cells recover
//! through snapshot-baseline + journal replay.

use std::path::PathBuf;
use std::time::Duration;

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::shard::ShardHealth;
use haste_service::{
    serve, serve_router, Client, FaultPlan, ProcessShardConfig, RouterConfig, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// Localized replanning keeps Alg. 3 negotiations inside a partition
/// cell — the precondition for the router's bitwise contract, in or out
/// of process.
fn localized() -> OnlineConfig {
    OnlineConfig {
        localized: true,
        ..OnlineConfig::default()
    }
}

/// Same halo-safe 200×100 / 2×1 layout as the in-process router tests:
/// chargers cluster in `x ∈ [30, 70]` (cell 0) and `x ∈ [130, 170]`
/// (cell 1), tasks in both cells, some staged past release 0.
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

/// Live submissions whose devices stay inside their cell's charger reach.
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

/// The cell a spec routes to under the 2×1 split of the 200 m field.
fn cell_of(spec: &TaskSpec) -> usize {
    usize::from(spec.device_pos.x >= 100.0)
}

/// Drives a session from `from_slot` to the horizon, submitting each spec
/// in its slot; returns (merged schedule, utility, relaxed utility).
fn drive(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    from_slot: usize,
) -> (haste_model::Schedule, f64, f64) {
    let mut next = trace.partition_point(|(slot, _)| *slot < from_slot);
    for slot in from_slot..SLOTS {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
    assert_eq!(next, trace.len());
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed)
}

/// Like [`drive`] from slot 0, but a submission bounced by a down shard
/// (`ERR unavailable`) is recorded instead of failing the test. Returns
/// the indices (into `trace`) of the bounced submissions.
fn drive_tolerant(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
) -> (haste_model::Schedule, f64, f64, Vec<usize>) {
    let mut bounced = Vec::new();
    for (index, (slot, spec)) in trace.iter().enumerate() {
        while client.clock().unwrap().0 < *slot {
            client.tick(1).unwrap();
        }
        match client.submit(spec) {
            Ok(_) => {}
            Err(e) if e.code() == Some("unavailable") => bounced.push(index),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    while client.clock().unwrap().0 < SLOTS {
        client.tick(1).unwrap();
    }
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed, bounced)
}

/// Out-of-process router config: child daemons resolved from the
/// Cargo-provided binary path, optionally with a fault plan.
fn process_router_config(plan: Option<&str>) -> RouterConfig {
    RouterConfig {
        scheduling: localized(),
        cells: (2, 1),
        field: (200.0, 100.0),
        process: Some(ProcessShardConfig {
            shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
            deadline: Some(Duration::from_secs(60)),
            fault_plan: plan.map(|text| FaultPlan::parse(text).unwrap()),
        }),
        ..RouterConfig::default()
    }
}

/// In-process router config — the undisturbed reference deployment.
fn in_process_router_config() -> RouterConfig {
    RouterConfig {
        scheduling: localized(),
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    }
}

#[test]
fn out_of_process_router_matches_single_engine_bit_for_bit() {
    let scenario = partitionable_scenario(61);
    let trace = submission_trace(62, 24);

    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut ref_client = Client::connect(single.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed) = drive(&mut ref_client, &trace, 0);
    ref_client.bye().unwrap();
    single.shutdown();

    let router = serve_router(process_router_config(None)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed) = drive(&mut client, &trace, 0);
    let shards = client.shards().unwrap();
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    for shard in &shards {
        assert_eq!(shard.health, ShardHealth::Up);
        assert_eq!(shard.restarts, 0);
    }
}

#[test]
fn killed_shard_replays_from_checkpoint_and_stays_bit_identical() {
    let scenario = partitionable_scenario(71);
    // No cell-1 submissions while that shard is down (slot 6, between the
    // kill maturing at clock 6 and the rejoin at the next tick), so the
    // fault run sees the complete trace and must match everywhere.
    let trace: Vec<(usize, TaskSpec)> = submission_trace(72, 24)
        .into_iter()
        .filter(|(slot, spec)| !(*slot == 6 && cell_of(spec) == 1))
        .collect();

    // Reference: in-process router, no faults, same trace.
    let router_ref = serve_router(in_process_router_config()).unwrap();
    let mut ref_client = Client::connect(router_ref.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed) = drive(&mut ref_client, &trace, 0);
    let ref_final = ref_client.snapshot().unwrap();
    ref_client.bye().unwrap();
    router_ref.shutdown();

    // Fault run: child for cell 1 is killed when the clock reaches 6; a
    // mid-run SNAPSHOT at clock 4 makes that checkpoint the replay
    // baseline, so the rejoin replays baseline + journaled ops.
    let router = serve_router(process_router_config(Some("kill 1 @6\n"))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let mut next = 0;
    for slot in 0..4 {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
    client.snapshot().unwrap();
    let (schedule, utility, relaxed) = drive(&mut client, &trace, 4);
    let shards = client.shards().unwrap();
    let fault_final = client.snapshot().unwrap();
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    // The whole composite document agrees with the undisturbed run: the
    // killed shard's replayed engine state is exact, not approximate.
    assert_eq!(fault_final, ref_final);

    assert_eq!(shards[0].health, ShardHealth::Up);
    assert_eq!(shards[0].restarts, 0);
    assert_eq!(shards[1].health, ShardHealth::Degraded);
    assert_eq!(shards[1].restarts, 1);
    assert!(
        shards[1].replay > 0,
        "the rejoin must have replayed journaled operations"
    );
}

#[test]
fn submissions_to_a_down_cell_bounce_and_other_cells_are_unaffected() {
    let scenario = partitionable_scenario(81);
    let trace = submission_trace(83, 40);
    let expected_bounced: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter(|(_, (slot, spec))| *slot == 6 && cell_of(spec) == 1)
        .map(|(index, _)| index)
        .collect();
    assert!(
        !expected_bounced.is_empty(),
        "seed must produce cell-1 submissions in the down window"
    );

    // Fault run: every cell-1 submission in slot 6 bounces with
    // `ERR unavailable`; everything else is served.
    let router = serve_router(process_router_config(Some("kill 1 @6\n"))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed, bounced) = drive_tolerant(&mut client, &trace);
    let shards = client.shards().unwrap();
    client.bye().unwrap();
    router.shutdown();
    assert_eq!(bounced, expected_bounced);

    // Reference: in-process router fed the trace minus the bounced
    // submissions — degraded mode must be equivalent to those requests
    // never having been made.
    let reference_trace: Vec<(usize, TaskSpec)> = trace
        .iter()
        .enumerate()
        .filter(|(index, _)| !bounced.contains(index))
        .map(|(_, entry)| *entry)
        .collect();
    let router_ref = serve_router(in_process_router_config()).unwrap();
    let mut ref_client = Client::connect(router_ref.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed) = drive(&mut ref_client, &reference_trace, 0);
    ref_client.bye().unwrap();
    router_ref.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    assert_eq!(shards[1].health, ShardHealth::Degraded);
    assert_eq!(shards[1].restarts, 1);
    assert_eq!(shards[0].restarts, 0);
}

#[test]
fn stalls_and_dropped_connections_recover_without_cross_cell_damage() {
    let scenario = partitionable_scenario(91);
    // The stall matures at clock 3 and is consumed by the tick closing
    // slot 3 (killing the child, missing that tick); the shard rejoins at
    // the tick closing slot 4 and replays the missed slot. Keep cell 1
    // quiet over slots 3–4 so no submission lands in the down window.
    let trace: Vec<(usize, TaskSpec)> = submission_trace(92, 24)
        .into_iter()
        .filter(|(slot, spec)| !((*slot == 3 || *slot == 4) && cell_of(spec) == 1))
        .collect();

    let router_ref = serve_router(in_process_router_config()).unwrap();
    let mut ref_client = Client::connect(router_ref.addr()).unwrap();
    ref_client.load(&scenario).unwrap();
    let (ref_schedule, ref_utility, ref_relaxed) = drive(&mut ref_client, &trace, 0);
    ref_client.bye().unwrap();
    router_ref.shutdown();

    // The dropped connection on cell 0 is re-established transparently:
    // no restart, no replay, no divergence.
    let plan = "stall 1 for 1 @3\ndrop-conn 0 @2\n";
    let router = serve_router(process_router_config(Some(plan))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed) = drive(&mut client, &trace, 0);
    let shards = client.shards().unwrap();
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
    assert_eq!(shards[0].health, ShardHealth::Up);
    assert_eq!(shards[0].restarts, 0);
    assert_eq!(shards[1].health, ShardHealth::Degraded);
    assert_eq!(shards[1].restarts, 1);
    assert!(shards[1].replay > 0);
}

#[test]
fn loadgen_chaos_mode_proves_surviving_cells_and_recovery() {
    use haste_service::loadgen::{self, LoadgenConfig};
    let report = loadgen::run(&LoadgenConfig {
        connections: 3,
        submissions: 150,
        chargers: 6,
        field: 200.0,
        slots: 16,
        seed: 5,
        verify_replay: true,
        cells: Some((2, 1)),
        shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
        fault_plan: Some(FaultPlan::parse("kill 1 @8\n").unwrap()),
        ..LoadgenConfig::default()
    })
    .unwrap();
    let chaos = report
        .chaos
        .expect("fault plan must produce a chaos report");
    assert_eq!(chaos.fault_cells, vec![1]);
    assert!(
        chaos.surviving_match,
        "surviving cell diverged from the no-fault run"
    );
    assert!(chaos.recovered, "killed shard did not rejoin");
    assert!(chaos.restarts >= 1);
    assert_eq!(
        report.accepted + report.rejected + report.unavailable,
        report.submitted
    );
    // The fault session itself still satisfies the replay identity: its
    // snapshot trace contains exactly the admitted submissions.
    assert_eq!(report.replay_matches, Some(true));
}

/// The `haste_engine_*` families of a router's `EXPORT?` and its
/// `SHARDS?` lines.
type Observation = (
    Vec<(String, haste_metrics::Value)>,
    Vec<haste_service::ShardInfo>,
);

/// Observes a router, leaving out the four `_us_total` engine phase
/// timers (wall-clock, so they differ run to run).
fn observe(client: &mut Client) -> Observation {
    let export = haste_metrics::Snapshot::parse(&client.export().unwrap()).unwrap();
    let engine = export
        .samples()
        .filter(|(key, _)| {
            key.name.starts_with("haste_engine_") && !key.name.ends_with("_us_total")
        })
        .map(|(key, value)| (key.name.clone(), value.clone()))
        .collect();
    (engine, client.shards().unwrap())
}

/// The reply line to one raw request on a fresh v1 session.
fn raw_reply(addr: std::net::SocketAddr, request: &str) -> String {
    use std::io::{BufRead, Write};
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    (&stream)
        .write_all(format!("HELLO v1\n{request}\nBYE\n").as_bytes())
        .unwrap();
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply
}

#[test]
fn out_of_process_export_carries_the_in_process_engine_families() {
    let scenario = partitionable_scenario(91);
    let trace = submission_trace(92, 24);
    let opening = trace.partition_point(|(slot, _)| *slot == 0);
    assert!(opening > 0, "the trace must submit into slot 0");
    let mut observed = Vec::new();
    for config in [in_process_router_config(), process_router_config(None)] {
        let router = serve_router(config).unwrap();
        let mut client = Client::connect(router.addr()).unwrap();
        client.load(&scenario).unwrap();
        for (_, spec) in &trace[..opening] {
            client.submit(spec).unwrap();
        }
        // Mid-slot: staged releases and pending submissions are live.
        let mid_slot = observe(&mut client);
        client.tick(1).unwrap();
        // `drive` fails the test on any refused submission.
        drive(&mut client, &trace, 1);
        // A composite snapshot formats each arrived task's line once,
        // in the child's engine or the router's own.
        client.snapshot().unwrap();
        observed.push((mid_slot, observe(&mut client)));
        let retired = raw_reply(router.addr(), "METRICS?");
        assert!(retired.starts_with("ERR bad-request"), "{retired}");
        client.bye().unwrap();
        router.shutdown();
    }
    assert_eq!(observed[0], observed[1]);
    let ((mid_engine, _), (end_engine, _)) = &observed[0];
    // 18 cataloged engine families minus the 4 timers.
    assert_eq!(end_engine.len(), 14, "{end_engine:?}");
    let value = |families: &[(String, haste_metrics::Value)], name: &str| {
        families
            .iter()
            .find(|(family, _)| family == name)
            .map(|(_, value)| value.clone())
    };
    assert_eq!(
        value(mid_engine, "haste_engine_pending_tasks"),
        Some(haste_metrics::Value::Gauge(opening as u128))
    );
    // Every loaded task is admitted when its release slot opens, and every
    // accepted SUBMIT once.
    assert_eq!(
        value(end_engine, "haste_engine_admitted_total"),
        Some(haste_metrics::Value::Counter(
            (scenario.tasks.len() + trace.len()) as u128
        ))
    );
    assert_eq!(
        value(end_engine, "haste_engine_task_lines_formatted_total"),
        Some(haste_metrics::Value::Counter(
            (scenario.tasks.len() + trace.len()) as u128
        ))
    );
}
