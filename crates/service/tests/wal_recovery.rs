//! Crash recovery end to end: `kill -9` of a live router mid-run,
//! respawn over the same WAL directory, and the resumed run must be
//! bit-identical to an undisturbed reference — over real TCP, for
//! in-process and out-of-process shards, through the loadgen chaos
//! harness and through a hand-driven two-tenant session with a live
//! `RESHARD` straddling the kill. Also a killed shard child whose cell a
//! live `RESHARD` renumbered: its replay of the operation log must
//! reproduce its engine exactly, refusals included.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::loadgen::{run, LoadgenConfig};
use haste_service::wal::WalConfig;
use haste_service::{serve_router, Client, FaultPlan, ProcessShardConfig, RouterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// Same halo-safe 200×100 / 2×1 layout as the other router tests.
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

/// In-cell live submissions, as in the router tests.
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

/// A 200×100 field that stays partitionable across the whole reshard
/// lineage (the base `x = 100` boundary and the `x = 50` boundary a
/// `RESHARD SPLIT 0` introduces), as in the reshard tests: charger
/// clusters and devices keep 20 m clear of both boundaries.
fn splittable_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chargers = Vec::new();
    for i in 0..8u32 {
        let x = match i % 4 {
            0 => 6.0 + rng.gen_range(0.0..20.0),
            1 => 72.0 + rng.gen_range(0.0..6.0),
            _ => 128.0 + rng.gen_range(0.0..44.0),
        };
        chargers.push(Charger::new(i, Vec2::new(x, rng.gen_range(25.0..75.0))));
    }
    let mut tasks = Vec::new();
    for j in 0..8u32 {
        let release = if j < 4 { 0 } else { rng.gen_range(1..5) };
        tasks.push(Task::new(
            j,
            Vec2::new(cluster_x(j as usize, &mut rng), rng.gen_range(20.0..80.0)),
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

/// A device x-coordinate near exactly one charger cluster of
/// [`splittable_scenario`].
fn cluster_x(k: usize, rng: &mut StdRng) -> f64 {
    match k % 4 {
        0 => 8.0 + rng.gen_range(0.0..20.0),
        1 => 66.0 + rng.gen_range(0.0..18.0),
        _ => 126.0 + rng.gen_range(0.0..46.0),
    }
}

/// Live submissions confined to the charger clusters, valid before and
/// after the `SPLIT 0` topology change.
fn splittable_trace(seed: u64, count: usize) -> Vec<(usize, TaskSpec)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace: Vec<(usize, TaskSpec)> = (0..count)
        .map(|k| {
            let slot = rng.gen_range(0..SLOTS);
            (
                slot,
                TaskSpec {
                    device_pos: Vec2::new(cluster_x(k, &mut rng), rng.gen_range(20.0..80.0)),
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

/// Drives a session over `from..to`, submitting the trace's in-slot
/// entries before each `TICK`.
fn drive_span(client: &mut Client, trace: &[(usize, TaskSpec)], from: usize, to: usize) {
    let mut next = trace.partition_point(|(slot, _)| *slot < from);
    for slot in from..to {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
}

/// The final bit-level outcome of one tenant's session.
fn finish(client: &mut Client) -> (haste_model::Schedule, u64, u64) {
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility.to_bits(), relaxed.to_bits())
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haste-wal-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----------------------------------------------------------------------
// kill-router through the loadgen chaos harness
// ----------------------------------------------------------------------

fn kill_config(tag: &str, plan: &str) -> LoadgenConfig {
    LoadgenConfig {
        cells: Some((2, 1)),
        connections: 3,
        submissions: 600,
        slots: 24,
        verify_replay: true,
        fault_plan: Some(FaultPlan::parse(plan).unwrap()),
        wal_dir: Some(scratch(tag)),
        routerd: Some(PathBuf::from(env!("CARGO_BIN_EXE_routerd"))),
        ..LoadgenConfig::default()
    }
}

#[test]
fn a_router_kill_recovers_bit_identically_in_process() {
    let report = run(&kill_config("lg-inproc", "kill-router @8")).unwrap();
    let chaos = report
        .chaos
        .expect("kill-router runs carry a chaos verdict");
    assert_eq!(chaos.router_kills, 1);
    // kill-router targets no cell: the bitwise comparison against the
    // undisturbed reference covers the whole fleet.
    assert!(chaos.fault_cells.is_empty());
    assert!(chaos.surviving_match, "recovery must be bit-identical");
    assert_eq!(report.replay_matches, Some(true));
    assert!(report.accepted > 0);
}

#[test]
fn a_router_kill_recovers_with_out_of_process_shards() {
    let mut config = kill_config("lg-oop", "kill-router @8");
    config.out_of_process = true;
    config.shardd = Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd")));
    let report = run(&config).unwrap();
    let chaos = report
        .chaos
        .expect("kill-router runs carry a chaos verdict");
    assert_eq!(chaos.router_kills, 1);
    assert!(chaos.surviving_match, "recovery must be bit-identical");
    assert_eq!(report.replay_matches, Some(true));
}

#[test]
fn router_kills_straddling_a_live_reshard_recover() {
    // One kill before the scripted split (replays a pre-split log) and
    // one after it (replays the split record itself), over v3 binary
    // framing with batched submissions.
    let mut config = kill_config("lg-reshard", "kill-router @8\nkill-router @20");
    config.reshard_split = Some((12, 0));
    config.binary = true;
    config.batch = 8;
    let report = run(&config).unwrap();
    let chaos = report
        .chaos
        .expect("kill-router runs carry a chaos verdict");
    assert_eq!(chaos.router_kills, 2);
    assert!(chaos.surviving_match, "recovery must be bit-identical");
    assert_eq!(report.replay_matches, Some(true));
    assert_eq!(report.shards, Some(3), "the split must survive the kills");
}

// ----------------------------------------------------------------------
// In-process restart: shutdown is just a polite crash
// ----------------------------------------------------------------------

#[test]
fn a_restarted_router_resumes_bit_identically_in_process() {
    let localized = OnlineConfig {
        localized: true,
        ..OnlineConfig::default()
    };
    let config = |wal: Option<WalConfig>| RouterConfig {
        scheduling: localized.clone(),
        cells: (2, 1),
        field: (200.0, 100.0),
        wal,
        ..RouterConfig::default()
    };
    let scenario = partitionable_scenario(71);
    let trace = submission_trace(72, 16);

    // Undisturbed, non-durable reference run.
    let reference = serve_router(config(None)).unwrap();
    let mut client = Client::connect(reference.addr()).unwrap();
    client.load(&scenario).unwrap();
    drive_span(&mut client, &trace, 0, SLOTS);
    let expected = finish(&mut client);
    client.bye().unwrap();
    reference.shutdown();

    // Durable run, stopped cold at slot 8. No SNAPSHOT is taken, so the
    // restart must replay the LOAD checkpoint plus the full log tail.
    let dir = scratch("restart");
    let router = serve_router(config(Some(WalConfig::new(&dir)))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    drive_span(&mut client, &trace, 0, 8);
    let mid = finish(&mut client);
    client.bye().unwrap();
    router.shutdown();

    // Restart over the same directory: the recovered router is at the
    // same clock with the same bits, and finishing the trace lands on
    // the undisturbed final state exactly.
    let router = serve_router(config(Some(WalConfig::new(&dir)))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.clock().unwrap().0, 8);
    assert_eq!(finish(&mut client), mid);
    drive_span(&mut client, &trace, 8, SLOTS);
    assert_eq!(finish(&mut client), expected);
    client.bye().unwrap();
    router.shutdown();
}

#[test]
fn a_restarted_router_keeps_a_tenant_with_a_chargerless_cell() {
    let config = |dir: &Path| RouterConfig {
        cells: (2, 1),
        field: (200.0, 100.0),
        wal: Some(WalConfig::new(dir)),
        ..RouterConfig::default()
    };
    // Every charger in cell 0: cell 1's shard holds tasks but no charger.
    let mut scenario = partitionable_scenario(73);
    for charger in &mut scenario.chargers {
        if charger.pos.x > 100.0 {
            charger.pos.x -= 100.0;
        }
    }
    let trace = submission_trace(74, 16);
    let dir = scratch("chargerless");
    let router = serve_router(config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    drive_span(&mut client, &trace, 0, 6);
    let mid = finish(&mut client);
    client.bye().unwrap();
    router.shutdown();

    let router = serve_router(config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.clock().unwrap().0, 6);
    assert_eq!(finish(&mut client), mid);
    client.bye().unwrap();
    router.shutdown();
}

/// `(tasks materialized, arrived-task lines formatted, checkpoints
/// written)` as the router's `EXPORT?` reports them.
fn line_counts(client: &mut Client) -> (u128, u128, u128) {
    let export = haste_metrics::Snapshot::parse(&client.export().unwrap()).unwrap();
    let value = |name: &str, labels: &[(&str, &str)]| match export.get(name, labels) {
        Some(haste_metrics::Value::Counter(n) | haste_metrics::Value::Gauge(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    (
        value("haste_engine_active_tasks", &[]),
        value("haste_engine_task_lines_formatted_total", &[]),
        value("haste_wal_checkpoints_total", &[("tenant", "default")]),
    )
}

#[test]
fn a_durable_tenant_formats_each_task_line_once() {
    let config = |dir: &Path| RouterConfig {
        cells: (2, 1),
        field: (200.0, 100.0),
        wal: Some(WalConfig {
            checkpoint_every: 6,
            ..WalConfig::new(dir)
        }),
        ..RouterConfig::default()
    };
    let scenario = partitionable_scenario(75);
    let trace = submission_trace(76, 40);
    let dir = scratch("task-lines");
    let router = serve_router(config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    drive_span(&mut client, &trace, 0, 6);
    let mid = client.snapshot().unwrap();
    // `LOAD`'s checkpoint, the automatic ones and `SNAPSHOT`'s formatted
    // each arrived task's line once between them.
    let (at_mid, lines, checkpoints) = line_counts(&mut client);
    assert!(checkpoints >= 4, "{checkpoints} checkpoints");
    assert_eq!(lines, at_mid);
    drive_span(&mut client, &trace, 6, 9);
    client.snapshot().unwrap();
    let (tasks, lines, _) = line_counts(&mut client);
    assert!(tasks > at_mid);
    assert_eq!(lines, tasks);
    // `RESTORE` installs engines with empty caches and checkpoints them:
    // one cold render of the document's tasks.
    assert_eq!(client.restore(&mid).unwrap(), 6);
    assert_eq!(line_counts(&mut client).1, at_mid);
    drive_span(&mut client, &trace, 6, SLOTS);
    let last = client.snapshot().unwrap();
    let (tasks, lines, _) = line_counts(&mut client);
    assert_eq!(lines, tasks);
    client.bye().unwrap();
    router.shutdown();

    // Recovery starts cold as well, and renders the same bytes.
    let router = serve_router(config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.snapshot().unwrap(), last);
    assert_eq!(line_counts(&mut client).1, tasks);
    client.bye().unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// kill -9 over real TCP: two tenants, a live RESHARD, a real SIGKILL
// ----------------------------------------------------------------------

/// Reserves a free listening address by binding port 0 and dropping the
/// listener (std sets SO_REUSEADDR, so the respawn can rebind it too).
fn reserve_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// Spawns a durable `routerd` and blocks until its greeting line, which
/// prints only after WAL recovery finished — the contract the kill test
/// leans on: a connectable router is a fully recovered router.
fn spawn_routerd(addr: &str, dir: &Path) -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_routerd"))
        .args([
            "--addr",
            addr,
            "--cells",
            "2x1",
            "--field",
            "200x100",
            "--origin",
            "0,0",
            "--wal-dir",
            dir.to_str().unwrap(),
            "--wal-sync",
            "every-tick",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut greeting = String::new();
    BufReader::new(stdout).read_line(&mut greeting).unwrap();
    assert!(
        greeting.contains("listening on"),
        "routerd failed to come up: `{}`",
        greeting.trim_end()
    );
    child
}

/// One slot of the two-tenant script: `alpha` splits its cell 0 live at
/// slot 6 while `beta` keeps serving undisturbed.
fn drive_tenants_span(
    alpha: &mut Client,
    beta: &mut Client,
    trace_a: &[(usize, TaskSpec)],
    trace_b: &[(usize, TaskSpec)],
    from: usize,
    to: usize,
) {
    for slot in from..to {
        if slot == 6 {
            assert_eq!(alpha.reshard_split(0).unwrap(), (3, 2));
        }
        drive_span(alpha, trace_a, slot, slot + 1);
        drive_span(beta, trace_b, slot, slot + 1);
    }
}

#[test]
fn two_tenants_and_a_live_reshard_survive_kill_nine() {
    let scenario_a = splittable_scenario(81);
    let trace_a = splittable_trace(82, 18);
    let scenario_b = splittable_scenario(83);
    let trace_b = splittable_trace(84, 18);

    // Undisturbed reference: an in-process router with the exact config
    // `routerd` builds from the flags below (default scheduling, no WAL
    // — durability must not change bits), same full script.
    let reference = serve_router(RouterConfig {
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    })
    .unwrap();
    let mut alpha = Client::connect(reference.addr()).unwrap();
    alpha.tenant("alpha", Some(64)).unwrap();
    alpha.load(&scenario_a).unwrap();
    let mut beta = Client::connect(reference.addr()).unwrap();
    beta.tenant("beta", None).unwrap();
    beta.load(&scenario_b).unwrap();
    drive_tenants_span(&mut alpha, &mut beta, &trace_a, &trace_b, 0, SLOTS);
    let ref_a = finish(&mut alpha);
    let ref_b = finish(&mut beta);
    alpha.bye().unwrap();
    beta.bye().unwrap();
    reference.shutdown();

    // Disturbed run: a real routerd process over real TCP, SIGKILLed
    // cold at slot 8 — after the tick fsync, mid-session for both
    // tenants, with alpha's live split already in the log.
    let dir = scratch("kill9");
    let addr = reserve_addr();
    let mut child = spawn_routerd(&addr, &dir);
    let mut alpha = Client::connect(&addr).unwrap();
    alpha.tenant("alpha", Some(64)).unwrap();
    alpha.load(&scenario_a).unwrap();
    let mut beta = Client::connect(&addr).unwrap();
    beta.tenant("beta", None).unwrap();
    beta.load(&scenario_b).unwrap();
    drive_tenants_span(&mut alpha, &mut beta, &trace_a, &trace_b, 0, 8);
    drop(alpha);
    drop(beta);
    child.kill().unwrap();
    child.wait().unwrap();

    // Respawn over the same WAL directory and reconnect both tenants:
    // recovery must land each on clock 8 with alpha's 3-shard post-split
    // topology intact, and finishing the script must produce the
    // reference bits exactly.
    let mut child = spawn_routerd(&addr, &dir);
    let mut alpha = Client::connect(&addr).unwrap();
    alpha.tenant("alpha", None).unwrap();
    let mut beta = Client::connect(&addr).unwrap();
    beta.tenant("beta", None).unwrap();
    assert_eq!(alpha.clock().unwrap().0, 8);
    assert_eq!(beta.clock().unwrap().0, 8);
    let shards = alpha.shards().unwrap();
    assert_eq!(shards.iter().filter(|s| s.tenant == "alpha").count(), 3);
    assert_eq!(shards.iter().filter(|s| s.tenant == "beta").count(), 2);

    drive_tenants_span(&mut alpha, &mut beta, &trace_a, &trace_b, 8, SLOTS);
    assert_eq!(finish(&mut alpha), ref_a);
    assert_eq!(finish(&mut beta), ref_b);
    alpha.bye().unwrap();
    beta.bye().unwrap();
    child.kill().unwrap();
    child.wait().unwrap();
}

// ----------------------------------------------------------------------
// A shard child killed after a live RESHARD renumbered its cell
// ----------------------------------------------------------------------

/// Submits each spec of `trace` in its slot, with a live `SPLIT 0` once
/// slot 4 opens, and returns each submission's refusal code (`None` when
/// accepted).
fn drive_with_refusals(client: &mut Client, trace: &[(usize, TaskSpec)]) -> Vec<Option<String>> {
    let mut outcomes = Vec::with_capacity(trace.len());
    let mut next = 0;
    for slot in 0..SLOTS {
        if slot == 4 {
            assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
        }
        while next < trace.len() && trace[next].0 == slot {
            outcomes.push(match client.submit(&trace[next].1) {
                Ok(_) => None,
                Err(e) => Some(e.code().expect("a structured refusal").to_string()),
            });
            next += 1;
        }
        client.tick(1).unwrap();
    }
    outcomes
}

#[test]
fn a_renumbered_shard_child_replays_its_engine_refusals_after_a_kill() {
    let scenario = splittable_scenario(91);
    let trace = splittable_trace(92, 72);
    let east = |index: usize| trace[index].1.device_pos.x >= 100.0;
    // One submission per shard and slot before `ERR overload`, and a
    // tenant quota of two accepted submissions per slot.
    let config = |process: Option<ProcessShardConfig>| RouterConfig {
        cells: (2, 1),
        field: (200.0, 100.0),
        max_pending: 1,
        process,
        ..RouterConfig::default()
    };
    let run = |config: RouterConfig, trace: &[(usize, TaskSpec)]| {
        let router = serve_router(config).unwrap();
        let mut client = Client::connect(router.addr()).unwrap();
        client.tenant("default", Some(2)).unwrap();
        client.load(&scenario).unwrap();
        let outcomes = drive_with_refusals(&mut client, trace);
        let shards = client.shards().unwrap();
        let snapshot = client.snapshot().unwrap();
        client.bye().unwrap();
        router.shutdown();
        (outcomes, shards, snapshot)
    };

    // Cell 1's child, index 2 after the split, is killed when slot 7
    // opens and rebuilt from its LOAD baseline at the next TICK.
    let (outcomes, shards, fault_final) = run(
        config(Some(ProcessShardConfig {
            shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
            deadline: Some(Duration::from_secs(60)),
            fault_plan: Some(FaultPlan::parse("kill 1 @7\n").unwrap()),
        })),
        &trace,
    );
    assert_eq!(shards.len(), 3);
    assert_eq!(
        shards[2].restarts, 1,
        "the kill must hit the renumbered survivor"
    );
    assert!(shards[2].replay > 0);
    let refused = |code: &str, slots: std::ops::Range<usize>| {
        (0..trace.len())
            .filter(|&i| east(i) && slots.contains(&trace[i].0))
            .filter(|&i| outcomes[i].as_deref() == Some(code))
            .count()
    };
    // The survivor's log view holds engine refusals from before and after
    // the renumbering, and refusals its engine never saw.
    assert!(
        refused("overload", 0..4) > 0,
        "no overload before the split"
    );
    assert!(refused("overload", 4..7) > 0, "no overload after the split");
    assert!(refused("quota", 0..7) > 0, "no quota refusal for cell 1");
    assert!(
        refused("unavailable", 7..8) > 0,
        "no submission hit the down cell"
    );

    // Reference: in-process, no faults, and the bounced submissions were
    // never made. Every other outcome, and the final composite document
    // byte for byte (engine sections carry the admission counters), must
    // agree.
    let kept: Vec<usize> = (0..trace.len())
        .filter(|&i| outcomes[i].as_deref() != Some("unavailable"))
        .collect();
    let reference_trace: Vec<(usize, TaskSpec)> = kept.iter().map(|&i| trace[i]).collect();
    let (ref_outcomes, _, ref_final) = run(config(None), &reference_trace);
    let kept_outcomes: Vec<Option<String>> = kept.iter().map(|&i| outcomes[i].clone()).collect();
    assert_eq!(ref_outcomes, kept_outcomes);
    assert_eq!(fault_final, ref_final);
}
