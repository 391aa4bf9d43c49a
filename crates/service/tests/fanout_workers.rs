//! The router's parked fan-out workers live and die with their fleet:
//! none before the fleet's first fan-out, cells − 1 once it has ticked,
//! the same threads across further `TICK`s and a `SNAPSHOT`, a new set
//! after a reshard or a `RESTORE` to another cell count, and none after
//! shutdown — with in-process shards and with shard children. A test
//! binary of its own, so the threads `/proc/self/task` lists are this
//! test's.

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::time::Duration;

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, TimeGrid};
use haste_service::{serve_router, Client, ProcessShardConfig, RouterConfig};

const SLOTS: usize = 48;

/// Ids of this process's threads whose name starts with `prefix`,
/// ascending.
fn threads_named(prefix: &str) -> Vec<u64> {
    let mut tids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            comm.starts_with(prefix)
                .then(|| path.file_name()?.to_str()?.parse().ok())?
        })
        .collect();
    tids.sort_unstable();
    tids
}

fn fanout_workers() -> Vec<u64> {
    threads_named("haste-fanout")
}

/// Waits (up to 5 s) until `count` fan-out workers run, and returns
/// them: a joined thread leaves `/proc/self/task` just after its join
/// returns.
fn workers_settle_at(count: usize) -> Vec<u64> {
    let mut tids = fanout_workers();
    for _ in 0..500 {
        if tids.len() == count {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        tids = fanout_workers();
    }
    assert_eq!(tids.len(), count, "fan-out workers {tids:?}");
    tids
}

/// Cell 0 of the 2×1 grid keeps its chargers clear of its midline, so it
/// splits.
fn splittable_scenario() -> Scenario {
    Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, SLOTS),
        vec![
            Charger::new(0, Vec2::new(20.0, 50.0)),
            Charger::new(1, Vec2::new(75.0, 40.0)),
            Charger::new(2, Vec2::new(150.0, 50.0)),
        ],
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .unwrap()
}

/// One submission per cell of the 2×1 grid, active for three slots.
fn submit_pair(client: &mut Client, slot: usize) {
    for x in [25.0, 140.0] {
        let spec = TaskSpec {
            device_pos: Vec2::new(x, 45.0),
            device_facing: Angle::from_radians(3.0),
            end_slot: (slot + 3).min(SLOTS),
            required_energy: 900.0,
            weight: 1.0,
        };
        client.submit(&spec).unwrap();
    }
}

fn lifecycle(config: RouterConfig) {
    let router = serve_router(config).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&splittable_scenario()).unwrap();
    assert!(fanout_workers().is_empty(), "LOAD starts no worker");

    submit_pair(&mut client, 0);
    client.tick(1).unwrap();
    let first = workers_settle_at(1);
    let all = threads_named("");
    for slot in 1..31 {
        submit_pair(&mut client, slot);
        client.tick(1).unwrap();
    }
    client.snapshot().unwrap();
    assert_eq!(fanout_workers(), first, "the same workers");
    assert_eq!(threads_named(""), all, "no thread came or went");

    assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
    submit_pair(&mut client, 31);
    client.tick(1).unwrap();
    let split = workers_settle_at(2);
    assert!(split.iter().all(|tid| !first.contains(tid)), "a new fleet");
    let three_cells = client.snapshot().unwrap();

    assert_eq!(client.reshard_merge(0, 1).unwrap(), (2, 3));
    client.tick(1).unwrap();
    workers_settle_at(1);

    // A document with another cell count replaces the fleet; its
    // workers start at the next fan-out.
    client.restore(&three_cells).unwrap();
    workers_settle_at(0);
    client.tick(1).unwrap();
    workers_settle_at(2);

    client.bye().unwrap();
    router.shutdown();
    assert!(fanout_workers().is_empty(), "no worker outlives shutdown");
}

fn in_process() -> RouterConfig {
    RouterConfig {
        scheduling: OnlineConfig {
            localized: true,
            threads: 1,
            ..OnlineConfig::default()
        },
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    }
}

#[test]
fn fan_out_workers_live_and_die_with_the_fleet() {
    lifecycle(in_process());
    lifecycle(RouterConfig {
        process: Some(ProcessShardConfig {
            shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
            deadline: Some(Duration::from_secs(60)),
            fault_plan: None,
        }),
        ..in_process()
    });
}
