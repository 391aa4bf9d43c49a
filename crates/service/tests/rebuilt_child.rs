//! A shard child that a live `RESHARD SPLIT` rebuilt dies, and its
//! restart must reproduce it exactly. The rebuild fed it the *accepted*
//! records only, while its cell's slice of the operation log also holds
//! the refusals of the child it replaced — so the restart must start
//! from the post-rebuild state, not from the log.
//!
//! Fault plans bind to the cells that exist at startup, so the test
//! kills the rebuilt child by pid: it finds the `haste-shardd` processes
//! of this test binary in `/proc` and SIGKILLs the newest one. That is
//! why this test has a binary of its own — no other test's children may
//! share its parent pid.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use haste_distributed::TaskSpec;
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::{serve_router, Client, ProcessShardConfig, RouterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// A 200×100 field that stays partitionable across `SPLIT 0` (the base
/// `x = 100` boundary and the `x = 50` one the split adds): charger
/// clusters and devices keep 20 m clear of both, as in the reshard tests.
fn splittable_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let chargers = (0..8u32)
        .map(|i| {
            let x = match i % 4 {
                0 => 6.0 + rng.gen_range(0.0..20.0),
                1 => 72.0 + rng.gen_range(0.0..6.0),
                _ => 128.0 + rng.gen_range(0.0..44.0),
            };
            Charger::new(i, Vec2::new(x, rng.gen_range(25.0..75.0)))
        })
        .collect();
    let tasks = (0..8u32)
        .map(|j| {
            let release = if j < 4 { 0 } else { rng.gen_range(1..5) };
            Task::new(
                j,
                Vec2::new(cluster_x(j as usize, &mut rng), rng.gen_range(20.0..80.0)),
                Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                release,
                (release + rng.gen_range(3..6usize)).min(SLOTS),
                rng.gen_range(500.0..2000.0),
                1.0,
            )
        })
        .collect();
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

/// A device x-coordinate near exactly one charger cluster.
fn cluster_x(k: usize, rng: &mut StdRng) -> f64 {
    match k % 4 {
        0 => 8.0 + rng.gen_range(0.0..20.0),
        1 => 66.0 + rng.gen_range(0.0..18.0),
        _ => 126.0 + rng.gen_range(0.0..46.0),
    }
}

/// Live submissions confined to the charger clusters, sorted by slot.
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

/// The live `haste-shardd` children of this process, oldest first.
fn shard_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let mut children: Vec<(u64, u32)> = std::fs::read_dir("/proc")
        .unwrap()
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|pid| {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid ... starttime` — comm may hold spaces,
            // so split after its closing parenthesis.
            let (head, rest) = stat.rsplit_once(") ")?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let is_shard = head.ends_with("(haste-shardd");
            let alive = fields.first().is_some_and(|state| *state != "Z");
            if !(is_shard && alive && fields.get(1) == Some(&me.as_str())) {
                return None;
            }
            Some((fields.get(19)?.parse().ok()?, pid))
        })
        .collect();
    children.sort_unstable();
    children.into_iter().map(|(_, pid)| pid).collect()
}

/// Submits each spec of `trace` in its slot, with a live `SPLIT 0` once
/// slot 4 opens, and calls `at_slot_6` when slot 6 opens. Returns each
/// submission's refusal code (`None` when accepted).
fn drive(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    mut at_slot_6: impl FnMut(),
) -> Vec<Option<String>> {
    let mut outcomes = Vec::with_capacity(trace.len());
    let mut next = 0;
    for slot in 0..SLOTS {
        if slot == 4 {
            assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
        }
        if slot == 6 {
            at_slot_6();
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
fn a_killed_rebuilt_child_restarts_from_its_post_rebuild_state() {
    let scenario = splittable_scenario(31);
    let trace = splittable_trace(32, 72);
    // One submission per shard and slot before `ERR overload`, so the
    // history the rebuilt cells inherit is full of engine refusals.
    let config = |process: Option<ProcessShardConfig>| RouterConfig {
        cells: (2, 1),
        field: (200.0, 100.0),
        max_pending: 1,
        process,
        ..RouterConfig::default()
    };
    let in_rebuilt_cell_1 = |spec: &TaskSpec| (50.0..100.0).contains(&spec.device_pos.x);

    let router = serve_router(config(Some(ProcessShardConfig {
        shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
        deadline: Some(Duration::from_secs(60)),
        fault_plan: None,
    })))
    .unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    // After the split the rebuilt cells 0 and 1 are the two newest
    // children; cell 1 (`x` in 50..100) is spawned last.
    let outcomes = drive(&mut client, &trace, || {
        let children = shard_children();
        assert_eq!(children.len(), 3, "children: {children:?}");
        let victim = children[2].to_string();
        let killed = Command::new("kill").args(["-9", &victim]).status().unwrap();
        assert!(killed.success());
    });
    let shards = client.shards().unwrap();
    let fault_final = client.snapshot().unwrap();
    client.bye().unwrap();
    router.shutdown();
    assert_eq!(shards[1].restarts, 1, "the kill must hit rebuilt cell 1");
    assert_eq!(shards[0].restarts + shards[2].restarts, 0);

    // The kill is only noticed by the next request to that child, so
    // some cell-1 submissions may bounce; the rest of the history —
    // refusals by the replaced child's engine in cell 1's rect
    // included — must not reach the restarted child.
    let refused_before_split = (0..trace.len())
        .filter(|&i| trace[i].0 < 4 && in_rebuilt_cell_1(&trace[i].1))
        .filter(|&i| outcomes[i].as_deref() == Some("overload"))
        .count();
    assert!(
        refused_before_split > 0,
        "no refusal in cell 1's rect before the split"
    );

    // Reference: in-process, no faults, bounced submissions never made.
    let kept: Vec<usize> = (0..trace.len())
        .filter(|&i| outcomes[i].as_deref() != Some("unavailable"))
        .collect();
    let reference_trace: Vec<(usize, TaskSpec)> = kept.iter().map(|&i| trace[i]).collect();
    let router = serve_router(config(None)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let ref_outcomes = drive(&mut client, &reference_trace, || {});
    let ref_final = client.snapshot().unwrap();
    client.bye().unwrap();
    router.shutdown();

    let kept_outcomes: Vec<Option<String>> = kept.iter().map(|&i| outcomes[i].clone()).collect();
    assert_eq!(ref_outcomes, kept_outcomes);
    assert_eq!(fault_final, ref_final);
}
