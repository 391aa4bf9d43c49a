//! A router forked at a mid-slot `SNAPSHOT` — by `RESTORE` into a fresh
//! router, or by a restart over its write-ahead log — must go on exactly
//! as the undisturbed one: every later reply, the `SHARDS?` topology and
//! the final `SNAPSHOT` bytes. What a fork carries over is the operation
//! log (rebuilt from the document's arrival runs, or recovered from the
//! log file), so these tests pin that every slot count the router reads —
//! the quota usage and the split trigger's per-cell load among them — is
//! derived from that log and nothing else. A tenant that recovery skips
//! leaves nothing behind in `EXPORT?` either.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, TimeGrid};
use haste_service::wal::{frame, WalConfig};
use haste_service::{serve_router, Client, RouterConfig, ShardInfo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// A 400×100 field on a 2×1 grid with localized replanning.
fn config(split_threshold: Option<u64>, wal: Option<&Path>) -> RouterConfig {
    RouterConfig {
        scheduling: OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        },
        cells: (2, 1),
        field: (400.0, 100.0),
        split_threshold,
        wal: wal.map(WalConfig::new),
        ..RouterConfig::default()
    }
}

fn scenario(chargers: &[(f64, f64)]) -> Scenario {
    Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, SLOTS),
        chargers
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Charger::new(i as u32, Vec2::new(x, y)))
            .collect(),
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .unwrap()
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haste-forks-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----------------------------------------------------------------------
// The pinned case: a mid-slot split, then a checkpoint
// ----------------------------------------------------------------------

fn pinned_spec(x: f64) -> TaskSpec {
    TaskSpec {
        device_pos: Vec2::new(x, 52.0),
        device_facing: Angle::from_radians(std::f64::consts::PI),
        end_slot: 5,
        required_energy: 1000.0,
        weight: 1.0,
    }
}

/// The session's shard count and `SNAPSHOT` after the fourth submission
/// and the `TICK` that closes the slot.
fn close_the_slot(client: &mut Client) -> (usize, String) {
    client.submit(&pinned_spec(247.0)).unwrap();
    client.tick(1).unwrap();
    (client.shards().unwrap().len(), client.snapshot().unwrap())
}

#[test]
fn a_mid_slot_split_then_a_checkpoint_forks_into_the_same_topology() {
    // Three submissions land in cell 1, cell 0 splits, and the document
    // taken then holds them in cell 2. A fourth submission makes four in
    // cell 2, over the trigger's three, whichever way the router got
    // there: all three runs split cell 2 at the TICK.
    let chargers = scenario(&[(30.0, 50.0), (160.0, 50.0), (240.0, 50.0), (360.0, 50.0)]);
    let drive = |client: &mut Client| {
        client.load(&chargers).unwrap();
        for x in [244.0, 245.0, 246.0] {
            client.submit(&pinned_spec(x)).unwrap();
        }
        assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
        client.snapshot().unwrap()
    };

    let reference = serve_router(config(Some(3), None)).unwrap();
    let mut client = Client::connect(reference.addr()).unwrap();
    let document = drive(&mut client);
    let expected = close_the_slot(&mut client);
    client.bye().unwrap();
    reference.shutdown();
    assert_eq!(expected.0, 4, "the undisturbed router splits cell 2");

    let fork = serve_router(config(Some(3), None)).unwrap();
    let mut client = Client::connect(fork.addr()).unwrap();
    client.restore(&document).unwrap();
    let restored = close_the_slot(&mut client);
    client.bye().unwrap();
    fork.shutdown();
    assert_eq!(restored.0, expected.0, "shards after a RESTORE fork");
    assert!(restored.1 == expected.1, "the restored SNAPSHOT differs");

    let dir = scratch("pinned");
    let router = serve_router(config(Some(3), Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    drive(&mut client);
    client.bye().unwrap();
    router.shutdown();
    let router = serve_router(config(Some(3), Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    let recovered = close_the_slot(&mut client);
    client.bye().unwrap();
    router.shutdown();
    assert_eq!(recovered.0, expected.0, "shards after a restart");
    assert!(recovered.1 == expected.1, "the recovered SNAPSHOT differs");
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Seeded fork harness
// ----------------------------------------------------------------------

/// One client operation of a generated session.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit(TaskSpec),
    Tick,
    Split(usize),
    Merge(usize, usize),
    Quota(u64),
}

/// Chargers 25 m from every boundary that halving the cells down to
/// 50 × 50 introduces, so most splits succeed and the deeper ones are
/// refused where a charger would straddle the new boundary.
const HARNESS_CHARGERS: [(f64, f64); 8] = [
    (25.0, 25.0),
    (75.0, 75.0),
    (125.0, 25.0),
    (175.0, 75.0),
    (225.0, 25.0),
    (275.0, 75.0),
    (325.0, 25.0),
    (375.0, 75.0),
];

/// A seeded session of `len` operations, with one in ten a `TICK`.
fn session(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slot = 0usize;
    (0..len)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=69 => Op::Submit(TaskSpec {
                device_pos: Vec2::new(rng.gen_range(1.0..399.0), rng.gen_range(1.0..99.0)),
                device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                end_slot: (slot + rng.gen_range(1..6usize)).min(SLOTS),
                required_energy: rng.gen_range(500.0..2000.0),
                weight: 1.0,
            }),
            70..=79 => {
                slot += 1;
                Op::Tick
            }
            80..=87 => Op::Split(rng.gen_range(0..4)),
            88..=95 => {
                let a = rng.gen_range(0..4);
                Op::Merge(a, a + 1)
            }
            _ => Op::Quota(rng.gen_range(2..6)),
        })
        .collect()
}

/// Applies one operation and returns its reply and the `SHARDS?` after
/// it, as text.
fn apply(client: &mut Client, op: Op) -> String {
    let reply = match op {
        Op::Submit(spec) => format!("{:?}", client.submit(&spec).map_err(|e| e.to_string())),
        Op::Tick => format!("{:?}", client.tick(1).map_err(|e| e.to_string())),
        Op::Split(cell) => format!(
            "{:?}",
            client.reshard_split(cell).map_err(|e| e.to_string())
        ),
        Op::Merge(a, b) => format!(
            "{:?}",
            client.reshard_merge(a, b).map_err(|e| e.to_string())
        ),
        Op::Quota(q) => format!(
            "{:?}",
            client.tenant("default", Some(q)).map_err(|e| e.to_string())
        ),
    };
    let shards: Vec<ShardInfo> = client.shards().unwrap();
    format!("{op:?} -> {reply}; {shards:?}")
}

/// The replies of `ops`, then the final `SNAPSHOT`.
fn run_on(client: &mut Client, ops: &[Op]) -> (Vec<String>, String) {
    let replies = ops.iter().map(|&op| apply(client, op)).collect();
    (replies, client.snapshot().unwrap())
}

/// The quota the last `Quota` operation of `ops` set, if any.
fn quota_after(ops: &[Op]) -> Option<u64> {
    ops.iter().rev().find_map(|op| match op {
        Op::Quota(q) => Some(*q),
        _ => None,
    })
}

/// Forks one seeded session at a `SNAPSHOT` after its `fork`-th
/// operation, and returns a description of the first way a fork parts
/// from the undisturbed router, if any.
fn fork_diverges(seed: u64) -> Option<String> {
    let ops = session(seed, 64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    // Half the forks come right after a reshard, where the open slot's
    // submissions may have changed cells.
    let after_reshard: Vec<usize> = (8..48)
        .filter(|&k| matches!(ops[k - 1], Op::Split(_) | Op::Merge(..)))
        .collect();
    let fork = if rng.gen_bool(0.5) && !after_reshard.is_empty() {
        after_reshard[rng.gen_range(0..after_reshard.len())]
    } else {
        rng.gen_range(8..48)
    };
    // The durable run restarts this many operations past the fork, so its
    // log tail has records to replay on top of the checkpoint.
    let tail = rng.gen_range(0..4usize);
    let chargers = scenario(&HARNESS_CHARGERS);
    let (before, after) = ops.split_at(fork);

    let reference = serve_router(config(Some(2), None)).unwrap();
    let mut client = Client::connect(reference.addr()).unwrap();
    client.load(&chargers).unwrap();
    let prefix: Vec<String> = before.iter().map(|&op| apply(&mut client, op)).collect();
    let document = client.snapshot().unwrap();
    let expected = run_on(&mut client, after);
    client.bye().unwrap();
    reference.shutdown();

    // RESTORE into a fresh router; the document carries no quota.
    let copy = serve_router(config(Some(2), None)).unwrap();
    let mut client = Client::connect(copy.addr()).unwrap();
    if let Some(q) = quota_after(before) {
        client.tenant("default", Some(q)).unwrap();
    }
    client.restore(&document).unwrap();
    let restored = run_on(&mut client, after);
    client.bye().unwrap();
    copy.shutdown();

    // The durable router, restarted over its log `tail` ops past the
    // checkpoint the fork's SNAPSHOT took.
    let dir = scratch(&format!("seed-{seed}"));
    let router = serve_router(config(Some(2), Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&chargers).unwrap();
    let durable_prefix: Vec<String> = before.iter().map(|&op| apply(&mut client, op)).collect();
    let durable_document = client.snapshot().unwrap();
    let (logged, resumed) = after.split_at(tail.min(after.len()));
    let mut durable: Vec<String> = logged.iter().map(|&op| apply(&mut client, op)).collect();
    client.bye().unwrap();
    router.shutdown();
    let router = serve_router(config(Some(2), Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    let (rest, durable_final) = run_on(&mut client, resumed);
    durable.extend(rest);
    client.bye().unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if durable_prefix != prefix || durable_document != document {
        return Some("the durable router differs before the fork".to_string());
    }
    for (name, (replies, last)) in [
        ("RESTORE", &restored),
        ("restart", &(durable, durable_final)),
    ] {
        if let Some(k) = (0..after.len()).find(|&k| replies.get(k) != expected.0.get(k)) {
            return Some(format!(
                "{name} fork at op {fork}, op {}: {:?} vs undisturbed {:?}",
                fork + k,
                replies.get(k),
                expected.0.get(k)
            ));
        }
        if *last != expected.1 {
            return Some(format!("{name} fork at op {fork}: final SNAPSHOT differs"));
        }
    }
    None
}

#[test]
fn seeded_forks_at_a_mid_slot_snapshot_match_the_undisturbed_router() {
    let diverged: Vec<String> = (1..=24u64)
        .filter_map(|seed| fork_diverges(seed).map(|why| format!("seed {seed}: {why}")))
        .collect();
    assert!(diverged.is_empty(), "{diverged:#?}");
}

// ----------------------------------------------------------------------
// A tenant recovery skips
// ----------------------------------------------------------------------

#[test]
fn a_tenant_that_recovery_skips_exports_no_shard_gauge() {
    let dir = scratch("skipped");
    let router = serve_router(config(None, Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.tenant("t1", None).unwrap();
    client
        .load(&scenario(&[(30.0, 50.0), (360.0, 50.0)]))
        .unwrap();
    client.bye().unwrap();
    router.shutdown();
    // A logged acceptance the engine refuses on replay (it ends in the
    // slot it was released in): recovery skips the tenant.
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("t1.wal"))
        .unwrap()
        .write_all(&frame(b"submit 150 50 0 0 1000 1"))
        .unwrap();

    let router = serve_router(config(None, Some(&dir))).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    let export = haste_metrics::Snapshot::parse(&client.export().unwrap()).unwrap();
    client.tenant("t1", None).unwrap();
    let clock = client.clock().unwrap_err();
    client.bye().unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(clock.code(), Some("unknown-tenant"));
    assert_eq!(
        export.get("haste_router_tenant_shards", &[("tenant", "t1")]),
        None
    );
    assert_eq!(
        export.get("haste_router_tenant_shards", &[("tenant", "default")]),
        Some(&haste_metrics::Value::Gauge(2))
    );
}
