//! Golden documents: a seeded 2×1 durable router session must reproduce,
//! byte for byte, the composite `SNAPSHOT` replies, checkpoint files and
//! write-ahead-log bytes committed under `tests/fixtures/golden/`. The
//! session has staged releases, submissions pending in the open slot,
//! automatic checkpoints, and a live `SPLIT` then `MERGE`; a second
//! router restores one of the committed documents and must render it,
//! from cold engines, to the same bytes and then finish the session on
//! the same final document. Every other byte-identity test compares two
//! renders of one build (restored == original), which a renderer that
//! changed the bytes on both sides would pass; these pin the bytes.

use std::path::{Path, PathBuf};

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::wal::{WalConfig, WalSync};
use haste_service::{serve_router, Client, RouterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// Slots whose open-slot `SNAPSHOT` is pinned, taken after the first
/// half of the slot's submissions.
const SNAPSHOT_SLOTS: [usize; 3] = [2, 6, 10];

/// `RESHARD SPLIT 0` opens this slot, before its submissions.
const SPLIT_SLOT: usize = 5;

/// `RESHARD MERGE 0 1` opens this slot, before its submissions.
const MERGE_SLOT: usize = 9;

/// Slots whose log and checkpoint files are pinned, after the slot's
/// submissions and before its `TICK`.
const FILES_SLOTS: [usize; 2] = [7, 8];

/// The halo-safe 200×100 layout of the reshard tests: chargers cluster
/// in `x ∈ [6, 26]`, `x ∈ [72, 78]` and `x ∈ [128, 172]`, and every task
/// sits within reach of one cluster only, so the field partitions along
/// `x = 100` and, after `SPLIT 0`, along `x = 50` too. Half the tasks are
/// staged releases.
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

/// A device x-coordinate near exactly one charger cluster.
fn cluster_x(k: usize, rng: &mut StdRng) -> f64 {
    match k % 4 {
        0 => 8.0 + rng.gen_range(0.0..20.0),
        1 => 66.0 + rng.gen_range(0.0..18.0),
        _ => 126.0 + rng.gen_range(0.0..46.0),
    }
}

/// Live submissions confined to the charger clusters, in slot order.
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

fn durable_config(dir: &Path) -> RouterConfig {
    RouterConfig {
        scheduling: OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        },
        cells: (2, 1),
        field: (200.0, 100.0),
        wal: Some(WalConfig {
            dir: dir.to_path_buf(),
            sync: WalSync::EveryTick,
            checkpoint_every: 8,
        }),
        ..RouterConfig::default()
    }
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haste-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts `bytes` equal the committed golden `name`, naming the first
/// line that differs.
fn check(name: &str, bytes: &[u8]) {
    let expected = golden(name);
    if bytes == expected.as_slice() {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(bytes),
        String::from_utf8_lossy(&expected),
    );
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || "a trailing line".to_string(),
            |i| format!("line {}", i + 1),
        );
    panic!(
        "{name}: {} bytes differ from the golden {} bytes at {line}",
        bytes.len(),
        expected.len()
    );
}

/// Drives slots `from..SLOTS` of the golden session, starting after the
/// first `skip` submissions of slot `from` (already submitted), and
/// checks every pinned document on the way. `files` is the router's WAL
/// directory when its log and checkpoint files follow the golden
/// session's own checkpoint history (a restored router's do not).
fn drive(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    from: usize,
    skip: usize,
    files: Option<&Path>,
) {
    for slot in from..SLOTS {
        let due: Vec<&TaskSpec> = trace
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, spec)| spec)
            .collect();
        let resumed = slot == from && skip > 0;
        if !resumed && slot == SPLIT_SLOT {
            assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
        }
        if !resumed && slot == MERGE_SLOT {
            assert_eq!(client.reshard_merge(0, 1).unwrap(), (2, 3));
        }
        let half = due.len() / 2;
        let first = if resumed { skip } else { 0 };
        for spec in &due[first..half.max(first)] {
            client.submit(spec).unwrap();
        }
        if !resumed && SNAPSHOT_SLOTS.contains(&slot) {
            assert!(half > 0, "slot {slot} needs pending submissions");
            check(
                &format!("slot{slot}-open.snap"),
                client.snapshot().unwrap().as_bytes(),
            );
        }
        for spec in &due[half.max(first)..] {
            client.submit(spec).unwrap();
        }
        if let Some(dir) = files.filter(|_| FILES_SLOTS.contains(&slot)) {
            for file in ["wal", "ckpt"] {
                let bytes = std::fs::read(dir.join(format!("default.{file}"))).unwrap();
                check(&format!("slot{slot}.{file}"), &bytes);
            }
        }
        client.tick(1).unwrap();
    }
    check("final.snap", client.snapshot().unwrap().as_bytes());
}

#[test]
fn a_durable_session_reproduces_the_golden_documents() {
    let scenario = splittable_scenario(83);
    let trace = splittable_trace(84, 48);
    let dir = scratch("session");
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    drive(&mut client, &trace, 0, 0, Some(&dir));
    client.bye().unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restored_golden_renders_cold_to_the_same_bytes() {
    // The slot-6 document sits after the split, mid-slot: restoring it
    // installs engines whose first render formats every task.
    let trace = splittable_trace(84, 48);
    let document = String::from_utf8(golden("slot6-open.snap")).unwrap();
    let dir = scratch("restored");
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.restore(&document).unwrap(), 6);
    // `RESTORE` installs its own checkpoint, rendered from the restored
    // engines, then `SNAPSHOT` renders them again.
    check(
        "slot6-open.snap",
        &std::fs::read(dir.join("default.ckpt")).unwrap(),
    );
    check("slot6-open.snap", client.snapshot().unwrap().as_bytes());
    let pending = trace.iter().filter(|(slot, _)| *slot == 6).count() / 2;
    drive(&mut client, &trace, 6, pending, None);
    client.bye().unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
