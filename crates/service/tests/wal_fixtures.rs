//! WAL robustness: a damaged write-ahead log must never panic recovery
//! and never block a boot — scanning truncates at the last valid frame
//! boundary and the router resumes from whatever survived. Driven by an
//! exhaustive truncation sweep of a real log, single-bit flips across
//! every byte, spliced valid-CRC-but-unparsable records, and end-to-end
//! boots of whole damaged directories — the durability mirror of
//! `restore_fixtures.rs`.
//!
//! Also pins the satellite invariant that `SNAPSHOT` replies and WAL
//! checkpoints share one composite-render path: the `<tenant>.ckpt`
//! file on disk is byte-identical to the reply the client received.

use std::path::{Path, PathBuf};

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::wal::{frame, recover_dir, scan_wal, WalConfig, WalRecord, WAL_MAGIC};
use haste_service::{serve_router, Client, RouterConfig};
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

fn durable_config(dir: &Path) -> RouterConfig {
    RouterConfig {
        scheduling: OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        },
        cells: (2, 1),
        field: (200.0, 100.0),
        wal: Some(WalConfig::new(dir)),
        ..RouterConfig::default()
    }
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

/// A fresh per-test scratch directory under the system temp dir (the
/// workspace has no tempfile crate; the pid suffix keeps concurrent
/// `cargo test` processes apart, the tag keeps concurrent tests apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haste-wal-fixtures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one real durable session to slot 8 and returns its WAL
/// directory plus the clean log and checkpoint bytes it left on disk.
fn seeded_wal(tag: &str, seed: u64) -> (PathBuf, Vec<u8>, Vec<u8>) {
    let dir = scratch(tag);
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(seed)).unwrap();
    drive_span(&mut client, &submission_trace(seed + 1, 16), 0, 8);
    client.bye().unwrap();
    router.shutdown();
    let log = std::fs::read(dir.join("default.wal")).unwrap();
    let ckpt = std::fs::read(dir.join("default.ckpt")).unwrap();
    (dir, log, ckpt)
}

/// Byte ranges of a clean log's regions: the header, then each frame.
fn regions(log: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = vec![(0, WAL_MAGIC.len())];
    let mut offset = WAL_MAGIC.len();
    while offset < log.len() {
        let len = u32::from_be_bytes(log[offset..offset + 4].try_into().unwrap()) as usize;
        bounds.push((offset, offset + 8 + len));
        offset += 8 + len;
    }
    assert_eq!(offset, log.len(), "seed log must itself be clean");
    bounds
}

/// Installs one tenant's damaged files into `dir` (a missing `log`
/// models the crash-right-after-checkpoint shape).
fn install(dir: &Path, log: Option<&[u8]>, ckpt: &[u8]) {
    for name in ["default.wal", "default.ckpt", "default.ckpt.tmp"] {
        let _ = std::fs::remove_file(dir.join(name));
    }
    std::fs::write(dir.join("default.ckpt"), ckpt).unwrap();
    if let Some(bytes) = log {
        std::fs::write(dir.join("default.wal"), bytes).unwrap();
    }
}

#[test]
fn recovery_survives_truncation_at_every_byte() {
    let (_dir, log, ckpt) = seeded_wal("trunc", 41);
    let bounds = regions(&log);
    // Header + 8 ticks + the trace entries that landed before slot 8:
    // a meaty sweep, not a toy log.
    assert!(bounds.len() >= 1 + 8 + 4, "log too small: {}", bounds.len());

    let victim = scratch("trunc-victim");
    for cut in 0..=log.len() {
        install(&victim, Some(&log[..cut]), &ckpt);
        let recovered = recover_dir(&victim)
            .unwrap_or_else(|e| panic!("recovery must survive truncation at byte {cut}: {e}"));
        assert_eq!(recovered.len(), 1, "cut {cut}");
        let tenant = &recovered[0];
        assert_eq!(tenant.tenant, "default", "cut {cut}");

        // The valid prefix ends at the last region boundary at or before
        // the cut — never past it, and never mid-frame.
        let expected_valid = if cut < WAL_MAGIC.len() {
            0
        } else {
            bounds
                .iter()
                .map(|&(_, end)| end)
                .filter(|&end| end <= cut)
                .max()
                .unwrap_or(0)
        };
        assert_eq!(tenant.valid_len, expected_valid, "cut {cut}");

        // The replayable tail is exactly the whole frames before the cut.
        let whole_frames = bounds
            .iter()
            .skip(1)
            .filter(|&&(_, end)| end <= cut)
            .count();
        assert_eq!(tenant.tail.len(), whole_frames, "cut {cut}");

        // A cut on a region boundary looks like a clean (shorter) log;
        // anywhere else the scan must say why it stopped.
        let on_boundary = cut >= WAL_MAGIC.len() && tenant.valid_len == cut;
        assert_eq!(tenant.truncated.is_none(), on_boundary, "cut {cut}");
    }
}

#[test]
fn a_single_bit_flip_truncates_at_its_frame() {
    let (_dir, log, _ckpt) = seeded_wal("flip", 43);
    let bounds = regions(&log);
    assert!(scan_wal(&log).truncated.is_none());

    for pos in 0..log.len() {
        let region = bounds
            .iter()
            .position(|&(start, end)| pos >= start && pos < end)
            .unwrap();
        for bit in 0..8 {
            let mut mutated = log.clone();
            mutated[pos] ^= 1u8 << bit;
            let scan = scan_wal(&mutated);
            // A flip in the header invalidates everything; a flip inside
            // frame k (length, CRC or payload) cuts exactly at k's start.
            let expected_valid = if region == 0 { 0 } else { bounds[region].0 };
            let expected_records = region.saturating_sub(1);
            assert_eq!(scan.valid_len, expected_valid, "pos {pos} bit {bit}");
            assert_eq!(scan.records.len(), expected_records, "pos {pos} bit {bit}");
            assert!(scan.truncated.is_some(), "pos {pos} bit {bit}");
        }
    }
}

#[test]
fn spliced_and_garbage_suffixed_logs_truncate_at_the_splice() {
    let (_dir, log, ckpt) = seeded_wal("splice", 47);
    let bounds = regions(&log);
    let clean_records = bounds.len() - 1;

    // A frame whose CRC is perfectly valid but whose payload is outside
    // the record grammar, spliced between two genuine frames with the
    // rest of the real log behind it: the scan must stop at the splice —
    // a valid checksum does not make bytes a record.
    let splice_at = bounds[bounds.len() / 2].0;
    let pre_splice_records = bounds.len() / 2 - 1;
    let mut spliced = log[..splice_at].to_vec();
    spliced.extend_from_slice(&frame(b"gibberish beyond the record grammar"));
    spliced.extend_from_slice(&log[splice_at..]);
    let scan = scan_wal(&spliced);
    assert_eq!(scan.valid_len, splice_at);
    assert_eq!(scan.records.len(), pre_splice_records);
    let reason = scan.truncated.expect("the splice must be reported");
    assert!(reason.contains("unparsable"), "wrong reason: {reason}");

    // Raw garbage appended to a clean log: everything real survives.
    let mut garbaged = log.clone();
    garbaged.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42]);
    let scan = scan_wal(&garbaged);
    assert_eq!(scan.valid_len, log.len());
    assert_eq!(scan.records.len(), clean_records);
    assert!(scan.truncated.is_some());

    // Directory-level recovery replays exactly the pre-splice prefix.
    let victim = scratch("splice-victim");
    install(&victim, Some(&spliced), &ckpt);
    let recovered = recover_dir(&victim).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].tail.len(), pre_splice_records);
    assert_eq!(recovered[0].valid_len, splice_at);
}

#[test]
fn damaged_directories_boot_and_resume_serving() {
    let (dir, log, ckpt) = seeded_wal("boot", 53);
    let bounds = regions(&log);

    let torn = log[..log.len() - 3].to_vec();
    let mut flipped = log.clone();
    flipped[log.len() / 2] ^= 0x10;
    let splice_at = bounds[bounds.len() / 2].0;
    let mut spliced = log[..splice_at].to_vec();
    spliced.extend_from_slice(&frame(b"not a record"));
    spliced.extend_from_slice(&log[splice_at..]);

    let cases: Vec<(&str, Option<Vec<u8>>)> = vec![
        ("empty-log", Some(Vec::new())),
        ("header-only", Some(WAL_MAGIC.to_vec())),
        ("torn-mid-frame", Some(torn)),
        ("flipped-bit", Some(flipped)),
        ("spliced-record", Some(spliced)),
        ("missing-log", None),
    ];
    for (tag, damaged) in &cases {
        let case_dir = scratch(&format!("boot-{tag}"));
        install(&case_dir, damaged.as_deref(), &ckpt);
        // The checkpoint is the LOAD-time document (clock 0), so the
        // recovered clock is the number of ticks in the surviving tail.
        let expected_clock = damaged.as_deref().map_or(0, |bytes| {
            scan_wal(bytes)
                .records
                .iter()
                .filter(|record| matches!(record, WalRecord::Tick))
                .count()
        });

        let router = serve_router(durable_config(&case_dir))
            .unwrap_or_else(|e| panic!("{tag}: recovery must boot: {e}"));
        let mut client = Client::connect(router.addr()).unwrap();
        assert_eq!(client.clock().unwrap().0, expected_clock, "{tag}");

        // Not just up — serving: a fresh submission and a tick land.
        client
            .submit(&TaskSpec {
                device_pos: Vec2::new(40.0, 50.0),
                device_facing: Angle::from_radians(0.0),
                end_slot: SLOTS,
                required_energy: 800.0,
                weight: 1.0,
            })
            .unwrap_or_else(|e| panic!("{tag}: recovered router must accept: {e}"));
        client.tick(1).unwrap();
        assert_eq!(client.clock().unwrap().0, expected_clock + 1, "{tag}");
        client.bye().unwrap();
        router.shutdown();
    }

    // A stale `.ckpt.tmp` (crash mid-checkpoint-write) is swept away at
    // recovery and the fully written pair boots with nothing lost.
    std::fs::write(dir.join("default.ckpt.tmp"), b"half-written checkpoint").unwrap();
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.clock().unwrap().0, 8);
    assert!(
        !dir.join("default.ckpt.tmp").exists(),
        "recovery must remove the stale temp checkpoint"
    );
    client.bye().unwrap();
    router.shutdown();
}

/// Only composite v4 is read. A durable router booting over a directory
/// whose checkpoint is a v3 document skips that tenant — warning, files
/// left in place untouched — and still recovers every other tenant.
#[test]
fn a_v3_checkpoint_is_skipped_and_its_files_are_left_in_place() {
    let dir = scratch("v3-checkpoint");
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.tenant("acme", None).unwrap();
    client.load(&partitionable_scenario(61)).unwrap();
    drive_span(&mut client, &submission_trace(62, 12), 0, 4);
    client.bye().unwrap();
    router.shutdown();

    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/restore");
    let v3 = std::fs::read(fixtures.join("v3-document.snap")).unwrap();
    assert!(v3.starts_with(b"# haste-router snapshot v3\n"));
    std::fs::write(dir.join("default.ckpt"), &v3).unwrap();
    std::fs::write(dir.join("default.wal"), WAL_MAGIC).unwrap();

    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.clock().unwrap_err().code(), Some("no-scenario"));
    client.tenant("acme", None).unwrap();
    assert_eq!(client.clock().unwrap().0, 4);
    client.bye().unwrap();
    router.shutdown();
    assert_eq!(std::fs::read(dir.join("default.ckpt")).unwrap(), v3);
    assert_eq!(std::fs::read(dir.join("default.wal")).unwrap(), WAL_MAGIC);
}

#[test]
fn snapshot_replies_and_checkpoints_share_one_render_path() {
    let dir = scratch("pin");
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(61)).unwrap();
    let trace = submission_trace(62, 16);
    drive_span(&mut client, &trace, 0, 5);

    // The checkpoint on disk is the very reply the client received —
    // one composite-render path, pinned byte for byte.
    let reply = client.snapshot().unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join("default.ckpt")).unwrap(),
        reply
    );
    // ...and the log collapsed back to its bare header behind it.
    assert_eq!(std::fs::read(dir.join("default.wal")).unwrap(), WAL_MAGIC);

    // Still true later in the run, against a different document.
    drive_span(&mut client, &trace, 5, 9);
    let later = client.snapshot().unwrap();
    assert_ne!(later, reply);
    assert_eq!(
        std::fs::read_to_string(dir.join("default.ckpt")).unwrap(),
        later
    );
    client.bye().unwrap();
    router.shutdown();
}

#[test]
fn a_logged_non_finite_submit_truncates_and_the_tenant_survives_restarts() {
    let dir = scratch("nonfinite");
    let router = serve_router(durable_config(&dir)).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(67)).unwrap();
    drive_span(&mut client, &submission_trace(68, 16), 0, 6);
    let fingerprint = |client: &mut Client| {
        let (utility, relaxed) = client.utility().unwrap();
        (
            client.clock().unwrap(),
            utility.to_bits(),
            relaxed.to_bits(),
        )
    };
    let before = fingerprint(&mut client);
    client.bye().unwrap();
    router.shutdown();

    // A CRC-valid frame whose `submit` the front door and `RESTORE` both
    // refuse (a NaN facing) is corruption, not a record: recovery cuts
    // the log there. Each restart then checkpoints, so the second boot
    // recovers from a document the first one wrote.
    let path = dir.join("default.wal");
    let mut log = std::fs::read(&path).unwrap();
    log.extend_from_slice(&frame(b"submit 40 50 NaN 11 1000 1"));
    std::fs::write(&path, &log).unwrap();

    for restart in 1..=2 {
        let router = serve_router(durable_config(&dir)).unwrap();
        let mut client = Client::connect(router.addr()).unwrap();
        assert_eq!(fingerprint(&mut client), before, "restart {restart}");
        client.snapshot().unwrap();
        client.bye().unwrap();
        router.shutdown();
    }
}
