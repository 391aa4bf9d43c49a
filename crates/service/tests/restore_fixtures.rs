//! `RESTORE` robustness: truncated or corrupted composite snapshot
//! documents must produce a structured `ERR bad-snapshot` — never a
//! panic, never a partially restored router. Driven by the static
//! fixtures in `tests/fixtures/restore/`, an exhaustive truncation sweep
//! of a real composite document, and a spliced inconsistent cut.

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::{parse_composite, render_composite, serve_router, Client, RouterConfig};
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

fn router_config() -> RouterConfig {
    RouterConfig {
        scheduling: OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        },
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    }
}

/// Drives a session up to (not through) `to_slot` and returns the client.
fn drive_to(client: &mut Client, trace: &[(usize, TaskSpec)], to_slot: usize) {
    let mut next = 0;
    for slot in 0..to_slot {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
}

/// `render_composite(parse_composite(text)) == text` is asserted against
/// live snapshots before any spliced document is trusted, so corruption
/// built on top of the round-trip corrupts exactly what it means to.
fn render(c: &haste_service::CompositeSnapshot) -> String {
    render_composite(c)
}

/// The full live-state fingerprint a failed RESTORE must not perturb.
fn fingerprint(client: &mut Client) -> (usize, haste_model::Schedule, u64, u64, String) {
    let (clock, _open) = client.clock().unwrap();
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    let snapshot = client.snapshot().unwrap();
    (
        clock,
        schedule,
        utility.to_bits(),
        relaxed.to_bits(),
        snapshot,
    )
}

/// Every fixture with the reason it must fail for: a substring of its
/// `ERR bad-snapshot` message. Pinning the reason keeps each fixture
/// testing its own defect, so none can quietly start failing on an
/// earlier line instead (its version line, say).
const FIXTURE_REASONS: &[(&str, &str)] = &[
    ("bad-cell-rect.snap", "bad cell rect `0 0 100`"),
    ("bad-field-line.snap", "bad field line"),
    ("bad-grid-line.snap", "grid must be positive"),
    ("bad-magic.snap", "missing magic line"),
    ("bad-map-line.snap", "bad map version `x`"),
    ("bad-op-line.snap", "bad arrivals line `0x1 1x`"),
    ("bad-scenario.snap", "bad embedded scenario"),
    ("bad-shard-header.snap", "bad shard header `shard 1 0`"),
    ("bad-tenant-line.snap", "bad tenant line"),
    ("cell-outside-field.snap", "bad partition geometry"),
    ("corrupt-embedded-shard.snap", "shard 0: snapshot line"),
    ("empty.snap", "missing magic line"),
    // Counts far past the document, which once sized an allocation that
    // aborted the router, or wrapped an index and panicked it.
    (
        "huge-block-count.snap",
        "announces 18446744073709551615 lines",
    ),
    ("huge-cells-count.snap", "truncated cells section"),
    (
        "huge-schedule-dims.snap",
        "embedded schedule: line 2: dimensions exceed the document",
    ),
    (
        "huge-staged-count.snap",
        "shard 0: snapshot line 17: expected a `task` line",
    ),
    ("nonfinite-op.snap", "device facing must be finite"),
    (
        "run-past-shard-tasks.snap",
        "the arrivals of slot 0 name more tasks than shard 0 holds",
    ),
    ("task-in-another-cell.snap", "shard 0 task 0 lies in cell 1"),
    (
        "ticks-past-horizon.snap",
        "history ticks past the horizon: clock 13 of 12 slots",
    ),
    (
        "trailing-garbage.snap",
        "trailing lines after the last shard",
    ),
    ("truncated-after-magic.snap", "truncated before tenant"),
    ("truncated-shard-section.snap", "truncated shard 0 snapshot"),
    (
        "unaccounted-shard-task.snap",
        "shard 0 task 0 is accounted for by no arrival run",
    ),
    (
        "v3-document.snap",
        "missing magic line `# haste-router snapshot v4`",
    ),
    ("zero-cells.snap", "cells must be positive"),
];

#[test]
fn corrupted_fixture_documents_error_and_leave_live_state_untouched() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(11)).unwrap();
    drive_to(&mut client, &submission_trace(12, 16), 5);
    let before = fingerprint(&mut client);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/restore");
    let mut fixtures: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".snap"))
        .collect();
    fixtures.sort();
    let listed: Vec<&str> = FIXTURE_REASONS.iter().map(|(name, _)| *name).collect();
    assert_eq!(fixtures, listed, "every fixture needs a pinned reason");

    for (fixture, reason) in FIXTURE_REASONS {
        let text = std::fs::read_to_string(dir.join(fixture)).unwrap();
        let err = client
            .restore(&text)
            .expect_err(&format!("fixture {fixture} must be rejected"));
        assert_eq!(
            err.code(),
            Some("bad-snapshot"),
            "fixture {fixture}: wrong error: {err}"
        );
        assert!(
            err.to_string().contains(reason),
            "fixture {fixture}: expected `{reason}`, got: {err}"
        );
        // Nothing restored, nothing lost: the live session is bitwise
        // intact after every rejected document.
        assert_eq!(fingerprint(&mut client), before, "{fixture}");
    }

    // The router is still fully serviceable: the session continues, and
    // a *valid* document still restores exactly.
    client.tick(1).unwrap();
    assert_eq!(client.restore(&before.4).unwrap(), before.0);
    assert_eq!(fingerprint(&mut client), before);
    client.bye().unwrap();
    router.shutdown();
}

#[test]
fn every_truncation_of_a_real_composite_is_rejected() {
    // A real mid-session composite document...
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(21)).unwrap();
    drive_to(&mut client, &submission_trace(22, 16), 6);
    let snapshot = client.snapshot().unwrap();
    client.bye().unwrap();
    router.shutdown();

    // ...restored into a fresh router only when whole: every proper
    // prefix (drop the last k lines) must fail with `bad-snapshot`, and
    // after the sweep the intact document must still restore exactly.
    let lines: Vec<&str> = snapshot.lines().collect();
    let victim = serve_router(router_config()).unwrap();
    let mut target = Client::connect(victim.addr()).unwrap();
    for keep in 0..lines.len() {
        let mut truncated = lines[..keep].join("\n");
        if keep > 0 {
            truncated.push('\n');
        }
        let err = target
            .restore(&truncated)
            .expect_err(&format!("prefix of {keep} lines must be rejected"));
        assert_eq!(
            err.code(),
            Some("bad-snapshot"),
            "prefix of {keep} lines: wrong error: {err}"
        );
    }
    let clock = target.restore(&snapshot).unwrap();
    assert_eq!(clock, 6);
    assert_eq!(target.snapshot().unwrap(), snapshot);
    target.bye().unwrap();
    victim.shutdown();
}

#[test]
fn an_inconsistent_cut_spliced_from_two_clocks_is_rejected() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&partitionable_scenario(31)).unwrap();
    let trace = submission_trace(32, 16);
    drive_to(&mut client, &trace, 4);
    let early = client.snapshot().unwrap();
    let mut next = trace.partition_point(|(slot, _)| *slot < 4);
    for slot in 4..7 {
        while next < trace.len() && trace[next].0 == slot {
            client.submit(&trace[next].1).unwrap();
            next += 1;
        }
        client.tick(1).unwrap();
    }
    let late = client.snapshot().unwrap();
    let before = fingerprint(&mut client);

    // The render helper must reproduce live documents byte-for-byte, or
    // the splice below would not be testing what it claims to.
    let early_parsed = parse_composite(&early).unwrap();
    let late_parsed = parse_composite(&late).unwrap();
    assert_eq!(render(&early_parsed), early);
    assert_eq!(render(&late_parsed), late);

    // Shard 0 at clock 4, shard 1 at clock 7: each section is valid on
    // its own, but together they are not a consistent cut.
    let mut spliced = early_parsed.clone();
    spliced.shards[1] = late_parsed.shards[1].clone();
    let err = client.restore(&render(&spliced)).unwrap_err();
    assert_eq!(err.code(), Some("bad-snapshot"));
    assert_eq!(fingerprint(&mut client), before);

    // Both genuine documents still restore: rejecting the splice was
    // about consistency, not formatting.
    assert_eq!(client.restore(&late).unwrap(), 7);
    assert_eq!(client.restore(&early).unwrap(), 4);
    client.bye().unwrap();
    router.shutdown();
}
