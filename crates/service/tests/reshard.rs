//! Live elastic-resharding tests over real loopback TCP: a mid-run cell
//! split (and the merge that inverts it) must leave the global schedule
//! and utility bit-identical to an undisturbed single-engine run, in and
//! out of process; concurrent tenants must be bit-identical to each
//! running alone; quotas cap per-slot admissions; and the `SHARDS?` line
//! grammar (tenant and routing-map fields included) is pinned.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use haste_service::{serve, serve_router, Client, ProcessShardConfig, RouterConfig, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 12;

/// Localized replanning keeps Alg. 3 negotiations inside a partition
/// cell — the precondition for the router's bitwise contract, which the
/// migration must preserve across every topology it serves.
fn localized() -> OnlineConfig {
    OnlineConfig {
        localized: true,
        ..OnlineConfig::default()
    }
}

/// A 200×100 field that stays partitionable across the whole reshard
/// lineage: the base 2×1 boundary at `x = 100` *and* the `x = 50`
/// boundary a `RESHARD SPLIT 0` introduces. Chargers cluster in
/// `x ∈ [6, 26]` and `x ∈ [72, 78]` (cell 0 — both ≥ 22 m from `x = 50`
/// and `x = 100`, clear of the 20 m halo) and `x ∈ [128, 172]` (cell 1);
/// tasks sit within reach of exactly one cluster, so no reachable set
/// spans a boundary before or after the split.
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
/// [`splittable_scenario`] — never within 20 m of another cluster, on
/// either side of `x = 50` or `x = 100`.
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

/// Submits each spec in its slot and ticks from `from` up to (not
/// including) slot `to`.
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

/// Reads back the session's final state.
fn finish(client: &mut Client) -> (haste_model::Schedule, f64, f64) {
    let schedule = client.schedule().unwrap();
    let (utility, relaxed) = client.utility().unwrap();
    (schedule, utility, relaxed)
}

/// The undisturbed reference: one engine owning the whole field.
fn single_engine_run(
    scenario: &Scenario,
    trace: &[(usize, TaskSpec)],
) -> (haste_model::Schedule, f64, f64) {
    let single = serve(ServerConfig {
        scheduling: localized(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(single.addr()).unwrap();
    client.load(scenario).unwrap();
    drive_span(&mut client, trace, 0, SLOTS);
    let result = finish(&mut client);
    client.bye().unwrap();
    single.shutdown();
    result
}

fn router_config() -> RouterConfig {
    RouterConfig {
        scheduling: localized(),
        cells: (2, 1),
        field: (200.0, 100.0),
        ..RouterConfig::default()
    }
}

fn process_router_config() -> RouterConfig {
    RouterConfig {
        process: Some(ProcessShardConfig {
            shardd: Some(PathBuf::from(env!("CARGO_BIN_EXE_haste-shardd"))),
            deadline: Some(Duration::from_secs(60)),
            fault_plan: None,
        }),
        ..router_config()
    }
}

/// Drives a router session with a `SPLIT 0` after slot 6 and the
/// inverting `MERGE 0 1` after slot 9, asserting the topology reports
/// (shard count, routing-map version, owning tenant) at each stage.
fn drive_with_split_and_merge(
    client: &mut Client,
    trace: &[(usize, TaskSpec)],
    tenant: &str,
) -> (haste_model::Schedule, f64, f64) {
    drive_span(client, trace, 0, 6);
    assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
    let shards = client.shards().unwrap();
    let mine: Vec<_> = shards.iter().filter(|s| s.tenant == tenant).collect();
    assert_eq!(mine.len(), 3);
    assert!(mine.iter().all(|s| s.map_version == 2));
    assert!(mine.iter().all(|s| s.slot == 6));

    drive_span(client, trace, 6, 9);
    assert_eq!(client.reshard_merge(0, 1).unwrap(), (2, 3));
    let shards = client.shards().unwrap();
    let mine: Vec<_> = shards.iter().filter(|s| s.tenant == tenant).collect();
    assert_eq!(mine.len(), 2);
    assert!(mine.iter().all(|s| s.map_version == 3));

    drive_span(client, trace, 9, SLOTS);
    finish(client)
}

#[test]
fn live_split_then_merge_matches_single_engine_bit_for_bit() {
    let scenario = splittable_scenario(71);
    let trace = splittable_trace(72, 24);
    let (ref_schedule, ref_utility, ref_relaxed) = single_engine_run(&scenario, &trace);

    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed) = drive_with_split_and_merge(&mut client, &trace, "default");
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
}

#[test]
fn out_of_process_live_split_and_merge_match_single_engine_bit_for_bit() {
    let scenario = splittable_scenario(81);
    let trace = splittable_trace(82, 20);
    let (ref_schedule, ref_utility, ref_relaxed) = single_engine_run(&scenario, &trace);

    let router = serve_router(process_router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&scenario).unwrap();
    let (schedule, utility, relaxed) = drive_with_split_and_merge(&mut client, &trace, "default");
    client.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule, ref_schedule);
    assert_eq!(utility.to_bits(), ref_utility.to_bits());
    assert_eq!(relaxed.to_bits(), ref_relaxed.to_bits());
}

#[test]
fn concurrent_tenants_are_bit_identical_to_running_alone() {
    let scenario_a = splittable_scenario(91);
    let trace_a = splittable_trace(92, 18);
    let scenario_b = splittable_scenario(93);
    let trace_b = splittable_trace(94, 18);

    // Solo references. A mid-run split does not change bits (the test
    // above), so one undisturbed single-engine run per tenant covers
    // both the resharded and the untouched tenant.
    let (ref_schedule_a, ref_utility_a, _) = single_engine_run(&scenario_a, &trace_a);
    let (ref_schedule_b, ref_utility_b, _) = single_engine_run(&scenario_b, &trace_b);

    // One router, two tenants, interleaved slot by slot; tenant `alpha`
    // additionally splits its hot cell mid-run while `beta` keeps
    // serving undisturbed.
    let router = serve_router(router_config()).unwrap();
    let mut alpha = Client::connect(router.addr()).unwrap();
    alpha.tenant("alpha", None).unwrap();
    alpha.load(&scenario_a).unwrap();
    let mut beta = Client::connect(router.addr()).unwrap();
    beta.tenant("beta", None).unwrap();
    beta.load(&scenario_b).unwrap();

    for slot in 0..SLOTS {
        if slot == 6 {
            assert_eq!(alpha.reshard_split(0).unwrap(), (3, 2));
        }
        drive_span(&mut alpha, &trace_a, slot, slot + 1);
        drive_span(&mut beta, &trace_b, slot, slot + 1);
    }

    // Both fleets coexist under their own tenants.
    let shards = alpha.shards().unwrap();
    assert_eq!(shards.iter().filter(|s| s.tenant == "alpha").count(), 3);
    assert_eq!(shards.iter().filter(|s| s.tenant == "beta").count(), 2);

    let (schedule_a, utility_a, _) = finish(&mut alpha);
    let (schedule_b, utility_b, _) = finish(&mut beta);
    alpha.bye().unwrap();
    beta.bye().unwrap();
    router.shutdown();

    assert_eq!(schedule_a, ref_schedule_a);
    assert_eq!(utility_a.to_bits(), ref_utility_a.to_bits());
    assert_eq!(schedule_b, ref_schedule_b);
    assert_eq!(utility_b.to_bits(), ref_utility_b.to_bits());
}

#[test]
fn tenant_quota_caps_accepted_submissions_per_slot() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    // Selecting never creates: the quota parks on the session until the
    // LOAD that creates the tenant, and every other verb refuses.
    client.tenant("acme", Some(2)).unwrap();
    assert_eq!(client.clock().unwrap_err().code(), Some("unknown-tenant"));
    client.load(&splittable_scenario(101)).unwrap();

    let spec = |x: f64| TaskSpec {
        device_pos: Vec2::new(x, 50.0),
        device_facing: Angle::from_radians(0.0),
        end_slot: 6,
        required_energy: 800.0,
        weight: 1.0,
    };
    client.submit(&spec(10.0)).unwrap();
    client.submit(&spec(140.0)).unwrap();
    // The quota counts *accepted* submissions per open slot, across all
    // cells of the tenant.
    assert_eq!(
        client.submit(&spec(12.0)).unwrap_err().code(),
        Some("quota")
    );
    // The counter resets when the slot closes.
    client.tick(1).unwrap();
    client.submit(&spec(14.0)).unwrap();

    // Re-binding without a quota leaves the cap unchanged.
    client.tenant("acme", None).unwrap();
    client.submit(&spec(142.0)).unwrap();
    assert_eq!(
        client.submit(&spec(16.0)).unwrap_err().code(),
        Some("quota")
    );

    client.bye().unwrap();
    router.shutdown();

    // A single-engine daemon serves only `default`.
    let single = serve(ServerConfig::default()).unwrap();
    let mut mono = Client::connect(single.addr()).unwrap();
    mono.tenant("default", None).unwrap();
    assert_eq!(
        mono.tenant("acme", None).unwrap_err().code(),
        Some("unknown-tenant")
    );
    mono.bye().unwrap();
    single.shutdown();
}

/// `RESTORE` rebuilds the tenant's accepted history from the document,
/// and a reshard is the one consumer of its cross-cell interleave: the
/// rebuilt cell replays the submissions of both old cells in arrival
/// order. A router restored mid-session — staged releases both released
/// and still pending, live submissions interleaved across both cells —
/// must merge (and split) exactly as the router that took the snapshot.
#[test]
fn a_restored_router_reshards_exactly_as_the_original() {
    let scenario = splittable_scenario(101);
    let trace = splittable_trace(102, 40);
    for merge in [true, false] {
        let original = serve_router(router_config()).unwrap();
        let mut live = Client::connect(original.addr()).unwrap();
        live.load(&scenario).unwrap();
        drive_span(&mut live, &trace, 0, 3);
        let document = live.snapshot().unwrap();

        let copy = serve_router(router_config()).unwrap();
        let mut restored = Client::connect(copy.addr()).unwrap();
        assert_eq!(restored.restore(&document).unwrap(), 3);

        let mut outcomes = Vec::new();
        for client in [&mut live, &mut restored] {
            if merge {
                assert_eq!(client.reshard_merge(0, 1).unwrap(), (1, 2));
            } else {
                assert_eq!(client.reshard_split(0).unwrap(), (3, 2));
            }
            drive_span(client, &trace, 3, SLOTS);
            let (schedule, utility, relaxed) = finish(client);
            let snapshot = client.snapshot().unwrap();
            outcomes.push((schedule, utility.to_bits(), relaxed.to_bits(), snapshot));
        }
        let (first, second) = (&outcomes[0], &outcomes[1]);
        let what = if merge { "MERGE 0 1" } else { "SPLIT 0" };
        assert_eq!(first.0, second.0, "{what}: schedules differ");
        assert_eq!(first.1, second.1, "{what}: utility bits differ");
        assert_eq!(first.2, second.2, "{what}: relaxed bits differ");
        assert!(first.3 == second.3, "{what}: final snapshots differ");
        live.bye().unwrap();
        restored.bye().unwrap();
        original.shutdown();
        copy.shutdown();
    }
}

#[test]
fn reshard_failures_leave_the_live_topology_untouched() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    assert_eq!(
        client.reshard_split(0).unwrap_err().code(),
        Some("no-scenario")
    );

    // Chargers at x ∈ [30, 70] sit inside the 20 m halo of the x = 50
    // boundary a split of cell 0 would introduce: the migration must
    // refuse and leave the 2-shard topology (and its map version) as-is.
    let mut rng = StdRng::seed_from_u64(111);
    let chargers = (0..4u32)
        .map(|i| {
            let x0 = if i % 2 == 0 { 30.0 } else { 130.0 };
            Charger::new(
                i,
                Vec2::new(x0 + rng.gen_range(0.0..40.0), rng.gen_range(25.0..75.0)),
            )
        })
        .collect();
    let unsplittable = Scenario::new(
        ChargingParams::simulation_default(),
        TimeGrid::new(60.0, SLOTS),
        chargers,
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .unwrap();
    client.load(&unsplittable).unwrap();
    assert_eq!(
        client.reshard_split(0).unwrap_err().code(),
        Some("unpartitionable")
    );
    assert_eq!(
        client.reshard_split(7).unwrap_err().code(),
        Some("unpartitionable")
    );
    // Merging cells that do not share an edge into a rectangle refuses
    // too (a 2×1 grid's cells do merge; ask for a bogus pair).
    assert_eq!(
        client.reshard_merge(0, 7).unwrap_err().code(),
        Some("unpartitionable")
    );
    let shards = client.shards().unwrap();
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|s| s.map_version == 1));

    client.bye().unwrap();
    router.shutdown();

    // A single-engine daemon has no cells to reshard at all.
    let single = serve(ServerConfig::default()).unwrap();
    let mut mono = Client::connect(single.addr()).unwrap();
    assert_eq!(
        mono.reshard_split(0).unwrap_err().code(),
        Some("bad-request")
    );
    mono.bye().unwrap();
    single.shutdown();
}

/// Pins the `SHARDS?` wire grammar itself — field names, field order,
/// and the tenant/routing-map columns — over a raw text connection, so
/// a client parsing lines positionally cannot be broken silently.
#[test]
fn shards_line_grammar_is_pinned() {
    let router = serve_router(router_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.load(&splittable_scenario(121)).unwrap();
    client.tick(1).unwrap();
    assert_eq!(client.reshard_split(0).unwrap(), (3, 2));

    let mut raw = TcpStream::connect(router.addr()).unwrap();
    raw.write_all(b"SHARDS?\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let count: usize = header
        .trim()
        .strip_prefix("DATA ")
        .expect("SHARDS? answers DATA")
        .parse()
        .unwrap();
    assert_eq!(count, 3);

    const KEYS: [&str; 14] = [
        "shard", "cell", "slot", "open", "tasks", "staged", "admitted", "rejected", "pending",
        "health", "restarts", "replay", "tenant", "map",
    ];
    for index in 0..count {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let fields: Vec<(&str, &str)> = line
            .split_whitespace()
            .map(|field| field.split_once('=').expect("every field is key=value"))
            .collect();
        let keys: Vec<&str> = fields.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, KEYS, "SHARDS? field order is part of the grammar");
        let value = |key: &str| fields.iter().find(|(k, _)| *k == key).unwrap().1;
        assert_eq!(value("shard"), index.to_string());
        assert_eq!(value("slot"), "1");
        assert_eq!(value("tenant"), "default");
        assert_eq!(value("map"), "2");
    }

    client.bye().unwrap();
    router.shutdown();
}
