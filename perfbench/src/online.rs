//! `online-stream` and `online-durable`: one seeded generator thread
//! drives an in-process 2×1 router closed-loop over two connections —
//! `OP_BATCH` frames on a protocol v3 worker connection, and `TICK`,
//! `UTILITY?`, `EXPORT?` and `SNAPSHOT` on a text control connection.
//! `online-durable` runs the same traffic against a router with a
//! write-ahead log, then restarts it over the log and times the recovery.

use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::time::{Duration, Instant};

use haste_distributed::{replay_trace, OnlineConfig, OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_metrics::{Snapshot, Value};
use haste_model::{Charger, ChargingParams, Scenario, TimeGrid};
use haste_service::wal::WalConfig;
use haste_service::{parse_composite, serve_router, Client, RouterConfig, RouterHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    fastest, median, minimum, peak_rss_mb, percentile, storage_write_bytes, Report,
};
use crate::trace::Tracer;
use crate::{work_dir, Args};

const CELLS: (usize, usize) = (2, 1);
const FIELD: (f64, f64) = (200.0, 100.0);
/// Charger lattice per cell, `(columns, rows)`: 16 chargers in all.
const LATTICE: (usize, usize) = (4, 2);
/// Slots per episode: one `TICK` each. Tick and checkpoint costs grow
/// with the history, so the episode is kept short and repeated. It is not
/// a multiple of the checkpoint period (`ARRIVALS_PER_SLOT`), so the last
/// two slots stay in the log for a durable restart to replay.
const SLOTS: usize = 62;
/// Mean Poisson arrivals per slot. With the tick, a slot logs 289
/// operations on average, so the default 1,024-op checkpoint interval
/// checkpoints at every 4th slot close for every seed: three slots log
/// 867 ± 29 operations and four log 1,156 ± 34, each more than 4σ from
/// 1,024. The checkpoint ticks are then the same 15 of the 62 in every
/// run.
const ARRIVALS_PER_SLOT: usize = 288;
/// Records per `OP_BATCH` frame.
const FRAME: usize = 64;
/// Timed episodes run even when `--seconds` is already spent.
const MIN_EPISODES: usize = 3;
/// Extra set-ups (router, `LOAD`, connects, shutdown) per run, so that
/// `setup_s` is the fastest of many identical set-ups.
const SETUP_REPEATS: usize = 8;
/// Client deadline: a wedged router fails the run instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(60);
const TENANT: &str = "default";

/// One episode's traffic: the chargers-only scenario and, per slot, the
/// tasks that arrive in it.
struct Traffic {
    scenario: Scenario,
    per_slot: Vec<Vec<TaskSpec>>,
}

/// What one episode measured.
struct Episode {
    setup_s: f64,
    /// Client round trip of each frame, µs, with its record count.
    frames: Vec<(f64, usize)>,
    ticks_ms: Vec<f64>,
    /// Which ticks installed a checkpoint (traced durable episodes only).
    checkpointed: Vec<bool>,
    loop_s: f64,
    accepted: u64,
    utility: f64,
    export: Snapshot,
    checkpoint_bytes: u64,
    bytes_written: u64,
    recover_s: f64,
    replayed_ops: u64,
    snapshot: String,
}

pub fn run(args: &Args, durable: bool, tracer: &Tracer, report: &mut Report) {
    let traffic = traffic(args.seed);
    let wal_dir = work_dir().join(format!("wal-{}", std::process::id()));
    let outcome = measure(args, durable, &traffic, &wal_dir, tracer, report);
    let _ = std::fs::remove_dir_all(&wal_dir);
    if let Err(message) = outcome {
        report.failed += 1;
        report.error(message);
    }
}

fn measure(
    args: &Args,
    durable: bool,
    traffic: &Traffic,
    wal_dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let wal = durable.then_some(wal_dir);
    // The warm-up is a full, untimed episode, so the heap reaches its
    // working size before timing. It is also the reference: its utility
    // must match an offline replay, and every timed episode must repeat
    // its exact values.
    let warmup = episode(traffic, wal, tracer).map_err(|e| format!("warm-up: {e}"))?;
    // The memory peak is taken here, after one full episode: later
    // episodes only add allocator fragmentation, which grows with the
    // episode count and so with the host's speed.
    let peak_rss = peak_rss_mb();
    if args.peak_probe {
        report.end_to_end("peak_rss_mb", peak_rss);
        return Ok(());
    }
    tracer.set_enabled(args.trace);
    let replayed = tracer.span("online.verify", || merged_replay(&warmup.snapshot))?;
    tracer.set_enabled(false);
    if replayed.to_bits() != warmup.utility.to_bits() {
        report.error(format!(
            "streamed utility {} differs from the merged per-shard replay {replayed}",
            warmup.utility
        ));
    }
    let reference = exact_values(&warmup, durable);

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        clear_wal(wal);
        let started = Instant::now();
        let session = Session::open(&traffic.scenario, wal, tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        session.close()?;
    }

    let submitted: usize = traffic.per_slot.iter().map(Vec::len).sum();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut episodes: Vec<(Episode, bool)> = Vec::new();
    while episodes.len() < MIN_EPISODES || started.elapsed() < budget {
        let index = episodes.len();
        // A traced run alternates traced and untraced episodes; the
        // difference between the two is the tracing overhead.
        let traced = args.trace && index.is_multiple_of(2);
        tracer.set_enabled(traced);
        let mut measured =
            episode(traffic, wal, tracer).map_err(|e| format!("episode {index}: {e}"))?;
        tracer.set_enabled(false);
        measured.snapshot = String::new();
        report.attempted += (submitted + SLOTS + 1) as u64;
        report.failed += (submitted as u64).saturating_sub(measured.accepted);
        for ((name, want), (_, got)) in reference.iter().zip(exact_values(&measured, durable)) {
            if *want != got {
                report.error(format!(
                    "determinism: episode {index} has {name}={got}, the warm-up had {want}"
                ));
            }
        }
        eprintln!(
            "perfbench: episode {index}: loop {:.3} s, tick p50 {:.3} ms, frame p50 {:.1} us",
            measured.loop_s,
            median(&measured.ticks_ms),
            median(&measured.frames.iter().map(|f| f.0).collect::<Vec<_>>()),
        );
        setup_s.push(measured.setup_s);
        episodes.push((measured, traced));
    }
    for (name, value) in reference {
        report.exact(name, value);
    }

    // Every episode sends the same requests, so each tick and each frame
    // is read as its fastest round trip over the untraced episodes, and
    // set-up as the fastest set-up (the `offline` module says why).
    let untraced: Vec<&Episode> = episodes
        .iter()
        .filter(|(_, traced)| !traced)
        .map(|(e, _)| e)
        .collect();
    let ticks = fastest(untraced.iter().map(|e| e.ticks_ms.clone()));
    let frames_ms = fastest(
        untraced
            .iter()
            .map(|e| e.frames.iter().map(|f| f.0 / 1e3).collect()),
    );
    // The stream's wall time when every request takes its fastest round
    // trip: the loop does nothing between requests but time them.
    let loop_s = (ticks.iter().sum::<f64>() + frames_ms.iter().sum::<f64>()) / 1e3;
    let accepted = untraced.iter().map(|e| e.accepted).min().unwrap_or(0);
    report.episodes(episodes.len());
    report.samples("plan", ticks.len());
    report.samples("plan_repeats", untraced.len());
    report.samples("setup", setup_s.len());
    report.end_to_end("setup_s", minimum(&setup_s));
    report.end_to_end("plan_p50_ms", median(&ticks));
    report.end_to_end("plan_p80_ms", percentile(&ticks, 80));
    report.end_to_end("tasks_per_s", accepted as f64 / loop_s);
    report.end_to_end("utility", warmup.utility / warmup.accepted as f64);
    report.end_to_end("peak_rss_mb", peak_rss);

    if args.trace {
        layers(durable, &episodes, tracer, report);
    }
    Ok(())
}

/// The values of the determinism guard: they must repeat exactly at a
/// fixed seed.
fn exact_values(e: &Episode, durable: bool) -> Vec<(&'static str, String)> {
    let mut values = vec![
        ("utility", format!("{:016x}", e.utility.to_bits())),
        (
            "distributed.engine.oracle_marginals",
            counter(&e.export, "haste_engine_oracle_marginals_total", &[]).to_string(),
        ),
        (
            "distributed.negotiation.messages",
            counter(&e.export, "haste_engine_negotiation_messages_total", &[]).to_string(),
        ),
    ];
    if durable {
        values.push((
            "service.wal.checkpoints",
            counter(
                &e.export,
                "haste_wal_checkpoints_total",
                &[("tenant", TENANT)],
            )
            .to_string(),
        ));
        values.push((
            "service.wal.checkpoint_bytes",
            e.checkpoint_bytes.to_string(),
        ));
        values.push(("service.recovery.replayed_ops", e.replayed_ops.to_string()));
    }
    values
}

/// The per-layer split of a traced run. `EXPORT?` phase totals become
/// per-tick, per-cell means, so that the engine phases plus the join
/// wait add up to the lockstep step inside one `TICK`.
fn layers(durable: bool, episodes: &[(Episode, bool)], tracer: &Tracer, report: &mut Report) {
    let n = episodes.len() as f64;
    let cell_ticks = n * (SLOTS * CELLS.0 * CELLS.1) as f64;
    let sum = |f: &dyn Fn(&Episode) -> f64| -> f64 { episodes.iter().map(|(e, _)| f(e)).sum() };
    let per_cell_tick_ms = |family: &str| -> f64 {
        sum(&|e| counter(&e.export, family, &[]) as f64) / cell_ticks / 1e3
    };
    let cells_hist_ms = |family: &str| -> f64 {
        sum(&|e| {
            (0..CELLS.0 * CELLS.1)
                .map(|cell| histogram(&e.export, family, &[("cell", &cell.to_string())]).1)
                .sum::<f64>()
        }) / cell_ticks
            / 1e3
    };
    let mean_us = |family: &str, labels: &[(&str, &str)]| -> f64 {
        let (count, total) = episodes.iter().fold((0.0, 0.0), |(c, t), (e, _)| {
            let (ec, et) = histogram(&e.export, family, labels);
            (c + ec, t + et)
        });
        if count == 0.0 {
            0.0
        } else {
            total / count
        }
    };
    let per_episode = |f: &dyn Fn(&Episode) -> f64| -> f64 { sum(f) / n };

    let coverage = per_cell_tick_ms("haste_engine_coverage_build_us_total");
    let instance = per_cell_tick_ms("haste_engine_instance_build_us_total");
    let negotiate = per_cell_tick_ms("haste_engine_greedy_us_total");
    let rounding = per_cell_tick_ms("haste_engine_rounding_us_total");
    let replan = cells_hist_ms("haste_router_tick_replan_duration_us");
    report.layer("distributed.engine.coverage_build_ms", coverage);
    report.layer("distributed.engine.instance_build_ms", instance);
    report.layer("distributed.engine.negotiate_ms", negotiate);
    report.layer("distributed.engine.rounding_ms", rounding);
    report.layer(
        "distributed.engine.other_ms",
        replan - coverage - instance - negotiate - rounding,
    );
    for (name, family) in [
        (
            "distributed.engine.oracle_marginals",
            "haste_engine_oracle_marginals_total",
        ),
        (
            "distributed.negotiation.messages",
            "haste_engine_negotiation_messages_total",
        ),
        (
            "distributed.negotiation.rounds",
            "haste_engine_negotiation_rounds_total",
        ),
    ] {
        report.layer(
            name,
            per_episode(&|e| counter(&e.export, family, &[]) as f64),
        );
    }
    report.layer("service.router.replan_ms", replan);
    report.layer(
        "service.router.join_wait_ms",
        cells_hist_ms("haste_router_join_wait_duration_us"),
    );
    let tick_us = mean_us("haste_service_request_duration_us", &[("opcode", "TICK")]);
    let submit_us = mean_us("haste_service_request_duration_us", &[("opcode", "SUBMIT")]);
    report.layer("service.router.tick_mean_ms", tick_us / 1e3);
    report.layer("service.router.submit_mean_us", submit_us);
    report.layer(
        "service.router.frame_records",
        mean_us("haste_service_batch_size_records", &[]),
    );
    // Record-weighted, like the server's SUBMIT histogram.
    let frames: Vec<(f64, usize)> = episodes
        .iter()
        .flat_map(|(e, _)| e.frames.clone())
        .collect();
    let records: usize = frames.iter().map(|f| f.1).sum();
    let client_us = frames.iter().map(|&(us, r)| us * r as f64).sum::<f64>() / records as f64;
    report.layer("service.wire.submit_mean_us", client_us - submit_us);
    let rtts: Vec<f64> = frames.iter().map(|f| f.0).collect();
    report.samples("frame", rtts.len());
    report.layer("client.frame_p50_us", median(&rtts));
    report.layer("client.frame_p90_us", percentile(&rtts, 90));
    report.layer("service.snapshot.ms", tracer.mean_ms("service.snapshot"));

    let picks = |traced: bool| -> Vec<f64> {
        fastest(
            episodes
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(e, _)| e.ticks_ms.clone()),
        )
    };
    report.layer(
        "trace.overhead_pct",
        (median(&picks(true)) / median(&picks(false)) - 1.0) * 100.0,
    );
    if !durable {
        return;
    }
    report.layer(
        "service.wal.append_mean_us",
        mean_us("haste_wal_append_duration_us", &[]),
    );
    report.layer(
        "service.wal.fsync_mean_us",
        mean_us("haste_wal_fsync_duration_us", &[]),
    );
    report.layer(
        "service.wal.appends",
        per_episode(&|e| histogram(&e.export, "haste_wal_append_duration_us", &[]).0),
    );
    report.layer(
        "service.wal.fsyncs",
        per_episode(&|e| histogram(&e.export, "haste_wal_fsync_duration_us", &[]).0),
    );
    report.layer(
        "service.wal.checkpoints",
        per_episode(&|e| {
            counter(
                &e.export,
                "haste_wal_checkpoints_total",
                &[("tenant", TENANT)],
            ) as f64
        }),
    );
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for (e, _) in episodes {
        for (&ms, &installed) in e.ticks_ms.iter().zip(&e.checkpointed) {
            if installed {
                with.push(ms);
            } else {
                without.push(ms);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.samples("checkpoint_ticks", with.len());
    report.layer("service.wal.checkpoint_ms", mean(&with) - mean(&without));
    report.layer(
        "service.wal.checkpoint_bytes",
        per_episode(&|e| e.checkpoint_bytes as f64),
    );
    report.layer(
        "service.wal.bytes_written",
        per_episode(&|e| e.bytes_written as f64),
    );
    report.layer(
        "service.recovery.recover_ms",
        per_episode(&|e| e.recover_s * 1e3),
    );
    report.layer(
        "service.recovery.parse_ms",
        tracer.mean_ms("service.recovery.parse"),
    );
    report.layer(
        "service.recovery.replayed_ops",
        per_episode(&|e| e.replayed_ops as f64),
    );
}

/// A connected router: the handle, the text control connection and the
/// binary worker connection.
struct Session {
    router: RouterHandle,
    control: Client,
    worker: Client,
}

impl Session {
    /// Starts a router (durable when `wal` is set, over an empty WAL
    /// directory: see [`clear_wal`]), loads the scenario and connects both
    /// clients.
    fn open(scenario: &Scenario, wal: Option<&Path>, tracer: &Tracer) -> Result<Session, String> {
        let router = tracer
            .span("service.serve_router", || start_router(wal))
            .map_err(|e| format!("router start: {e}"))?;
        let addr = router.addr();
        let mut control = tracer
            .span("service.connect", || Client::connect(addr))
            .map_err(|e| format!("control connect: {e}"))?;
        control
            .set_timeout(Some(DEADLINE))
            .map_err(|e| e.to_string())?;
        tracer
            .span("service.load", || control.load(scenario))
            .map_err(|e| format!("LOAD: {e}"))?;
        let (mut worker, _) = tracer
            .span("service.connect", || Client::connect_v3(addr))
            .map_err(|e| format!("worker connect: {e}"))?;
        if !worker.is_binary() {
            return Err("the router did not negotiate protocol v3 framing".to_string());
        }
        worker
            .set_timeout(Some(DEADLINE))
            .map_err(|e| e.to_string())?;
        Ok(Session {
            router,
            control,
            worker,
        })
    }

    fn close(self) -> Result<(), String> {
        self.worker.bye().map_err(|e| format!("BYE: {e}"))?;
        self.control.bye().map_err(|e| format!("BYE: {e}"))?;
        self.router.shutdown();
        Ok(())
    }
}

/// Removes the previous set-up's WAL directory, so that the next router
/// starts empty. It runs before the set-up timer starts: removing the old
/// checkpoint and log is the benchmark's cleanup, not the program's set-up.
fn clear_wal(wal: Option<&Path>) {
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn start_router(wal: Option<&Path>) -> std::io::Result<RouterHandle> {
    serve_router(RouterConfig {
        worker_threads: 4,
        cells: CELLS,
        origin: (0.0, 0.0),
        field: FIELD,
        scheduling: OnlineConfig {
            threads: 1,
            ..OnlineConfig::default()
        },
        wal: wal.map(WalConfig::new),
        ..RouterConfig::default()
    })
}

/// One episode: set up, stream every slot, read the results back, and on
/// a durable router restart over the log.
fn episode(traffic: &Traffic, wal: Option<&Path>, tracer: &Tracer) -> Result<Episode, String> {
    tracer.span("online.episode", || {
        clear_wal(wal);
        let setup_start = Instant::now();
        let mut session = tracer.span("online.setup", || {
            Session::open(&traffic.scenario, wal, tracer)
        })?;
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut frames = Vec::new();
        let mut ticks_ms = Vec::with_capacity(traffic.per_slot.len());
        let mut checkpointed = Vec::new();
        // A checkpoint is installed by renaming a new file over the old
        // one, so a changed inode marks the tick that checkpointed.
        let checkpoint = wal
            .filter(|_| tracer.enabled())
            .map(|dir| dir.join(format!("{TENANT}.ckpt")));
        let inode = |path: &Path| std::fs::metadata(path).map_or(0, |m| m.ino());
        let mut last_inode = checkpoint.as_deref().map_or(0, inode);
        let mut accepted = 0u64;
        let written_before = storage_write_bytes();
        let loop_start = Instant::now();
        tracer.span("online.stream", || -> Result<(), String> {
            for tasks in &traffic.per_slot {
                tracer.span("online.slot", || -> Result<(), String> {
                    for chunk in tasks.chunks(FRAME) {
                        let sent = Instant::now();
                        let acks = tracer
                            .request("service.frame", || session.worker.submit_batch(chunk))
                            .map_err(|e| format!("OP_BATCH: {e}"))?;
                        frames.push((sent.elapsed().as_secs_f64() * 1e6, chunk.len()));
                        accepted += acks.iter().filter(|ack| ack.is_ok()).count() as u64;
                    }
                    let sent = Instant::now();
                    tracer
                        .request("service.tick", || session.control.tick(1))
                        .map_err(|e| format!("TICK: {e}"))?;
                    ticks_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    if let Some(path) = &checkpoint {
                        let now = inode(path);
                        checkpointed.push(now != last_inode);
                        last_inode = now;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        })?;
        let loop_s = loop_start.elapsed().as_secs_f64();
        let bytes_written = storage_write_bytes().saturating_sub(written_before);
        // The grid has one slot more than the traffic. Closing that empty
        // slot logs one more operation, so even when the last timed tick
        // checkpointed, a durable restart has a log tail to replay.
        tracer
            .span("service.tick", || session.control.tick(1))
            .map_err(|e| format!("final TICK: {e}"))?;

        let (utility, _relaxed) = tracer
            .span("service.utility", || session.control.utility())
            .map_err(|e| format!("UTILITY?: {e}"))?;
        let export = read_export(&mut session.control, tracer)?;
        require_families(&export, wal.is_some())?;

        let (snapshot, checkpoint_bytes, recover_s, replayed_ops) = match wal {
            None => {
                let snapshot = tracer
                    .span("service.snapshot", || session.control.snapshot())
                    .map_err(|e| format!("SNAPSHOT: {e}"))?;
                tracer.span("service.shutdown", || session.close())?;
                (snapshot, 0, 0.0, 0)
            }
            Some(dir) => restart(session, dir, utility, tracer)?,
        };
        Ok(Episode {
            setup_s,
            frames,
            ticks_ms,
            checkpointed,
            loop_s,
            accepted,
            utility,
            export,
            checkpoint_bytes,
            bytes_written,
            recover_s,
            replayed_ops,
            snapshot,
        })
    })
}

/// Shuts a durable router down, restarts it over its log and checks that
/// it recovered the clock and the utility it had. Returns the end-of-run
/// snapshot, the checkpoint size before shutdown, the restart time and
/// the log operations replayed on top of the checkpoint.
fn restart(
    mut session: Session,
    dir: &Path,
    utility: f64,
    tracer: &Tracer,
) -> Result<(String, u64, f64, u64), String> {
    let checkpoint = dir.join(format!("{TENANT}.ckpt"));
    let text = std::fs::read_to_string(&checkpoint)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    if tracer.enabled() {
        tracer
            .span("service.recovery.parse", || parse_composite(&text))
            .map_err(|e| format!("checkpoint does not parse: {e}"))?;
    }
    let (clock, _) = session
        .control
        .clock()
        .map_err(|e| format!("CLOCK?: {e}"))?;
    tracer.span("service.shutdown", || session.close())?;

    let restart = Instant::now();
    let router = tracer
        .span("service.recover", || start_router(Some(dir)))
        .map_err(|e| format!("restart over the log: {e}"))?;
    let recover_s = restart.elapsed().as_secs_f64();
    let mut control = Client::connect(router.addr()).map_err(|e| format!("connect: {e}"))?;
    control
        .set_timeout(Some(DEADLINE))
        .map_err(|e| e.to_string())?;
    let (recovered_clock, _) = control.clock().map_err(|e| format!("CLOCK?: {e}"))?;
    let (recovered, _) = control.utility().map_err(|e| format!("UTILITY?: {e}"))?;
    if recovered_clock != clock || recovered.to_bits() != utility.to_bits() {
        return Err(format!(
            "recovery gave clock {recovered_clock} and utility {recovered}, \
             expected clock {clock} and utility {utility}"
        ));
    }
    let export = read_export(&mut control, tracer)?;
    let replayed_ops = counter(
        &export,
        "haste_wal_replayed_ops_total",
        &[("tenant", TENANT)],
    );
    if replayed_ops == 0 {
        return Err("recovery replayed no log operations".to_string());
    }
    // On a durable router SNAPSHOT is also a checkpoint; it is taken after
    // the restart so that recovery had a log tail to replay.
    let snapshot = tracer
        .span("service.snapshot", || control.snapshot())
        .map_err(|e| format!("SNAPSHOT: {e}"))?;
    control.bye().map_err(|e| format!("BYE: {e}"))?;
    router.shutdown();
    Ok((snapshot, text.len() as u64, recover_s, replayed_ops))
}

fn read_export(control: &mut Client, tracer: &Tracer) -> Result<Snapshot, String> {
    let text = tracer
        .span("service.export", || control.export())
        .map_err(|e| format!("EXPORT?: {e}"))?;
    Snapshot::parse(&text).map_err(|e| format!("EXPORT? does not parse: {e}"))
}

/// Fails when a family the per-layer split reads is missing, so that a
/// renamed family cannot silently zero a layer metric.
fn require_families(export: &Snapshot, durable: bool) -> Result<(), String> {
    let mut required: Vec<(&str, Vec<(&str, String)>)> = vec![
        ("haste_engine_coverage_build_us_total", vec![]),
        ("haste_engine_instance_build_us_total", vec![]),
        ("haste_engine_greedy_us_total", vec![]),
        ("haste_engine_rounding_us_total", vec![]),
        ("haste_engine_oracle_marginals_total", vec![]),
        ("haste_engine_negotiation_messages_total", vec![]),
        ("haste_engine_negotiation_rounds_total", vec![]),
        (
            "haste_service_request_duration_us",
            vec![("opcode", "TICK".to_string())],
        ),
        (
            "haste_service_request_duration_us",
            vec![("opcode", "SUBMIT".to_string())],
        ),
        ("haste_service_batch_size_records", vec![]),
    ];
    for cell in 0..CELLS.0 * CELLS.1 {
        for family in [
            "haste_router_tick_replan_duration_us",
            "haste_router_join_wait_duration_us",
        ] {
            required.push((family, vec![("cell", cell.to_string())]));
        }
    }
    if durable {
        required.push(("haste_wal_append_duration_us", vec![]));
        required.push(("haste_wal_fsync_duration_us", vec![]));
        required.push((
            "haste_wal_checkpoints_total",
            vec![("tenant", TENANT.to_string())],
        ));
    }
    for (family, labels) in required {
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        if export.get(family, &labels).is_none() {
            return Err(format!("EXPORT? has no `{family}` series {labels:?}"));
        }
    }
    Ok(())
}

fn counter(export: &Snapshot, family: &str, labels: &[(&str, &str)]) -> u64 {
    match export.get(family, labels) {
        Some(Value::Counter(n)) | Some(Value::Gauge(n)) => *n as u64,
        _ => 0,
    }
}

/// `(count, sum in µs)` of a histogram series; zeros when absent.
fn histogram(export: &Snapshot, family: &str, labels: &[(&str, &str)]) -> (f64, f64) {
    match export.get(family, labels) {
        Some(Value::Histogram { buckets, sum_us }) => {
            (buckets.iter().sum::<u64>() as f64, *sum_us as f64)
        }
        _ => (0.0, 0.0),
    }
}

/// Replays every shard of a composite snapshot offline from its own
/// submission trace and merges the per-task utility terms in the
/// recorded global arrival order: the streamed `UTILITY?` must equal
/// this bit for bit.
fn merged_replay(composite_text: &str) -> Result<f64, String> {
    let composite = parse_composite(composite_text).map_err(|e| format!("snapshot: {e}"))?;
    let mut parts: Vec<Vec<f64>> = Vec::with_capacity(composite.shards.len());
    for text in &composite.shards {
        let engine = OnlineEngine::restore(text).map_err(|e| format!("shard snapshot: {e}"))?;
        let trace = engine.scenario().clone();
        let weights: Vec<f64> = trace.tasks.iter().map(|t| t.weight).collect();
        let replayed = replay_trace(trace, engine.config().clone());
        parts.push(
            weights
                .iter()
                .zip(&replayed.report.per_task_utility)
                .map(|(w, u)| w * u)
                .collect(),
        );
    }
    let mut cursors = vec![0usize; parts.len()];
    let mut total = 0.0f64;
    for &owner in &composite.order {
        let shard = owner as usize;
        let term = parts
            .get(shard)
            .and_then(|p| p.get(cursors[shard]))
            .ok_or("snapshot arrival order names more tasks than the shards hold")?;
        cursors[shard] += 1;
        total += term;
    }
    Ok(total)
}

/// The seeded traffic of one episode: chargers on a jittered lattice
/// inside each cell's interior (clear of the reach halo, and spread
/// evenly so that the seed barely changes how much of the field they
/// reach), and `ARRIVALS_PER_SLOT · SLOTS` tasks as loadgen draws them,
/// each in a uniform slot — a Poisson process conditioned on its total.
fn traffic(seed: u64) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ChargingParams::simulation_default();
    let (cells_x, cells_y) = CELLS;
    let (cw, ch) = (FIELD.0 / cells_x as f64, FIELD.1 / cells_y as f64);
    let inset = params.radius + 1.0;
    let (cols, rows) = LATTICE;
    let (dx, dy) = (
        (cw - 2.0 * inset) / cols as f64,
        (ch - 2.0 * inset) / rows as f64,
    );
    let mut chargers = Vec::with_capacity(cells_x * cells_y * cols * rows);
    for cell in 0..cells_x * cells_y {
        let (x0, y0) = ((cell % cells_x) as f64 * cw, (cell / cells_x) as f64 * ch);
        for i in 0..cols * rows {
            let x = x0 + inset + dx * ((i % cols) as f64 + rng.gen_range(0.4..0.6));
            let y = y0 + inset + dy * ((i / cols) as f64 + rng.gen_range(0.4..0.6));
            chargers.push(Charger::new(chargers.len() as u32, Vec2::new(x, y)));
        }
    }
    let scenario = Scenario::new(
        params,
        TimeGrid::new(60.0, SLOTS + 1),
        chargers,
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .expect("the generated scenario is valid");
    let mut per_slot = vec![Vec::new(); SLOTS];
    for _ in 0..ARRIVALS_PER_SLOT * SLOTS {
        let slot = rng.gen_range(0..SLOTS);
        let duration = rng.gen_range(2..=8usize);
        per_slot[slot].push(TaskSpec {
            device_pos: Vec2::new(rng.gen_range(0.0..FIELD.0), rng.gen_range(0.0..FIELD.1)),
            device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
            end_slot: (slot + duration).min(SLOTS),
            required_energy: rng.gen_range(500.0..3000.0),
            weight: 1.0,
        });
    }
    Traffic { scenario, per_slot }
}
