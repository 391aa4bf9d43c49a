//! Drives the scheduling daemon with concurrent Poisson task arrivals and
//! prints throughput and submit-to-ack latency percentiles. Self-hosts a
//! daemon by default; point it at a running one with `--addr`. It is a
//! smoke and correctness harness; `perfbench/` is the measurement tool.
//!
//! ```text
//! cargo run --release -p haste-bench --bin loadgen -- \
//!     [--addr host:port] [--connections 8] [--submissions 10000] \
//!     [--chargers 8] [--field 200] [--slots 64] [--seed 1] \
//!     [--max-pending 4096] [--cells CXxCY] [--no-verify] \
//!     [--out-of-process] [--shardd PATH] [--deadline-ms N] \
//!     [--fault-plan FILE] [--binary] [--batch N] \
//!     [--profile uniform|diurnal[:PERIOD]|hotspot[:CELL:FACTOR]] \
//!     [--reshard-split SLOT:CELL] \
//!     [--metrics-addr HOST:PORT] [--check-export] \
//!     [--wal-dir DIR] [--routerd PATH]
//! ```
//!
//! `--binary` negotiates protocol v3 binary framing on the worker
//! connections (the run fails if the endpoint only speaks text);
//! `--batch N` submits N tasks per `OP_BATCH` frame (one vectored ack).
//!
//! `--profile diurnal[:PERIOD]` draws arrival slots from the seeded
//! double-peaked diurnal curve (PERIOD slots per synthetic day, default
//! the whole run) and reports peak-band vs trough-band rejection rates.
//! `--profile hotspot[:CELL:FACTOR]` keeps slots uniform but lands
//! FACTOR× the arrivals on partition cell CELL (default `0:8`; needs
//! `--cells`). `--reshard-split SLOT:CELL` scripts a live
//! `RESHARD SPLIT CELL` right after the SLOT-th tick, mid-run.
//! `--metrics-addr` gives the self-hosted router a plain-HTTP scrape
//! listener; `--check-export` fetches the exposition after the run
//! (over that listener when set, else `EXPORT?`), checks it parses, and
//! fails unless the `SUBMIT` latency-histogram count equals the
//! session's accepted + rejected + unavailable submissions.
//!
//! With `--cells` the harness self-hosts the sharded router instead of a
//! single daemon and the replay check becomes the sum of per-shard
//! replays merged in arrival order. `--out-of-process` runs each shard as
//! a supervised `haste-shardd` child process; `--fault-plan` additionally
//! injects a deterministic fault schedule (chaos mode): the harness runs
//! a no-fault reference session first and fails unless every cell the
//! plan did not target finishes bit-identical to it, every targeted
//! shard recovers, and at least one restart was actually exercised.
//!
//! `--wal-dir DIR` makes the self-hosted router durable (stale WAL
//! artifacts in DIR are removed at session start). A fault plan with
//! `kill-router @slot` directives requires it: the harness then runs the
//! router as a `routerd` subprocess (`--routerd` overrides the binary
//! path), SIGKILLs it at each listed post-tick barrier, respawns it to
//! recover from the WAL, and fails unless the recovered run finishes
//! bit-identical to the undisturbed reference — every cell and the
//! total.
//!
//! Exits non-zero on any transport/protocol error, on rejected
//! submissions, or when the streamed session's utility does not match the
//! batch replay of its own submission trace bit for bit.

use haste::service::loadgen::{self, ArrivalProfile, LoadgenConfig};
use haste::service::FaultPlan;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadgenConfig::default();
    let mut strict = true;
    // Resolved after the loop: a bare `diurnal` defaults its period to
    // the final --slots value regardless of flag order.
    let mut profile_arg: Option<String> = None;

    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                config.addr = Some(value(&args, i, "--addr"));
                i += 1;
            }
            "--connections" => {
                config.connections = parse(&value(&args, i, "--connections"));
                i += 1;
            }
            "--submissions" => {
                config.submissions = parse(&value(&args, i, "--submissions"));
                i += 1;
            }
            "--chargers" => {
                config.chargers = parse(&value(&args, i, "--chargers"));
                i += 1;
            }
            "--field" => {
                config.field = parse(&value(&args, i, "--field"));
                i += 1;
            }
            "--slots" => {
                config.slots = parse(&value(&args, i, "--slots"));
                i += 1;
            }
            "--seed" => {
                config.seed = parse(&value(&args, i, "--seed"));
                i += 1;
            }
            "--max-pending" => {
                config.max_pending = parse(&value(&args, i, "--max-pending"));
                i += 1;
            }
            "--cells" => {
                config.cells = Some(parse_cells(&value(&args, i, "--cells")));
                i += 1;
            }
            "--out-of-process" => config.out_of_process = true,
            "--shardd" => {
                config.shardd = Some(std::path::PathBuf::from(value(&args, i, "--shardd")));
                i += 1;
            }
            "--deadline-ms" => {
                config.deadline = Some(std::time::Duration::from_millis(parse(&value(
                    &args,
                    i,
                    "--deadline-ms",
                ))));
                i += 1;
            }
            "--fault-plan" => {
                let path = value(&args, i, "--fault-plan");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("--fault-plan: cannot read `{path}`: {e}");
                    std::process::exit(2);
                });
                config.fault_plan = Some(FaultPlan::parse(&text).unwrap_or_else(|reason| {
                    eprintln!("--fault-plan: {reason}");
                    std::process::exit(2);
                }));
                i += 1;
            }
            "--binary" => config.binary = true,
            "--batch" => {
                config.batch = parse(&value(&args, i, "--batch"));
                i += 1;
            }
            "--profile" => {
                profile_arg = Some(value(&args, i, "--profile"));
                i += 1;
            }
            "--reshard-split" => {
                let spec = value(&args, i, "--reshard-split");
                let parts = spec
                    .split_once(':')
                    .map(|(slot, cell)| (parse::<usize>(slot), parse::<usize>(cell)));
                config.reshard_split = match parts {
                    Some(pair) => Some(pair),
                    None => {
                        eprintln!("bad --reshard-split value `{spec}`; expected SLOT:CELL");
                        std::process::exit(2);
                    }
                };
                i += 1;
            }
            "--metrics-addr" => {
                config.metrics_addr = Some(value(&args, i, "--metrics-addr"));
                i += 1;
            }
            "--check-export" => config.check_export = true,
            "--wal-dir" => {
                config.wal_dir = Some(std::path::PathBuf::from(value(&args, i, "--wal-dir")));
                i += 1;
            }
            "--routerd" => {
                config.routerd = Some(std::path::PathBuf::from(value(&args, i, "--routerd")));
                i += 1;
            }
            "--no-verify" => config.verify_replay = false,
            "--lenient" => strict = false,
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(text) = &profile_arg {
        config.profile = parse_profile(text, config.slots);
    }

    let report = loadgen::run(&config).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });
    println!("{report}");

    if strict {
        // Under fault injection, submissions bounced by a down shard are
        // expected degraded-mode behaviour and accounted separately.
        let accounted = report.accepted + report.unavailable;
        if accounted != report.submitted {
            eprintln!(
                "FAIL: {} of {} submissions were not accepted",
                report.submitted - accounted,
                report.submitted
            );
            std::process::exit(1);
        }
        if report.replay_matches == Some(false) {
            eprintln!(
                "FAIL: streamed utility {} != replay utility {}",
                report.utility,
                report.replay_utility.unwrap_or(f64::NAN)
            );
            std::process::exit(1);
        }
        if let Some(chaos) = &report.chaos {
            if !chaos.surviving_match {
                eprintln!(
                    "FAIL: a cell outside the fault plan (targets {:?}) diverged from the \
                     no-fault reference run",
                    chaos.fault_cells
                );
                std::process::exit(1);
            }
            if !chaos.recovered {
                eprintln!(
                    "FAIL: a shard was still restarting at the end of the run (targets {:?})",
                    chaos.fault_cells
                );
                std::process::exit(1);
            }
            let expects_restarts = config
                .fault_plan
                .as_ref()
                .is_some_and(FaultPlan::expects_restarts);
            if expects_restarts && chaos.restarts == 0 {
                eprintln!("FAIL: fault plan injected but no shard restart was observed");
                std::process::exit(1);
            }
        }
    }
}

/// Parses `--profile uniform` / `--profile diurnal[:PERIOD]` /
/// `--profile hotspot[:CELL:FACTOR]`; a bare `diurnal` spans the whole
/// run (`period = slots`) and a bare `hotspot` puts 8× weight on cell 0.
fn parse_profile(s: &str, slots: usize) -> ArrivalProfile {
    match s {
        "uniform" => ArrivalProfile::Uniform,
        "diurnal" => ArrivalProfile::Diurnal { period: slots },
        "hotspot" => ArrivalProfile::Hotspot { cell: 0, factor: 8 },
        _ => {
            if let Some(period) = s.strip_prefix("diurnal:").map(parse::<usize>) {
                if period >= 1 {
                    return ArrivalProfile::Diurnal { period };
                }
            }
            if let Some(rest) = s.strip_prefix("hotspot:") {
                if let Some((cell, factor)) = rest.split_once(':') {
                    return ArrivalProfile::Hotspot {
                        cell: parse(cell),
                        factor: parse(factor),
                    };
                }
            }
            eprintln!(
                "bad --profile value `{s}`; expected uniform, diurnal[:PERIOD] or \
                 hotspot[:CELL:FACTOR]"
            );
            std::process::exit(2);
        }
    }
}

fn parse_cells(s: &str) -> (usize, usize) {
    let cells = s
        .split_once('x')
        .map(|(cx, cy)| (parse::<usize>(cx), parse::<usize>(cy)));
    match cells {
        Some((cx, cy)) if cx >= 1 && cy >= 1 => (cx, cy),
        _ => {
            eprintln!("bad --cells value `{s}`; expected CXxCY, e.g. 2x1");
            std::process::exit(2);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value `{s}`");
        std::process::exit(2);
    })
}
