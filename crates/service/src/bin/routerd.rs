//! `routerd` — the sharded scheduling router daemon.
//!
//! Owns one [`haste_service::Shard`] per partition cell in-process and
//! serves protocol v2 on a TCP listener: `SUBMIT` routes by cell lookup,
//! `TICK` advances every shard in lockstep, and `SNAPSHOT`/`RESTORE`
//! operate on composite consistent-cut documents. See
//! `docs/service_protocol.md`.
//!
//! With `--out-of-process`, each shard runs as a supervised
//! `haste-shardd` child instead of in-process: crashed or hung children
//! are restarted and replayed from their last snapshot baseline while
//! the rest of the fleet keeps serving (see `docs/service_protocol.md`,
//! "Shard health"). `--fault-plan FILE` loads a deterministic
//! fault-injection schedule for chaos testing.
//!
//! `--metrics-addr HOST:PORT` additionally serves the typed metric
//! registry as Prometheus-style exposition over plain HTTP (any `GET`);
//! the same document is always available in-protocol via `EXPORT?`.
//!
//! `--wal-dir DIR` makes the router durable: every accepted mutation is
//! framed into a per-tenant write-ahead log under `DIR` before it is
//! acknowledged, with periodic checkpoints (`--wal-checkpoint-every N`)
//! and a configurable fsync policy (`--wal-sync always|every-tick`). On
//! restart the router recovers every tenant — newest checkpoint plus
//! log-tail replay — before accepting connections. See
//! `docs/service_protocol.md`, "Durability".
//!
//! ```text
//! cargo run --release -p haste-service --bin routerd -- \
//!     [--addr 127.0.0.1:7411] [--cells 2x1] [--field 200x100] \
//!     [--origin 0,0] [--threads 4] [--max-pending 4096] \
//!     [--split-threshold N] [--out-of-process] [--shardd PATH] \
//!     [--deadline-ms N] [--fault-plan FILE] [--metrics-addr HOST:PORT] \
//!     [--wal-dir DIR] [--wal-sync always|every-tick] \
//!     [--wal-checkpoint-every N]
//! ```

use haste_service::wal::{WalConfig, WalSync};
use haste_service::{serve_router, FaultPlan, ProcessShardConfig, RouterConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = RouterConfig::default();
    let mut process: Option<ProcessShardConfig> = None;
    let mut wal_dir: Option<std::path::PathBuf> = None;
    let mut wal_sync: Option<WalSync> = None;
    let mut wal_checkpoint_every: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args.get(i).map(String::as_str).unwrap_or("");
        match flag {
            "--addr" => config.addr = value(&args, i, flag),
            "--cells" => config.cells = pair(&value(&args, i, flag), 'x', flag),
            "--field" => {
                let (w, h) = pair::<f64>(&value(&args, i, flag), 'x', flag);
                config.field = (w, h);
            }
            "--origin" => {
                let (x, y) = pair::<f64>(&value(&args, i, flag), ',', flag);
                config.origin = (x, y);
            }
            "--threads" => config.worker_threads = single(&value(&args, i, flag), flag),
            "--max-pending" => config.max_pending = single(&value(&args, i, flag), flag),
            "--split-threshold" => {
                config.split_threshold = Some(single(&value(&args, i, flag), flag));
            }
            "--metrics-addr" => config.metrics_addr = Some(value(&args, i, flag)),
            "--out-of-process" => {
                // Unary flag: no value to skip.
                process.get_or_insert_with(ProcessShardConfig::default);
                i += 1;
                continue;
            }
            "--shardd" => {
                process
                    .get_or_insert_with(ProcessShardConfig::default)
                    .shardd = Some(std::path::PathBuf::from(value(&args, i, flag)));
            }
            "--deadline-ms" => {
                process
                    .get_or_insert_with(ProcessShardConfig::default)
                    .deadline = Some(std::time::Duration::from_millis(single(
                    &value(&args, i, flag),
                    flag,
                )));
            }
            "--fault-plan" => {
                let path = value(&args, i, flag);
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    Err(e) => fail(&format!("--fault-plan: cannot read `{path}`: {e}")),
                };
                match FaultPlan::parse(&text) {
                    Ok(plan) => {
                        process
                            .get_or_insert_with(ProcessShardConfig::default)
                            .fault_plan = Some(plan);
                    }
                    Err(reason) => fail(&format!("--fault-plan: {reason}")),
                }
            }
            "--wal-dir" => wal_dir = Some(std::path::PathBuf::from(value(&args, i, flag))),
            "--wal-sync" => {
                let policy = value(&args, i, flag);
                match WalSync::parse(&policy) {
                    Some(sync) => wal_sync = Some(sync),
                    None => fail(&format!(
                        "--wal-sync: bad policy `{policy}`; expected `always` or `every-tick`"
                    )),
                }
            }
            "--wal-checkpoint-every" => {
                wal_checkpoint_every = Some(single(&value(&args, i, flag), flag));
            }
            "--help" | "-h" => {
                println!(
                    "usage: routerd [--addr HOST:PORT] [--cells CXxCY] [--field WxH] \
                     [--origin X,Y] [--threads N] [--max-pending N] [--split-threshold N] \
                     [--out-of-process] [--shardd PATH] [--deadline-ms N] \
                     [--fault-plan FILE] [--metrics-addr HOST:PORT] [--wal-dir DIR] \
                     [--wal-sync always|every-tick] [--wal-checkpoint-every N]"
                );
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    config.process = process;
    config.wal = match wal_dir {
        Some(dir) => {
            let mut wal = WalConfig::new(dir);
            if let Some(sync) = wal_sync {
                wal.sync = sync;
            }
            if let Some(every) = wal_checkpoint_every {
                wal.checkpoint_every = every;
            }
            Some(wal)
        }
        None => {
            if wal_sync.is_some() || wal_checkpoint_every.is_some() {
                fail("--wal-sync/--wal-checkpoint-every need --wal-dir");
            }
            None
        }
    };

    let (cx, cy) = config.cells;
    if cx == 0 || cy == 0 {
        fail("--cells needs at least 1 cell on each axis");
    }

    match serve_router(config) {
        Ok(handle) => {
            println!(
                "routerd listening on {} ({} shards)",
                handle.addr(),
                cx * cy
            );
            handle.join();
        }
        Err(e) => {
            eprintln!("routerd failed to start: {e}");
            std::process::exit(1);
        }
    }
}

/// The value following a flag, or usage-exit.
fn value(args: &[String], i: usize, flag: &str) -> String {
    match args.get(i + 1) {
        Some(v) => v.clone(),
        None => fail(&format!("{flag} needs a value")),
    }
}

/// Parses one numeric value, or usage-exit.
fn single<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("{flag}: bad value `{s}`")),
    }
}

/// Parses `AsepB` (e.g. `2x1` or `0,0`) into two values, or usage-exit.
fn pair<T: std::str::FromStr>(s: &str, sep: char, flag: &str) -> (T, T) {
    match s.split_once(sep) {
        Some((a, b)) => (single(a, flag), single(b, flag)),
        None => fail(&format!("{flag}: bad value `{s}`; expected A{sep}B")),
    }
}

/// Prints a usage error and exits. Never returns.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
