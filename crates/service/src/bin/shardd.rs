//! `haste-shardd` — one out-of-process shard child.
//!
//! A plain single-engine daemon (exactly [`haste_service::serve`]: one
//! engine straight behind the front door the router also runs on, with
//! no partition or operation log in between) with a launch contract
//! shaped for the router's supervisor rather than for humans:
//!
//! * it prints exactly one line, `shardd listening on <addr>`, to stdout
//!   (explicitly flushed — stdout is a block-buffered pipe under a
//!   supervisor) so the parent learns the OS-assigned port;
//! * it then blocks reading stdin until EOF and exits. The supervisor
//!   holds the write end of that pipe, so a dead or exiting supervisor
//!   releases the child automatically — no orphan processes to leak.
//!
//! The scheduling flags mirror [`haste_distributed::OnlineConfig`] field
//! for field: the supervisor forwards the router's configuration so a
//! child engine is bit-identical to the in-process shard it replaces.
//!
//! Being a full [`haste_service::serve`] daemon, a child speaks every
//! protocol revision, including v3 binary framing — but its supervisor
//! deliberately stays on v1 text: one request per child is in flight at a
//! time (the pipelined router tick is concurrency *across* children, not
//! pipelining within one connection), so framing buys nothing on this
//! hop, and text keeps child transcripts greppable during incident
//! debugging.
//!
//! ```text
//! haste-shardd [--addr 127.0.0.1:0] [--workers 4] [--max-pending 4096] \
//!     [--colors C] [--samples S] [--seed SEED] [--engine rounds|threaded] \
//!     [--localized 0|1] [--threads N]
//! ```

use std::io::Write;

use haste_distributed::EngineKind;
use haste_service::{serve, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        worker_threads: 4,
        ..ServerConfig::default()
    };

    let mut i = 0;
    while i < args.len() {
        let flag = args.get(i).map(String::as_str).unwrap_or("");
        match flag {
            "--addr" => config.addr = value(&args, i, flag),
            "--workers" => config.worker_threads = single(&value(&args, i, flag), flag),
            "--max-pending" => config.max_pending = single(&value(&args, i, flag), flag),
            "--colors" => {
                config.scheduling.negotiation.colors = single(&value(&args, i, flag), flag)
            }
            "--samples" => {
                config.scheduling.negotiation.samples = single(&value(&args, i, flag), flag)
            }
            "--seed" => config.scheduling.negotiation.seed = single(&value(&args, i, flag), flag),
            "--engine" => {
                config.scheduling.engine = match value(&args, i, flag).as_str() {
                    "rounds" => EngineKind::Rounds,
                    "threaded" => EngineKind::Threaded,
                    other => fail(&format!("--engine: bad value `{other}`")),
                }
            }
            "--localized" => {
                config.scheduling.localized = single::<u8>(&value(&args, i, flag), flag) != 0
            }
            "--threads" => config.scheduling.threads = single(&value(&args, i, flag), flag),
            "--help" | "-h" => {
                println!(
                    "usage: haste-shardd [--addr HOST:PORT] [--workers N] [--max-pending N] \
                     [--colors C] [--samples S] [--seed SEED] [--engine rounds|threaded] \
                     [--localized 0|1] [--threads N]"
                );
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    match serve(config) {
        Ok(handle) => {
            // The one-line launch contract: the supervisor blocks on this
            // line to learn the bound address, so it must be flushed past
            // the pipe's block buffering before anything else happens.
            let mut stdout = std::io::stdout();
            let greeted = writeln!(stdout, "shardd listening on {}", handle.addr())
                .and_then(|()| stdout.flush());
            if greeted.is_err() {
                // Stdout is gone: the supervisor died between spawn and
                // greeting. Nothing can find this child; exit.
                handle.shutdown();
                std::process::exit(1);
            }
            // Lifetime contract: serve until the supervisor closes our
            // stdin (exit, crash, or deliberate drop). Sinking the bytes
            // keeps the read loop trivial; the supervisor never writes.
            let drained = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            handle.shutdown();
            if drained.is_err() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("haste-shardd failed to start: {e}");
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

/// Prints a usage error and exits. Never returns.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
