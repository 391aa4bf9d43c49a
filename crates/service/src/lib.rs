//! The HASTE scheduling **service**: a long-running daemon that drives the
//! incremental online engine
//! ([`OnlineEngine`](haste_distributed::OnlineEngine)) over a TCP wire
//! protocol, plus the matching typed client and a load-generator harness.
//!
//! * [`serve`] — starts the single-engine daemon: one [`Shard`] straight
//!   behind the wire, the reference the router is compared against and
//!   the daemon every `haste-shardd` child runs,
//! * [`serve_router`] / the `routerd` binary — the sharded deployment:
//!   one engine-owning [`Shard`] per cell of a
//!   [`Partition`](haste_model::Partition), `SUBMIT` routed by cell,
//!   lockstep `TICK`, and composite consistent-cut `SNAPSHOT`/`RESTORE`
//!   (protocol v2),
//! * one front door under both: a `std::net` TCP transport whose
//!   connections are handled on a [`haste_parallel::ThreadPool`] (no
//!   async runtime; the workspace builds fully offline), shared accept
//!   and connection loops, and one [`ServerHandle`] type,
//! * [`proto`] — the versioned line-oriented wire protocol (`HELLO`,
//!   `LOAD`, `SUBMIT`, `TICK`, `SCHEDULE?`, `SNAPSHOT`/`RESTORE`, …),
//!   documented normatively in `docs/service_protocol.md`,
//! * [`Client`] — a blocking client speaking that protocol,
//! * [`loadgen`] — N concurrent connections submitting Poisson task
//!   arrivals in virtual time, measuring submit-to-ack latency and
//!   verifying the streamed session against a batch replay of its own
//!   submission trace.
//!
//! Virtual time: the daemon never sleeps. A slot closes when a client says
//! `TICK`; arrivals admitted into the slot are negotiated at that moment
//! (rescheduling delay `τ` and switching delay `ρ` apply exactly as in the
//! batch online solver). Because the engine is bit-deterministic, a daemon
//! killed mid-run and restored from its last `SNAPSHOT` finishes with the
//! same schedule and utility, bit for bit.
//!
//! Fault tolerance: with [`RouterConfig::process`] set, the router runs
//! each shard as a supervised `haste-shardd` child process
//! ([`supervisor`]). Child crashes and hangs are detected by per-request
//! deadlines; the affected cell degrades (`ERR unavailable` on its
//! submissions) while the rest of the fleet keeps the lockstep, and the
//! supervisor restarts the child and replays its snapshot baseline plus
//! the operations its cell answered since — bit-identically, by the same
//! determinism.
//!
//! One operation log: the router pushes every record it applies to a
//! tenant (accepted and refused submissions, ticks, splits and merges,
//! quota changes) onto one per-tenant log, and each recovery path reads
//! a view of it — `RESHARD` replays its accepted submissions and ticks, a
//! restarted shard child the records its cell answered, and the
//! write-ahead log ([`wal`]) appends the records as they are pushed. One
//! codec, [`OpRecord`]'s `Display` and [`OpRecord::parse`], writes and
//! reads every record line of a WAL frame. The composite snapshot (v4)
//! stores each accepted task once, in its shard section, and the cells
//! of each slot's submissions in arrival order; `RESTORE` rebuilds the
//! accepted view from the two and checks them against each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod framing;
mod front;
pub mod loadgen;
mod oplog;
pub mod proto;
mod router;
mod server;
pub mod shard;
pub mod supervisor;
mod telemetry;
pub mod wal;

pub use client::{Client, ClientError, ShardInfo, Topology};
pub use front::{RouterHandle, ServerHandle};
pub use oplog::OpRecord;
pub use router::{
    parse_composite, render_composite, serve_router, CompositeSnapshot, RouterConfig,
};
pub use server::{serve, ServerConfig};
pub use shard::{LoadInfo, Shard, ShardError, ShardHealth, ShardStatus, UtilityParts};
pub use supervisor::{
    resolve_routerd, resolve_shardd, FaultPlan, ProcessShardConfig, DEFAULT_SHARD_DEADLINE,
};
