//! Distributed online scheduling for HASTE (Algorithm 3 of the paper).
//!
//! * [`NeighborGraph`] — chargers sharing a task are neighbors and can talk,
//! * [`negotiate_rounds`] — the bid/update negotiation protocol, simulated
//!   in deterministic synchronous rounds with exact message accounting,
//! * [`negotiate_threaded`] — the same protocol with one OS thread per
//!   charger and real crossbeam message passing; bit-identical outcomes,
//! * [`OnlineEngine`] — the arrival event loop with rescheduling delay `τ`
//!   and injected charger failures, as a long-lived incremental state
//!   machine (live task submission, virtual-time ticks, snapshot/restore)
//!   for the scheduling daemon in `haste-service`,
//! * [`replay_trace`] — the same engine run over a scenario's release
//!   slots in one call: the batch entry point of every online experiment,
//! * [`solve_baseline_online`] — GreedyUtility / GreedyCover under the same
//!   online visibility rules.
//!
//! Theorem 6.1: the online algorithm achieves a `½(1 − ρ)(1 − 1/e)`
//! competitive ratio; the test suites and Figs. 9/12–16 exercise it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod neighbors;
mod online;
mod protocol;
mod round_engine;
mod threaded_engine;

pub use engine::{replay_trace, AdmitError, OnlineEngine, SnapshotError, TaskSpec};
pub use neighbors::NeighborGraph;
pub use online::{solve_baseline_online, ChargerFailure, EngineKind, OnlineConfig, OnlineResult};
pub use protocol::{color_of, final_color_of, NegotiationConfig, NegotiationStats};
pub use round_engine::negotiate_rounds;
pub use threaded_engine::negotiate_threaded;
