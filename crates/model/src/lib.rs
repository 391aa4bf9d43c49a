//! Domain model for **HASTE** — charging task scheduling for directional
//! wireless charger networks.
//!
//! This crate defines the objects of the paper's problem formulation
//! (Section 3):
//!
//! * [`Charger`] — a rotatable directional wireless charger,
//! * [`Task`] — a charging task `⟨o_j, φ_j, t_r, t_e, E_j⟩` with a weight,
//! * [`ChargingParams`] — the directional charging model constants
//!   (`α`, `β`, `D`, `A_s`, `A_o`),
//! * [`power`] — the charging power function `P_r` and coverage predicates,
//! * [`UtilityFn`] implementations — the linear-bounded utility `U` of
//!   Eq. (1) plus general concave extensions,
//! * [`TimeGrid`] — the discrete slot model (`T_s`, `K`),
//! * [`Scenario`] — a full problem instance (chargers + tasks + delays),
//! * [`CoverageMap`] — precomputed charger/task chargeability,
//! * [`Schedule`] — per-charger, per-slot orientations, and
//! * [`evaluate`] — the full-fidelity **P1** objective evaluator including
//!   switching-delay accounting.
//!
//! The algorithm crates (`haste-core`, `haste-distributed`) build on these
//! types; nothing here makes scheduling decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod error;
mod eval;
mod params;
mod partition;
mod scenario;
mod schedule;
mod task;
mod time;
mod utility;

pub mod emr;
pub mod io;
pub mod power;

pub use coverage::{CandidateRows, CandidateTask, CoverageMap};
pub use error::ModelError;
pub use eval::{evaluate, evaluate_relaxed, slot_energy, EvalOptions, EvalReport};
pub use params::{ChargingParams, ReceiverGain};
pub use partition::{CellAssignment, CellRect, Partition, PartitionError};
pub use scenario::{Scenario, UtilityModel};
pub use schedule::{Orientation, Schedule};
pub use task::{Charger, ChargerId, Task, TaskId};
pub use time::{Slot, TimeGrid};
pub use utility::{ConcavePower, LinearBounded, UtilityFn};
