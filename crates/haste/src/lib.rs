//! **HASTE** — Charging task scheduling for directional wireless charger
//! networks.
//!
//! A full reproduction of *"Charging Task Scheduling for Directional
//! Wireless Charger Networks"* (Dai et al., ICPP 2018 / IEEE TMC 2021) as a
//! Rust library. This umbrella crate re-exports the whole public API:
//!
//! * [`geometry`] — vectors, angles, sectors, arcs,
//! * [`model`] — chargers, tasks, the directional charging model, utility
//!   functions, schedules and the P1 evaluator,
//! * [`core`] — dominant task set extraction, the HASTE-R submodular
//!   formulation, the centralized offline algorithm, baselines and the
//!   brute-force optimum,
//! * [`distributed`] — the distributed online algorithm with round-based
//!   and threaded negotiation engines, plus the incremental online engine,
//! * [`service`] — the long-running scheduling daemon (TCP wire protocol,
//!   snapshot/restore) with its client and load-generator harness,
//! * [`submodular`] — generic submodular maximization under a partition
//!   matroid,
//! * [`sim`] — scenario generators, parallel sweeps and the experiment
//!   registry reproducing every figure of the paper,
//! * [`testbed`] — the field-experiment substitute topologies,
//! * [`parallel`] — the small crossbeam-based parallel substrate.
//!
//! # Quickstart
//!
//! ```
//! use haste::prelude::*;
//!
//! // A 20 m field with two chargers and three charging tasks.
//! let spec = ScenarioSpec {
//!     field: 20.0,
//!     num_chargers: 2,
//!     num_tasks: 3,
//!     ..ScenarioSpec::small_scale()
//! };
//! let scenario = spec.generate(7);
//! let coverage = CoverageMap::build(&scenario);
//!
//! // Centralized offline schedule (Algorithm 2).
//! let result = solve_offline(&scenario, &coverage, &OfflineConfig::default());
//! assert!(result.report.total_utility >= 0.0);
//!
//! // Distributed online schedule (Algorithm 3).
//! let online = replay_trace(scenario, OnlineConfig::default());
//! assert!(online.report.total_utility <= result.relaxed_value + 1e-9 + 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use haste_core as core;
pub use haste_distributed as distributed;
pub use haste_geometry as geometry;
pub use haste_model as model;
pub use haste_parallel as parallel;
pub use haste_service as service;
pub use haste_sim as sim;
pub use haste_submodular as submodular;
pub use haste_testbed as testbed;

/// The most common imports in one place.
pub mod prelude {
    pub use haste_core::{
        extract_dominant_sets, solve_baseline, solve_exact, solve_offline, solve_offline_emr,
        BaselineKind, DominantScope, EmrOptions, HasteRInstance, OfflineConfig, SolveResult,
    };
    pub use haste_distributed::{
        negotiate_rounds, negotiate_threaded, replay_trace, solve_baseline_online, ChargerFailure,
        EngineKind, NegotiationConfig, NeighborGraph, OnlineConfig, OnlineEngine, TaskSpec,
    };
    pub use haste_geometry::{Angle, Arc, Sector, Vec2};
    pub use haste_model::{
        evaluate, evaluate_relaxed, Charger, ChargingParams, CoverageMap, EvalOptions, EvalReport,
        Scenario, Schedule, Task, TimeGrid, UtilityFn,
    };
    pub use haste_sim::{Algo, ExperimentCtx, FigureTable, Placement, ScenarioSpec, Summary};
}
