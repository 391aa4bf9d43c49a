//! The engine-owning core of a daemon, listener-free.
//!
//! A [`Shard`] is one [`OnlineEngine`] plus its admission bound and
//! scheduling configuration behind a mutex — exactly the state the
//! single-engine daemon used to keep per process, extracted so it can be
//! owned equally well by the plain daemon ([`crate::serve`]) or N at a
//! time by the sharded router ([`crate::serve_router`]). All methods are
//! structured (typed results, no wire formatting): the protocol layer that
//! calls them decides how replies are spelled, which keeps the `SHARDS?`
//! line and float formatting in the lint-audited serialization files.
//!
//! Thread model: every method locks the shard's own mutex for the duration
//! of the call, so concurrent callers serialize per shard — submissions
//! within a slot are ordered by admission, and that order *is* the
//! determinism contract.

use haste_distributed::{AdmitError, OnlineConfig, OnlineEngine, TaskSpec};
use haste_model::TaskId;
use parking_lot::Mutex;

/// Outcome of `LOAD`/`RESTORE`: what the freshly installed engine holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// Chargers in the scenario.
    pub chargers: usize,
    /// Tasks known at load time (immediate + staged).
    pub staged: usize,
    /// Slots in the time grid.
    pub slots: usize,
    /// The engine clock after the install (0 for `LOAD`).
    pub clock: usize,
    /// Whether the grid still has open slots.
    pub open: bool,
}

/// Liveness of one shard as reported by `SHARDS?`. In-process shards are
/// always [`ShardHealth::Up`]; the out-of-process supervisor moves a shard
/// through `restarting` (child dead or mid-replay, rejoin pending) and
/// `degraded` (up again after at least one restart this session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// Serving, never restarted.
    #[default]
    Up,
    /// Child process down or replaying; SUBMITs to its cell fail with
    /// `ERR unavailable` until it rejoins.
    Restarting,
    /// Serving after at least one restart (state rebuilt from its
    /// baseline plus a replay of the operation-log records its cell
    /// answered).
    Degraded,
}

impl ShardHealth {
    /// The wire token (the `health=` field value of a `SHARDS?` line).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Restarting => "restarting",
            ShardHealth::Degraded => "degraded",
        }
    }

    /// Parses a wire token back into a health state.
    pub fn parse(token: &str) -> Option<ShardHealth> {
        [
            ShardHealth::Up,
            ShardHealth::Restarting,
            ShardHealth::Degraded,
        ]
        .into_iter()
        .find(|health| health.as_str() == token)
    }
}

/// One shard's engine counters in engine-native numeric form: the
/// `SHARDS?` line prints the admission fields, and `EXPORT?` carries
/// every field as a `haste_engine_*` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStatus {
    /// Current open slot.
    pub clock: usize,
    /// Whether the grid still has open slots.
    pub open: bool,
    /// Tasks materialized into the scenario so far.
    pub tasks: usize,
    /// Tasks staged for future release.
    pub staged: usize,
    /// Submissions admitted since load.
    pub admitted: u64,
    /// Submissions rejected since load.
    pub rejected: u64,
    /// Submissions waiting in the open slot.
    pub pending: usize,
    /// Worker threads the solver is configured with.
    pub threads: usize,
    /// Marginal-gain oracle evaluations.
    pub oracle_marginals: u64,
    /// Optimizer state commits.
    pub oracle_commits: u64,
    /// Charger–task chargeability tests run building the coverage map.
    pub coverage_pair_tests: u64,
    /// Arrived-task lines formatted for snapshots (each once per engine).
    pub task_lines_formatted: u64,
    /// Negotiation messages sent.
    pub messages: u64,
    /// Negotiation rounds executed.
    pub rounds: u64,
    /// Wall-clock spent building HASTE-R instances, microseconds.
    pub instance_build_us: u128,
    /// Wall-clock spent in the greedy optimizer, microseconds.
    pub greedy_us: u128,
    /// Wall-clock spent rounding selections, microseconds.
    pub rounding_us: u128,
    /// Wall-clock spent building coverage maps, microseconds.
    pub coverage_build_us: u128,
}

/// Per-task utility terms in task-id (= arrival) order: exactly the
/// addends of the engine's sequential `Σ wⱼ · Uⱼ`, so a router holding
/// the global arrival order can re-merge shard totals bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityParts {
    /// `wⱼ · Uⱼ` under the full P1 evaluation (switching delay included).
    pub full: Vec<f64>,
    /// `wⱼ · Uⱼ` under the HASTE-R relaxation (`ρ = 0`).
    pub relaxed: Vec<f64>,
}

/// Why a shard operation failed. Mirrors the wire protocol's error space
/// one-to-one minus transport concerns.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// No scenario loaded yet.
    NoScenario,
    /// `LOAD` on a shard that already has an engine.
    AlreadyLoaded,
    /// The time grid is exhausted.
    AtHorizon,
    /// The scenario text or value failed validation.
    BadScenario(String),
    /// A snapshot failed to parse or validate.
    BadSnapshot(String),
    /// The engine refused a submission.
    Admit(AdmitError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoScenario => write!(f, "no scenario loaded (LOAD or RESTORE first)"),
            ShardError::AlreadyLoaded => write!(
                f,
                "a scenario is already loaded (RESTORE replaces state, LOAD does not)"
            ),
            ShardError::AtHorizon => write!(f, "the time grid is exhausted"),
            ShardError::BadScenario(reason) => write!(f, "bad scenario: {reason}"),
            ShardError::BadSnapshot(reason) => write!(f, "{reason}"),
            ShardError::Admit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One engine + admission control + metrics, no listener. See the module
/// docs for the ownership story.
pub struct Shard {
    engine: Mutex<Option<OnlineEngine>>,
    scheduling: OnlineConfig,
    max_pending: usize,
}

impl Shard {
    /// Creates an empty shard (no scenario loaded).
    pub fn new(scheduling: OnlineConfig, max_pending: usize) -> Self {
        Shard {
            engine: Mutex::new(None),
            scheduling,
            max_pending,
        }
    }

    /// The scheduling configuration engines of this shard are created with.
    pub fn scheduling(&self) -> &OnlineConfig {
        &self.scheduling
    }

    /// The admission bound (submissions per open slot).
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Parses a scenario document and installs a fresh engine.
    pub fn load_text(&self, payload: &str) -> Result<LoadInfo, ShardError> {
        match haste_model::io::read_scenario(payload) {
            Ok(scenario) => self.load_scenario(scenario),
            Err(e) => Err(ShardError::BadScenario(e.to_string())),
        }
    }

    /// Installs a fresh engine for an already-built scenario (the router
    /// path: sub-scenarios come from [`haste_model::Partition::split`],
    /// never from re-parsing text).
    pub fn load_scenario(&self, scenario: haste_model::Scenario) -> Result<LoadInfo, ShardError> {
        if let Err(e) = scenario.validate() {
            return Err(ShardError::BadScenario(e.to_string()));
        }
        let mut engine = self.engine.lock();
        if engine.is_some() {
            return Err(ShardError::AlreadyLoaded);
        }
        let new = OnlineEngine::new(scenario, self.scheduling.clone(), self.max_pending);
        let info = LoadInfo {
            chargers: new.scenario().num_chargers(),
            staged: new.staged_len() + new.scenario().num_tasks(),
            slots: new.scenario().grid.num_slots,
            clock: new.clock(),
            open: !new.is_closed(),
        };
        *engine = Some(new);
        Ok(info)
    }

    /// Submits a task into the open slot. Returns the shard-local task id
    /// and the release slot (the current clock).
    pub fn submit(&self, spec: TaskSpec) -> Result<(TaskId, usize), ShardError> {
        let mut engine = self.engine.lock();
        match engine.as_mut() {
            None => Err(ShardError::NoScenario),
            Some(engine) => match engine.submit(spec) {
                Ok(id) => Ok((id, engine.clock())),
                Err(e) => Err(ShardError::Admit(e)),
            },
        }
    }

    /// Advances up to `n` slots (stopping at the horizon). Returns the new
    /// clock and whether the grid is still open. Fails with
    /// [`ShardError::AtHorizon`] only when already closed on entry.
    pub fn tick(&self, n: usize) -> Result<(usize, bool), ShardError> {
        let mut engine = self.engine.lock();
        match engine.as_mut() {
            None => Err(ShardError::NoScenario),
            Some(engine) => {
                if engine.is_closed() {
                    return Err(ShardError::AtHorizon);
                }
                for _ in 0..n {
                    if engine.tick().is_none() {
                        break;
                    }
                }
                Ok((engine.clock(), !engine.is_closed()))
            }
        }
    }

    /// The current clock and open flag.
    pub fn clock(&self) -> Result<(usize, bool), ShardError> {
        match self.engine.lock().as_ref() {
            None => Err(ShardError::NoScenario),
            Some(engine) => Ok((engine.clock(), !engine.is_closed())),
        }
    }

    /// The schedule as a text document (the model's serialization format).
    pub fn schedule_text(&self) -> Result<String, ShardError> {
        match self.engine.lock().as_ref() {
            None => Err(ShardError::NoScenario),
            Some(engine) => Ok(haste_model::io::write_schedule(engine.schedule())),
        }
    }

    /// A clone of the current schedule (shard-local charger ids).
    pub fn schedule(&self) -> Result<haste_model::Schedule, ShardError> {
        match self.engine.lock().as_ref() {
            None => Err(ShardError::NoScenario),
            Some(engine) => Ok(engine.schedule().clone()),
        }
    }

    /// Total `(full, relaxed)` utility of the schedule as executed so far.
    pub fn utility(&self) -> Result<(f64, f64), ShardError> {
        let mut engine = self.engine.lock();
        match engine.as_mut() {
            None => Err(ShardError::NoScenario),
            Some(engine) => {
                let full = engine.evaluate().total_utility;
                let relaxed = engine.relaxed_value().total_utility;
                Ok((full, relaxed))
            }
        }
    }

    /// Per-task weighted utility terms in task-id order (see
    /// [`UtilityParts`]). Both evaluations run over the engine's own
    /// coverage map.
    pub fn utility_parts(&self) -> Result<UtilityParts, ShardError> {
        let mut engine = self.engine.lock();
        match engine.as_mut() {
            None => Err(ShardError::NoScenario),
            Some(engine) => {
                let report = engine.evaluate();
                let relaxed_report = engine.relaxed_value();
                let full = weighted(engine, &report.per_task_utility);
                let relaxed = weighted(engine, &relaxed_report.per_task_utility);
                Ok(UtilityParts { full, relaxed })
            }
        }
    }

    /// Every engine counter (see [`ShardStatus`]).
    pub fn status(&self) -> Result<ShardStatus, ShardError> {
        match self.engine.lock().as_ref() {
            None => Err(ShardError::NoScenario),
            Some(engine) => {
                let metrics = engine.metrics();
                let stats = engine.stats();
                let (admitted, rejected, pending) = engine.counters();
                Ok(ShardStatus {
                    clock: engine.clock(),
                    open: !engine.is_closed(),
                    tasks: engine.scenario().num_tasks(),
                    staged: engine.staged_len(),
                    admitted,
                    rejected,
                    pending,
                    threads: metrics.threads,
                    oracle_marginals: metrics.oracle_marginals,
                    oracle_commits: metrics.oracle_commits,
                    coverage_pair_tests: engine.coverage_pair_tests(),
                    task_lines_formatted: engine.task_lines_formatted(),
                    messages: stats.messages,
                    rounds: stats.rounds,
                    instance_build_us: metrics.instance_build.as_micros(),
                    greedy_us: metrics.greedy.as_micros(),
                    rounding_us: metrics.rounding.as_micros(),
                    coverage_build_us: metrics.coverage_build.as_micros(),
                })
            }
        }
    }

    /// The lossless engine snapshot document.
    pub fn snapshot(&self) -> Result<String, ShardError> {
        self.with_engine(OnlineEngine::snapshot)
    }

    /// Runs `f` on the engine under the shard's lock — how the router
    /// writes an in-process shard's snapshot straight into its composite
    /// document.
    pub(crate) fn with_engine<R>(
        &self,
        f: impl FnOnce(&mut OnlineEngine) -> R,
    ) -> Result<R, ShardError> {
        match self.engine.lock().as_mut() {
            None => Err(ShardError::NoScenario),
            Some(engine) => Ok(f(engine)),
        }
    }

    /// Replaces the shard's engine with one restored from a snapshot
    /// (unlike `LOAD`, this overwrites existing state).
    pub fn restore_text(&self, payload: &str) -> Result<LoadInfo, ShardError> {
        match OnlineEngine::restore(payload) {
            Ok(new) => Ok(self.install(new)),
            Err(e) => Err(ShardError::BadSnapshot(e.to_string())),
        }
    }

    /// Installs an already-restored engine, overwriting existing state.
    /// This is the commit half of a two-phase restore: callers holding
    /// several shards (the router) restore every snapshot first, validate
    /// the set as a whole, and only then install — so a corrupt section
    /// can never leave a partial cut behind.
    pub fn install(&self, engine: OnlineEngine) -> LoadInfo {
        let info = LoadInfo {
            chargers: engine.scenario().num_chargers(),
            staged: engine.staged_len() + engine.scenario().num_tasks(),
            slots: engine.scenario().grid.num_slots,
            clock: engine.clock(),
            open: !engine.is_closed(),
        };
        *self.engine.lock() = Some(engine);
        info
    }
}

/// `wⱼ · Uⱼ` for every task, in task-id order — the exact addends of the
/// evaluator's sequential total.
fn weighted(engine: &OnlineEngine, per_task_utility: &[f64]) -> Vec<f64> {
    engine
        .scenario()
        .tasks
        .iter()
        .zip(per_task_utility)
        .map(|(task, u)| task.weight * u)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};

    fn tiny_scenario() -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(6),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![Task::new(
                0,
                Vec2::new(8.0, 0.0),
                Angle::from_degrees(180.0),
                0,
                6,
                500.0,
                1.0,
            )],
            1.0 / 12.0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn lifecycle_errors_are_structured() {
        let shard = Shard::new(OnlineConfig::default(), 8);
        assert_eq!(shard.clock(), Err(ShardError::NoScenario));
        assert_eq!(shard.tick(1).unwrap_err(), ShardError::NoScenario);
        shard.load_scenario(tiny_scenario()).unwrap();
        assert_eq!(
            shard.load_scenario(tiny_scenario()).unwrap_err(),
            ShardError::AlreadyLoaded
        );
        let (clock, open) = shard.tick(6).unwrap();
        assert_eq!((clock, open), (6, false));
        assert_eq!(shard.tick(1).unwrap_err(), ShardError::AtHorizon);
    }

    #[test]
    fn utility_parts_sum_to_totals_bitwise() {
        let shard = Shard::new(OnlineConfig::default(), 8);
        shard.load_scenario(tiny_scenario()).unwrap();
        shard.tick(6).ok();
        let (full, relaxed) = shard.utility().unwrap();
        let parts = shard.utility_parts().unwrap();
        let full_sum: f64 = parts.full.iter().sum();
        let relaxed_sum: f64 = parts.relaxed.iter().sum();
        assert_eq!(full.to_bits(), full_sum.to_bits());
        assert_eq!(relaxed.to_bits(), relaxed_sum.to_bits());
        assert!(full > 0.0, "the single task should harvest something");
    }

    #[test]
    fn snapshot_restore_roundtrips_through_the_shard() {
        let shard = Shard::new(OnlineConfig::default(), 8);
        shard.load_scenario(tiny_scenario()).unwrap();
        shard.tick(2).unwrap();
        let snap = shard.snapshot().unwrap();
        let other = Shard::new(OnlineConfig::default(), 8);
        let info = other.restore_text(&snap).unwrap();
        assert_eq!(info.clock, 2);
        assert_eq!(other.snapshot().unwrap(), snap);
    }
}
