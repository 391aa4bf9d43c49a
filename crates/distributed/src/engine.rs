//! The incremental **online engine**: the event loop of [`solve_online`]
//! re-packaged as a long-lived state machine that a daemon can drive.
//!
//! [`solve_online`](crate::solve_online) consumes a scenario whose future is
//! fully known (task releases are data) and replays the arrival events in
//! one call. A scheduling *service* cannot do that: tasks arrive over a
//! wire, one at a time, while the virtual clock advances. [`OnlineEngine`]
//! holds the evolving scenario, schedule and negotiation state between
//! arrivals:
//!
//! * [`OnlineEngine::submit`] admits a task into the **current open slot**
//!   (with backpressure once `max_pending` submissions accumulate),
//! * [`OnlineEngine::tick`] closes the slot — if tasks arrived, the
//!   affected chargers re-negotiate exactly as in Algorithm 3 (rescheduling
//!   delay `τ`, switching delay `ρ` at evaluation) — and opens the next,
//! * [`OnlineEngine::snapshot`] / [`OnlineEngine::restore`] round-trip the
//!   full engine state through a text format, so a restarted daemon resumes
//!   bit-deterministically.
//!
//! # Determinism contract
//!
//! A streamed session and [`replay_trace`] of its submission trace produce
//! **bit-identical** schedules and utilities: both grow the scenario in the
//! same arrival order and fire the same re-negotiation events. The engine
//! also matches [`solve_online`](crate::solve_online) bitwise when every
//! task releases at slot 0 (then both negotiate over the same coverage).
//! With staggered releases the batch solver is *not* the reference: it
//! builds its coverage map and neighbor graph over all tasks — including
//! ones the online system has not seen yet — whereas the engine only ever
//! knows arrived tasks, which is the honest online information model.
//!
//! The engine ignores [`OnlineConfig::failures`]; injected charger failures
//! are a batch-experiment feature (a daemon would learn of failures through
//! its own channel, which this crate does not model yet).

use std::collections::VecDeque;
use std::time::Instant;

use haste_core::SolverMetrics;
use haste_model::{
    evaluate, evaluate_relaxed, io, CoverageMap, EvalOptions, EvalReport, Scenario, Schedule, Task,
    TaskId,
};

use crate::neighbors::NeighborGraph;
use crate::online::{replan_event, OnlineConfig, OnlineResult, ReplanEvent};
use crate::protocol::NegotiationStats;
use crate::EngineKind;

/// A task submission, as it arrives over the wire: everything a [`Task`]
/// carries except its id and release slot, which the engine assigns (the
/// id is the arrival index, the release slot is the current open slot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Position of the rechargeable device, in meters.
    pub device_pos: haste_geometry::Vec2,
    /// Orientation of the device's receiving sector.
    pub device_facing: haste_geometry::Angle,
    /// One past the last active slot (absolute).
    pub end_slot: usize,
    /// Required charging energy in joules.
    pub required_energy: f64,
    /// Weight in the overall utility.
    pub weight: f64,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The per-slot submission queue is full; retry after the next tick.
    Backpressure {
        /// The configured `max_pending` bound that was hit.
        limit: usize,
    },
    /// The virtual clock has consumed every slot of the grid.
    Closed,
    /// The task itself is invalid (bad window, non-finite fields, …).
    BadTask(String),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Backpressure { limit } => {
                write!(f, "submission queue full ({limit} pending); tick first")
            }
            AdmitError::Closed => write!(f, "the time grid is exhausted"),
            AdmitError::BadTask(reason) => write!(f, "invalid task: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A snapshot failed to parse or reassemble into a consistent engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError {
    /// 1-based line number within the snapshot text (0 = whole document).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for SnapshotError {}

/// The incremental online scheduler: [`submit`](OnlineEngine::submit)
/// admits a task into the open slot, [`tick`](OnlineEngine::tick) closes
/// the slot and replans, and [`replay_trace`] of the arrived tasks
/// reproduces a streamed session bit for bit.
#[derive(Debug, Clone)]
pub struct OnlineEngine {
    /// The evolving instance: `tasks` holds exactly the *arrived* tasks, in
    /// arrival order (ids are arrival indices). Doubles as the submission
    /// trace that [`replay_trace`] consumes.
    scenario: Scenario,
    /// Pre-loaded future releases (from a scenario file), stably sorted by
    /// release slot; injected into `scenario` when their slot opens.
    staged: VecDeque<Task>,
    /// Chargeability over a prefix of `scenario`'s tasks, extended over
    /// the arrivals when they are needed.
    coverage: CoverageMap,
    /// The neighbor relation over exactly the tasks `coverage` holds.
    graph: NeighborGraph,
    /// Id of the open slot's first task: tasks `open_from..` arrived in
    /// it (ids are arrival indices and release slots never decrease).
    open_from: usize,
    /// Chargeability pair tests run: chargers × tasks covered so far.
    pair_tests: u64,
    /// The `scenario` section of [`snapshot`](OnlineEngine::snapshot) as
    /// far as it is rendered: the scenario's head lines, then the `task`
    /// lines of the first `rendered` arrived tasks. Arrived tasks are
    /// append-only and never change, so the text is only ever extended,
    /// the way `coverage` is. Empty until the first snapshot.
    scenario_text: String,
    /// Arrived tasks whose `task` line `scenario_text` holds.
    rendered: usize,
    /// Arrived-task lines formatted into `scenario_text` so far.
    task_lines: u64,
    config: OnlineConfig,
    max_pending: usize,
    /// Submissions admitted into the current open slot.
    pending: usize,
    /// The current open slot; slots `0..clock` are closed.
    clock: usize,
    schedule: Schedule,
    stats: NegotiationStats,
    metrics: SolverMetrics,
    admitted: u64,
    rejected: u64,
}

impl OnlineEngine {
    /// Creates an engine over a base scenario. Any tasks the scenario
    /// carries become *staged* arrivals: they are injected when the clock
    /// reaches their release slot, exactly as if a client had submitted
    /// them then (stable order: earlier ids first within a slot). Slot 0
    /// opens immediately.
    ///
    /// `max_pending` bounds submissions per open slot (admission control);
    /// use `usize::MAX` for no bound.
    pub fn new(mut scenario: Scenario, config: OnlineConfig, max_pending: usize) -> Self {
        let mut staged: Vec<Task> = std::mem::take(&mut scenario.tasks);
        staged.sort_by_key(|t| t.release_slot);
        let threads = haste_parallel::resolve_threads(config.threads);
        let n = scenario.num_chargers();
        let num_slots = scenario.grid.num_slots;
        let coverage = CoverageMap::build(&scenario);
        let mut engine = OnlineEngine {
            graph: NeighborGraph::build(&coverage),
            coverage,
            open_from: 0,
            pair_tests: 0,
            scenario_text: String::new(),
            rendered: 0,
            task_lines: 0,
            scenario,
            staged: staged.into(),
            config,
            max_pending,
            pending: 0,
            clock: 0,
            schedule: Schedule::empty(n, num_slots),
            stats: NegotiationStats::new(0),
            metrics: SolverMetrics {
                threads,
                ..SolverMetrics::default()
            },
            admitted: 0,
            rejected: 0,
        };
        engine.release_due();
        engine
    }

    /// Injects every staged task whose release slot has been reached into
    /// the live scenario, re-assigning ids to arrival order.
    fn release_due(&mut self) {
        while let Some(front) = self.staged.front() {
            if front.release_slot > self.clock {
                break;
            }
            let mut task = self.staged.pop_front().expect("front exists");
            task.id = TaskId(self.scenario.num_tasks() as u32);
            self.scenario.tasks.push(task);
            self.admitted += 1;
        }
    }

    /// Extends the coverage map and the neighbor graph over the tasks
    /// that arrived since the last refresh.
    fn refresh_coverage(&mut self) {
        let (from, to) = (self.coverage.num_tasks(), self.scenario.num_tasks());
        if from == to {
            return;
        }
        // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
        let start = Instant::now();
        self.coverage.extend(&self.scenario);
        self.graph.extend(&self.coverage, from..to);
        self.metrics.coverage_build += start.elapsed();
        self.pair_tests += ((to - from) * self.scenario.num_chargers()) as u64;
    }

    /// Admits a task into the current open slot (its release slot becomes
    /// the current clock). O(1) — negotiation is deferred to [`tick`]
    /// (`tick` is where the slot closes and arrivals become visible to the
    /// chargers, matching the paper's slotted information model).
    ///
    /// [`tick`]: OnlineEngine::tick
    pub fn submit(&mut self, spec: TaskSpec) -> Result<TaskId, AdmitError> {
        if self.is_closed() {
            self.rejected += 1;
            return Err(AdmitError::Closed);
        }
        if self.pending >= self.max_pending {
            self.rejected += 1;
            return Err(AdmitError::Backpressure {
                limit: self.max_pending,
            });
        }
        let id = self.scenario.num_tasks();
        let task = Task::new(
            id as u32,
            spec.device_pos,
            spec.device_facing,
            self.clock,
            spec.end_slot,
            spec.required_energy,
            spec.weight,
        );
        if let Err(e) = task.validate(id) {
            self.rejected += 1;
            return Err(AdmitError::BadTask(e.to_string()));
        }
        if task.end_slot > self.scenario.grid.num_slots {
            self.rejected += 1;
            return Err(AdmitError::BadTask(
                "task window exceeds the time grid".to_string(),
            ));
        }
        self.scenario.tasks.push(task);
        self.pending += 1;
        self.admitted += 1;
        Ok(TaskId(id as u32))
    }

    /// Closes the current slot and opens the next. If tasks arrived in the
    /// closing slot the chargers re-negotiate (one event, exactly as in
    /// [`solve_online`](crate::solve_online)); otherwise the plan stands.
    /// Returns the newly opened slot, or `None` once the grid is exhausted.
    pub fn tick(&mut self) -> Option<usize> {
        if self.is_closed() {
            return None;
        }
        let t = self.clock;
        if self.open_from < self.scenario.num_tasks() {
            self.refresh_coverage();
            let arrived_now: Vec<usize> = (self.open_from..self.scenario.num_tasks()).collect();
            let threads = self.metrics.threads;
            replan_event(
                &self.scenario,
                &self.coverage,
                &self.graph,
                &self.config,
                &mut self.schedule,
                ReplanEvent {
                    slot: t,
                    horizon: self.scenario.active_horizon(),
                    known: None,
                    disabled: &vec![false; self.scenario.num_chargers()],
                    arrived_now: &arrived_now,
                    failed_now: &[],
                    threads,
                },
                &mut self.stats,
                &mut self.metrics,
            );
            self.metrics.oracle_marginals = self.stats.oracle_marginals;
            self.metrics.oracle_commits = self.stats.oracle_commits;
        }
        self.clock += 1;
        self.pending = 0;
        self.open_from = self.scenario.num_tasks();
        self.release_due();
        Some(self.clock)
    }

    /// Ticks through every remaining slot (releasing all staged tasks on
    /// the way), then evaluates the executed schedule under the full P1
    /// model and returns the same [`OnlineResult`] shape as
    /// [`solve_online`](crate::solve_online).
    pub fn finish(mut self) -> OnlineResult {
        while self.tick().is_some() {}
        self.refresh_coverage();
        // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
        let eval_start = Instant::now();
        let report = evaluate(
            &self.scenario,
            &self.coverage,
            &self.schedule,
            EvalOptions::default(),
        );
        let relaxed = evaluate_relaxed(&self.scenario, &self.coverage, &self.schedule);
        self.metrics.p1_eval += eval_start.elapsed();
        OnlineResult {
            schedule: self.schedule,
            report,
            relaxed_value: relaxed.total_utility,
            stats: self.stats,
            metrics: self.metrics,
        }
    }

    /// Full P1 evaluation of the schedule as executed so far (switching
    /// delay included). Cheap enough to answer a status query.
    pub fn evaluate(&mut self) -> EvalReport {
        self.refresh_coverage();
        evaluate(
            &self.scenario,
            &self.coverage,
            &self.schedule,
            EvalOptions::default(),
        )
    }

    /// HASTE-R (relaxed, no switching delay) evaluation of the current
    /// schedule, over the engine's own coverage map.
    pub fn relaxed_value(&mut self) -> EvalReport {
        self.refresh_coverage();
        evaluate_relaxed(&self.scenario, &self.coverage, &self.schedule)
    }

    /// The current open slot (slots `0..clock()` are closed).
    #[inline]
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Whether every slot of the grid has been consumed.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.clock >= self.scenario.grid.num_slots
    }

    /// The evolving scenario: exactly the arrived tasks, in arrival order —
    /// i.e. the submission trace [`replay_trace`] accepts.
    #[inline]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The schedule as planned/executed so far.
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Accumulated negotiation counters.
    #[inline]
    pub fn stats(&self) -> &NegotiationStats {
        &self.stats
    }

    /// Accumulated solver phase timings and oracle counters.
    #[inline]
    pub fn metrics(&self) -> &SolverMetrics {
        &self.metrics
    }

    /// Chargeability pair tests run so far: chargers × tasks covered, the
    /// build of a [`restore`](OnlineEngine::restore) included.
    #[inline]
    pub fn coverage_pair_tests(&self) -> u64 {
        self.pair_tests
    }

    /// Arrived-task `task` lines formatted for snapshots so far: each
    /// arrived task's line is formatted once per engine, by the first
    /// [`snapshot`](OnlineEngine::snapshot) after it arrived. A
    /// [`restore`](OnlineEngine::restore)d engine starts at zero, so its
    /// first snapshot formats every arrived task. Staged tasks' lines are
    /// formatted at each snapshot and not counted.
    #[inline]
    pub fn task_lines_formatted(&self) -> u64 {
        self.task_lines
    }

    /// `(admitted, rejected, pending-in-open-slot)` admission counters.
    /// Staged releases count as admitted when injected.
    #[inline]
    pub fn counters(&self) -> (u64, u64, usize) {
        (self.admitted, self.rejected, self.pending)
    }

    /// Tasks staged for future release slots (from the base scenario).
    #[inline]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The staged tasks themselves, in injection order, as the base
    /// scenario numbered them.
    pub fn staged(&self) -> impl Iterator<Item = &Task> {
        self.staged.iter()
    }

    /// The scheduling configuration this engine runs under.
    #[inline]
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the full engine state as text:
    ///
    /// ```text
    /// # haste-service snapshot v1
    /// clock <open_slot>
    /// counters <admitted> <rejected> <pending>
    /// config <colors> <samples> <seed> <rounds|threaded> <localized> <threads> <max_pending>
    /// stats <messages> <rounds> <oracle_marginals> <oracle_commits>
    /// perslot messages <len> <v>...
    /// perslot rounds <len> <v>...
    /// scenario <num_lines>     (followed by an embedded scenario document)
    /// staged <num_tasks>       (followed by one `task` line each)
    /// schedule <num_lines>     (followed by an embedded schedule document)
    /// ```
    ///
    /// [`restore`](OnlineEngine::restore) reconstructs an engine that
    /// continues bit-identically (floats use shortest-roundtrip formatting,
    /// which is lossless). Phase *timings* reset to zero on restore — they
    /// are wall-clock measurements, not algorithm state. Charging
    /// parameters beyond the five the scenario text carries reset to
    /// simulation defaults, mirroring `model::io`.
    ///
    /// Takes `&mut self`, as [`evaluate`](OnlineEngine::evaluate) does:
    /// the engine keeps the rendered `task` lines of its arrived tasks and
    /// extends them here with the tasks that arrived since the last
    /// snapshot, so each line is formatted once per engine and a snapshot
    /// formats only its new arrivals (see
    /// [`task_lines_formatted`](OnlineEngine::task_lines_formatted)). The
    /// bytes are exactly those of a render from scratch.
    pub fn snapshot(&mut self) -> String {
        let mut out = String::with_capacity(self.snapshot_len_hint());
        self.write_snapshot(&mut out);
        out
    }

    /// Appends the [`snapshot`](OnlineEngine::snapshot) document to `out`,
    /// so a caller assembling several documents into one buffer (the
    /// router's composite snapshot) copies nothing twice.
    pub fn write_snapshot(&mut self, out: &mut String) {
        use std::fmt::Write as _;
        self.render_arrived();
        let _ = writeln!(out, "# haste-service snapshot v1");
        let _ = writeln!(out, "clock {}", self.clock);
        let _ = writeln!(
            out,
            "counters {} {} {}",
            self.admitted, self.rejected, self.pending
        );
        let engine = match self.config.engine {
            EngineKind::Rounds => "rounds",
            EngineKind::Threaded => "threaded",
        };
        let _ = writeln!(
            out,
            "config {} {} {} {} {} {} {}",
            self.config.negotiation.colors,
            self.config.negotiation.samples,
            self.config.negotiation.seed,
            engine,
            self.config.localized as u8,
            self.config.threads,
            self.max_pending
        );
        let _ = writeln!(
            out,
            "stats {} {} {} {}",
            self.stats.messages,
            self.stats.rounds,
            self.stats.oracle_marginals,
            self.stats.oracle_commits
        );
        for (name, values) in [
            ("messages", &self.stats.per_slot_messages),
            ("rounds", &self.stats.per_slot_rounds),
        ] {
            let _ = write!(out, "perslot {name} {}", values.len());
            for v in values {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "scenario {}", io::scenario_lines(&self.scenario));
        out.push_str(&self.scenario_text);
        let _ = writeln!(out, "staged {}", self.staged.len());
        for task in &self.staged {
            io::push_task_line(out, task);
        }
        let _ = writeln!(out, "schedule {}", io::schedule_lines(&self.schedule));
        io::push_schedule(out, &self.schedule);
    }

    /// The number of lines [`write_snapshot`](OnlineEngine::write_snapshot)
    /// appends: seven fixed lines, the three section headers, and the
    /// sections themselves.
    pub fn snapshot_lines(&self) -> usize {
        10 + io::scenario_lines(&self.scenario)
            + self.staged.len()
            + io::schedule_lines(&self.schedule)
    }

    /// About the bytes [`write_snapshot`](OnlineEngine::write_snapshot)
    /// appends, to size a buffer up front: exact for the `task` lines
    /// already rendered, estimated for the other lines and entries.
    pub fn snapshot_len_hint(&self) -> usize {
        let lines = self.scenario.num_chargers() + self.scenario.num_tasks() - self.rendered
            + self.staged.len();
        let entries = self.schedule.num_chargers() * self.schedule.num_slots()
            + self.stats.per_slot_messages.len()
            + self.stats.per_slot_rounds.len();
        1024 + self.scenario_text.len() + LINE_BYTES * lines + ENTRY_BYTES * entries
    }

    /// Extends `scenario_text` over the tasks that arrived since the last
    /// snapshot (rendering the head lines first, on the first one).
    fn render_arrived(&mut self) {
        if self.scenario_text.is_empty() {
            io::push_scenario_head(&mut self.scenario_text, &self.scenario);
        }
        for task in &self.scenario.tasks[self.rendered..] {
            io::push_task_line(&mut self.scenario_text, task);
        }
        let arrived = self.scenario.num_tasks();
        self.task_lines += (arrived - self.rendered) as u64;
        self.rendered = arrived;
    }

    /// Reconstructs an engine from [`snapshot`](OnlineEngine::snapshot)
    /// text. The restored engine continues bit-identically to the
    /// snapshotted one under the same subsequent operations.
    pub fn restore(text: &str) -> Result<Self, SnapshotError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut cursor = Cursor {
            lines: &lines,
            pos: 0,
        };

        let clock = {
            let (line_no, rest) = cursor.directive("clock")?;
            parse_uints(rest, 1, line_no)?[0]
        };
        let (admitted, rejected, pending) = {
            let (line_no, rest) = cursor.directive("counters")?;
            let v = parse_uints(rest, 3, line_no)?;
            (v[0] as u64, v[1] as u64, v[2])
        };
        let (config, max_pending) = {
            let (line_no, rest) = cursor.directive("config")?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 7 {
                return Err(SnapshotError {
                    line: line_no,
                    reason: format!("config expects 7 fields, got {}", fields.len()),
                });
            }
            let uint = |s: &str, what: &str| -> Result<usize, SnapshotError> {
                s.parse().map_err(|_| SnapshotError {
                    line: line_no,
                    reason: format!("bad {what} `{s}`"),
                })
            };
            let engine = match fields[3] {
                "rounds" => EngineKind::Rounds,
                "threaded" => EngineKind::Threaded,
                other => {
                    return Err(SnapshotError {
                        line: line_no,
                        reason: format!("unknown engine `{other}`"),
                    })
                }
            };
            let config = OnlineConfig {
                negotiation: crate::protocol::NegotiationConfig {
                    colors: uint(fields[0], "colors")?,
                    samples: uint(fields[1], "samples")?,
                    seed: fields[2].parse().map_err(|_| SnapshotError {
                        line: line_no,
                        reason: format!("bad seed `{}`", fields[2]),
                    })?,
                },
                engine,
                failures: Vec::new(),
                localized: match fields[4] {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(SnapshotError {
                            line: line_no,
                            reason: format!("bad localized flag `{other}`"),
                        })
                    }
                },
                threads: uint(fields[5], "threads")?,
            };
            (config, uint(fields[6], "max_pending")?)
        };
        let mut stats = {
            let (line_no, rest) = cursor.directive("stats")?;
            let v = parse_uints(rest, 4, line_no)?;
            NegotiationStats {
                messages: v[0] as u64,
                rounds: v[1] as u64,
                oracle_marginals: v[2] as u64,
                oracle_commits: v[3] as u64,
                per_slot_messages: Vec::new(),
                per_slot_rounds: Vec::new(),
            }
        };
        for name in ["messages", "rounds"] {
            let (line_no, rest) = cursor.directive("perslot")?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.first() != Some(&name) {
                return Err(SnapshotError {
                    line: line_no,
                    reason: format!("expected `perslot {name}`"),
                });
            }
            let values = parse_uints(&fields[1..].join(" "), fields.len() - 1, line_no)?;
            if values.is_empty() {
                return Err(SnapshotError {
                    line: line_no,
                    reason: "perslot needs a length field".to_string(),
                });
            }
            let (len, values) = (values[0], &values[1..]);
            if values.len() != len {
                return Err(SnapshotError {
                    line: line_no,
                    reason: format!(
                        "perslot {name}: expected {len} values, got {}",
                        values.len()
                    ),
                });
            }
            let values: Vec<u64> = values.iter().map(|&v| v as u64).collect();
            match name {
                "messages" => stats.per_slot_messages = values,
                _ => stats.per_slot_rounds = values,
            }
        }
        let scenario = {
            let block = cursor.block("scenario")?;
            let scenario = io::read_scenario(&block.text).map_err(|e| SnapshotError {
                line: block.line_no,
                reason: format!("embedded scenario: {e}"),
            })?;
            // Arrived tasks are in arrival order: released no later than
            // the clock, in non-decreasing release slots.
            check_release_order(
                scenario.tasks.iter().map(|task| (block.line_no, task)),
                "arrived",
                |slot| slot <= clock,
                &format!("after the clock {clock}"),
            )?;
            scenario
        };
        let staged = {
            let (line_no, rest) = cursor.directive("staged")?;
            let count = parse_uints(rest, 1, line_no)?[0];
            // The count is untrusted: the lines that follow bound it.
            let mut staged = Vec::new();
            for index in 0..count {
                let (line_no, line) = cursor.raw_line("staged task")?;
                let fields: Vec<&str> = line.split_whitespace().collect();
                if fields.first() != Some(&"task") {
                    return Err(SnapshotError {
                        line: line_no,
                        reason: "expected a `task` line".to_string(),
                    });
                }
                let task = io::parse_task_fields(&fields[1..]).map_err(|reason| SnapshotError {
                    line: line_no,
                    reason,
                })?;
                task.validate(index).map_err(|e| SnapshotError {
                    line: line_no,
                    reason: e.to_string(),
                })?;
                staged.push((line_no, task));
            }
            // Staged tasks wait for a slot after the clock, in release order.
            check_release_order(
                staged.iter().map(|(line_no, task)| (*line_no, task)),
                "staged",
                |slot| slot > clock,
                &format!("not after the clock {clock}"),
            )?;
            staged
                .into_iter()
                .map(|(_, task)| task)
                .collect::<VecDeque<_>>()
        };
        let schedule = {
            let block = cursor.block("schedule")?;
            io::read_schedule(&block.text).map_err(|e| SnapshotError {
                line: block.line_no,
                reason: format!("embedded schedule: {e}"),
            })?
        };

        if schedule.num_chargers() != scenario.num_chargers() {
            return Err(SnapshotError {
                line: 0,
                reason: "schedule/scenario charger counts disagree".to_string(),
            });
        }
        if schedule.num_slots() != scenario.grid.num_slots {
            return Err(SnapshotError {
                line: 0,
                reason: "schedule does not span the time grid".to_string(),
            });
        }
        let threads = haste_parallel::resolve_threads(config.threads);
        let coverage = CoverageMap::build(&scenario);
        Ok(OnlineEngine {
            graph: NeighborGraph::build(&coverage),
            coverage,
            open_from: scenario
                .tasks
                .partition_point(|task| task.release_slot < clock),
            pair_tests: (scenario.num_tasks() * scenario.num_chargers()) as u64,
            scenario_text: String::new(),
            rendered: 0,
            task_lines: 0,
            scenario,
            staged,
            config,
            max_pending,
            pending,
            clock,
            schedule,
            metrics: SolverMetrics {
                threads,
                oracle_marginals: stats.oracle_marginals,
                oracle_commits: stats.oracle_commits,
                ..SolverMetrics::default()
            },
            stats,
            admitted,
            rejected,
        })
    }
}

/// Bytes assumed per line still to be rendered when sizing a snapshot
/// buffer (a `task` line of shortest-roundtrip floats runs about 95).
const LINE_BYTES: usize = 100;

/// Bytes assumed per schedule entry or per-slot counter: a space and a
/// shortest-roundtrip float or an integer.
const ENTRY_BYTES: usize = 20;

/// Replays a submission trace in batch: every task of `scenario` is staged
/// and injected at its release slot, and the engine runs to the end of the
/// grid. A streamed session whose final scenario equals `scenario` (which
/// is exactly what [`OnlineEngine::scenario`] returns) produces the same
/// schedule and utility **bit for bit**.
pub fn replay_trace(scenario: Scenario, config: OnlineConfig) -> OnlineResult {
    OnlineEngine::new(scenario, config, usize::MAX).finish()
}

/// Line cursor over a snapshot document (top-level comments/blanks are
/// skipped; counted embedded blocks are taken verbatim).
struct Cursor<'a> {
    lines: &'a [&'a str],
    pos: usize,
}

/// A counted embedded block (`scenario`/`schedule` sections).
struct Block {
    text: String,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    /// Next non-blank, non-comment line, split as `(line_no, directive, rest)`.
    fn next_directive(&mut self) -> Option<(usize, &'a str, &'a str)> {
        while self.pos < self.lines.len() {
            let line_no = self.pos + 1;
            let line = self.lines[self.pos].trim();
            self.pos += 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            return Some((line_no, directive, rest.trim()));
        }
        None
    }

    /// Demands the next directive to be `expected`; returns `(line_no, rest)`.
    fn directive(&mut self, expected: &str) -> Result<(usize, &'a str), SnapshotError> {
        match self.next_directive() {
            Some((line_no, d, rest)) if d == expected => Ok((line_no, rest)),
            Some((line_no, d, _)) => Err(SnapshotError {
                line: line_no,
                reason: format!("expected `{expected}`, found `{d}`"),
            }),
            None => Err(SnapshotError {
                line: self.lines.len(),
                reason: format!("truncated: missing `{expected}` section"),
            }),
        }
    }

    /// Reads a `<name> <num_lines>` header plus that many verbatim lines.
    fn block(&mut self, name: &str) -> Result<Block, SnapshotError> {
        let (line_no, rest) = self.directive(name)?;
        let count = parse_uints(rest, 1, line_no)?[0];
        // Compared against what remains, so an absurd count cannot wrap.
        let remain = self.lines.len() - self.pos;
        if count > remain {
            return Err(SnapshotError {
                line: line_no,
                reason: format!("truncated: `{name}` announces {count} lines, {remain} remain"),
            });
        }
        let mut text = String::new();
        for line in &self.lines[self.pos..self.pos + count] {
            text.push_str(line);
            text.push('\n');
        }
        self.pos += count;
        Ok(Block { text, line_no })
    }

    /// The next raw line (no comment skipping — used inside counted
    /// sections such as `staged`).
    fn raw_line(&mut self, what: &str) -> Result<(usize, &'a str), SnapshotError> {
        if self.pos >= self.lines.len() {
            return Err(SnapshotError {
                line: self.lines.len(),
                reason: format!("truncated: missing {what} line"),
            });
        }
        let line_no = self.pos + 1;
        let line = self.lines[self.pos];
        self.pos += 1;
        Ok((line_no, line))
    }
}

/// Refuses a task sequence an engine never writes: each `(line, task)`
/// must release in a slot `allowed` admits, no earlier than the task
/// before it.
fn check_release_order<'t>(
    tasks: impl Iterator<Item = (usize, &'t Task)>,
    which: &str,
    allowed: impl Fn(usize) -> bool,
    refusal: &str,
) -> Result<(), SnapshotError> {
    let mut previous = 0;
    for (index, (line, task)) in tasks.enumerate() {
        let slot = task.release_slot;
        let fault = if !allowed(slot) {
            refusal
        } else if slot < previous {
            "before the task ahead of it"
        } else {
            previous = slot;
            continue;
        };
        return Err(SnapshotError {
            line,
            reason: format!("{which} task {index} releases in slot {slot}, {fault}"),
        });
    }
    Ok(())
}

/// Parses exactly `expected` whitespace-separated non-negative integers.
fn parse_uints(text: &str, expected: usize, line_no: usize) -> Result<Vec<usize>, SnapshotError> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    if fields.len() != expected {
        return Err(SnapshotError {
            line: line_no,
            reason: format!("expected {expected} fields, got {}", fields.len()),
        });
    }
    fields
        .iter()
        .map(|f| {
            f.parse::<usize>().map_err(|_| SnapshotError {
                line: line_no,
                reason: format!("`{f}` is not a non-negative integer"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_online;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, TimeGrid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_scenario(seed: u64, n: usize, m: usize, tau: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = ChargingParams::simulation_default();
        let chargers = (0..n)
            .map(|i| {
                Charger::new(
                    i as u32,
                    Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                )
            })
            .collect();
        let tasks = (0..m)
            .map(|j| {
                let release = rng.gen_range(0..5usize);
                let duration = rng.gen_range(2 * tau.max(1)..=8usize.max(2 * tau + 1));
                Task::new(
                    j as u32,
                    Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    release,
                    release + duration,
                    rng.gen_range(500.0..3000.0),
                    1.0 / m as f64,
                )
            })
            .collect();
        Scenario::new(
            params,
            TimeGrid::minutes(16),
            chargers,
            tasks,
            1.0 / 12.0,
            tau,
        )
        .unwrap()
    }

    fn spec_of(task: &Task) -> TaskSpec {
        TaskSpec {
            device_pos: task.device_pos,
            device_facing: task.device_facing,
            end_slot: task.end_slot,
            required_energy: task.required_energy,
            weight: task.weight,
        }
    }

    /// Streams a scenario's tasks live (submitting each at its release
    /// slot) and returns the engine just before the final run-out.
    fn stream(scenario: &Scenario, config: &OnlineConfig) -> OnlineEngine {
        let mut base = scenario.clone();
        base.tasks.clear();
        let mut engine = OnlineEngine::new(base, config.clone(), usize::MAX);
        let mut by_release: Vec<&Task> = scenario.tasks.iter().collect();
        by_release.sort_by_key(|t| t.release_slot);
        let mut next = 0;
        loop {
            while next < by_release.len() && by_release[next].release_slot == engine.clock() {
                engine.submit(spec_of(by_release[next])).unwrap();
                next += 1;
            }
            if engine.tick().is_none() {
                break;
            }
        }
        assert_eq!(next, by_release.len(), "every task submitted");
        engine
    }

    #[test]
    fn streamed_session_equals_batch_replay() {
        let s = random_scenario(11, 5, 12, 1);
        let config = OnlineConfig::default();
        let engine = stream(&s, &config);
        let trace = engine.scenario().clone();
        let streamed = engine.finish();
        let replayed = replay_trace(trace, config);
        assert_eq!(streamed.schedule, replayed.schedule);
        assert_eq!(
            streamed.report.total_utility.to_bits(),
            replayed.report.total_utility.to_bits()
        );
        assert_eq!(streamed.stats.messages, replayed.stats.messages);
        assert_eq!(streamed.stats.rounds, replayed.stats.rounds);
    }

    #[test]
    fn streamed_session_equals_batch_replay_localized_threaded() {
        let s = random_scenario(23, 6, 10, 2);
        let config = OnlineConfig {
            engine: EngineKind::Threaded,
            localized: true,
            ..OnlineConfig::default()
        };
        let engine = stream(&s, &config);
        let trace = engine.scenario().clone();
        let streamed = engine.finish();
        let replayed = replay_trace(trace, config);
        assert_eq!(streamed.schedule, replayed.schedule);
        assert_eq!(
            streamed.report.total_utility.to_bits(),
            replayed.report.total_utility.to_bits()
        );
    }

    #[test]
    fn all_release_zero_matches_solve_online_bitwise() {
        // When every task releases at slot 0 the engine's arrived-only
        // coverage equals the batch solver's full coverage, so the two
        // must agree bit for bit.
        let mut s = random_scenario(7, 5, 10, 1);
        for task in &mut s.tasks {
            let d = task.end_slot - task.release_slot;
            task.release_slot = 0;
            task.end_slot = d;
        }
        s.validate().unwrap();
        let config = OnlineConfig::default();
        let cov = CoverageMap::build(&s);
        let batch = solve_online(&s, &cov, &config);
        let incremental = replay_trace(s, config);
        assert_eq!(batch.schedule, incremental.schedule);
        assert_eq!(
            batch.report.total_utility.to_bits(),
            incremental.report.total_utility.to_bits()
        );
        assert_eq!(
            batch.relaxed_value.to_bits(),
            incremental.relaxed_value.to_bits()
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let s = random_scenario(31, 5, 12, 1);
        let config = OnlineConfig::default();
        let mut base = s.clone();
        base.tasks.clear();
        let mut live = OnlineEngine::new(base, config.clone(), 64);
        let mut by_release: Vec<&Task> = s.tasks.iter().collect();
        by_release.sort_by_key(|t| t.release_slot);
        let mut next = 0;
        // Run half the grid live...
        for _ in 0..s.grid.num_slots / 2 {
            while next < by_release.len() && by_release[next].release_slot == live.clock() {
                live.submit(spec_of(by_release[next])).unwrap();
                next += 1;
            }
            live.tick().unwrap();
        }
        // ...then "kill the daemon" and bring up a restored twin.
        let snap = live.snapshot();
        let mut restored = OnlineEngine::restore(&snap).unwrap();
        assert_eq!(restored.clock(), live.clock());
        assert_eq!(restored.counters(), live.counters());
        // Drive both to the end with the identical remaining trace.
        let mut next_r = next;
        loop {
            while next < by_release.len() && by_release[next].release_slot == live.clock() {
                live.submit(spec_of(by_release[next])).unwrap();
                next += 1;
            }
            if live.tick().is_none() {
                break;
            }
        }
        loop {
            while next_r < by_release.len() && by_release[next_r].release_slot == restored.clock() {
                restored.submit(spec_of(by_release[next_r])).unwrap();
                next_r += 1;
            }
            if restored.tick().is_none() {
                break;
            }
        }
        let a = live.finish();
        let b = restored.finish();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(
            a.report.total_utility.to_bits(),
            b.report.total_utility.to_bits()
        );
        assert_eq!(a.stats.messages, b.stats.messages);
        assert_eq!(a.stats.per_slot_messages, b.stats.per_slot_messages);
    }

    #[test]
    fn snapshot_roundtrip_is_stable() {
        let s = random_scenario(5, 4, 8, 1);
        let mut engine = OnlineEngine::new(s, OnlineConfig::default(), 32);
        let snap = engine.snapshot();
        let mut restored = OnlineEngine::restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn admission_control_backpressure_and_badtask() {
        let s = random_scenario(13, 3, 0, 0);
        let mut engine = OnlineEngine::new(s, OnlineConfig::default(), 2);
        let good = TaskSpec {
            device_pos: Vec2::new(10.0, 10.0),
            device_facing: Angle::from_radians(1.0),
            end_slot: 6,
            required_energy: 800.0,
            weight: 1.0,
        };
        assert!(engine.submit(good).is_ok());
        assert!(engine.submit(good).is_ok());
        assert_eq!(
            engine.submit(good),
            Err(AdmitError::Backpressure { limit: 2 })
        );
        // A tick drains the pending window.
        engine.tick().unwrap();
        assert!(engine.submit(good).is_ok());
        // Window entirely in the past / beyond the grid.
        assert!(matches!(
            engine.submit(TaskSpec {
                end_slot: 1,
                ..good
            }),
            Err(AdmitError::BadTask(_))
        ));
        assert!(matches!(
            engine.submit(TaskSpec {
                end_slot: 10_000,
                ..good
            }),
            Err(AdmitError::BadTask(_))
        ));
        assert!(matches!(
            engine.submit(TaskSpec {
                required_energy: -1.0,
                ..good
            }),
            Err(AdmitError::BadTask(_))
        ));
        let (admitted, rejected, pending) = engine.counters();
        assert_eq!(admitted, 3);
        assert_eq!(rejected, 4);
        assert_eq!(pending, 1);
        // Exhaust the grid: everything is Closed afterwards.
        while engine.tick().is_some() {}
        assert_eq!(engine.submit(good), Err(AdmitError::Closed));
    }

    #[test]
    fn snapshot_error_paths() {
        // Truncated document.
        assert!(OnlineEngine::restore("clock 3\n").is_err());
        // Corrupt directive order.
        assert!(OnlineEngine::restore("counters 0 0 0\nclock 1\n").is_err());
        // Block announcing more lines than exist.
        let err = OnlineEngine::restore(
            "clock 0\ncounters 0 0 0\nconfig 1 1 0 rounds 0 1 8\nstats 0 0 0 0\n\
             perslot messages 0\nperslot rounds 0\nscenario 99\nparams 1 0 10 1 1\n",
        )
        .unwrap_err();
        assert!(err.reason.contains("truncated"), "{err}");
        // Tampered embedded scenario surfaces the nested parse error.
        let s = random_scenario(3, 2, 2, 0);
        let snap = OnlineEngine::new(s, OnlineConfig::default(), 8).snapshot();
        let bad = snap.replace("delays", "dleays");
        let err = OnlineEngine::restore(&bad).unwrap_err();
        assert!(err.reason.contains("embedded scenario"), "{err}");
    }

    #[test]
    fn a_streamed_session_tests_each_charger_task_pair_once() {
        let s = random_scenario(11, 5, 12, 1);
        let engine = stream(&s, &OnlineConfig::default());
        assert_eq!(engine.coverage_pair_tests(), 5 * 12);
    }

    #[test]
    fn a_mid_slot_restore_continues_bit_identically() {
        // Staged tasks release in slots 0..5; two submissions arrive in
        // each of the first six slots.
        let s = random_scenario(53, 5, 14, 1);
        let specs: Vec<TaskSpec> = random_scenario(54, 5, 12, 1)
            .tasks
            .iter()
            .map(|task| TaskSpec {
                end_slot: 12,
                ..spec_of(task)
            })
            .collect();
        let chunks: Vec<&[TaskSpec]> = specs.chunks(2).collect();
        let mut live = OnlineEngine::new(s, OnlineConfig::default(), usize::MAX);
        for (slot, chunk) in chunks[..3].iter().enumerate() {
            if slot > 0 {
                live.tick().unwrap();
            }
            for spec in *chunk {
                live.submit(*spec).unwrap();
            }
        }
        // Slot 2 is open with submissions pending and staged releases due.
        let restored = OnlineEngine::restore(&live.snapshot()).unwrap();
        assert_eq!((restored.clock(), restored.counters().2), (2, 2));
        let open = restored.scenario().tasks.iter();
        assert!(open.filter(|task| task.release_slot == 2).count() > 2);
        let run_out = |mut engine: OnlineEngine| {
            for chunk in &chunks[3..] {
                engine.tick().unwrap();
                for spec in *chunk {
                    engine.submit(*spec).unwrap();
                }
            }
            while engine.tick().is_some() {}
            let pair_tests = engine.coverage_pair_tests();
            (engine.snapshot(), pair_tests, engine.finish())
        };
        let (live_snapshot, live_pairs, a) = run_out(live);
        let (restored_snapshot, restored_pairs, b) = run_out(restored);
        assert_eq!(live_snapshot, restored_snapshot);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(
            a.report.total_utility.to_bits(),
            b.report.total_utility.to_bits()
        );
        assert_eq!(a.relaxed_value.to_bits(), b.relaxed_value.to_bits());
        assert_eq!(a.stats.per_slot_messages, b.stats.per_slot_messages);
        // Restore's one build counts: both ran chargers × tasks tests.
        assert_eq!((live_pairs, restored_pairs), (5 * 26, 5 * 26));
    }

    #[test]
    fn a_chargerless_engine_snapshot_round_trips() {
        let mut s = random_scenario(61, 3, 6, 1);
        s.chargers.clear();
        let mut engine = OnlineEngine::new(s, OnlineConfig::default(), usize::MAX);
        engine.tick().unwrap();
        let snap = engine.snapshot();
        let mut restored = OnlineEngine::restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        engine.tick().unwrap();
        restored.tick().unwrap();
        assert_eq!(restored.snapshot(), engine.snapshot());
    }

    /// An engine at slot 2 whose tasks released in slots 0, 1, 1 and 2
    /// and whose staged tasks release in slots 3 and 4.
    fn engine_at_slot_2() -> OnlineEngine {
        let mut s = random_scenario(41, 4, 6, 1);
        for (task, release) in s.tasks.iter_mut().zip([0, 1, 1, 2, 3, 4]) {
            task.release_slot = release;
            task.end_slot = 8;
        }
        let mut engine = OnlineEngine::new(s, OnlineConfig::default(), usize::MAX);
        engine.tick().unwrap();
        engine.tick().unwrap();
        engine
    }

    /// Why restore refuses the snapshot of [`engine_at_slot_2`] with the
    /// release slot of its `nth` task line (arrived tasks first, then
    /// staged ones) set to `slot`.
    fn refusal(nth: usize, slot: usize) -> String {
        let snap = engine_at_slot_2().snapshot();
        assert!(OnlineEngine::restore(&snap).is_ok());
        let mut seen = 0;
        let mut edited = String::new();
        for line in snap.lines() {
            let mut fields: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if fields.first().map(String::as_str) == Some("task") {
                if seen == nth {
                    fields[5] = slot.to_string();
                }
                seen += 1;
                edited.push_str(&fields.join(" "));
            } else {
                edited.push_str(line);
            }
            edited.push('\n');
        }
        OnlineEngine::restore(&edited).unwrap_err().reason
    }

    #[test]
    fn restore_refuses_arrived_tasks_out_of_release_order() {
        assert_eq!(
            refusal(3, 0),
            "arrived task 3 releases in slot 0, before the task ahead of it"
        );
    }

    #[test]
    fn restore_refuses_an_arrived_task_released_after_the_clock() {
        assert_eq!(
            refusal(3, 3),
            "arrived task 3 releases in slot 3, after the clock 2"
        );
    }

    #[test]
    fn restore_refuses_staged_tasks_out_of_release_order() {
        assert_eq!(
            refusal(4, 5),
            "staged task 1 releases in slot 4, before the task ahead of it"
        );
    }

    #[test]
    fn restore_refuses_a_staged_task_due_by_the_clock() {
        assert_eq!(
            refusal(4, 2),
            "staged task 0 releases in slot 2, not after the clock 2"
        );
    }

    /// One step of a scripted session.
    #[derive(Clone, Copy)]
    enum Step {
        Submit(TaskSpec),
        Snapshot,
        Tick,
    }

    /// Runs `steps`, checking every snapshot against a cold render: the
    /// engine [`OnlineEngine::restore`]d from it (whose line cache is
    /// empty) must render the same bytes, and its scenario section must
    /// be `write_scenario` of the engine's scenario. Returns the snapshots.
    fn run_steps(engine: &mut OnlineEngine, steps: &[Step]) -> Vec<String> {
        let mut snapshots = Vec::new();
        for step in steps {
            match step {
                Step::Submit(spec) => {
                    engine.submit(*spec).unwrap();
                }
                Step::Tick => {
                    engine.tick();
                }
                Step::Snapshot => {
                    let snap = engine.snapshot();
                    assert_eq!(snap.lines().count(), engine.snapshot_lines());
                    let mut cold = OnlineEngine::restore(&snap).unwrap();
                    assert_eq!(cold.task_lines_formatted(), 0);
                    assert_eq!(cold.snapshot(), snap);
                    let scenario = io::write_scenario(engine.scenario());
                    let block =
                        format!("\nscenario {}\n{scenario}staged ", scenario.lines().count());
                    assert!(snap.contains(&block), "scenario block differs");
                    snapshots.push(snap);
                }
            }
        }
        snapshots
    }

    #[test]
    fn the_line_cache_renders_what_a_cold_engine_renders() {
        // Staged tasks release in slots 0..5; three submissions arrive in
        // each of the first 14 slots. Snapshots are taken as each slot
        // opens, after its first submission and before its tick.
        let s = random_scenario(71, 5, 14, 1);
        let specs: Vec<TaskSpec> = random_scenario(72, 5, 42, 1)
            .tasks
            .iter()
            .map(|task| TaskSpec {
                end_slot: 16,
                ..spec_of(task)
            })
            .collect();
        let mut steps = Vec::new();
        for chunk in specs.chunks(3) {
            steps.push(Step::Snapshot);
            for (i, spec) in chunk.iter().enumerate() {
                steps.push(Step::Submit(*spec));
                if i == 0 {
                    steps.push(Step::Snapshot);
                }
            }
            steps.extend([Step::Snapshot, Step::Tick]);
        }
        steps.extend([Step::Tick, Step::Tick, Step::Snapshot]);
        // Seven steps a slot: split in slot 7, after the snapshot that
        // follows its first submission.
        let split = 7 * 7 + 3;
        assert!(matches!(steps[split - 1], Step::Snapshot));

        let mut engine = OnlineEngine::new(s.clone(), OnlineConfig::default(), usize::MAX);
        run_steps(&mut engine, &steps[..split]);
        let mut twin = engine.clone();
        let rest = run_steps(&mut engine, &steps[split..]);
        assert_eq!(run_steps(&mut twin, &steps[split..]), rest);
        assert!(engine.is_closed());
        // An engine that never snapshotted renders the same final bytes.
        let mut plain = OnlineEngine::new(s, OnlineConfig::default(), usize::MAX);
        let unsnapshotted: Vec<Step> = steps
            .iter()
            .copied()
            .filter(|step| !matches!(step, Step::Snapshot))
            .collect();
        run_steps(&mut plain, &unsnapshotted);
        assert_eq!(plain.snapshot(), *rest.last().unwrap());
        // Each arrived task's line was formatted once, by every engine.
        let tasks = engine.scenario().num_tasks() as u64;
        assert_eq!(tasks, 14 + 42);
        for e in [&engine, &twin, &plain] {
            assert_eq!(e.task_lines_formatted(), tasks);
        }
    }

    #[test]
    fn staged_releases_count_as_admitted() {
        let s = random_scenario(17, 4, 9, 1);
        let m = s.num_tasks() as u64;
        let result = replay_trace(s, OnlineConfig::default());
        // All staged tasks were injected; the utility is well-defined.
        assert!(result.report.total_utility.is_finite());
        assert!(m > 0);
    }
}
