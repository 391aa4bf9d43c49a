//! The **online engine**: Algorithm 3's event loop as a long-lived state
//! machine, the one implementation of the online scheduler.
//!
//! Tasks arrive one at a time while the virtual clock advances, whether
//! over a wire (a scheduling daemon) or from a scenario's release slots
//! ([`replay_trace`], which every batch experiment runs). [`OnlineEngine`]
//! holds the evolving scenario, schedule and negotiation state between
//! arrivals:
//!
//! * [`OnlineEngine::submit`] admits a task into the **current open slot**
//!   (with backpressure once `max_pending` submissions accumulate),
//! * [`OnlineEngine::tick`] closes the slot — if tasks arrived or a charger
//!   died in it, the affected chargers re-negotiate exactly as in
//!   Algorithm 3 (rescheduling delay `τ`, switching delay `ρ` at
//!   evaluation) — and opens the next,
//! * [`OnlineEngine::snapshot`] / [`OnlineEngine::restore`] round-trip the
//!   full engine state through a text format, so a restarted daemon resumes
//!   bit-deterministically.
//!
//! # Determinism contract
//!
//! A streamed session and [`replay_trace`] of its submission trace produce
//! **bit-identical** schedules and utilities: both grow the scenario in the
//! same arrival order and fire the same re-negotiation events.
//!
//! # Causality
//!
//! A replan sees only the tasks that have arrived: the coverage map, the
//! neighbor graph and the planning horizon all grow with the arrivals. So
//! dropping every task released after slot `t` changes neither the
//! schedule nor the per-slot negotiation counters of slots `..= t + τ`.
//!
//! Injected charger failures ([`OnlineConfig::failures`]) are honoured: a
//! dead charger is blanked from its death slot on and disabled in every
//! later replan, and the slot it dies in replans. Snapshots do not carry
//! them (see [`OnlineEngine::snapshot`]).

use std::collections::VecDeque;
use std::time::Instant;

use haste_core::SolverMetrics;
use haste_model::{
    evaluate, evaluate_relaxed, io, CandidateRows, CandidateTask, ChargerId, CoverageMap,
    EvalOptions, EvalReport, Scenario, Schedule, Task, TaskId,
};

use crate::neighbors::NeighborGraph;
use crate::online::{replan_event, OnlineConfig, OnlineResult, ReplanEvent};
use crate::protocol::NegotiationStats;

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
    /// `coverage`'s rows without the tasks no replan can serve any more:
    /// what each replan reads (see [`LiveRows`]).
    live: LiveRows,
    /// Candidates in the live rows handed to each replan, summed.
    replan_candidates: u64,
    /// Id of the open slot's first task: tasks `open_from..` arrived in
    /// it (ids are arrival indices and release slots never decrease).
    open_from: usize,
    /// The `scenario` section of [`snapshot`](OnlineEngine::snapshot) as
    /// far as it is rendered: the scenario's head lines, then the `task`
    /// lines of the first `rendered` arrived tasks. Arrived tasks are
    /// append-only and never change, so the text is only ever extended,
    /// the way `coverage` is. Empty until the first snapshot.
    scenario_text: String,
    /// Arrived tasks whose `task` line `scenario_text` holds: every one
    /// of them was formatted once, by this engine.
    rendered: usize,
    config: OnlineConfig,
    max_pending: usize,
    /// Submissions admitted into the current open slot.
    pending: usize,
    /// The current open slot; slots `0..clock` are closed.
    clock: usize,
    schedule: Schedule,
    /// Negotiation counters, the oracle counters among them.
    stats: NegotiationStats,
    /// Phase timings and the thread count; [`metrics`](OnlineEngine::metrics)
    /// reads the oracle counters from `stats`.
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
            live: LiveRows::after(&coverage, &scenario, 0),
            replan_candidates: 0,
            coverage,
            open_from: 0,
            scenario_text: String::new(),
            rendered: 0,
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

    /// Extends the coverage map, the neighbor graph and the live rows
    /// over the tasks that arrived since the last refresh.
    fn refresh_coverage(&mut self) {
        let (from, to) = (self.coverage.num_tasks(), self.scenario.num_tasks());
        if from == to {
            return;
        }
        // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
        let start = Instant::now();
        self.coverage.extend(&self.scenario);
        self.graph.extend(&self.coverage, from..to);
        self.live.append(&self.coverage, from);
        self.metrics.coverage_build += start.elapsed();
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

    /// Closes the current slot and opens the next. If tasks arrived or a
    /// charger died in the closing slot the chargers re-negotiate (one
    /// event for both); otherwise the plan stands. Returns the newly opened
    /// slot, or `None` once the grid is exhausted.
    pub fn tick(&mut self) -> Option<usize> {
        if self.is_closed() {
            return None;
        }
        let t = self.clock;
        let failed_now: Vec<usize> = self
            .config
            .failures
            .iter()
            .filter(|failure| failure.slot == t)
            .map(|failure| failure.charger.index())
            .collect();
        if self.open_from < self.scenario.num_tasks() || !failed_now.is_empty() {
            self.refresh_coverage();
            // This plan takes effect at `t + τ`, and later ones later
            // still: a task ending by then can never gain energy again.
            self.live
                .retain_after(&self.scenario, t + self.scenario.tau);
            self.replan_candidates += self.live.len() as u64;
            let arrived_now: Vec<usize> = (self.open_from..self.scenario.num_tasks()).collect();
            // The prefix the replan freezes holds no dead charger's slots.
            let disabled = self.blank_dead();
            replan_event(
                &self.scenario,
                &self.coverage,
                &self.live,
                &self.graph,
                &self.config,
                &mut self.schedule,
                ReplanEvent {
                    slot: t,
                    disabled: &disabled,
                    arrived_now: &arrived_now,
                    failed_now: &failed_now,
                },
                &mut self.stats,
                &mut self.metrics,
            );
            // Holding orientations must never resurrect a dead charger.
            self.blank_dead();
        }
        self.clock += 1;
        self.pending = 0;
        self.open_from = self.scenario.num_tasks();
        self.release_due();
        Some(self.clock)
    }

    /// Blanks every charger dead by the open slot, from its death slot on
    /// (a dead charger stops emitting the moment it dies, however long its
    /// replan takes), and returns which chargers are dead.
    fn blank_dead(&mut self) -> Vec<bool> {
        let mut dead = vec![false; self.schedule.num_chargers()];
        for failure in self.config.failures.iter().filter(|f| f.slot <= self.clock) {
            dead[failure.charger.index()] = true;
            for k in failure.slot..self.schedule.num_slots() {
                self.schedule.set(failure.charger, k, None);
            }
        }
        dead
    }

    /// Ticks through every remaining slot (releasing all staged tasks on
    /// the way), then evaluates the executed schedule under the full P1
    /// model.
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
            metrics: self.metrics(),
            schedule: self.schedule,
            report,
            relaxed_value: relaxed.total_utility,
            stats: self.stats,
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

    /// Accumulated solver phase timings, with the oracle counters of
    /// [`stats`](OnlineEngine::stats).
    pub fn metrics(&self) -> SolverMetrics {
        SolverMetrics {
            oracle_marginals: self.stats.oracle_marginals,
            oracle_commits: self.stats.oracle_commits,
            ..self.metrics.clone()
        }
    }

    /// Chargeability pair tests run so far: chargers × tasks covered, the
    /// build of a [`restore`](OnlineEngine::restore) included.
    #[inline]
    pub fn coverage_pair_tests(&self) -> u64 {
        (self.scenario.num_chargers() * self.coverage.num_tasks()) as u64
    }

    /// Candidates in the live rows handed to each replan so far, summed
    /// over replans: each charger's candidates of the arrived tasks that
    /// end after the replan's effective slot `t + τ`. It follows the live
    /// tasks, not the history. A [`restore`](OnlineEngine::restore)d
    /// engine starts at zero.
    #[inline]
    pub fn replan_candidates(&self) -> u64 {
        self.replan_candidates
    }

    /// Arrived-task `task` lines formatted for snapshots so far: each
    /// arrived task's line is formatted once per engine, by the first
    /// [`snapshot`](OnlineEngine::snapshot) after it arrived. A
    /// [`restore`](OnlineEngine::restore)d engine starts at zero, so its
    /// first snapshot formats every arrived task. Staged tasks' lines are
    /// formatted at each snapshot and not counted.
    #[inline]
    pub fn task_lines_formatted(&self) -> u64 {
        self.rendered as u64
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
    /// config <colors> <samples> <seed> rounds <localized> <threads> <max_pending>
    /// stats <messages> <rounds> <oracle_marginals> <oracle_commits>
    /// perslot messages <len> <v>...
    /// perslot rounds <len> <v>...
    /// scenario <num_lines>     (followed by an embedded scenario document)
    /// staged <num_tasks>       (followed by one `task` line each)
    /// schedule <num_lines>     (followed by an embedded schedule document)
    /// ```
    ///
    /// The fourth `config` field names the negotiation engine and is
    /// always `rounds`. [`restore`](OnlineEngine::restore) also accepts
    /// `threaded`: that engine negotiates the same bits (see
    /// [`negotiate_threaded`](crate::negotiate_threaded)), so the
    /// restored engine runs rounds either way.
    ///
    /// [`restore`](OnlineEngine::restore) reconstructs an engine that
    /// continues bit-identically (floats use shortest-roundtrip formatting,
    /// which is lossless). Phase *timings* reset to zero on restore — they
    /// are wall-clock measurements, not algorithm state. Charging
    /// parameters beyond the five the scenario text carries reset to
    /// simulation defaults, mirroring `model::io`. Injected charger
    /// failures ([`OnlineConfig::failures`]) are not carried either: a
    /// restored engine runs without them.
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
        let _ = writeln!(
            out,
            "config {} {} {} rounds {} {} {}",
            self.config.negotiation.colors,
            self.config.negotiation.samples,
            self.config.negotiation.seed,
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
        self.rendered = self.scenario.num_tasks();
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
            // The threaded engine negotiates the same bits as rounds, so
            // a snapshot naming it restores to a rounds engine.
            if !matches!(fields[3], "rounds" | "threaded") {
                return Err(SnapshotError {
                    line: line_no,
                    reason: format!("unknown engine `{}`", fields[3]),
                });
            }
            let config = OnlineConfig {
                negotiation: crate::protocol::NegotiationConfig {
                    colors: uint(fields[0], "colors")?,
                    samples: uint(fields[1], "samples")?,
                    seed: fields[2].parse().map_err(|_| SnapshotError {
                        line: line_no,
                        reason: format!("bad seed `{}`", fields[2]),
                    })?,
                },
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
            // Every later replan takes effect at `clock + τ` or after.
            live: LiveRows::after(&coverage, &scenario, clock + scenario.tau),
            replan_candidates: 0,
            coverage,
            open_from: scenario
                .tasks
                .partition_point(|task| task.release_slot < clock),
            scenario_text: String::new(),
            rendered: 0,
            scenario,
            staged,
            config,
            max_pending,
            pending,
            clock,
            schedule,
            metrics: SolverMetrics {
                threads,
                ..SolverMetrics::default()
            },
            stats,
            admitted,
            rejected,
        })
    }
}

/// Each charger's candidates, in task-id order, for the arrived tasks a
/// replan can still serve: those that end after the effective slot of the
/// last replan. A task ending by a replan's effective slot `t + τ` is
/// never usable at its decision slots, nor at any later replan's, so the
/// rows shrink with the finished tasks while the coverage map keeps the
/// whole history. End slots do not rise with task id, so the rows drop
/// tasks by a stable filter rather than an id range.
#[derive(Debug, Clone)]
struct LiveRows(Vec<Vec<CandidateTask>>);

impl LiveRows {
    /// `coverage`'s candidates of the tasks ending after `slot`.
    fn after(coverage: &CoverageMap, scenario: &Scenario, slot: usize) -> LiveRows {
        let mut live = LiveRows(vec![Vec::new(); coverage.num_chargers()]);
        live.append(coverage, 0);
        live.retain_after(scenario, slot);
        live
    }

    /// Appends `coverage`'s candidates of tasks `from..`: their ids exceed
    /// every id already in a row, so each row stays in task-id order.
    fn append(&mut self, coverage: &CoverageMap, from: usize) {
        for (i, row) in self.0.iter_mut().enumerate() {
            let all = coverage.tasks_of(ChargerId(i as u32));
            let new = all.partition_point(|cand| cand.task.index() < from);
            row.extend_from_slice(&all[new..]);
        }
    }

    /// Drops the candidates of tasks that end by `slot`, keeping order.
    fn retain_after(&mut self, scenario: &Scenario, slot: usize) {
        for row in &mut self.0 {
            row.retain(|cand| scenario.tasks[cand.task.index()].end_slot > slot);
        }
    }

    /// Candidates over all rows.
    fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

impl CandidateRows for LiveRows {
    fn tasks_of(&self, charger: ChargerId) -> &[CandidateTask] {
        &self.0[charger.index()]
    }
}

/// Bytes assumed per line still to be rendered when sizing a snapshot
/// buffer (a `task` line of shortest-roundtrip floats runs about 95).
const LINE_BYTES: usize = 100;

/// Bytes assumed per schedule entry or per-slot counter: a space and a
/// shortest-roundtrip float or an integer.
const ENTRY_BYTES: usize = 20;

/// Runs the online algorithm over a scenario whose tasks carry their
/// release slots: every task is staged and injected at its release slot,
/// and the engine runs to the end of the grid. This is the batch entry
/// point every online experiment uses. A streamed session whose final
/// scenario equals `scenario` (which is exactly what
/// [`OnlineEngine::scenario`] returns) produces the same schedule and
/// utility **bit for bit**.
///
/// The report's `per_task_energy` and `per_task_utility` follow
/// `scenario`'s task order; the engine itself numbers tasks in arrival
/// order, which is the same order for a trace.
pub fn replay_trace(scenario: Scenario, config: OnlineConfig) -> OnlineResult {
    let mut arrival: Vec<usize> = (0..scenario.num_tasks()).collect();
    arrival.sort_by_key(|&j| scenario.tasks[j].release_slot);
    let mut result = OnlineEngine::new(scenario, config, usize::MAX).finish();
    let report = &mut result.report;
    for per_task in [&mut report.per_task_energy, &mut report.per_task_utility] {
        for (&j, value) in arrival.iter().zip(per_task.clone()) {
            per_task[j] = value;
        }
    }
    result
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
    fn streamed_session_equals_batch_replay_localized() {
        let s = random_scenario(23, 6, 10, 2);
        let config = OnlineConfig {
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

    /// FNV-1a over every (charger, slot) entry's orientation bits.
    fn schedule_digest(schedule: &Schedule) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..schedule.num_chargers() {
            for k in 0..schedule.num_slots() {
                let word = schedule
                    .get(haste_model::ChargerId(i as u32), k)
                    .map_or(u64::MAX, |angle| angle.radians().to_bits());
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// `(seed, localized, failures, utility bits, relaxed bits, messages,
    /// rounds, schedule digest)` of one release-0 run.
    type Golden = (u64, bool, bool, u64, u64, u64, u64, u64);

    /// What the batch loop this engine replaced computed on the release-0
    /// scenarios of `release_zero_replays_keep_the_batch_loops_bits`.
    #[rustfmt::skip]
    const BATCH_LOOP_GOLDENS: [Golden; 16] = [
        (7, false, false, 0x3fc7484a6a130d2c, 0x3fc79f6d72c6b7d8, 62, 21, 0x5fa5e8d0eaf27a56),
        (7, false, true, 0x3fc110c750c9587c, 0x3fc14a178a36844f, 108, 55, 0x08cf0f40d1b91db5),
        (7, true, false, 0x3fc7484a6a130d2c, 0x3fc79f6d72c6b7d8, 62, 21, 0x5fa5e8d0eaf27a56),
        (7, true, true, 0x3fc110c750c9587c, 0x3fc14a178a36844f, 74, 37, 0x08cf0f40d1b91db5),
        (8, false, false, 0x3fc7d01b595a70ca, 0x3fc83b4d13515325, 66, 17, 0x321785ece17a9f8f),
        (8, false, true, 0x3fc3bcf5dd5793a3, 0x3fc458068c769961, 151, 51, 0xfb98d8b744e42eda),
        (8, true, false, 0x3fc7d01b595a70ca, 0x3fc83b4d13515325, 66, 17, 0x321785ece17a9f8f),
        (8, true, true, 0x3fc3bcf5dd5793a3, 0x3fc458068c769961, 81, 26, 0xfb98d8b744e42eda),
        (9, false, false, 0x3fc967010ff94a9a, 0x3fc9ab16505e1f7c, 31, 18, 0xcc378c7840c9fac7),
        (9, false, true, 0x3fc75d79f70dad10, 0x3fc7a18f377281f2, 100, 57, 0xe2de754ea5eb34e1),
        (9, true, false, 0x3fc967010ff94a9a, 0x3fc9ab16505e1f7c, 31, 18, 0xcc378c7840c9fac7),
        (9, true, true, 0x3fc75d79f70dad10, 0x3fc7a18f377281f2, 31, 18, 0xe2de754ea5eb34e1),
        (10, false, false, 0x3fc7ab91bcfc9078, 0x3fc848e73412aa9e, 45, 19, 0x56dd7b2bfd3c3ee9),
        (10, false, true, 0x3fbfde42e7e5a2a5, 0x3fc0bbefd72627c4, 119, 55, 0xe6c8974cc22a3589),
        (10, true, false, 0x3fc7ab91bcfc9078, 0x3fc848e73412aa9e, 45, 19, 0x56dd7b2bfd3c3ee9),
        (10, true, true, 0x3fbfde42e7e5a2a5, 0x3fc0bbefd72627c4, 57, 26, 0xe6c8974cc22a3589),
    ];

    /// Four of ten chargers, picked by `seed`, dying in slots 1, 2, 3
    /// and 5 when `failing`; none otherwise.
    fn staggered_failures(seed: u64, failing: bool) -> Vec<crate::ChargerFailure> {
        if !failing {
            return Vec::new();
        }
        (0..4usize)
            .map(|i| crate::ChargerFailure {
                charger: haste_model::ChargerId(((seed as usize + 2 * i) % 10) as u32),
                slot: [1, 2, 3, 5][i],
            })
            .collect()
    }

    #[test]
    fn release_zero_replays_keep_the_batch_loops_bits() {
        // With every task released at slot 0 the engine knows the whole
        // scenario from its first replan, as the batch loop did; staggered
        // failures then replan in their own slots.
        for (seed, localized, failing, utility, relaxed, messages, rounds, digest) in
            BATCH_LOOP_GOLDENS
        {
            let mut s = random_scenario(seed, 10, 30, 1);
            for task in &mut s.tasks {
                let d = task.end_slot - task.release_slot;
                task.release_slot = 0;
                task.end_slot = d;
            }
            s.validate().unwrap();
            let config = OnlineConfig {
                localized,
                failures: staggered_failures(seed, failing),
                ..OnlineConfig::default()
            };
            let r = replay_trace(s, config);
            let case = format!("seed {seed}, localized {localized}, failures {failing}");
            assert_eq!(r.report.total_utility.to_bits(), utility, "{case}");
            assert_eq!(r.relaxed_value.to_bits(), relaxed, "{case}");
            assert_eq!(
                (r.stats.messages, r.stats.rounds),
                (messages, rounds),
                "{case}"
            );
            assert_eq!(schedule_digest(&r.schedule), digest, "{case}");
        }
    }

    /// `(seed, τ, localized, failures, utility bits, relaxed bits,
    /// messages, rounds, oracle marginals, schedule digest)` of one
    /// staggered-release run.
    type StaggeredGolden = (u64, usize, bool, bool, u64, u64, u64, u64, u64, u64);

    /// The engine's bits on `random_scenario`'s staggered releases (tasks
    /// arriving in slots 0 to 4), pinned before the replan's energy pass
    /// and kept plans were rewritten. Unlike the release-zero rows, the
    /// localized replans here keep the plans of the chargers they leave
    /// out at arrival slots too, not only at failure slots.
    #[rustfmt::skip]
    const STAGGERED_GOLDENS: [StaggeredGolden; 36] = [
        (7, 0, false, false, 0x3fc98826d8966937, 0x3fc997840dc24588, 119, 77, 107, 0xa211e5d7b79c6c46),
        (7, 0, false, true, 0x3fc1f1dd663f657b, 0x3fc215be99fbfc7b, 84, 81, 82, 0x41caa1fb4c22ee6b),
        (7, 0, true, false, 0x3fc98826d8966937, 0x3fc997840dc24588, 119, 77, 91, 0xa211e5d7b79c6c46),
        (7, 0, true, true, 0x3fc1f1dd663f657b, 0x3fc215be99fbfc7b, 67, 58, 52, 0x41caa1fb4c22ee6b),
        (7, 1, false, false, 0x3fc7d8789c1705f2, 0x3fc84fc7d2e0885a, 99, 68, 84, 0x3e55973f8c26d731),
        (7, 1, false, true, 0x3fc064dd2413fc02, 0x3fc099bd2a1cb3cd, 66, 69, 60, 0x50966b170609b7c1),
        (7, 1, true, false, 0x3fc7d8789c1705f2, 0x3fc84fc7d2e0885a, 99, 68, 74, 0x3e55973f8c26d731),
        (7, 1, true, true, 0x3fc064dd2413fc02, 0x3fc099bd2a1cb3cd, 55, 50, 41, 0x50966b170609b7c1),
        (7, 2, false, false, 0x3fc50e6ffdc0323e, 0x3fc5a4057322f26a, 119, 50, 87, 0x245514e6215b8ba4),
        (7, 2, false, true, 0x3fbcbba1105fc8aa, 0x3fbd61ed99a3b3ca, 90, 53, 71, 0x2132476143f479e7),
        (7, 2, true, false, 0x3fc50e6ffdc0323e, 0x3fc5a4057322f26a, 119, 50, 76, 0x245514e6215b8ba4),
        (7, 2, true, true, 0x3fbcbba1105fc8aa, 0x3fbd61ed99a3b3ca, 72, 39, 48, 0x2132476143f479e7),
        (8, 0, false, false, 0x3fce0b6489382cfd, 0x3fceb2a599350c39, 169, 81, 176, 0xd2ef6e851f70ca92),
        (8, 0, false, true, 0x3fc5b5f17c95d9c1, 0x3fc65182ed4c5ad8, 116, 88, 126, 0xa9a4397b5d46346b),
        (8, 0, true, false, 0x3fce0b6489382cfd, 0x3fceb2a599350c39, 124, 80, 127, 0x7504c761e6a7fb2d),
        (8, 0, true, true, 0x3fc5b5f17c95d9c1, 0x3fc65182ed4c5ad8, 64, 70, 77, 0xa9a4397b5d46346b),
        (8, 1, false, false, 0x3fcb4e602ea08121, 0x3fcbfb4052b5d683, 138, 72, 128, 0x429544f34a625bad),
        (8, 1, false, true, 0x3fc274647dc470a8, 0x3fc31fe9c199ab51, 84, 72, 90, 0x2f59b8fcb9fff2ef),
        (8, 1, true, false, 0x3fcb4e602ea08121, 0x3fcbfb4052b5d683, 108, 70, 95, 0xb0aa6150399f914a),
        (8, 1, true, true, 0x3fc274647dc470a8, 0x3fc31fe9c199ab51, 51, 59, 59, 0x2f59b8fcb9fff2ef),
        (8, 2, false, false, 0x3fca43bbe74ff9be, 0x3fcb12573d65ee23, 154, 71, 160, 0x2b70858eb7bc16e5),
        (8, 2, false, true, 0x3fbe9bd8e2666463, 0x3fbfa06b65d243da, 113, 71, 117, 0x6ab9d609f024a0c6),
        (8, 2, true, false, 0x3fca43bbe74ff9be, 0x3fcb12573d65ee23, 105, 67, 114, 0x2b70858eb7bc16e5),
        (8, 2, true, true, 0x3fbe9bd8e2666463, 0x3fbfa06b65d243da, 55, 55, 70, 0x6ab9d609f024a0c6),
        (9, 0, false, false, 0x3fcba60086d0dc71, 0x3fcbef708d5d319c, 83, 81, 141, 0xa3ffe0323b2a91b2),
        (9, 0, false, true, 0x3fc5744d9a94d775, 0x3fc5a6da7d84d8d3, 101, 88, 148, 0x5c4de81801c7b5fd),
        (9, 0, true, false, 0x3fcba60086d0dc71, 0x3fcbef708d5d319c, 83, 79, 118, 0xa3ffe0323b2a91b2),
        (9, 0, true, true, 0x3fc5744d9a94d775, 0x3fc5a6da7d84d8d3, 83, 77, 111, 0x5c4de81801c7b5fd),
        (9, 1, false, false, 0x3fc9a1e793abcdc0, 0x3fc9eb579a3822eb, 76, 71, 117, 0xbefa43e7ee60969d),
        (9, 1, false, true, 0x3fc3d0eb92d5b7df, 0x3fc42523509ab186, 92, 79, 121, 0x49ae05669d5aea2b),
        (9, 1, true, false, 0x3fc9a1e793abcdc0, 0x3fc9eb579a3822eb, 76, 70, 100, 0xbefa43e7ee60969d),
        (9, 1, true, true, 0x3fc3d0eb92d5b7df, 0x3fc42523509ab186, 76, 69, 94, 0x49ae05669d5aea2b),
        (9, 2, false, false, 0x3fc721a1d63bf970, 0x3fc791da5fee96a3, 43, 57, 77, 0x7f5c9ce3a6e79f9e),
        (9, 2, false, true, 0x3fbf6c0242141b5d, 0x3fc0310161f54f5c, 53, 65, 80, 0x0efd6fb4c3381bec),
        (9, 2, true, false, 0x3fc721a1d63bf970, 0x3fc791da5fee96a3, 43, 56, 59, 0x7f5c9ce3a6e79f9e),
        (9, 2, true, true, 0x3fbf6c0242141b5d, 0x3fc0310161f54f5c, 43, 55, 55, 0x0efd6fb4c3381bec),
    ];

    #[test]
    fn staggered_replays_keep_their_bits() {
        for golden in STAGGERED_GOLDENS {
            let (seed, tau, localized, failing, ..) = golden;
            let config = OnlineConfig {
                localized,
                failures: staggered_failures(seed, failing),
                ..OnlineConfig::default()
            };
            let r = replay_trace(random_scenario(seed, 10, 30, tau), config);
            let got = (
                seed,
                tau,
                localized,
                failing,
                r.report.total_utility.to_bits(),
                r.relaxed_value.to_bits(),
                r.stats.messages,
                r.stats.rounds,
                r.stats.oracle_marginals,
                schedule_digest(&r.schedule),
            );
            assert_eq!(got, golden);
        }
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
        // A snapshot naming the threaded engine restores to rounds; an
        // unknown engine is refused.
        let naming = |engine: &str| -> String {
            snap.lines()
                .map(|line| match line.strip_prefix("config ") {
                    Some(fields) => format!("config {}\n", fields.replace("rounds", engine)),
                    None => format!("{line}\n"),
                })
                .collect()
        };
        let mut threaded = OnlineEngine::restore(&naming("threaded")).unwrap();
        assert_eq!(threaded.snapshot(), snap);
        let err = OnlineEngine::restore(&naming("gossip")).unwrap_err();
        assert_eq!(err.reason, "unknown engine `gossip`");
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

    /// A 64-slot stream of `per_slot` arrivals a slot, each active 2–6
    /// slots, over 6 chargers on a 30 m square.
    fn steady_stream(seed: u64, per_slot: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = 64;
        let chargers = (0..6)
            .map(|i| {
                Charger::new(
                    i,
                    Vec2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)),
                )
            })
            .collect();
        let tasks = (0..slots * per_slot)
            .map(|j| {
                let release = j / per_slot;
                Task::new(
                    j as u32,
                    Vec2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)),
                    Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    release,
                    (release + rng.gen_range(2..=6usize)).min(slots),
                    rng.gen_range(500.0..3000.0),
                    1.0,
                )
            })
            .collect();
        let grid = TimeGrid::new(60.0, slots);
        Scenario::new(
            ChargingParams::simulation_default(),
            grid,
            chargers,
            tasks,
            1.0 / 12.0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn replan_work_follows_the_live_tasks_not_the_history() {
        // A stream four times the 16 slots of the other tests: the full
        // rows grow with every slot, the live rows only with the tasks
        // still running.
        let mut engine =
            OnlineEngine::new(steady_stream(3, 6), OnlineConfig::default(), usize::MAX);
        let (mut live, mut full) = (Vec::new(), Vec::new());
        while !engine.is_closed() {
            let before = engine.replan_candidates();
            engine.tick();
            live.push((engine.replan_candidates() - before) as f64);
            full.push(
                (0..6)
                    .map(|i| engine.coverage.tasks_of(ChargerId(i)).len())
                    .sum::<usize>() as f64,
            );
        }
        let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;
        let quarter = live.len() / 4;
        let (first, last) = (0..quarter, live.len() - quarter..live.len());
        let (live_first, live_last) = (mean(&live[first.clone()]), mean(&live[last.clone()]));
        let (full_first, full_last) = (mean(&full[first]), mean(&full[last]));
        assert!(live_first > 0.0);
        assert!(
            live_last <= 2.0 * live_first,
            "live candidates per replan grew: {live_first} -> {live_last}"
        );
        assert!(
            full_last >= 4.0 * full_first,
            "full rows did not grow with the history: {full_first} -> {full_last}"
        );
        // The counter is exact: the same stream counts the same.
        let mut again = OnlineEngine::new(steady_stream(3, 6), OnlineConfig::default(), usize::MAX);
        while again.tick().is_some() {}
        assert_eq!(again.replan_candidates(), engine.replan_candidates());
        assert_eq!(engine.replan_candidates() as f64, live.iter().sum::<f64>());
    }

    #[test]
    fn a_restored_engine_counts_the_replan_candidates_the_original_does() {
        let s = steady_stream(4, 3);
        let mut engine = OnlineEngine::new(s, OnlineConfig::default(), usize::MAX);
        for _ in 0..20 {
            engine.tick();
        }
        let mut restored = OnlineEngine::restore(&engine.snapshot()).unwrap();
        assert_eq!(restored.replan_candidates(), 0);
        let at_snapshot = engine.replan_candidates();
        while engine.tick().is_some() {
            restored.tick();
            assert_eq!(
                restored.replan_candidates(),
                engine.replan_candidates() - at_snapshot
            );
            assert_eq!(restored.schedule(), engine.schedule());
        }
    }

    mod live_rows_properties {
        use super::*;
        use crate::ChargerFailure;
        use haste_core::SolverMetrics;
        use proptest::prelude::*;

        /// What one slot's close leaves observable: the schedule, the
        /// negotiation counters (totals, then per slot), and the P1 and
        /// relaxed totals as bits.
        type Observed = (Schedule, [u64; 4], Vec<u64>, Vec<u64>, u64, u64);

        fn observe(
            scenario: &Scenario,
            coverage: &CoverageMap,
            schedule: &Schedule,
            stats: &NegotiationStats,
        ) -> Observed {
            let full = evaluate(scenario, coverage, schedule, EvalOptions::default());
            let relaxed = evaluate_relaxed(scenario, coverage, schedule);
            (
                schedule.clone(),
                [
                    stats.messages,
                    stats.rounds,
                    stats.oracle_marginals,
                    stats.oracle_commits,
                ],
                stats.per_slot_messages.clone(),
                stats.per_slot_rounds.clone(),
                full.total_utility.to_bits(),
                relaxed.total_utility.to_bits(),
            )
        }

        /// The engine's event loop with every replan handed the full
        /// coverage map: the reference the live rows must match.
        fn full_rows_run(trace: &[Task], base: &Scenario, config: &OnlineConfig) -> Vec<Observed> {
            let mut scenario = base.clone();
            let mut coverage = CoverageMap::build(&scenario);
            let mut graph = NeighborGraph::build(&coverage);
            let mut schedule = Schedule::empty(scenario.num_chargers(), scenario.grid.num_slots);
            let mut stats = NegotiationStats::new(0);
            let mut metrics = SolverMetrics {
                threads: 1,
                ..SolverMetrics::default()
            };
            let blank_dead = |schedule: &mut Schedule, clock: usize| {
                let mut dead = vec![false; schedule.num_chargers()];
                for failure in config.failures.iter().filter(|f| f.slot <= clock) {
                    dead[failure.charger.index()] = true;
                    for k in failure.slot..schedule.num_slots() {
                        schedule.set(failure.charger, k, None);
                    }
                }
                dead
            };
            let mut observed = Vec::new();
            let mut next = 0;
            for t in 0..scenario.grid.num_slots {
                let open_from = scenario.num_tasks();
                while next < trace.len() && trace[next].release_slot == t {
                    let mut task = trace[next];
                    task.id = TaskId(scenario.num_tasks() as u32);
                    scenario.tasks.push(task);
                    next += 1;
                }
                let failed_now: Vec<usize> = config
                    .failures
                    .iter()
                    .filter(|f| f.slot == t)
                    .map(|f| f.charger.index())
                    .collect();
                if open_from < scenario.num_tasks() || !failed_now.is_empty() {
                    let from = coverage.num_tasks();
                    coverage.extend(&scenario);
                    graph.extend(&coverage, from..scenario.num_tasks());
                    let arrived_now: Vec<usize> = (open_from..scenario.num_tasks()).collect();
                    let disabled = blank_dead(&mut schedule, t);
                    replan_event(
                        &scenario,
                        &coverage,
                        &coverage,
                        &graph,
                        config,
                        &mut schedule,
                        ReplanEvent {
                            slot: t,
                            disabled: &disabled,
                            arrived_now: &arrived_now,
                            failed_now: &failed_now,
                        },
                        &mut stats,
                        &mut metrics,
                    );
                    blank_dead(&mut schedule, t);
                }
                observed.push(observe(&scenario, &coverage, &schedule, &stats));
            }
            observed
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Streams a random trace through the engine, whose replans
            /// read live rows, and through the full-rows loop: every
            /// slot's schedule, counters and utility bits agree.
            #[test]
            fn live_rows_change_no_bit(
                chargers in collection::vec((0.0f64..50.0, 0.0f64..50.0), 1..6),
                tasks in collection::vec(
                    (0.0f64..50.0, 0.0f64..50.0, 0.0f64..std::f64::consts::TAU, 0usize..10, 1usize..6, 300.0f64..3000.0),
                    0..36,
                ),
                tau in 0usize..3,
                localized in 0u8..2,
                failures in collection::vec((0u32..6, 0usize..12), 0..3),
            ) {
                let slots = 12;
                let mut trace: Vec<Task> = tasks
                    .iter()
                    .enumerate()
                    .map(|(j, &(x, y, facing, release, duration, energy))| {
                        Task::new(j as u32, Vec2::new(x, y), Angle::from_radians(facing), release, (release + duration).min(slots), energy, 1.0)
                    })
                    .collect();
                trace.sort_by_key(|task| task.release_slot);
                let base = Scenario::new(
                    ChargingParams::simulation_default(),
                    TimeGrid::new(60.0, slots),
                    chargers.iter().enumerate().map(|(i, &(x, y))| Charger::new(i as u32, Vec2::new(x, y))).collect(),
                    Vec::new(),
                    1.0 / 12.0,
                    tau,
                )
                .unwrap();
                let config = OnlineConfig {
                    localized: localized == 1,
                    failures: failures
                        .iter()
                        .filter(|&&(charger, _)| (charger as usize) < chargers.len())
                        .map(|&(charger, slot)| ChargerFailure { charger: ChargerId(charger), slot })
                        .collect(),
                    threads: 1,
                    ..OnlineConfig::default()
                };
                let reference = full_rows_run(&trace, &base, &config);
                let mut engine = OnlineEngine::new(base, config, usize::MAX);
                let mut next = 0;
                for (t, expected) in reference.iter().enumerate() {
                    while next < trace.len() && trace[next].release_slot == t {
                        engine.submit(spec_of(&trace[next])).unwrap();
                        next += 1;
                    }
                    engine.tick();
                    let mut coverage = engine.coverage.clone();
                    coverage.extend(engine.scenario());
                    let got = observe(engine.scenario(), &coverage, engine.schedule(), engine.stats());
                    prop_assert!(&got == expected, "slot {} differs", t);
                }
            }
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

    #[test]
    fn replay_trace_reports_per_task_values_in_input_order() {
        // The trace's tasks, latest release slot first: the engine stages
        // them in the trace's order, so both runs are one run, reported
        // under different task indices.
        let mut trace = random_scenario(29, 5, 12, 1);
        trace.tasks.sort_by_key(|task| task.release_slot);
        let mut order: Vec<usize> = (0..trace.num_tasks()).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(trace.tasks[j].release_slot));
        let mut input = trace.clone();
        input.tasks = order.iter().map(|&j| trace.tasks[j]).collect();
        for (j, task) in input.tasks.iter_mut().enumerate() {
            task.id = TaskId(j as u32);
        }
        let a = replay_trace(trace, OnlineConfig::default());
        let b = replay_trace(input, OnlineConfig::default());
        assert_eq!(a.schedule, b.schedule);
        assert!(a.report.per_task_energy.iter().any(|&e| e > 0.0));
        assert!(order.iter().enumerate().any(|(k, &j)| k != j));
        for (k, &j) in order.iter().enumerate() {
            assert_eq!(b.report.per_task_energy[k], a.report.per_task_energy[j]);
            assert_eq!(b.report.per_task_utility[k], a.report.per_task_utility[j]);
        }
    }
}
