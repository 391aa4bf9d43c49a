//! The pieces of the distributed **online** scheduler (Algorithm 3) that
//! its event loop, [`crate::OnlineEngine`], is built from.
//!
//! Charging tasks become known at their release slots. On every arrival the
//! affected chargers re-negotiate their future policies ([`replan_event`]);
//! because of the rescheduling delay `τ` the new plan only takes effect `τ`
//! slots later — until then the previous plan keeps executing (and whatever
//! it delivered is accounted as the initial energy of the re-negotiation).
//! The final schedule is scored by the full P1 evaluator (switching delay
//! `ρ` included), which is how the competitive ratio `½(1 − ρ)(1 − 1/e)`
//! of Theorem 6.1 is exercised empirically.

use std::time::Instant;

use haste_core::{
    solve_baseline_with_delay, BaselineKind, HasteRInstance, InstanceOptions, SolveResult,
    SolverMetrics,
};
use haste_model::{
    evaluate, CandidateRows, CoverageMap, EvalOptions, EvalReport, Scenario, Schedule,
};
use haste_submodular::Selection;

use crate::neighbors::NeighborGraph;
use crate::protocol::{NegotiationConfig, NegotiationStats};
use crate::round_engine::negotiate_rounds;
use crate::threaded_engine::negotiate_threaded;

/// Which negotiation engine executes each re-planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Sequential synchronous rounds (fast, exact message accounting).
    #[default]
    Rounds,
    /// One thread per charger with real message passing (identical output).
    Threaded,
}

/// A charger failure event: the charger stops emitting (and negotiating)
/// from `slot` onward. The network detects it at `slot` and, after the
/// rescheduling delay `τ`, replans around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargerFailure {
    /// Which charger dies.
    pub charger: haste_model::ChargerId,
    /// First slot it is dead in.
    pub slot: haste_model::Slot,
}

/// Configuration of the online scheduler.
#[derive(Debug, Clone, Default)]
pub struct OnlineConfig {
    /// Negotiation parameters (colors, samples, shared seed).
    pub negotiation: NegotiationConfig,
    /// Engine choice.
    pub engine: EngineKind,
    /// Injected charger failures (robustness studies / failure testing).
    /// Engine snapshots do not carry them, so the daemons refuse them.
    pub failures: Vec<ChargerFailure>,
    /// Localized renegotiation: on each arrival only the chargers able to
    /// serve the new tasks (plus their one-hop neighbors) replan; everyone
    /// else keeps their current plan, which enters the replanning as fixed
    /// background energy. This is the locality the paper's Algorithm 3
    /// describes ("invoked at charger `s_i` upon arrival of new charging
    /// tasks that can be charged by `s_i`"); the default `false` replans
    /// globally, which is what the reported figures use.
    pub localized: bool,
    /// Worker threads for the instance (re)builds on each negotiation
    /// (1 = sequential, `0` = auto-detect via
    /// `haste_parallel::default_threads`). The executed schedule is
    /// bit-identical for every value; this only parallelizes dominant-set
    /// extraction.
    pub threads: usize,
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// The executed schedule.
    pub schedule: Schedule,
    /// Full P1 evaluation (switching delay included).
    pub report: EvalReport,
    /// HASTE-R value of the executed schedule (no switching delay).
    pub relaxed_value: f64,
    /// Communication counters accumulated over all re-negotiations,
    /// indexed by absolute slot.
    pub stats: NegotiationStats,
    /// Solver phase timings and oracle counters accumulated over all
    /// re-negotiations (`instance_build`, `greedy` = negotiation time,
    /// `rounding` = materialization, `p1_eval` = final evaluation).
    pub metrics: SolverMetrics,
}

/// One re-negotiation event, as seen by [`replan_event`].
pub(crate) struct ReplanEvent<'a> {
    /// The slot the event fires at (task release / failure detection).
    pub slot: usize,
    /// Chargers disabled by failures (never participate again).
    pub disabled: &'a [bool],
    /// Task indices released exactly at `slot` (localized scope seeds).
    pub arrived_now: &'a [usize],
    /// Charger indices failing exactly at `slot` (localized scope seeds).
    pub failed_now: &'a [usize],
    /// Resolved worker-thread count for instance builds.
    pub threads: usize,
}

/// Executes one re-negotiation of [`crate::OnlineEngine::tick`]: freezes
/// the prefix up to `slot + τ`, builds the HASTE-R instance over the rest
/// of the scenario's active horizon, negotiates, and splices the new plan
/// into `schedule`. `scenario` holds exactly the arrived tasks, so the
/// plan sees nothing the network has not been told yet. Returns `false`
/// when the event is a no-op (past the horizon, or nobody replans).
///
/// `coverage` is the full map, read only for the localized scope seeds.
/// The frozen-prefix and kept-plan evaluations and the instance build
/// read `rows`: any rows that keep every task ending after `slot + τ`,
/// and keep or drop each other task in every row alike, give the same
/// bits as `coverage` itself. A task ending by the effective slot is
/// never usable at a decision slot, so it never shapes the instance, and
/// the prefix energy of no such task is ever read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replan_event<R: CandidateRows + ?Sized>(
    scenario: &Scenario,
    coverage: &CoverageMap,
    rows: &R,
    graph: &NeighborGraph,
    config: &OnlineConfig,
    schedule: &mut Schedule,
    event: ReplanEvent<'_>,
    stats: &mut NegotiationStats,
    metrics: &mut SolverMetrics,
) -> bool {
    let n = scenario.num_chargers();
    let horizon = scenario.active_horizon();
    // The new plan takes effect after the rescheduling delay.
    let effective = (event.slot + scenario.tau).min(horizon);
    if effective >= horizon {
        return false;
    }
    // Which chargers replan at this event: everyone (global mode), or —
    // in localized mode — the chargers able to serve a task released
    // right now, the newly failed ones, and one hop of neighbors of each
    // (the paper's negotiation scope).
    let replanning: Vec<bool> = if config.localized {
        let mut core = vec![false; n];
        for &task in event.arrived_now {
            for c in coverage.chargers_of(haste_model::TaskId(task as u32)) {
                core[c.index()] = true;
            }
        }
        for &charger in event.failed_now {
            core[charger] = true;
        }
        let mut aff = core.clone();
        for (i, &is_core) in core.iter().enumerate() {
            if is_core {
                for &j in graph.neighbors(i) {
                    aff[j] = true;
                }
            }
        }
        aff
    } else {
        vec![true; n]
    };
    let planning_disabled: Vec<bool> = (0..n)
        .map(|i| event.disabled[i] || !replanning[i])
        .collect();
    if planning_disabled.iter().all(|&d| d) {
        return false;
    }

    // Energy the frozen prefix already delivered (HASTE-R semantics —
    // the negotiation plans against the relaxed objective, exactly as
    // the analysis of Theorem 6.1 does).
    let prefix = evaluate(
        scenario,
        rows,
        schedule,
        EvalOptions {
            rho: Some(0.0),
            slot_limit: Some(effective),
            ..EvalOptions::default()
        },
    );
    let mut initial_energy = prefix.per_task_energy;
    // In localized mode the kept future plans of non-replanning
    // chargers enter as fixed background energy (utility only depends
    // on each task's total, so the slot structure is irrelevant here).
    let snapshot = config.localized.then(|| schedule.clone());
    if config.localized {
        let mut masked = schedule.clone();
        for (i, &replans) in replanning.iter().enumerate() {
            if replans {
                for k in effective..schedule.num_slots() {
                    masked.set(haste_model::ChargerId(i as u32), k, None);
                }
            }
        }
        let kept = evaluate(
            scenario,
            rows,
            &masked,
            EvalOptions {
                rho: Some(0.0),
                slot_start: Some(effective),
                ..EvalOptions::default()
            },
        );
        for (total, add) in initial_energy.iter_mut().zip(&kept.per_task_energy) {
            *total += add;
        }
    }
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let build_start = Instant::now();
    let instance = HasteRInstance::build_with(
        scenario,
        rows,
        InstanceOptions {
            slot_range: Some(effective..horizon),
            initial_energy: Some(initial_energy),
            disabled_chargers: planning_disabled
                .iter()
                .any(|&d| d)
                .then(|| planning_disabled.clone()),
            threads: Some(event.threads),
            ..InstanceOptions::default()
        },
    );
    metrics.instance_build += build_start.elapsed();
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let negotiate_start = Instant::now();
    let (selection, run_stats): (Selection, NegotiationStats) = match config.engine {
        EngineKind::Rounds => negotiate_rounds(&instance, graph, &config.negotiation),
        EngineKind::Threaded => negotiate_threaded(&instance, graph, &config.negotiation),
    };
    metrics.greedy += negotiate_start.elapsed();
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let rounding_start = Instant::now();
    instance.materialize_into(&selection, schedule);
    metrics.rounding += rounding_start.elapsed();
    // Localized mode: restore the kept plans of non-replanning chargers
    // (materialize_into wrote None over their partitions).
    if let Some(snapshot) = snapshot {
        for (i, &replans) in replanning.iter().enumerate() {
            if !replans {
                let id = haste_model::ChargerId(i as u32);
                for k in effective..schedule.num_slots() {
                    schedule.set(id, k, snapshot.get(id, k));
                }
            }
        }
    }
    // Chargers hold their last orientation through unassigned slots
    // (free top-up at zero switching cost); later renegotiations
    // overwrite the held suffix anyway.
    schedule.hold_orientations();
    stats.absorb(&run_stats, effective);
    true
}

/// Runs a baseline in the online setting: chargers only react to a task
/// `τ` slots after its release (their rescheduling delay), everything else
/// identical to the offline baseline.
pub fn solve_baseline_online(
    scenario: &Scenario,
    coverage: &CoverageMap,
    kind: BaselineKind,
) -> SolveResult {
    solve_baseline_with_delay(scenario, coverage, kind, scenario.tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_trace;
    use haste_core::{solve_offline, OfflineConfig};
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, Task, TimeGrid};
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

    #[test]
    fn online_with_no_delay_and_single_release_matches_offline_greedy_quality() {
        // Everything released at slot 0 and τ = 0 → one negotiation over
        // the full horizon; its value must be in the same class as the
        // centralized greedy (both are locally greedy executions, possibly
        // in different partition orders).
        let mut s = random_scenario(3, 5, 10, 0);
        for task in &mut s.tasks {
            let d = task.end_slot - task.release_slot;
            task.release_slot = 0;
            task.end_slot = d;
        }
        s.validate().unwrap();
        let cov = CoverageMap::build(&s);
        let online = replay_trace(s.clone(), OnlineConfig::default());
        let offline = solve_offline(&s, &cov, &OfflineConfig::greedy());
        // Equal guarantee class: allow a modest spread between the two
        // greedy execution orders.
        assert!(
            online.relaxed_value >= 0.8 * offline.relaxed_value - 1e-9,
            "online {} vs offline {}",
            online.relaxed_value,
            offline.relaxed_value
        );
    }

    #[test]
    fn rescheduling_delay_only_hurts() {
        let s0 = random_scenario(5, 5, 12, 0);
        let mut s2 = s0.clone();
        s2.tau = 2;
        let r0 = replay_trace(s0.clone(), OnlineConfig::default());
        let r2 = replay_trace(s2.clone(), OnlineConfig::default());
        assert!(
            r2.relaxed_value <= r0.relaxed_value + 1e-9,
            "tau=2 {} should not beat tau=0 {}",
            r2.relaxed_value,
            r0.relaxed_value
        );
    }

    #[test]
    fn online_beats_or_matches_online_baselines_on_average() {
        let mut wins = 0;
        let trials = 5;
        for seed in 0..trials {
            let s = random_scenario(100 + seed, 6, 14, 1);
            let cov = CoverageMap::build(&s);
            let online = replay_trace(s.clone(), OnlineConfig::default());
            let bu = solve_baseline_online(&s, &cov, BaselineKind::GreedyUtility);
            let bc = solve_baseline_online(&s, &cov, BaselineKind::GreedyCover);
            if online.report.total_utility >= bu.report.total_utility - 1e-9
                && online.report.total_utility >= bc.report.total_utility - 1e-9
            {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= trials,
            "online HASTE lost to baselines in {} of {trials} trials",
            trials - wins
        );
    }

    #[test]
    fn engines_agree_online() {
        let s = random_scenario(8, 5, 10, 1);
        let rounds = replay_trace(
            s.clone(),
            OnlineConfig {
                engine: EngineKind::Rounds,
                ..OnlineConfig::default()
            },
        );
        let threaded = replay_trace(
            s.clone(),
            OnlineConfig {
                engine: EngineKind::Threaded,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(rounds.schedule, threaded.schedule);
        assert_eq!(rounds.stats.messages, threaded.stats.messages);
    }

    #[test]
    fn report_value_bounded_by_relaxed() {
        let s = random_scenario(13, 5, 10, 1);
        let r = replay_trace(s.clone(), OnlineConfig::default());
        assert!(r.report.total_utility <= r.relaxed_value + 1e-9);
        assert!(r.report.total_utility >= (1.0 - s.rho) * r.relaxed_value - 1e-9);
    }

    #[test]
    fn localized_replanning_close_to_global_and_cheaper() {
        for seed in [41u64, 42, 43] {
            let s = random_scenario(seed, 8, 20, 1);
            let global = replay_trace(s.clone(), OnlineConfig::default());
            let local = replay_trace(
                s.clone(),
                OnlineConfig {
                    localized: true,
                    ..OnlineConfig::default()
                },
            );
            assert!(
                local.stats.messages <= global.stats.messages,
                "seed {seed}: localized sent more messages ({} vs {})",
                local.stats.messages,
                global.stats.messages
            );
            assert!(
                local.relaxed_value >= 0.85 * global.relaxed_value - 1e-9,
                "seed {seed}: localized {} far below global {}",
                local.relaxed_value,
                global.relaxed_value
            );
        }
    }

    #[test]
    fn localized_engines_agree() {
        let s = random_scenario(44, 6, 14, 1);
        let cfg = OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        };
        let rounds = replay_trace(s.clone(), cfg.clone());
        let threaded = replay_trace(
            s.clone(),
            OnlineConfig {
                engine: EngineKind::Threaded,
                ..cfg
            },
        );
        assert_eq!(rounds.schedule, threaded.schedule);
        assert_eq!(rounds.stats.messages, threaded.stats.messages);
    }

    #[test]
    fn online_baseline_with_zero_tau_equals_offline_baseline() {
        let mut s = random_scenario(31, 5, 12, 0);
        s.tau = 0;
        let cov = CoverageMap::build(&s);
        for kind in [
            haste_core::BaselineKind::GreedyUtility,
            haste_core::BaselineKind::GreedyCover,
        ] {
            let online = solve_baseline_online(&s, &cov, kind);
            let offline = haste_core::solve_baseline(&s, &cov, kind);
            assert_eq!(online.schedule, offline.schedule, "{}", kind.name());
        }
    }

    #[test]
    fn failed_charger_emits_nothing_after_death() {
        let s = random_scenario(21, 4, 10, 1);
        let kill_slot = 3;
        let cfg = OnlineConfig {
            failures: vec![ChargerFailure {
                charger: haste_model::ChargerId(0),
                slot: kill_slot,
            }],
            ..OnlineConfig::default()
        };
        let r = replay_trace(s.clone(), cfg.clone());
        for k in kill_slot..s.grid.num_slots {
            assert_eq!(
                r.schedule.get(haste_model::ChargerId(0), k),
                None,
                "dead charger oriented in slot {k}"
            );
        }
        // Failure can only cost utility.
        let healthy = replay_trace(s.clone(), OnlineConfig::default());
        assert!(r.report.total_utility <= healthy.report.total_utility + 1e-9);
    }

    #[test]
    fn killing_every_charger_at_zero_yields_nothing() {
        let s = random_scenario(22, 3, 8, 1);
        let failures = (0..3)
            .map(|i| ChargerFailure {
                charger: haste_model::ChargerId(i),
                slot: 0,
            })
            .collect();
        let r = replay_trace(
            s.clone(),
            OnlineConfig {
                failures,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(r.report.total_utility, 0.0);
    }

    #[test]
    fn survivors_replan_around_a_failure() {
        // Two chargers sharing one long task; kill one mid-way — the other
        // must keep serving and total utility must beat "kill both".
        let s = random_scenario(23, 2, 6, 1);
        let one_dead = replay_trace(
            s.clone(),
            OnlineConfig {
                failures: vec![ChargerFailure {
                    charger: haste_model::ChargerId(1),
                    slot: 2,
                }],
                ..OnlineConfig::default()
            },
        );
        let both_dead = replay_trace(
            s.clone(),
            OnlineConfig {
                failures: vec![
                    ChargerFailure {
                        charger: haste_model::ChargerId(0),
                        slot: 2,
                    },
                    ChargerFailure {
                        charger: haste_model::ChargerId(1),
                        slot: 2,
                    },
                ],
                ..OnlineConfig::default()
            },
        );
        assert!(one_dead.report.total_utility >= both_dead.report.total_utility - 1e-12);
        // Engines agree under failures too.
        let threaded = replay_trace(
            s.clone(),
            OnlineConfig {
                engine: EngineKind::Threaded,
                failures: vec![ChargerFailure {
                    charger: haste_model::ChargerId(1),
                    slot: 2,
                }],
                ..OnlineConfig::default()
            },
        );
        assert_eq!(one_dead.schedule, threaded.schedule);
    }

    #[test]
    fn metrics_are_monotone_sane() {
        // Seed 100 is known to produce a served scenario (it also drives
        // `online_beats_or_matches_online_baselines_on_average`).
        let s = random_scenario(100, 6, 14, 1);
        let r = replay_trace(s.clone(), OnlineConfig::default());
        // `OnlineConfig::default()` leaves `threads: 0` = auto-detect.
        assert_eq!(r.metrics.threads, haste_parallel::resolve_threads(0));
        assert!(r.metrics.threads >= 1);
        assert!(r.metrics.oracle_marginals > 0);
        assert!(r.metrics.oracle_commits > 0);
        assert_eq!(r.metrics.oracle_marginals, r.stats.oracle_marginals);
        assert_eq!(r.metrics.oracle_commits, r.stats.oracle_commits);
        assert!(r.metrics.total_time() >= r.metrics.greedy);
    }

    #[test]
    fn threads_do_not_change_the_online_solution() {
        let s = random_scenario(19, 6, 14, 1);
        let base = replay_trace(s.clone(), OnlineConfig::default());
        let par = replay_trace(
            s.clone(),
            OnlineConfig {
                threads: 4,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(base.schedule, par.schedule);
        assert_eq!(
            base.relaxed_value.to_bits(),
            par.relaxed_value.to_bits(),
            "threads changed the online value"
        );
        assert_eq!(base.stats.messages, par.stats.messages);
        assert_eq!(base.metrics.oracle_marginals, par.metrics.oracle_marginals);
    }

    #[test]
    fn empty_scenario() {
        let mut s = random_scenario(1, 3, 5, 1);
        s.tasks.clear();
        let r = replay_trace(s.clone(), OnlineConfig::default());
        assert_eq!(r.report.total_utility, 0.0);
        assert_eq!(r.stats.messages, 0);
    }
}
