//! The full-fidelity **P1** objective evaluator.
//!
//! Given a [`Scenario`] and a [`Schedule`], computes every task's harvested
//! energy and utility under the paper's formulation **P1**, including the
//! switching-delay semantics: a charger that rotates at the start of slot
//! `k` emits nothing during the first `ρ` fraction of the slot. This is the
//! single source of truth for "how good is this schedule" — all algorithms
//! (offline, online, baselines, exact) are scored through it.

use crate::{power, CandidateRows, CoverageMap, Scenario, Schedule, Slot, UtilityFn};

/// Evaluation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Switching delay override; `None` uses the scenario's `ρ`.
    pub rho: Option<f64>,
    /// Only accumulate energy from slots strictly before this limit
    /// (`None` = all slots). The online scheduler uses this to compute what
    /// a frozen schedule prefix has already delivered.
    pub slot_limit: Option<Slot>,
    /// Only accumulate energy from slots at or after this start (`None` =
    /// from slot 0). Combined with `slot_limit` this selects a window; the
    /// localized online scheduler uses it to price the kept future plans of
    /// unaffected chargers.
    pub slot_start: Option<Slot>,
}

/// The result of evaluating a schedule.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Energy harvested by each task over its whole window, in joules.
    pub per_task_energy: Vec<f64>,
    /// `U(energy)` of each task (unweighted).
    pub per_task_utility: Vec<f64>,
    /// The paper's overall weighted charging utility `Σ w_j · U_j`.
    pub total_utility: f64,
    /// Orientation switches performed by each charger.
    pub switches_per_charger: Vec<usize>,
}

impl EvalReport {
    /// Total switches across all chargers.
    pub fn total_switches(&self) -> usize {
        self.switches_per_charger.iter().sum()
    }
}

/// Evaluates `schedule` on `scenario` under P1 (with switching delay).
///
/// Semantics, matching Section 3 of the paper:
///
/// * a charger starts unoriented (`θ_i(0) = Φ`): its first assigned slot
///   always pays the switching delay;
/// * within a slot whose orientation differs from the charger's previous
///   orientation, the charger emits only during the trailing `1 − ρ`
///   fraction;
/// * `None` (no assignment) slots emit nothing and leave the physical
///   orientation untouched;
/// * a task's energy accumulates only while it is active, and its utility is
///   `U` of the total.
///
/// Energy flows only along `coverage`'s rows, so a task no row lists
/// gets none. Rows that keep or drop each task in every row alike give
/// every kept task the same bits as the full [`CoverageMap`]: its energy
/// is still added charger by charger, slot by slot.
pub fn evaluate<R: CandidateRows + ?Sized>(
    scenario: &Scenario,
    coverage: &R,
    schedule: &Schedule,
    options: EvalOptions,
) -> EvalReport {
    let rho = options.rho.unwrap_or(scenario.rho);
    let m = scenario.num_tasks();
    let slot_seconds = scenario.grid.slot_seconds;
    let mut per_task_energy = vec![0.0; m];
    let mut switches_per_charger = vec![0usize; scenario.num_chargers()];

    for charger in &scenario.chargers {
        let i = charger.id.index();
        let candidates = coverage.tasks_of(charger.id);
        if candidates.is_empty() {
            // Still count switches for fidelity even if they are futile.
            switches_per_charger[i] = schedule.switch_count(charger.id);
            continue;
        }
        let mut prev = None;
        for (k, &orientation) in schedule.row(charger.id).iter().enumerate() {
            let Some(theta) = orientation else { continue };
            let switched = prev != Some(theta);
            if switched {
                switches_per_charger[i] += 1;
            }
            prev = Some(theta);
            if options.slot_limit.is_some_and(|limit| k >= limit)
                || options.slot_start.is_some_and(|start| k < start)
            {
                continue;
            }
            let effective = if switched { 1.0 - rho } else { 1.0 };
            if effective <= 0.0 {
                continue;
            }
            let half = scenario.params.charging_angle / 2.0;
            for cand in candidates {
                let task = &scenario.tasks[cand.task.index()];
                if !task.active_at(k) {
                    continue;
                }
                if cand.azimuth.within(theta, half) {
                    per_task_energy[cand.task.index()] += cand.power * slot_seconds * effective;
                }
            }
        }
    }

    finish_report(scenario, per_task_energy, switches_per_charger)
}

/// Evaluates under **HASTE-R** semantics: switching delay ignored (`ρ = 0`).
/// This is the objective the submodular machinery optimizes.
pub fn evaluate_relaxed(
    scenario: &Scenario,
    coverage: &CoverageMap,
    schedule: &Schedule,
) -> EvalReport {
    evaluate(
        scenario,
        coverage,
        schedule,
        EvalOptions {
            rho: Some(0.0),
            ..EvalOptions::default()
        },
    )
}

fn finish_report(
    scenario: &Scenario,
    per_task_energy: Vec<f64>,
    switches_per_charger: Vec<usize>,
) -> EvalReport {
    let mut total_utility = 0.0;
    let per_task_utility: Vec<f64> = scenario
        .tasks
        .iter()
        .zip(&per_task_energy)
        .map(|(task, &energy)| {
            let u = scenario.utility.utility(energy, task.required_energy);
            total_utility += task.weight * u;
            u
        })
        .collect();
    EvalReport {
        per_task_energy,
        per_task_utility,
        total_utility,
        switches_per_charger,
    }
}

/// Convenience: the power a single charger delivers to a single task per
/// fully-effective slot, going through the same code path as the evaluator.
pub fn slot_energy(scenario: &Scenario, charger_idx: usize, task_idx: usize) -> f64 {
    let charger = &scenario.chargers[charger_idx];
    let task = &scenario.tasks[task_idx];
    let theta = power::azimuth_to(charger, task);
    power::received_power(&scenario.params, charger, Some(theta), task) * scenario.grid.slot_seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Charger, ChargingParams, Task, TimeGrid};
    use haste_geometry::{Angle, Vec2};

    /// One charger at the origin, one device 10 m east facing back west.
    fn scenario(rho: f64) -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(10),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![Task::new(
                0,
                Vec2::new(10.0, 0.0),
                Angle::from_degrees(180.0),
                0,
                10,
                10_000.0,
                1.0,
            )],
            rho,
            0,
        )
        .unwrap()
    }

    fn aimed_schedule(s: &Scenario) -> Schedule {
        let mut sched = Schedule::empty(1, s.grid.num_slots);
        for k in 0..s.grid.num_slots {
            sched.set(crate::ChargerId(0), k, Some(Angle::ZERO));
        }
        sched
    }

    #[test]
    fn steady_charging_accumulates_energy() {
        let s = scenario(0.0);
        let cov = CoverageMap::build(&s);
        let report = evaluate(&s, &cov, &aimed_schedule(&s), EvalOptions::default());
        // P = 10000/(10+40)^2 = 4 W; 10 slots × 60 s × 4 W = 2400 J.
        assert!((report.per_task_energy[0] - 2400.0).abs() < 1e-6);
        assert!((report.per_task_utility[0] - 0.24).abs() < 1e-9);
        assert!((report.total_utility - 0.24).abs() < 1e-9);
        assert_eq!(report.switches_per_charger, vec![1]);
    }

    #[test]
    fn switching_delay_costs_first_slot_fraction() {
        let rho = 0.25;
        let s = scenario(rho);
        let cov = CoverageMap::build(&s);
        let report = evaluate(&s, &cov, &aimed_schedule(&s), EvalOptions::default());
        // First slot delivers (1-ρ)·240 J, the other nine full 240 J.
        let expected = 240.0 * (1.0 - rho) + 9.0 * 240.0;
        assert!((report.per_task_energy[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn relaxed_evaluation_ignores_rho() {
        let s = scenario(0.5);
        let cov = CoverageMap::build(&s);
        let relaxed = evaluate_relaxed(&s, &cov, &aimed_schedule(&s));
        assert!((relaxed.per_task_energy[0] - 2400.0).abs() < 1e-6);
    }

    #[test]
    fn oscillating_schedule_pays_every_switch() {
        let s = scenario(0.5);
        let cov = CoverageMap::build(&s);
        let mut sched = Schedule::empty(1, s.grid.num_slots);
        for k in 0..s.grid.num_slots {
            // Alternate between covering (0°) and not covering (180°).
            let theta = if k % 2 == 0 { 0.0 } else { 180.0 };
            sched.set(crate::ChargerId(0), k, Some(Angle::from_degrees(theta)));
        }
        let report = evaluate(&s, &cov, &sched, EvalOptions::default());
        // Every covering slot is freshly switched: 5 slots × 240 J × 0.5.
        assert!((report.per_task_energy[0] - 5.0 * 120.0).abs() < 1e-6);
        assert_eq!(report.total_switches(), 10);
    }

    #[test]
    fn inactive_slots_harvest_nothing() {
        let mut s = scenario(0.0);
        s.tasks[0].release_slot = 5;
        s.tasks[0].end_slot = 8;
        let cov = CoverageMap::build(&s);
        let report = evaluate(&s, &cov, &aimed_schedule(&s), EvalOptions::default());
        assert!((report.per_task_energy[0] - 3.0 * 240.0).abs() < 1e-6);
    }

    #[test]
    fn utility_saturates_at_requirement() {
        let mut s = scenario(0.0);
        s.tasks[0].required_energy = 100.0; // far below the 2400 J harvested
        let cov = CoverageMap::build(&s);
        let report = evaluate(&s, &cov, &aimed_schedule(&s), EvalOptions::default());
        assert_eq!(report.per_task_utility[0], 1.0);
        assert_eq!(report.total_utility, 1.0);
    }

    #[test]
    fn none_slots_do_not_switch_or_charge() {
        let s = scenario(0.5);
        let cov = CoverageMap::build(&s);
        let mut sched = Schedule::empty(1, s.grid.num_slots);
        sched.set(crate::ChargerId(0), 2, Some(Angle::ZERO));
        sched.set(crate::ChargerId(0), 6, Some(Angle::ZERO));
        let report = evaluate(&s, &cov, &sched, EvalOptions::default());
        // Slot 2 pays the switch; slot 6 resumes the same orientation free.
        assert!((report.per_task_energy[0] - (120.0 + 240.0)).abs() < 1e-6);
        assert_eq!(report.total_switches(), 1);
    }

    #[test]
    fn slot_limit_truncates_energy_but_not_switches() {
        let s = scenario(0.0);
        let cov = CoverageMap::build(&s);
        let report = evaluate(
            &s,
            &cov,
            &aimed_schedule(&s),
            EvalOptions {
                rho: Some(0.0),
                slot_limit: Some(4),
                ..EvalOptions::default()
            },
        );
        assert!((report.per_task_energy[0] - 4.0 * 240.0).abs() < 1e-6);
        assert_eq!(report.total_switches(), 1);
    }

    #[test]
    fn slot_window_selects_energy_range() {
        let s = scenario(0.0);
        let cov = CoverageMap::build(&s);
        let report = evaluate(
            &s,
            &cov,
            &aimed_schedule(&s),
            EvalOptions {
                rho: Some(0.0),
                slot_limit: Some(7),
                slot_start: Some(3),
            },
        );
        assert!((report.per_task_energy[0] - 4.0 * 240.0).abs() < 1e-6);
    }

    #[test]
    fn slot_energy_helper_matches_model() {
        let s = scenario(0.0);
        assert!((slot_energy(&s, 0, 0) - 240.0).abs() < 1e-9);
    }
}
