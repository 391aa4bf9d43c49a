//! The HASTE-R ground set and its submodular objective (Section 4.2 / RP2).
//!
//! Partitions are the blocks `Θ_{i,k}` — one per (charger, slot) pair,
//! indexed slot-major (`p = (k − k₀)·n + i`) so that partition order matches
//! the distributed algorithm's outer-slot loop. A partition's choices are
//! the charger's dominant task sets; selecting choice `x` in partition
//! `(i, k)` means "charger `i` spends slot `k` at the orientation covering
//! dominant set `x`". The objective is the paper's `f(X)` of RP2: the
//! weighted sum of task utilities of accumulated energy, evaluated *without*
//! switching delay (the HASTE-R relaxation).
//!
//! [`InstanceOptions`] generalizes the construction for the online setting:
//! a slot range (re-negotiating only the future), initial per-task energies
//! (what the frozen past already delivered), and a task visibility delay
//! (tasks become actionable `τ` slots after release).

use std::ops::Range;

use haste_geometry::Angle;
use haste_model::{CandidateRows, ChargerId, CoverageMap, Scenario, Schedule, Slot, UtilityFn};
use haste_submodular::{PartitionedObjective, Selection};

use crate::dominant::{extract_dominant_sets, DominantSet};

/// Whether dominant sets are extracted per slot (over the tasks active in
/// that slot) or once globally per charger (the paper's `Γ_{i,k} = Γ_i`).
///
/// Both scope choices yield the same achievable coverage — a globally
/// dominant set restricted to a slot's active tasks is contained in some
/// per-slot dominant set and vice versa — but the per-slot ground set is
/// smaller and never offers energy to inactive tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominantScope {
    /// Extract from tasks active in each slot (default; smaller ground set).
    PerSlot,
    /// Extract once per charger from all tasks, reuse for every slot
    /// (exactly the paper's formulation).
    Global,
}

/// Construction options for [`HasteRInstance::build_with`].
#[derive(Debug, Clone, Default)]
pub struct InstanceOptions {
    /// Dominant-set extraction scope (default [`DominantScope::PerSlot`]).
    pub scope: Option<DominantScope>,
    /// Decision slots (default `0 .. scenario.active_horizon()`).
    pub slot_range: Option<Range<Slot>>,
    /// Energy each task already holds before the first decision slot
    /// (default zeros). Marginals are computed on top of this; the
    /// objective still reports *gain* (`f(∅) = 0`).
    pub initial_energy: Option<Vec<f64>>,
    /// A task only enters a slot's policies once `slot ≥ release + delay`
    /// (the rescheduling delay `τ` for purely local algorithms; the online
    /// negotiation loop instead handles `τ` by freezing prefixes).
    pub visibility_delay: Option<usize>,
    /// Chargers with `disabled[i]` get no policies at all, and
    /// [`HasteRInstance::materialize_into`] leaves their slots as they
    /// are — the online scheduler uses this to plan around failed
    /// chargers and, in localized mode, around the kept plans of the
    /// chargers that do not replan.
    pub disabled_chargers: Option<Vec<bool>>,
    /// Worker threads for the per-charger dominant-set extraction (`None`
    /// or `Some(1)` = sequential, `Some(0)` = auto-detect via
    /// `haste_parallel::default_threads`). Chargers are independent during
    /// extraction and families are assembled in charger order afterwards,
    /// so the instance is identical for every thread count.
    pub threads: Option<usize>,
}

/// One selectable scheduling policy: a dominant set with the per-slot energy
/// each member receives.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Orientation `Θ_{i,k}^p` realizing the dominant set.
    pub orientation: Angle,
    /// `(task index, energy per fully-effective slot in joules)`.
    pub deliveries: Vec<(usize, f64)>,
}

/// The reformulated problem instance RP2: ground set + incremental oracle.
///
/// Policy families are stored once per (charger, activity segment) and
/// shared by every slot of the segment — the usable task set of a charger
/// is piecewise constant in time, and deduplicating the families keeps the
/// online loop (which rebuilds instances on every arrival) cheap.
pub struct HasteRInstance<'a> {
    scenario: &'a Scenario,
    /// Decision slots covered by this instance.
    pub slot_range: Range<Slot>,
    /// Unique policy families; `families[0]` is the empty family.
    families: Vec<Vec<Policy>>,
    /// `families` index for partition `p = (k − slot_range.start)·n + i`.
    partition_family: Vec<u32>,
    /// Per-task energy at the start of the instance.
    initial_energy: Vec<f64>,
    /// [`InstanceOptions::disabled_chargers`], one flag per charger.
    disabled: Vec<bool>,
}

impl<'a> HasteRInstance<'a> {
    /// Builds the full-horizon instance (offline use).
    pub fn build(scenario: &'a Scenario, coverage: &CoverageMap, scope: DominantScope) -> Self {
        Self::build_with(
            scenario,
            coverage,
            InstanceOptions {
                scope: Some(scope),
                ..InstanceOptions::default()
            },
        )
    }

    /// Builds an instance under explicit [`InstanceOptions`].
    ///
    /// Under [`DominantScope::PerSlot`] only tasks usable at some slot of
    /// the range shape the instance, so rows that drop, in every row
    /// alike, tasks ending by the range's start build the same instance
    /// as the full [`CoverageMap`]: such a task never enters a slot's
    /// dominant sets and never moves a segment boundary.
    pub fn build_with<R: CandidateRows + ?Sized>(
        scenario: &'a Scenario,
        coverage: &R,
        options: InstanceOptions,
    ) -> Self {
        let n = scenario.num_chargers();
        let scope = options.scope.unwrap_or(DominantScope::PerSlot);
        let slot_range = options.slot_range.unwrap_or(0..scenario.active_horizon());
        let visibility_delay = options.visibility_delay.unwrap_or(0);
        let slot_seconds = scenario.grid.slot_seconds;
        let threads = options.threads.map_or(1, haste_parallel::resolve_threads);
        let disabled = options.disabled_chargers.unwrap_or_else(|| vec![false; n]);

        let usable = |task_idx: usize, k: Slot| -> bool {
            let task = &scenario.tasks[task_idx];
            task.active_at(k) && k >= task.release_slot + visibility_delay
        };

        // Global extraction reuses one dominant family per charger.
        let charger_ids: Vec<usize> = (0..n).collect();
        let global_sets: Vec<Vec<DominantSet>> = if scope == DominantScope::Global {
            haste_parallel::par_map(&charger_ids, threads, |_, &i| {
                let candidates = coverage.tasks_of(ChargerId(i as u32));
                extract_dominant_sets(candidates, scenario.params.charging_angle)
            })
        } else {
            Vec::new()
        };

        let slots = slot_range.len();
        // The usable candidate set of a charger is piecewise constant in k
        // (it changes only at task visibility starts and ends), so build
        // one policy family per (charger, segment) and share it. Chargers
        // are independent here, so the segment extraction fans out across
        // threads; the family table is then assembled sequentially in
        // charger order, giving the exact same indices as a sequential
        // build.
        let per_charger_segments: Vec<Vec<(Slot, Slot, Vec<Policy>)>> =
            haste_parallel::par_map(&charger_ids, threads, |_, &i| {
                if disabled[i] {
                    return Vec::new(); // stays on the empty family
                }
                let charger = ChargerId(i as u32);
                let candidates = coverage.tasks_of(charger);
                let mut segments = Vec::new();
                let mut k = slot_range.start;
                while k < slot_range.end {
                    // Next slot where some candidate's visibility flips.
                    let mut next_change = slot_range.end;
                    for c in candidates {
                        let task = &scenario.tasks[c.task.index()];
                        let start = task.release_slot + visibility_delay;
                        if start > k && start < next_change {
                            next_change = start;
                        }
                        if task.end_slot > k && task.end_slot < next_change {
                            next_change = task.end_slot;
                        }
                    }
                    let family: Vec<Policy> = match scope {
                        DominantScope::PerSlot => {
                            let active: Vec<_> = candidates
                                .iter()
                                .filter(|c| usable(c.task.index(), k))
                                .copied()
                                .collect();
                            if active.is_empty() {
                                Vec::new()
                            } else {
                                extract_dominant_sets(&active, scenario.params.charging_angle)
                                    .into_iter()
                                    .map(|set| Policy {
                                        orientation: set.orientation,
                                        deliveries: set
                                            .members
                                            .iter()
                                            .map(|&(t, power)| (t.index(), power * slot_seconds))
                                            .collect(),
                                    })
                                    .collect()
                            }
                        }
                        DominantScope::Global => global_sets[i]
                            .iter()
                            .map(|set| Policy {
                                orientation: set.orientation,
                                deliveries: set
                                    .members
                                    .iter()
                                    // Global sets may contain tasks unusable
                                    // in this segment; they receive nothing.
                                    .filter(|(t, _)| usable(t.index(), k))
                                    .map(|&(t, power)| (t.index(), power * slot_seconds))
                                    .collect(),
                            })
                            .collect(),
                    };
                    segments.push((k, next_change, family));
                    k = next_change;
                }
                segments
            });

        // families[0] is the shared empty family.
        let mut families: Vec<Vec<Policy>> = vec![Vec::new()];
        let mut partition_family: Vec<u32> = vec![0; n * slots];
        for (i, segments) in per_charger_segments.into_iter().enumerate() {
            for (seg_start, seg_end, family) in segments {
                let family_idx = if family.is_empty() && scope == DominantScope::PerSlot {
                    0
                } else {
                    families.push(family);
                    (families.len() - 1) as u32
                };
                for slot in seg_start..seg_end {
                    partition_family[(slot - slot_range.start) * n + i] = family_idx;
                }
            }
        }
        let initial_energy = options
            .initial_energy
            .unwrap_or_else(|| vec![0.0; scenario.num_tasks()]);
        assert_eq!(initial_energy.len(), scenario.num_tasks());
        HasteRInstance {
            scenario,
            slot_range,
            families,
            partition_family,
            initial_energy,
            disabled,
        }
    }

    /// The scenario this instance was built from.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Number of decision slots covered.
    pub fn num_slots(&self) -> usize {
        self.slot_range.len()
    }

    /// Partition index of `(charger, slot)`; `slot` must be in range.
    #[inline]
    pub fn partition(&self, charger: ChargerId, slot: Slot) -> usize {
        debug_assert!(self.slot_range.contains(&slot));
        (slot - self.slot_range.start) * self.scenario.num_chargers() + charger.index()
    }

    /// Inverse of [`HasteRInstance::partition`].
    #[inline]
    pub fn charger_slot(&self, partition: usize) -> (ChargerId, Slot) {
        let n = self.scenario.num_chargers();
        (
            ChargerId((partition % n) as u32),
            partition / n + self.slot_range.start,
        )
    }

    /// The selectable policies of a partition.
    #[inline]
    pub fn policies(&self, partition: usize) -> &[Policy] {
        &self.families[self.partition_family[partition] as usize]
    }

    /// Total number of ground-set elements (all policies of all partitions).
    pub fn ground_set_size(&self) -> usize {
        self.partition_family
            .iter()
            .map(|&f| self.families[f as usize].len())
            .sum()
    }

    /// Converts an optimizer [`Selection`] into a fresh orientation
    /// [`Schedule`] (slots outside the instance's range stay unassigned).
    pub fn materialize(&self, selection: &Selection) -> Schedule {
        let mut schedule =
            Schedule::empty(self.scenario.num_chargers(), self.scenario.grid.num_slots);
        self.materialize_into(selection, &mut schedule);
        schedule
    }

    /// Writes a selection's orientations into an existing schedule,
    /// touching only this instance's slot range and only the chargers it
    /// did not disable.
    pub fn materialize_into(&self, selection: &Selection, schedule: &mut Schedule) {
        for (p, choice) in selection.choices.iter().enumerate() {
            let (charger, slot) = self.charger_slot(p);
            if self.disabled[charger.index()] {
                continue;
            }
            let theta = choice.map(|x| self.policies(p)[x].orientation);
            schedule.set(charger, slot, theta);
        }
    }

    /// A tie-break hook for the greedy optimizers that prefers, among
    /// equal-gain policies, one matching the orientation the charger holds
    /// in the previous slot — avoiding a needless switching delay without
    /// touching the HASTE-R objective value.
    pub fn switch_avoiding_tie_break(
        &self,
    ) -> impl Fn(&[Option<usize>], usize) -> Option<usize> + '_ {
        let n = self.scenario.num_chargers();
        move |choices: &[Option<usize>], p: usize| {
            let prev_p = p.checked_sub(n)?;
            let prev_choice = choices[prev_p]?;
            let prev_theta = self.policies(prev_p)[prev_choice].orientation;
            self.policies(p)
                .iter()
                .position(|pol| pol.orientation.distance(prev_theta).radians() < 1e-9)
        }
    }
}

/// Per-task accumulated energy plus the running objective value.
#[derive(Debug, Clone)]
pub struct EnergyState {
    /// Energy accumulated by each task, in joules (includes the instance's
    /// initial energy).
    pub energy: Vec<f64>,
    /// Cached `f` value: utility gained *by this instance's selections* on
    /// top of the initial energy.
    pub value: f64,
}

impl PartitionedObjective for HasteRInstance<'_> {
    type State = EnergyState;

    fn new_state(&self) -> EnergyState {
        EnergyState {
            energy: self.initial_energy.clone(),
            value: 0.0,
        }
    }

    fn num_partitions(&self) -> usize {
        self.partition_family.len()
    }

    fn num_choices(&self, partition: usize) -> usize {
        self.policies(partition).len()
    }

    fn value(&self, state: &EnergyState) -> f64 {
        state.value
    }

    fn marginal(&self, state: &EnergyState, partition: usize, choice: usize) -> f64 {
        let mut gain = 0.0;
        for &(task_idx, delta) in &self.policies(partition)[choice].deliveries {
            let task = &self.scenario.tasks[task_idx];
            gain += task.weight
                * self.scenario.utility.marginal(
                    state.energy[task_idx],
                    delta,
                    task.required_energy,
                );
        }
        gain
    }

    fn commit(&self, state: &mut EnergyState, partition: usize, choice: usize) {
        for &(task_idx, delta) in &self.policies(partition)[choice].deliveries {
            let task = &self.scenario.tasks[task_idx];
            state.value += task.weight
                * self.scenario.utility.marginal(
                    state.energy[task_idx],
                    delta,
                    task.required_energy,
                );
            state.energy[task_idx] += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{evaluate_relaxed, Charger, ChargingParams, Task, TimeGrid};
    use haste_submodular::{locally_greedy, GreedyOptions};

    /// One charger at the origin; two devices east and north, both facing
    /// back at the charger. A_s = 60° so they can't be covered together.
    fn scenario() -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(4),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![
                Task::new(
                    0,
                    Vec2::new(10.0, 0.0),
                    Angle::from_degrees(180.0),
                    0,
                    4,
                    480.0,
                    1.0,
                ),
                Task::new(
                    1,
                    Vec2::new(0.0, 10.0),
                    Angle::from_degrees(270.0),
                    0,
                    2,
                    480.0,
                    1.0,
                ),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn ground_set_shape() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        assert_eq!(inst.num_partitions(), 4); // 1 charger × 4 slots
                                              // Slots 0-1: both tasks active → two dominant sets; slots 2-3: one.
        assert_eq!(inst.num_choices(0), 2);
        assert_eq!(inst.num_choices(1), 2);
        assert_eq!(inst.num_choices(2), 1);
        assert_eq!(inst.num_choices(3), 1);
        assert_eq!(inst.ground_set_size(), 6);
    }

    #[test]
    fn partition_mapping_roundtrip() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        for p in 0..inst.num_partitions() {
            let (c, k) = inst.charger_slot(p);
            assert_eq!(inst.partition(c, k), p);
        }
    }

    #[test]
    fn greedy_solution_matches_relaxed_evaluator() {
        // The oracle's incremental value must agree with the full P1
        // evaluator at ρ = 0 on the materialized schedule.
        let s = scenario();
        let cov = CoverageMap::build(&s);
        for scope in [DominantScope::PerSlot, DominantScope::Global] {
            let inst = HasteRInstance::build(&s, &cov, scope);
            let sel = locally_greedy(&inst, &GreedyOptions::default());
            let schedule = inst.materialize(&sel);
            let report = evaluate_relaxed(&s, &cov, &schedule);
            assert!(
                (sel.value - report.total_utility).abs() < 1e-9,
                "{scope:?}: oracle {} vs evaluator {}",
                sel.value,
                report.total_utility
            );
        }
    }

    #[test]
    fn per_slot_and_global_scopes_agree_on_value() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let per_slot = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let global = HasteRInstance::build(&s, &cov, DominantScope::Global);
        let a = locally_greedy(&per_slot, &GreedyOptions::default());
        let b = locally_greedy(&global, &GreedyOptions::default());
        assert!((a.value - b.value).abs() < 1e-9);
    }

    #[test]
    fn optimum_serves_both_tasks_and_greedy_meets_its_bound() {
        // 240 J per aimed slot; each task needs 480 J, task 1 is only
        // active in slots 0-1. The optimum charges task 1 during 0-1 and
        // task 0 during 2-3 → both saturate → f = 2.0. Plain greedy may
        // tie-break into task 0 early and strand task 1, but must stay
        // within its 1/2 guarantee.
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let opt = haste_submodular::brute_force(&inst, 1 << 20).unwrap();
        assert!((opt.value - 2.0).abs() < 1e-9, "opt {}", opt.value);
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        assert!(sel.value >= 0.5 * opt.value - 1e-9);
    }

    #[test]
    fn switch_avoiding_tie_break_prefers_previous_orientation() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let tie = inst.switch_avoiding_tie_break();
        // Suppose slot 0 chose the policy that serves task 0.
        let east_idx = inst
            .policies(0)
            .iter()
            .position(|p| p.deliveries.iter().any(|&(t, _)| t == 0))
            .unwrap();
        let chosen_theta = inst.policies(0)[east_idx].orientation;
        let mut choices = vec![None; inst.num_partitions()];
        choices[0] = Some(east_idx);
        // Partition 1 (same charger, slot 1) should prefer that same
        // orientation again.
        let preferred = tie(&choices, 1).unwrap();
        let theta = inst.policies(1)[preferred].orientation;
        assert!(theta.distance(chosen_theta).radians() < 1e-9);
        // No previous slot → no preference.
        assert_eq!(tie(&vec![None; inst.num_partitions()], 0), None);
    }

    #[test]
    fn oracle_passes_submodularity_validators() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        haste_submodular::validate::check_all(&inst, 120, 7, 1e-9).unwrap();
    }

    #[test]
    fn slot_range_restricts_partitions() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                slot_range: Some(2..4),
                ..InstanceOptions::default()
            },
        );
        assert_eq!(inst.num_partitions(), 2);
        let (c, k) = inst.charger_slot(0);
        assert_eq!((c, k), (ChargerId(0), 2));
        assert_eq!(inst.partition(ChargerId(0), 3), 1);
        // Only task 0 is active in slots 2-3.
        assert_eq!(inst.num_choices(0), 1);
    }

    #[test]
    fn initial_energy_shrinks_marginals() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let fresh = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let primed = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                initial_energy: Some(vec![400.0, 0.0]), // task 0 nearly full
                ..InstanceOptions::default()
            },
        );
        // Find the policy serving task 0 in partition 0 for both instances.
        let idx = |inst: &HasteRInstance| {
            inst.policies(0)
                .iter()
                .position(|p| p.deliveries.iter().any(|&(t, _)| t == 0))
                .unwrap()
        };
        let g_fresh = fresh.marginal(&fresh.new_state(), 0, idx(&fresh));
        let g_primed = primed.marginal(&primed.new_state(), 0, idx(&primed));
        // Fresh: 240/480 = 0.5; primed: only 80 J of headroom → 80/480.
        assert!((g_fresh - 0.5).abs() < 1e-9);
        assert!((g_primed - 80.0 / 480.0).abs() < 1e-9);
        // Normalization still holds.
        assert_eq!(primed.value(&primed.new_state()), 0.0);
    }

    #[test]
    fn visibility_delay_hides_early_slots() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                visibility_delay: Some(1),
                ..InstanceOptions::default()
            },
        );
        // Slot 0: both tasks released at 0 but invisible until slot 1.
        assert_eq!(inst.num_choices(0), 0);
        assert_eq!(inst.num_choices(1), 2);
    }

    #[test]
    fn disabled_chargers_get_no_policies() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                disabled_chargers: Some(vec![true]),
                ..InstanceOptions::default()
            },
        );
        for p in 0..inst.num_partitions() {
            assert_eq!(inst.num_choices(p), 0);
        }
        assert_eq!(inst.ground_set_size(), 0);
        // Materializing leaves a disabled charger's slots as they are.
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        let mut schedule = Schedule::empty(1, s.grid.num_slots);
        let kept = Some(Angle::from_degrees(7.0));
        schedule.set(ChargerId(0), 1, kept);
        inst.materialize_into(&sel, &mut schedule);
        assert_eq!(schedule.get(ChargerId(0), 1), kept);
        assert_eq!(inst.materialize(&sel), Schedule::empty(1, s.grid.num_slots));
    }

    #[test]
    fn materialize_into_respects_range() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                slot_range: Some(2..4),
                ..InstanceOptions::default()
            },
        );
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        let mut schedule = Schedule::empty(1, 4);
        schedule.set(ChargerId(0), 0, Some(Angle::from_degrees(7.0)));
        inst.materialize_into(&sel, &mut schedule);
        // Prefix untouched.
        assert_eq!(
            schedule.get(ChargerId(0), 0),
            Some(Angle::from_degrees(7.0))
        );
        // Suffix has the greedy decision for slot 2 (task 0 only).
        assert!(schedule.get(ChargerId(0), 2).is_some());
    }
}
