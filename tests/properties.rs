//! Property-based tests (proptest) on the core invariants:
//! dominant-set completeness and maximality, submodularity of the HASTE-R
//! objective, and evaluator bounds — the paper's Lemma 4.2 and the
//! correctness backbone of Algorithm 1, machine-checked on random inputs.

use haste::core::{extract_dominant_sets, DominantScope, HasteRInstance};
use haste::geometry::{Angle, Vec2};
use haste::model::{
    evaluate, evaluate_relaxed, Charger, ChargingParams, CoverageMap, EvalOptions, Scenario,
    Schedule, Task, TimeGrid,
};
use haste::submodular::validate;
use proptest::prelude::*;

const TAU: f64 = std::f64::consts::TAU;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    // 1-4 chargers, 1-8 tasks, small grid; all positions in a 40 m box.
    (
        1usize..=4,
        1usize..=8,
        proptest::collection::vec((0.0f64..40.0, 0.0f64..40.0), 12),
        proptest::collection::vec(
            (
                0.0f64..40.0,
                0.0f64..40.0,
                0.0f64..TAU,
                0usize..4,
                1usize..=4,
                100.0f64..3000.0,
            ),
            8,
        ),
        0.0f64..1.0, // rho
        (0.5f64..TAU, 0.5f64..TAU),
    )
        .prop_map(|(n, m, cpos, tdesc, rho, (a_s, a_o))| {
            let params = ChargingParams {
                charging_angle: a_s,
                receiving_angle: a_o,
                ..ChargingParams::simulation_default()
            };
            let chargers = (0..n)
                .map(|i| Charger::new(i as u32, Vec2::new(cpos[i].0, cpos[i].1)))
                .collect();
            let tasks: Vec<Task> = (0..m)
                .map(|j| {
                    let (x, y, phi, rel, dur, energy) = tdesc[j];
                    Task::new(
                        j as u32,
                        Vec2::new(x, y),
                        Angle::from_radians(phi),
                        rel,
                        rel + dur,
                        energy,
                        1.0 / m as f64,
                    )
                })
                .collect();
            let slots = tasks.iter().map(|t| t.end_slot).max().unwrap_or(1);
            Scenario::new(params, TimeGrid::minutes(slots), chargers, tasks, rho, 1).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Completeness of Algorithm 1: the covered set of ANY orientation is
    /// contained in some dominant set.
    #[test]
    fn dominant_sets_cover_every_orientation(scenario in arb_scenario(), theta in 0.0f64..TAU) {
        let coverage = CoverageMap::build(&scenario);
        let theta = Angle::from_radians(theta);
        for charger in &scenario.chargers {
            let candidates = coverage.tasks_of(charger.id);
            let sets = extract_dominant_sets(candidates, scenario.params.charging_angle);
            let covered: Vec<_> = candidates
                .iter()
                .filter(|c| c.azimuth.within(theta, scenario.params.charging_angle / 2.0))
                .map(|c| c.task)
                .collect();
            if covered.is_empty() {
                continue;
            }
            let contained = sets
                .iter()
                .any(|s| covered.iter().all(|t| s.contains(*t)));
            prop_assert!(
                contained,
                "orientation {theta} covers {covered:?} not inside any dominant set"
            );
        }
    }

    /// Maximality: no dominant set is a subset of another.
    #[test]
    fn dominant_sets_are_maximal(scenario in arb_scenario()) {
        let coverage = CoverageMap::build(&scenario);
        for charger in &scenario.chargers {
            let sets = extract_dominant_sets(
                coverage.tasks_of(charger.id),
                scenario.params.charging_angle,
            );
            for (i, a) in sets.iter().enumerate() {
                for (j, b) in sets.iter().enumerate() {
                    if i == j { continue; }
                    let a_in_b = a.task_ids().all(|t| b.contains(t));
                    prop_assert!(!a_in_b, "dominant set {i} ⊆ {j}");
                }
            }
        }
    }

    /// Lemma 4.2, machine-checked: the HASTE-R objective is normalized,
    /// monotone, submodular and order-independent.
    #[test]
    fn haste_r_objective_is_monotone_submodular(scenario in arb_scenario(), seed in 0u64..1000) {
        let coverage = CoverageMap::build(&scenario);
        for scope in [DominantScope::PerSlot, DominantScope::Global] {
            let inst = HasteRInstance::build(&scenario, &coverage, scope);
            if inst.ground_set_size() == 0 { continue; }
            prop_assert!(validate::check_all(&inst, 40, seed, 1e-9).is_ok());
        }
    }

    /// Evaluator bounds: utility within [0, Σw]; switching delay only
    /// shrinks energy; relaxed dominates delayed.
    #[test]
    fn evaluator_bounds(scenario in arb_scenario(), orientations in proptest::collection::vec(0.0f64..TAU, 16)) {
        let coverage = CoverageMap::build(&scenario);
        let mut schedule = Schedule::empty(scenario.num_chargers(), scenario.grid.num_slots);
        let mut oi = 0;
        for i in 0..scenario.num_chargers() {
            for k in 0..scenario.grid.num_slots {
                let theta = orientations[oi % orientations.len()];
                oi += 1;
                // Leave some holes.
                if oi % 3 != 0 {
                    schedule.set(
                        haste::model::ChargerId(i as u32),
                        k,
                        Some(Angle::from_radians(theta)),
                    );
                }
            }
        }
        let relaxed = evaluate_relaxed(&scenario, &coverage, &schedule);
        let delayed = evaluate(&scenario, &coverage, &schedule, EvalOptions::default());
        prop_assert!(delayed.total_utility >= -1e-12);
        prop_assert!(delayed.total_utility <= scenario.total_weight() + 1e-9);
        prop_assert!(delayed.total_utility <= relaxed.total_utility + 1e-9);
        for (d, r) in delayed.per_task_energy.iter().zip(&relaxed.per_task_energy) {
            prop_assert!(d <= &(r + 1e-9));
        }
        // Same switch counts regardless of rho.
        prop_assert_eq!(delayed.total_switches(), relaxed.total_switches());
    }

    /// The offline solver's reported relaxed value always matches an
    /// independent replay through the evaluator.
    #[test]
    fn solver_value_matches_evaluator(scenario in arb_scenario()) {
        let coverage = CoverageMap::build(&scenario);
        let r = haste::core::solve_offline(
            &scenario,
            &coverage,
            &haste::core::OfflineConfig::greedy(),
        );
        let replay = evaluate_relaxed(&scenario, &coverage, &r.schedule);
        prop_assert!((r.relaxed_value - replay.total_utility).abs() < 1e-9);
    }
}

proptest! {
    // Each case runs several full solves on paper-family scenarios.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On scenarios drawn from the paper's small-scale generator, the value
    /// the greedy oracle accumulates incrementally equals a from-scratch
    /// replay of the materialized schedule through `evaluate_relaxed` —
    /// for both the locally greedy (`C = 1`) and TabularGreedy (`C = 4`)
    /// paths — and `solve_offline` reports exactly that value.
    #[test]
    fn relaxed_value_matches_evaluator_replay(
        seed in 0u64..10_000,
        n in 3usize..=6,
        m in 6usize..=14,
    ) {
        use haste::submodular::{
            locally_greedy_with_stats, tabular_greedy_with_stats, GreedyOptions, TabularOptions,
        };
        let scenario = haste::sim::ScenarioSpec {
            num_chargers: n,
            num_tasks: m,
            ..haste::sim::ScenarioSpec::small_scale()
        }
        .generate(seed);
        let coverage = CoverageMap::build(&scenario);
        let inst = HasteRInstance::build(&scenario, &coverage, DominantScope::PerSlot);
        for colors in [1usize, 4] {
            let (sel, _) = if colors == 1 {
                locally_greedy_with_stats(&inst, &GreedyOptions::default())
            } else {
                tabular_greedy_with_stats(&inst, &TabularOptions {
                    colors,
                    samples: 8,
                    seed,
                    ..TabularOptions::default()
                })
            };
            // Independent replay: materialize (no orientation holding) and
            // score with the standalone relaxed evaluator.
            let schedule = inst.materialize(&sel);
            let replay = evaluate_relaxed(&scenario, &coverage, &schedule);
            prop_assert!(
                (sel.value - replay.total_utility).abs() < 1e-9,
                "C={}: oracle value {} vs replay {}",
                colors, sel.value, replay.total_utility
            );
            // The full solver pipeline reports exactly this value.
            let r = haste::core::solve_offline(
                &scenario,
                &coverage,
                &haste::core::OfflineConfig {
                    colors,
                    samples: 8,
                    seed,
                    switch_aware: false,
                    ..haste::core::OfflineConfig::default()
                },
            );
            prop_assert_eq!(
                r.relaxed_value.to_bits(),
                sel.value.to_bits(),
                "C={}: solve_offline diverged from the bare optimizer",
                colors
            );
        }
    }

    /// The parallel solve path returns the bit-identical solution — same
    /// schedule, same value bits, same oracle counters — for any thread
    /// count, on both optimizer paths.
    #[test]
    fn parallel_solve_is_bit_identical(
        seed in 0u64..10_000,
        n in 3usize..=6,
        m in 6usize..=14,
        threads in 2usize..=8,
    ) {
        let scenario = haste::sim::ScenarioSpec {
            num_chargers: n,
            num_tasks: m,
            ..haste::sim::ScenarioSpec::small_scale()
        }
        .generate(seed);
        let coverage = CoverageMap::build(&scenario);
        for colors in [1usize, 4] {
            let base = haste::core::solve_offline(
                &scenario,
                &coverage,
                &haste::core::OfflineConfig {
                    colors,
                    ..haste::core::OfflineConfig::default()
                },
            );
            let par = haste::core::solve_offline(
                &scenario,
                &coverage,
                &haste::core::OfflineConfig {
                    colors,
                    threads,
                    ..haste::core::OfflineConfig::default()
                },
            );
            prop_assert_eq!(&base.schedule, &par.schedule);
            prop_assert_eq!(
                base.relaxed_value.to_bits(),
                par.relaxed_value.to_bits(),
                "C={}, threads={}: value changed",
                colors, threads
            );
            prop_assert_eq!(base.metrics.oracle_marginals, par.metrics.oracle_marginals);
            prop_assert_eq!(base.metrics.oracle_commits, par.metrics.oracle_commits);
        }
    }
}

proptest! {
    // The threaded engine spawns one OS thread per charger per negotiation;
    // keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The round-based and threaded negotiation engines are bit-identical
    /// on arbitrary instances, colors and seeds.
    #[test]
    fn negotiation_engines_bit_identical(
        scenario in arb_scenario(),
        colors in 1usize..4,
        seed in 0u64..100,
    ) {
        use haste::distributed::{negotiate_rounds, negotiate_threaded, NegotiationConfig, NeighborGraph};
        let coverage = CoverageMap::build(&scenario);
        let graph = NeighborGraph::build(&coverage);
        let inst = HasteRInstance::build(&scenario, &coverage, DominantScope::PerSlot);
        let cfg = NegotiationConfig { colors, samples: 6, seed };
        let (a, sa) = negotiate_rounds(&inst, &graph, &cfg);
        let (b, sb) = negotiate_threaded(&inst, &graph, &cfg);
        prop_assert_eq!(a.choices, b.choices);
        prop_assert_eq!(sa.messages, sb.messages);
        prop_assert_eq!(sa.rounds, sb.rounds);
    }

    /// The coverage map's cached per-candidate power equals the full
    /// charging-power function evaluated at the candidate's azimuth.
    #[test]
    fn coverage_powers_match_power_model(scenario in arb_scenario()) {
        let coverage = CoverageMap::build(&scenario);
        for charger in &scenario.chargers {
            for cand in coverage.tasks_of(charger.id) {
                let task = &scenario.tasks[cand.task.index()];
                let direct = haste::model::power::received_power(
                    &scenario.params,
                    charger,
                    Some(cand.azimuth),
                    task,
                );
                prop_assert!(
                    (direct - cand.power).abs() < 1e-9,
                    "cached {} vs direct {direct}",
                    cand.power
                );
            }
        }
    }

    /// The orientation-hold pass never decreases utility and never adds
    /// switches.
    #[test]
    fn hold_orientations_weakly_dominates(scenario in arb_scenario()) {
        use haste::core::{HasteRInstance as Inst, DominantScope as Scope};
        use haste::submodular::{locally_greedy, GreedyOptions};
        let coverage = CoverageMap::build(&scenario);
        let inst = Inst::build(&scenario, &coverage, Scope::PerSlot);
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        let bare = inst.materialize(&sel);
        let mut held = bare.clone();
        held.hold_orientations();
        let bare_eval = evaluate(&scenario, &coverage, &bare, EvalOptions::default());
        let held_eval = evaluate(&scenario, &coverage, &held, EvalOptions::default());
        prop_assert!(held_eval.total_utility >= bare_eval.total_utility - 1e-12);
        prop_assert!(held_eval.total_switches() <= bare_eval.total_switches());
    }
}
