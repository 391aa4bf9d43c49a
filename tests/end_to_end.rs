//! End-to-end integration: the full pipeline — scenario generation,
//! coverage, dominant sets, offline/online scheduling, baselines, P1
//! evaluation — on moderately sized instances.

use haste::prelude::*;

fn medium_spec() -> ScenarioSpec {
    ScenarioSpec {
        field: 30.0,
        num_chargers: 10,
        num_tasks: 30,
        energy_range: (2_000.0, 10_000.0),
        duration_range: (5, 25),
        release_horizon: 15,
        ..ScenarioSpec::paper_default()
    }
}

#[test]
fn offline_pipeline_invariants() {
    for seed in 0..5u64 {
        let scenario = medium_spec().generate(seed);
        let coverage = CoverageMap::build(&scenario);
        for config in [OfflineConfig::greedy(), OfflineConfig::default()] {
            let r = solve_offline(&scenario, &coverage, &config);
            // Utilities bounded by total weight.
            assert!(r.report.total_utility >= 0.0);
            assert!(r.report.total_utility <= scenario.total_weight() + 1e-9);
            // P1 ≤ relaxed, and at least (1−ρ)·relaxed (Theorem 5.1's
            // switching-loss argument).
            assert!(r.report.total_utility <= r.relaxed_value + 1e-9);
            assert!(
                r.report.total_utility >= (1.0 - scenario.rho) * r.relaxed_value - 1e-9,
                "seed {seed}: P1 {} below (1-rho) of relaxed {}",
                r.report.total_utility,
                r.relaxed_value
            );
            // Per-task utilities within [0, 1].
            assert!(r
                .report
                .per_task_utility
                .iter()
                .all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
        }
    }
}

#[test]
fn online_pipeline_invariants() {
    for seed in 0..3u64 {
        let scenario = medium_spec().generate(100 + seed);
        let r = replay_trace(scenario.clone(), OnlineConfig::default());
        assert!(r.report.total_utility <= scenario.total_weight() + 1e-9);
        assert!(r.report.total_utility <= r.relaxed_value + 1e-9);
        // Communication happened (multiple arrival events, many chargers).
        assert!(r.stats.messages > 0);
        assert!(r.stats.rounds > 0);
    }
}

#[test]
fn haste_dominates_baselines_on_average() {
    let mut haste_total = 0.0;
    let mut best_baseline_total = 0.0;
    for seed in 0..6u64 {
        let scenario = medium_spec().generate(200 + seed);
        let coverage = CoverageMap::build(&scenario);
        let h = solve_offline(&scenario, &coverage, &OfflineConfig::default());
        let bu = solve_baseline(&scenario, &coverage, BaselineKind::GreedyUtility);
        let bc = solve_baseline(&scenario, &coverage, BaselineKind::GreedyCover);
        haste_total += h.report.total_utility;
        best_baseline_total += bu.report.total_utility.max(bc.report.total_utility);
    }
    assert!(
        haste_total >= best_baseline_total - 1e-9,
        "HASTE {haste_total} below best baseline {best_baseline_total}"
    );
}

#[test]
fn schedules_only_use_extracted_orientations() {
    // Every orientation the solver emits must cover at least one task the
    // charger can reach — no pointing at empty space.
    let scenario = medium_spec().generate(5);
    let coverage = CoverageMap::build(&scenario);
    let r = solve_offline(&scenario, &coverage, &OfflineConfig::greedy());
    for charger in &scenario.chargers {
        let candidates = coverage.tasks_of(charger.id);
        for k in 0..scenario.grid.num_slots {
            if let Some(theta) = r.schedule.get(charger.id, k) {
                let covers_any = candidates.iter().any(|c| {
                    c.azimuth
                        .within(theta, scenario.params.charging_angle / 2.0)
                });
                assert!(
                    covers_any,
                    "charger {:?} slot {k} aims at nothing",
                    charger.id
                );
            }
        }
    }
}

#[test]
fn wider_angles_never_hurt() {
    // Monotonicity sanity across the pipeline: growing A_s (or A_o) can
    // only enlarge coverage options.
    let mut utilities = Vec::new();
    for deg in [60.0, 180.0, 360.0] {
        let mut spec = medium_spec();
        spec.params.charging_angle = f64::to_radians(deg);
        let mut total = 0.0;
        for seed in 0..4u64 {
            let scenario = spec.generate(seed);
            let coverage = CoverageMap::build(&scenario);
            total += solve_offline(&scenario, &coverage, &OfflineConfig::greedy()).relaxed_value;
        }
        utilities.push(total);
    }
    assert!(
        utilities[0] <= utilities[1] + 1e-6 && utilities[1] <= utilities[2] + 1e-6,
        "utilities not monotone in A_s: {utilities:?}"
    );
}

#[test]
fn text_io_roundtrip_preserves_solver_results() {
    use haste::model::io;
    let scenario = medium_spec().generate(3);
    let text = io::write_scenario(&scenario);
    let parsed = io::read_scenario(&text).expect("roundtrip parses");
    let cov_a = CoverageMap::build(&scenario);
    let cov_b = CoverageMap::build(&parsed);
    let a = solve_offline(&scenario, &cov_a, &OfflineConfig::greedy());
    let b = solve_offline(&parsed, &cov_b, &OfflineConfig::greedy());
    assert_eq!(a.schedule, b.schedule);
    assert!((a.report.total_utility - b.report.total_utility).abs() < 1e-12);
}

#[test]
fn serde_scenario_roundtrip() {
    // Scenario specs and scenarios are serializable configuration.
    let scenario = medium_spec().generate(1);
    let cloned = scenario.clone();
    assert_eq!(scenario.tasks, cloned.tasks);
    // Schedules compare equal through clone as well (serde derives are
    // exercised in unit tests; here we pin the PartialEq plumbing).
    let coverage = CoverageMap::build(&scenario);
    let r = solve_offline(&scenario, &coverage, &OfflineConfig::greedy());
    assert_eq!(r.schedule, r.schedule.clone());
}
