//! Field-experiment substitute (Section 8 of the paper).
//!
//! The paper evaluates on two physical testbeds of Powercast TX91501 power
//! transmitters and rechargeable sensor nodes. This crate reproduces those
//! experiments *in silico* by driving the identical scheduling code through
//! the empirical charging model the paper itself fits to that hardware:
//! `α = 41.93`, `β = 0.6428`, `D = 4 m`, `A_s = 60°`, `A_o = 120°`,
//! `ρ = 1/12`, `τ = 1`, `w_j = 1/8` (resp. `1/20`), `T_s = 1 min`.
//!
//! **Units.** With `α = 41.93` the power law yields tens of *milliwatts* at
//! meter range (a TX91501 emits 3 W and delivers mW-scale harvested power),
//! so this crate works in milliwatts and millijoules: required energies of
//! 3–5 J become 3000–5000 mJ. Utilities are dimensionless either way.
//!
//! **Topologies.** The paper does not tabulate node coordinates. Topology 1
//! follows Fig. 20's description — 8 transmitters on the boundary of a
//! 2.4 m × 2.4 m square, 8 nodes inside, task windows/orientations as
//! printed, with tasks 1 and 6 carrying the longest windows. Topology 2 is
//! the paper's "randomly generated, much more irregular" 16-transmitter /
//! 20-node layout, reproduced here as a seed-fixed random layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use haste_core::BaselineKind;
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, CoverageMap, Scenario, Task, TimeGrid};
use haste_sim::{Algo, FigureTable, Series};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's small testbed: 8 TX91501 transmitters on the boundary of a
/// 2.4 m × 2.4 m square, 8 rechargeable sensor nodes / tasks inside.
pub fn topology1() -> Scenario {
    let params = ChargingParams::testbed_tx91501();
    // Transmitters on the square boundary (meters).
    let chargers = vec![
        Charger::new(0, Vec2::new(0.0, 0.6)),
        Charger::new(1, Vec2::new(0.0, 1.8)),
        Charger::new(2, Vec2::new(0.6, 0.0)),
        Charger::new(3, Vec2::new(1.8, 0.0)),
        Charger::new(4, Vec2::new(2.4, 0.6)),
        Charger::new(5, Vec2::new(2.4, 1.8)),
        Charger::new(6, Vec2::new(0.6, 2.4)),
        Charger::new(7, Vec2::new(1.8, 2.4)),
    ];
    // Nodes inside; orientation / release / end (slots) per task.
    // Required energy in millijoules. The paper quotes 3–5 J; at our
    // synthesized coordinates the fitted α delivers noticeably more power
    // than at the paper's physical layout, so the requirements are scaled
    // ~2.5× (7.5–12.5 J) to restore the published utility range (0.4–1.0)
    // — see DESIGN.md §4. Tasks 0 and 5 (the paper's tasks 1 and 6) hold
    // the longest windows.
    let w = 1.0 / 8.0;
    let tasks = vec![
        Task::new(
            0,
            Vec2::new(0.5, 1.2),
            Angle::from_degrees(180.0),
            0,
            10,
            8_750.0,
            w,
        ),
        Task::new(
            1,
            Vec2::new(1.2, 0.5),
            Angle::from_degrees(270.0),
            1,
            5,
            10_500.0,
            w,
        ),
        Task::new(
            2,
            Vec2::new(1.9, 1.0),
            Angle::from_degrees(0.0),
            0,
            4,
            7_500.0,
            w,
        ),
        Task::new(
            3,
            Vec2::new(1.2, 1.9),
            Angle::from_degrees(90.0),
            2,
            6,
            12_500.0,
            w,
        ),
        Task::new(
            4,
            Vec2::new(0.8, 0.8),
            Angle::from_degrees(225.0),
            3,
            7,
            9_500.0,
            w,
        ),
        Task::new(
            5,
            Vec2::new(1.6, 1.6),
            Angle::from_degrees(45.0),
            0,
            9,
            10_000.0,
            w,
        ),
        Task::new(
            6,
            Vec2::new(0.4, 1.9),
            Angle::from_degrees(135.0),
            4,
            8,
            11_500.0,
            w,
        ),
        Task::new(
            7,
            Vec2::new(2.0, 0.4),
            Angle::from_degrees(300.0),
            2,
            7,
            8_000.0,
            w,
        ),
    ];
    Scenario::new(
        params,
        TimeGrid::minutes(10),
        chargers,
        tasks,
        1.0 / 12.0,
        1,
    )
    .expect("topology 1 is a valid scenario")
}

/// The paper's large testbed: 16 transmitters and 20 nodes in an irregular
/// (randomly generated) layout.
pub fn topology2() -> Scenario {
    let params = ChargingParams::testbed_tx91501();
    let mut rng = StdRng::seed_from_u64(0x7E57_BEDF);
    let side = 3.6;
    let chargers: Vec<Charger> = (0..16)
        .map(|i| {
            Charger::new(
                i as u32,
                Vec2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
            )
        })
        .collect();
    let w = 1.0 / 20.0;
    let tasks = (0..20)
        .map(|j| {
            let release = rng.gen_range(0..4usize);
            let duration = rng.gen_range(3..=9usize);
            // Resample placement/facing until at least one transmitter can
            // reach the node: an unreachable node would be a dead row in
            // Figs. 24–25, and the paper's physical deployment has none.
            loop {
                let task = Task::new(
                    j as u32,
                    Vec2::new(
                        rng.gen_range(0.2..side - 0.2),
                        rng.gen_range(0.2..side - 0.2),
                    ),
                    Angle::from_degrees(rng.gen_range(0.0..360.0)),
                    release,
                    release + duration,
                    rng.gen_range(8_000.0..14_000.0),
                    w,
                );
                if chargers
                    .iter()
                    .any(|c| haste_model::power::chargeable(&params, c, &task))
                {
                    break task;
                }
            }
        })
        .collect();
    Scenario::new(
        params,
        TimeGrid::minutes(13),
        chargers,
        tasks,
        1.0 / 12.0,
        1,
    )
    .expect("topology 2 is a valid scenario")
}

/// The testbed algorithm roster of Figs. 21–25.
fn roster(online: bool) -> Vec<Algo> {
    if online {
        vec![
            Algo::OnlineHaste { colors: 4 },
            Algo::OnlineBaseline(BaselineKind::GreedyUtility),
            Algo::OnlineBaseline(BaselineKind::GreedyCover),
        ]
    } else {
        vec![
            Algo::OfflineHaste { colors: 4 },
            Algo::OfflineBaseline(BaselineKind::GreedyUtility),
            Algo::OfflineBaseline(BaselineKind::GreedyCover),
        ]
    }
}

/// Per-task utilities of one algorithm on a testbed scenario.
pub fn per_task_utilities(scenario: &Scenario, algo: Algo, seed: u64) -> Vec<f64> {
    let coverage = CoverageMap::build(scenario);
    match algo {
        Algo::OfflineHaste { colors } => {
            haste_core::solve_offline(
                scenario,
                &coverage,
                &haste_core::OfflineConfig {
                    colors,
                    seed,
                    ..haste_core::OfflineConfig::default()
                },
            )
            .report
            .per_task_utility
        }
        Algo::OnlineHaste { .. } => algo.run_online(scenario, seed).report.per_task_utility,
        Algo::OfflineBaseline(kind) => {
            haste_core::solve_baseline(scenario, &coverage, kind)
                .report
                .per_task_utility
        }
        Algo::OnlineBaseline(kind) => {
            haste_distributed::solve_baseline_online(scenario, &coverage, kind)
                .report
                .per_task_utility
        }
        Algo::Exact { budget } => {
            haste_core::solve_exact(scenario, &coverage, budget)
                .expect("testbed instances are small")
                .report
                .per_task_utility
        }
    }
}

/// Builds the per-task utility table of one testbed figure.
fn testbed_figure(id: &str, title: &str, scenario: &Scenario, online: bool) -> FigureTable {
    let algos = roster(online);
    let series = algos
        .iter()
        .map(|&algo| Series {
            name: algo.label(),
            values: per_task_utilities(scenario, algo, 0xBED),
        })
        .collect();
    FigureTable {
        id: id.into(),
        title: title.into(),
        x_label: "task".into(),
        x: (1..=scenario.num_tasks()).map(|j| j as f64).collect(),
        series,
    }
}

/// Fig. 21: per-task utility on topology 1, centralized offline.
pub fn fig21() -> FigureTable {
    testbed_figure(
        "fig21",
        "testbed topology 1: per-task utility (centralized offline)",
        &topology1(),
        false,
    )
}

/// Fig. 22: per-task utility on topology 1, distributed online.
pub fn fig22() -> FigureTable {
    testbed_figure(
        "fig22",
        "testbed topology 1: per-task utility (distributed online)",
        &topology1(),
        true,
    )
}

/// Fig. 24: per-task utility on topology 2, centralized offline.
pub fn fig24() -> FigureTable {
    testbed_figure(
        "fig24",
        "testbed topology 2: per-task utility (centralized offline)",
        &topology2(),
        false,
    )
}

/// Fig. 25: per-task utility on topology 2, distributed online.
pub fn fig25() -> FigureTable {
    testbed_figure(
        "fig25",
        "testbed topology 2: per-task utility (distributed online)",
        &topology2(),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_are_valid_and_covered() {
        for s in [topology1(), topology2()] {
            s.validate().unwrap();
            let cov = CoverageMap::build(&s);
            // Every task should be chargeable by at least one transmitter —
            // a dead node would make the figure meaningless.
            let orphan = s
                .tasks
                .iter()
                .filter(|t| cov.chargers_of(t.id).is_empty())
                .count();
            assert_eq!(orphan, 0, "{orphan} unreachable tasks");
        }
    }

    #[test]
    fn topology_shapes_match_paper() {
        let t1 = topology1();
        assert_eq!(t1.num_chargers(), 8);
        assert_eq!(t1.num_tasks(), 8);
        assert!((t1.total_weight() - 1.0).abs() < 1e-9);
        let t2 = topology2();
        assert_eq!(t2.num_chargers(), 16);
        assert_eq!(t2.num_tasks(), 20);
    }

    #[test]
    fn figures_have_full_series() {
        let f = fig21();
        assert_eq!(f.x.len(), 8);
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            assert_eq!(s.values.len(), 8);
            assert!(s.values.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn haste_beats_baselines_on_average_topology1() {
        for f in [fig21(), fig22()] {
            let haste = f.series_mean("HASTE(C=4)").unwrap();
            let bu = f.series_mean("GreedyUtility").unwrap();
            let bc = f.series_mean("GreedyCover").unwrap();
            assert!(
                haste >= bu - 1e-9 && haste >= bc - 1e-9,
                "{}: HASTE {haste} vs GU {bu} GC {bc}",
                f.id
            );
        }
    }

    #[test]
    fn longest_tasks_fare_well_offline() {
        // The paper observes tasks 1 and 6 (indices 0 and 5) achieve the
        // top utilities thanks to their long windows.
        let f = fig21();
        let haste = &f.series[0].values;
        let mut ranked: Vec<usize> = (0..haste.len()).collect();
        ranked.sort_by(|&a, &b| haste[b].partial_cmp(&haste[a]).unwrap());
        assert!(
            ranked[..3].contains(&0) || ranked[..3].contains(&5),
            "long-window tasks not near the top: {ranked:?} {haste:?}"
        );
    }

    #[test]
    fn deterministic_topology2() {
        let a = topology2();
        let b = topology2();
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.chargers, b.chargers);
    }
}
