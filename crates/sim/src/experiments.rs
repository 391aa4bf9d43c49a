//! The experiment registry: one function per figure of the paper's
//! evaluation (Section 7). Each returns a [`FigureTable`] holding the
//! numbers behind the figure; the `haste-bench` binaries print and save
//! them.
//!
//! Every data point averages `ctx.topologies` seeded random topologies
//! (the paper uses 100), evaluated in parallel.

use haste_core::BaselineKind;
use haste_model::CoverageMap;
use haste_parallel::par_map;

use crate::algo::Algo;
use crate::generators::{Placement, ScenarioSpec};
use crate::stats::BoxStats;
use crate::table::{FigureTable, Series};

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Random topologies per data point (paper fidelity: 100).
    pub topologies: usize,
    /// Worker threads for the topology loop.
    pub threads: usize,
    /// Base RNG seed; topology `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            topologies: 30,
            threads: haste_parallel::default_threads(),
            base_seed: 42,
        }
    }
}

impl ExperimentCtx {
    /// Full paper fidelity: 100 topologies per point.
    pub fn paper() -> Self {
        ExperimentCtx {
            topologies: 100,
            ..ExperimentCtx::default()
        }
    }

    /// A quick smoke-test context.
    pub fn quick() -> Self {
        ExperimentCtx {
            topologies: 4,
            ..ExperimentCtx::default()
        }
    }
}

/// Mean utility of each algorithm at each x tick, averaged over topologies.
fn sweep(
    ctx: &ExperimentCtx,
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    spec_of: impl Fn(f64) -> ScenarioSpec + Sync,
    algos: &[Algo],
) -> FigureTable {
    let mut series: Vec<Series> = algos
        .iter()
        .map(|a| Series {
            name: a.label(),
            values: Vec::with_capacity(xs.len()),
        })
        .collect();
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    for &x in xs {
        let spec = spec_of(x);
        let per_topology: Vec<Vec<Option<f64>>> = par_map(&seeds, ctx.threads, |_, &seed| {
            let scenario = spec.generate(seed);
            let coverage = CoverageMap::build(&scenario);
            algos
                .iter()
                .map(|a| a.run(&scenario, &coverage, seed))
                .collect()
        });
        // Keep only topologies every algorithm completed (brute force may
        // exceed its budget) — otherwise the series would average over
        // different instance sets and stop being comparable.
        let complete: Vec<&Vec<Option<f64>>> = per_topology
            .iter()
            .filter(|row| row.iter().all(Option::is_some))
            .collect();
        for (ai, s) in series.iter_mut().enumerate() {
            let vals: Vec<f64> = complete.iter().filter_map(|row| row[ai]).collect();
            let mean = if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            s.values.push(mean);
        }
    }
    FigureTable {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        x: xs.to_vec(),
        series,
    }
}

/// Distribution of HASTE's utility per color count, as a box plot table.
fn color_box(ctx: &ExperimentCtx, id: &str, title: &str, online: bool) -> FigureTable {
    let colors: Vec<f64> = (1..=8).map(|c| c as f64).collect();
    let names = ["min", "q1", "median", "q3", "max", "mean"];
    let mut series: Vec<Series> = names
        .iter()
        .map(|n| Series {
            name: (*n).into(),
            values: Vec::new(),
        })
        .collect();
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let spec = ScenarioSpec::paper_default();
    for &c in &colors {
        let algo = if online {
            Algo::OnlineHaste { colors: c as usize }
        } else {
            Algo::OfflineHaste { colors: c as usize }
        };
        let vals: Vec<f64> = par_map(&seeds, ctx.threads, |_, &seed| {
            let scenario = spec.generate(seed);
            let coverage = CoverageMap::build(&scenario);
            algo.run(&scenario, &coverage, seed).unwrap_or(f64::NAN)
        });
        let b = BoxStats::of(&vals);
        for (s, v) in series
            .iter_mut()
            .zip([b.min, b.q1, b.median, b.q3, b.max, b.mean])
        {
            s.values.push(v);
        }
    }
    FigureTable {
        id: id.into(),
        title: title.into(),
        x_label: "C".into(),
        x: colors,
        series,
    }
}

const DEG_TICKS: [f64; 12] = [
    30.0, 60.0, 90.0, 120.0, 150.0, 180.0, 210.0, 240.0, 270.0, 300.0, 330.0, 360.0,
];

fn offline_roster() -> Vec<Algo> {
    vec![
        Algo::OfflineHaste { colors: 1 },
        Algo::OfflineHaste { colors: 4 },
        Algo::OfflineBaseline(BaselineKind::GreedyUtility),
        Algo::OfflineBaseline(BaselineKind::GreedyCover),
    ]
}

fn online_roster() -> Vec<Algo> {
    vec![
        Algo::OnlineHaste { colors: 1 },
        Algo::OnlineHaste { colors: 4 },
        Algo::OnlineBaseline(BaselineKind::GreedyUtility),
        Algo::OnlineBaseline(BaselineKind::GreedyCover),
    ]
}

/// Fig. 4: charging angle `A_s` versus utility, centralized offline.
pub fn fig04(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig04",
        "A_s versus charging utility (centralized offline)",
        "A_s (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::paper_default();
            spec.params.charging_angle = deg.to_radians();
            spec
        },
        &offline_roster(),
    )
}

/// Fig. 5: receiving angle `A_o` versus utility, centralized offline.
pub fn fig05(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig05",
        "A_o versus charging utility (centralized offline)",
        "A_o (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::paper_default();
            spec.params.receiving_angle = deg.to_radians();
            spec
        },
        &offline_roster(),
    )
}

/// Fig. 6: switching delay `ρ` versus utility, centralized offline.
pub fn fig06(ctx: &ExperimentCtx) -> FigureTable {
    let xs: Vec<f64> = (0..=8).map(|i| i as f64 / 8.0).collect();
    sweep(
        ctx,
        "fig06",
        "rho versus charging utility (centralized offline)",
        "rho",
        &xs,
        |rho| {
            let mut spec = ScenarioSpec::paper_default();
            spec.rho = rho;
            spec
        },
        &offline_roster(),
    )
}

/// Fig. 7: color count `C` versus utility distribution, offline (box plot).
pub fn fig07(ctx: &ExperimentCtx) -> FigureTable {
    color_box(
        ctx,
        "fig07",
        "C versus charging utility (centralized offline, box plot)",
        false,
    )
}

/// Fig. 8: small-scale `A_s` sweep against the brute-force optimum
/// (centralized offline).
pub fn fig08(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig08",
        "A_s versus charging utility (small-scale, vs optimal)",
        "A_s (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::small_scale();
            spec.params.charging_angle = deg.to_radians();
            spec
        },
        &[
            Algo::Exact { budget: 1 << 24 },
            Algo::OfflineHaste { colors: 1 },
            Algo::OfflineHaste { colors: 4 },
        ],
    )
}

/// Fig. 9: small-scale `A_o` sweep against the brute-force optimum
/// (distributed online).
pub fn fig09(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig09",
        "A_o versus charging utility (small-scale, online vs optimal)",
        "A_o (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::small_scale();
            spec.params.receiving_angle = deg.to_radians();
            spec
        },
        &[
            Algo::Exact { budget: 1 << 24 },
            Algo::OnlineHaste { colors: 1 },
            Algo::OnlineHaste { colors: 4 },
        ],
    )
}

/// Required-energy × task-duration grid (Figs. 10 offline / 11 online):
/// rows are mean energies `Ē` in kJ, series are mean durations in minutes.
fn energy_duration_grid(ctx: &ExperimentCtx, id: &str, online: bool) -> FigureTable {
    let energies_kj = [10.0, 20.0, 30.0, 40.0, 50.0];
    let durations_min = [30.0, 40.0, 50.0, 60.0, 70.0];
    let algo = if online {
        Algo::OnlineHaste { colors: 4 }
    } else {
        Algo::OfflineHaste { colors: 4 }
    };
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let mut series: Vec<Series> = durations_min
        .iter()
        .map(|d| Series {
            name: format!("dt={d}min"),
            values: Vec::new(),
        })
        .collect();
    for &e_kj in &energies_kj {
        for (di, &d) in durations_min.iter().enumerate() {
            let mut spec = ScenarioSpec::paper_default();
            let e = e_kj * 1000.0;
            spec.energy_range = (0.5 * e, 1.5 * e);
            spec.duration_range = ((0.5 * d) as usize, (1.5 * d) as usize);
            let vals: Vec<f64> = par_map(&seeds, ctx.threads, |_, &seed| {
                let scenario = spec.generate(seed);
                let coverage = CoverageMap::build(&scenario);
                algo.run(&scenario, &coverage, seed).unwrap_or(f64::NAN)
            });
            let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            series[di].values.push(mean);
        }
    }
    FigureTable {
        id: id.into(),
        title: format!(
            "required energy x task duration versus utility ({})",
            if online { "online" } else { "offline" }
        ),
        x_label: "E_j (kJ)".into(),
        x: energies_kj.to_vec(),
        series,
    }
}

/// Fig. 10: `Ē × Δt̄` grid, centralized offline.
pub fn fig10(ctx: &ExperimentCtx) -> FigureTable {
    energy_duration_grid(ctx, "fig10", false)
}

/// Fig. 11: `Ē × Δt̄` grid, distributed online.
pub fn fig11(ctx: &ExperimentCtx) -> FigureTable {
    energy_duration_grid(ctx, "fig11", true)
}

/// Fig. 12: `A_s` versus utility, distributed online.
pub fn fig12(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig12",
        "A_s versus charging utility (distributed online)",
        "A_s (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::paper_default();
            spec.params.charging_angle = deg.to_radians();
            spec
        },
        &online_roster(),
    )
}

/// Fig. 13: `A_o` versus utility, distributed online.
pub fn fig13(ctx: &ExperimentCtx) -> FigureTable {
    sweep(
        ctx,
        "fig13",
        "A_o versus charging utility (distributed online)",
        "A_o (deg)",
        &DEG_TICKS,
        |deg| {
            let mut spec = ScenarioSpec::paper_default();
            spec.params.receiving_angle = deg.to_radians();
            spec
        },
        &online_roster(),
    )
}

/// Fig. 14: `ρ` versus utility, distributed online.
pub fn fig14(ctx: &ExperimentCtx) -> FigureTable {
    let xs: Vec<f64> = (0..=8).map(|i| i as f64 / 8.0).collect();
    sweep(
        ctx,
        "fig14",
        "rho versus charging utility (distributed online)",
        "rho",
        &xs,
        |rho| {
            let mut spec = ScenarioSpec::paper_default();
            spec.rho = rho;
            spec
        },
        &online_roster(),
    )
}

/// Fig. 15: color count `C` versus utility distribution, online (box plot).
pub fn fig15(ctx: &ExperimentCtx) -> FigureTable {
    color_box(
        ctx,
        "fig15",
        "C versus charging utility (distributed online, box plot)",
        true,
    )
}

/// Fig. 16: communication cost versus network size (`C = 1`): average
/// messages and rounds per time slot of the online negotiation.
pub fn fig16(ctx: &ExperimentCtx) -> FigureTable {
    let ns: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let mut messages = Series {
        name: "messages/slot".into(),
        values: Vec::new(),
    };
    let mut rounds = Series {
        name: "rounds/slot".into(),
        values: Vec::new(),
    };
    let algo = Algo::OnlineHaste { colors: 1 };
    for &n in &ns {
        let mut spec = ScenarioSpec::paper_default();
        spec.num_chargers = n as usize;
        let per: Vec<(f64, f64)> = par_map(&seeds, ctx.threads, |_, &seed| {
            let scenario = spec.generate(seed);
            let result = algo.run_online(&scenario, seed);
            (
                result.stats.avg_messages_per_slot(),
                result.stats.avg_rounds_per_slot(),
            )
        });
        messages
            .values
            .push(per.iter().map(|p| p.0).sum::<f64>() / per.len().max(1) as f64);
        rounds
            .values
            .push(per.iter().map(|p| p.1).sum::<f64>() / per.len().max(1) as f64);
    }
    FigureTable {
        id: "fig16".into(),
        title: "communication cost versus number of chargers (C=1)".into(),
        x_label: "n".into(),
        x: ns,
        series: vec![messages, rounds],
    }
}

/// Fig. 17: Gaussian task-placement spread versus utility: rows are `σ_x`,
/// series are `σ_y` (50 tasks, offline HASTE C=4).
pub fn fig17(ctx: &ExperimentCtx) -> FigureTable {
    let sigmas = [5.0, 10.0, 15.0, 20.0, 25.0];
    let algo = Algo::OfflineHaste { colors: 4 };
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let mut series: Vec<Series> = sigmas
        .iter()
        .map(|s| Series {
            name: format!("sigma_y={s}"),
            values: Vec::new(),
        })
        .collect();
    for &sx in &sigmas {
        for (yi, &sy) in sigmas.iter().enumerate() {
            let mut spec = ScenarioSpec::paper_default();
            spec.num_tasks = 50;
            spec.placement = Placement::Gaussian {
                sigma_x: sx,
                sigma_y: sy,
            };
            let vals: Vec<f64> = par_map(&seeds, ctx.threads, |_, &seed| {
                let scenario = spec.generate(seed);
                let coverage = CoverageMap::build(&scenario);
                algo.run(&scenario, &coverage, seed).unwrap_or(f64::NAN)
            });
            let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            series[yi].values.push(mean);
        }
    }
    FigureTable {
        id: "fig17".into(),
        title: "overall charging utility versus Gaussian placement spread".into(),
        x_label: "sigma_x (m)".into(),
        x: sigmas.to_vec(),
        series,
    }
}

/// Fig. 18: individual charging utility versus required energy `E_j`
/// (`E_j ∈ [5, 100] kJ`): per-bin max and mean utility plus the `∝ 1/E_j`
/// envelope the paper fits.
pub fn fig18(ctx: &ExperimentCtx) -> FigureTable {
    let mut spec = ScenarioSpec::paper_default();
    spec.energy_range = (5_000.0, 100_000.0);
    let algo = Algo::OfflineHaste { colors: 4 };
    let bins = 10usize;
    let (lo, hi) = spec.energy_range;
    let width = (hi - lo) / bins as f64;
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    // Collect (E_j, utility) for every task of every topology.
    let per_topology: Vec<Vec<(f64, f64)>> = par_map(&seeds, ctx.threads, |_, &seed| {
        let scenario = spec.generate(seed);
        let coverage = CoverageMap::build(&scenario);
        let result = haste_core::solve_offline(
            &scenario,
            &coverage,
            &haste_core::OfflineConfig {
                colors: 4,
                seed,
                ..haste_core::OfflineConfig::default()
            },
        );
        scenario
            .tasks
            .iter()
            .zip(&result.report.per_task_utility)
            .map(|(t, &u)| (t.required_energy, u))
            .collect()
    });
    let _ = algo;
    // The paper's Fig. 18 is a scatter of the 200 tasks of one run with a
    // 1/E envelope over its maxima; take the max from the first topology
    // (a multi-topology max would only collect outliers) and the mean over
    // all topologies.
    let mut max_u = vec![0.0f64; bins];
    let mut sum_u = vec![0.0f64; bins];
    let mut count = vec![0usize; bins];
    for (ti, rows) in per_topology.into_iter().enumerate() {
        for (e, u) in rows {
            let b = (((e - lo) / width) as usize).min(bins - 1);
            if ti == 0 {
                max_u[b] = max_u[b].max(u);
            }
            sum_u[b] += u;
            count[b] += 1;
        }
    }
    let centers: Vec<f64> = (0..bins)
        .map(|b| (lo + (b as f64 + 0.5) * width) / 1000.0)
        .collect();
    // Envelope c/E anchored so it passes through the first bin's max.
    let c = max_u[0] * centers[0];
    FigureTable {
        id: "fig18".into(),
        title: "individual charging utility versus required energy".into(),
        x_label: "E_j (kJ)".into(),
        x: centers.clone(),
        series: vec![
            Series {
                name: "max utility".into(),
                values: max_u.clone(),
            },
            Series {
                name: "mean utility".into(),
                values: (0..bins)
                    .map(|b| {
                        if count[b] == 0 {
                            f64::NAN
                        } else {
                            sum_u[b] / count[b] as f64
                        }
                    })
                    .collect(),
            },
            Series {
                name: "c/E envelope".into(),
                values: centers.iter().map(|&e| (c / e).min(1.0)).collect(),
            },
        ],
    }
}

/// Extension experiment (not in the paper): robustness to charger
/// failures. `x` chargers die at staggered slots; the online algorithm
/// replans around them. Series: delivered utility, and the fraction of the
/// healthy run's utility retained.
pub fn fig_failures(ctx: &ExperimentCtx) -> FigureTable {
    use haste_distributed::{replay_trace, ChargerFailure, OnlineConfig};
    let spec = ScenarioSpec {
        num_chargers: 20,
        num_tasks: 80,
        release_horizon: 30,
        duration_range: (5, 30),
        ..ScenarioSpec::paper_default()
    };
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let failure_counts: Vec<f64> = (0..=5).map(|k| (2 * k) as f64).collect();
    let mut utility = Series {
        name: "utility".into(),
        values: Vec::new(),
    };
    let mut retained = Series {
        name: "fraction of healthy".into(),
        values: Vec::new(),
    };
    for &fc in &failure_counts {
        let fc = fc as usize;
        let per: Vec<(f64, f64)> = par_map(&seeds, ctx.threads, |_, &seed| {
            let scenario = spec.generate(seed);
            let healthy = replay_trace(scenario.clone(), OnlineConfig::default());
            // Kill chargers round-robin at staggered slots.
            let failures: Vec<ChargerFailure> = (0..fc)
                .map(|i| ChargerFailure {
                    charger: haste_model::ChargerId(
                        ((seed as usize + i * 7) % scenario.num_chargers()) as u32,
                    ),
                    slot: 2 + 3 * i,
                })
                .collect();
            let failed = replay_trace(
                scenario,
                OnlineConfig {
                    failures,
                    ..OnlineConfig::default()
                },
            );
            let h = healthy.report.total_utility.max(1e-12);
            (failed.report.total_utility, failed.report.total_utility / h)
        });
        utility
            .values
            .push(per.iter().map(|p| p.0).sum::<f64>() / per.len().max(1) as f64);
        retained
            .values
            .push(per.iter().map(|p| p.1).sum::<f64>() / per.len().max(1) as f64);
    }
    FigureTable {
        id: "fig_failures".into(),
        title: "extension: charger failures versus delivered utility (online)".into(),
        x_label: "failed chargers".into(),
        x: failure_counts,
        series: vec![utility, retained],
    }
}

/// Headline claims (Section 7.3.1 / abstract): the online algorithm's
/// fraction of the brute-force optimum on small-scale instances, and its
/// average improvement over the online baselines at the default setup.
pub fn headline(ctx: &ExperimentCtx) -> FigureTable {
    // Part 1: online vs optimal on small-scale instances.
    let spec = ScenarioSpec::small_scale();
    let seeds: Vec<u64> = (0..ctx.topologies as u64)
        .map(|t| ctx.base_seed + t)
        .collect();
    let ratios: Vec<f64> = par_map(&seeds, ctx.threads, |_, &seed| {
        let scenario = spec.generate(seed);
        let coverage = CoverageMap::build(&scenario);
        let opt = Algo::Exact { budget: 1 << 24 }.run(&scenario, &coverage, seed);
        let online = Algo::OnlineHaste { colors: 4 }.run(&scenario, &coverage, seed);
        match (opt, online) {
            (Some(o), Some(v)) if o > 1e-12 => Some(v / o),
            _ => None,
        }
    })
    .into_iter()
    .flatten()
    .collect();
    let ratio_mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let ratio_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);

    // Part 2: improvement over baselines at the default setup.
    let spec = ScenarioSpec::paper_default();
    let rows: Vec<(f64, f64, f64)> = par_map(&seeds, ctx.threads, |_, &seed| {
        let scenario = spec.generate(seed);
        let coverage = CoverageMap::build(&scenario);
        let h = Algo::OnlineHaste { colors: 4 }
            .run(&scenario, &coverage, seed)
            .unwrap_or(f64::NAN);
        let bu = Algo::OnlineBaseline(BaselineKind::GreedyUtility)
            .run(&scenario, &coverage, seed)
            .unwrap_or(f64::NAN);
        let bc = Algo::OnlineBaseline(BaselineKind::GreedyCover)
            .run(&scenario, &coverage, seed)
            .unwrap_or(f64::NAN);
        (h, bu, bc)
    });
    let mean = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
    };
    let (h, bu, bc) = (mean(&|r| r.0), mean(&|r| r.1), mean(&|r| r.2));

    FigureTable {
        id: "headline".into(),
        title: "headline claims: fraction of optimum and baseline improvements".into(),
        x_label: "metric".into(),
        x: vec![1.0, 2.0, 3.0, 4.0],
        series: vec![Series {
            name: "value".into(),
            values: vec![
                ratio_mean,
                ratio_min,
                100.0 * (h - bu) / bu, // % over GreedyUtility
                100.0 * (h - bc) / bc, // % over GreedyCover
            ],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            topologies: 2,
            threads: 2,
            base_seed: 7,
        }
    }

    /// A cut-down sweep exercising the machinery end to end.
    #[test]
    fn sweep_machinery_works() {
        let ctx = tiny_ctx();
        let t = sweep(
            &ctx,
            "t",
            "test",
            "A_s (deg)",
            &[60.0, 360.0],
            |deg| {
                let mut spec = ScenarioSpec::small_scale();
                spec.params.charging_angle = deg.to_radians();
                spec
            },
            &[
                Algo::OfflineHaste { colors: 1 },
                Algo::OfflineBaseline(BaselineKind::GreedyCover),
            ],
        );
        assert_eq!(t.x.len(), 2);
        assert_eq!(t.series.len(), 2);
        // Wider charging angle cannot hurt HASTE on average.
        let narrow = t.value("HASTE(C=1)", 0).unwrap();
        let wide = t.value("HASTE(C=1)", 1).unwrap();
        assert!(wide >= narrow - 1e-9, "wide {wide} < narrow {narrow}");
    }

    #[test]
    fn small_scale_exact_vs_online_ratio_supports_theorem() {
        // The empirical heart of Figs. 8-9: HASTE achieves far more than
        // its worst-case bound of the optimum on small instances.
        let ctx = ExperimentCtx {
            topologies: 3,
            threads: 3,
            base_seed: 11,
        };
        let spec = ScenarioSpec::small_scale();
        for t in 0..ctx.topologies as u64 {
            let s = spec.generate(ctx.base_seed + t);
            let cov = CoverageMap::build(&s);
            let Some(opt) = (Algo::Exact { budget: 1 << 24 }).run(&s, &cov, 0) else {
                continue;
            };
            if opt < 1e-9 {
                continue;
            }
            let v = Algo::OfflineHaste { colors: 4 }.run(&s, &cov, t).unwrap();
            let bound = (1.0 - s.rho) * 0.5; // C finite → ½(1−ρ) floor
            assert!(
                v >= bound * opt - 1e-9,
                "seed {t}: {v} below bound {} of optimum {opt}",
                bound * opt
            );
        }
    }

    #[test]
    fn fig08_smoke_runs_and_orders_series() {
        let ctx = ExperimentCtx {
            topologies: 2,
            threads: 1,
            base_seed: 5,
        };
        let t = fig08(&ctx);
        assert_eq!(t.id, "fig08");
        assert_eq!(t.series.len(), 3);
        // Optimal dominates both HASTE variants at every tick where it ran.
        for i in 0..t.x.len() {
            let opt = t.value("Optimal", i).unwrap();
            if opt.is_nan() {
                continue;
            }
            for name in ["HASTE(C=1)", "HASTE(C=4)"] {
                let v = t.value(name, i).unwrap();
                assert!(
                    v <= opt + 1e-9,
                    "{name} {v} above optimal {opt} at tick {i}"
                );
            }
        }
    }

    #[test]
    fn box_stats_table_shape() {
        // Exercise color_box on minuscule settings by calling through a
        // shrunken clone of fig07's internals (2 colors only would need a
        // private hook; instead run the public fn with a tiny context but
        // patched spec is not available — so just check fig07 runs on the
        // small spec via monkey config).
        let ctx = ExperimentCtx {
            topologies: 2,
            threads: 2,
            base_seed: 3,
        };
        // Run a reduced version manually.
        let seeds = [3u64, 4];
        let spec = ScenarioSpec::small_scale();
        let vals: Vec<f64> = seeds
            .iter()
            .map(|&seed| {
                let s = spec.generate(seed);
                let cov = CoverageMap::build(&s);
                Algo::OfflineHaste { colors: 2 }
                    .run(&s, &cov, seed)
                    .unwrap()
            })
            .collect();
        let b = BoxStats::of(&vals);
        assert!(b.min <= b.median && b.median <= b.max);
        let _ = ctx;
    }
}
