//! The algorithm roster experiments choose from.

use haste_core::{solve_baseline, solve_exact, solve_offline, BaselineKind, OfflineConfig};
use haste_distributed::{
    replay_trace, solve_baseline_online, NegotiationConfig, OnlineConfig, OnlineResult,
};
use haste_model::{CoverageMap, Scenario};

/// One algorithm entry in a figure's legend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// Centralized offline HASTE (Algorithm 2) with `C` colors.
    OfflineHaste {
        /// TabularGreedy color count.
        colors: usize,
    },
    /// Distributed online HASTE (Algorithm 3) with `C` colors.
    OnlineHaste {
        /// TabularGreedy color count.
        colors: usize,
    },
    /// A comparison baseline in the offline setting.
    OfflineBaseline(BaselineKind),
    /// A comparison baseline in the online setting (visibility delay `τ`).
    OnlineBaseline(BaselineKind),
    /// Brute-force HASTE-R optimum (upper bound on the HASTE optimum).
    Exact {
        /// Enumeration budget; instances above it return `None`.
        budget: u128,
    },
}

impl Algo {
    /// Legend label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Algo::OfflineHaste { colors } | Algo::OnlineHaste { colors } => {
                format!("HASTE(C={colors})")
            }
            Algo::OfflineBaseline(kind) | Algo::OnlineBaseline(kind) => kind.name().to_string(),
            Algo::Exact { .. } => "Optimal".to_string(),
        }
    }

    /// Runs the algorithm on a prepared scenario and returns the overall
    /// charging utility under full P1 semantics (for `Exact`, the HASTE-R
    /// optimum, an upper bound; `None` when enumeration exceeds its
    /// budget).
    ///
    /// `seed` feeds the randomized parts (TabularGreedy sampling, shared
    /// negotiation colors) so repetitions stay independent.
    pub fn run(&self, scenario: &Scenario, coverage: &CoverageMap, seed: u64) -> Option<f64> {
        match *self {
            Algo::OfflineHaste { colors } => {
                let result = solve_offline(
                    scenario,
                    coverage,
                    &OfflineConfig {
                        colors,
                        samples: samples_for(colors),
                        seed,
                        ..OfflineConfig::default()
                    },
                );
                Some(result.report.total_utility)
            }
            Algo::OnlineHaste { .. } => Some(self.run_online(scenario, seed).report.total_utility),
            Algo::OfflineBaseline(kind) => Some(
                solve_baseline(scenario, coverage, kind)
                    .report
                    .total_utility,
            ),
            Algo::OnlineBaseline(kind) => Some(
                solve_baseline_online(scenario, coverage, kind)
                    .report
                    .total_utility,
            ),
            Algo::Exact { budget } => solve_exact(scenario, coverage, budget)
                .ok()
                .map(|r| r.relaxed_value),
        }
    }

    /// Runs the online variant returning the full result (used by the
    /// communication-cost experiment, Fig. 16).
    pub fn run_online(&self, scenario: &Scenario, seed: u64) -> OnlineResult {
        let colors = match *self {
            Algo::OnlineHaste { colors } => colors,
            _ => 1,
        };
        replay_trace(
            scenario.clone(),
            OnlineConfig {
                negotiation: NegotiationConfig {
                    colors,
                    samples: samples_for(colors),
                    seed,
                },
                ..OnlineConfig::default()
            },
        )
    }
}

/// Monte-Carlo sample count per color count: enough for a stable argmax
/// without blowing up the online sweeps (figure points are additionally
/// averaged over many topologies, which suppresses estimator noise).
fn samples_for(colors: usize) -> usize {
    if colors <= 1 {
        1
    } else {
        2 * colors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ScenarioSpec;

    #[test]
    fn labels() {
        assert_eq!(Algo::OfflineHaste { colors: 4 }.label(), "HASTE(C=4)");
        assert_eq!(
            Algo::OfflineBaseline(BaselineKind::GreedyCover).label(),
            "GreedyCover"
        );
        assert_eq!(Algo::Exact { budget: 10 }.label(), "Optimal");
    }

    #[test]
    fn all_algorithms_run_on_a_small_instance() {
        let spec = ScenarioSpec::small_scale();
        let s = spec.generate(42);
        let cov = CoverageMap::build(&s);
        let algos = [
            Algo::OfflineHaste { colors: 1 },
            Algo::OfflineHaste { colors: 4 },
            Algo::OnlineHaste { colors: 1 },
            Algo::OfflineBaseline(BaselineKind::GreedyUtility),
            Algo::OfflineBaseline(BaselineKind::GreedyCover),
            Algo::OnlineBaseline(BaselineKind::GreedyUtility),
        ];
        for algo in algos {
            let v = algo.run(&s, &cov, 1).expect("runs");
            assert!((0.0..=1.0 + 1e-9).contains(&v), "{}: {v}", algo.label());
        }
    }

    #[test]
    fn exact_budget_exhaustion_returns_none() {
        let spec = ScenarioSpec::small_scale();
        let s = spec.generate(42);
        let cov = CoverageMap::build(&s);
        assert_eq!(Algo::Exact { budget: 0 }.run(&s, &cov, 0), None);
    }

    #[test]
    fn exact_upper_bounds_heuristics_on_small_instance() {
        let spec = ScenarioSpec::small_scale();
        for seed in [3u64, 11] {
            let s = spec.generate(seed);
            let cov = CoverageMap::build(&s);
            let Some(opt) = (Algo::Exact { budget: 1 << 26 }).run(&s, &cov, 0) else {
                continue;
            };
            for algo in [
                Algo::OfflineHaste { colors: 1 },
                Algo::OnlineHaste { colors: 1 },
            ] {
                let v = algo.run(&s, &cov, seed).unwrap();
                assert!(
                    v <= opt + 1e-9,
                    "{} {v} exceeds optimum {opt}",
                    algo.label()
                );
            }
        }
    }
}
