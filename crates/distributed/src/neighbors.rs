//! The neighbor graph of a charger network.
//!
//! Two chargers are neighbors iff they can both charge at least one common
//! task (Section 6.1). The paper assumes the communication range is at least
//! twice the charging range, so neighbors can always talk directly.

use std::ops::Range;

use haste_model::{CoverageMap, TaskId};

/// Adjacency structure over chargers.
#[derive(Debug, Clone)]
pub struct NeighborGraph {
    adj: Vec<Vec<usize>>,
}

impl NeighborGraph {
    /// Builds the graph from precomputed coverage.
    pub fn build(coverage: &CoverageMap) -> Self {
        let mut graph = NeighborGraph {
            adj: vec![Vec::new(); coverage.num_chargers()],
        };
        graph.extend(coverage, 0..coverage.num_tasks());
        graph
    }

    /// Adds the edges `tasks` contribute: every pair of chargers able to
    /// charge one of them becomes neighbors. Edges are only ever added, so
    /// extending over a map's tasks chunk by chunk yields the graph
    /// [`NeighborGraph::build`] gives over the whole map.
    pub fn extend(&mut self, coverage: &CoverageMap, tasks: Range<usize>) {
        for task in tasks {
            let chargers = coverage.chargers_of(TaskId(task as u32));
            for (k, a) in chargers.iter().enumerate() {
                for b in &chargers[k + 1..] {
                    self.connect(a.index(), b.index());
                }
            }
        }
    }

    /// Adds the edge `a`–`b`, keeping both adjacency lists sorted.
    fn connect(&mut self, a: usize, b: usize) {
        for (from, to) in [(a, b), (b, a)] {
            if let Err(at) = self.adj[from].binary_search(&to) {
                self.adj[from].insert(at, to);
            }
        }
    }

    /// Number of chargers.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.adj.len()
    }

    /// Neighbor indices of charger `i`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Degree of charger `i` (`|N(s_i)|`).
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Average degree over all chargers.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        self.adj.iter().map(Vec::len).sum::<usize>() as f64 / self.adj.len() as f64
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};

    /// Three chargers in a row; middle tasks visible to adjacent pairs.
    fn scenario() -> Scenario {
        let params =
            ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::TAU);
        Scenario::new(
            params,
            TimeGrid::minutes(2),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(30.0, 0.0)),
                Charger::new(2, Vec2::new(60.0, 0.0)),
            ],
            vec![
                Task::new(0, Vec2::new(15.0, 0.0), Angle::ZERO, 0, 2, 100.0, 1.0),
                Task::new(1, Vec2::new(45.0, 0.0), Angle::ZERO, 0, 2, 100.0, 1.0),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn chain_topology() {
        let s = scenario();
        let g = NeighborGraph::build(&CoverageMap::build(&s));
        assert_eq!(g.num_chargers(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    mod extend_properties {
        use super::*;
        use haste_model::ChargerId;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A graph extended over a random chunking of a map's tasks is
            /// the pairwise `are_neighbors` relation, each list ascending.
            #[test]
            fn chunked_extend_equals_pairwise_relation(
                chargers in collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..8),
                tasks in collection::vec((0.0f64..60.0, 0.0f64..60.0, 0.0f64..std::f64::consts::TAU), 0..40),
                cuts in collection::vec(0usize..40, 0..6),
            ) {
                let s = Scenario::new(
                    ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::PI),
                    TimeGrid::minutes(4),
                    chargers
                        .iter()
                        .enumerate()
                        .map(|(i, &(x, y))| Charger::new(i as u32, Vec2::new(x, y)))
                        .collect(),
                    tasks
                        .iter()
                        .enumerate()
                        .map(|(j, &(x, y, facing))| {
                            Task::new(j as u32, Vec2::new(x, y), Angle::from_radians(facing), 0, 4, 1000.0, 1.0)
                        })
                        .collect(),
                    0.0,
                    0,
                )
                .unwrap();
                let coverage = CoverageMap::build(&s);
                let m = coverage.num_tasks();
                let mut cuts: Vec<usize> = cuts.iter().map(|&cut| cut.min(m)).collect();
                cuts.push(m);
                cuts.sort_unstable();
                let mut graph = NeighborGraph::build(&CoverageMap::build(&Scenario {
                    tasks: Vec::new(),
                    ..s.clone()
                }));
                let mut from = 0;
                for cut in cuts {
                    graph.extend(&coverage, from..cut);
                    from = cut;
                }
                let n = s.num_chargers();
                for a in 0..n {
                    let pairwise: Vec<usize> = (0..n)
                        .filter(|&b| coverage.are_neighbors(ChargerId(a as u32), ChargerId(b as u32)))
                        .collect();
                    prop_assert_eq!(graph.neighbors(a), pairwise.as_slice());
                }
            }
        }
    }

    #[test]
    fn no_common_tasks_no_edges() {
        let mut s = scenario();
        s.tasks.clear();
        let g = NeighborGraph::build(&CoverageMap::build(&s));
        assert_eq!(g.average_degree(), 0.0);
        for i in 0..3 {
            assert!(g.neighbors(i).is_empty());
        }
    }
}
