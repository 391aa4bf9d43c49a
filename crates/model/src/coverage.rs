//! Precomputed charger ↔ task chargeability.

use haste_geometry::Angle;

use crate::{power, ChargerId, Scenario, TaskId};

/// A task chargeable by a given charger, with the quantities the schedulers
/// need precomputed: the azimuth `ψ_ij` the charger must face, and the
/// range-only power `P_r(s_i, o_j)` it would deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateTask {
    /// The task's id.
    pub task: TaskId,
    /// Azimuth of the device from the charger.
    pub azimuth: Angle,
    /// `P_r(s_i, o_j)` in watts (positive by construction).
    pub power: f64,
}

/// Per-charger candidate rows, each in task-id order: what the P1
/// evaluator and the HASTE-R instance build read. [`CoverageMap`] holds
/// every task's candidates; the online engine hands its replans rows
/// restricted to the tasks that can still gain energy.
pub trait CandidateRows: Sync {
    /// The candidates of charger `charger`, sorted by task id.
    fn tasks_of(&self, charger: ChargerId) -> &[CandidateTask];
}

impl CandidateRows for CoverageMap {
    #[inline]
    fn tasks_of(&self, charger: ChargerId) -> &[CandidateTask] {
        CoverageMap::tasks_of(self, charger)
    }
}

/// For every charger, the set of tasks it can charge (the paper's `T_i`) and
/// the reverse index (for every task, the chargers that can reach it).
///
/// Chargeability is orientation-independent (distance and receiving-sector
/// tests only), so this map is computed once per scenario and reused by
/// dominant-set extraction, the objective oracles, and the neighbor graph of
/// the distributed algorithm.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    per_charger: Vec<Vec<CandidateTask>>,
    per_task: Vec<Vec<ChargerId>>,
}

impl CoverageMap {
    /// Builds the map for a scenario. `O(n · m)` pair tests.
    pub fn build(scenario: &Scenario) -> Self {
        let mut map = CoverageMap {
            per_charger: vec![Vec::new(); scenario.num_chargers()],
            per_task: Vec::new(),
        };
        map.extend(scenario);
        map
    }

    /// Appends the candidates of tasks `self.num_tasks()..scenario.num_tasks()`
    /// — `n` pair tests per new task. `scenario` must be the scenario the
    /// map was built over, grown only by appending tasks (its ids are
    /// positions). New ids exceed every id already in a row, so each row
    /// stays sorted by task id, and the charger-major loop lists each
    /// task's chargers in ascending order: the result equals
    /// [`CoverageMap::build`] over the grown scenario, bit for bit.
    pub fn extend(&mut self, scenario: &Scenario) {
        debug_assert_eq!(self.per_charger.len(), scenario.num_chargers());
        let new = &scenario.tasks[self.per_task.len()..];
        let starts: Vec<usize> = self.per_charger.iter().map(Vec::len).collect();
        for (charger, row) in scenario.chargers.iter().zip(&mut self.per_charger) {
            row.extend(
                new.iter()
                    .filter(|task| power::chargeable(&scenario.params, charger, task))
                    .map(|task| {
                        let d = charger.pos.distance(task.device_pos);
                        CandidateTask {
                            task: task.id,
                            azimuth: power::azimuth_to(charger, task),
                            power: power::range_power(&scenario.params, d)
                                * power::receiver_gain_factor(&scenario.params, charger, task),
                        }
                    }),
            );
        }
        // Reverse index of the new candidates, charger by charger.
        self.per_task.resize_with(scenario.num_tasks(), Vec::new);
        let rows = scenario.chargers.iter().zip(&self.per_charger).zip(starts);
        for ((charger, row), from) in rows {
            for cand in &row[from..] {
                self.per_task[cand.task.index()].push(charger.id);
            }
        }
    }

    /// Tasks chargeable by charger `i` (the paper's `T_i`).
    #[inline]
    pub fn tasks_of(&self, charger: ChargerId) -> &[CandidateTask] {
        &self.per_charger[charger.index()]
    }

    /// Chargers able to charge task `j`.
    #[inline]
    pub fn chargers_of(&self, task: TaskId) -> &[ChargerId] {
        &self.per_task[task.index()]
    }

    /// Number of chargers in the map.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.per_charger.len()
    }

    /// Number of tasks in the map.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Whether two chargers are neighbors in the paper's sense: they can
    /// both charge at least one common task.
    pub fn are_neighbors(&self, a: ChargerId, b: ChargerId) -> bool {
        if a == b {
            return false;
        }
        let (ta, tb) = (&self.per_charger[a.index()], &self.per_charger[b.index()]);
        // Candidate lists are sorted by task id by construction.
        let (mut ia, mut ib) = (0, 0);
        while ia < ta.len() && ib < tb.len() {
            match ta[ia].task.cmp(&tb[ib].task) {
                std::cmp::Ordering::Less => ia += 1,
                std::cmp::Ordering::Greater => ib += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Charger, ChargingParams, Task, TimeGrid};
    use haste_geometry::Vec2;

    fn scenario() -> Scenario {
        // Two chargers west and east of two devices; devices face west, so
        // only the west charger can charge them. A third far-away charger
        // reaches nothing.
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(10),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(20.0, 0.0)),
                Charger::new(2, Vec2::new(500.0, 500.0)),
            ],
            vec![
                Task::new(
                    0,
                    Vec2::new(10.0, 0.0),
                    Angle::from_degrees(180.0),
                    0,
                    10,
                    1000.0,
                    1.0,
                ),
                Task::new(
                    1,
                    Vec2::new(10.0, 1.0),
                    Angle::from_degrees(180.0),
                    0,
                    10,
                    1000.0,
                    1.0,
                ),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn coverage_respects_receiving_sector() {
        let s = scenario();
        let map = CoverageMap::build(&s);
        assert_eq!(map.tasks_of(ChargerId(0)).len(), 2);
        assert_eq!(map.tasks_of(ChargerId(1)).len(), 0);
        assert_eq!(map.tasks_of(ChargerId(2)).len(), 0);
        assert_eq!(map.chargers_of(TaskId(0)), &[ChargerId(0)]);
    }

    #[test]
    fn candidate_fields_are_consistent() {
        let s = scenario();
        let map = CoverageMap::build(&s);
        let c = &map.tasks_of(ChargerId(0))[0];
        assert_eq!(c.task, TaskId(0));
        assert!((c.azimuth.degrees() - 0.0).abs() < 1e-9);
        assert!((c.power - 10_000.0 / 2500.0).abs() < 1e-9);
    }

    #[test]
    fn neighbor_relation() {
        // Put both chargers where they can reach task 0.
        let mut s = scenario();
        s.tasks[0].device_facing = Angle::from_degrees(0.0); // faces east charger
        let map = CoverageMap::build(&s);
        // Task 0 now reachable only from charger 1; task 1 still only from 0.
        assert!(!map.are_neighbors(ChargerId(0), ChargerId(1)));
        assert!(!map.are_neighbors(ChargerId(0), ChargerId(0)));

        // Device between the two and 120° receiving angle facing north-ish
        // wouldn't cover both; instead make it face halfway using a full
        // receiving circle.
        let mut s2 = scenario();
        s2.params.receiving_angle = std::f64::consts::TAU;
        let map2 = CoverageMap::build(&s2);
        assert!(map2.are_neighbors(ChargerId(0), ChargerId(1)));
        assert!(map2.are_neighbors(ChargerId(1), ChargerId(0)));
    }

    mod extend_properties {
        use super::*;
        use proptest::prelude::*;

        /// Every row and the reverse index, floats as their bits.
        type Bits = (Vec<Vec<(TaskId, u64, u64)>>, Vec<Vec<ChargerId>>);

        fn bits(map: &CoverageMap) -> Bits {
            let rows = map
                .per_charger
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|c| (c.task, c.azimuth.radians().to_bits(), c.power.to_bits()))
                        .collect()
                })
                .collect();
            (rows, map.per_task.clone())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Extending a map over a random chunking of a random
            /// scenario's tasks equals building it at once, bit for bit.
            #[test]
            fn chunked_extend_equals_build(
                chargers in collection::vec((0.0f64..40.0, 0.0f64..40.0), 1..7),
                tasks in collection::vec((0.0f64..40.0, 0.0f64..40.0, 0.0f64..std::f64::consts::TAU), 0..40),
                cuts in collection::vec(0usize..40, 0..6),
                receiving_angle in 0.5f64..std::f64::consts::TAU,
            ) {
                let mut s = Scenario::new(
                    ChargingParams::simulation_default().with_receiving_angle(receiving_angle),
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
                let full = CoverageMap::build(&s);
                let all = std::mem::take(&mut s.tasks);
                let mut cuts: Vec<usize> = cuts.iter().map(|&cut| cut.min(all.len())).collect();
                cuts.push(all.len());
                cuts.sort_unstable();
                let mut map = CoverageMap::build(&s);
                for cut in cuts {
                    s.tasks.extend_from_slice(&all[s.tasks.len()..cut]);
                    map.extend(&s);
                }
                prop_assert_eq!(bits(&map), bits(&full));
            }
        }
    }

    use haste_geometry::Angle;
}
