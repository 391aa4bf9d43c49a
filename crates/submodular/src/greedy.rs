//! Greedy maximization: locally greedy (block-by-block) and lazy greedy
//! (global, with stale-marginal re-evaluation).
//!
//! Both optimizers can fan their per-candidate marginal scans out across
//! threads (`GreedyOptions::threads`). The parallel path is bit-identical to
//! the sequential one for any thread count: candidate gains are computed
//! independently (one oracle call each, no accumulation order to vary) and
//! the winner is then picked by a sequential scan over the gains in index
//! order, so epsilon tie-breaking behaves exactly as before.

use crate::{OptimizerStats, PartitionedObjective, Selection, PAR_ARGMAX_MIN_WORK};

/// Options shared by the greedy optimizers.
pub struct GreedyOptions<'a> {
    /// Tie-break hook: given the choices committed so far and the partition
    /// being filled, may return a preferred choice index that wins exact
    /// ties (used by HASTE to avoid needless orientation switches).
    #[allow(clippy::type_complexity)]
    pub tie_break: Option<&'a dyn Fn(&[Option<usize>], usize) -> Option<usize>>,
    /// Skip elements whose marginal gain is ≤ this threshold (default 0:
    /// zero-gain blocks stay unassigned so schedules stay parsimonious;
    /// the guarantee is unaffected because skipped gains are zero).
    pub min_gain: f64,
    /// Worker threads for the per-candidate marginal scans (1 = sequential,
    /// 0 = auto-detect via [`haste_parallel::default_threads`]). Results are
    /// bit-identical for every value.
    pub threads: usize,
}

impl Default for GreedyOptions<'_> {
    fn default() -> Self {
        GreedyOptions {
            tie_break: None,
            min_gain: 0.0,
            threads: 1,
        }
    }
}

/// Threads to actually use for a scan of `work` oracle calls: `0` first
/// resolves to the machine's parallelism, then stays sequential below
/// [`PAR_ARGMAX_MIN_WORK`] so thread setup cannot dominate tiny scans.
/// Purely a performance gate — both paths agree bitwise.
pub(crate) fn effective_threads(threads: usize, work: usize) -> usize {
    let threads = haste_parallel::resolve_threads(threads);
    if threads > 1 && work >= PAR_ARGMAX_MIN_WORK {
        threads
    } else {
        1
    }
}

/// The locally greedy algorithm: fills each partition in turn with the
/// element of maximum marginal gain given everything chosen so far.
///
/// For a normalized monotone submodular `f` under a partition matroid this
/// achieves at least `1/2` of the optimum (Nemhauser–Wolsey–Fisher, 1978) —
/// and equals TabularGreedy with `C = 1`.
///
/// Complexity: one `marginal` call per (partition, choice) pair plus one
/// `commit` per partition.
pub fn locally_greedy<O: PartitionedObjective>(obj: &O, options: &GreedyOptions) -> Selection {
    locally_greedy_with_stats(obj, options).0
}

/// [`locally_greedy`] that also reports oracle-call counts.
pub fn locally_greedy_with_stats<O: PartitionedObjective>(
    obj: &O,
    options: &GreedyOptions,
) -> (Selection, OptimizerStats) {
    let p_total = obj.num_partitions();
    let mut stats = OptimizerStats::default();
    let mut state = obj.new_state();
    let mut choices = vec![None; p_total];
    for p in 0..p_total {
        let preferred = options.tie_break.and_then(|f| f(&choices, p));
        let n_choices = obj.num_choices(p);
        stats.marginal_calls += n_choices as u64;
        // Candidate gains are independent one-call evaluations, so the scan
        // parallelizes without changing a single bit; the epsilon/tie-break
        // selection below stays sequential in index order.
        let state_ref = &state;
        let gains = haste_parallel::par_map_range(
            n_choices,
            effective_threads(options.threads, n_choices),
            |x| obj.marginal(state_ref, p, x),
        );
        let mut best: Option<(usize, f64)> = None;
        for (x, &gain) in gains.iter().enumerate() {
            let better = match best {
                None => true,
                Some((bx, bg)) => {
                    gain > bg + 1e-15
                        || ((gain - bg).abs() <= 1e-15
                            && preferred == Some(x)
                            && preferred != Some(bx))
                }
            };
            if better {
                best = Some((x, gain));
            }
        }
        if let Some((x, gain)) = best {
            if gain > options.min_gain {
                obj.commit(&mut state, p, x);
                choices[p] = Some(x);
                stats.commit_calls += 1;
            }
        }
    }
    let value = obj.value(&state);
    (Selection { choices, value }, stats)
}

/// The globally greedy algorithm with lazy evaluation (Minoux's accelerated
/// greedy): repeatedly pick the element of maximum marginal gain over *all*
/// unfilled partitions, re-evaluating stale marginals only when they reach
/// the head of a max-heap. Valid because submodularity guarantees marginals
/// only shrink as the solution grows.
///
/// Same `1/2` guarantee as [`locally_greedy`] for partition matroids; usually
/// far fewer oracle calls on instances with many low-value elements.
pub fn lazy_greedy<O: PartitionedObjective>(obj: &O, min_gain: f64) -> Selection {
    lazy_greedy_with_stats(obj, min_gain, 1).0
}

/// [`lazy_greedy`] that also reports oracle-call counts and can fill the
/// initial heap in parallel over partitions (`threads`).
///
/// Only the initial marginal sweep parallelizes — the Minoux re-evaluation
/// loop is inherently sequential. Per-partition results are flattened in
/// partition order before insertion, and the heap's ordering is total
/// (gain, then ids), so the outcome is bit-identical for any thread count.
pub fn lazy_greedy_with_stats<O: PartitionedObjective>(
    obj: &O,
    min_gain: f64,
    threads: usize,
) -> (Selection, OptimizerStats) {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Heap entry ordered by cached gain (max-heap), ties by ids for
    /// determinism.
    struct Entry {
        gain: f64,
        partition: usize,
        choice: usize,
        /// Solution size when `gain` was computed.
        epoch: usize,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.gain
                .partial_cmp(&other.gain)
                .expect("gains are finite")
                // Deterministic tie-break: lower (partition, choice) first.
                .then_with(|| other.partition.cmp(&self.partition))
                .then_with(|| other.choice.cmp(&self.choice))
        }
    }

    let p_total = obj.num_partitions();
    let mut stats = OptimizerStats::default();
    let mut state = obj.new_state();
    let mut choices: Vec<Option<usize>> = vec![None; p_total];
    let total_candidates: usize = (0..p_total).map(|p| obj.num_choices(p)).sum();
    stats.marginal_calls += total_candidates as u64;
    let state_ref = &state;
    let per_partition =
        haste_parallel::par_map_range(p_total, effective_threads(threads, total_candidates), |p| {
            (0..obj.num_choices(p))
                .map(|x| (obj.marginal(state_ref, p, x), x))
                .collect::<Vec<_>>()
        });
    let mut heap = BinaryHeap::new();
    for (p, candidates) in per_partition.into_iter().enumerate() {
        for (gain, x) in candidates {
            if gain > min_gain {
                heap.push(Entry {
                    gain,
                    partition: p,
                    choice: x,
                    epoch: 0,
                });
            }
        }
    }
    let mut epoch = 0usize;
    while let Some(top) = heap.pop() {
        if choices[top.partition].is_some() {
            continue; // partition already filled
        }
        if top.epoch == epoch {
            obj.commit(&mut state, top.partition, top.choice);
            choices[top.partition] = Some(top.choice);
            stats.commit_calls += 1;
            epoch += 1;
        } else {
            let gain = obj.marginal(&state, top.partition, top.choice);
            stats.marginal_calls += 1;
            if gain > min_gain {
                heap.push(Entry {
                    gain,
                    partition: top.partition,
                    choice: top.choice,
                    epoch,
                });
            }
        }
    }
    let value = obj.value(&state);
    (Selection { choices, value }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::ToyCoverage;
    use crate::{brute_force, evaluate_selection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn locally_greedy_on_example() {
        let toy = ToyCoverage::example();
        let sel = locally_greedy(&toy, &GreedyOptions::default());
        // Greedy: partition 0 picks {2} (4.0 > 3.0)? No: {0,1} covers 1+2=3,
        // {2} covers 4 → picks {2}. Partition 1 then picks {1} (2 > 0).
        assert_eq!(sel.choices, vec![Some(1), Some(0)]);
        assert!((sel.value - 6.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_greedy_matches_value_reporting() {
        let toy = ToyCoverage::example();
        let sel = lazy_greedy(&toy, 0.0);
        assert!((sel.value - evaluate_selection(&toy, &sel.choices)).abs() < 1e-12);
        // Global greedy picks {2} first, then {1}: same value 6.0 here.
        assert!((sel.value - 6.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_respects_half_guarantee_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let toy = ToyCoverage::random(&mut rng, 4, 3, 6, 2);
            let opt = brute_force(&toy, 1 << 16).unwrap();
            for sel in [
                locally_greedy(&toy, &GreedyOptions::default()),
                lazy_greedy(&toy, 0.0),
            ] {
                assert!(
                    sel.value >= 0.5 * opt.value - 1e-9,
                    "greedy {} < half of optimum {}",
                    sel.value,
                    opt.value
                );
            }
        }
    }

    #[test]
    fn tie_break_prefers_hinted_choice() {
        // Two identical choices; tie-break should pick the hinted one.
        let toy = ToyCoverage {
            choices: vec![vec![vec![0], vec![0]]],
            weights: vec![1.0],
            cap: 1,
        };
        let hint = |_: &[Option<usize>], _p: usize| Some(1usize);
        let sel = locally_greedy(
            &toy,
            &GreedyOptions {
                tie_break: Some(&hint),
                ..GreedyOptions::default()
            },
        );
        assert_eq!(sel.choices, vec![Some(1)]);
    }

    #[test]
    fn zero_gain_blocks_left_unassigned() {
        let toy = ToyCoverage {
            choices: vec![vec![vec![]], vec![vec![0]]],
            weights: vec![1.0],
            cap: 1,
        };
        for sel in [
            locally_greedy(&toy, &GreedyOptions::default()),
            lazy_greedy(&toy, 0.0),
        ] {
            assert_eq!(sel.choices[0], None);
            assert_eq!(sel.choices[1], Some(0));
        }
    }

    #[test]
    fn empty_objective() {
        let toy = ToyCoverage {
            choices: vec![],
            weights: vec![],
            cap: 1,
        };
        let sel = locally_greedy(&toy, &GreedyOptions::default());
        assert_eq!(sel.value, 0.0);
        assert!(sel.choices.is_empty());
    }

    #[test]
    fn parallel_scan_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..15 {
            let toy = ToyCoverage::random(&mut rng, 8, 5, 12, 3);
            let seq = locally_greedy(&toy, &GreedyOptions::default());
            let par = locally_greedy(
                &toy,
                &GreedyOptions {
                    threads: 4,
                    ..GreedyOptions::default()
                },
            );
            assert_eq!(seq.choices, par.choices);
            assert_eq!(seq.value.to_bits(), par.value.to_bits());
            let (lseq, _) = lazy_greedy_with_stats(&toy, 0.0, 1);
            let (lpar, _) = lazy_greedy_with_stats(&toy, 0.0, 4);
            assert_eq!(lseq.choices, lpar.choices);
            assert_eq!(lseq.value.to_bits(), lpar.value.to_bits());
        }
    }

    #[test]
    fn stats_count_oracle_calls() {
        let toy = ToyCoverage::example();
        let (sel, stats) = locally_greedy_with_stats(&toy, &GreedyOptions::default());
        // One marginal per (partition, choice) pair, one commit per chosen.
        let expected: u64 = (0..toy.num_partitions())
            .map(|p| toy.num_choices(p) as u64)
            .sum();
        assert_eq!(stats.marginal_calls, expected);
        assert_eq!(stats.commit_calls, sel.num_chosen() as u64);

        let (lsel, lstats) = lazy_greedy_with_stats(&toy, 0.0, 1);
        // Lazy greedy pays at least the initial sweep and exactly one commit
        // per chosen partition; re-evaluations only add to the count.
        assert!(lstats.marginal_calls >= expected);
        assert_eq!(lstats.commit_calls, lsel.num_chosen() as u64);
    }
}
