//! `offline-paper`: Algorithm 2 (`solve_offline`, TabularGreedy C=4 with
//! 16 samples) back to back on seeded `ScenarioSpec::paper_default()`
//! topologies. `model`, `core` and `submodular` do all the work and the
//! service none, so this workload is the no-change control for service
//! changes.
//!
//! Every episode solves the same topologies, so each topology is timed
//! once per episode. The times are read as each topology's fastest solve
//! of the run: on a shared host a solve runs at one of two speeds for a
//! second or so at a time, about 1.4× apart, and the share of slow time
//! changes from run to run. A median over all solves reads whichever speed
//! held for most of the run; the fastest of some twenty solves of one
//! topology reads the program.

use std::time::{Duration, Instant};

use haste_core::{solve_offline, OfflineConfig, SolveResult, SolverMetrics};
use haste_model::{evaluate, CoverageMap, EvalOptions, Scenario};
use haste_sim::ScenarioSpec;

use crate::report::{fastest, median, minimum, peak_rss_mb, percentile, Report};
use crate::trace::Tracer;
use crate::Args;

/// Topologies per episode. Seed `s` uses topology seeds `64·s … 64·s+63`,
/// so different seeds never share a topology. Solve times differ from
/// topology to topology, and the median of 64 of them moves less from
/// seed to seed than the median of a handful would.
const TOPOLOGIES: u64 = 64;
/// Solver threads, fixed so that the host's CPU count does not change
/// what is measured.
const THREADS: usize = 1;
/// Episodes run even when `--seconds` is already spent.
const MIN_EPISODES: usize = 3;
/// Extra set-ups before the timed episodes, so that `setup_s` is the
/// fastest of many identical set-ups (one more comes with each episode).
const SETUP_REPEATS: usize = 16;
/// Topology seed of the warm-up solve. It is the same for every `--seed`,
/// so that the set-up time follows the program and the host, not how hard
/// the seed's first topology happens to be.
const WARMUP_SEED: u64 = u64::MAX;

/// What every episode must reproduce exactly, per topology.
#[derive(PartialEq)]
struct Exact {
    utility_bits: u64,
    oracle_marginals: u64,
    oracle_commits: u64,
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    let spec = ScenarioSpec::paper_default();
    let config = OfflineConfig {
        threads: THREADS,
        ..OfflineConfig::default()
    };
    let seeds: Vec<u64> = (0..TOPOLOGIES)
        .map(|k| args.seed.wrapping_mul(TOPOLOGIES).wrapping_add(k))
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let setup_start = Instant::now();
        setup(&spec, &seeds, &config, tracer);
        setup_s.push(setup_start.elapsed().as_secs_f64());
    }
    let mut peak_rss = f64::NAN;
    // Per episode: each topology's solve time in ms, and whether the
    // episode was traced.
    let mut solves: Vec<(Vec<f64>, bool)> = Vec::new();
    // Tasks in one episode's topologies.
    let mut tasks = 0u64;
    let mut phases = SolverMetrics::default();
    let mut first: Option<Vec<Exact>> = None;
    let mut utility = 0.0;
    let mut episode = 0usize;
    while episode < MIN_EPISODES || started.elapsed() < budget {
        // A traced run alternates traced and untraced episodes; the
        // difference between the two is the tracing overhead.
        let traced = args.trace && episode.is_multiple_of(2);
        tracer.set_enabled(traced);
        let setup_start = Instant::now();
        let scenarios = setup(&spec, &seeds, &config, tracer);
        setup_s.push(setup_start.elapsed().as_secs_f64());

        let mut exact = Vec::with_capacity(scenarios.len());
        let mut solve_ms = Vec::with_capacity(scenarios.len());
        let mut utility_sum = 0.0;
        tasks = scenarios.iter().map(|s| s.num_tasks() as u64).sum();
        for scenario in &scenarios {
            let solve_start = Instant::now();
            let (coverage, result) = tracer.request("offline.solve", || {
                let coverage = tracer.span("model.coverage.build", || CoverageMap::build(scenario));
                let result = tracer.span("core.solve_offline", || {
                    solve_offline(scenario, &coverage, &config)
                });
                (coverage, result)
            });
            solve_ms.push(solve_start.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
            let verdict = tracer.span("offline.verify", || verify(scenario, &coverage, &result));
            if let Err(message) = verdict {
                report.failed += 1;
                report.error(format!("episode {episode}: {message}"));
            }
            phases.merge(&result.metrics);
            utility_sum += result.report.total_utility;
            exact.push(Exact {
                utility_bits: result.report.total_utility.to_bits(),
                oracle_marginals: result.metrics.oracle_marginals,
                oracle_commits: result.metrics.oracle_commits,
            });
        }
        solves.push((solve_ms, traced));
        match &first {
            None => {
                // The memory peak of the process after one full episode.
                peak_rss = peak_rss_mb();
                utility = utility_sum / scenarios.len() as f64;
                first = Some(exact);
            }
            Some(reference) if *reference != exact => {
                report.error(format!(
                    "determinism: episode {episode} differs from episode 0 at the same seed"
                ));
            }
            Some(_) => {}
        }
        episode += 1;
        if args.peak_probe {
            break;
        }
    }
    tracer.set_enabled(false);

    // Percentiles are over the topologies, each read as its fastest solve
    // of the run (see the module comment); set-up, too, is the fastest of
    // the run's set-ups.
    let best = |traced: bool| -> Vec<f64> {
        fastest(solves.iter().filter(|s| s.1 == traced).map(|s| s.0.clone()))
    };
    let untraced = best(false);
    report.episodes(episode);
    report.samples("plan", untraced.len());
    report.samples("plan_repeats", solves.iter().filter(|s| !s.1).count());
    report.samples("setup", setup_s.len());
    report.end_to_end("setup_s", minimum(&setup_s));
    report.end_to_end("plan_p50_ms", median(&untraced));
    report.end_to_end("plan_p80_ms", percentile(&untraced, 80));
    report.end_to_end(
        "tasks_per_s",
        tasks as f64 / (untraced.iter().sum::<f64>() / 1e3),
    );
    report.end_to_end("utility", utility);
    report.end_to_end("peak_rss_mb", peak_rss);

    let reference = first.unwrap_or_default();
    let marginals: u64 = reference.iter().map(|e| e.oracle_marginals).sum();
    let commits: u64 = reference.iter().map(|e| e.oracle_commits).sum();
    report.exact("utility", format!("{:016x}", utility.to_bits()));
    report.exact("submodular.oracle_marginals", marginals.to_string());
    report.exact("submodular.oracle_commits", commits.to_string());

    if args.trace {
        let count = solves.iter().map(|s| s.0.len()).sum::<usize>();
        let per_solve = |d: Duration| d.as_secs_f64() * 1e3 / count as f64;
        report.layer("submodular.greedy_ms", per_solve(phases.greedy));
        report.layer("submodular.oracle_marginals", marginals as f64);
        report.layer("submodular.oracle_commits", commits as f64);
        report.layer("core.instance.build_ms", per_solve(phases.instance_build));
        report.layer("core.offline.rounding_ms", per_solve(phases.rounding));
        report.layer("model.eval.p1_ms", per_solve(phases.p1_eval));
        report.layer(
            "model.coverage.build_ms",
            tracer.mean_ms("model.coverage.build"),
        );
        report.layer(
            "trace.overhead_pct",
            (median(&best(true)) / median(&untraced) - 1.0) * 100.0,
        );
    }
}

/// One set-up: generates the episode's topologies and warms up with a
/// solve of the fixed warm-up topology.
fn setup(
    spec: &ScenarioSpec,
    seeds: &[u64],
    config: &OfflineConfig,
    tracer: &Tracer,
) -> Vec<Scenario> {
    tracer.span("offline.setup", || {
        let scenarios: Vec<Scenario> = tracer.span("sim.generate", || {
            seeds.iter().map(|&seed| spec.generate(seed)).collect()
        });
        tracer.span("offline.warmup", || {
            let warmup = spec.generate(WARMUP_SEED);
            solve_offline(&warmup, &CoverageMap::build(&warmup), config)
        });
        scenarios
    })
}

/// The correctness gates of one solve: an independent evaluation
/// reproduces the reported utility bit for bit, and the P1 utility keeps
/// Theorem 5.1's `(1 − ρ)` share of the relaxed value.
fn verify(scenario: &Scenario, coverage: &CoverageMap, result: &SolveResult) -> Result<(), String> {
    let replayed = evaluate(scenario, coverage, &result.schedule, EvalOptions::default());
    if replayed.total_utility.to_bits() != result.report.total_utility.to_bits() {
        return Err(format!(
            "independent evaluation gives utility {} but the solver reported {}",
            replayed.total_utility, result.report.total_utility
        ));
    }
    let floor = (1.0 - scenario.rho) * result.relaxed_value - 1e-9;
    if result.report.total_utility < floor {
        return Err(format!(
            "P1 utility {} is below (1 - rho) * relaxed = {floor}",
            result.report.total_utility
        ));
    }
    Ok(())
}
