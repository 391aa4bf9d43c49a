//! End-to-end offline solve benchmark on the paper's default setup
//! (`n = 50`, `m = 200`): wall-clock of the full pipeline at 1 thread vs.
//! `--threads T`, with the solver's phase metrics, plus a bit-identity
//! check that the parallel path returns exactly the sequential solution.

use std::time::Instant;

use haste::prelude::*;

fn main() {
    let config = haste_bench::parse_args();
    let threads = config.ctx.threads.max(1);
    let spec = ScenarioSpec::paper_default();
    let scenario = spec.generate(config.ctx.base_seed);
    println!(
        "offline solve: n={}, m={}, seed={}",
        scenario.num_chargers(),
        scenario.num_tasks(),
        config.ctx.base_seed
    );

    let mut results = Vec::new();
    for t in [1usize, threads] {
        let cov_start = Instant::now();
        let coverage = CoverageMap::build(&scenario);
        let coverage_build = cov_start.elapsed();
        let solve_start = Instant::now();
        let mut result = solve_offline(
            &scenario,
            &coverage,
            &OfflineConfig {
                threads: t,
                ..OfflineConfig::default()
            },
        );
        let wall = solve_start.elapsed();
        result.metrics.coverage_build = coverage_build;
        println!(
            "threads={t}: solve {:.1} ms, relaxed value {:.6}",
            wall.as_secs_f64() * 1e3,
            result.relaxed_value
        );
        println!("  {}", result.metrics);
        results.push((wall, result));
        if t == 1 && threads == 1 {
            break;
        }
    }

    if let [(base_wall, base), (par_wall, par)] = &results[..] {
        assert_eq!(
            base.schedule, par.schedule,
            "threads={threads} produced a different schedule"
        );
        assert_eq!(
            base.relaxed_value.to_bits(),
            par.relaxed_value.to_bits(),
            "threads={threads} produced a different value"
        );
        assert_eq!(base.metrics.oracle_marginals, par.metrics.oracle_marginals);
        println!(
            "bit-identical across thread counts; speedup {:.2}x at {threads} threads",
            base_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-12)
        );
    }
}
