//! Reproduces the paper's headline claims: the online algorithm's fraction
//! of the brute-force optimum (small-scale) and its improvement over the
//! online baselines (default setup).

use std::time::Instant;

use haste::prelude::*;

fn main() {
    let config = haste_bench::parse_args();
    let table = haste::sim::experiments::headline(&config.ctx);
    print!("{}", table.render());
    let v = &table.series[0].values;
    println!("\nonline/optimal ratio: mean {:.4}, min {:.4}", v[0], v[1]);
    println!("improvement over GreedyUtility: {:+.2}%", v[2]);
    println!("improvement over GreedyCover:   {:+.2}%", v[3]);

    // Solver cost profile of one representative offline solve on the
    // paper-default setup, so the headline run also reports where the
    // time and oracle calls go.
    let scenario = ScenarioSpec::paper_default().generate(config.ctx.base_seed);
    let cov_start = Instant::now();
    let coverage = CoverageMap::build(&scenario);
    let coverage_build = cov_start.elapsed();
    let mut result = solve_offline(
        &scenario,
        &coverage,
        &OfflineConfig {
            threads: config.ctx.threads,
            ..OfflineConfig::default()
        },
    );
    result.metrics.coverage_build = coverage_build;
    println!(
        "representative offline solve (n={}, m={}): {}",
        scenario.num_chargers(),
        scenario.num_tasks(),
        result.metrics
    );
    haste_bench::emit(&table, &config);
}
