//! Ablation study over the design choices called out in DESIGN.md:
//! switch-aware tie-breaking, dominant-set scope, and the concave utility
//! extension. Prints utility / switch-count / ground-set comparisons
//! averaged over seeded topologies.

use haste::core::{solve_offline, DominantScope, HasteRInstance, OfflineConfig};
use haste::model::{CoverageMap, UtilityModel};
use haste::sim::ScenarioSpec;

fn main() {
    let config = haste_bench::parse_args();
    let ctx = &config.ctx;
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

    // 1. Switch-aware tie-breaking (C = 1 path).
    let mut on = (0.0, 0usize);
    let mut off = (0.0, 0usize);
    for &seed in &seeds {
        let s = spec.generate(seed);
        let cov = CoverageMap::build(&s);
        let aware = solve_offline(
            &s,
            &cov,
            &OfflineConfig {
                switch_aware: true,
                ..OfflineConfig::greedy()
            },
        );
        let naive = solve_offline(
            &s,
            &cov,
            &OfflineConfig {
                switch_aware: false,
                ..OfflineConfig::greedy()
            },
        );
        on.0 += aware.report.total_utility;
        on.1 += aware.report.total_switches();
        off.0 += naive.report.total_utility;
        off.1 += naive.report.total_switches();
    }
    let n = seeds.len() as f64;
    println!("# ablation 1: switch-aware tie-breaking (offline, C=1)");
    println!(
        "  aware : utility {:.4}, switches {:.1}",
        on.0 / n,
        on.1 as f64 / n
    );
    println!(
        "  naive : utility {:.4}, switches {:.1}",
        off.0 / n,
        off.1 as f64 / n
    );

    // 2. Dominant-set scope: per-slot vs the paper's global formulation.
    let mut per_slot = (0.0, 0usize, std::time::Duration::ZERO);
    let mut global = (0.0, 0usize, std::time::Duration::ZERO);
    for &seed in &seeds {
        let s = spec.generate(seed);
        let cov = CoverageMap::build(&s);
        for (scope, acc) in [
            (DominantScope::PerSlot, &mut per_slot),
            (DominantScope::Global, &mut global),
        ] {
            let t0 = std::time::Instant::now();
            let inst = HasteRInstance::build(&s, &cov, scope);
            let r = solve_offline(
                &s,
                &cov,
                &OfflineConfig {
                    scope,
                    ..OfflineConfig::greedy()
                },
            );
            acc.2 += t0.elapsed();
            acc.0 += r.report.total_utility;
            acc.1 += inst.ground_set_size();
        }
    }
    println!("\n# ablation 2: dominant-set scope (offline, C=1)");
    println!(
        "  per-slot: utility {:.4}, ground set {:.0}, {:.1?}/topology",
        per_slot.0 / n,
        per_slot.1 as f64 / n,
        per_slot.2 / seeds.len() as u32
    );
    println!(
        "  global  : utility {:.4}, ground set {:.0}, {:.1?}/topology",
        global.0 / n,
        global.1 as f64 / n,
        global.2 / seeds.len() as u32
    );

    // 3. Localized versus global online renegotiation.
    {
        use haste::distributed::{replay_trace, OnlineConfig};
        let mut g = (0.0, 0u64);
        let mut l = (0.0, 0u64);
        for &seed in &seeds {
            let s = spec.generate(seed);
            let global = replay_trace(s.clone(), OnlineConfig::default());
            let local = replay_trace(
                s,
                OnlineConfig {
                    localized: true,
                    ..OnlineConfig::default()
                },
            );
            g.0 += global.report.total_utility;
            g.1 += global.stats.messages;
            l.0 += local.report.total_utility;
            l.1 += local.stats.messages;
        }
        println!("\n# ablation 3: online renegotiation scope (C=1)");
        println!(
            "  global   : utility {:.4}, {:.0} messages",
            g.0 / n,
            g.1 as f64 / n
        );
        println!(
            "  localized: utility {:.4}, {:.0} messages",
            l.0 / n,
            l.1 as f64 / n
        );
    }

    // 4. Concave utility extension: U(x) = min((x/E)^p, 1).
    println!("\n# ablation 4: utility function shape (offline, C=4)");
    for (label, model) in [
        ("linear-bounded", UtilityModel::LinearBounded),
        ("concave p=0.7 ", UtilityModel::ConcavePower(0.7)),
        ("concave p=0.4 ", UtilityModel::ConcavePower(0.4)),
    ] {
        let mut total = 0.0;
        for &seed in &seeds {
            let mut s = spec.generate(seed);
            s.utility = model;
            let cov = CoverageMap::build(&s);
            total += solve_offline(&s, &cov, &OfflineConfig::default())
                .report
                .total_utility;
        }
        println!("  {label}: utility {:.4}", total / n);
    }
}
