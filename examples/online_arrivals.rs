//! Online scheduling demo: charging tasks arrive stochastically; chargers
//! renegotiate their orientations on the fly (Algorithm 3), paying the
//! rescheduling delay `τ` and the switching delay `ρ`.
//!
//! ```text
//! cargo run --example online_arrivals --release
//! ```

use haste::prelude::*;

fn main() {
    let spec = ScenarioSpec {
        field: 40.0,
        num_chargers: 15,
        num_tasks: 60,
        energy_range: (3_000.0, 12_000.0),
        duration_range: (8, 40),
        release_horizon: 40,
        tau: 2,
        ..ScenarioSpec::paper_default()
    };
    let scenario = spec.generate(7);
    let coverage = CoverageMap::build(&scenario);
    let graph = NeighborGraph::build(&coverage);
    println!(
        "online scenario: {} chargers (avg degree {:.1}), {} tasks, tau = {} slots, rho = {:.3}",
        scenario.num_chargers(),
        graph.average_degree(),
        scenario.num_tasks(),
        scenario.tau,
        scenario.rho
    );

    // Distributed online HASTE with both engines; they agree exactly.
    let rounds = replay_trace(scenario.clone(), OnlineConfig::default());
    let threaded = replay_trace(
        scenario.clone(),
        OnlineConfig {
            engine: EngineKind::Threaded,
            ..OnlineConfig::default()
        },
    );
    assert_eq!(rounds.schedule, threaded.schedule);
    println!(
        "\nHASTE online (C=1): utility {:.4}, {} messages / {} rounds across {} renegotiations' slots",
        rounds.report.total_utility,
        rounds.stats.messages,
        rounds.stats.rounds,
        rounds.stats.per_slot_messages.len(),
    );
    println!(
        "  threaded engine reproduces the round engine bit-for-bit ({} messages)",
        threaded.stats.messages
    );

    // More colors buy utility at negotiation cost.
    let c4 = replay_trace(
        scenario.clone(),
        OnlineConfig {
            negotiation: NegotiationConfig {
                colors: 4,
                samples: 16,
                seed: 7,
            },
            ..OnlineConfig::default()
        },
    );
    println!(
        "HASTE online (C=4): utility {:.4}, {} messages",
        c4.report.total_utility, c4.stats.messages
    );

    // Online baselines for comparison.
    for kind in [BaselineKind::GreedyUtility, BaselineKind::GreedyCover] {
        let b = solve_baseline_online(&scenario, &coverage, kind);
        println!(
            "{:<19} utility {:.4}",
            format!("{} online:", kind.name()),
            b.report.total_utility
        );
    }

    // How much did the delays cost? Score the same schedule relaxed.
    println!(
        "\nswitching-delay cost: relaxed value {:.4} vs delivered {:.4} ({} switches)",
        rounds.relaxed_value,
        rounds.report.total_utility,
        rounds.report.total_switches()
    );
}
