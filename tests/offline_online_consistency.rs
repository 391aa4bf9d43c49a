//! Consistency between the centralized offline and distributed online
//! algorithms (the machinery behind Theorem 6.1's "same performance as
//! Algorithm 2" argument). The two negotiation engines are compared on
//! the instances a replan builds in `threaded_engine`'s tests and in
//! `tests/properties.rs`.

use haste::distributed::OnlineResult;
use haste::model::{ChargerId, TaskId};
use haste::prelude::*;

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        field: 30.0,
        num_chargers: 8,
        num_tasks: 20,
        energy_range: (1_000.0, 6_000.0),
        duration_range: (4, 12),
        release_horizon: 8,
        ..ScenarioSpec::paper_default()
    }
}

/// With every task known at t = 0 and no rescheduling delay, the online
/// algorithm is one big negotiation — a locally greedy execution of the
/// same submodular problem the offline algorithm solves. Partition orders
/// differ, so values differ slightly, but they live in the same band.
#[test]
fn single_release_no_delay_matches_offline_band() {
    for seed in 0..4u64 {
        let mut scenario = spec().generate(seed);
        for task in &mut scenario.tasks {
            let d = task.end_slot - task.release_slot;
            task.release_slot = 0;
            task.end_slot = d;
        }
        scenario.tau = 0;
        scenario.validate().unwrap();
        let coverage = CoverageMap::build(&scenario);
        let online = replay_trace(scenario.clone(), OnlineConfig::default());
        let offline = solve_offline(&scenario, &coverage, &OfflineConfig::greedy());
        let lo = 0.85 * offline.relaxed_value;
        assert!(
            online.relaxed_value >= lo - 1e-9,
            "seed {seed}: online {} far below offline {}",
            online.relaxed_value,
            offline.relaxed_value
        );
    }
}

/// Growing the rescheduling delay τ cannot help (tasks lose their first
/// τ slots of charging opportunity).
#[test]
fn larger_tau_degrades_gracefully() {
    let mut previous = f64::INFINITY;
    for tau in [0usize, 2, 4] {
        let mut total = 0.0;
        for seed in 0..4u64 {
            let mut scenario = spec().generate(70 + seed);
            scenario.tau = tau;
            total += replay_trace(scenario.clone(), OnlineConfig::default()).relaxed_value;
        }
        assert!(
            total <= previous + 0.05 * previous.min(total.max(1e-9)),
            "tau={tau}: total {total} above previous {previous}"
        );
        previous = total;
    }
}

/// Message counts grow superlinearly with charger density while rounds
/// grow roughly linearly (Fig. 16's trend).
#[test]
fn communication_scales_with_network_size() {
    let mut messages = Vec::new();
    let mut rounds = Vec::new();
    for n in [5usize, 10, 20] {
        let mut total_m = 0.0;
        let mut total_r = 0.0;
        for seed in 0..3u64 {
            let s = ScenarioSpec {
                num_chargers: n,
                ..spec()
            }
            .generate(seed);
            let r = replay_trace(s.clone(), OnlineConfig::default());
            total_m += r.stats.avg_messages_per_slot();
            total_r += r.stats.avg_rounds_per_slot();
        }
        messages.push(total_m / 3.0);
        rounds.push(total_r / 3.0);
    }
    assert!(
        messages[0] < messages[1] && messages[1] < messages[2],
        "messages not increasing: {messages:?}"
    );
    assert!(
        rounds[0] <= rounds[2] + 1e-9,
        "rounds should not shrink with density: {rounds:?}"
    );
    // Superlinear growth of messages: 4× chargers should cost well over 4×
    // messages (each round touches more neighbors).
    assert!(
        messages[2] > 2.0 * messages[0],
        "message growth too flat: {messages:?}"
    );
}

/// The online loop over one scenario, globally or with localized
/// replanning.
fn run_online(scenario: &Scenario, localized: bool) -> OnlineResult {
    let config = OnlineConfig {
        localized,
        ..OnlineConfig::default()
    };
    replay_trace(scenario.clone(), config)
}

/// What slots `..=last` of an online run show: per-slot messages and
/// rounds (zero past the recorded slots), then every charger's
/// orientations.
fn slots_up_to(r: &OnlineResult, last: usize) -> (Vec<(u64, u64)>, Vec<Option<Angle>>) {
    let count = |values: &[u64], k: usize| values.get(k).copied().unwrap_or(0);
    let counters = (0..=last)
        .map(|k| {
            (
                count(&r.stats.per_slot_messages, k),
                count(&r.stats.per_slot_rounds, k),
            )
        })
        .collect();
    let schedule = &r.schedule;
    let orientations = (0..schedule.num_chargers())
        .flat_map(|i| (0..=last).map(move |k| schedule.get(ChargerId(i as u32), k)))
        .collect();
    (counters, orientations)
}

/// Algorithm 3 is online: a replan at slot `t` knows only the tasks
/// released by `t`, and its plan takes effect at `t + τ`. So dropping
/// every task released after `t` must change neither the schedule nor the
/// negotiation counters of slots `..= t + τ`.
#[test]
fn the_online_loop_is_causal() {
    let spec = ScenarioSpec {
        num_chargers: 20,
        num_tasks: 80,
        release_horizon: 30,
        duration_range: (5, 30),
        ..ScenarioSpec::paper_default()
    };
    for seed in [1u64, 2] {
        let scenario = spec.generate(seed);
        for localized in [false, true] {
            let full = run_online(&scenario, localized);
            for t in [3usize, 10, 20] {
                let mut known = scenario.clone();
                known.tasks.retain(|task| task.release_slot <= t);
                for (j, task) in known.tasks.iter_mut().enumerate() {
                    task.id = TaskId(j as u32);
                }
                known.validate().unwrap();
                assert!(known.num_tasks() < scenario.num_tasks());
                let cut = run_online(&known, localized);
                let last = t + scenario.tau;
                assert!(
                    slots_up_to(&cut, last) == slots_up_to(&full, last),
                    "seed {seed}, localized {localized}: slots ..={last} changed \
                     when the tasks released after slot {t} were dropped"
                );
            }
        }
    }
}
