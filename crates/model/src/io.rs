//! Plain-text scenario serialization.
//!
//! All model types derive `serde`, but this workspace deliberately ships no
//! serde *format* crate; for interoperability (hand-written instances,
//! diffable fixtures, piping between tools) scenarios also round-trip
//! through a simple line-oriented text format:
//!
//! ```text
//! # haste scenario v1
//! params <alpha> <beta> <radius> <A_s> <A_o>
//! grid <slot_seconds> <num_slots>
//! delays <rho> <tau>
//! utility linear | concave <exponent>
//! charger <id> <x> <y>
//! task <id> <x> <y> <facing_rad> <release_slot> <end_slot> <energy> <weight>
//! ```
//!
//! Lines starting with `#` and blank lines are ignored. Fields are
//! whitespace-separated. The parser validates the result via
//! [`Scenario::validate`].

use std::fmt::Write as _;

use haste_geometry::{Angle, Vec2};

use crate::{
    Charger, ChargerId, ChargingParams, ModelError, Scenario, Schedule, Task, TimeGrid,
    UtilityModel,
};

/// Errors raised while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line had an unknown directive or bad field count/values.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A mandatory section (`params`, `grid`, `delays`) was missing.
    MissingSection(&'static str),
    /// The assembled scenario failed validation.
    Invalid(ModelError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::MissingSection(s) => write!(f, "missing `{s}` line"),
            ParseError::Invalid(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Renders a scenario in the text format.
pub fn write_scenario(scenario: &Scenario) -> String {
    let mut out = String::new();
    push_scenario_head(&mut out, scenario);
    for t in &scenario.tasks {
        push_task_line(&mut out, t);
    }
    out
}

/// Appends the lines of [`write_scenario`]'s document that come before
/// its `task` lines: the magic line, `params`, `grid`, `delays`,
/// `utility`, and one `charger` line per charger.
pub fn push_scenario_head(out: &mut String, scenario: &Scenario) {
    let p = &scenario.params;
    let _ = writeln!(out, "# haste scenario v1");
    let _ = writeln!(
        out,
        "params {} {} {} {} {}",
        p.alpha, p.beta, p.radius, p.charging_angle, p.receiving_angle
    );
    let _ = writeln!(
        out,
        "grid {} {}",
        scenario.grid.slot_seconds, scenario.grid.num_slots
    );
    let _ = writeln!(out, "delays {} {}", scenario.rho, scenario.tau);
    match scenario.utility {
        UtilityModel::LinearBounded => {
            let _ = writeln!(out, "utility linear");
        }
        UtilityModel::ConcavePower(e) => {
            let _ = writeln!(out, "utility concave {e}");
        }
    }
    for c in &scenario.chargers {
        let _ = writeln!(out, "charger {} {} {}", c.id.0, c.pos.x, c.pos.y);
    }
}

/// The number of lines [`write_scenario`] renders: the five fixed lines
/// of [`push_scenario_head`], one per charger and one per task.
pub fn scenario_lines(scenario: &Scenario) -> usize {
    5 + scenario.num_chargers() + scenario.num_tasks()
}

/// Appends one task as a newline-terminated `task ...` directive line,
/// the exact syntax [`read_scenario`] accepts. The one task writer:
/// [`write_scenario`], [`task_line`] and other text formats that embed
/// tasks (daemon snapshots) all format through it.
pub fn push_task_line(out: &mut String, t: &Task) {
    let _ = writeln!(
        out,
        "task {} {} {} {} {} {} {} {}",
        t.id.0,
        t.device_pos.x,
        t.device_pos.y,
        t.device_facing.radians(),
        t.release_slot,
        t.end_slot,
        t.required_energy,
        t.weight
    );
}

/// Renders one task as a `task ...` directive line (no trailing newline);
/// see [`push_task_line`].
pub fn task_line(t: &Task) -> String {
    let mut line = String::new();
    push_task_line(&mut line, t);
    line.pop();
    line
}

/// Parses the fields of a `task` directive (everything after the `task`
/// keyword). The inverse of [`task_line`]; does not validate the task
/// against any grid.
pub fn parse_task_fields(fields: &[&str]) -> Result<Task, String> {
    let v = parse_f64s(fields, 8)?;
    Ok(Task::new(
        v[0] as u32,
        Vec2::new(v[1], v[2]),
        Angle::from_radians(v[3]),
        v[4] as usize,
        v[5] as usize,
        v[6],
        v[7],
    ))
}

/// Parses a scenario from the text format.
pub fn read_scenario(text: &str) -> Result<Scenario, ParseError> {
    let mut params: Option<ChargingParams> = None;
    let mut grid: Option<TimeGrid> = None;
    let mut delays: Option<(f64, usize)> = None;
    let mut utility = UtilityModel::LinearBounded;
    let mut chargers: Vec<Charger> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |reason: &str| ParseError::BadLine {
            line: line_no,
            reason: reason.to_string(),
        };
        let mut fields = line.split_whitespace();
        let directive = fields.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = fields.collect();
        match directive {
            "params" => {
                let v = parse_f64s(&rest, 5).map_err(|e| bad(&e))?;
                params = Some(ChargingParams {
                    alpha: v[0],
                    beta: v[1],
                    radius: v[2],
                    charging_angle: v[3],
                    receiving_angle: v[4],
                    ..ChargingParams::simulation_default()
                });
            }
            "grid" => {
                let v = parse_f64s(&rest, 2).map_err(|e| bad(&e))?;
                if v[1] < 1.0 || v[1].fract() != 0.0 {
                    return Err(bad("num_slots must be a positive integer"));
                }
                grid = Some(TimeGrid::new(v[0], v[1] as usize));
            }
            "delays" => {
                let v = parse_f64s(&rest, 2).map_err(|e| bad(&e))?;
                if v[1] < 0.0 || v[1].fract() != 0.0 {
                    return Err(bad("tau must be a non-negative integer"));
                }
                delays = Some((v[0], v[1] as usize));
            }
            "utility" => match rest.as_slice() {
                ["linear"] => utility = UtilityModel::LinearBounded,
                ["concave", e] => {
                    let e: f64 = e.parse().map_err(|_| bad("bad exponent"))?;
                    utility = UtilityModel::ConcavePower(e);
                }
                _ => return Err(bad("expected `linear` or `concave <exponent>`")),
            },
            "charger" => {
                let v = parse_f64s(&rest, 3).map_err(|e| bad(&e))?;
                chargers.push(Charger::new(v[0] as u32, Vec2::new(v[1], v[2])));
            }
            "task" => {
                tasks.push(parse_task_fields(&rest).map_err(|e| bad(&e))?);
            }
            other => return Err(bad(&format!("unknown directive `{other}`"))),
        }
    }

    let params = params.ok_or(ParseError::MissingSection("params"))?;
    let grid = grid.ok_or(ParseError::MissingSection("grid"))?;
    let (rho, tau) = delays.ok_or(ParseError::MissingSection("delays"))?;
    let mut scenario =
        Scenario::new(params, grid, chargers, tasks, rho, tau).map_err(ParseError::Invalid)?;
    scenario.utility = utility;
    Ok(scenario)
}

/// Renders a schedule in the text format:
///
/// ```text
/// # haste schedule v1
/// schedule <num_chargers> <num_slots>
/// row <charger_id> <orientation_rad | -> ...
/// ```
///
/// One `row` line per charger with exactly `num_slots` entries; `-` marks
/// an unassigned slot. Orientations use shortest-roundtrip float
/// formatting, so [`read_schedule`] reconstructs the schedule bit-exactly.
pub fn write_schedule(schedule: &Schedule) -> String {
    let mut out = String::new();
    push_schedule(&mut out, schedule);
    out
}

/// Appends [`write_schedule`]'s document to `out`.
pub fn push_schedule(out: &mut String, schedule: &Schedule) {
    let _ = writeln!(out, "# haste schedule v1");
    let _ = writeln!(
        out,
        "schedule {} {}",
        schedule.num_chargers(),
        schedule.num_slots()
    );
    for i in 0..schedule.num_chargers() {
        let _ = write!(out, "row {i}");
        for o in schedule.row(ChargerId(i as u32)) {
            match o {
                Some(theta) => {
                    let _ = write!(out, " {}", theta.radians());
                }
                None => out.push_str(" -"),
            }
        }
        out.push('\n');
    }
}

/// The number of lines [`write_schedule`] renders: two fixed lines and
/// one row per charger.
pub fn schedule_lines(schedule: &Schedule) -> usize {
    2 + schedule.num_chargers()
}

/// Parses a schedule from the text format. Every charger row must be
/// present exactly once with exactly `num_slots` entries.
pub fn read_schedule(text: &str) -> Result<Schedule, ParseError> {
    let mut dims: Option<(usize, usize)> = None;
    let mut schedule: Option<Schedule> = None;
    let mut seen: Vec<bool> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |reason: &str| ParseError::BadLine {
            line: line_no,
            reason: reason.to_string(),
        };
        let mut fields = line.split_whitespace();
        let directive = fields.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = fields.collect();
        match directive {
            "schedule" => {
                if dims.is_some() {
                    return Err(bad("duplicate `schedule` line"));
                }
                let v = parse_f64s(&rest, 2).map_err(|e| bad(&e))?;
                if v[0] < 0.0 || v[0].fract() != 0.0 || v[1] < 0.0 || v[1].fract() != 0.0 {
                    return Err(bad("dimensions must be non-negative integers"));
                }
                let (n, k) = (v[0] as usize, v[1] as usize);
                // Each charger takes a row line and each of its slots at
                // least a byte of it: the text bounds the allocation. A
                // schedule without chargers allocates nothing per slot.
                if n > text.len() || n.saturating_mul(k) > text.len() {
                    return Err(bad("dimensions exceed the document"));
                }
                dims = Some((n, k));
                schedule = Some(Schedule::empty(n, k));
                seen = vec![false; n];
            }
            "row" => {
                let (n, k) = dims.ok_or_else(|| bad("`row` before `schedule` line"))?;
                let schedule = schedule.as_mut().expect("dims implies schedule");
                if rest.len() != k.saturating_add(1) {
                    return Err(bad(&format!(
                        "expected charger id + {k} entries, got {} fields",
                        rest.len()
                    )));
                }
                let id: usize = rest[0]
                    .parse()
                    .map_err(|_| bad("bad charger id in `row`"))?;
                if id >= n {
                    return Err(bad(&format!("charger id {id} out of range (n = {n})")));
                }
                if seen[id] {
                    return Err(bad(&format!("duplicate row for charger {id}")));
                }
                seen[id] = true;
                for (slot, field) in rest[1..].iter().enumerate() {
                    if *field == "-" {
                        continue;
                    }
                    let theta: f64 = field
                        .parse()
                        .map_err(|_| bad(&format!("`{field}` is not an orientation")))?;
                    if !theta.is_finite() {
                        return Err(bad("orientation must be finite"));
                    }
                    schedule.set(ChargerId(id as u32), slot, Some(Angle::from_radians(theta)));
                }
            }
            other => return Err(bad(&format!("unknown directive `{other}`"))),
        }
    }

    let (n, _) = dims.ok_or(ParseError::MissingSection("schedule"))?;
    if let Some(missing) = (0..n).find(|&i| !seen[i]) {
        return Err(ParseError::BadLine {
            line: 0,
            reason: format!("missing row for charger {missing}"),
        });
    }
    Ok(schedule.expect("dims implies schedule"))
}

fn parse_f64s(fields: &[&str], expected: usize) -> Result<Vec<f64>, String> {
    if fields.len() != expected {
        return Err(format!("expected {expected} fields, got {}", fields.len()));
    }
    fields
        .iter()
        .map(|f| {
            f.parse::<f64>()
                .map_err(|_| format!("`{f}` is not a number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(6),
            vec![
                Charger::new(0, Vec2::new(1.0, 2.0)),
                Charger::new(1, Vec2::new(3.5, 4.25)),
            ],
            vec![
                Task::new(
                    0,
                    Vec2::new(5.0, 5.0),
                    Angle::from_degrees(90.0),
                    0,
                    6,
                    1234.5,
                    0.5,
                ),
                Task::new(
                    1,
                    Vec2::new(7.0, 1.0),
                    Angle::from_degrees(200.0),
                    2,
                    5,
                    999.0,
                    0.5,
                ),
            ],
            1.0 / 12.0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample();
        let text = write_scenario(&original);
        let parsed = read_scenario(&text).unwrap();
        assert_eq!(parsed.chargers, original.chargers);
        assert_eq!(parsed.tasks, original.tasks);
        assert_eq!(parsed.grid, original.grid);
        assert_eq!(parsed.rho, original.rho);
        assert_eq!(parsed.tau, original.tau);
        assert_eq!(parsed.params.alpha, original.params.alpha);
        assert_eq!(parsed.utility, original.utility);
    }

    #[test]
    fn roundtrip_concave_utility() {
        let mut s = sample();
        s.utility = UtilityModel::ConcavePower(0.5);
        let parsed = read_scenario(&write_scenario(&s)).unwrap();
        assert_eq!(parsed.utility, UtilityModel::ConcavePower(0.5));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hi\nparams 1 0 10 1 1\n\ngrid 60 4\ndelays 0 0\n";
        let s = read_scenario(text).unwrap();
        assert_eq!(s.grid.num_slots, 4);
        assert!(s.chargers.is_empty());
    }

    #[test]
    fn a_task_with_a_non_finite_facing_is_refused() {
        for facing in ["nan", "inf", "-inf"] {
            let text = format!(
                "params 1 0 10 1 1\ngrid 60 4\ndelays 0 0\ntask 0 5 5 {facing} 0 2 100 1\n"
            );
            assert!(
                read_scenario(&text).is_err(),
                "facing {facing} must be refused"
            );
        }
    }

    #[test]
    fn missing_sections_detected() {
        assert!(matches!(
            read_scenario("grid 60 4\ndelays 0 0"),
            Err(ParseError::MissingSection("params"))
        ));
        assert!(matches!(
            read_scenario("params 1 0 10 1 1\ndelays 0 0"),
            Err(ParseError::MissingSection("grid"))
        ));
        assert!(matches!(
            read_scenario("params 1 0 10 1 1\ngrid 60 4"),
            Err(ParseError::MissingSection("delays"))
        ));
    }

    #[test]
    fn bad_lines_reported_with_position() {
        let text = "params 1 0 10 1 1\ngrid 60 4\ndelays 0 0\nbanana 1 2";
        match read_scenario(text) {
            Err(ParseError::BadLine { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("banana"));
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
        let text = "params 1 0 x 1 1\ngrid 60 4\ndelays 0 0";
        assert!(matches!(
            read_scenario(text),
            Err(ParseError::BadLine { line: 1, .. })
        ));
    }

    #[test]
    fn field_count_enforced() {
        let text = "params 1 0 10 1\ngrid 60 4\ndelays 0 0";
        assert!(matches!(
            read_scenario(text),
            Err(ParseError::BadLine { line: 1, .. })
        ));
    }

    #[test]
    fn validation_failures_propagate() {
        // Task window outside the grid.
        let text = "params 10000 40 20 1 1\ngrid 60 4\ndelays 0 0\n\
                    task 0 1 1 0 0 9 100 1";
        assert!(matches!(read_scenario(text), Err(ParseError::Invalid(_))));
    }

    mod roundtrip_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The text format round-trips arbitrary valid scenarios
            /// exactly (Rust's shortest-float formatting is lossless).
            #[test]
            fn arbitrary_scenarios_roundtrip(
                n in 1usize..4,
                m in 0usize..6,
                coords in proptest::collection::vec(-100.0f64..100.0, 20),
                energies in proptest::collection::vec(1.0f64..1e6, 6),
                rho in 0.0f64..1.0,
                tau in 0usize..4,
            ) {
                let chargers = (0..n)
                    .map(|i| Charger::new(i as u32, Vec2::new(coords[2 * i], coords[2 * i + 1])))
                    .collect();
                let tasks = (0..m)
                    .map(|j| {
                        Task::new(
                            j as u32,
                            Vec2::new(coords[8 + 2 * j], coords[9 + 2 * j]),
                            Angle::from_radians(coords[j].abs()),
                            j,
                            j + 2,
                            energies[j],
                            1.0,
                        )
                    })
                    .collect();
                let scenario = Scenario::new(
                    ChargingParams::simulation_default(),
                    TimeGrid::minutes(8),
                    chargers,
                    tasks,
                    rho,
                    tau,
                )
                .unwrap();
                let parsed = read_scenario(&write_scenario(&scenario)).unwrap();
                prop_assert_eq!(&parsed.chargers, &scenario.chargers);
                prop_assert_eq!(&parsed.tasks, &scenario.tasks);
                prop_assert_eq!(parsed.rho, scenario.rho);
                prop_assert_eq!(parsed.tau, scenario.tau);
            }
        }
    }

    #[test]
    fn schedule_roundtrip_exact() {
        let mut s = Schedule::empty(3, 5);
        s.set(ChargerId(0), 0, Some(Angle::from_degrees(12.5)));
        s.set(
            ChargerId(0),
            3,
            Some(Angle::from_radians(std::f64::consts::PI)),
        );
        s.set(ChargerId(2), 4, Some(Angle::from_radians(1e-9)));
        let parsed = read_schedule(&write_schedule(&s)).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn schedule_roundtrip_empty() {
        let s = Schedule::empty(0, 0);
        assert_eq!(read_schedule(&write_schedule(&s)).unwrap(), s);
        let s = Schedule::empty(2, 0);
        assert_eq!(read_schedule(&write_schedule(&s)).unwrap(), s);
        let s = Schedule::empty(0, 7);
        assert_eq!(read_schedule(&write_schedule(&s)).unwrap(), s);
    }

    #[test]
    fn schedule_errors_reported() {
        // Truncated: header only, rows missing.
        match read_schedule("schedule 2 3\nrow 0 - - -") {
            Err(ParseError::BadLine { reason, .. }) => {
                assert!(reason.contains("missing row for charger 1"))
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
        // Bad field count in a row.
        assert!(matches!(
            read_schedule("schedule 1 3\nrow 0 - -"),
            Err(ParseError::BadLine { line: 2, .. })
        ));
        // Out-of-range charger id.
        match read_schedule("schedule 1 1\nrow 5 -") {
            Err(ParseError::BadLine { line: 2, reason }) => {
                assert!(reason.contains("out of range"))
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
        // Row before header, duplicate rows, missing header entirely.
        assert!(matches!(
            read_schedule("row 0 -"),
            Err(ParseError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            read_schedule("schedule 1 1\nrow 0 -\nrow 0 -"),
            Err(ParseError::BadLine { line: 3, .. })
        ));
        assert!(matches!(
            read_schedule("# nothing\n"),
            Err(ParseError::MissingSection("schedule"))
        ));
        // Non-numeric orientation and non-finite orientation.
        assert!(matches!(
            read_schedule("schedule 1 1\nrow 0 north"),
            Err(ParseError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            read_schedule("schedule 1 1\nrow 0 inf"),
            Err(ParseError::BadLine { line: 2, .. })
        ));
        // Dimensions the text cannot hold are refused before allocating.
        for dims in ["100000000000 100000000000", "100000000000 0"] {
            match read_schedule(&format!("schedule {dims}\n")) {
                Err(ParseError::BadLine { line: 1, reason }) => {
                    assert!(reason.contains("exceed"), "{dims}: {reason}")
                }
                other => panic!("{dims}: expected BadLine, got {other:?}"),
            }
        }
        // Without chargers nothing is allocated per slot, so any length
        // parses; a stray row is still refused.
        let long = read_schedule("schedule 0 100000000000\n").unwrap();
        assert_eq!(
            (long.num_chargers(), long.num_slots()),
            (0, 100_000_000_000)
        );
        assert!(matches!(
            read_schedule(&format!("schedule 0 {}\nrow", usize::MAX)),
            Err(ParseError::BadLine { line: 2, .. })
        ));
    }

    #[test]
    fn scenario_truncated_task_line_rejected() {
        // Task line cut mid-way (7 of 8 fields).
        let text = "params 1 0 10 1 1\ngrid 60 4\ndelays 0 0\n\
                    task 0 1 1 0 0 3 100";
        assert!(matches!(
            read_scenario(text),
            Err(ParseError::BadLine { line: 4, .. })
        ));
    }

    #[test]
    fn scenario_out_of_range_slots_rejected() {
        // release >= end.
        let text = "params 10000 40 20 1 1\ngrid 60 4\ndelays 0 0\n\
                    task 0 1 1 0 3 3 100 1";
        assert!(matches!(read_scenario(text), Err(ParseError::Invalid(_))));
        // end past the grid.
        let text = "params 10000 40 20 1 1\ngrid 60 4\ndelays 0 0\n\
                    task 0 1 1 0 0 5 100 1";
        assert!(matches!(read_scenario(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn task_line_matches_scenario_syntax() {
        let t = Task::new(
            7,
            Vec2::new(-3.25, 8.5),
            Angle::from_degrees(123.0),
            1,
            4,
            555.5,
            2.0,
        );
        let line = task_line(&t);
        let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
        let parsed = parse_task_fields(&fields).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn line_counts_match_the_rendered_documents() {
        let mut s = sample();
        s.utility = UtilityModel::ConcavePower(0.5);
        assert_eq!(scenario_lines(&s), write_scenario(&s).lines().count());
        s.chargers.clear();
        s.tasks.clear();
        assert_eq!(scenario_lines(&s), write_scenario(&s).lines().count());
        for (n, k) in [(0, 0), (3, 5), (0, 7)] {
            let schedule = Schedule::empty(n, k);
            assert_eq!(
                schedule_lines(&schedule),
                write_schedule(&schedule).lines().count()
            );
        }
        let task = &sample().tasks[1];
        let mut appended = String::from("x\n");
        push_task_line(&mut appended, task);
        assert_eq!(appended, format!("x\n{}\n", task_line(task)));
    }

    mod schedule_roundtrip_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arbitrary schedules (random assigned/unassigned patterns,
            /// random orientations) round-trip bit-exactly through the
            /// text format.
            #[test]
            fn arbitrary_schedules_roundtrip(
                n in 1usize..5,
                k in 1usize..7,
                // Negative cells mean "unassigned" (the vendored proptest
                // stub has no Option strategy).
                cells in proptest::collection::vec(
                    -2.0f64..std::f64::consts::TAU,
                    35,
                ),
            ) {
                let mut s = Schedule::empty(n, k);
                for i in 0..n {
                    for slot in 0..k {
                        let theta = cells[i * 7 + slot];
                        if theta >= 0.0 {
                            s.set(ChargerId(i as u32), slot, Some(Angle::from_radians(theta)));
                        }
                    }
                }
                let parsed = read_schedule(&write_schedule(&s)).unwrap();
                prop_assert_eq!(parsed, s);
            }
        }
    }

    #[test]
    fn error_display() {
        let e = ParseError::BadLine {
            line: 3,
            reason: "nope".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(ParseError::MissingSection("grid")
            .to_string()
            .contains("grid"));
    }
}
