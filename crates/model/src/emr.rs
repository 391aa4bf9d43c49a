//! Electromagnetic radiation (EMR) field computation.
//!
//! The paper's related-work line (the authors' *Safe Charging* / SCAPE
//! papers, refs. \[42\]–\[48\]) constrains charger scheduling so the aggregate
//! EMR intensity never exceeds a safety threshold anywhere in the field.
//! This module provides the field model those constraints need: the EMR
//! intensity at a point is proportional to the total charging power
//! impinging on it — every charger whose *charging sector* covers the point
//! contributes `α/(d+β)²`, regardless of any receiving sector (radiation
//! does not care where a sensor happens to face).
//!
//! `haste-core::solve_offline_emr` builds an EMR-constrained scheduler on
//! top of this.

use haste_geometry::Vec2;

use crate::{power, Charger, ChargingParams, Orientation, Scenario, Schedule};

/// EMR intensity at `point` given each charger's orientation in one slot
/// (`None` = off / switching = no radiation). Units follow the power model
/// (the proportionality constant γ of the physical EMR model is absorbed
/// into the caller's threshold).
pub fn intensity_at(
    params: &ChargingParams,
    chargers: &[Charger],
    orientations: &[Orientation],
    point: Vec2,
) -> f64 {
    debug_assert_eq!(chargers.len(), orientations.len());
    chargers
        .iter()
        .zip(orientations)
        .map(|(charger, &theta)| contribution(params, charger, theta, point))
        .sum()
}

/// A single charger's EMR contribution at `point`.
#[inline]
pub fn contribution(
    params: &ChargingParams,
    charger: &Charger,
    theta: Orientation,
    point: Vec2,
) -> f64 {
    let Some(theta) = theta else { return 0.0 };
    let d = charger.pos.distance(point);
    if d > params.radius + 1e-12 {
        return 0.0;
    }
    if !power::covers_direction(params, charger.pos, theta, point) {
        return 0.0;
    }
    power::range_power(params, d)
}

/// A regular grid of sample points covering the rectangle
/// `[min, max]` with spacing `resolution` (both borders included).
pub fn sample_grid(min: Vec2, max: Vec2, resolution: f64) -> Vec<Vec2> {
    assert!(resolution > 0.0, "resolution must be positive");
    let nx = ((max.x - min.x) / resolution).ceil() as usize + 1;
    let ny = ((max.y - min.y) / resolution).ceil() as usize + 1;
    let mut points = Vec::with_capacity(nx * ny);
    for ix in 0..nx {
        for iy in 0..ny {
            points.push(Vec2::new(
                (min.x + ix as f64 * resolution).min(max.x),
                (min.y + iy as f64 * resolution).min(max.y),
            ));
        }
    }
    points
}

/// The default sampling rectangle of a scenario: the bounding box of all
/// chargers and devices, padded by the charging radius.
pub fn scenario_bounds(scenario: &Scenario) -> (Vec2, Vec2) {
    let mut min = Vec2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut absorb = |p: Vec2| {
        min.x = min.x.min(p.x);
        min.y = min.y.min(p.y);
        max.x = max.x.max(p.x);
        max.y = max.y.max(p.y);
    };
    for c in &scenario.chargers {
        absorb(c.pos);
    }
    for t in &scenario.tasks {
        absorb(t.device_pos);
    }
    if !min.x.is_finite() {
        return (Vec2::ZERO, Vec2::ZERO);
    }
    let pad = scenario.params.radius;
    (
        Vec2::new(min.x - pad, min.y - pad),
        Vec2::new(max.x + pad, max.y + pad),
    )
}

/// The peak EMR intensity over all slots of a schedule and all sample
/// points. The paper's safety requirement is `peak ≤ threshold`.
pub fn peak_intensity(scenario: &Scenario, schedule: &Schedule, points: &[Vec2]) -> f64 {
    let mut peak = 0.0f64;
    let mut orientations = vec![None; scenario.num_chargers()];
    for k in 0..schedule.num_slots() {
        for (i, o) in orientations.iter_mut().enumerate() {
            *o = schedule.get(crate::ChargerId(i as u32), k);
        }
        for &p in points {
            let v = intensity_at(&scenario.params, &scenario.chargers, &orientations, p);
            peak = peak.max(v);
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Task, TimeGrid};
    use haste_geometry::Angle;

    fn params() -> ChargingParams {
        ChargingParams::simulation_default()
    }

    #[test]
    fn contributions_superpose() {
        let p = params();
        let chargers = vec![
            Charger::new(0, Vec2::new(-5.0, 0.0)),
            Charger::new(1, Vec2::new(5.0, 0.0)),
        ];
        // Both aim at the origin.
        let orientations = vec![
            Some(Angle::from_degrees(0.0)),
            Some(Angle::from_degrees(180.0)),
        ];
        let each = power::range_power(&p, 5.0);
        let total = intensity_at(&p, &chargers, &orientations, Vec2::ZERO);
        assert!((total - 2.0 * each).abs() < 1e-12);
        // One switched off halves it.
        let one = intensity_at(&p, &chargers, &[orientations[0], None], Vec2::ZERO);
        assert!((one - each).abs() < 1e-12);
    }

    #[test]
    fn sector_and_radius_limit_radiation() {
        let p = params();
        let charger = [Charger::new(0, Vec2::ZERO)];
        let aim_east = [Some(Angle::ZERO)];
        // Point behind the charger: zero.
        assert_eq!(
            intensity_at(&p, &charger, &aim_east, Vec2::new(-5.0, 0.0)),
            0.0
        );
        // Point beyond the radius: zero.
        assert_eq!(
            intensity_at(&p, &charger, &aim_east, Vec2::new(30.0, 0.0)),
            0.0
        );
        // Point in the beam: positive.
        assert!(intensity_at(&p, &charger, &aim_east, Vec2::new(5.0, 0.0)) > 0.0);
    }

    #[test]
    fn grid_covers_rectangle() {
        let pts = sample_grid(Vec2::ZERO, Vec2::new(10.0, 5.0), 2.5);
        assert_eq!(pts.len(), 5 * 3);
        assert!(pts.iter().all(|p| (0.0..=10.0).contains(&p.x)));
        assert!(pts.iter().all(|p| (0.0..=5.0).contains(&p.y)));
        assert!(pts.contains(&Vec2::new(10.0, 5.0)));
    }

    #[test]
    fn peak_intensity_of_empty_schedule_is_zero() {
        let s = Scenario::new(
            params(),
            TimeGrid::minutes(3),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![Task::new(
                0,
                Vec2::new(5.0, 0.0),
                Angle::from_degrees(180.0),
                0,
                3,
                100.0,
                1.0,
            )],
            0.0,
            0,
        )
        .unwrap();
        let (lo, hi) = scenario_bounds(&s);
        let pts = sample_grid(lo, hi, 5.0);
        let empty = Schedule::empty(1, 3);
        assert_eq!(peak_intensity(&s, &empty, &pts), 0.0);
        let mut aimed = Schedule::empty(1, 3);
        aimed.set(crate::ChargerId(0), 1, Some(Angle::ZERO));
        assert!(peak_intensity(&s, &aimed, &pts) > 0.0);
    }

    #[test]
    fn bounds_pad_by_radius() {
        let s = Scenario::new(
            params(),
            TimeGrid::minutes(1),
            vec![Charger::new(0, Vec2::new(10.0, 10.0))],
            vec![Task::new(
                0,
                Vec2::new(12.0, 10.0),
                Angle::from_degrees(180.0),
                0,
                1,
                100.0,
                1.0,
            )],
            0.0,
            0,
        )
        .unwrap();
        let (lo, hi) = scenario_bounds(&s);
        assert!((lo.x - (10.0 - 20.0)).abs() < 1e-12);
        assert!((hi.x - (12.0 + 20.0)).abs() < 1e-12);
    }
}
