//! Chargers and charging tasks.

use haste_geometry::{Angle, Sector, Vec2};
use serde::{Deserialize, Serialize};

use crate::{ChargingParams, Slot};

/// Identifier of a charger (`s_i`). Indexes into `Scenario::chargers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ChargerId(pub u32);

/// Identifier of a charging task (`T_j`). Indexes into `Scenario::tasks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub u32);

impl ChargerId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A static, rotatable directional wireless charger.
///
/// Its orientation is the decision variable of HASTE and therefore lives in
/// [`crate::Schedule`], not here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Charger {
    /// Identifier; must equal the charger's index in the scenario.
    pub id: ChargerId,
    /// Position `s_i` in meters.
    pub pos: Vec2,
}

impl Charger {
    /// Creates a charger.
    pub fn new(id: u32, pos: Vec2) -> Self {
        Charger {
            id: ChargerId(id),
            pos,
        }
    }

    /// The charging sector of this charger when oriented at `theta`.
    pub fn charging_sector(&self, params: &ChargingParams, theta: Angle) -> Sector {
        Sector::new(self.pos, theta, params.charging_angle, params.radius)
    }
}

/// A charging task `T_j = ⟨o_j, φ_j, t_r, t_e, E_j⟩` plus its weight `w_j`.
///
/// Times are expressed in slots: the task is active during slots
/// `release_slot .. end_slot` (half-open), matching the paper's convention
/// that `t_r` falls at a slot start and `t_e` at a slot end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Identifier; must equal the task's index in the scenario.
    pub id: TaskId,
    /// Position `o_j` of the rechargeable device, in meters.
    pub device_pos: Vec2,
    /// Orientation `φ_j` of the device's receiving sector.
    pub device_facing: Angle,
    /// First active slot (`t_r / T_s`).
    pub release_slot: Slot,
    /// One past the last active slot (`t_e / T_s`).
    pub end_slot: Slot,
    /// Required charging energy `E_j` in joules.
    pub required_energy: f64,
    /// Weight `w_j` in the overall utility.
    pub weight: f64,
}

impl Task {
    /// Creates a task active during `release_slot .. end_slot`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        device_pos: Vec2,
        device_facing: Angle,
        release_slot: Slot,
        end_slot: Slot,
        required_energy: f64,
        weight: f64,
    ) -> Self {
        Task {
            id: TaskId(id),
            device_pos,
            device_facing,
            release_slot,
            end_slot,
            required_energy,
            weight,
        }
    }

    /// Whether the task is active (can harvest energy) during slot `k`.
    #[inline]
    pub fn active_at(&self, k: Slot) -> bool {
        self.release_slot <= k && k < self.end_slot
    }

    /// Number of slots the task is active for.
    #[inline]
    pub fn duration_slots(&self) -> usize {
        self.end_slot - self.release_slot
    }

    /// The device's receiving sector.
    pub fn receiving_sector(&self, params: &ChargingParams) -> Sector {
        Sector::new(
            self.device_pos,
            self.device_facing,
            params.receiving_angle,
            params.radius,
        )
    }

    /// Validates the task fields.
    pub fn validate(&self, index: usize) -> Result<(), crate::ModelError> {
        use crate::ModelError::InvalidTask;
        if self.end_slot <= self.release_slot {
            return Err(InvalidTask {
                index,
                reason: "end slot must be after release slot",
            });
        }
        if !(self.required_energy.is_finite() && self.required_energy > 0.0) {
            return Err(InvalidTask {
                index,
                reason: "required energy must be finite and positive",
            });
        }
        if !(self.weight.is_finite() && self.weight >= 0.0) {
            return Err(InvalidTask {
                index,
                reason: "weight must be finite and non-negative",
            });
        }
        if !(self.device_pos.x.is_finite() && self.device_pos.y.is_finite()) {
            return Err(InvalidTask {
                index,
                reason: "device position must be finite",
            });
        }
        // `Angle::from_radians` keeps a NaN and turns ±inf into one.
        if !self.device_facing.radians().is_finite() {
            return Err(InvalidTask {
                index,
                reason: "device facing must be finite",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(0, Vec2::new(1.0, 2.0), Angle::ZERO, 2, 5, 100.0, 1.0)
    }

    #[test]
    fn activity_window() {
        let t = task();
        assert!(!t.active_at(1));
        assert!(t.active_at(2));
        assert!(t.active_at(4));
        assert!(!t.active_at(5));
        assert_eq!(t.duration_slots(), 3);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut t = task();
        t.end_slot = 2;
        assert!(t.validate(0).is_err());
        let mut t = task();
        t.required_energy = 0.0;
        assert!(t.validate(0).is_err());
        let mut t = task();
        t.weight = -1.0;
        assert!(t.validate(0).is_err());
        let mut t = task();
        t.device_pos = Vec2::new(f64::NAN, 0.0);
        assert!(t.validate(0).is_err());
        for facing in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = task();
            t.device_facing = Angle::from_radians(facing);
            assert!(t.validate(0).is_err(), "facing {facing} must be refused");
        }
        assert!(task().validate(0).is_ok());
    }

    #[test]
    fn sectors_use_params() {
        let params = ChargingParams::simulation_default();
        let t = task();
        let rs = t.receiving_sector(&params);
        assert_eq!(rs.apex, t.device_pos);
        assert_eq!(rs.opening, params.receiving_angle);
        assert_eq!(rs.radius, params.radius);

        let c = Charger::new(0, Vec2::ZERO);
        let cs = c.charging_sector(&params, Angle::from_degrees(90.0));
        assert_eq!(cs.apex, Vec2::ZERO);
        assert_eq!(cs.opening, params.charging_angle);
    }

    #[test]
    fn id_indexing() {
        assert_eq!(ChargerId(7).index(), 7);
        assert_eq!(TaskId(3).index(), 3);
    }
}
