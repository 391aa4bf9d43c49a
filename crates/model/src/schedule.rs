//! Per-charger, per-slot orientation schedules.

use haste_geometry::Angle;
use serde::{Deserialize, Serialize};

use crate::{ChargerId, Slot};

/// A charger's state in one slot: either it holds an orientation or it is
/// unassigned (off / the paper's `Φ` outside of switching).
pub type Orientation = Option<Angle>;

/// The decision variable of HASTE: an orientation per charger per slot.
///
/// `None` entries denote a charger that is not asked to serve anything in
/// that slot; it emits no power and — since it does not rotate — incurs no
/// switching delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// `orientations[i][k]` is charger `i`'s orientation in slot `k`.
    orientations: Vec<Vec<Orientation>>,
    /// The length of every row, kept apart so a schedule without chargers
    /// still spans its grid.
    num_slots: usize,
}

impl Schedule {
    /// An empty schedule (`n` chargers, `k` slots, everything unassigned).
    pub fn empty(num_chargers: usize, num_slots: usize) -> Self {
        Schedule {
            // Row by row: `vec![row; 0]` would still allocate `row`.
            orientations: (0..num_chargers).map(|_| vec![None; num_slots]).collect(),
            num_slots,
        }
    }

    /// Number of chargers.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.orientations.len()
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The orientation of charger `i` in slot `k`.
    #[inline]
    pub fn get(&self, charger: ChargerId, slot: Slot) -> Orientation {
        self.orientations[charger.index()][slot]
    }

    /// Sets the orientation of charger `i` in slot `k`.
    #[inline]
    pub fn set(&mut self, charger: ChargerId, slot: Slot, theta: Orientation) {
        self.orientations[charger.index()][slot] = theta;
    }

    /// The full row of orientations for one charger.
    #[inline]
    pub fn row(&self, charger: ChargerId) -> &[Orientation] {
        &self.orientations[charger.index()]
    }

    /// Number of orientation *switches* charger `i` performs over the whole
    /// schedule: transitions between two different assigned orientations,
    /// plus the initial rotation into the first assigned orientation (the
    /// paper starts every charger at `θ_i(0) = Φ`). `None` gaps do not
    /// rotate the charger.
    pub fn switch_count(&self, charger: ChargerId) -> usize {
        let mut prev: Orientation = None;
        let mut switches = 0;
        for &o in &self.orientations[charger.index()] {
            if let Some(theta) = o {
                if prev != Some(theta) {
                    switches += 1;
                }
                prev = Some(theta);
            }
        }
        switches
    }

    /// Fills every unassigned slot with the charger's most recent assigned
    /// orientation ("hold"). Chargers in the paper always hold *some*
    /// orientation; since re-assuming the previous orientation incurs no
    /// switching delay and charging is free, holding weakly dominates
    /// going dark — schedulers apply this as a final post-pass.
    pub fn hold_orientations(&mut self) {
        for row in &mut self.orientations {
            let mut last: Orientation = None;
            for slot in row.iter_mut() {
                match *slot {
                    Some(theta) => last = Some(theta),
                    None => *slot = last,
                }
            }
        }
    }

    /// Overwrites the suffix of this schedule starting at `from_slot` with
    /// the corresponding entries of `other` — the primitive the online
    /// scheduler uses when a re-negotiated plan takes effect after the
    /// rescheduling delay.
    pub fn splice_from(&mut self, other: &Schedule, from_slot: Slot) {
        assert_eq!(self.num_chargers(), other.num_chargers());
        assert_eq!(self.num_slots(), other.num_slots());
        for (row, other_row) in self.orientations.iter_mut().zip(&other.orientations) {
            row[from_slot..].copy_from_slice(&other_row[from_slot..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deg(d: f64) -> Angle {
        Angle::from_degrees(d)
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::empty(3, 5);
        assert_eq!(s.num_chargers(), 3);
        assert_eq!(s.num_slots(), 5);
        assert_eq!(s.get(ChargerId(1), 2), None);
        assert_eq!(s.switch_count(ChargerId(0)), 0);
    }

    #[test]
    fn set_and_get() {
        let mut s = Schedule::empty(2, 4);
        s.set(ChargerId(0), 1, Some(deg(45.0)));
        assert_eq!(s.get(ChargerId(0), 1), Some(deg(45.0)));
        assert_eq!(s.get(ChargerId(0), 0), None);
        assert_eq!(s.row(ChargerId(0))[1], Some(deg(45.0)));
    }

    #[test]
    fn switch_counting() {
        let mut s = Schedule::empty(1, 6);
        let c = ChargerId(0);
        // Φ, 10°, 10°, Φ, 10°, 20°  →  switches: into 10° once, 10°→20° once.
        s.set(c, 1, Some(deg(10.0)));
        s.set(c, 2, Some(deg(10.0)));
        s.set(c, 4, Some(deg(10.0)));
        s.set(c, 5, Some(deg(20.0)));
        assert_eq!(s.switch_count(c), 2);
    }

    #[test]
    fn hold_fills_gaps_without_new_switches() {
        let mut s = Schedule::empty(1, 6);
        let c = ChargerId(0);
        s.set(c, 1, Some(deg(10.0)));
        s.set(c, 4, Some(deg(20.0)));
        let switches_before = s.switch_count(c);
        s.hold_orientations();
        assert_eq!(s.get(c, 0), None); // nothing to hold yet
        assert_eq!(s.get(c, 2), Some(deg(10.0)));
        assert_eq!(s.get(c, 3), Some(deg(10.0)));
        assert_eq!(s.get(c, 5), Some(deg(20.0)));
        assert_eq!(s.switch_count(c), switches_before);
    }

    #[test]
    fn splice_replaces_suffix_only() {
        let mut a = Schedule::empty(1, 4);
        let mut b = Schedule::empty(1, 4);
        let c = ChargerId(0);
        a.set(c, 0, Some(deg(1.0)));
        a.set(c, 3, Some(deg(2.0)));
        b.set(c, 0, Some(deg(99.0)));
        b.set(c, 2, Some(deg(3.0)));
        a.splice_from(&b, 2);
        assert_eq!(a.get(c, 0), Some(deg(1.0))); // prefix kept
        assert_eq!(a.get(c, 2), Some(deg(3.0))); // suffix replaced
        assert_eq!(a.get(c, 3), None);
    }
}
