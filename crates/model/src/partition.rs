//! Geographic **partitioning** of a scenario into independent cells.
//!
//! The paper's distributed algorithm (Alg. 3) is local by construction:
//! negotiation only ever happens between chargers that share a chargeable
//! task. A field cut into cells therefore decomposes into fully
//! independent scheduling problems **provided no task's reachable chargers
//! span two cells**. [`Partition`] makes that precondition checkable and
//! the decomposition mechanical:
//!
//! * [`Partition::cell_of`] deterministically maps any point — boundary
//!   points and out-of-field points included — to exactly one cell,
//! * [`Partition::validate_chargers`] checks the *charger-reach halo*: a
//!   charger closer than the halo width `D` (the charging radius) to an
//!   interior cell boundary could reach a device in the adjacent cell, so
//!   its placement is rejected. A scenario that passes is safe for **any**
//!   future task position,
//! * [`Partition::split`] cuts a scenario into per-cell sub-scenarios
//!   (ids renumbered, original order preserved), rejecting any task whose
//!   chargeable chargers do not all lie in the task's own cell.
//!
//! Cells are **axis-aligned rectangles**, not a fixed grid: a partition
//! starts as a uniform grid ([`Partition::grid`]) but is *elastic* —
//! [`Partition::split_cell`] halves a hot cell along its longer axis and
//! [`Partition::merge_cells`] re-joins two rect-adjacent cells, both
//! producing renumbered partitions whose halo invariant still holds.
//! Cell indices are positions in the rect list, so a router that serves
//! cell `i` with shard `i` needs no cell → shard table: a counter of
//! topology swaps (its map version) tells which tiling served a reply.
//!
//! The preserved relative order of chargers and tasks inside each cell is
//! what keeps the per-cell sub-problems bit-compatible with the original:
//! every scheduler in this workspace iterates chargers and tasks in id
//! order, and renumbering that preserves relative order preserves every
//! such iteration (and every floating-point summation order) within a
//! cell.

use haste_geometry::Vec2;

use crate::{power, Scenario};

/// One cell of a partition: a half-open axis-aligned rectangle
/// `[x0, x1) × [y0, y1)` (right/top edges are inclusive only where they
/// coincide with the field boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRect {
    /// Left edge (inclusive).
    pub x0: f64,
    /// Bottom edge (inclusive).
    pub y0: f64,
    /// Right edge (exclusive unless it is the field's far edge).
    pub x1: f64,
    /// Top edge (exclusive unless it is the field's far edge).
    pub y1: f64,
}

impl CellRect {
    /// Width of the rect.
    #[inline]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height of the rect.
    #[inline]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }
}

/// A rect-tiling partition of the deployment field with a charger-reach
/// halo. Built as a uniform grid (cells indexed row-major:
/// `cell = cy * cells_x + cx`) and mutated by [`Partition::split_cell`] /
/// [`Partition::merge_cells`], after which indices are positional in the
/// rect list.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    origin: Vec2,
    field_w: f64,
    field_h: f64,
    halo: f64,
    /// The base grid shape this partition was derived from — kept for
    /// topology reporting even after elastic splits/merges.
    grid: (usize, usize),
    cells: Vec<CellRect>,
}

/// Why a partition could not be built or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The grid geometry itself is unusable.
    InvalidGeometry(&'static str),
    /// A charger sits within the halo of an interior cell boundary: a task
    /// just across that boundary could reach it, so per-cell independence
    /// would not hold for arbitrary submissions.
    ChargerInHalo {
        /// Index of the offending charger.
        charger: usize,
        /// The cell the charger maps to.
        cell: usize,
        /// Distance to the nearest interior boundary of its cell, meters.
        margin: f64,
    },
    /// A task's chargeable chargers are not all in the task's own cell —
    /// the independence precondition Algorithm 3 needs is violated.
    TaskSpansCells {
        /// Index of the offending task.
        task: usize,
        /// The cell the task's device maps to.
        task_cell: usize,
        /// A chargeable charger outside that cell.
        charger: usize,
        /// The cell that charger maps to.
        charger_cell: usize,
    },
    /// A sub-scenario failed model validation after the split.
    Invalid(crate::ModelError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::InvalidGeometry(reason) => {
                write!(f, "invalid partition geometry: {reason}")
            }
            PartitionError::ChargerInHalo {
                charger,
                cell,
                margin,
            } => write!(
                f,
                "charger {charger} in cell {cell} is {margin} m from an interior cell \
                 boundary (inside the reach halo): a device across the boundary could \
                 reach it"
            ),
            PartitionError::TaskSpansCells {
                task,
                task_cell,
                charger,
                charger_cell,
            } => write!(
                f,
                "task {task} (cell {task_cell}) is chargeable by charger {charger} \
                 (cell {charger_cell}): reachable chargers span cells"
            ),
            PartitionError::Invalid(e) => write!(f, "split produced an invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Where every charger and task of a scenario lands under a partition:
/// per-cell membership plus the renumbered local index of each. Relative
/// order within a cell is the original order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAssignment {
    /// `charger_cell[i]` — the cell charger `i` maps to.
    pub charger_cell: Vec<usize>,
    /// `charger_local[i]` — charger `i`'s id inside its cell's sub-scenario.
    pub charger_local: Vec<usize>,
    /// `task_cell[j]` — the cell task `j`'s device maps to.
    pub task_cell: Vec<usize>,
    /// `task_local[j]` — task `j`'s id inside its cell's sub-scenario.
    pub task_local: Vec<usize>,
}

impl Partition {
    /// Creates a uniform `cells_x × cells_y` grid over the axis-aligned
    /// field rectangle at `origin` with extent `field_w × field_h`, using
    /// halo width `halo` (normally the charging radius `D`).
    pub fn grid(
        origin: Vec2,
        field_w: f64,
        field_h: f64,
        cells_x: usize,
        cells_y: usize,
        halo: f64,
    ) -> Result<Partition, PartitionError> {
        Self::check_field(origin, field_w, field_h, halo)?;
        if cells_x == 0 || cells_y == 0 {
            return Err(PartitionError::InvalidGeometry(
                "the grid needs at least one cell per axis",
            ));
        }
        // A cell narrower than two halos has no interior a charger could
        // legally occupy (both boundaries of an interior cell are within
        // reach), which would make `validate_chargers` unsatisfiable.
        if cells_x > 1 && field_w / cells_x as f64 <= 2.0 * halo {
            return Err(PartitionError::InvalidGeometry(
                "cells are narrower than two halo widths along x",
            ));
        }
        if cells_y > 1 && field_h / cells_y as f64 <= 2.0 * halo {
            return Err(PartitionError::InvalidGeometry(
                "cells are shorter than two halo widths along y",
            ));
        }
        // Boundary i along an axis is `origin + extent * i / n` — the
        // exact expression the proptest suite pins, so grid-built rects
        // reproduce the historical floor-division cell mapping bit for
        // bit, boundary convention included.
        let xs: Vec<f64> = (0..=cells_x)
            .map(|i| origin.x + field_w * (i as f64) / (cells_x as f64))
            .collect();
        let ys: Vec<f64> = (0..=cells_y)
            .map(|i| origin.y + field_h * (i as f64) / (cells_y as f64))
            .collect();
        if xs.windows(2).any(|w| w[0] >= w[1]) || ys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PartitionError::InvalidGeometry(
                "cell boundaries are not strictly increasing",
            ));
        }
        let mut cells = Vec::with_capacity(cells_x * cells_y);
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                cells.push(CellRect {
                    x0: xs[cx],
                    y0: ys[cy],
                    x1: xs[cx + 1],
                    y1: ys[cy + 1],
                });
            }
        }
        Ok(Partition {
            origin,
            field_w,
            field_h,
            halo,
            grid: (cells_x, cells_y),
            cells,
        })
    }

    /// Rebuilds a partition from an explicit rect list (a snapshot restore
    /// path). Validation is structural: finite rects with positive extent
    /// that lie inside the field. Tiling *coverage* is not re-proven here —
    /// the rects come from a partition that enforced it on every mutation.
    pub fn from_rects(
        origin: Vec2,
        field_w: f64,
        field_h: f64,
        halo: f64,
        grid: (usize, usize),
        cells: Vec<CellRect>,
    ) -> Result<Partition, PartitionError> {
        Self::check_field(origin, field_w, field_h, halo)?;
        if grid.0 == 0 || grid.1 == 0 {
            return Err(PartitionError::InvalidGeometry(
                "the grid needs at least one cell per axis",
            ));
        }
        if cells.is_empty() {
            return Err(PartitionError::InvalidGeometry(
                "a partition needs at least one cell",
            ));
        }
        let (fx, fy) = (origin.x + field_w, origin.y + field_h);
        for r in &cells {
            let finite =
                r.x0.is_finite() && r.x1.is_finite() && r.y0.is_finite() && r.y1.is_finite();
            if !finite || r.x0 >= r.x1 || r.y0 >= r.y1 {
                return Err(PartitionError::InvalidGeometry(
                    "cell rect must be finite with positive extent",
                ));
            }
            if r.x0 < origin.x || r.x1 > fx || r.y0 < origin.y || r.y1 > fy {
                return Err(PartitionError::InvalidGeometry(
                    "cell rect lies outside the field",
                ));
            }
        }
        Ok(Partition {
            origin,
            field_w,
            field_h,
            halo,
            grid,
            cells,
        })
    }

    fn check_field(
        origin: Vec2,
        field_w: f64,
        field_h: f64,
        halo: f64,
    ) -> Result<(), PartitionError> {
        if !(origin.x.is_finite() && origin.y.is_finite()) {
            return Err(PartitionError::InvalidGeometry("origin must be finite"));
        }
        if !(field_w.is_finite() && field_w > 0.0 && field_h.is_finite() && field_h > 0.0) {
            return Err(PartitionError::InvalidGeometry(
                "field extent must be finite and positive",
            ));
        }
        if !(halo.is_finite() && halo >= 0.0) {
            return Err(PartitionError::InvalidGeometry(
                "halo must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// Cells along x of the **base grid** this partition was built from.
    /// After an elastic split or merge the live cell list is positional;
    /// see [`base_grid`](Partition::base_grid).
    #[inline]
    pub fn cells_x(&self) -> usize {
        self.grid.0
    }

    /// Cells along y of the **base grid** (see [`cells_x`](Partition::cells_x)).
    #[inline]
    pub fn cells_y(&self) -> usize {
        self.grid.1
    }

    /// Total number of cells in the live rect list.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The halo width (charger reach) this partition was built with.
    #[inline]
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// The field origin.
    #[inline]
    pub fn origin(&self) -> Vec2 {
        self.origin
    }

    /// The field extent `(width, height)`.
    #[inline]
    pub fn field(&self) -> (f64, f64) {
        (self.field_w, self.field_h)
    }

    /// The live rect list, indexed by cell.
    #[inline]
    pub fn cells(&self) -> &[CellRect] {
        &self.cells
    }

    /// The rect of one cell.
    #[inline]
    pub fn cell_rect(&self, cell: usize) -> CellRect {
        self.cells[cell]
    }

    /// `Some((cells_x, cells_y))` while the live rect list is exactly the
    /// uniform base grid (bitwise — splits and merges that do not restore
    /// the original tiling return `None`), for `cell = cy * cells_x + cx`
    /// coordinate reporting.
    pub fn base_grid(&self) -> Option<(usize, usize)> {
        let (gx, gy) = self.grid;
        if self.cells.len() != gx * gy {
            return None;
        }
        let uniform = Partition::grid(self.origin, self.field_w, self.field_h, gx, gy, self.halo);
        match uniform {
            Ok(p) if p.cells == self.cells => Some((gx, gy)),
            _ => None,
        }
    }

    /// Deterministically maps any point to exactly one cell. The point is
    /// clamped into the field (NaN coordinates to the origin), then matched
    /// against the half-open rects — a point exactly on an interior
    /// boundary belongs to the *higher* cell, the far field edges fold into
    /// the edge cells. A bit-exact tiling always matches; should float
    /// pathology ever leave a clamped point unmatched, the nearest rect
    /// (lowest index on ties) is chosen so the map stays total.
    #[inline]
    pub fn cell_of(&self, p: Vec2) -> usize {
        let fx = self.origin.x + self.field_w;
        let fy = self.origin.y + self.field_h;
        // `max`/`min` propagate the non-NaN operand, so NaN clamps to the
        // origin — the historical convention for unmappable coordinates.
        let x = p.x.max(self.origin.x).min(fx);
        let y = p.y.max(self.origin.y).min(fy);
        for (i, r) in self.cells.iter().enumerate() {
            let in_x = x >= r.x0 && (x < r.x1 || (x == r.x1 && r.x1 == fx));
            let in_y = y >= r.y0 && (y < r.y1 || (y == r.y1 && r.y1 == fy));
            if in_x && in_y {
                return i;
            }
        }
        self.nearest_cell(x, y)
    }

    /// Total-map fallback for [`cell_of`](Partition::cell_of): nearest rect
    /// by squared distance, lowest index on ties.
    fn nearest_cell(&self, x: f64, y: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, r) in self.cells.iter().enumerate() {
            let dx = (r.x0 - x).max(x - r.x1).max(0.0);
            let dy = (r.y0 - y).max(y - r.y1).max(0.0);
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Distance from a point to the nearest *interior* boundary of its own
    /// cell (`f64::INFINITY` for a single-cell partition). Outer field
    /// edges do not count: a point beyond them still maps into the edge
    /// cell, so reach across them never leaves the cell.
    pub fn interior_margin(&self, p: Vec2) -> f64 {
        let r = self.cells[self.cell_of(p)];
        let fx = self.origin.x + self.field_w;
        let fy = self.origin.y + self.field_h;
        let mut margin = f64::INFINITY;
        if r.x0 > self.origin.x {
            margin = margin.min(p.x - r.x0);
        }
        if r.x1 < fx {
            margin = margin.min(r.x1 - p.x);
        }
        if r.y0 > self.origin.y {
            margin = margin.min(p.y - r.y0);
        }
        if r.y1 < fy {
            margin = margin.min(r.y1 - p.y);
        }
        margin
    }

    /// Splits cell `cell` in half along its longer axis (ties go to x),
    /// producing a renumbered partition: the children take indices `cell`
    /// and `cell + 1`, later cells shift up by one. Fails if either child
    /// would be too narrow to host a charger outside the new boundary's
    /// halo — the same invariant [`grid`](Partition::grid) enforces — so
    /// every partition this returns still satisfies the halo precondition
    /// for *some* charger placement.
    pub fn split_cell(&self, cell: usize) -> Result<Partition, PartitionError> {
        let Some(&r) = self.cells.get(cell) else {
            return Err(PartitionError::InvalidGeometry("cell index out of range"));
        };
        let along_x = r.width() >= r.height();
        let (lo, hi) = if along_x { (r.x0, r.x1) } else { (r.y0, r.y1) };
        let mid = 0.5 * (lo + hi);
        if !(mid > lo && mid < hi) {
            return Err(PartitionError::InvalidGeometry(
                "cell is too thin to split: midpoint is not strictly interior",
            ));
        }
        if (mid - lo) <= 2.0 * self.halo || (hi - mid) <= 2.0 * self.halo {
            return Err(PartitionError::InvalidGeometry(
                "split children would be narrower than two halo widths",
            ));
        }
        let (a, b) = if along_x {
            (CellRect { x1: mid, ..r }, CellRect { x0: mid, ..r })
        } else {
            (CellRect { y1: mid, ..r }, CellRect { y0: mid, ..r })
        };
        let mut cells = self.cells.clone();
        cells[cell] = a;
        cells.insert(cell + 1, b);
        Ok(Partition {
            cells,
            ..self.clone()
        })
    }

    /// Merges two cells whose rects form an exact rectangle (bit-exact
    /// shared edge, matching extents on the other axis), producing a
    /// renumbered partition: the merged cell takes the lower of the two
    /// indices, later cells shift down by one. The merged rect copies the
    /// outer coordinates verbatim, so `merge_cells` exactly inverts
    /// [`split_cell`](Partition::split_cell). Merging never violates the
    /// halo invariant: interior boundaries only disappear.
    pub fn merge_cells(&self, a: usize, b: usize) -> Result<Partition, PartitionError> {
        if a == b {
            return Err(PartitionError::InvalidGeometry(
                "cannot merge a cell with itself",
            ));
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (Some(&ra), Some(&rb)) = (self.cells.get(lo), self.cells.get(hi)) else {
            return Err(PartitionError::InvalidGeometry("cell index out of range"));
        };
        let merged = if ra.y0 == rb.y0 && ra.y1 == rb.y1 && ra.x1 == rb.x0 {
            CellRect { x1: rb.x1, ..ra }
        } else if ra.y0 == rb.y0 && ra.y1 == rb.y1 && rb.x1 == ra.x0 {
            CellRect { x0: rb.x0, ..ra }
        } else if ra.x0 == rb.x0 && ra.x1 == rb.x1 && ra.y1 == rb.y0 {
            CellRect { y1: rb.y1, ..ra }
        } else if ra.x0 == rb.x0 && ra.x1 == rb.x1 && rb.y1 == ra.y0 {
            CellRect { y0: rb.y0, ..ra }
        } else {
            return Err(PartitionError::InvalidGeometry(
                "cells do not form an exact rectangle",
            ));
        };
        let mut cells = self.cells.clone();
        cells[lo] = merged;
        cells.remove(hi);
        Ok(Partition {
            cells,
            ..self.clone()
        })
    }

    /// Checks the charger-reach halo: every charger must be at least the
    /// halo width away from every interior boundary of its cell. A
    /// scenario that passes stays per-cell independent for **any** task
    /// position (a device a charger can reach is within `halo` of it, so
    /// it cannot lie across an interior boundary). The epsilon matches the
    /// range cutoff of [`power::chargeable`].
    pub fn validate_chargers(&self, scenario: &Scenario) -> Result<(), PartitionError> {
        for (i, charger) in scenario.chargers.iter().enumerate() {
            let margin = self.interior_margin(charger.pos);
            if margin <= self.halo + 1e-12 {
                return Err(PartitionError::ChargerInHalo {
                    charger: i,
                    cell: self.cell_of(charger.pos),
                    margin,
                });
            }
        }
        Ok(())
    }

    /// Computes where every charger and task lands, with renumbered local
    /// indices (relative order within a cell preserved). Rejects a task
    /// whose chargeable chargers do not all lie in the task's own cell —
    /// the independence precondition.
    pub fn assign(&self, scenario: &Scenario) -> Result<CellAssignment, PartitionError> {
        let mut charger_count = vec![0usize; self.num_cells()];
        let mut charger_cell = Vec::with_capacity(scenario.num_chargers());
        let mut charger_local = Vec::with_capacity(scenario.num_chargers());
        for charger in &scenario.chargers {
            let cell = self.cell_of(charger.pos);
            charger_cell.push(cell);
            charger_local.push(charger_count[cell]);
            charger_count[cell] += 1;
        }
        let mut task_count = vec![0usize; self.num_cells()];
        let mut task_cell = Vec::with_capacity(scenario.num_tasks());
        let mut task_local = Vec::with_capacity(scenario.num_tasks());
        for (j, task) in scenario.tasks.iter().enumerate() {
            let cell = self.cell_of(task.device_pos);
            for (i, charger) in scenario.chargers.iter().enumerate() {
                if charger_cell[i] != cell && power::chargeable(&scenario.params, charger, task) {
                    return Err(PartitionError::TaskSpansCells {
                        task: j,
                        task_cell: cell,
                        charger: i,
                        charger_cell: charger_cell[i],
                    });
                }
            }
            task_cell.push(cell);
            task_local.push(task_count[cell]);
            task_count[cell] += 1;
        }
        Ok(CellAssignment {
            charger_cell,
            charger_local,
            task_cell,
            task_local,
        })
    }

    /// Splits a scenario into one sub-scenario per cell. Chargers and
    /// tasks are renumbered to their local indices (original order
    /// preserved within each cell); params, grid, delays and the utility
    /// model are shared verbatim. Fails if any task's chargeable chargers
    /// span cells (see [`assign`](Partition::assign)).
    pub fn split(&self, scenario: &Scenario) -> Result<Vec<Scenario>, PartitionError> {
        let assignment = self.assign(scenario)?;
        let mut cells: Vec<Scenario> = (0..self.num_cells())
            .map(|_| Scenario {
                params: scenario.params,
                grid: scenario.grid,
                chargers: Vec::new(),
                tasks: Vec::new(),
                rho: scenario.rho,
                tau: scenario.tau,
                utility: scenario.utility,
            })
            .collect();
        for (i, charger) in scenario.chargers.iter().enumerate() {
            let mut local = *charger;
            local.id = crate::ChargerId(assignment.charger_local[i] as u32);
            cells[assignment.charger_cell[i]].chargers.push(local);
        }
        for (j, task) in scenario.tasks.iter().enumerate() {
            let mut local = *task;
            local.id = crate::TaskId(assignment.task_local[j] as u32);
            cells[assignment.task_cell[j]].tasks.push(local);
        }
        for cell in &cells {
            cell.validate().map_err(PartitionError::Invalid)?;
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Charger, ChargingParams, Task, TimeGrid};
    use haste_geometry::Angle;

    fn two_cell_scenario() -> (Partition, Scenario) {
        // 200 × 100 field, two 100-wide cells, halo 20 (the default D).
        let partition = Partition::grid(Vec2::ZERO, 200.0, 100.0, 2, 1, 20.0).unwrap();
        let scenario = Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(8),
            vec![
                Charger::new(0, Vec2::new(40.0, 50.0)),
                Charger::new(1, Vec2::new(160.0, 50.0)),
                Charger::new(2, Vec2::new(60.0, 30.0)),
            ],
            vec![
                Task::new(0, Vec2::new(50.0, 50.0), Angle::ZERO, 0, 8, 900.0, 1.0),
                Task::new(1, Vec2::new(150.0, 50.0), Angle::ZERO, 1, 8, 900.0, 1.0),
                Task::new(2, Vec2::new(55.0, 40.0), Angle::ZERO, 0, 6, 900.0, 1.0),
            ],
            1.0 / 12.0,
            1,
        )
        .unwrap();
        (partition, scenario)
    }

    #[test]
    fn grid_rejects_bad_geometry() {
        assert!(Partition::grid(Vec2::ZERO, 0.0, 10.0, 1, 1, 1.0).is_err());
        assert!(Partition::grid(Vec2::ZERO, 10.0, 10.0, 0, 1, 1.0).is_err());
        assert!(Partition::grid(Vec2::ZERO, 10.0, 10.0, 1, 1, f64::NAN).is_err());
        // Two cells of width 5 cannot host a halo of 3 (2 * 3 > 5).
        assert!(Partition::grid(Vec2::ZERO, 10.0, 10.0, 2, 1, 3.0).is_err());
        // ...but a single cell can (no interior boundary).
        assert!(Partition::grid(Vec2::ZERO, 10.0, 10.0, 1, 1, 3.0).is_ok());
    }

    #[test]
    fn boundary_and_out_of_field_points_are_deterministic() {
        let p = Partition::grid(Vec2::ZERO, 200.0, 100.0, 2, 2, 0.0).unwrap();
        // Interior boundary point belongs to the higher cell.
        assert_eq!(p.cell_of(Vec2::new(100.0, 0.0)), 1);
        assert_eq!(p.cell_of(Vec2::new(99.999, 0.0)), 0);
        // The far edges clamp into the last cell instead of falling off.
        assert_eq!(p.cell_of(Vec2::new(200.0, 100.0)), 3);
        assert_eq!(p.cell_of(Vec2::new(500.0, -3.0)), 1);
        assert_eq!(p.cell_of(Vec2::new(-1.0, 250.0)), 2);
        assert_eq!(p.cell_of(Vec2::new(f64::NAN, 60.0)), 2);
    }

    #[test]
    fn halo_validation_accepts_and_rejects() {
        let (partition, scenario) = two_cell_scenario();
        partition.validate_chargers(&scenario).unwrap();
        let mut bad = scenario.clone();
        bad.chargers[0].pos = Vec2::new(95.0, 50.0); // 5 m from x = 100
        match partition.validate_chargers(&bad) {
            Err(PartitionError::ChargerInHalo { charger: 0, .. }) => {}
            other => panic!("expected ChargerInHalo, got {other:?}"),
        }
    }

    #[test]
    fn split_renumbers_and_preserves_order() {
        let (partition, scenario) = two_cell_scenario();
        let cells = partition.split(&scenario).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].num_chargers(), 2); // chargers 0, 2
        assert_eq!(cells[1].num_chargers(), 1); // charger 1
        assert_eq!(cells[0].num_tasks(), 2); // tasks 0, 2
        assert_eq!(cells[1].num_tasks(), 1); // task 1
        assert_eq!(cells[0].chargers[1].pos, scenario.chargers[2].pos);
        assert_eq!(cells[0].tasks[1].device_pos, scenario.tasks[2].device_pos);
        for cell in &cells {
            cell.validate().unwrap();
        }
    }

    #[test]
    fn split_rejects_task_spanning_cells() {
        let (partition, mut scenario) = two_cell_scenario();
        // A device just across the boundary from a reachable charger: put
        // the charger legally outside the halo but move the task next to
        // it on the other side? That cannot reach (margin > halo). Instead
        // violate the precondition directly: a task in cell 1 whose only
        // reachable charger is in cell 0 requires an in-halo charger, so
        // craft it with a charger that breaks the halo rule.
        scenario.chargers[2].pos = Vec2::new(95.0, 50.0); // inside the halo
        scenario.tasks[1] = Task::new(
            1,
            Vec2::new(105.0, 50.0), // cell 1, 10 m from charger 2
            Angle::from_degrees(180.0),
            1,
            8,
            900.0,
            1.0,
        );
        match partition.split(&scenario) {
            Err(PartitionError::TaskSpansCells {
                task: 1,
                charger: 2,
                ..
            }) => {}
            other => panic!("expected TaskSpansCells, got {other:?}"),
        }
    }

    #[test]
    fn assignment_local_indices_are_dense_per_cell() {
        let (partition, scenario) = two_cell_scenario();
        let a = partition.assign(&scenario).unwrap();
        assert_eq!(a.charger_cell, vec![0, 1, 0]);
        assert_eq!(a.charger_local, vec![0, 0, 1]);
        assert_eq!(a.task_cell, vec![0, 1, 0]);
        assert_eq!(a.task_local, vec![0, 0, 1]);
    }

    #[test]
    fn split_cell_renumbers_and_merge_inverts() {
        // 400 × 100, 2 × 1, halo 20: cell 0 is [0,200), wide enough to split.
        let p = Partition::grid(Vec2::ZERO, 400.0, 100.0, 2, 1, 20.0).unwrap();
        let split = p.split_cell(0).unwrap();
        assert_eq!(split.num_cells(), 3);
        assert_eq!(split.cell_rect(0).x1, 100.0);
        assert_eq!(split.cell_rect(1).x0, 100.0);
        assert_eq!(split.cell_rect(2), p.cell_rect(1)); // old cell 1 shifted
        assert_eq!(split.cell_of(Vec2::new(50.0, 50.0)), 0);
        assert_eq!(split.cell_of(Vec2::new(150.0, 50.0)), 1);
        assert_eq!(split.cell_of(Vec2::new(250.0, 50.0)), 2);
        // The boundary point goes to the higher cell, as on the base grid.
        assert_eq!(split.cell_of(Vec2::new(100.0, 50.0)), 1);
        assert_eq!(split.base_grid(), None);
        // Merge is the exact inverse, and argument order does not matter.
        assert_eq!(split.merge_cells(0, 1).unwrap(), p);
        assert_eq!(split.merge_cells(1, 0).unwrap(), p);
        assert_eq!(p.base_grid(), Some((2, 1)));
    }

    #[test]
    fn split_cell_prefers_longer_axis() {
        // A 100 × 400 single cell splits along y.
        let p = Partition::grid(Vec2::ZERO, 100.0, 400.0, 1, 1, 20.0).unwrap();
        let split = p.split_cell(0).unwrap();
        assert_eq!(split.cell_rect(0).y1, 200.0);
        assert_eq!(split.cell_rect(1).y0, 200.0);
        assert_eq!(split.merge_cells(0, 1).unwrap(), p);
    }

    #[test]
    fn split_cell_rejects_thin_cells_and_bad_merges() {
        let p = Partition::grid(Vec2::ZERO, 200.0, 100.0, 2, 1, 30.0).unwrap();
        // Children would be 50 wide — not above 2 × 30.
        assert!(p.split_cell(0).is_err());
        assert!(p.split_cell(7).is_err());
        assert!(p.merge_cells(0, 0).is_err());
        assert!(p.merge_cells(0, 7).is_err());
        // Diagonal cells of a 2 × 2 grid do not form a rectangle.
        let q = Partition::grid(Vec2::ZERO, 200.0, 200.0, 2, 2, 20.0).unwrap();
        assert!(q.merge_cells(0, 3).is_err());
        // Adjacent ones do, along both axes.
        assert!(q.merge_cells(0, 1).is_ok());
        assert!(q.merge_cells(0, 2).is_ok());
        assert!(q.merge_cells(2, 0).is_ok());
    }
}
