//! The per-tenant operation log: every record the router applied to a
//! tenant, in lock order, and the views its recovery paths read.
//!
//! Every recovery path rests on one property of the online engine
//! (Alg. 3): each slot close re-negotiates deterministically over the
//! tasks that have arrived, so replaying the same submissions and ticks
//! rebuilds an engine bit for bit. The router stores that sequence once,
//! as one [`OpLog`] per tenant, and each consumer reads a view of it:
//!
//! * `RESHARD` rebuilds cells from [`OpLog::accepted`] — the accepted
//!   submissions and ticks since `LOAD`. The composite snapshot keeps
//!   only each slot's arrival runs of this view (the tasks are in the
//!   shard sections), and `RESTORE` rebuilds it from them;
//! * a restarted shard child replays its baseline, then
//!   [`OpLog::answered`] — the records after its baseline's cursor that
//!   its cell's child answered;
//! * the write-ahead log ([`crate::wal`]) appends [`OpLog::unlogged`] —
//!   the records pushed since its last append.
//!
//! The log also owns the tenant's slot counts, kept as it grows: the
//! clock ([`OpLog::clock`], its ticks), the accepted submissions
//! ([`OpLog::accepted_count`]) and those of the open slot
//! ([`OpLog::open_count`], what the quota gate reads). They change only
//! as [`OpLog::push`] or [`OpLog::new`] takes a record in, so a restored
//! or recovered tenant counts exactly as the one that wrote its history.
//!
//! A record has exactly one text form (its `Display` and
//! [`OpRecord::parse`]): the payload of a WAL frame.

use std::fmt;

use haste_distributed::TaskSpec;
use haste_geometry::{Angle, Vec2};

use crate::proto::ErrCode;

/// One applied operation. Its `Display` form is the operation line, and
/// [`OpRecord::parse`] reads it back exactly: floats use
/// shortest-roundtrip formatting, the same determinism anchor as the
/// wire protocol and the snapshot formats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpRecord {
    /// An accepted submission, with the spec as admitted. Admission only
    /// ever accepts finite fields, so the parser refuses anything else.
    Submit(TaskSpec),
    /// A refused submission: the stable error code and the spec as sent
    /// (which may hold the non-finite field it was refused for).
    /// Refusals by the cell's engine are replayed into a restarted child
    /// so its admission counters reproduce; WAL recovery submits them
    /// and `quota` refusals again, and each must be refused the same way.
    Reject {
        /// Stable error code of the refusal.
        code: ErrCode,
        /// The refused submission.
        spec: TaskSpec,
    },
    /// One closed slot.
    Tick,
    /// A completed live split of one cell.
    ReshardSplit(usize),
    /// A completed live merge of two cells.
    ReshardMerge(usize, usize),
    /// The tenant's per-slot admission quota was set to this value.
    Quota(u64),
    /// A WAL checkpoint marker: the CRC-32 and byte length of a
    /// checkpoint document about to be installed (see
    /// [`crate::wal::TenantWal::checkpoint`]). It exists only in log
    /// files; an `OpLog` never holds one, and recovery replays it as a
    /// no-op.
    Checkpoint {
        /// [`crate::wal::crc32`] of the checkpoint document's bytes.
        crc: u32,
        /// Byte length of the checkpoint document.
        len: usize,
    },
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpRecord::Submit(spec) => write!(f, "submit {}", SpecFields(spec)),
            OpRecord::Reject { code, spec } => {
                write!(f, "reject {} {}", code.as_str(), SpecFields(spec))
            }
            OpRecord::Tick => f.write_str("tick"),
            OpRecord::ReshardSplit(cell) => write!(f, "reshard split {cell}"),
            OpRecord::ReshardMerge(a, b) => write!(f, "reshard merge {a} {b}"),
            OpRecord::Quota(q) => write!(f, "quota {q}"),
            OpRecord::Checkpoint { crc, len } => write!(f, "checkpoint {crc} {len}"),
        }
    }
}

impl OpRecord {
    /// Parses one operation line; `None` on anything malformed, including
    /// a `submit` with a non-finite field and a `reject` with an unknown
    /// error code.
    pub fn parse(line: &str) -> Option<OpRecord> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["submit", rest @ ..] => parse_spec(rest)
                .filter(|spec| {
                    [
                        spec.device_pos.x,
                        spec.device_pos.y,
                        spec.device_facing.radians(),
                        spec.required_energy,
                        spec.weight,
                    ]
                    .iter()
                    .all(|value| value.is_finite())
                })
                .map(OpRecord::Submit),
            ["reject", code, rest @ ..] => Some(OpRecord::Reject {
                code: ErrCode::parse(code)?,
                spec: parse_spec(rest)?,
            }),
            ["tick"] => Some(OpRecord::Tick),
            ["reshard", "split", cell] => Some(OpRecord::ReshardSplit(cell.parse().ok()?)),
            ["reshard", "merge", a, b] => {
                Some(OpRecord::ReshardMerge(a.parse().ok()?, b.parse().ok()?))
            }
            ["quota", q] => Some(OpRecord::Quota(q.parse().ok()?)),
            ["checkpoint", crc, len] => Some(OpRecord::Checkpoint {
                crc: crc.parse().ok()?,
                len: len.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// The six submission fields in wire `SUBMIT` order.
struct SpecFields<'a>(&'a TaskSpec);

impl fmt::Display for SpecFields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = self.0;
        write!(
            f,
            "{} {} {} {} {} {}",
            spec.device_pos.x,
            spec.device_pos.y,
            spec.device_facing.radians(),
            spec.end_slot,
            spec.required_energy,
            spec.weight
        )
    }
}

fn parse_spec(fields: &[&str]) -> Option<TaskSpec> {
    match fields {
        [x, y, facing, end, energy, weight] => Some(TaskSpec {
            device_pos: Vec2::new(x.parse().ok()?, y.parse().ok()?),
            device_facing: Angle::from_radians(facing.parse().ok()?),
            end_slot: end.parse().ok()?,
            required_energy: energy.parse().ok()?,
            weight: weight.parse().ok()?,
        }),
        _ => None,
    }
}

/// One tenant's operation log since `LOAD` — or since the `RESTORE` that
/// seeded it with the accepted view of the history since that document's
/// `LOAD`, rebuilt from its shard sections and arrival runs.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    records: Vec<OpRecord>,
    /// Records before this index reached the write-ahead log, came from
    /// it, or need not reach it.
    logged: usize,
    /// `Tick` records: the tenant's clock.
    ticks: usize,
    /// `Submit` records.
    accepted: usize,
    /// `Submit` records since the last `Tick`.
    open: usize,
}

impl OpLog {
    /// A log holding `records`, all of them already durable (a restored
    /// document's history is covered by the checkpoint that follows).
    pub(crate) fn new(records: Vec<OpRecord>) -> OpLog {
        let mut log = OpLog::default();
        for record in &records {
            log.count(record);
        }
        log.logged = records.len();
        log.records = records;
        log
    }

    /// Appends one applied record.
    pub(crate) fn push(&mut self, record: OpRecord) {
        self.count(&record);
        self.records.push(record);
    }

    /// Moves the slot counts past `record`.
    fn count(&mut self, record: &OpRecord) {
        match record {
            OpRecord::Tick => {
                self.ticks += 1;
                self.open = 0;
            }
            OpRecord::Submit(_) => {
                self.accepted += 1;
                self.open += 1;
            }
            _ => {}
        }
    }

    /// Number of records; the cursor a baseline taken now sits at.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// The tenant's virtual clock: the slots closed since `LOAD`. Healthy
    /// shards follow it in lockstep and a down shard rejoins to it by
    /// replay, so it stays right while children are dead.
    pub(crate) fn clock(&self) -> usize {
        self.ticks
    }

    /// Accepted submissions since `LOAD`.
    pub(crate) fn accepted_count(&self) -> usize {
        self.accepted
    }

    /// Accepted submissions in the open slot.
    pub(crate) fn open_count(&self) -> usize {
        self.open
    }

    /// The open slot's accepted submissions, latest first.
    pub(crate) fn open_slot(&self) -> impl Iterator<Item = &TaskSpec> {
        self.records
            .iter()
            .rev()
            .take_while(|record| !matches!(record, OpRecord::Tick))
            .filter_map(|record| match record {
                OpRecord::Submit(spec) => Some(spec),
                _ => None,
            })
    }

    /// The accepted submissions and ticks, in order: what `RESHARD`
    /// replays into rebuilt cells, and what the composite snapshot's
    /// arrival runs encode.
    pub(crate) fn accepted(&self) -> impl Iterator<Item = &OpRecord> {
        self.records
            .iter()
            .filter(|record| matches!(record, OpRecord::Submit(_) | OpRecord::Tick))
    }

    /// The records after `cursor` that a cell's child answered, where
    /// `owns` tells which device positions route to that cell: every
    /// tick (a slot the child missed while down included), each
    /// submission routed there and accepted, and each one its engine
    /// refused. Quota refusals never left the router and `unavailable`
    /// ones never reached a live child, so a restarted child replays
    /// neither.
    ///
    /// `owns` tests positions against the child's *current* cell: a
    /// child's rect is fixed from its baseline on (a reshard rebuilds
    /// the cells it changes, with new baselines), and in a tiling the
    /// rect containing a position does not depend on the other cells.
    pub(crate) fn answered<'a>(
        &'a self,
        cursor: usize,
        owns: impl Fn(Vec2) -> bool + 'a,
    ) -> impl Iterator<Item = &'a OpRecord> + 'a {
        self.records
            .get(cursor..)
            .unwrap_or(&[])
            .iter()
            .filter(move |record| match record {
                OpRecord::Tick => true,
                OpRecord::Submit(spec) => owns(spec.device_pos),
                OpRecord::Reject { code, spec } => {
                    !matches!(code, ErrCode::Quota | ErrCode::Unavailable) && owns(spec.device_pos)
                }
                _ => false,
            })
    }

    /// The records pushed since the previous call, which the caller
    /// appends to the write-ahead log (or discards on a volatile tenant).
    pub(crate) fn unlogged(&mut self) -> &[OpRecord] {
        let from = self.logged;
        self.logged = self.records.len();
        self.records.get(from..).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(x: f64) -> TaskSpec {
        TaskSpec {
            device_pos: Vec2::new(x, 50.0),
            device_facing: Angle::from_radians(0.5),
            end_slot: 6,
            required_energy: 900.0,
            weight: 1.0,
        }
    }

    #[test]
    fn a_child_replays_what_its_cell_answered_after_its_cursor() {
        let mut log = OpLog::default();
        for record in [
            OpRecord::Submit(spec(10.0)),
            OpRecord::Tick,
            OpRecord::Submit(spec(150.0)),
            OpRecord::Reject {
                code: ErrCode::Overload,
                spec: spec(160.0),
            },
            OpRecord::Reject {
                code: ErrCode::Quota,
                spec: spec(170.0),
            },
            OpRecord::Reject {
                code: ErrCode::Unavailable,
                spec: spec(180.0),
            },
            OpRecord::Reject {
                code: ErrCode::Overload,
                spec: spec(20.0),
            },
            OpRecord::ReshardSplit(0),
            OpRecord::Quota(4),
            OpRecord::Tick,
        ] {
            log.push(record);
        }
        let east = |pos: Vec2| pos.x >= 100.0;
        let replay: Vec<OpRecord> = log.answered(1, east).copied().collect();
        assert_eq!(
            replay,
            vec![
                OpRecord::Tick,
                OpRecord::Submit(spec(150.0)),
                OpRecord::Reject {
                    code: ErrCode::Overload,
                    spec: spec(160.0),
                },
                OpRecord::Tick,
            ]
        );
        assert_eq!(log.answered(log.len(), east).count(), 0);
        assert_eq!(log.answered(log.len() + 1, east).count(), 0);

        // The accepted view drops every refusal and topology record.
        let accepted: Vec<OpRecord> = log.accepted().copied().collect();
        assert_eq!(
            accepted,
            vec![
                OpRecord::Submit(spec(10.0)),
                OpRecord::Tick,
                OpRecord::Submit(spec(150.0)),
                OpRecord::Tick,
            ]
        );
    }

    #[test]
    fn the_counts_follow_the_records_however_the_log_was_built() {
        let records = [
            OpRecord::Submit(spec(1.0)),
            OpRecord::Tick,
            OpRecord::Submit(spec(2.0)),
            OpRecord::Reject {
                code: ErrCode::Quota,
                spec: spec(3.0),
            },
            OpRecord::ReshardSplit(0),
            OpRecord::Submit(spec(4.0)),
        ];
        let mut pushed = OpLog::default();
        for record in records {
            pushed.push(record);
        }
        let built = OpLog::new(records.to_vec());
        for log in [&pushed, &built] {
            assert_eq!(
                (log.clock(), log.accepted_count(), log.open_count()),
                (1, 3, 2)
            );
            let open: Vec<f64> = log.open_slot().map(|spec| spec.device_pos.x).collect();
            assert_eq!(open, vec![4.0, 2.0]);
        }
        pushed.push(OpRecord::Tick);
        assert_eq!((pushed.clock(), pushed.open_count()), (2, 0));
        assert_eq!(pushed.open_slot().count(), 0);
    }

    #[test]
    fn unlogged_hands_out_each_record_once() {
        let mut log = OpLog::new(vec![OpRecord::Tick]);
        assert!(log.unlogged().is_empty());
        log.push(OpRecord::Submit(spec(1.0)));
        log.push(OpRecord::Tick);
        assert_eq!(
            log.unlogged(),
            &[OpRecord::Submit(spec(1.0)), OpRecord::Tick]
        );
        assert!(log.unlogged().is_empty());
    }
}
