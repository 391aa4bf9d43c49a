//! The router's durability layer: a per-tenant, append-only, CRC32-framed
//! write-ahead log plus checkpoint files, written under
//! `routerd --wal-dir DIR`.
//!
//! The log is the durable sink of the tenant's operation log (the
//! router's `OpLog`): each request appends, in one write, the records
//! it pushed there — an accepted or rejected `SUBMIT` (batch records
//! individually), a `TICK` slot close, a `RESHARD` split/merge, a
//! `TENANT` quota change — in the exact order the router applied them
//! (the router lock serializes both), written by the one record codec
//! (`OpRecord`'s `Display` and [`OpRecord::parse`]).
//! `LOAD` and `RESTORE` do not append; they write a **checkpoint**: the
//! tenant's composite v4 snapshot document (the very bytes the
//! operator-facing `SNAPSHOT` verb returns, each task stored once),
//! written to a temp file, fsynced,
//! atomically renamed, after which the log truncates back to its
//! header. Recovery is therefore always *newest valid checkpoint +
//! replay of the log tail*, and the determinism contract makes the
//! replayed tenant bit-identical to the one that crashed.
//!
//! The log format is designed for torn writes: a fixed text header
//! followed by binary frames `len:u32_be | crc32:u32_be | payload`,
//! where the payload is one UTF-8 operation line. A crash can only ever
//! tear the final frame; [`scan_wal`] walks frames until the first
//! invalid one (short header, absurd length, CRC mismatch, unparsable
//! payload) and reports the byte length of the valid prefix, which
//! recovery truncates to. Scanning never panics on arbitrary bytes.
//!
//! Fsync policy is explicit ([`WalSync`]): `always` syncs after every
//! append (each ack is durable), `every-tick` syncs only when a `TICK`
//! record lands (a crash may lose acked submissions of the open slot,
//! never a closed one). DESIGN.md §14 has the full durability argument.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::oplog::OpRecord;

/// The WAL's name for an [`OpRecord`]: each log frame's payload is one
/// record line.
pub use crate::oplog::OpRecord as WalRecord;

/// First bytes of every log file; a file that does not start with this
/// header is treated as having no valid records at all.
pub const WAL_MAGIC: &[u8] = b"# haste-wal v1\n";

/// Upper bound on one record's payload, far above any real operation
/// line. A length prefix past this is corruption, not a long record.
pub const MAX_RECORD: usize = 1 << 20;

/// Default automatic-checkpoint threshold: a checkpoint is attempted at
/// the next slot close once this many records accumulated since the
/// last one.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 1024;

/// When appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// fsync after every append: an acked operation is always durable.
    Always,
    /// fsync when a `TICK` record is appended (and at checkpoints): a
    /// crash can lose acked submissions of the still-open slot, but
    /// never an operation of a closed slot.
    EveryTick,
}

impl WalSync {
    /// Parses the `--wal-sync` flag values `always` / `every-tick`.
    pub fn parse(text: &str) -> Option<WalSync> {
        match text {
            "always" => Some(WalSync::Always),
            "every-tick" => Some(WalSync::EveryTick),
            _ => None,
        }
    }

    /// The flag token this policy parses from.
    pub fn as_str(self) -> &'static str {
        match self {
            WalSync::Always => "always",
            WalSync::EveryTick => "every-tick",
        }
    }
}

/// Durability settings of a router (see [`crate::RouterConfig::wal`]).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the per-tenant `<id>.wal` / `<id>.ckpt` files;
    /// created if absent.
    pub dir: PathBuf,
    /// Fsync policy for appended records.
    pub sync: WalSync,
    /// Automatic-checkpoint threshold in records (see
    /// [`DEFAULT_CHECKPOINT_EVERY`]). Zero disables automatic
    /// checkpoints (explicit `SNAPSHOT`s still write them).
    pub checkpoint_every: usize,
}

impl WalConfig {
    /// Durability under `dir` with the default `every-tick` fsync policy
    /// and checkpoint threshold.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            sync: WalSync::EveryTick,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/PNG polynomial), hand-rolled: the
// workspace builds fully offline.
// ----------------------------------------------------------------------

/// The slicing-by-8 tables: the first is the bytewise table, and each
/// next one advances the previous by one more zero byte, so eight bytes
/// fold in with eight independent lookups. 8 KB, built at compile time.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut base = [0u32; 256];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        base[n] = c;
        n += 1;
    }
    let mut tables = [base; 8];
    let mut table = 1;
    while table < 8 {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[table - 1][n];
            tables[table][n] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            n += 1;
        }
        table += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// The IEEE CRC-32 of `bytes` (polynomial `0xEDB88320`, reflected,
/// init/xorout `!0`) — the framing checksum of every log record and the
/// checkpoint marker's document hash. Slicing-by-8: eight bytes per step,
/// the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        if let [b0, b1, b2, b3, b4, b5, b6, b7] = *chunk {
            let low = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
            c = t7[(low & 0xFF) as usize]
                ^ t6[((low >> 8) & 0xFF) as usize]
                ^ t5[((low >> 16) & 0xFF) as usize]
                ^ t4[(low >> 24) as usize]
                ^ t3[usize::from(b4)]
                ^ t2[usize::from(b5)]
                ^ t1[usize::from(b6)]
                ^ t0[usize::from(b7)];
        }
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t0[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Frames one payload as it appears in the log:
/// `len:u32_be | crc32:u32_be | payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    push_frame(&mut out, payload);
    out
}

/// Appends one [`frame`] of `payload` to `out`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// What a scan of raw log bytes found: the records of the valid prefix,
/// the byte length of that prefix (header included — the truncation
/// point for a torn log), and why the scan stopped early, if it did.
#[derive(Debug)]
pub struct WalScan {
    /// Records of the valid prefix, in append order.
    pub records: Vec<OpRecord>,
    /// Byte length of the valid prefix. Equal to the input length when
    /// the whole log is valid; `0` when even the header is wrong.
    pub valid_len: usize,
    /// Why the scan stopped before the end (`None` = clean log).
    pub truncated: Option<String>,
}

/// Walks the framed records of a log byte-for-byte, stopping at the
/// first invalid frame. Total: any byte string yields a scan, never a
/// panic — the recovery path for torn and corrupted logs.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalScan {
            records: Vec::new(),
            valid_len: 0,
            truncated: Some("missing or torn log header".to_string()),
        };
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let truncated = loop {
        if offset == bytes.len() {
            break None;
        }
        let Some(header) = bytes.get(offset..offset + 8) else {
            break Some(format!("torn frame header at byte {offset}"));
        };
        let (len_bytes, crc_bytes) = header.split_at(4);
        let len = u32::from_be_bytes(match len_bytes.try_into() {
            Ok(array) => array,
            Err(_) => break Some(format!("torn frame header at byte {offset}")),
        }) as usize;
        let stored_crc = u32::from_be_bytes(match crc_bytes.try_into() {
            Ok(array) => array,
            Err(_) => break Some(format!("torn frame header at byte {offset}")),
        });
        if len == 0 || len > MAX_RECORD {
            break Some(format!("absurd frame length {len} at byte {offset}"));
        }
        let Some(payload) = bytes.get(offset + 8..offset + 8 + len) else {
            break Some(format!("torn frame payload at byte {offset}"));
        };
        if crc32(payload) != stored_crc {
            break Some(format!("CRC mismatch at byte {offset}"));
        }
        let Ok(line) = std::str::from_utf8(payload) else {
            break Some(format!("non-UTF-8 payload at byte {offset}"));
        };
        let Some(record) = OpRecord::parse(line.trim_end()) else {
            break Some(format!(
                "unparsable record `{}` at byte {offset}",
                line.trim_end()
            ));
        };
        records.push(record);
        offset += 8 + len;
    };
    WalScan {
        records,
        valid_len: offset,
        truncated,
    }
}

// ----------------------------------------------------------------------
// Per-tenant files
// ----------------------------------------------------------------------

fn log_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.wal"))
}

fn checkpoint_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.ckpt"))
}

fn checkpoint_tmp_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.ckpt.tmp"))
}

/// Fsyncs the directory itself so a just-renamed checkpoint survives a
/// crash of the file system cache (POSIX durability of `rename`).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The open write-ahead log of one tenant: an append handle on the log
/// file plus the checkpoint bookkeeping.
pub struct TenantWal {
    dir: PathBuf,
    tenant: String,
    file: File,
    /// Records appended since the last checkpoint (drives the automatic
    /// checkpoint threshold).
    pub ops_since_checkpoint: usize,
}

impl TenantWal {
    /// Creates (or truncates) the tenant's log with a fresh header — the
    /// `LOAD`/`RESTORE` path, immediately followed by a checkpoint.
    pub fn create(dir: &Path, tenant: &str) -> io::Result<TenantWal> {
        std::fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(log_path(dir, tenant))?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        Ok(TenantWal {
            dir: dir.to_path_buf(),
            tenant: tenant.to_string(),
            file,
            ops_since_checkpoint: 0,
        })
    }

    /// Re-opens a recovered tenant's log for appending after recovery
    /// truncated it to `valid_len` bytes holding `tail_ops` records.
    pub fn open_recovered(
        dir: &Path,
        tenant: &str,
        valid_len: usize,
        tail_ops: usize,
    ) -> io::Result<TenantWal> {
        let path = log_path(dir, tenant);
        // `create(true)`: a checkpoint with no log at all (the file was
        // lost after the crash) recovers as an empty tail, so appends
        // need a fresh log — `valid_len` is 0 and the header is
        // rewritten below. `truncate(false)`: the surviving prefix of an
        // existing log must be kept; `set_len` below cuts exactly the
        // torn suffix.
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        // Drop the torn suffix (no-op on a clean log); `valid_len` of 0
        // means even the header was bad — rewrite it.
        file.set_len(valid_len as u64)?;
        let mut wal = TenantWal {
            dir: dir.to_path_buf(),
            tenant: tenant.to_string(),
            file,
            ops_since_checkpoint: tail_ops,
        };
        use std::io::Seek;
        wal.file.seek(io::SeekFrom::End(0))?;
        if valid_len == 0 {
            wal.file.write_all(WAL_MAGIC)?;
        }
        wal.file.sync_all()?;
        Ok(wal)
    }

    /// Appends records without fsyncing (the caller decides the sync
    /// point from the [`WalSync`] policy). One `write_all` per call, so
    /// a batch tears at most once.
    pub fn append(&mut self, records: &[OpRecord]) -> io::Result<()> {
        use std::fmt::Write as _;
        // Each record renders into one reused line and frames straight
        // into the batch (a `submit` frame runs about 90 bytes).
        let mut bytes = Vec::with_capacity(records.len() * 96);
        let mut line = String::new();
        for record in records {
            line.clear();
            let _ = write!(line, "{record}");
            push_frame(&mut bytes, line.as_bytes());
        }
        self.file.write_all(&bytes)?;
        self.ops_since_checkpoint += records.len();
        Ok(())
    }

    /// Fsyncs the log — the durability point of every acked operation
    /// since the previous sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Writes `composite` as the tenant's checkpoint, then truncates the
    /// log back to its header and re-seeds it with the tenant's quota —
    /// the only piece of front-door state the composite document does
    /// not carry. Recovery from the resulting pair replays nothing.
    ///
    /// Crash-safe in three ordered steps, each durable before the next
    /// starts: (1) a [`OpRecord::Checkpoint`] marker naming the document
    /// by CRC and length is appended and fsynced, (2) the document is
    /// written to a temp file, fsynced, atomically renamed over the
    /// `.ckpt` path, and the directory fsynced, (3) the log truncates and
    /// re-seeds. A crash after (2) leaves the new checkpoint with the old
    /// log — but the matching marker tells recovery to discard everything
    /// before it; a crash before (2) leaves the old checkpoint, and the
    /// marker (matching nothing) replays as a no-op.
    pub fn checkpoint(&mut self, composite: &str, quota: Option<u64>) -> io::Result<()> {
        self.append(&[OpRecord::Checkpoint {
            crc: crc32(composite.as_bytes()),
            len: composite.len(),
        }])?;
        self.file.sync_all()?;
        let tmp = checkpoint_tmp_path(&self.dir, &self.tenant);
        let mut out = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        out.write_all(composite.as_bytes())?;
        out.sync_all()?;
        drop(out);
        std::fs::rename(&tmp, checkpoint_path(&self.dir, &self.tenant))?;
        sync_dir(&self.dir)?;
        self.file.set_len(0)?;
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(0))?;
        let mut reseed = WAL_MAGIC.to_vec();
        if let Some(q) = quota {
            reseed.extend_from_slice(&frame(OpRecord::Quota(q).to_string().as_bytes()));
        }
        self.file.write_all(&reseed)?;
        self.ops_since_checkpoint = 0;
        self.file.sync_all()
    }
}

/// One tenant as found on disk at recovery: its checkpoint document and
/// the valid log tail to replay on top of it.
pub struct RecoveredTenant {
    /// Tenant id (derived from the checkpoint file name).
    pub tenant: String,
    /// The checkpoint's composite snapshot document.
    pub checkpoint: String,
    /// The valid log records appended after that checkpoint: everything
    /// past the last [`OpRecord::Checkpoint`] marker matching the
    /// checkpoint document, or the whole valid prefix if no marker
    /// matches (the log was already truncated, or the crash landed
    /// before the checkpoint's rename).
    pub tail: Vec<OpRecord>,
    /// Byte length of the valid log prefix (the file is truncated to
    /// this before appends resume).
    pub valid_len: usize,
    /// Why the log scan stopped early (`None` = the log was clean).
    pub truncated: Option<String>,
}

/// Scans a WAL directory for recoverable tenants: every `<id>.ckpt`
/// file, paired with the valid prefix of its `<id>.wal` log (a missing
/// log is an empty tail — the crash happened right after a checkpoint).
/// Stale `.ckpt.tmp` files (a crash mid-checkpoint-write) are removed;
/// torn log suffixes are truncated away on the spot. Tenants come back
/// in id order.
pub fn recover_dir(dir: &Path) -> io::Result<Vec<RecoveredTenant>> {
    let mut recovered = Vec::new();
    if !dir.is_dir() {
        return Ok(recovered);
    }
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".ckpt.tmp") {
            // A checkpoint that never completed its atomic rename: the
            // previous (fully written) checkpoint is still the newest
            // valid one, so the partial file is just noise.
            let _ = stem;
            std::fs::remove_file(entry.path())?;
            continue;
        }
        if let Some(stem) = name.strip_suffix(".ckpt") {
            names.push(stem.to_string());
        }
    }
    names.sort();
    for tenant in names {
        let checkpoint = std::fs::read_to_string(checkpoint_path(dir, &tenant))?;
        let mut bytes = Vec::new();
        match File::open(log_path(dir, &tenant)) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let scan = scan_wal(&bytes);
        // A crash between a checkpoint's atomic rename and its log
        // truncation leaves the pre-checkpoint records in the log; the
        // marker the checkpoint fsynced first says where its state
        // actually begins.
        let ckpt_crc = crc32(checkpoint.as_bytes());
        let cut = scan.records.iter().rposition(
            |record| matches!(record, OpRecord::Checkpoint { crc, len } if *crc == ckpt_crc && *len == checkpoint.len()),
        );
        let tail = match cut {
            Some(marker) => scan.records.get(marker + 1..).unwrap_or(&[]).to_vec(),
            None => scan.records,
        };
        recovered.push(RecoveredTenant {
            tenant,
            checkpoint,
            tail,
            valid_len: scan.valid_len,
            truncated: scan.truncated,
        });
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrCode;
    use haste_distributed::TaskSpec;
    use haste_geometry::{Angle, Vec2};

    fn spec(x: f64) -> TaskSpec {
        TaskSpec {
            device_pos: Vec2::new(x, 42.5),
            device_facing: Angle::from_radians(1.25),
            end_slot: 7,
            required_energy: 1500.125,
            weight: 0.1,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Quota(12),
            WalRecord::Submit(spec(30.75)),
            WalRecord::Reject {
                code: ErrCode::Overload,
                spec: spec(130.5),
            },
            WalRecord::Tick,
            WalRecord::ReshardSplit(0),
            WalRecord::Submit(spec(99.0625)),
            WalRecord::ReshardMerge(0, 1),
            WalRecord::Checkpoint {
                crc: 0xDEAD_BEEF,
                len: 4096,
            },
            WalRecord::Tick,
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("haste-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_roundtrip_through_render_and_parse() {
        for record in sample_records() {
            let line = record.to_string();
            assert_eq!(WalRecord::parse(&line), Some(record), "{line}");
        }
        // Shortest-roundtrip floats survive exactly, including awkward ones.
        let awkward = WalRecord::Submit(TaskSpec {
            device_pos: Vec2::new(0.1 + 0.2, -0.0),
            device_facing: Angle::from_radians(std::f64::consts::PI),
            end_slot: usize::MAX,
            required_energy: f64::MIN_POSITIVE,
            weight: 1.0 / 3.0,
        });
        assert_eq!(WalRecord::parse(&awkward.to_string()), Some(awkward));
        // A refusal records the spec as sent, non-finite fields included.
        let refused = WalRecord::Reject {
            code: ErrCode::BadTask,
            spec: TaskSpec {
                required_energy: f64::INFINITY,
                ..spec(1.0)
            },
        };
        assert_eq!(WalRecord::parse(&refused.to_string()), Some(refused));
    }

    #[test]
    fn malformed_record_lines_are_rejected() {
        for bad in [
            "",
            "submit",
            "submit 1 2 3 4 5",
            "submit 1 2 3 4 5 6 7",
            "submit a 2 3 4 5 6",
            "reject",
            "reject overload 1 2 3 4 5",
            "reject no-such-code 1 2 3 4 5 6",
            // Admission never accepts a non-finite field, so neither
            // does the parser: a replayed submit is one the front door
            // and `RESTORE` would take.
            "submit 40 50 NaN 11 1000 1",
            "submit inf 50 0 11 1000 1",
            "submit 40 50 0 11 NaN 1",
            "submit 40 50 0 11 1000 -inf",
            "tick 2",
            "reshard",
            "reshard split",
            "reshard split x",
            "reshard merge 1",
            "quota",
            "quota -1",
            "quota x",
            "checkpoint",
            "checkpoint 1",
            "checkpoint 1 2 3",
            "checkpoint x 2",
            "unknown 1 2",
        ] {
            assert_eq!(WalRecord::parse(bad), None, "`{bad}` must not parse");
        }
    }

    #[test]
    fn crc32_matches_the_reference_vectors() {
        // The canonical IEEE test vector plus a couple of anchors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"tick"), crc32(b"tick"));
        assert_ne!(crc32(b"tick"), crc32(b"tock"));
    }

    /// The one-lookup-per-byte CRC-32 the slicing form must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let [table, ..] = &CRC32_TABLES;
        let mut c = !0u32;
        for &b in bytes {
            c = (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize];
        }
        !c
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // A seeded 1 MB buffer (64-bit LCG, high bytes).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buffer: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
        // Every length 0–64 at every offset 0–7: each split of the
        // eight-byte body and the bytewise tail, at every alignment.
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} length {len}"
                );
            }
        }
    }

    /// Builds a log image in memory: header + framed records.
    fn log_image(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for record in records {
            bytes.extend_from_slice(&frame(record.to_string().as_bytes()));
        }
        bytes
    }

    #[test]
    fn a_clean_log_scans_completely() {
        let records = sample_records();
        let bytes = log_image(&records);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len());
        assert!(scan.truncated.is_none());
    }

    #[test]
    fn every_truncation_recovers_the_longest_valid_prefix() {
        let records = sample_records();
        let bytes = log_image(&records);
        // Frame boundaries: after the header, then after each record.
        let mut boundaries = vec![WAL_MAGIC.len()];
        let mut offset = WAL_MAGIC.len();
        for record in &records {
            offset += 8 + record.to_string().len();
            boundaries.push(offset);
        }
        assert_eq!(offset, bytes.len());
        for cut in 0..=bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            let complete = boundaries.iter().filter(|&&b| b <= cut).count();
            if complete == 0 {
                // Not even the header fits: nothing valid at all.
                assert_eq!(scan.valid_len, 0, "cut {cut}");
                assert!(scan.records.is_empty(), "cut {cut}");
            } else {
                let records_in = complete - 1;
                assert_eq!(scan.records, records[..records_in], "cut {cut}");
                assert_eq!(scan.valid_len, boundaries[records_in], "cut {cut}");
            }
            // Truncation is reported exactly when bytes were dropped —
            // including a cut inside the header, where nothing is valid.
            let dropped = scan.valid_len != cut || cut < WAL_MAGIC.len();
            assert_eq!(scan.truncated.is_some(), dropped, "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught_and_truncates() {
        let records = vec![
            WalRecord::Submit(spec(10.0)),
            WalRecord::Tick,
            WalRecord::Submit(spec(20.0)),
        ];
        let bytes = log_image(&records);
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let scan = scan_wal(&corrupt);
            // Never a panic, never more records than were written, and
            // the valid prefix stops at a frame boundary.
            assert!(scan.records.len() <= records.len(), "bit {bit}");
            if bit < WAL_MAGIC.len() * 8 {
                assert_eq!(scan.valid_len, 0, "header bit {bit}");
            }
            // A flip can only ever damage the frame it lands in; earlier
            // records must survive verbatim.
            let damaged_frame = if bit < WAL_MAGIC.len() * 8 {
                0
            } else {
                let mut offset = WAL_MAGIC.len();
                let mut frame_index = records.len();
                for (index, record) in records.iter().enumerate() {
                    let end = offset + 8 + record.to_string().len();
                    if bit / 8 < end {
                        frame_index = index;
                        break;
                    }
                    offset = end;
                }
                frame_index
            };
            if bit >= WAL_MAGIC.len() * 8 {
                assert!(
                    scan.records.len() >= damaged_frame.min(records.len()),
                    "bit {bit}: records before the damaged frame went missing"
                );
                for (a, b) in scan.records.iter().zip(records.iter()).take(damaged_frame) {
                    assert_eq!(a, b, "bit {bit}");
                }
            }
        }
    }

    #[test]
    fn spliced_and_trailing_garbage_is_dropped_at_the_splice_point() {
        let records = sample_records();
        let mut bytes = log_image(&records[..3]);
        let clean_len = bytes.len();
        // A half record followed by a whole valid one: the torn frame
        // ends the valid prefix, the valid-looking tail never counts.
        let torn = frame(WalRecord::Tick.to_string().as_bytes());
        bytes.extend_from_slice(&torn[..5]);
        bytes.extend_from_slice(&frame(WalRecord::Quota(3).to_string().as_bytes()));
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, records[..3]);
        assert_eq!(scan.valid_len, clean_len);
        assert!(scan.truncated.is_some());

        // A correctly-CRC'd frame whose payload is not an operation line
        // is corruption too, not a record.
        let mut bytes = log_image(&records[..2]);
        let clean_len = bytes.len();
        bytes.extend_from_slice(&frame(b"definitely not an op"));
        bytes.extend_from_slice(&frame(WalRecord::Tick.to_string().as_bytes()));
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, records[..2]);
        assert_eq!(scan.valid_len, clean_len);
        assert!(scan.truncated.is_some());
    }

    #[test]
    fn append_checkpoint_and_recover_roundtrip_on_disk() {
        let dir = temp_dir("roundtrip");
        let mut wal = TenantWal::create(&dir, "acme").unwrap();
        wal.append(&sample_records()).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.ops_since_checkpoint, sample_records().len());

        // No checkpoint yet: the tenant is invisible to recovery (a
        // crash mid-LOAD, before the first checkpoint, never acked).
        assert!(recover_dir(&dir).unwrap().is_empty());

        wal.checkpoint("# pretend composite\n", Some(9)).unwrap();
        assert_eq!(wal.ops_since_checkpoint, 0);
        wal.append(&[WalRecord::Tick]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].tenant, "acme");
        assert_eq!(recovered[0].checkpoint, "# pretend composite\n");
        // The quota re-seed survives the truncation, then the tick.
        assert_eq!(
            recovered[0].tail,
            vec![WalRecord::Quota(9), WalRecord::Tick]
        );
        assert!(recovered[0].truncated.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_truncated_on_disk_and_appends_resume_cleanly() {
        let dir = temp_dir("torn");
        let mut wal = TenantWal::create(&dir, "acme").unwrap();
        wal.checkpoint("ckpt\n", None).unwrap();
        wal.append(&[WalRecord::Tick, WalRecord::Quota(5)]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Tear the final record: chop 3 bytes off the file.
        let path = dir.join("acme.wal");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].tail, vec![WalRecord::Tick]);
        assert!(recovered[0].truncated.is_some());

        // Re-open at the valid boundary, truncate, append again: the log
        // is clean afterwards.
        let mut wal = TenantWal::open_recovered(
            &dir,
            "acme",
            recovered[0].valid_len,
            recovered[0].tail.len(),
        )
        .unwrap();
        wal.append(&[WalRecord::Tick]).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.ops_since_checkpoint, 2);
        drop(wal);
        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered[0].tail, vec![WalRecord::Tick, WalRecord::Tick]);
        assert!(recovered[0].truncated.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_between_checkpoint_rename_and_truncation_discards_the_stale_tail() {
        let dir = temp_dir("stale-tail");
        let mut wal = TenantWal::create(&dir, "acme").unwrap();
        wal.checkpoint("old state\n", None).unwrap();
        wal.append(&[WalRecord::Tick, WalRecord::Tick]).unwrap();
        wal.sync().unwrap();
        // Simulate a checkpoint that crashed right after its atomic
        // rename: marker fsynced, new document installed, log untouched.
        let new_doc = "new state\n";
        wal.append(&[WalRecord::Checkpoint {
            crc: crc32(new_doc.as_bytes()),
            len: new_doc.len(),
        }])
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        std::fs::write(dir.join("acme.ckpt"), new_doc).unwrap();

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].checkpoint, new_doc);
        // The ticks predate the installed checkpoint: replaying them on
        // top of it would double-apply. The marker cuts them away.
        assert!(recovered[0].tail.is_empty(), "stale tail must be dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_before_checkpoint_rename_replays_the_whole_tail() {
        let dir = temp_dir("pre-rename");
        let mut wal = TenantWal::create(&dir, "acme").unwrap();
        wal.checkpoint("old state\n", None).unwrap();
        wal.append(&[WalRecord::Tick]).unwrap();
        // Simulate a checkpoint that crashed after fsyncing its marker
        // but before the rename: the marker names a document that never
        // made it to disk.
        let doomed = "never installed\n";
        wal.append(&[WalRecord::Checkpoint {
            crc: crc32(doomed.as_bytes()),
            len: doomed.len(),
        }])
        .unwrap();
        wal.sync().unwrap();
        drop(wal);

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].checkpoint, "old state\n");
        // No marker matches the old document, so the whole tail replays;
        // the orphaned marker rides along as a replay no-op.
        assert_eq!(
            recovered[0].tail,
            vec![
                WalRecord::Tick,
                WalRecord::Checkpoint {
                    crc: crc32(doomed.as_bytes()),
                    len: doomed.len(),
                },
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stale_checkpoint_tmp_is_swept_and_the_real_checkpoint_wins() {
        let dir = temp_dir("tmp-sweep");
        let mut wal = TenantWal::create(&dir, "acme").unwrap();
        wal.checkpoint("the real one\n", None).unwrap();
        drop(wal);
        // A crash mid-checkpoint leaves a partial temp file behind.
        std::fs::write(dir.join("acme.ckpt.tmp"), "half-writ").unwrap();
        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].checkpoint, "the real one\n");
        assert!(!dir.join("acme.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
