//! Protocol v3: length-prefixed binary framing.
//!
//! A v3 connection starts as plain text — `HELLO v3` and its `OK` greeting
//! are ordinary lines, so an old daemon answers `ERR version` and the
//! stream is never misframed — and switches to frames right after the
//! greeting. Every frame is
//!
//! ```text
//! len:u32_be | opcode:u8 | body[len - 1]
//! ```
//!
//! where `len` counts the opcode byte plus the body. Client→server frames
//! carry either a verbatim text request ([`OP_TEXT`]: the request line, a
//! newline, then any embedded payload lines — `LOAD`/`RESTORE` documents
//! travel inside the frame instead of as trailing lines) or a batched
//! submission ([`OP_BATCH`]: a record count and fixed 48-byte task
//! records). Server→client frames carry one verbatim text reply
//! ([`OP_REPLY`]: the exact bytes [`Reply::serialize`] produces, so every
//! float keeps its shortest-roundtrip text form and the D3-audited
//! formatting paths stay the only float serializers) or the vectored ack
//! of a batch ([`OP_BATCH_ACK`]). Task positions and weights cross the
//! wire as raw big-endian IEEE-754 bits — lossless by construction, no
//! parsing on the hot path.
//!
//! Framing violations (zero-length or oversized frames, unknown opcodes,
//! malformed batch bodies) get a structured `ERR bad-request` reply and
//! close the connection: past a framing error the stream cannot be
//! resynchronized, exactly like a truncated text payload. This module is
//! the codec; the framed connection loop is the front door's
//! ([`crate::front`]).

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::{Buf, BufMut, BytesMut};
use haste_distributed::TaskSpec;
use haste_geometry::{Angle, Vec2};

use crate::proto::{ErrCode, Reply, Request, VERSION_V3};

/// Client→server: a text request line plus its embedded payload lines.
pub(crate) const OP_TEXT: u8 = 0x01;
/// Client→server: a batched `SUBMIT` — many task records, one frame.
pub(crate) const OP_BATCH: u8 = 0x02;
/// Server→client: one verbatim text reply (`OK`/`DATA`/`ERR`).
pub(crate) const OP_REPLY: u8 = 0x81;
/// Server→client: the vectored ack of an `OP_BATCH` frame.
pub(crate) const OP_BATCH_ACK: u8 = 0x82;

/// Upper bound on a frame's `len` field. Generous (a snapshot of the
/// largest supported scenario fits with room to spare) but finite, so a
/// desynchronized or hostile peer cannot make the daemon allocate
/// gigabytes off four bytes of garbage.
pub(crate) const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes per [`OP_BATCH`] task record: six 8-byte big-endian fields
/// (`x`, `y`, `facing` as raw f64 bits, `end_slot` as u64, `energy`,
/// `weight` as raw f64 bits).
pub(crate) const BATCH_RECORD_LEN: usize = 48;

/// One complete frame, opcode split off the body.
pub(crate) struct Frame {
    pub(crate) opcode: u8,
    pub(crate) body: Vec<u8>,
}

/// Outcome of a server-side frame read.
pub(crate) enum FrameRead {
    /// A complete frame.
    Frame(Frame),
    /// EOF or shutdown — close quietly.
    Closed,
    /// The peer violated the framing contract; reply `ERR bad-request`
    /// with this reason and close.
    Violation(String),
}

/// Per-record outcome inside an [`OP_BATCH_ACK`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BatchAck {
    /// Accepted: assigned task id and release slot.
    Ok {
        /// Assigned task id (global arrival index on a router).
        task: u64,
        /// Release slot.
        release: u64,
    },
    /// Rejected: stable `ErrCode` wire token and free-form message.
    Err {
        /// The `ErrCode` wire token.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl BatchAck {
    /// A rejection carrying a structured error code.
    pub(crate) fn rejected(code: ErrCode, message: impl Into<String>) -> BatchAck {
        BatchAck::Err {
            code: code.as_str().to_string(),
            message: message.into(),
        }
    }
}

/// Whether a just-served request line was a `HELLO v3` that the reply
/// accepted — the signal for a text connection loop to switch to frames.
pub(crate) fn upgrades_to_v3(line: &str, reply: &Reply) -> bool {
    matches!(reply, Reply::Ok(_))
        && matches!(Request::parse(line), Ok(Request::Hello(v)) if v == VERSION_V3)
}

/// Fills `buf` completely, polling the shutdown flag across read timeouts
/// (the frame-mode sibling of `read_line_polling`). Returns `false` on
/// EOF or shutdown — mid-frame EOF means the peer died; there is nothing
/// to salvage.
fn read_exact_polling<R: BufRead>(
    reader: &mut R,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame on the server side, polling the shutdown flag.
pub(crate) fn read_frame_polling<R: BufRead>(
    reader: &mut R,
    shutdown: &AtomicBool,
) -> std::io::Result<FrameRead> {
    let mut head = [0u8; 4];
    if !read_exact_polling(reader, &mut head, shutdown)? {
        return Ok(FrameRead::Closed);
    }
    let len = u32::from_be_bytes(head) as usize;
    if len == 0 {
        return Ok(FrameRead::Violation("zero-length frame".to_string()));
    }
    if len > MAX_FRAME {
        return Ok(FrameRead::Violation(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_polling(reader, &mut payload, shutdown)? {
        return Ok(FrameRead::Closed);
    }
    let mut buf: &[u8] = &payload;
    let opcode = buf.get_u8();
    Ok(FrameRead::Frame(Frame {
        opcode,
        body: buf.chunk().to_vec(),
    }))
}

/// Reads one frame on the client side: no shutdown flag, so a socket
/// timeout surfaces as its io error (the client maps it onto its request
/// deadline), EOF as `UnexpectedEof`, and a violated length prefix as
/// `InvalidData`.
pub(crate) fn read_frame<R: BufRead>(reader: &mut R) -> std::io::Result<Frame> {
    let mut head = [0u8; 4];
    reader.read_exact(&mut head)?;
    let len = u32::from_be_bytes(head) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    let mut buf: &[u8] = &payload;
    let opcode = buf.get_u8();
    Ok(Frame {
        opcode,
        body: buf.chunk().to_vec(),
    })
}

/// Writes one frame and flushes. Refuses bodies past [`MAX_FRAME`] so a
/// local caller bug cannot emit a frame no peer would accept.
pub(crate) fn write_frame<W: Write>(
    writer: &mut W,
    opcode: u8,
    body: &[u8],
) -> std::io::Result<()> {
    if body.len() + 1 > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the frame limit", body.len()),
        ));
    }
    let mut head = BytesMut::with_capacity(5);
    head.put_u32((body.len() + 1) as u32);
    head.put_u8(opcode);
    writer.write_all(&head)?;
    writer.write_all(body)?;
    writer.flush()
}

/// Writes a text reply inside an [`OP_REPLY`] frame — the exact bytes the
/// text protocol would have sent.
pub(crate) fn write_reply_frame<W: Write>(writer: &mut W, reply: &Reply) -> std::io::Result<()> {
    write_frame(writer, OP_REPLY, reply.serialize().as_bytes())
}

/// Splits an [`OP_TEXT`] body into its request line and the embedded
/// payload bytes that follow it (empty when the request carries none).
pub(crate) fn split_text_body(body: &[u8]) -> (String, &[u8]) {
    let (line, rest) = match body.iter().position(|&b| b == b'\n') {
        Some(newline) => {
            let (line, rest) = body.split_at(newline);
            (line, rest.get(1..).unwrap_or(&[]))
        }
        None => (body, &[] as &[u8]),
    };
    (String::from_utf8_lossy(line).trim_end().to_string(), rest)
}

/// Encodes a batched submission into an [`OP_BATCH`] body: a `u32` record
/// count, then [`BATCH_RECORD_LEN`]-byte records. Floats travel as raw
/// IEEE-754 bits — bit-lossless, so a batched task is indistinguishable
/// from its text `SUBMIT` twin once it reaches the engine.
pub(crate) fn encode_batch(specs: &[TaskSpec]) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(4 + specs.len() * BATCH_RECORD_LEN);
    body.put_u32(specs.len() as u32);
    for spec in specs {
        body.put_f64(spec.device_pos.x);
        body.put_f64(spec.device_pos.y);
        body.put_f64(spec.device_facing.radians());
        body.put_u64(spec.end_slot as u64);
        body.put_f64(spec.required_energy);
        body.put_f64(spec.weight);
    }
    body.into()
}

/// Decodes an [`OP_BATCH`] body. The count must agree exactly with the
/// body length — a mismatch means the stream (or the encoder) is broken,
/// and the caller closes the connection.
pub(crate) fn decode_batch(body: &[u8]) -> Result<Vec<TaskSpec>, String> {
    let mut buf: &[u8] = body;
    if buf.remaining() < 4 {
        return Err("batch body shorter than its record count".to_string());
    }
    let count = buf.get_u32() as usize;
    if buf.remaining() != count * BATCH_RECORD_LEN {
        return Err(format!(
            "batch of {count} records needs {} body bytes, got {}",
            count * BATCH_RECORD_LEN,
            buf.remaining()
        ));
    }
    let mut specs = Vec::with_capacity(count);
    for _ in 0..count {
        let x = buf.get_f64();
        let y = buf.get_f64();
        let facing = buf.get_f64();
        let end_slot = buf.get_u64();
        let energy = buf.get_f64();
        let weight = buf.get_f64();
        let end_slot = usize::try_from(end_slot)
            .map_err(|_| format!("end_slot {end_slot} exceeds this platform's usize"))?;
        specs.push(TaskSpec {
            device_pos: Vec2::new(x, y),
            device_facing: Angle::from_radians(facing),
            end_slot,
            required_energy: energy,
            weight,
        });
    }
    Ok(specs)
}

/// Encodes an [`OP_BATCH_ACK`] body: a `u32` ack count, then per record a
/// status byte — `0` followed by `task:u64_be release:u64_be`, or `1`
/// followed by two `u16_be`-length-prefixed UTF-8 strings (code token,
/// message).
pub(crate) fn encode_batch_ack(acks: &[BatchAck]) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(4 + acks.len() * 17);
    body.put_u32(acks.len() as u32);
    for ack in acks {
        match ack {
            BatchAck::Ok { task, release } => {
                body.put_u8(0);
                body.put_u64(*task);
                body.put_u64(*release);
            }
            BatchAck::Err { code, message } => {
                body.put_u8(1);
                put_short_str(&mut body, code);
                put_short_str(&mut body, message);
            }
        }
    }
    body.into()
}

/// Appends a `u16_be`-length-prefixed string, truncating past-limit
/// messages on a character boundary (codes are short by construction;
/// messages are advisory).
fn put_short_str(body: &mut BytesMut, text: &str) {
    let mut end = text.len().min(usize::from(u16::MAX));
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    let clipped = text.get(..end).unwrap_or("");
    body.put_u16(clipped.len() as u16);
    body.put_slice(clipped.as_bytes());
}

/// Decodes an [`OP_BATCH_ACK`] body (client side).
pub(crate) fn decode_batch_ack(body: &[u8]) -> Result<Vec<BatchAck>, String> {
    let mut buf: &[u8] = body;
    if buf.remaining() < 4 {
        return Err("batch ack shorter than its count".to_string());
    }
    let count = buf.get_u32() as usize;
    let mut acks = Vec::new();
    for index in 0..count {
        if buf.remaining() < 1 {
            return Err(format!("batch ack truncated at record {index}"));
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 16 {
                    return Err(format!("batch ack truncated at record {index}"));
                }
                acks.push(BatchAck::Ok {
                    task: buf.get_u64(),
                    release: buf.get_u64(),
                });
            }
            1 => {
                let code = get_short_str(&mut buf)
                    .ok_or_else(|| format!("batch ack truncated at record {index}"))?;
                let message = get_short_str(&mut buf)
                    .ok_or_else(|| format!("batch ack truncated at record {index}"))?;
                acks.push(BatchAck::Err { code, message });
            }
            other => return Err(format!("unknown batch ack status {other}")),
        }
    }
    if buf.has_remaining() {
        return Err(format!(
            "{} trailing bytes after the last batch ack record",
            buf.remaining()
        ));
    }
    Ok(acks)
}

/// Reads one `u16_be`-length-prefixed string; `None` on underflow.
fn get_short_str(buf: &mut &[u8]) -> Option<String> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = usize::from(buf.get_u16());
    if buf.remaining() < len {
        return None;
    }
    let text = String::from_utf8_lossy(buf.chunk().get(..len)?).to_string();
    buf.advance(len);
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(x: f64, weight: f64) -> TaskSpec {
        TaskSpec {
            device_pos: Vec2::new(x, -2.5),
            device_facing: Angle::from_radians(0.1),
            end_slot: 7,
            required_energy: 350.0,
            weight,
        }
    }

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_TEXT, b"CLOCK?\n").unwrap();
        write_frame(&mut wire, OP_REPLY, b"OK slot=3 open=1\n").unwrap();
        let mut reader = std::io::Cursor::new(wire);
        let first = read_frame(&mut reader).unwrap();
        assert_eq!(first.opcode, OP_TEXT);
        assert_eq!(first.body, b"CLOCK?\n");
        let second = read_frame(&mut reader).unwrap();
        assert_eq!(second.opcode, OP_REPLY);
        assert_eq!(second.body, b"OK slot=3 open=1\n");
        assert!(read_frame(&mut reader).is_err(), "stream is exhausted");
    }

    #[test]
    fn polling_reader_flags_violations_structurally() {
        let shutdown = AtomicBool::new(false);
        // Zero-length frame.
        let mut reader = std::io::Cursor::new(vec![0u8, 0, 0, 0]);
        assert!(matches!(
            read_frame_polling(&mut reader, &shutdown).unwrap(),
            FrameRead::Violation(_)
        ));
        // Oversized frame.
        let mut reader = std::io::Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame_polling(&mut reader, &shutdown).unwrap(),
            FrameRead::Violation(_)
        ));
        // Clean EOF.
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame_polling(&mut reader, &shutdown).unwrap(),
            FrameRead::Closed
        ));
        // EOF mid-frame: the peer died; nothing to salvage.
        let mut reader = std::io::Cursor::new(vec![0u8, 0, 0, 9, OP_TEXT]);
        assert!(matches!(
            read_frame_polling(&mut reader, &shutdown).unwrap(),
            FrameRead::Closed
        ));
    }

    #[test]
    fn text_bodies_split_into_head_and_payload() {
        let (head, payload) = split_text_body(b"LOAD 2\nline a\nline b\n");
        assert_eq!(head, "LOAD 2");
        assert_eq!(payload, b"line a\nline b\n");
        let (head, payload) = split_text_body(b"CLOCK?\n");
        assert_eq!(head, "CLOCK?");
        assert!(payload.is_empty());
        let (head, payload) = split_text_body(b"BYE");
        assert_eq!(head, "BYE");
        assert!(payload.is_empty());
    }

    #[test]
    fn batches_round_trip_bit_exactly() {
        let specs = vec![
            spec(0.1, 1.0),
            spec(-123.456, 0.25),
            spec(f64::MIN_POSITIVE, 3.5),
        ];
        let decoded = decode_batch(&encode_batch(&specs)).unwrap();
        assert_eq!(decoded.len(), specs.len());
        for (a, b) in specs.iter().zip(&decoded) {
            assert_eq!(a.device_pos.x.to_bits(), b.device_pos.x.to_bits());
            assert_eq!(a.device_pos.y.to_bits(), b.device_pos.y.to_bits());
            assert_eq!(
                a.device_facing.radians().to_bits(),
                b.device_facing.radians().to_bits()
            );
            assert_eq!(a.end_slot, b.end_slot);
            assert_eq!(a.required_energy.to_bits(), b.required_energy.to_bits());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn malformed_batches_are_rejected_with_reasons() {
        assert!(decode_batch(&[1, 2]).is_err(), "short count");
        // Count says 2 records, body carries 1.
        let mut body = encode_batch(&[spec(1.0, 1.0)]);
        body[3] = 2;
        assert!(decode_batch(&body).is_err(), "count/body mismatch");
    }

    #[test]
    fn batch_acks_round_trip_including_errors() {
        let acks = vec![
            BatchAck::Ok {
                task: u64::from(u32::MAX) + 7,
                release: 12,
            },
            BatchAck::rejected(ErrCode::Overload, "slot admission queue full"),
            BatchAck::Ok {
                task: 0,
                release: 0,
            },
        ];
        let decoded = decode_batch_ack(&encode_batch_ack(&acks)).unwrap();
        assert_eq!(decoded, acks);
        assert!(decode_batch_ack(&[0, 0, 0, 1]).is_err(), "truncated record");
        assert!(
            decode_batch_ack(&[0, 0, 0, 1, 9]).is_err(),
            "unknown status byte"
        );
    }

    #[test]
    fn oversized_messages_clip_on_char_boundaries() {
        let long = "é".repeat(40_000); // 80 000 bytes of two-byte chars
        let acks = vec![BatchAck::rejected(ErrCode::Internal, long)];
        let decoded = decode_batch_ack(&encode_batch_ack(&acks)).unwrap();
        match decoded.as_slice() {
            [BatchAck::Err { code, message }] => {
                assert_eq!(code, "internal");
                assert!(message.len() <= usize::from(u16::MAX));
                assert!(message.chars().all(|c| c == 'é'), "no mangled tail");
            }
            // No Debug formatting here: this file is in D3 scope, and the
            // scanner does not exempt test tails for D3.
            other => panic!("expected one rejection, got {} acks", other.len()),
        }
    }

    #[test]
    fn upgrade_detection_requires_an_accepted_v3_hello() {
        let ok = Reply::Ok("haste-service v3 shards=1 cells=1x1".to_string());
        assert!(upgrades_to_v3("HELLO v3", &ok));
        assert!(!upgrades_to_v3("HELLO v2", &ok));
        assert!(!upgrades_to_v3(
            "HELLO v3",
            &Reply::Err(ErrCode::Version, "nope".to_string())
        ));
        assert!(!upgrades_to_v3("CLOCK?", &ok));
    }
}
