//! The binary wire protocol: frame types and body encode/decode.
//!
//! Every frame is `[u32 LE length][u8 type][body]`, where `length`
//! counts the type byte plus the body. All multi-byte integers are
//! little-endian. Four frame types exist:
//!
//! | type   | name       | direction       | body |
//! |--------|------------|-----------------|------|
//! | `0x01` | `AddBatch` | client → server | `request_id u64, nbits u8, count u32, count × (a u64, b u64)` |
//! | `0x81` | `SumBatch` | server → client | `request_id u64, shard u16, count u32, count × (sum u64, flags u8)` |
//! | `0xB1` | `Busy`     | server → client | `request_id u64, shard u16, queue_depth u32` |
//! | `0xEE` | `Error`    | server → client | `code u16, detail_len u32, detail utf-8` |
//!
//! Per-op `flags`: bit 0 ([`FLAG_STALLED`]) — the `ER` detector fired
//! and the op paid the recovery bubble; bit 1 ([`FLAG_EXACT`]) — the
//! exact path delivered the sum (escalation or degraded mode).
//!
//! ## Tagged trailing extensions
//!
//! `AddBatch` and `SumBatch` bodies may carry *tagged extensions*
//! after the base fields, each opened by a tag byte. Known tags have
//! fixed payloads:
//!
//! - [`EXT_TRACE`] (`0x54`, `'T'`): on `AddBatch` a [`TraceContext`]
//!   (`trace_id u64, flags u8`) asking the server to sample this
//!   request; on `SumBatch` a [`ServerTiming`] (`trace_id u64,
//!   queue_us/linger_us/service_us/pace_us u32`) echoing the
//!   server-side latency decomposition.
//! - [`EXT_DEADLINE`] (`0x44`, `'D'`, `AddBatch` only): a client-
//!   stamped latency budget (`budget_us u32`). Requests that outwait
//!   their budget inside the server are shed with a typed
//!   `DeadlineExceeded` error frame instead of occupying a batch slot.
//! - [`EXT_HEDGE`] (`0x48`, `'H'`, `AddBatch` only): a hedge identity
//!   (`key u64, seq u32`). The server executes at most one request per
//!   `(key, seq)`; duplicates get a typed `DuplicateHedge` error, so
//!   clients can race a hedged copy without double-executing.
//!
//! Unrecognized tags in `0x80..=0xFF` are *skippable*: they carry a
//! `len u8` followed by `len` payload bytes, are preserved verbatim
//! through decode/encode, and never fail a frame — a newer peer can
//! append extensions an older peer safely ignores. Unrecognized tags
//! below `0x80` are a typed `BadExtension` error. Known tags may
//! appear in any order but at most once each.
//!
//! Negotiation is implicit and backward compatible in both directions:
//! frames without extensions are **byte-identical** to the
//! pre-extension protocol (covered by golden-bytes tests), and the
//! server only attaches timing to responses whose request carried a
//! trace context — an untraced client never receives bytes it cannot
//! parse.
//!
//! Decoding is total: every malformed input maps to a typed
//! [`ProtocolError`], never a panic.

use crate::error::ProtocolError;

/// Hard ceiling on `length`; larger prefixes are rejected before any
/// allocation, so a hostile 4 GiB prefix costs the server nothing.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard ceiling on ops per `AddBatch` (64 KiB of operands).
pub const MAX_BATCH_OPS: u32 = 4096;

/// Hard ceiling on the `Error` frame detail string, in bytes.
pub const MAX_ERROR_DETAIL: u32 = 1024;

/// Frame type byte of [`AddBatch`].
pub const TYPE_ADD_BATCH: u8 = 0x01;
/// Frame type byte of [`SumBatch`].
pub const TYPE_SUM_BATCH: u8 = 0x81;
/// Frame type byte of [`Busy`].
pub const TYPE_BUSY: u8 = 0xB1;
/// Frame type byte of [`ErrorFrame`].
pub const TYPE_ERROR: u8 = 0xEE;

/// Per-op flag: the `ER` detector fired (the op stalled one cycle).
pub const FLAG_STALLED: u8 = 0b01;
/// Per-op flag: the exact path delivered the sum.
pub const FLAG_EXACT: u8 = 0b10;

/// Tag byte of the optional trace-context extension (`'T'`).
pub const EXT_TRACE: u8 = 0x54;
/// Tag byte of the optional deadline extension (`'D'`, request-only).
pub const EXT_DEADLINE: u8 = 0x44;
/// Tag byte of the optional hedge-identity extension (`'H'`,
/// request-only).
pub const EXT_HEDGE: u8 = 0x48;
/// First tag of the skippable range: unknown tags at or above this
/// carry a `len u8` + payload and are preserved, not rejected.
pub const EXT_SKIPPABLE_MIN: u8 = 0x80;
/// [`TraceContext`] flag: the client asks the server to sample this
/// request into its trace rings.
pub const FLAG_TRACE_SAMPLED: u8 = 0b1;

/// The hedge identity carried by [`EXT_HEDGE`]: the server executes at
/// most one request per `(key, seq)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HedgeKey {
    /// Client-chosen dedup key shared by all copies of one logical
    /// request (conventionally the trace id); must be nonzero.
    pub key: u64,
    /// Attempt number: 0 for the primary send, 1+ for hedges/retries
    /// that are *allowed* to re-execute (a fresh `seq` is a fresh
    /// logical attempt).
    pub seq: u32,
}

/// An unrecognized skippable extension, preserved verbatim: the tag
/// byte (`>= 0x80`) and its payload (at most 255 bytes).
pub type UnknownExt = (u8, Vec<u8>);

/// The optional trace context a client attaches to an [`AddBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen trace id; must be nonzero (0 is the "no trace"
    /// sentinel everywhere downstream).
    pub trace_id: u64,
    /// [`FLAG_TRACE_SAMPLED`]; all other bits are reserved and must be
    /// zero.
    pub flags: u8,
}

impl TraceContext {
    /// A sampled trace context for `trace_id`.
    pub fn sampled(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            flags: FLAG_TRACE_SAMPLED,
        }
    }

    /// Whether the client asked for this request to be sampled.
    pub fn is_sampled(&self) -> bool {
        self.flags & FLAG_TRACE_SAMPLED != 0
    }
}

/// The server-side latency decomposition echoed on a [`SumBatch`] whose
/// request carried a sampled [`TraceContext`]. All durations in
/// microseconds; `write_us` cannot be echoed (the response is still
/// being written), so the client computes the network share as
/// `rtt - (queue + linger + service + pace)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerTiming {
    /// Echo of the request's trace id.
    pub trace_id: u64,
    /// Time in the shard queue before batch formation began.
    pub queue_us: u32,
    /// Batch formation: from when the worker began taking queued jobs
    /// to batch dispatch. Batching is greedy, so this never includes a
    /// wait for stragglers; the name is kept for wire compatibility.
    pub linger_us: u32,
    /// `ResilientPipeline` compute time for this request.
    pub service_us: u32,
    /// Modeled device pacing the batch waited out.
    pub pace_us: u32,
}

impl ServerTiming {
    /// Total server-side time the extension accounts for, µs.
    pub fn total_us(&self) -> u64 {
        self.queue_us as u64 + self.linger_us as u64 + self.service_us as u64 + self.pace_us as u64
    }
}

/// A client's batch of operand pairs to add at width `nbits`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddBatch {
    /// Client-chosen id, echoed in the response; also the shard routing
    /// key (`request_id % shards`).
    pub request_id: u64,
    /// Adder width in bits (`1..=64`); operands are truncated to it.
    pub nbits: u8,
    /// The operand pairs.
    pub ops: Vec<(u64, u64)>,
    /// Optional trace-context extension; `None` encodes byte-identically
    /// to the pre-extension protocol.
    pub trace: Option<TraceContext>,
    /// Optional client-stamped latency budget ([`EXT_DEADLINE`]), µs.
    pub deadline_us: Option<u32>,
    /// Optional hedge identity ([`EXT_HEDGE`]) for server-side dedup.
    pub hedge: Option<HedgeKey>,
    /// Unrecognized skippable extensions, preserved in wire order.
    pub unknown: Vec<UnknownExt>,
}

impl AddBatch {
    /// An extension-free request (byte-identical to the pre-extension
    /// protocol on the wire).
    pub fn new(request_id: u64, nbits: u8, ops: Vec<(u64, u64)>) -> AddBatch {
        AddBatch {
            request_id,
            nbits,
            ops,
            trace: None,
            deadline_us: None,
            hedge: None,
            unknown: Vec::new(),
        }
    }

    /// Attaches a trace context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> AddBatch {
        self.trace = Some(trace);
        self
    }

    /// Attaches a latency budget in microseconds.
    #[must_use]
    pub fn with_deadline_us(mut self, budget_us: u32) -> AddBatch {
        self.deadline_us = Some(budget_us);
        self
    }

    /// Attaches a hedge identity for server-side dedup.
    #[must_use]
    pub fn with_hedge(mut self, key: u64, seq: u32) -> AddBatch {
        self.hedge = Some(HedgeKey { key, seq });
        self
    }
}

/// One op's result inside a [`SumBatch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpResult {
    /// The delivered sum, truncated to the request width.
    pub sum: u64,
    /// [`FLAG_STALLED`] | [`FLAG_EXACT`] bits.
    pub flags: u8,
}

impl OpResult {
    /// Whether the `ER` detector fired on this op.
    pub fn stalled(&self) -> bool {
        self.flags & FLAG_STALLED != 0
    }

    /// Whether the exact path delivered this sum.
    pub fn exact_path(&self) -> bool {
        self.flags & FLAG_EXACT != 0
    }
}

/// The server's answer to an [`AddBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumBatch {
    /// Echo of the request id.
    pub request_id: u64,
    /// The shard that executed the batch.
    pub shard: u16,
    /// Per-op results, in request order.
    pub results: Vec<OpResult>,
    /// Optional server-timing extension, attached only when the request
    /// carried a sampled [`TraceContext`]; `None` encodes
    /// byte-identically to the pre-extension protocol.
    pub timing: Option<ServerTiming>,
    /// Unrecognized skippable extensions, preserved in wire order.
    pub unknown: Vec<UnknownExt>,
}

/// Explicit load-shed: the target shard's queue was full. The request
/// was *not* executed; the client may retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Echo of the request id.
    pub request_id: u64,
    /// The shard whose queue was full.
    pub shard: u16,
    /// The queue depth observed at rejection time.
    pub queue_depth: u32,
}

/// A typed error answer; `code` is [`ProtocolError::code`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Stable numeric error code.
    pub code: u16,
    /// Human-readable detail (truncated to [`MAX_ERROR_DETAIL`] bytes
    /// on encode).
    pub detail: String,
}

/// Any frame of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client request.
    AddBatch(AddBatch),
    /// Server response with results.
    SumBatch(SumBatch),
    /// Server load-shed response.
    Busy(Busy),
    /// Server typed-error response.
    Error(ErrorFrame),
}

impl Frame {
    /// The frame's type byte.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::AddBatch(_) => TYPE_ADD_BATCH,
            Frame::SumBatch(_) => TYPE_SUM_BATCH,
            Frame::Busy(_) => TYPE_BUSY,
            Frame::Error(_) => TYPE_ERROR,
        }
    }

    /// Encodes the full frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Frame::AddBatch(r) => {
                put_u64(&mut body, r.request_id);
                body.push(r.nbits);
                put_u32(&mut body, r.ops.len() as u32);
                for &(a, b) in &r.ops {
                    put_u64(&mut body, a);
                    put_u64(&mut body, b);
                }
                if let Some(budget_us) = r.deadline_us {
                    body.push(EXT_DEADLINE);
                    put_u32(&mut body, budget_us);
                }
                if let Some(hedge) = r.hedge {
                    body.push(EXT_HEDGE);
                    put_u64(&mut body, hedge.key);
                    put_u32(&mut body, hedge.seq);
                }
                if let Some(trace) = r.trace {
                    body.push(EXT_TRACE);
                    put_u64(&mut body, trace.trace_id);
                    body.push(trace.flags);
                }
                put_unknown_exts(&mut body, &r.unknown);
            }
            Frame::SumBatch(r) => {
                put_u64(&mut body, r.request_id);
                put_u16(&mut body, r.shard);
                put_u32(&mut body, r.results.len() as u32);
                for op in &r.results {
                    put_u64(&mut body, op.sum);
                    body.push(op.flags);
                }
                if let Some(timing) = r.timing {
                    body.push(EXT_TRACE);
                    put_u64(&mut body, timing.trace_id);
                    put_u32(&mut body, timing.queue_us);
                    put_u32(&mut body, timing.linger_us);
                    put_u32(&mut body, timing.service_us);
                    put_u32(&mut body, timing.pace_us);
                }
                put_unknown_exts(&mut body, &r.unknown);
            }
            Frame::Busy(r) => {
                put_u64(&mut body, r.request_id);
                put_u16(&mut body, r.shard);
                put_u32(&mut body, r.queue_depth);
            }
            Frame::Error(r) => {
                put_u16(&mut body, r.code);
                let detail = truncate_utf8(&r.detail, MAX_ERROR_DETAIL as usize);
                put_u32(&mut body, detail.len() as u32);
                body.extend_from_slice(detail.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(5 + body.len());
        put_u32(&mut out, 1 + body.len() as u32);
        out.push(self.frame_type());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a frame body (everything after the type byte).
    ///
    /// # Errors
    ///
    /// Returns the [`ProtocolError`] describing exactly what is wrong;
    /// malformed input never panics.
    pub fn decode(frame_type: u8, body: &[u8]) -> Result<Frame, ProtocolError> {
        let mut cur = Cursor { buf: body };
        let frame = match frame_type {
            TYPE_ADD_BATCH => {
                let request_id = cur.u64()?;
                let nbits = cur.u8()?;
                if nbits == 0 || nbits > 64 {
                    return Err(ProtocolError::BadWidth { nbits });
                }
                let count = cur.u32()?;
                if count > MAX_BATCH_OPS {
                    return Err(ProtocolError::OversizedBatch { count });
                }
                let mut ops = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    ops.push((cur.u64()?, cur.u64()?));
                }
                let mut trace = None;
                let mut deadline_us = None;
                let mut hedge = None;
                let mut unknown = Vec::new();
                while !cur.is_empty() {
                    let tag = cur.u8()?;
                    match tag {
                        EXT_TRACE => {
                            reject_duplicate(tag, trace.is_some())?;
                            let trace_id = cur.u64()?;
                            let flags = cur.u8()?;
                            if trace_id == 0 {
                                return Err(ProtocolError::BadExtension(
                                    "trace_id 0 is the no-trace sentinel".into(),
                                ));
                            }
                            if flags & !FLAG_TRACE_SAMPLED != 0 {
                                return Err(ProtocolError::BadExtension(format!(
                                    "reserved trace flag bits set: 0b{flags:08b}"
                                )));
                            }
                            trace = Some(TraceContext { trace_id, flags });
                        }
                        EXT_DEADLINE => {
                            reject_duplicate(tag, deadline_us.is_some())?;
                            deadline_us = Some(cur.u32()?);
                        }
                        EXT_HEDGE => {
                            reject_duplicate(tag, hedge.is_some())?;
                            let key = cur.u64()?;
                            let seq = cur.u32()?;
                            if key == 0 {
                                return Err(ProtocolError::BadExtension(
                                    "hedge key 0 is the no-hedge sentinel".into(),
                                ));
                            }
                            hedge = Some(HedgeKey { key, seq });
                        }
                        _ => cur.skippable_ext(tag, &mut unknown)?,
                    }
                }
                Frame::AddBatch(AddBatch {
                    request_id,
                    nbits,
                    ops,
                    trace,
                    deadline_us,
                    hedge,
                    unknown,
                })
            }
            TYPE_SUM_BATCH => {
                let request_id = cur.u64()?;
                let shard = cur.u16()?;
                let count = cur.u32()?;
                if count > MAX_BATCH_OPS {
                    return Err(ProtocolError::OversizedBatch { count });
                }
                let mut results = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    results.push(OpResult {
                        sum: cur.u64()?,
                        flags: cur.u8()?,
                    });
                }
                let mut timing = None;
                let mut unknown = Vec::new();
                while !cur.is_empty() {
                    let tag = cur.u8()?;
                    match tag {
                        EXT_TRACE => {
                            reject_duplicate(tag, timing.is_some())?;
                            let parsed = ServerTiming {
                                trace_id: cur.u64()?,
                                queue_us: cur.u32()?,
                                linger_us: cur.u32()?,
                                service_us: cur.u32()?,
                                pace_us: cur.u32()?,
                            };
                            if parsed.trace_id == 0 {
                                return Err(ProtocolError::BadExtension(
                                    "trace_id 0 is the no-trace sentinel".into(),
                                ));
                            }
                            timing = Some(parsed);
                        }
                        EXT_DEADLINE | EXT_HEDGE => {
                            return Err(ProtocolError::BadExtension(format!(
                                "request-only extension 0x{tag:02X} on a response frame"
                            )));
                        }
                        _ => cur.skippable_ext(tag, &mut unknown)?,
                    }
                }
                Frame::SumBatch(SumBatch {
                    request_id,
                    shard,
                    results,
                    timing,
                    unknown,
                })
            }
            TYPE_BUSY => Frame::Busy(Busy {
                request_id: cur.u64()?,
                shard: cur.u16()?,
                queue_depth: cur.u32()?,
            }),
            TYPE_ERROR => {
                let code = cur.u16()?;
                let len = cur.u32()?;
                if len > MAX_ERROR_DETAIL {
                    return Err(ProtocolError::Malformed(format!(
                        "error detail of {len} bytes exceeds the {MAX_ERROR_DETAIL} byte limit"
                    )));
                }
                let bytes = cur.take(len as usize)?;
                let detail = String::from_utf8(bytes.to_vec())
                    .map_err(|_| ProtocolError::Malformed("error detail is not UTF-8".into()))?;
                Frame::Error(ErrorFrame { code, detail })
            }
            other => return Err(ProtocolError::UnknownFrameType(other)),
        };
        cur.finish()?;
        Ok(frame)
    }
}

/// Appends preserved skippable extensions as `[tag][len u8][payload]`.
/// Payloads longer than 255 bytes are truncated (the wire format
/// cannot carry more; decode never produces such a payload).
fn put_unknown_exts(out: &mut Vec<u8>, unknown: &[UnknownExt]) {
    for (tag, payload) in unknown {
        debug_assert!(
            *tag >= EXT_SKIPPABLE_MIN,
            "tag 0x{tag:02X} is not skippable"
        );
        debug_assert!(
            payload.len() <= u8::MAX as usize,
            "oversized skippable payload"
        );
        let len = payload.len().min(u8::MAX as usize);
        out.push(*tag);
        out.push(len as u8);
        out.extend_from_slice(&payload[..len]);
    }
}

/// A known extension tag may appear at most once per frame.
fn reject_duplicate(tag: u8, seen: bool) -> Result<(), ProtocolError> {
    if seen {
        return Err(ProtocolError::BadExtension(format!(
            "duplicate extension tag 0x{tag:02X}"
        )));
    }
    Ok(())
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Truncates to at most `max` bytes without splitting a UTF-8 scalar.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// A bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed(format!(
                "body truncated: needed {n} more bytes, had {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Handles a tag no known-extension arm claimed: skippable tags
    /// (`>= 0x80`) are length-prefixed and preserved into `unknown`;
    /// anything else is a typed [`ProtocolError::BadExtension`].
    fn skippable_ext(
        &mut self,
        tag: u8,
        unknown: &mut Vec<UnknownExt>,
    ) -> Result<(), ProtocolError> {
        if tag < EXT_SKIPPABLE_MIN {
            return Err(ProtocolError::BadExtension(format!(
                "unknown extension tag 0x{tag:02X}"
            )));
        }
        let len = self.u8()? as usize;
        unknown.push((tag, self.take(len)?.to_vec()));
        Ok(())
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after the body",
                self.buf.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("prefix"));
        assert_eq!(len as usize, bytes.len() - 4);
        let decoded = Frame::decode(bytes[4], &bytes[5..]).expect("decodes");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn all_frames_round_trip() {
        round_trip(Frame::AddBatch(AddBatch::new(
            42,
            64,
            vec![(1, 2), (u64::MAX, 7)],
        )));
        round_trip(Frame::AddBatch(AddBatch::new(0, 1, vec![])));
        round_trip(Frame::SumBatch(SumBatch {
            request_id: 42,
            shard: 3,
            results: vec![
                OpResult { sum: 3, flags: 0 },
                OpResult {
                    sum: 9,
                    flags: FLAG_STALLED | FLAG_EXACT,
                },
            ],
            timing: None,
            unknown: vec![],
        }));
        round_trip(Frame::Busy(Busy {
            request_id: 9,
            shard: 1,
            queue_depth: 64,
        }));
        round_trip(Frame::Error(ErrorFrame {
            code: 5,
            detail: "nope".into(),
        }));
    }

    #[test]
    fn flags_decode_into_accessors() {
        let op = OpResult {
            sum: 1,
            flags: FLAG_STALLED,
        };
        assert!(op.stalled());
        assert!(!op.exact_path());
        let op = OpResult {
            sum: 1,
            flags: FLAG_EXACT,
        };
        assert!(!op.stalled());
        assert!(op.exact_path());
    }

    #[test]
    fn bad_width_is_typed() {
        for nbits in [0u8, 65, 255] {
            let mut body = Vec::new();
            put_u64(&mut body, 1);
            body.push(nbits);
            put_u32(&mut body, 0);
            assert_eq!(
                Frame::decode(TYPE_ADD_BATCH, &body),
                Err(ProtocolError::BadWidth { nbits })
            );
        }
    }

    #[test]
    fn oversized_batch_is_typed() {
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(32);
        put_u32(&mut body, MAX_BATCH_OPS + 1);
        assert_eq!(
            Frame::decode(TYPE_ADD_BATCH, &body),
            Err(ProtocolError::OversizedBatch {
                count: MAX_BATCH_OPS + 1
            })
        );
    }

    #[test]
    fn truncated_and_padded_bodies_are_typed() {
        let frame = Frame::AddBatch(AddBatch::new(7, 16, vec![(1, 2)]));
        let bytes = frame.encode();
        // Drop the last operand byte: count promises more than present.
        let short = Frame::decode(bytes[4], &bytes[5..bytes.len() - 1]);
        assert!(
            matches!(short, Err(ProtocolError::Malformed(_))),
            "{short:?}"
        );
        // A trailing byte after the base fields is read as an extension
        // tag; 0x00 is no known extension.
        let mut padded = bytes[5..].to_vec();
        padded.push(0);
        let long = Frame::decode(bytes[4], &padded);
        assert!(
            matches!(long, Err(ProtocolError::BadExtension(_))),
            "{long:?}"
        );
        // A Busy body has no extensions: any trailing byte is malformed.
        let busy = Frame::Busy(Busy {
            request_id: 1,
            shard: 0,
            queue_depth: 2,
        })
        .encode();
        let mut padded = busy[5..].to_vec();
        padded.push(0);
        let long = Frame::decode(busy[4], &padded);
        assert!(matches!(long, Err(ProtocolError::Malformed(_))), "{long:?}");
    }

    #[test]
    fn trace_extensions_round_trip() {
        round_trip(Frame::AddBatch(
            AddBatch::new(42, 64, vec![(1, 2)])
                .with_trace(TraceContext::sampled(0xDEAD_BEEF_CAFE_F00D)),
        ));
        round_trip(Frame::SumBatch(SumBatch {
            request_id: 42,
            shard: 1,
            results: vec![OpResult { sum: 3, flags: 0 }],
            timing: Some(ServerTiming {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                queue_us: 120,
                linger_us: 480,
                service_us: 77,
                pace_us: 3000,
            }),
            unknown: vec![],
        }));
    }

    #[test]
    fn deadline_and_hedge_extensions_round_trip_in_any_combination() {
        round_trip(Frame::AddBatch(
            AddBatch::new(42, 64, vec![(1, 2)]).with_deadline_us(50_000),
        ));
        round_trip(Frame::AddBatch(
            AddBatch::new(42, 64, vec![(1, 2)]).with_hedge(0xABCD, 1),
        ));
        round_trip(Frame::AddBatch(
            AddBatch::new(42, 64, vec![(1, 2)])
                .with_deadline_us(0)
                .with_hedge(7, 0)
                .with_trace(TraceContext::sampled(9)),
        ));
    }

    #[test]
    fn known_extensions_decode_in_any_order() {
        // Hand-encode trace before deadline (the reverse of the
        // canonical encode order) and check both are picked up.
        let mut body = Vec::new();
        put_u64(&mut body, 5);
        body.push(32);
        put_u32(&mut body, 0);
        body.push(EXT_TRACE);
        put_u64(&mut body, 77);
        body.push(FLAG_TRACE_SAMPLED);
        body.push(EXT_DEADLINE);
        put_u32(&mut body, 1234);
        let decoded = Frame::decode(TYPE_ADD_BATCH, &body).expect("decodes");
        let Frame::AddBatch(req) = decoded else {
            panic!("wrong frame");
        };
        assert_eq!(req.trace, Some(TraceContext::sampled(77)));
        assert_eq!(req.deadline_us, Some(1234));
    }

    #[test]
    fn duplicate_and_misplaced_known_extensions_are_typed() {
        // Duplicate deadline.
        let mut bytes = Frame::AddBatch(AddBatch::new(1, 32, vec![]).with_deadline_us(10)).encode();
        bytes.push(EXT_DEADLINE);
        put_u32(&mut bytes, 20);
        let patched_len = ((bytes.len() - 4) as u32).to_le_bytes();
        bytes[..4].copy_from_slice(&patched_len);
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..]),
            Err(ProtocolError::BadExtension(_))
        ));
        // Zero hedge key.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(32);
        put_u32(&mut body, 0);
        body.push(EXT_HEDGE);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0);
        assert!(matches!(
            Frame::decode(TYPE_ADD_BATCH, &body),
            Err(ProtocolError::BadExtension(_))
        ));
        // Request-only extension on a response frame.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_u16(&mut body, 0);
        put_u32(&mut body, 0);
        body.push(EXT_DEADLINE);
        put_u32(&mut body, 10);
        assert!(matches!(
            Frame::decode(TYPE_SUM_BATCH, &body),
            Err(ProtocolError::BadExtension(_))
        ));
    }

    #[test]
    fn unknown_skippable_extensions_are_preserved_verbatim() {
        let frame = Frame::AddBatch(AddBatch {
            unknown: vec![(0x99, vec![1, 2, 3]), (0xF0, vec![]), (0x99, vec![4])],
            ..AddBatch::new(3, 32, vec![(10, 11)])
        });
        round_trip(frame.clone());
        // And they coexist with every known extension.
        let Frame::AddBatch(base) = frame else {
            panic!("wrong frame");
        };
        round_trip(Frame::AddBatch(
            base.with_deadline_us(9)
                .with_hedge(5, 2)
                .with_trace(TraceContext::sampled(6)),
        ));
        round_trip(Frame::SumBatch(SumBatch {
            request_id: 1,
            shard: 0,
            results: vec![],
            timing: None,
            unknown: vec![(0x80, vec![0xAB; 255])],
        }));
        // A truncated skippable payload is malformed, not silently
        // accepted.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(32);
        put_u32(&mut body, 0);
        body.push(0x99);
        body.push(10); // promises 10 payload bytes
        body.push(1); // delivers 1
        assert!(matches!(
            Frame::decode(TYPE_ADD_BATCH, &body),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn bad_trace_extensions_are_typed() {
        // Zero trace id.
        let mut bytes =
            Frame::AddBatch(AddBatch::new(1, 32, vec![]).with_trace(TraceContext::sampled(7)))
                .encode();
        bytes[5 + 8 + 1 + 4 + 1..5 + 8 + 1 + 4 + 1 + 8].fill(0);
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..]),
            Err(ProtocolError::BadExtension(_))
        ));
        // Reserved flag bits.
        let mut bytes =
            Frame::AddBatch(AddBatch::new(1, 32, vec![]).with_trace(TraceContext::sampled(7)))
                .encode();
        *bytes.last_mut().expect("flags byte") = 0b1000_0010;
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..]),
            Err(ProtocolError::BadExtension(_))
        ));
        // Truncated extension payload.
        let bytes =
            Frame::AddBatch(AddBatch::new(1, 32, vec![]).with_trace(TraceContext::sampled(7)))
                .encode();
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..bytes.len() - 3]),
            Err(ProtocolError::Malformed(_))
        ));
        // Trailing garbage after a complete extension.
        let mut bytes =
            Frame::AddBatch(AddBatch::new(1, 32, vec![]).with_trace(TraceContext::sampled(7)))
                .encode();
        bytes.push(0xAA);
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..]),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        assert_eq!(
            Frame::decode(0x55, &[]),
            Err(ProtocolError::UnknownFrameType(0x55))
        );
    }

    #[test]
    fn error_detail_is_bounded_and_utf8_checked() {
        let long = "x".repeat(MAX_ERROR_DETAIL as usize + 500);
        let frame = Frame::Error(ErrorFrame {
            code: 5,
            detail: long,
        });
        let bytes = frame.encode();
        let decoded = Frame::decode(bytes[4], &bytes[5..]).expect("decodes");
        let Frame::Error(e) = decoded else {
            panic!("wrong frame");
        };
        assert_eq!(e.detail.len(), MAX_ERROR_DETAIL as usize);

        let mut body = Vec::new();
        put_u16(&mut body, 1);
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        assert!(matches!(
            Frame::decode(TYPE_ERROR, &body),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
