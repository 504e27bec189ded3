//! Request-scoped tracing: one span tree per sampled serving request.
//!
//! The flight recorder ([`crate::FlightRecorder`]) answers "what has the
//! pipeline been doing lately"; a [`RequestTrace`] answers the sharper
//! question a tail-latency investigation needs: "where did *this*
//! request's time go". Each sampled request accumulates an explicit
//! decomposition of its server-side life —
//!
//! ```text
//! queue_wait → batch_linger → service → device_pace → write_back
//! ```
//!
//! — where `queue_wait` is the time spent in the shard queue before the
//! worker began forming the batch, `batch_linger` is batch formation
//! (taking the already-queued jobs — batching is greedy and never waits
//! for stragglers; the phase keeps its historical name), `service` is the
//! `ResilientPipeline` compute (whose recovery share is visible through
//! the recorded `stalls`/`cycles`), `device_pace` is the modeled-device
//! pacing the batch waited out, and `write_back` is the response
//! serialization onto the socket. The phases are contiguous by
//! construction, so they sum to the request's total server-side latency
//! exactly; the gap between that total and the client-observed
//! round-trip is the network/framing share.
//!
//! Traces are kept in per-shard [`TraceRing`]s — bounded, non-destructive
//! (unlike the flight recorder's drain) so the `/trace/{id}` endpoint and
//! exemplar lookups can read the same trace repeatedly until it ages out.

use std::collections::VecDeque;
use std::sync::Mutex;

use vlsa_telemetry::Json;

/// The completed span decomposition of one sampled request.
///
/// All durations are microseconds measured against the server's
/// monotonic epoch; `start_us` is when the request was enqueued on its
/// shard. `Copy` on purpose: records pass through channels and rings
/// without allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestTrace {
    /// Wire trace id (client-provided or server-generated); never 0.
    pub trace_id: u64,
    /// The request id the client used on the wire.
    pub request_id: u64,
    /// Shard that served the request.
    pub shard: u16,
    /// Operand width of the batch.
    pub nbits: u8,
    /// Operand pairs in the batch.
    pub ops: u32,
    /// Ops that paid the `ER` recovery bubble (the paper's variable
    /// latency showing up as service time).
    pub stalls: u32,
    /// Ops served by the exact fallback path.
    pub exact_ops: u32,
    /// Modeled device cycles the batch consumed.
    pub cycles: u64,
    /// Enqueue time, µs since the server's epoch.
    pub start_us: u64,
    /// Time in the shard queue before batch formation began.
    pub queue_us: u32,
    /// Batch formation: from when the worker began taking queued jobs
    /// to batch dispatch (no wait for stragglers: batching is greedy).
    pub linger_us: u32,
    /// `ResilientPipeline` compute time for this request's ops.
    pub service_us: u32,
    /// Modeled device pacing the whole batch waited out.
    pub pace_us: u32,
    /// Response serialization onto the client socket.
    pub write_us: u32,
}

/// Span names of the five phases, in causal order.
pub const PHASES: [&str; 5] = [
    "queue_wait",
    "batch_linger",
    "service",
    "device_pace",
    "write_back",
];

impl RequestTrace {
    /// Total server-side latency: the exact sum of the five phases.
    pub fn total_us(&self) -> u64 {
        self.queue_us as u64
            + self.linger_us as u64
            + self.service_us as u64
            + self.pace_us as u64
            + self.write_us as u64
    }

    /// Phase durations in [`PHASES`] order.
    pub fn phase_durations_us(&self) -> [u64; 5] {
        [
            self.queue_us as u64,
            self.linger_us as u64,
            self.service_us as u64,
            self.pace_us as u64,
            self.write_us as u64,
        ]
    }

    /// The span tree as JSON: request metadata plus one span per phase
    /// with `start_us` offsets relative to enqueue. Trace and request
    /// ids are decimal strings (they are opaque 64-bit tokens a JSON
    /// double cannot always hold).
    pub fn to_json(&self) -> Json {
        let mut spans = Vec::with_capacity(PHASES.len());
        let mut offset = 0u64;
        for (name, dur) in PHASES.iter().zip(self.phase_durations_us()) {
            spans.push(
                Json::obj()
                    .set("name", *name)
                    .set("start_us", offset)
                    .set("dur_us", dur),
            );
            offset += dur;
        }
        Json::obj()
            .set("trace_id", self.trace_id.to_string())
            .set("request_id", self.request_id.to_string())
            .set("shard", self.shard as u64)
            .set("nbits", self.nbits as u64)
            .set("ops", self.ops as u64)
            .set("stalls", self.stalls as u64)
            .set("exact_ops", self.exact_ops as u64)
            .set("cycles", self.cycles)
            .set("start_us", self.start_us)
            .set("total_us", self.total_us())
            .set("spans", Json::Arr(spans))
    }

    /// Chrome trace-event export: a root `request` span with the five
    /// phases nested under it, on `tid = shard`. Loads directly in
    /// `chrome://tracing` / Perfetto.
    pub fn chrome_json(&self) -> Json {
        let mut events = Vec::with_capacity(PHASES.len() + 1);
        let root = Json::obj()
            .set("name", "request")
            .set("cat", "server")
            .set("ph", "X")
            .set("ts", self.start_us)
            .set("dur", self.total_us())
            .set("pid", 1u64)
            .set("tid", self.shard as u64)
            .set(
                "args",
                Json::obj()
                    .set("trace_id", self.trace_id.to_string())
                    .set("request_id", self.request_id.to_string())
                    .set("ops", self.ops as u64)
                    .set("stalls", self.stalls as u64)
                    .set("exact_ops", self.exact_ops as u64)
                    .set("cycles", self.cycles),
            );
        events.push(root);
        let mut offset = self.start_us;
        for (name, dur) in PHASES.iter().zip(self.phase_durations_us()) {
            events.push(
                Json::obj()
                    .set("name", *name)
                    .set("cat", "server")
                    .set("ph", "X")
                    .set("ts", offset)
                    .set("dur", dur)
                    .set("pid", 1u64)
                    .set("tid", self.shard as u64)
                    .set("args", Json::obj()),
            );
            offset += dur;
        }
        Json::obj()
            .set("displayTimeUnit", "ms")
            .set("traceEvents", Json::Arr(events))
    }
}

/// A bounded, non-destructive ring of completed [`RequestTrace`]s.
///
/// Unlike the flight recorder, reading does not consume: `/trace/{id}`
/// and exemplar lookups can fetch the same trace repeatedly until it is
/// evicted by newer recordings. Only *sampled* requests are recorded, so
/// a short mutex is plenty.
///
/// # Examples
///
/// ```
/// use vlsa_trace::{RequestTrace, TraceRing};
///
/// let ring = TraceRing::new(4);
/// ring.record(RequestTrace {
///     trace_id: 7,
///     queue_us: 3,
///     service_us: 5,
///     ..RequestTrace::default()
/// });
/// let t = ring.lookup(7).expect("recorded");
/// assert_eq!(t.total_us(), 8);
/// assert!(ring.lookup(7).is_some()); // reads do not consume
/// ```
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<VecDeque<RequestTrace>>,
    capacity: usize,
}

impl TraceRing {
    /// A ring retaining up to `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring lock").len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a completed trace, evicting the oldest when full.
    pub fn record(&self, trace: RequestTrace) {
        let mut ring = self.inner.lock().expect("trace ring lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Finds the most recent trace with the given id, without consuming
    /// it.
    pub fn lookup(&self, trace_id: u64) -> Option<RequestTrace> {
        let ring = self.inner.lock().expect("trace ring lock");
        ring.iter().rev().find(|t| t.trace_id == trace_id).copied()
    }

    /// The most recent `n` traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestTrace> {
        let ring = self.inner.lock().expect("trace ring lock");
        ring.iter().rev().take(n).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> RequestTrace {
        RequestTrace {
            trace_id: id,
            request_id: id * 10,
            shard: 2,
            nbits: 64,
            ops: 8,
            stalls: 3,
            exact_ops: 1,
            cycles: 11,
            start_us: 100,
            queue_us: 5,
            linger_us: 7,
            service_us: 11,
            pace_us: 2,
            write_us: 1,
        }
    }

    #[test]
    fn phases_sum_to_total() {
        let t = trace(1);
        assert_eq!(t.total_us(), 5 + 7 + 11 + 2 + 1);
        assert_eq!(t.phase_durations_us().iter().sum::<u64>(), t.total_us());
    }

    #[test]
    fn json_span_tree_is_contiguous() {
        let doc = Json::parse(&trace(9).to_json().to_string()).expect("valid JSON");
        assert_eq!(doc.get("trace_id").and_then(Json::as_str), Some("9"));
        assert_eq!(doc.get("total_us").and_then(Json::as_u64), Some(26));
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), PHASES.len());
        let mut expected_start = 0;
        for (span, name) in spans.iter().zip(PHASES) {
            assert_eq!(span.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(
                span.get("start_us").and_then(Json::as_u64),
                Some(expected_start)
            );
            expected_start += span.get("dur_us").and_then(Json::as_u64).expect("dur");
        }
        assert_eq!(expected_start, 26);
    }

    #[test]
    fn chrome_export_nests_phases_under_root() {
        let doc = Json::parse(&trace(3).chrome_json().to_string()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), PHASES.len() + 1);
        let root = &events[0];
        assert_eq!(root.get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(root.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(root.get("ts").and_then(Json::as_u64), Some(100));
        assert_eq!(root.get("dur").and_then(Json::as_u64), Some(26));
        // Phase spans tile the root exactly.
        let mut cursor = 100;
        for ev in &events[1..] {
            assert_eq!(ev.get("ts").and_then(Json::as_u64), Some(cursor));
            cursor += ev.get("dur").and_then(Json::as_u64).expect("dur");
        }
        assert_eq!(cursor, 126);
    }

    #[test]
    fn ring_lookup_is_non_destructive_and_bounded() {
        let ring = TraceRing::new(3);
        for id in 1..=5 {
            ring.record(trace(id));
        }
        assert_eq!(ring.len(), 3);
        assert!(ring.lookup(1).is_none(), "evicted");
        assert!(ring.lookup(2).is_none(), "evicted");
        for _ in 0..3 {
            assert_eq!(ring.lookup(4).map(|t| t.request_id), Some(40));
        }
        let recent: Vec<u64> = ring.recent(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(recent, vec![5, 4]);
    }

    #[test]
    fn lookup_prefers_the_most_recent_duplicate() {
        let ring = TraceRing::new(4);
        let mut first = trace(7);
        first.ops = 1;
        ring.record(first);
        let mut second = trace(7);
        second.ops = 99;
        ring.record(second);
        assert_eq!(ring.lookup(7).map(|t| t.ops), Some(99));
    }
}
