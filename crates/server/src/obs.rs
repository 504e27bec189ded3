//! Request-scoped observability: the sampling policy, per-shard trace
//! rings, and per-shard tail-latency exemplars — the state behind the
//! `/trace/{id}` and `/exemplars` endpoints.
//!
//! One [`ServerObs`] lives per server. Connection threads consult it
//! twice per request: at submit time to decide whether the request is
//! sampled (client-requested via the wire [`TraceContext`] extension,
//! or server-initiated every `sample_every`-th untraced request), and
//! at write-back time to record the finished [`RequestTrace`] into the
//! executing shard's ring and exemplar set. Unsampled requests touch
//! one relaxed atomic — the "off by default, ~free when off" telemetry
//! rule, applied to tracing.
//!
//! [`TraceContext`]: crate::protocol::TraceContext

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vlsa_telemetry::{ExemplarSet, Json};
use vlsa_trace::{RequestTrace, TraceRing};

/// Sampling and retention knobs for [`ServerObs`].
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Server-initiated sampling: every Nth request *without* a client
    /// trace context gets a server-generated trace id. `0` disables
    /// self-sampling (only client-requested traces are recorded).
    pub sample_every: u64,
    /// Traces retained per shard ring (oldest evicted first).
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            sample_every: 64,
            ring_capacity: 512,
        }
    }
}

/// Per-server trace state: a monotonic epoch for span timestamps, the
/// sampling counters, and one [`TraceRing`] + [`ExemplarSet`] per
/// shard.
#[derive(Debug)]
pub struct ServerObs {
    epoch: Instant,
    sample_every: u64,
    untraced_seen: AtomicU64,
    id_seq: AtomicU64,
    rings: Vec<TraceRing>,
    exemplars: Vec<ExemplarSet>,
}

/// SplitMix64: a bijection on `u64`, so distinct sequence numbers give
/// distinct (and well-scattered) trace ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ServerObs {
    /// Trace state for a pool of `shards` shards.
    pub fn new(config: ObsConfig, shards: usize) -> ServerObs {
        ServerObs {
            epoch: Instant::now(),
            sample_every: config.sample_every,
            untraced_seen: AtomicU64::new(0),
            id_seq: AtomicU64::new(0),
            rings: (0..shards)
                .map(|_| TraceRing::new(config.ring_capacity))
                .collect(),
            exemplars: (0..shards)
                .map(|_| ExemplarSet::with_default_buckets())
                .collect(),
        }
    }

    /// Microseconds since this server's trace epoch — the `start_us`
    /// base every recorded span shares.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Whether the next *untraced* request should be server-sampled.
    /// Counts every call, fires every `sample_every`-th.
    pub fn should_self_sample(&self) -> bool {
        self.sample_every > 0
            && self
                .untraced_seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every)
    }

    /// A fresh nonzero server-generated trace id.
    pub fn next_trace_id(&self) -> u64 {
        let id = splitmix64(self.id_seq.fetch_add(1, Ordering::Relaxed));
        if id == 0 {
            // SplitMix64 is a bijection: exactly one input maps to 0.
            0x9E37_79B9_7F4A_7C15
        } else {
            id
        }
    }

    /// Number of per-shard rings.
    pub fn shard_count(&self) -> usize {
        self.rings.len()
    }

    /// Records a finished trace into its shard's ring and feeds the
    /// shard's exemplar set with the trace's total server-side latency.
    pub fn record(&self, trace: RequestTrace) {
        let shard = trace.shard as usize;
        if shard >= self.rings.len() {
            return;
        }
        self.exemplars[shard].observe(trace.total_us(), trace.trace_id);
        self.rings[shard].record(trace);
    }

    /// Finds a trace by id, searching every shard's ring (newest first
    /// within each ring).
    ///
    /// A trace becomes visible only after its reply has been written:
    /// the connection thread records it once the socket write (timed as
    /// `write_us`) returns. A client that looks a trace up the moment
    /// its reply arrives can therefore race the recording and must
    /// poll.
    pub fn lookup(&self, trace_id: u64) -> Option<RequestTrace> {
        self.rings.iter().find_map(|ring| ring.lookup(trace_id))
    }

    /// A shard's exemplar set.
    pub fn exemplars(&self, shard: usize) -> &ExemplarSet {
        &self.exemplars[shard]
    }

    /// Every shard's exemplars as one JSON document:
    /// `{"shards": [{"shard": 0, "buckets": [...]}, ...]}`.
    pub fn exemplars_json(&self) -> Json {
        let shards: Vec<Json> = self
            .exemplars
            .iter()
            .enumerate()
            .map(|(shard, set)| {
                // Graft the shard id into the set's own document.
                let doc = set.to_json();
                Json::obj().set("shard", shard as u64).set(
                    "buckets",
                    doc.get("buckets").cloned().unwrap_or(Json::Arr(Vec::new())),
                )
            })
            .collect();
        Json::obj().set("shards", Json::Arr(shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(trace_id: u64, shard: u16, service_us: u32) -> RequestTrace {
        RequestTrace {
            trace_id,
            shard,
            service_us,
            ..RequestTrace::default()
        }
    }

    #[test]
    fn self_sampling_fires_every_nth_request() {
        let obs = ServerObs::new(
            ObsConfig {
                sample_every: 4,
                ring_capacity: 8,
            },
            1,
        );
        let fired: Vec<bool> = (0..8).map(|_| obs.should_self_sample()).collect();
        assert_eq!(
            fired,
            vec![true, false, false, false, true, false, false, false]
        );
        let off = ServerObs::new(
            ObsConfig {
                sample_every: 0,
                ring_capacity: 8,
            },
            1,
        );
        assert!((0..8).all(|_| !off.should_self_sample()));
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let obs = ServerObs::new(ObsConfig::default(), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = obs.next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn record_routes_to_the_shard_ring_and_exemplars() {
        let obs = ServerObs::new(ObsConfig::default(), 2);
        obs.record(trace(0xA, 0, 100));
        obs.record(trace(0xB, 1, 9_000_000));
        assert_eq!(obs.lookup(0xA).expect("shard 0").shard, 0);
        assert_eq!(obs.lookup(0xB).expect("shard 1").shard, 1);
        assert!(obs.lookup(0xC).is_none());
        // Out-of-range shard ids are dropped, not a panic.
        obs.record(trace(0xD, 9, 1));
        assert!(obs.lookup(0xD).is_none());
        assert_eq!(obs.exemplars(1).worst().expect("exemplar").trace_id, 0xB);
        let doc = Json::parse(&obs.exemplars_json().to_string()).expect("valid JSON");
        let shards = doc.get("shards").and_then(Json::as_arr).expect("arr");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].get("shard").and_then(Json::as_u64), Some(1));
        assert!(!shards[1]
            .get("buckets")
            .and_then(Json::as_arr)
            .expect("buckets")
            .is_empty());
    }
}
