//! Canonical wide events: one structured JSON-lines record per batch.
//!
//! Instead of reconstructing "what happened to that batch" from a dozen
//! counters, each flushed batch emits a single wide record carrying
//! everything known about it — shard, sizes, timing phases, adder
//! class, error-recovery counts, the trace id when sampled, and the SLO
//! verdict at emission time. Records are rate-limited per *modeled*
//! second (the same [`ModeledClock`] the SLO engine and the tsdb
//! self-scraper run on, so rate behavior is deterministic under test),
//! ring-buffered for the `/events?n=` endpoint, and optionally appended
//! to a JSONL file. Only high-volume `batch` records are subject to the
//! limiter — rare lifecycle records (`restart`) always land, because
//! dropping the one event that explains an incident would defeat the
//! log's purpose.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vlsa_telemetry::names::server as metric;
use vlsa_telemetry::Json;

use crate::clock::ModeledClock;

/// Retention and rate-limit policy for the wide-event log.
#[derive(Clone, Copy, Debug)]
pub struct EventLogConfig {
    /// Ring capacity in events; older events are evicted.
    pub capacity: usize,
    /// Maximum `batch` events accepted per modeled second; the rest
    /// are counted as dropped (`vlsa.server.events_dropped`), never
    /// blocked on. Lifecycle events (`restart`) bypass the limiter.
    pub per_sec: u32,
}

impl Default for EventLogConfig {
    fn default() -> EventLogConfig {
        EventLogConfig {
            capacity: 512,
            per_sec: 200,
        }
    }
}

/// One canonical wide event: one per flushed batch (`kind: "batch"`,
/// recorded by the shard worker), plus one per supervisor restart
/// (`kind: "restart"`, recorded by the supervisor with the drained-job
/// count) — so a worker loss is attributable from the same stream as
/// the traffic it disturbed.
#[derive(Clone, Debug)]
pub struct WideEvent {
    /// What happened: `batch` or `restart`.
    pub kind: &'static str,
    /// Shard that ran the batch.
    pub shard: u16,
    /// Jobs (requests) in the batch.
    pub requests: u32,
    /// Operand pairs in the batch.
    pub ops: u64,
    /// Modeled cycles the batch cost.
    pub cycles: u64,
    /// Batch-formation wait before the first job was picked up, µs.
    pub wait_us: u32,
    /// Pipeline compute time for the whole batch, µs.
    pub service_us: u32,
    /// Modeled device pacing after compute, µs.
    pub pace_us: u32,
    /// Adder class that served the batch: `speculative` or `exact`.
    pub adder: &'static str,
    /// Ops whose `ER` detector fired (paid the recovery bubble).
    pub stalls: u64,
    /// Ops delivered by the exact path.
    pub exact_ops: u64,
    /// Residue mismatches caught in this batch.
    pub residue_mismatches: u64,
    /// Whether the shard is latched into degraded (exact-only) mode.
    pub degraded: bool,
    /// Trace id of the first sampled job in the batch, if any.
    pub trace_id: Option<u64>,
    /// Page-severity SLO rules firing when the batch finished.
    pub slo_pages_firing: u64,
    /// Warn-severity SLO rules firing when the batch finished.
    pub slo_warns_firing: u64,
    /// The worker generation that produced the event (bumped by each
    /// supervisor restart; a `restart` event carries the *new*
    /// generation).
    pub generation: u64,
    /// Requests shed past their deadline budget at this batch's
    /// formation.
    pub deadline_exceeded: u64,
    /// Queued requests a `restart` event evacuated into `Retryable`
    /// answers (0 for `batch` events).
    pub retryable_drained: u64,
}

impl WideEvent {
    /// The event as a JSON object (one line of the JSONL stream).
    pub fn to_json(&self, ts_us: u64) -> Json {
        let mut doc = Json::obj()
            .set("ts_us", ts_us)
            .set("kind", self.kind)
            .set("shard", u64::from(self.shard))
            .set("requests", u64::from(self.requests))
            .set("ops", self.ops)
            .set("cycles", self.cycles)
            .set("wait_us", u64::from(self.wait_us))
            .set("service_us", u64::from(self.service_us))
            .set("pace_us", u64::from(self.pace_us))
            .set("adder", self.adder)
            .set("stalls", self.stalls)
            .set("exact_ops", self.exact_ops)
            .set("residue_mismatches", self.residue_mismatches)
            .set("degraded", self.degraded)
            .set("slo_pages_firing", self.slo_pages_firing)
            .set("slo_warns_firing", self.slo_warns_firing)
            .set("generation", self.generation)
            .set("deadline_exceeded", self.deadline_exceeded)
            .set("retryable_drained", self.retryable_drained);
        if let Some(id) = self.trace_id {
            doc = doc.set("trace_id", id);
        }
        doc
    }
}

/// Ring state behind one mutex: emission is per *batch*, not per op, so
/// a short critical section is far from the hot path.
#[derive(Debug)]
struct Ring {
    lines: VecDeque<String>,
    window_sec: u64,
    window_count: u32,
    file: Option<std::io::BufWriter<std::fs::File>>,
}

/// The per-process wide-event log.
#[derive(Debug)]
pub struct EventLog {
    config: EventLogConfig,
    clock: Arc<ModeledClock>,
    ring: Mutex<Ring>,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl EventLog {
    /// An event log with the given policy, ring-only, timed by its own
    /// modeled clock (which stays at zero unless someone advances it —
    /// deterministic by construction; the server shares the pool's
    /// clock via [`EventLog::with_clock`]).
    pub fn new(config: EventLogConfig) -> EventLog {
        EventLog::with_clock(config, Arc::new(ModeledClock::new()))
    }

    /// An event log timed by a shared modeled clock (the server passes
    /// the shard pool's, advanced by every worker batch).
    pub fn with_clock(config: EventLogConfig, clock: Arc<ModeledClock>) -> EventLog {
        EventLog {
            config,
            clock,
            ring: Mutex::new(Ring {
                lines: VecDeque::with_capacity(config.capacity),
                window_sec: 0,
                window_count: 0,
                file: None,
            }),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Additionally appends every accepted event to a JSONL file
    /// (truncated on open) — `serve --events-file`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn with_file(config: EventLogConfig, path: &Path) -> std::io::Result<EventLog> {
        EventLog::with_clock_and_file(config, Arc::new(ModeledClock::new()), path)
    }

    /// Shared clock plus a JSONL file sink.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn with_clock_and_file(
        config: EventLogConfig,
        clock: Arc<ModeledClock>,
        path: &Path,
    ) -> std::io::Result<EventLog> {
        let log = EventLog::with_clock(config, clock);
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        log.ring.lock().expect("event ring lock").file = Some(file);
        Ok(log)
    }

    /// The clock this log stamps and rate-limits with.
    pub fn clock(&self) -> &Arc<ModeledClock> {
        &self.clock
    }

    /// Records one wide event. `batch` events are subject to the
    /// per-modeled-second rate limit; lifecycle events bypass it.
    /// Returns whether the event was accepted.
    pub fn emit(&self, event: &WideEvent) -> bool {
        let ts_us = self.clock.now_us();
        let sec = ts_us / 1_000_000;
        let mut ring = self.ring.lock().expect("event ring lock");
        if ring.window_sec != sec {
            ring.window_sec = sec;
            ring.window_count = 0;
        }
        let limited = event.kind == "batch";
        if limited && ring.window_count >= self.config.per_sec {
            drop(ring);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = vlsa_telemetry::recorder() {
                rec.counter(metric::EVENTS_DROPPED).incr();
            }
            return false;
        }
        if limited {
            ring.window_count += 1;
        }
        let line = event.to_json(ts_us).to_string();
        if ring.lines.len() == self.config.capacity {
            ring.lines.pop_front();
        }
        if let Some(file) = ring.file.as_mut() {
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        ring.lines.push_back(line);
        drop(ring);
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = vlsa_telemetry::recorder() {
            rec.counter(metric::EVENTS_EMITTED).incr();
        }
        true
    }

    /// The newest `n` events, oldest first, as a JSONL document.
    pub fn last_jsonl(&self, n: usize) -> String {
        let ring = self.ring.lock().expect("event ring lock");
        let start = ring.lines.len().saturating_sub(n);
        let mut out = String::new();
        for line in ring.lines.iter().skip(start) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Events accepted into the ring since startup.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events rejected by the rate limiter since startup.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(shard: u16, ops: u64) -> WideEvent {
        WideEvent {
            kind: "batch",
            shard,
            requests: 1,
            ops,
            cycles: ops + 1,
            wait_us: 5,
            service_us: 10,
            pace_us: 2,
            adder: "speculative",
            stalls: 1,
            exact_ops: 0,
            residue_mismatches: 0,
            degraded: false,
            trace_id: None,
            slo_pages_firing: 0,
            slo_warns_firing: 0,
            generation: 0,
            deadline_exceeded: 0,
            retryable_drained: 0,
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let log = EventLog::new(EventLogConfig {
            capacity: 3,
            per_sec: 1_000,
        });
        for i in 0..5u64 {
            assert!(log.emit(&event(0, i)));
        }
        assert_eq!(log.emitted(), 5);
        let jsonl = log.last_jsonl(10);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        // Oldest-first within the kept window: ops 2, 3, 4.
        for (line, expected_ops) in lines.iter().zip([2u64, 3, 4]) {
            let doc = Json::parse(line).expect("valid JSON line");
            assert_eq!(doc.get("ops").and_then(Json::as_u64), Some(expected_ops));
        }
        // last_jsonl(1) returns only the newest.
        let tail = log.last_jsonl(1);
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("\"ops\":4"), "{tail}");
    }

    #[test]
    fn rate_limit_drops_instead_of_blocking() {
        let log = EventLog::new(EventLogConfig {
            capacity: 100,
            per_sec: 10,
        });
        let mut accepted = 0;
        for i in 0..50u64 {
            if log.emit(&event(0, i)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 10, "exactly the per-second budget");
        assert_eq!(log.dropped(), 40);
        assert_eq!(log.last_jsonl(100).lines().count(), 10);
    }

    #[test]
    fn rate_limit_windows_follow_the_modeled_clock() {
        // The limiter is deterministic under an injected clock: the
        // budget refills exactly when *modeled* time crosses a second
        // boundary, regardless of wall time.
        let clock = Arc::new(ModeledClock::new());
        let log = EventLog::with_clock(
            EventLogConfig {
                capacity: 100,
                per_sec: 2,
            },
            Arc::clone(&clock),
        );
        assert!(log.emit(&event(0, 1)));
        assert!(log.emit(&event(0, 2)));
        assert!(!log.emit(&event(0, 3)), "budget spent at modeled t=0");
        // 999.999ms in: still the same modeled second.
        clock.advance_to(999_999_000);
        assert!(!log.emit(&event(0, 4)));
        // Crossing into modeled second 1 refills the budget.
        clock.advance_to(1_000_000_000);
        assert!(log.emit(&event(0, 5)));
        assert_eq!(log.dropped(), 2);
        // Accepted events are stamped with modeled time.
        let tail = log.last_jsonl(1);
        let doc = Json::parse(tail.trim()).expect("valid JSON line");
        assert_eq!(doc.get("ts_us").and_then(Json::as_u64), Some(1_000_000));
    }

    #[test]
    fn restart_events_bypass_the_rate_limit() {
        let log = EventLog::new(EventLogConfig {
            capacity: 100,
            per_sec: 1,
        });
        assert!(log.emit(&event(0, 1)));
        assert!(!log.emit(&event(0, 2)), "batch budget exhausted");
        let mut restart = event(0, 0);
        restart.kind = "restart";
        restart.retryable_drained = 3;
        assert!(
            log.emit(&restart),
            "lifecycle events must land even when batches are shedding"
        );
        // And they don't consume the batch budget either.
        assert!(!log.emit(&event(0, 3)));
        assert_eq!(log.emitted(), 2);
    }

    #[test]
    fn wide_event_serializes_every_field() {
        let mut e = event(3, 7);
        e.trace_id = Some(0xFACE);
        e.slo_pages_firing = 1;
        e.generation = 2;
        e.deadline_exceeded = 4;
        e.retryable_drained = 6;
        let doc = e.to_json(1234);
        let parsed = Json::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(parsed.get("ts_us").and_then(Json::as_u64), Some(1234));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("batch"));
        assert_eq!(parsed.get("shard").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("generation").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("deadline_exceeded").and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            parsed.get("retryable_drained").and_then(Json::as_u64),
            Some(6)
        );
        assert_eq!(parsed.get("ops").and_then(Json::as_u64), Some(7));
        assert_eq!(
            parsed.get("adder").and_then(Json::as_str),
            Some("speculative")
        );
        assert_eq!(parsed.get("trace_id").and_then(Json::as_u64), Some(0xFACE));
        assert_eq!(
            parsed.get("slo_pages_firing").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("degraded"), Some(&Json::Bool(false)));
    }

    #[test]
    fn file_sink_appends_jsonl() {
        let path =
            std::env::temp_dir().join(format!("vlsa_events_{}_{}.jsonl", std::process::id(), 7));
        let log = EventLog::with_file(EventLogConfig::default(), &path).expect("create file");
        log.emit(&event(1, 11));
        log.emit(&event(2, 22));
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        assert!(
            text.lines().nth(1).unwrap().contains("\"ops\":22"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
