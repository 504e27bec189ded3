//! A bounded MPSC queue with non-blocking producers and a batching
//! consumer.
//!
//! Producers never block: [`Bounded::try_push`] either enqueues or
//! reports [`PushError::Full`] — the backpressure signal the server
//! turns into an explicit `Busy` frame (shed, never silently dropped).
//! The single consumer blocks in [`Bounded::pop_batch`], which is the
//! batching primitive: wait for the first item, then take whatever else
//! is already queued, up to a weight cap. Nothing waits for stragglers:
//! batches grow under load because jobs pile up while the previous
//! batch computes (greedy batching).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused. The item comes back to the caller — nothing
/// is ever dropped inside the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; shed or retry.
    Full(T),
    /// The queue was closed; the consumer is gone or going.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. One lives per shard, in an `Arc` shared between
/// the connection threads (producers) and the shard worker (consumer).
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (an internal misconfiguration, not
    /// external input).
    pub fn new(capacity: usize) -> Bounded<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. Returns the depth *after* the push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`Bounded::close`] — the item is returned either way.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Closes the queue: further pushes fail, and once the consumer has
    /// drained the remaining items, [`Bounded::pop_batch`] returns
    /// empty. Items already queued are still delivered — close is a
    /// drain, not a drop.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }

    /// Takes every queued item immediately, without blocking or
    /// closing the queue. The supervisor uses this to evacuate a dead
    /// worker's queue into typed `Retryable` answers before spawning
    /// its replacement — the queue itself (and its producers) live on.
    pub fn drain_now(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.items.drain(..).collect()
    }

    /// Blocks for the first item, then drains greedily: items already
    /// queued are taken while their cumulative weight (per `weigh`)
    /// stays within `max_weight`. It never waits for more to arrive. An
    /// item heavier than `max_weight` alone is still taken (as a batch
    /// of one) so nothing can wedge the queue.
    ///
    /// Returns an empty vector only when the queue is closed and fully
    /// drained — the consumer's signal to exit.
    pub fn pop_batch(&self, max_weight: usize, weigh: impl Fn(&T) -> usize) -> Vec<T> {
        self.pop_batch_timed(max_weight, weigh).0
    }

    /// [`Bounded::pop_batch`] plus the instant batch formation began
    /// (when the first item was taken off the queue). Tracing uses the
    /// instant to split a request's wait into queue time (enqueue →
    /// formation start) and batch formation (formation start →
    /// dispatch).
    pub fn pop_batch_timed(
        &self,
        max_weight: usize,
        weigh: impl Fn(&T) -> usize,
    ) -> (Vec<T>, Instant) {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.items.is_empty() {
            if inner.closed {
                return (Vec::new(), Instant::now());
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
        let formation_start = Instant::now();
        let mut batch = Vec::new();
        let mut weight = 0usize;
        while let Some(item_weight) = inner.items.front().map(&weigh) {
            if !batch.is_empty() && weight + item_weight > max_weight {
                break;
            }
            let item = inner.items.pop_front().expect("front checked");
            weight += item_weight;
            batch.push(item);
            if weight >= max_weight {
                break;
            }
        }
        (batch, formation_start)
    }
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn full_queue_sheds_with_the_item_returned() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_refuses_pushes_but_drains() {
        let q = Bounded::new(4);
        q.try_push(1).expect("push");
        q.try_push(2).expect("push");
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        let batch = q.pop_batch(10, |_| 1);
        assert_eq!(batch, vec![1, 2]);
        let done: Vec<i32> = q.pop_batch(10, |_| 1);
        assert!(done.is_empty());
    }

    #[test]
    fn pop_batch_respects_the_weight_cap() {
        let q = Bounded::new(8);
        for w in [3usize, 3, 3, 3] {
            q.try_push(w).expect("push");
        }
        // Cap 7: two 3-weight items fit, the third would overflow.
        let batch = q.pop_batch(7, |w| *w);
        assert_eq!(batch, vec![3, 3]);
        // An item heavier than the cap still goes through alone.
        let q2 = Bounded::new(2);
        q2.try_push(100usize).expect("push");
        let heavy = q2.pop_batch(7, |w| *w);
        assert_eq!(heavy, vec![100]);
    }

    #[test]
    fn pop_batch_takes_only_what_is_queued() {
        let q = Arc::new(Bounded::new(8));
        let producer = Arc::clone(&q);
        q.try_push(1).expect("push");
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            producer.try_push(2).expect("push");
        });
        // Greedy: the batch is what was queued at wake-up, with no
        // wait for the straggler.
        let batch = q.pop_batch(10, |_| 1);
        t.join().expect("producer");
        assert_eq!(batch, vec![1]);
        assert_eq!(q.pop_batch(10, |_| 1), vec![2]);
    }

    #[test]
    fn coalesces_up_to_the_op_cap() {
        let q = Bounded::new(8);
        q.try_push(vec![1u64, 2]).expect("push");
        q.try_push(vec![3, 4]).expect("push");
        q.try_push(vec![5, 6]).expect("push");
        // 2 + 2 fit under the 5-op cap; the third request would overflow.
        let batch = q.pop_batch(5, Vec::len);
        assert_eq!(batch.len(), 2);
        let rest = q.pop_batch(5, Vec::len);
        assert_eq!(rest, vec![vec![5, 6]]);
    }

    #[test]
    fn empty_batch_signals_closed() {
        let q: Bounded<Vec<u64>> = Bounded::new(2);
        q.close();
        assert!(q.pop_batch(4096, Vec::len).is_empty());
    }

    #[test]
    fn pop_batch_blocks_until_an_item_or_close() {
        let q = Arc::new(Bounded::<i32>::new(2));
        let closer = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            closer.close();
        });
        let batch = q.pop_batch(10, |_| 1);
        t.join().expect("closer");
        assert!(batch.is_empty());
    }

    #[test]
    fn drain_now_empties_without_closing() {
        let q = Bounded::new(4);
        q.try_push(1).expect("push");
        q.try_push(2).expect("push");
        assert_eq!(q.drain_now(), vec![1, 2]);
        assert!(q.is_empty());
        assert!(!q.is_closed());
        assert_eq!(q.try_push(3), Ok(1), "queue stays usable after a drain");
    }

    #[test]
    fn pop_batch_timed_reports_when_formation_began() {
        let q = Bounded::new(4);
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(1).expect("push");
        let (batch, formation_start) = q.pop_batch_timed(10, |_| 1);
        assert_eq!(batch, vec![1]);
        // Formation began strictly after the pre-enqueue instant: the
        // enqueue→formation gap is the queue-wait a trace reports.
        assert!(formation_start > before);
        assert!(formation_start <= Instant::now());
    }
}
