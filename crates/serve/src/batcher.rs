//! Dynamic micro-batching queue.
//!
//! Requests accumulate in a bounded two-class (priority) queue; a batch
//! is released as soon as **either** `max_batch` items are pending
//! (size trigger) **or** the oldest pending item has waited `max_wait`
//! (deadline trigger) — the classic dynamic-batching policy of inference
//! servers: large batches under load for throughput, prompt flushes when
//! idle for latency.
//!
//! Admission is bounded: pushes beyond `capacity` fail with
//! [`ServeError::Overloaded`] instead of growing the queue without limit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::lock;
use crate::request::Priority;

/// Flush policy and admission bound of a [`MicroBatcher`].
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Flush as soon as this many items are pending.
    pub max_batch: usize,
    /// Flush when the oldest pending item has waited this long.
    pub max_wait: Duration,
    /// Admission bound: pushes beyond this many pending items are
    /// rejected with `Overloaded`.
    pub capacity: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: Duration::from_millis(5),
            capacity: 256,
        }
    }
}

struct QueueState<T> {
    high: VecDeque<(Instant, T)>,
    normal: VecDeque<(Instant, T)>,
    closed: bool,
}

impl<T> QueueState<T> {
    fn total(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Arrival time of the oldest pending item.
    fn oldest(&self) -> Option<Instant> {
        match (self.high.front(), self.normal.front()) {
            (Some(&(a, _)), Some(&(b, _))) => Some(a.min(b)),
            (Some(&(a, _)), None) => Some(a),
            (None, Some(&(b, _))) => Some(b),
            (None, None) => None,
        }
    }
}

/// A bounded, priority-aware micro-batching queue.
///
/// Generic over the item type so flush semantics are testable in
/// isolation; the server instantiates it with pending forecast requests.
pub struct MicroBatcher<T> {
    cfg: BatcherConfig,
    state: Mutex<QueueState<T>>,
    cond: Condvar,
}

impl<T> MicroBatcher<T> {
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(cfg.capacity >= 1, "capacity must be >= 1");
        Self {
            cfg,
            state: Mutex::new(QueueState {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueue an item, failing fast when the server is saturated or
    /// shutting down.
    pub fn push(&self, item: T, priority: Priority) -> Result<(), ServeError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(ServeError::Shutdown);
        }
        let depth = st.total();
        if depth >= self.cfg.capacity {
            return Err(ServeError::Overloaded {
                depth,
                capacity: self.cfg.capacity,
            });
        }
        let entry = (Instant::now(), item);
        match priority {
            Priority::High => st.high.push_back(entry),
            Priority::Normal => st.normal.push_back(entry),
        }
        drop(st);
        self.cond.notify_all();
        Ok(())
    }

    /// Items currently pending.
    pub fn depth(&self) -> usize {
        lock(&self.state).total()
    }

    /// Admission bound (see [`BatcherConfig::capacity`]).
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Block until a batch is ready and take it (high priority first,
    /// FIFO within each class). Returns `None` once the queue is closed
    /// *and* fully drained — the consumer's shutdown signal.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut st = lock(&self.state);
        loop {
            if st.total() == 0 {
                if st.closed {
                    return None;
                }
                st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Flush triggers: batch full, queue closed (drain promptly),
            // or the oldest item's deadline has passed.
            if st.total() >= self.cfg.max_batch || st.closed {
                break;
            }
            let deadline = st.oldest().expect("non-empty queue") + self.cfg.max_wait;
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self
                .cond
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
        Some(Self::take_locked(&mut st, self.cfg.max_batch))
    }

    /// Work-conserving flush: block only until **anything** is pending,
    /// then take up to `max_batch` immediately — no `max_wait` stall.
    ///
    /// This is the consumer for token-first dispatch: the caller acquires
    /// an idle worker *before* asking for a batch, so whenever compute
    /// capacity is free the queue flushes instantly (a lone request never
    /// idles against its deadline while a worker sits empty — the
    /// `workers=2` distinct-request regression). While every worker is
    /// busy the caller isn't asking, and requests pile into full
    /// `max_batch` flushes on their own. Returns `None` once closed and
    /// drained.
    pub fn next_ready(&self) -> Option<Vec<T>> {
        let mut st = lock(&self.state);
        while st.total() == 0 {
            if st.closed {
                return None;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        Some(Self::take_locked(&mut st, self.cfg.max_batch))
    }

    fn take_locked(st: &mut QueueState<T>, max_batch: usize) -> Vec<T> {
        let n = st.total().min(max_batch);
        let mut batch = Vec::with_capacity(n);
        while batch.len() < n {
            let (_, item) = match st.high.pop_front() {
                Some(e) => e,
                None => st.normal.pop_front().expect("counted items present"),
            };
            batch.push(item);
        }
        batch
    }

    /// Move every queued `Normal`-class item matching `pred` into the
    /// `High` class, keeping its arrival time (so its flush deadline is
    /// unchanged). Used when a high-priority duplicate coalesces onto a
    /// normal-priority leader: the shared computation inherits the most
    /// urgent waiter's class. Returns how many items were promoted.
    pub fn promote_where(&self, pred: impl Fn(&T) -> bool) -> usize {
        let mut st = lock(&self.state);
        let mut promoted = 0;
        let mut rest = VecDeque::with_capacity(st.normal.len());
        let mut moved = Vec::new();
        while let Some((at, item)) = st.normal.pop_front() {
            if pred(&item) {
                moved.push((at, item));
                promoted += 1;
            } else {
                rest.push_back((at, item));
            }
        }
        st.normal = rest;
        if promoted > 0 {
            // Merge by arrival time: both sequences are arrival-ordered,
            // and `oldest()` (the deadline trigger) only inspects queue
            // fronts — appending at the back would silently push a
            // promoted item's flush deadline out by up to `max_wait`.
            let mut merged = VecDeque::with_capacity(st.high.len() + promoted);
            let mut moved = moved.into_iter().peekable();
            while let Some(at_h) = st.high.front().map(|e| e.0) {
                while moved.peek().is_some_and(|&(at_m, _)| at_m <= at_h) {
                    merged.push_back(moved.next().expect("peeked"));
                }
                merged.push_back(st.high.pop_front().expect("fronted"));
            }
            merged.extend(moved);
            st.high = merged;
            // An older arrival may now head the high queue: re-evaluate
            // the consumer's deadline wait.
            drop(st);
            self.cond.notify_all();
        }
        promoted
    }

    /// Stop admitting new items; consumers drain what is pending, then
    /// [`Self::next_batch`] returns `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn batcher(max_batch: usize, max_wait_ms: u64, capacity: usize) -> MicroBatcher<u32> {
        MicroBatcher::new(BatcherConfig {
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
            capacity,
        })
    }

    #[test]
    fn size_trigger_flushes_before_deadline() {
        // Deadline is far away (10 s): a full batch must release
        // immediately on the size trigger.
        let b = batcher(4, 10_000, 64);
        for i in 0..4 {
            b.push(i, Priority::Normal).unwrap();
        }
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "size-triggered flush must not wait for the deadline"
        );
    }

    #[test]
    fn deadline_trigger_flushes_partial_batch() {
        // Batch never fills (max 100): the single item must flush once
        // its deadline passes.
        let b = Arc::new(batcher(100, 30, 64));
        b.push(7, Priority::Normal).unwrap();
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch, vec![7]);
        assert!(waited >= Duration::from_millis(25), "flushed at {waited:?}");
        assert!(waited < Duration::from_secs(5));
    }

    #[test]
    fn consumer_wakes_on_late_push_completing_batch() {
        let b = Arc::new(batcher(2, 10_000, 64));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.next_batch().unwrap());
        b.push(1, Priority::Normal).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        b.push(2, Priority::Normal).unwrap();
        assert_eq!(h.join().unwrap(), vec![1, 2]);
    }

    #[test]
    fn high_priority_drains_first() {
        let b = batcher(3, 10_000, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        b.push(11, Priority::Normal).unwrap();
        let batch = b.next_batch().unwrap();
        assert_eq!(batch, vec![20, 10, 11]);
    }

    #[test]
    fn promote_moves_items_to_high_class() {
        let b = batcher(4, 10_000, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(11, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        assert_eq!(b.promote_where(|&v| v == 11), 1);
        assert_eq!(b.promote_where(|&v| v == 99), 0);
        b.push(12, Priority::Normal).unwrap();
        // High class first; within it, arrival order (11 arrived before
        // 20, so promotion slots it ahead — its deadline is older).
        assert_eq!(b.next_batch().unwrap(), vec![11, 20, 10, 12]);
    }

    #[test]
    fn promotion_preserves_oldest_deadline() {
        // A normal item promoted behind a younger high item must still
        // deadline-flush on ITS OWN arrival clock, not the younger one's.
        let b = batcher(100, 80, 64);
        b.push(1, Priority::Normal).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        b.push(2, Priority::High).unwrap();
        b.promote_where(|&v| v == 1);
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        // Flush is driven by item 1's arrival (~40 ms ago): well before
        // item 2's deadline (80 ms from ~now).
        assert!(
            t0.elapsed() < Duration::from_millis(75),
            "promoted item's deadline must not be pushed out: {:?}",
            t0.elapsed()
        );
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn overload_rejected_with_depth() {
        let b = batcher(16, 10_000, 2);
        b.push(1, Priority::Normal).unwrap();
        b.push(2, Priority::High).unwrap();
        match b.push(3, Priority::Normal) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let b = batcher(16, 10_000, 64);
        b.push(1, Priority::Normal).unwrap();
        b.push(2, Priority::Normal).unwrap();
        b.close();
        assert!(matches!(
            b.push(3, Priority::Normal),
            Err(ServeError::Shutdown)
        ));
        // Pending items still flush (no deadline wait once closed)…
        assert_eq!(b.next_batch().unwrap(), vec![1, 2]);
        // …then the queue reports end-of-stream.
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn next_ready_flushes_single_item_without_deadline_wait() {
        // Deadline is far away (10 s): the work-conserving consumer must
        // still flush a lone item immediately.
        let b = batcher(16, 10_000, 64);
        b.push(5, Priority::Normal).unwrap();
        let t0 = Instant::now();
        assert_eq!(b.next_ready().unwrap(), vec![5]);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "next_ready must not wait on max_wait"
        );
        b.close();
        assert!(b.next_ready().is_none());
    }

    #[test]
    fn next_ready_respects_max_batch_and_priority() {
        let b = batcher(2, 10_000, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        b.push(11, Priority::Normal).unwrap();
        assert_eq!(b.next_ready().unwrap(), vec![20, 10]);
        assert_eq!(b.next_ready().unwrap(), vec![11]);
    }

    #[test]
    fn oversized_backlog_splits_into_max_batch_chunks() {
        let b = batcher(3, 10_000, 64);
        for i in 0..7 {
            b.push(i, Priority::Normal).unwrap();
        }
        assert_eq!(b.next_batch().unwrap().len(), 3);
        assert_eq!(b.next_batch().unwrap().len(), 3);
        b.close();
        assert_eq!(b.next_batch().unwrap().len(), 1);
        assert!(b.next_batch().is_none());
    }
}
