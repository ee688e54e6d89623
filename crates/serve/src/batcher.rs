//! Dynamic micro-batching queue.
//!
//! Requests accumulate in a bounded two-class (priority) queue and leave
//! it work-conserving: [`MicroBatcher::next_ready`] takes up to
//! `max_batch` of whatever is pending as soon as anything is. Its callers
//! are the replicas, which ask only when idle, so batches grow under load
//! (requests pile up while every replica is busy) and a lone request
//! never waits on a deadline while compute sits idle.
//!
//! Admission is bounded: pushes beyond `capacity` fail with
//! [`ServeError::Overloaded`] instead of growing the queue without limit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::ServeError;
use crate::lock;
use crate::request::Priority;

/// Batch size cap and admission bound of a [`MicroBatcher`].
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Largest batch one [`MicroBatcher::next_ready`] takes.
    pub max_batch: usize,
    /// Admission bound: pushes beyond this many pending items are
    /// rejected with `Overloaded`.
    pub capacity: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
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
        // One new item needs at most one idle consumer.
        self.cond.notify_one();
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

    /// Work-conserving flush: block only until **anything** is pending,
    /// then take up to `max_batch` immediately (high priority first, FIFO
    /// within each class).
    ///
    /// Each replica calls this whenever it is idle, so whenever compute
    /// capacity is free the queue flushes instantly. While every replica
    /// is busy none is asking, and requests pile into full `max_batch`
    /// flushes on their own. Returns `None` once closed and drained — the
    /// consumer's shutdown signal.
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
    /// `High` class at its arrival-order position. Used when a
    /// high-priority duplicate coalesces onto a normal-priority leader:
    /// the shared computation inherits the most urgent waiter's class.
    /// Returns how many items were promoted.
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
            // so the high class stays FIFO — appending at the back would
            // put a promoted item behind high items that arrived after it.
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
        }
        promoted
    }

    /// Stop admitting new items; consumers drain what is pending, then
    /// [`Self::next_ready`] returns `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, capacity: usize) -> MicroBatcher<u32> {
        MicroBatcher::new(BatcherConfig {
            max_batch,
            capacity,
        })
    }

    #[test]
    fn high_priority_drains_first() {
        let b = batcher(3, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        b.push(11, Priority::Normal).unwrap();
        assert_eq!(b.next_ready().unwrap(), vec![20, 10, 11]);
    }

    #[test]
    fn promote_moves_items_to_high_class() {
        let b = batcher(4, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(11, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        assert_eq!(b.promote_where(|&v| v == 11), 1);
        assert_eq!(b.promote_where(|&v| v == 99), 0);
        b.push(12, Priority::Normal).unwrap();
        // High class first; within it, arrival order (11 arrived before
        // 20, so promotion slots it ahead).
        assert_eq!(b.next_ready().unwrap(), vec![11, 20, 10, 12]);
    }

    #[test]
    fn overload_rejected_with_depth() {
        let b = batcher(16, 2);
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
        let b = batcher(16, 64);
        b.push(1, Priority::Normal).unwrap();
        b.push(2, Priority::Normal).unwrap();
        b.close();
        assert!(matches!(
            b.push(3, Priority::Normal),
            Err(ServeError::Shutdown)
        ));
        // Pending items still flush…
        assert_eq!(b.next_ready().unwrap(), vec![1, 2]);
        // …then the queue reports end-of-stream.
        assert!(b.next_ready().is_none());
    }

    #[test]
    fn next_ready_flushes_single_item_without_deadline_wait() {
        // max_batch is far away: the work-conserving consumer must still
        // flush a lone item immediately.
        let b = batcher(16, 64);
        b.push(5, Priority::Normal).unwrap();
        assert_eq!(b.next_ready().unwrap(), vec![5]);
        b.close();
        assert!(b.next_ready().is_none());
    }

    #[test]
    fn next_ready_respects_max_batch_and_priority() {
        let b = batcher(2, 64);
        b.push(10, Priority::Normal).unwrap();
        b.push(20, Priority::High).unwrap();
        b.push(11, Priority::Normal).unwrap();
        assert_eq!(b.next_ready().unwrap(), vec![20, 10]);
        assert_eq!(b.next_ready().unwrap(), vec![11]);
    }

    #[test]
    fn oversized_backlog_splits_into_max_batch_chunks() {
        let b = batcher(3, 64);
        for i in 0..7 {
            b.push(i, Priority::Normal).unwrap();
        }
        assert_eq!(b.next_ready().unwrap().len(), 3);
        assert_eq!(b.next_ready().unwrap().len(), 3);
        b.close();
        assert_eq!(b.next_ready().unwrap().len(), 1);
        assert!(b.next_ready().is_none());
    }
}
