//! Message-passing communicator over `std::sync::mpsc` channels — the
//! "MPI" of the thread-based runtime.
//!
//! Each pair of ranks gets a dedicated FIFO channel, so point-to-point
//! ordering matches MPI semantics. Messages carry a tag that is checked on
//! receive (a mismatched tag is a protocol bug and panics loudly rather
//! than silently reordering physics).

use std::cell::Cell;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// A tagged payload.
struct Message {
    tag: u64,
    data: Vec<f64>,
}

/// Per-rank accumulated communication statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    pub messages_sent: usize,
    pub doubles_sent: usize,
    /// Seconds spent blocked in `recv` plus send bookkeeping.
    pub comm_seconds: f64,
    /// Seconds spent waiting at barriers.
    pub barrier_seconds: f64,
}

/// Build communicators for `p` ranks.
pub fn communicators(p: usize) -> Vec<Comm> {
    // senders[dst][src] / receivers[dst][src]
    let mut txs: Vec<Vec<Sender<Message>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut rxs: Vec<Vec<Receiver<Message>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for dst in 0..p {
        for _src in 0..p {
            let (tx, rx) = channel();
            txs[dst].push(tx);
            rxs[dst].push(rx);
        }
    }
    let barrier = Arc::new(std::sync::Barrier::new(p));
    // Rank r needs: a sender to every dst (the channel indexed [dst][r]),
    // and its own receiver set rxs[r].
    let mut comms = Vec::with_capacity(p);
    for (r, rx_set) in rxs.into_iter().enumerate() {
        let send_to: Vec<Sender<Message>> = (0..p).map(|dst| txs[dst][r].clone()).collect();
        comms.push(Comm {
            rank: r,
            size: p,
            send_to,
            recv_from: rx_set,
            barrier: Arc::clone(&barrier),
            stats: Cell::new(CommStats::default()),
        });
    }
    comms
}

/// One rank's endpoint: point-to-point send/recv plus a barrier.
pub struct Comm {
    rank: usize,
    size: usize,
    send_to: Vec<Sender<Message>>,
    recv_from: Vec<Receiver<Message>>,
    barrier: Arc<std::sync::Barrier>,
    /// A `Comm` lives on one thread (its receivers are not `Sync`), so the
    /// counters need no lock.
    stats: Cell<CommStats>,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Non-blocking send of a tagged payload.
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        let t0 = Instant::now();
        let n = data.len();
        self.send_to[to]
            .send(Message { tag, data })
            .expect("peer hung up");
        self.update_stats(|s| {
            s.messages_sent += 1;
            s.doubles_sent += n;
            s.comm_seconds += t0.elapsed().as_secs_f64();
        });
    }

    /// Blocking receive from `from`; the tag must match the next message.
    pub fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
        let t0 = Instant::now();
        let msg = self.recv_from[from].recv().expect("peer hung up");
        assert_eq!(
            msg.tag, tag,
            "rank {} expected tag {tag} from {from}, got {}",
            self.rank, msg.tag
        );
        self.update_stats(|s| s.comm_seconds += t0.elapsed().as_secs_f64());
        msg.data
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        let t0 = Instant::now();
        self.barrier.wait();
        self.update_stats(|s| s.barrier_seconds += t0.elapsed().as_secs_f64());
    }

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    fn update_stats(&self, f: impl FnOnce(&mut CommStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Sum-reduce a scalar across all ranks (naive all-to-root-to-all).
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        const TAG_GATHER: u64 = u64::MAX - 1;
        const TAG_BCAST: u64 = u64::MAX - 2;
        if self.size == 1 {
            return value;
        }
        if self.rank == 0 {
            let mut total = value;
            for src in 1..self.size {
                total += self.recv(src, TAG_GATHER)[0];
            }
            for dst in 1..self.size {
                self.send(dst, TAG_BCAST, vec![total]);
            }
            total
        } else {
            self.send(0, TAG_GATHER, vec![value]);
            self.recv(0, TAG_BCAST)[0]
        }
    }

    /// Max-reduce a scalar across all ranks.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        const TAG_GATHER: u64 = u64::MAX - 3;
        const TAG_BCAST: u64 = u64::MAX - 4;
        if self.size == 1 {
            return value;
        }
        if self.rank == 0 {
            let mut m = value;
            for src in 1..self.size {
                m = m.max(self.recv(src, TAG_GATHER)[0]);
            }
            for dst in 1..self.size {
                self.send(dst, TAG_BCAST, vec![m]);
            }
            m
        } else {
            self.send(0, TAG_GATHER, vec![value]);
            self.recv(0, TAG_BCAST)[0]
        }
    }
}

/// Run `f` on `p` ranks over scoped threads; returns per-rank results in
/// rank order.
///
/// Each rank's [`Comm`] is *moved into* its thread: if a rank panics, its
/// channels drop and every peer blocked on it fails fast with "peer hung
/// up" instead of deadlocking.
pub fn run_parallel<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let f = &f;
    // Join every rank, then re-raise the first panic in rank order.
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = communicators(p)
            .into_iter()
            .map(|comm| scope.spawn(move || f(&comm)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let p = 4;
        let results = run_parallel(p, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, vec![c.rank() as f64]);
            let got = c.recv(prev, 1);
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_all_ranks_agree() {
        let results = run_parallel(5, |c| c.allreduce_sum((c.rank() + 1) as f64));
        for r in results {
            assert_eq!(r, 15.0);
        }
    }

    #[test]
    fn allreduce_max() {
        let results = run_parallel(3, |c| c.allreduce_max(c.rank() as f64 * 2.0));
        for r in results {
            assert_eq!(r, 4.0);
        }
    }

    #[test]
    fn stats_count_messages() {
        let results = run_parallel(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0]);
            } else {
                let _ = c.recv(0, 7);
            }
            c.barrier();
            c.stats()
        });
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[0].doubles_sent, 3);
        assert_eq!(results[1].messages_sent, 0);
    }

    #[test]
    #[should_panic(expected = "expected tag")]
    fn tag_mismatch_panics() {
        // Single pair, deliberately mismatched tags.
        let comms = communicators(2);
        comms[0].send(1, 1, vec![0.0]);
        let _ = comms[1].recv(0, 2);
    }

    #[test]
    fn fifo_ordering_per_pair() {
        let results = run_parallel(2, |c| {
            if c.rank() == 0 {
                for k in 0..10 {
                    c.send(1, k, vec![k as f64]);
                }
                0.0
            } else {
                let mut sum = 0.0;
                for k in 0..10 {
                    sum += c.recv(0, k)[0]; // tags must arrive in order
                }
                sum
            }
        });
        assert_eq!(results[1], 45.0);
    }
}
