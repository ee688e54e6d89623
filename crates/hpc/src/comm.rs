//! Message-passing communicator over `std::sync::mpsc` channels — the
//! "MPI" of the thread-based runtime.
//!
//! Each pair of ranks gets a dedicated FIFO channel, so point-to-point
//! ordering matches MPI semantics. Messages carry a tag that is checked on
//! receive (a mismatched tag is a protocol bug and panics loudly rather
//! than silently reordering physics).

use std::cell::Cell;
use std::ops::AddAssign;
use std::sync::mpsc::{channel, Receiver, Sender};
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
}

impl AddAssign for CommStats {
    fn add_assign(&mut self, other: Self) {
        self.messages_sent += other.messages_sent;
        self.doubles_sent += other.doubles_sent;
        self.comm_seconds += other.comm_seconds;
    }
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
            stats: Cell::new(CommStats::default()),
        });
    }
    comms
}

/// One rank's endpoint: point-to-point send/recv.
pub struct Comm {
    rank: usize,
    size: usize,
    send_to: Vec<Sender<Message>>,
    recv_from: Vec<Receiver<Message>>,
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

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    fn update_stats(&self, f: impl FnOnce(&mut CommStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

/// Run `f` once per item, one rank per item, each rank on its own scoped
/// thread; returns per-rank results in rank order. A single item runs on
/// the calling thread, so a one-rank run spawns nothing.
///
/// Each rank's [`Comm`] is *moved into* its thread: if a rank panics, its
/// channels drop and every peer blocked on it fails fast with "peer hung
/// up" instead of deadlocking.
pub fn run_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&Comm, T) -> R + Sync,
{
    let mut comms = communicators(items.len());
    if items.len() == 1 {
        let comm = comms.pop().expect("one rank");
        return items.into_iter().map(|item| f(&comm, item)).collect();
    }
    let f = &f;
    // Join every rank, then re-raise the first panic in rank order.
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .zip(items)
            .map(|(comm, item)| scope.spawn(move || f(&comm, item)))
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
        let results = run_parallel(vec![(); p], |c, ()| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, vec![c.rank() as f64]);
            let got = c.recv(prev, 1);
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn single_rank_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let results = run_parallel(vec![7], |c, item| {
            (c.rank(), c.size(), item, std::thread::current().id())
        });
        assert_eq!(results, vec![(0, 1, 7, caller)]);
        let ranks = run_parallel(vec![(); 2], |_, ()| std::thread::current().id());
        assert!(ranks.iter().all(|&id| id != caller), "two ranks spawn");
    }

    #[test]
    fn stats_count_messages() {
        let results = run_parallel(vec![(); 2], |c, ()| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0]);
            } else {
                let _ = c.recv(0, 7);
            }
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
        let results = run_parallel(vec![(); 2], |c, ()| {
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
