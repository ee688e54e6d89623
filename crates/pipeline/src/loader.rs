//! Prefetching data loader with pinned-buffer staging (paper §III-D).
//!
//! Three mechanisms from the paper's training-pipeline optimization are
//! modeled faithfully on CPU:
//!
//! - **Prefetch workers**: episodes are decompressed/encoded on background
//!   threads and queued, overlapping "I/O" with compute. With zero
//!   workers, loading happens synchronously inside the training loop.
//! - **Pinned staging buffers**: the copy into the compute buffer goes
//!   through a staging area. Pinned mode reuses pooled buffers (one copy);
//!   pageable mode allocates a fresh bounce buffer per transfer and copies
//!   twice — exactly the extra bounce CUDA performs for pageable memory.
//! - **Deterministic ordering**: whatever the worker count, batches are
//!   re-sequenced so an epoch's order depends only on the shuffle seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ctensor::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{encode_episode, stack_episodes, EncodeConfig, Episode};
use crate::normalize::NormStats;
use crate::store::SnapshotStore;

/// Loader configuration.
#[derive(Clone, Debug)]
pub struct LoaderConfig {
    /// Background workers (0 = synchronous loading).
    pub prefetch_workers: usize,
    /// Queue capacity (total in-flight episodes).
    pub prefetch_factor: usize,
    /// Reuse pooled staging buffers (pinned) vs per-transfer allocation.
    pub pinned: bool,
    /// Episodes per batch.
    pub batch_size: usize,
    /// Shuffle seed; `None` keeps archive order.
    pub shuffle_seed: Option<u64>,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        Self {
            prefetch_workers: 2,
            prefetch_factor: 4,
            pinned: true,
            batch_size: 1,
            shuffle_seed: Some(0),
        }
    }
}

/// Shared staging-buffer pool (the "pinned memory" region).
#[derive(Clone, Default)]
pub struct BufferPool {
    pool: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl BufferPool {
    /// Every update leaves the pool a valid list of buffers, so a worker
    /// that panicked while holding the lock does not take the pool with it.
    fn lock(&self) -> MutexGuard<'_, Vec<Vec<f32>>> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a buffer of at least `n` elements.
    fn take(&self, n: usize) -> Vec<f32> {
        let mut pool = self.lock();
        if let Some(pos) = pool.iter().position(|b| b.capacity() >= n) {
            let mut b = pool.swap_remove(pos);
            b.clear();
            b.resize(n, 0.0);
            return b;
        }
        drop(pool);
        vec![0.0; n]
    }

    fn give(&self, buf: Vec<f32>) {
        let mut pool = self.lock();
        if pool.len() < 16 {
            pool.push(buf);
        }
    }

    /// Buffers currently pooled (diagnostics).
    pub fn pooled(&self) -> usize {
        self.lock().len()
    }
}

/// Copy a tensor into compute memory through the staging path.
fn transfer_tensor(t: &Tensor, pinned: bool, pool: &BufferPool) -> Tensor {
    let n = t.numel();
    if pinned {
        // One copy via a reused staging buffer.
        let mut staging = pool.take(n);
        staging.copy_from_slice(t.as_slice());
        let out = Tensor::from_vec(staging.clone(), t.shape());
        pool.give(staging);
        out
    } else {
        // Pageable: bounce through a freshly allocated buffer (alloc +
        // first-touch + two copies), as CUDA does for non-pinned host
        // memory.
        let mut bounce = vec![0.0f32; n];
        bounce.copy_from_slice(t.as_slice());
        let mut dev = vec![0.0f32; n];
        dev.copy_from_slice(&bounce);
        Tensor::from_vec(dev, t.shape())
    }
}

fn transfer_episode(e: Episode, pinned: bool, pool: &BufferPool) -> Episode {
    Episode {
        x3d: transfer_tensor(&e.x3d, pinned, pool),
        x2d: transfer_tensor(&e.x2d, pinned, pool),
        target3: transfer_tensor(&e.target3, pinned, pool),
        target2: transfer_tensor(&e.target2, pinned, pool),
        t0: e.t0,
    }
}

/// Episode loader over a compressed snapshot archive.
pub struct DataLoader {
    store: Arc<SnapshotStore>,
    starts: Vec<usize>,
    t_out: usize,
    stats: NormStats,
    encode: EncodeConfig,
    pub cfg: LoaderConfig,
    pool: BufferPool,
    /// Episodes dropped because a prefetch worker died before delivering
    /// them (see [`DataLoader::dropped_episodes`]).
    dropped: Arc<AtomicUsize>,
}

impl DataLoader {
    pub fn new(
        store: Arc<SnapshotStore>,
        starts: Vec<usize>,
        t_out: usize,
        stats: NormStats,
        encode: EncodeConfig,
        cfg: LoaderConfig,
    ) -> Self {
        assert!(cfg.batch_size >= 1);
        Self {
            store,
            starts,
            t_out,
            stats,
            encode,
            cfg,
            pool: BufferPool::default(),
            dropped: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Episodes lost to dead prefetch workers across all epochs so far.
    /// Non-zero values mean some instances were skipped rather than
    /// crashing the training loop mid-stream.
    pub fn dropped_episodes(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Instances per epoch.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when there are no instances.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    fn epoch_order(&self, epoch: u64) -> Vec<usize> {
        let mut order = self.starts.clone();
        if let Some(seed) = self.cfg.shuffle_seed {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(epoch));
            order.shuffle(&mut rng);
        }
        order
    }

    fn load_one(&self, start: usize) -> Episode {
        let snaps: Vec<_> = (start..=start + self.t_out)
            .map(|i| self.store.fetch(i))
            .collect();
        let ep = encode_episode(&snaps, &self.stats, &self.encode);
        transfer_episode(ep, self.cfg.pinned, &self.pool)
    }

    /// Iterate one epoch of batches.
    pub fn epoch(&self, epoch: u64) -> EpochIter<'_> {
        let order = self.epoch_order(epoch);
        if self.cfg.prefetch_workers == 0 {
            return EpochIter {
                loader: self,
                order,
                cursor: 0,
                rx: None,
                reorder: BTreeMap::new(),
                next_seq: 0,
                dropped: Arc::clone(&self.dropped),
                _workers: Vec::new(),
            };
        }
        // Spawn prefetch workers sharing an index cursor.
        let (tx, rx) = sync_channel::<(usize, Episode)>(self.cfg.prefetch_factor.max(1));
        let cursor = Arc::new(AtomicUsize::new(0));
        let order_arc = Arc::new(order.clone());
        let mut workers = Vec::new();
        for _ in 0..self.cfg.prefetch_workers {
            let tx = tx.clone();
            let cursor = Arc::clone(&cursor);
            let order = Arc::clone(&order_arc);
            let store = Arc::clone(&self.store);
            let stats = self.stats;
            let encode = self.encode.clone();
            let t_out = self.t_out;
            let pinned = self.cfg.pinned;
            let pool = self.pool.clone();
            workers.push(std::thread::spawn(move || loop {
                let seq = cursor.fetch_add(1, Ordering::Relaxed);
                if seq >= order.len() {
                    return;
                }
                let start = order[seq];
                let snaps: Vec<_> = (start..=start + t_out).map(|i| store.fetch(i)).collect();
                let ep = encode_episode(&snaps, &stats, &encode);
                let ep = transfer_episode(ep, pinned, &pool);
                if tx.send((seq, ep)).is_err() {
                    return; // consumer dropped
                }
            }));
        }
        EpochIter {
            loader: self,
            order,
            cursor: 0,
            rx: Some(rx),
            reorder: BTreeMap::new(),
            next_seq: 0,
            dropped: Arc::clone(&self.dropped),
            _workers: workers,
        }
    }
}

/// Iterator over one epoch's batches (deterministic order).
pub struct EpochIter<'l> {
    loader: &'l DataLoader,
    order: Vec<usize>,
    cursor: usize,
    rx: Option<Receiver<(usize, Episode)>>,
    reorder: BTreeMap<usize, Episode>,
    next_seq: usize,
    dropped: Arc<AtomicUsize>,
    _workers: Vec<JoinHandle<()>>,
}

impl EpochIter<'_> {
    fn next_episode(&mut self) -> Option<Episode> {
        match &self.rx {
            None => {
                if self.cursor >= self.order.len() {
                    return None;
                }
                let ep = self.loader.load_one(self.order[self.cursor]);
                self.cursor += 1;
                Some(ep)
            }
            Some(rx) => {
                while self.next_seq < self.order.len() {
                    if let Some(ep) = self.reorder.remove(&self.next_seq) {
                        self.next_seq += 1;
                        return Some(ep);
                    }
                    // Wait for the next expected sequence number to arrive.
                    match rx.recv() {
                        Ok((seq, ep)) => {
                            self.reorder.insert(seq, ep);
                        }
                        Err(_) => {
                            // Every worker is gone (e.g. one panicked on a
                            // corrupt episode and the rest drained the
                            // cursor). Skip the sequence numbers that will
                            // never arrive, counting them, and keep
                            // serving whatever did make it into the
                            // reorder buffer instead of panicking
                            // mid-stream.
                            if let Some((&seq, _)) = self.reorder.iter().next() {
                                self.dropped
                                    .fetch_add(seq - self.next_seq, Ordering::Relaxed);
                                self.next_seq = seq;
                            } else {
                                self.dropped
                                    .fetch_add(self.order.len() - self.next_seq, Ordering::Relaxed);
                                self.next_seq = self.order.len();
                                return None;
                            }
                        }
                    }
                }
                None
            }
        }
    }
}

impl Iterator for EpochIter<'_> {
    type Item = Episode;

    fn next(&mut self) -> Option<Episode> {
        let mut batch = Vec::with_capacity(self.loader.cfg.batch_size);
        while batch.len() < self.loader.cfg.batch_size {
            match self.next_episode() {
                Some(ep) => batch.push(ep),
                None => break,
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(stack_episodes(&batch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocean::Snapshot;

    fn archive(n: usize) -> Arc<SnapshotStore> {
        let snaps: Vec<Snapshot> = (0..n)
            .map(|t| Snapshot {
                time: t as f64,
                nz: 1,
                ny: 6,
                nx: 6,
                zeta: vec![t as f32 * 0.01; 36],
                u: vec![0.1; 36],
                v: vec![-0.1; 36],
                w: vec![0.0; 36],
            })
            .collect();
        Arc::new(SnapshotStore::build(&snaps))
    }

    fn mk_loader(cfg: LoaderConfig) -> DataLoader {
        let store = archive(20);
        let starts: Vec<usize> = (0..16).collect();
        DataLoader::new(
            store,
            starts,
            3,
            NormStats::identity(),
            EncodeConfig::default(),
            cfg,
        )
    }

    #[test]
    fn synchronous_epoch_covers_all_instances() {
        let loader = mk_loader(LoaderConfig {
            prefetch_workers: 0,
            batch_size: 1,
            shuffle_seed: None,
            ..Default::default()
        });
        let batches: Vec<_> = loader.epoch(0).collect();
        assert_eq!(batches.len(), 16);
        // Archive order preserved without shuffling.
        assert_eq!(batches[0].t0, 0.0);
        assert_eq!(batches[15].t0, 15.0);
    }

    #[test]
    fn prefetched_order_matches_synchronous() {
        let sync = mk_loader(LoaderConfig {
            prefetch_workers: 0,
            batch_size: 1,
            shuffle_seed: Some(42),
            ..Default::default()
        });
        let pre = mk_loader(LoaderConfig {
            prefetch_workers: 3,
            prefetch_factor: 4,
            batch_size: 1,
            shuffle_seed: Some(42),
            ..Default::default()
        });
        let a: Vec<f64> = sync.epoch(1).map(|b| b.t0).collect();
        let b: Vec<f64> = pre.epoch(1).map(|b| b.t0).collect();
        assert_eq!(a, b, "worker count must not change epoch order");
    }

    #[test]
    fn batching_stacks_samples() {
        let loader = mk_loader(LoaderConfig {
            prefetch_workers: 2,
            batch_size: 4,
            shuffle_seed: Some(1),
            ..Default::default()
        });
        let batches: Vec<_> = loader.epoch(0).collect();
        assert_eq!(batches.len(), 4);
        for b in &batches {
            assert_eq!(b.x3d.shape()[0], 4);
        }
    }

    #[test]
    fn epochs_shuffle_differently() {
        let loader = mk_loader(LoaderConfig {
            prefetch_workers: 0,
            batch_size: 1,
            shuffle_seed: Some(9),
            ..Default::default()
        });
        let e0: Vec<f64> = loader.epoch(0).map(|b| b.t0).collect();
        let e1: Vec<f64> = loader.epoch(1).map(|b| b.t0).collect();
        assert_ne!(e0, e1, "different epochs should reshuffle");
        let e0b: Vec<f64> = loader.epoch(0).map(|b| b.t0).collect();
        assert_eq!(e0, e0b, "same epoch must replay identically");
    }

    #[test]
    fn dead_worker_skips_episodes_instead_of_panicking() {
        // One prefetch worker that panics mid-epoch (episode start beyond
        // the archive): the iterator must deliver everything produced
        // before the crash and count the rest as dropped — not poison the
        // whole training loop.
        let store = archive(20);
        let starts = vec![0usize, 1, 900, 2, 3]; // 900 is out of range
        let loader = DataLoader::new(
            store,
            starts,
            3,
            NormStats::identity(),
            EncodeConfig::default(),
            LoaderConfig {
                prefetch_workers: 1,
                prefetch_factor: 4,
                batch_size: 1,
                shuffle_seed: None,
                ..Default::default()
            },
        );
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the worker panic
        let batches: Vec<_> = loader.epoch(0).collect();
        std::panic::set_hook(prev_hook);
        assert_eq!(batches.len(), 2, "episodes before the crash survive");
        assert_eq!(batches[0].t0, 0.0);
        assert_eq!(batches[1].t0, 1.0);
        assert_eq!(loader.dropped_episodes(), 3, "crashed + undelivered");
    }

    #[test]
    fn pinned_pool_reuses_buffers() {
        let loader = mk_loader(LoaderConfig {
            prefetch_workers: 0,
            batch_size: 1,
            pinned: true,
            shuffle_seed: None,
            ..Default::default()
        });
        let _: Vec<_> = loader.epoch(0).collect();
        assert!(loader.pool.pooled() > 0, "staging buffers must be pooled");
    }

    #[test]
    fn transfer_preserves_data_both_modes() {
        let t = Tensor::from_vec((0..100).map(|i| i as f32).collect(), &[4, 25]);
        let pool = BufferPool::default();
        for pinned in [true, false] {
            let out = transfer_tensor(&t, pinned, &pool);
            assert_eq!(out.as_slice(), t.as_slice());
            assert_eq!(out.shape(), t.shape());
        }
    }
}
