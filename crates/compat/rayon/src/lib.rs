//! Offline stand-in for [rayon](https://docs.rs/rayon) providing exactly the
//! API surface this workspace uses: `par_iter` / `par_iter_mut` /
//! `par_chunks` / `par_chunks_mut` on slices, the `zip` / `enumerate`
//! adapters and the `for_each` consumer, plus [`current_num_threads`].
//!
//! Parallelism is real: consumers split the iterator into one contiguous
//! piece per thread and drain each piece on a `std::thread::scope` thread.
//! There is no work stealing — pieces are equal-sized — which is the right
//! trade for the regular, data-parallel kernels of this repository.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Process-wide thread-count override installed by
/// [`ThreadPoolBuilder::build_global`] (0 = unset).
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used by parallel consumers.
///
/// A [`ThreadPoolBuilder::build_global`] override wins; otherwise honors
/// `RAYON_NUM_THREADS` (like real rayon), defaulting to the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    let o = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Error type of [`ThreadPoolBuilder::build_global`] — this shim never
/// actually fails, but the signature matches real rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("global thread pool configuration failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Facade over real rayon's global-pool configuration.
///
/// Since this shim spawns scoped threads per consumer rather than keeping
/// a pool, "building the global pool" just records the thread count that
/// [`split_for_threads`] targets. **Documented divergence from rayon**:
/// `build_global` may be called repeatedly — the last call wins — which is
/// what lets the parity tests sweep thread counts within one process.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Target worker count; 0 means "restore the env/hardware default".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install this configuration globally (reconfigurable; see type docs).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_OVERRIDE.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// A splittable, length-aware parallel iterator.
///
/// `pi_*` methods are the implementation surface; the provided methods are
/// the rayon-compatible consumer API.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type Serial: Iterator<Item = Self::Item>;

    /// Remaining item count.
    fn pi_len(&self) -> usize;
    /// Split into `[0, index)` and `[index, len)`.
    fn pi_split_at(self, index: usize) -> (Self, Self);
    /// Serial drain of this piece.
    fn pi_serial(self) -> Self::Serial;

    // ------------------------------------------------------------ adapters

    fn zip<B>(self, other: B) -> Zip<Self, B::Iter>
    where
        B: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    // ----------------------------------------------------------- consumers

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let pieces = split_for_threads(self);
        if pieces.len() == 1 {
            for piece in pieces {
                piece.pi_serial().for_each(&f);
            }
            return;
        }
        std::thread::scope(|s| {
            for piece in pieces {
                let f = &f;
                s.spawn(move || piece.pi_serial().for_each(f));
            }
        });
    }
}

/// Split `iter` into at most `current_num_threads()` contiguous pieces.
fn split_for_threads<I: ParallelIterator>(iter: I) -> Vec<I> {
    let n = iter.pi_len();
    let threads = current_num_threads().min(n.max(1));
    let mut out = Vec::with_capacity(threads);
    split_rec(iter, threads, &mut out);
    out
}

fn split_rec<I: ParallelIterator>(iter: I, pieces: usize, out: &mut Vec<I>) {
    let n = iter.pi_len();
    if pieces <= 1 || n <= 1 {
        out.push(iter);
        return;
    }
    let left = pieces / 2;
    let at = (n * left / pieces).clamp(1, n - 1);
    let (l, r) = iter.pi_split_at(at);
    split_rec(l, left, out);
    split_rec(r, pieces - left, out);
}

/// Conversion into a parallel iterator (identity for parallel iterators).
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

// ------------------------------------------------------------- base sources

/// Shared-slice iterator (`par_iter`).
pub struct ParSlice<'a, T: Sync>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    type Serial = std::slice::Iter<'a, T>;
    fn pi_len(&self) -> usize {
        self.0.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (ParSlice(l), ParSlice(r))
    }
    fn pi_serial(self) -> Self::Serial {
        self.0.iter()
    }
}

/// Mutable-slice iterator (`par_iter_mut`).
pub struct ParSliceMutIter<'a, T: Send>(&'a mut [T]);

impl<'a, T: Send> ParallelIterator for ParSliceMutIter<'a, T> {
    type Item = &'a mut T;
    type Serial = std::slice::IterMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.0.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (ParSliceMutIter(l), ParSliceMutIter(r))
    }
    fn pi_serial(self) -> Self::Serial {
        self.0.iter_mut()
    }
}

/// Shared chunk iterator (`par_chunks`).
pub struct ParChunks<'a, T: Sync> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    type Serial = std::slice::Chunks<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(at);
        (
            ParChunks {
                slice: l,
                size: self.size,
            },
            ParChunks {
                slice: r,
                size: self.size,
            },
        )
    }
    fn pi_serial(self) -> Self::Serial {
        self.slice.chunks(self.size)
    }
}

/// Mutable chunk iterator (`par_chunks_mut`).
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Serial = std::slice::ChunksMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(at);
        (
            ParChunksMut {
                slice: l,
                size: self.size,
            },
            ParChunksMut {
                slice: r,
                size: self.size,
            },
        )
    }
    fn pi_serial(self) -> Self::Serial {
        self.slice.chunks_mut(self.size)
    }
}

// ---------------------------------------------------------------- adapters

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Serial = std::iter::Zip<A::Serial, B::Serial>;
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.pi_split_at(index);
        let (b1, b2) = self.b.pi_split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn pi_serial(self) -> Self::Serial {
        self.a.pi_serial().zip(self.b.pi_serial())
    }
}

pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Serial = std::iter::Zip<std::ops::RangeFrom<usize>, I::Serial>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.pi_split_at(index);
        (
            Enumerate {
                base: l,
                offset: self.offset,
            },
            Enumerate {
                base: r,
                offset: self.offset + index,
            },
        )
    }
    fn pi_serial(self) -> Self::Serial {
        (self.offset..).zip(self.base.pi_serial())
    }
}

// ------------------------------------------------------------ entry points

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync + Send> {
    fn par_iter(&self) -> ParSlice<'_, T>;
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice(self)
    }
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParSliceMutIter<'_, T>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParSliceMutIter<'_, T> {
        ParSliceMutIter(self)
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_for_each_mutates_all() {
        let src: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 10_000];
        dst.par_iter_mut()
            .zip(src.par_iter())
            .for_each(|(d, &s)| *d = s * 2.0);
        assert!(dst.iter().enumerate().all(|(i, &v)| v == i as f32 * 2.0));
    }

    #[test]
    fn chunked_enumerate_preserves_indices() {
        let mut out = vec![0usize; 1000];
        out.par_chunks_mut(7).enumerate().for_each(|(ci, chunk)| {
            for v in chunk.iter_mut() {
                *v = ci;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i / 7);
        }
    }

    #[test]
    fn zip_stops_at_shorter() {
        let a = [1i64; 10];
        let b = [2i64; 7];
        let mut out = [0i64; 10];
        out.par_iter_mut()
            .zip(a.par_iter().zip(b.par_iter()))
            .for_each(|(o, (&x, &y))| *o = x * y);
        assert_eq!(out, [2, 2, 2, 2, 2, 2, 2, 0, 0, 0]);
    }

    #[test]
    fn thread_pool_builder_overrides_and_restores() {
        let default = super::current_num_threads();
        super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(super::current_num_threads(), 3);
        // Parallel consumers still work under the override.
        let mut v = vec![0usize; 100];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
        // 0 restores the env/hardware default (shim divergence: rayon
        // forbids reconfiguration, this facade allows it).
        super::ThreadPoolBuilder::new().build_global().unwrap();
        assert_eq!(super::current_num_threads(), default);
    }
}
