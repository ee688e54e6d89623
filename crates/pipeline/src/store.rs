//! FP16 snapshot archive — the training-data store.
//!
//! The paper's decade-long ROMS archive is FP64 on disk, compressed to
//! FP16 for training (2.6 TB). This store keeps snapshots as framed `f16`
//! payloads in one contiguous byte buffer and decompresses
//! on fetch; fetching is deliberately *work* (f16→f32 widening of every
//! value), standing in for the SSD→RAM leg whose cost the loader
//! optimizations of §III-D hide. An optional artificial latency models a
//! slower storage tier.

use cocean::Snapshot;
use ctensor::f16::F16;

/// Compressed snapshot archive.
pub struct SnapshotStore {
    /// Framed payloads: per snapshot an 8-byte time, then the four fields
    /// as little-endian `f16` bits.
    data: Vec<u8>,
    /// Byte offset of each snapshot.
    offsets: Vec<usize>,
    /// Extra per-fetch latency in microseconds (0 = pure decompression).
    pub fetch_latency_us: u64,
    dims: (usize, usize, usize),
}

impl SnapshotStore {
    /// Compress an archive of snapshots.
    pub fn build(snaps: &[Snapshot]) -> Self {
        assert!(!snaps.is_empty());
        let (nz, ny, nx) = (snaps[0].nz, snaps[0].ny, snaps[0].nx);
        let mut buf = Vec::new();
        let mut offsets = Vec::with_capacity(snaps.len());
        for s in snaps {
            assert_eq!((s.nz, s.ny, s.nx), (nz, ny, nx), "mixed mesh sizes");
            offsets.push(buf.len());
            buf.extend_from_slice(&s.time.to_le_bytes());
            for field in [&s.zeta, &s.u, &s.v, &s.w] {
                for &v in field.iter() {
                    buf.extend_from_slice(&F16::from_f32(v).0.to_le_bytes());
                }
            }
        }
        Self {
            data: buf,
            offsets,
            fetch_latency_us: 0,
            dims: (nz, ny, nx),
        }
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Compressed size in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len()
    }

    /// Mesh dims `(nz, ny, nx)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Decompress `len` consecutive snapshots starting at `start` — the
    /// episode-window read for building forecast requests from a shared
    /// archive (fetching is `&self`, so concurrent readers behind an
    /// `Arc<SnapshotStore>` need no locking). Returns `None` when the
    /// range runs off the archive instead of panicking mid-request.
    pub fn fetch_window(&self, start: usize, len: usize) -> Option<Vec<Snapshot>> {
        let end = start.checked_add(len)?;
        if end > self.offsets.len() {
            return None;
        }
        Some((start..end).map(|i| self.fetch(i)).collect())
    }

    /// Decompress snapshot `idx` (f16 → f32 widening of every value).
    pub fn fetch(&self, idx: usize) -> Snapshot {
        if self.fetch_latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.fetch_latency_us));
        }
        let (nz, ny, nx) = self.dims;
        let n2 = ny * nx;
        let n3 = nz * n2;
        let start = self.offsets[idx];
        let (head, payload) = self.data[start..start + 8 + 2 * (n2 + 3 * n3)].split_at(8);
        let time = f64::from_le_bytes(head.try_into().expect("split at 8 bytes"));
        let mut values = payload
            .chunks_exact(2)
            .map(|b| F16(u16::from_le_bytes([b[0], b[1]])).to_f32());
        let mut read = |n: usize| -> Vec<f32> { values.by_ref().take(n).collect() };
        let zeta = read(n2);
        let u = read(n3);
        let v = read(n3);
        let w = read(n3);
        Snapshot {
            time,
            nz,
            ny,
            nx,
            zeta,
            u,
            v,
            w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t: f64) -> Snapshot {
        let (nz, ny, nx) = (2, 4, 3);
        Snapshot {
            time: t,
            nz,
            ny,
            nx,
            zeta: (0..ny * nx).map(|i| (i as f32 - 5.0) * 0.03).collect(),
            u: (0..nz * ny * nx).map(|i| (i as f32) * 0.01 - 0.1).collect(),
            v: (0..nz * ny * nx).map(|i| (i as f32) * -0.005).collect(),
            w: (0..nz * ny * nx).map(|i| (i as f32) * 1e-5).collect(),
        }
    }

    #[test]
    fn roundtrip_within_f16_precision() {
        let snaps: Vec<Snapshot> = (0..3).map(|t| snap(t as f64 * 100.0)).collect();
        let store = SnapshotStore::build(&snaps);
        assert_eq!(store.len(), 3);
        for (i, orig) in snaps.iter().enumerate() {
            let got = store.fetch(i);
            assert_eq!(got.time, orig.time);
            for (a, b) in got.u.iter().zip(&orig.u) {
                assert!((a - b).abs() <= b.abs() / 1000.0 + 1e-4, "{a} vs {b}");
            }
            for (a, b) in got.w.iter().zip(&orig.w) {
                assert!((a - b).abs() <= b.abs() / 1000.0 + 1e-6);
            }
        }
    }

    #[test]
    fn compression_halves_f32_size() {
        let snaps: Vec<Snapshot> = (0..4).map(|t| snap(t as f64)).collect();
        let store = SnapshotStore::build(&snaps);
        let f32_bytes: usize = snaps.iter().map(|s| s.nbytes()).sum();
        // Header per snapshot = 8 bytes; payload exactly half.
        assert_eq!(store.nbytes(), f32_bytes / 2 + 8 * snaps.len());
    }

    #[test]
    fn fetch_window_bounds_checked() {
        let snaps: Vec<Snapshot> = (0..5).map(|t| snap(t as f64)).collect();
        let store = SnapshotStore::build(&snaps);
        let w = store.fetch_window(1, 3).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].time, 1.0);
        assert_eq!(w[2].time, 3.0);
        assert!(store.fetch_window(3, 3).is_none());
        assert!(store.fetch_window(5, 1).is_none());
        assert!(store.fetch_window(usize::MAX, 2).is_none(), "no overflow");
    }

    #[test]
    fn fetch_out_of_order() {
        let snaps: Vec<Snapshot> = (0..5).map(|t| snap(t as f64)).collect();
        let store = SnapshotStore::build(&snaps);
        assert_eq!(store.fetch(4).time, 4.0);
        assert_eq!(store.fetch(0).time, 0.0);
        assert_eq!(store.fetch(2).time, 2.0);
    }
}
