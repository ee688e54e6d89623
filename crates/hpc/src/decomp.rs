//! Rectangular 2-D domain decomposition.
//!
//! Mirrors the ROMS tiling strategy (§II-B of the paper): the horizontal
//! domain is split into `pr × pc` rectangular zones, one per rank, with the
//! remainder cells distributed to the leading tiles so loads differ by at
//! most one row/column.

/// A rank's tile: half-open global index ranges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Tile {
    pub j0: usize,
    pub j1: usize,
    pub i0: usize,
    pub i1: usize,
}

impl Tile {
    pub fn ny(&self) -> usize {
        self.j1 - self.j0
    }

    pub fn nx(&self) -> usize {
        self.i1 - self.i0
    }

    pub fn cells(&self) -> usize {
        self.ny() * self.nx()
    }
}

/// 2-D processor decomposition of an `ny × nx` domain.
#[derive(Clone, Debug)]
pub struct Decomp {
    pub ny: usize,
    pub nx: usize,
    pub pr: usize,
    pub pc: usize,
}

impl Decomp {
    /// Decompose with an explicit processor grid.
    pub fn with_grid(ny: usize, nx: usize, pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        assert!(
            pr <= ny && pc <= nx,
            "more tiles than cells: {pr}x{pc} over {ny}x{nx}"
        );
        Self { ny, nx, pr, pc }
    }

    /// Choose a near-square processor grid for `p` ranks, preferring more
    /// splits along the longer axis.
    pub fn auto(ny: usize, nx: usize, p: usize) -> Self {
        assert!(p >= 1);
        let mut best = (1, p);
        let mut best_score = f64::INFINITY;
        for pr in 1..=p {
            if !p.is_multiple_of(pr) {
                continue;
            }
            let pc = p / pr;
            if pr > ny || pc > nx {
                continue;
            }
            // Aspect mismatch between tile shape and a square.
            let tile_h = ny as f64 / pr as f64;
            let tile_w = nx as f64 / pc as f64;
            let score = (tile_h / tile_w).max(tile_w / tile_h);
            if score < best_score {
                best_score = score;
                best = (pr, pc);
            }
        }
        assert!(
            best_score.is_finite(),
            "cannot place {p} ranks on {ny}x{nx}"
        );
        Self::with_grid(ny, nx, best.0, best.1)
    }

    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Rank of the tile at processor-grid coordinates `(r, c)`.
    pub fn rank_at(&self, r: usize, c: usize) -> usize {
        r * self.pc + c
    }

    /// Processor-grid coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }

    /// The tile owned by `rank`.
    pub fn tile(&self, rank: usize) -> Tile {
        let (r, c) = self.coords(rank);
        let (j0, j1) = split_range(self.ny, self.pr, r);
        let (i0, i1) = split_range(self.nx, self.pc, c);
        Tile { j0, j1, i0, i1 }
    }

    /// Neighbor ranks: (west, east, south, north); `None` at domain edges.
    pub fn neighbors(&self, rank: usize) -> Neighbors {
        let (r, c) = self.coords(rank);
        Neighbors {
            west: (c > 0).then(|| self.rank_at(r, c - 1)),
            east: (c + 1 < self.pc).then(|| self.rank_at(r, c + 1)),
            south: (r > 0).then(|| self.rank_at(r - 1, c)),
            north: (r + 1 < self.pr).then(|| self.rank_at(r + 1, c)),
        }
    }
}

/// Neighbor ranks of a tile.
#[derive(Copy, Clone, Debug, Default)]
pub struct Neighbors {
    pub west: Option<usize>,
    pub east: Option<usize>,
    pub south: Option<usize>,
    pub north: Option<usize>,
}

/// Split `n` items over `p` parts; part `k` gets `[start, end)`.
/// Leading parts absorb the remainder.
pub fn split_range(n: usize, p: usize, k: usize) -> (usize, usize) {
    let base = n / p;
    let rem = n % p;
    let start = k * base + k.min(rem);
    let len = base + usize::from(k < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything() {
        for n in [7usize, 8, 100] {
            for p in [1usize, 2, 3, 7] {
                let mut covered = 0;
                let mut prev_end = 0;
                for k in 0..p {
                    let (s, e) = split_range(n, p, k);
                    assert_eq!(s, prev_end, "ranges must be contiguous");
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn tiles_partition_domain() {
        let d = Decomp::with_grid(10, 13, 2, 3);
        let mut count = [0u8; 10 * 13];
        for r in 0..d.size() {
            let t = d.tile(r);
            for j in t.j0..t.j1 {
                for i in t.i0..t.i1 {
                    count[j * 13 + i] += 1;
                }
            }
        }
        assert!(
            count.iter().all(|&c| c == 1),
            "each cell owned exactly once"
        );
    }

    #[test]
    fn auto_prefers_square_tiles() {
        let d = Decomp::auto(100, 100, 4);
        assert_eq!((d.pr, d.pc), (2, 2));
        let d = Decomp::auto(200, 50, 4);
        assert_eq!(d.pr, 4, "long axis should take the splits");
    }

    #[test]
    fn neighbors_edges() {
        let d = Decomp::with_grid(8, 8, 2, 2);
        let n0 = d.neighbors(0); // (r=0, c=0) = south-west tile
        assert!(n0.west.is_none());
        assert!(n0.south.is_none());
        assert_eq!(n0.east, Some(1));
        assert_eq!(n0.north, Some(2));
        let n3 = d.neighbors(3); // (1,1) north-east
        assert_eq!(n3.west, Some(2));
        assert_eq!(n3.south, Some(1));
        assert!(n3.east.is_none());
        assert!(n3.north.is_none());
    }

    #[test]
    fn coords_roundtrip() {
        let d = Decomp::with_grid(16, 16, 3, 4);
        for r in 0..d.size() {
            let (pr, pc) = d.coords(r);
            assert_eq!(d.rank_at(pr, pc), r);
        }
    }
}
