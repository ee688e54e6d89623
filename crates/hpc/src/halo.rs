//! Generic halo exchange between neighboring tiles.
//!
//! Field-type-agnostic: callers supply closures that extract an edge strip
//! to ship and insert a received strip into their halo. Tags encode the
//! direction of travel so both endpoints agree on matching without any
//! global coordination.

use crate::comm::Comm;
use crate::decomp::{Decomp, Neighbors};

/// Which halo a received strip fills (from the receiver's perspective);
/// for sends, the edge of the interior being shipped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    West,
    East,
    South,
    North,
}

impl Side {
    pub const ALL: [Side; 4] = [Side::West, Side::East, Side::South, Side::North];

    /// The side the strip arrives on at the receiver.
    pub fn opposite(self) -> Side {
        match self {
            Side::West => Side::East,
            Side::East => Side::West,
            Side::South => Side::North,
            Side::North => Side::South,
        }
    }

    fn travel_tag(self) -> u64 {
        // Direction of travel: a strip sent from my West edge travels
        // westward.
        match self {
            Side::West => 0,
            Side::East => 1,
            Side::South => 2,
            Side::North => 3,
        }
    }
}

fn neighbor_of(decomp: &Decomp, rank: usize, s: Side) -> Option<usize> {
    let Neighbors {
        west,
        east,
        south,
        north,
    } = decomp.neighbors(rank);
    match s {
        Side::West => west,
        Side::East => east,
        Side::South => south,
        Side::North => north,
    }
}

/// Send phase: ship the interior edge strip returned by `extract(side)` to
/// each existing neighbor (non-blocking).
///
/// `tag_base` namespaces this exchange from others in flight on the same
/// communicator (use a distinct base per field per phase).
pub fn send_halo<F>(comm: &Comm, decomp: &Decomp, tag_base: u64, mut extract: F)
where
    F: FnMut(Side) -> Vec<f64>,
{
    for side in Side::ALL {
        if let Some(to) = neighbor_of(decomp, comm.rank(), side) {
            comm.send(to, tag_base + side.travel_tag(), extract(side));
        }
    }
}

/// Receive phase: drain one strip per existing neighbor and hand it to
/// `insert(side, strip)` — `side` is the halo the strip fills.
pub fn recv_halo<G>(comm: &Comm, decomp: &Decomp, tag_base: u64, mut insert: G)
where
    G: FnMut(Side, Vec<f64>),
{
    for side in Side::ALL {
        if let Some(from) = neighbor_of(decomp, comm.rank(), side) {
            // A strip arriving on my `side` traveled in the direction of
            // the sender's opposite edge.
            let tag = tag_base + side.opposite().travel_tag();
            let strip = comm.recv(from, tag);
            insert(side, strip);
        }
    }
}

/// Full exchange: all sends first, then all receives — the classic
/// deadlock-free MPI pattern. When `extract` and `insert` need to borrow
/// the same field, call [`send_halo`] then [`recv_halo`] directly.
pub fn exchange_halo<F, G>(comm: &Comm, decomp: &Decomp, tag_base: u64, extract: F, insert: G)
where
    F: FnMut(Side) -> Vec<f64>,
    G: FnMut(Side, Vec<f64>),
{
    send_halo(comm, decomp, tag_base, extract);
    recv_halo(comm, decomp, tag_base, insert);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_parallel;

    /// Each rank fills its tile with its rank id, exchanges halos, and
    /// verifies every received strip equals the sending neighbor's id.
    #[test]
    fn halo_strips_carry_neighbor_values() {
        let ny = 8;
        let nx = 12;
        let d = Decomp::with_grid(ny, nx, 2, 3);
        let d2 = d.clone();
        run_parallel(vec![(); d.size()], move |c, ()| {
            let t = d2.tile(c.rank());
            let me = c.rank() as f64;
            let mut halos: Vec<(Side, Vec<f64>)> = Vec::new();
            exchange_halo(
                c,
                &d2,
                100,
                |side| {
                    let len = match side {
                        Side::West | Side::East => t.ny(),
                        Side::South | Side::North => t.nx(),
                    };
                    vec![me; len]
                },
                |side, strip| halos.push((side, strip)),
            );
            let n = d2.neighbors(c.rank());
            for (side, strip) in halos {
                let expect = match side {
                    Side::West => n.west,
                    Side::East => n.east,
                    Side::South => n.south,
                    Side::North => n.north,
                }
                .unwrap() as f64;
                assert!(strip.iter().all(|&v| v == expect), "{side:?} halo wrong");
                let expect_len = match side {
                    Side::West | Side::East => t.ny(),
                    Side::South | Side::North => t.nx(),
                };
                assert_eq!(strip.len(), expect_len);
            }
        });
    }

    /// Two sequential exchanges with different tag bases must not cross.
    #[test]
    fn repeated_exchanges_keep_order() {
        let d = Decomp::with_grid(4, 8, 1, 2);
        let d2 = d.clone();
        run_parallel(vec![(); 2], move |c, ()| {
            for step in 0..5u64 {
                let mut got = Vec::new();
                exchange_halo(
                    c,
                    &d2,
                    step * 10,
                    |_| vec![step as f64; 4],
                    |_, s| got.push(s),
                );
                for s in got {
                    assert!(s.iter().all(|&v| v == step as f64));
                }
            }
        });
    }
}
