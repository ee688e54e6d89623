//! Probabilistic ensemble products: per-cell moments and quantiles,
//! exceedance-probability maps (the flood-risk product), and member
//! ranking against a reference run.
//!
//! All statistics are computed over the member axis with a deterministic
//! reduction order, so a seeded ensemble yields bit-identical products on
//! every run.

use ccore::ErrorTable;
use cgrid::Grid;
use cocean::Snapshot;

use crate::runner::EnsembleOutcome;

/// Per-cell summary of one scalar field across ensemble members.
#[derive(Clone, Debug)]
pub struct FieldSummary {
    pub ny: usize,
    pub nx: usize,
    /// Quantile probabilities the `quantiles` rows correspond to.
    pub probs: Vec<f64>,
    pub mean: Vec<f32>,
    /// Ensemble spread (population standard deviation).
    pub std: Vec<f32>,
    pub min: Vec<f32>,
    pub max: Vec<f32>,
    /// `quantiles[q][cell]` for each probability in `probs`.
    pub quantiles: Vec<Vec<f32>>,
}

impl FieldSummary {
    /// Summarize `fields` (one `ny·nx` slice per member) across members.
    pub fn across_members(fields: &[Vec<f32>], ny: usize, nx: usize, probs: &[f64]) -> Self {
        assert!(!fields.is_empty(), "summary of an empty ensemble");
        let cells = ny * nx;
        for f in fields {
            assert_eq!(f.len(), cells, "member field size mismatch");
        }
        for &p in probs {
            assert!((0.0..=1.0).contains(&p), "quantile prob {p} out of range");
        }
        let n = fields.len();
        let mut mean = vec![0.0f32; cells];
        let mut std = vec![0.0f32; cells];
        let mut min = vec![0.0f32; cells];
        let mut max = vec![0.0f32; cells];
        let mut quantiles = vec![vec![0.0f32; cells]; probs.len()];
        let mut column = vec![0.0f32; n];
        for c in 0..cells {
            for (m, f) in fields.iter().enumerate() {
                column[m] = f[c];
            }
            // f64 accumulation: the mean must not drift with member count.
            let mu = column.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            let var = column
                .iter()
                .map(|&v| (v as f64 - mu) * (v as f64 - mu))
                .sum::<f64>()
                / n as f64;
            mean[c] = mu as f32;
            std[c] = var.sqrt() as f32;
            column.sort_by(|a, b| a.total_cmp(b));
            min[c] = column[0];
            max[c] = column[n - 1];
            for (qi, &p) in probs.iter().enumerate() {
                quantiles[qi][c] = sorted_quantile(&column, p);
            }
        }
        Self {
            ny,
            nx,
            probs: probs.to_vec(),
            mean,
            std,
            min,
            max,
            quantiles,
        }
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice.
fn sorted_quantile(sorted: &[f32], p: f64) -> f32 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = (pos - lo as f64) as f32;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Probabilistic products of one ensemble run.
#[derive(Clone, Debug)]
pub struct EnsembleStats {
    pub n_members: usize,
    /// Per-member peak free surface (max over forecast time, per cell) —
    /// the field exceedance maps and surge quantiles derive from.
    pub member_peak_zeta: Vec<Vec<f32>>,
    /// Peak-ζ summary across members (the storm-surge envelope).
    pub peak_zeta: FieldSummary,
    /// Final-step ζ summary.
    pub final_zeta: FieldSummary,
    /// Final-step surface-layer u / v summaries.
    pub final_surface_u: FieldSummary,
    pub final_surface_v: FieldSummary,
}

impl EnsembleStats {
    /// Default quantile probabilities (10/50/90%).
    pub const DEFAULT_PROBS: [f64; 3] = [0.1, 0.5, 0.9];

    /// Compute the products of an ensemble outcome.
    pub fn compute(outcome: &EnsembleOutcome, probs: &[f64]) -> Self {
        assert!(!outcome.members.is_empty(), "stats of an empty ensemble");
        let first = &outcome.members[0].forecast[0];
        let (ny, nx, nz) = (first.ny, first.nx, first.nz);
        let cells = ny * nx;
        let surface = nz - 1; // bottom layer first ⇒ top layer last

        let mut peaks: Vec<Vec<f32>> = Vec::with_capacity(outcome.members.len());
        let mut finals_z: Vec<Vec<f32>> = Vec::with_capacity(outcome.members.len());
        let mut finals_u: Vec<Vec<f32>> = Vec::with_capacity(outcome.members.len());
        let mut finals_v: Vec<Vec<f32>> = Vec::with_capacity(outcome.members.len());
        for m in &outcome.members {
            assert!(
                !m.forecast.is_empty(),
                "member {} has no forecast",
                m.member_id
            );
            let mut peak = vec![f32::NEG_INFINITY; cells];
            for snap in &m.forecast {
                for (p, &z) in peak.iter_mut().zip(&snap.zeta) {
                    *p = p.max(z);
                }
            }
            peaks.push(peak);
            let last = m.forecast.last().expect("non-empty forecast");
            finals_z.push(last.zeta.clone());
            let s0 = surface * cells;
            finals_u.push(last.u[s0..s0 + cells].to_vec());
            finals_v.push(last.v[s0..s0 + cells].to_vec());
        }

        Self {
            n_members: outcome.members.len(),
            peak_zeta: FieldSummary::across_members(&peaks, ny, nx, probs),
            final_zeta: FieldSummary::across_members(&finals_z, ny, nx, probs),
            final_surface_u: FieldSummary::across_members(&finals_u, ny, nx, probs),
            final_surface_v: FieldSummary::across_members(&finals_v, ny, nx, probs),
            member_peak_zeta: peaks,
        }
    }

    /// Exceedance-probability map: per cell, the fraction of members whose
    /// peak free surface exceeds `threshold` (m) — `P[ζ_max > threshold]`,
    /// the flood-risk product.
    pub fn exceedance(&self, threshold: f32) -> Vec<f32> {
        let cells = self.peak_zeta.ny * self.peak_zeta.nx;
        let mut out = vec![0.0f32; cells];
        for peak in &self.member_peak_zeta {
            for (o, &p) in out.iter_mut().zip(peak) {
                if p > threshold {
                    *o += 1.0;
                }
            }
        }
        let inv = 1.0 / self.n_members as f32;
        for o in &mut out {
            *o *= inv;
        }
        out
    }
}

/// One member's skill against a reference trajectory.
#[derive(Clone, Debug)]
pub struct MemberRank {
    pub member_id: usize,
    pub table: ErrorTable,
    /// Ranking score: ζ RMSE (m).
    pub score: f64,
}

/// Rank members by ζ RMSE against a reference run (ascending — best
/// first). `reference` must span the members' forecast length.
pub fn rank_members(
    grid: &Grid,
    reference: &[Snapshot],
    outcome: &EnsembleOutcome,
) -> Vec<MemberRank> {
    let mut ranks: Vec<MemberRank> = outcome
        .members
        .iter()
        .map(|m| {
            let table = ErrorTable::between(grid, &reference[..m.forecast.len()], &m.forecast);
            MemberRank {
                member_id: m.member_id,
                score: table.rmse[3],
                table,
            }
        })
        .collect();
    ranks.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.member_id.cmp(&b.member_id))
    });
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(cells: usize, v: f32) -> Vec<f32> {
        vec![v; cells]
    }

    #[test]
    fn summary_of_constant_members() {
        let fields = vec![field(6, 1.0), field(6, 2.0), field(6, 3.0)];
        let s = FieldSummary::across_members(&fields, 2, 3, &[0.0, 0.5, 1.0]);
        assert!(s.mean.iter().all(|&m| (m - 2.0).abs() < 1e-6));
        assert!(s.min.iter().all(|&m| m == 1.0));
        assert!(s.max.iter().all(|&m| m == 3.0));
        assert!(s.quantiles[1].iter().all(|&q| (q - 2.0).abs() < 1e-6));
        // population std of {1,2,3} = sqrt(2/3)
        let want = (2.0f64 / 3.0).sqrt() as f32;
        assert!(s.std.iter().all(|&d| (d - want).abs() < 1e-6));
    }

    #[test]
    fn quantiles_are_monotone_and_mean_bounded() {
        // Structured but irregular member fields.
        let members = 7;
        let cells = 12;
        let fields: Vec<Vec<f32>> = (0..members)
            .map(|m| {
                (0..cells)
                    .map(|c| ((m * 31 + c * 17) % 13) as f32 * 0.1 - 0.5)
                    .collect()
            })
            .collect();
        let s = FieldSummary::across_members(&fields, 3, 4, &[0.1, 0.5, 0.9]);
        for c in 0..cells {
            assert!(s.quantiles[0][c] <= s.quantiles[1][c]);
            assert!(s.quantiles[1][c] <= s.quantiles[2][c]);
            assert!(s.mean[c] >= s.min[c] - 1e-6 && s.mean[c] <= s.max[c] + 1e-6);
        }
    }

    #[test]
    fn sorted_quantile_interpolates() {
        let v = [0.0f32, 1.0, 2.0, 3.0];
        assert_eq!(sorted_quantile(&v, 0.0), 0.0);
        assert_eq!(sorted_quantile(&v, 1.0), 3.0);
        assert!((sorted_quantile(&v, 0.5) - 1.5).abs() < 1e-6);
    }
}
