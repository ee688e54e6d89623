//! End-to-end convenience: simulate an archive, fit a surrogate, predict
//! episodes — the glue used by examples and the benchmark harness.

use cgrid::Grid;
use cocean::{OceanConfig, Roms, Snapshot, TidalForcing};
use cpipeline::{
    decode_prediction, decode_prediction_batch, encode_episode, stack_episodes, DataLoader,
    EncodeConfig, Episode, LoaderConfig, NormStats, SnapshotStore, TrainConfig, Trainer,
    WindowSpec,
};
use csurrogate::{SwinConfig, SwinSurrogate};
use ctensor::prelude::*;
use std::sync::Arc;

use crate::error::ForecastError;

/// Scenario: the mesh, forcing, episode shape and training budget used by
/// an experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub grid_params: cgrid::GridParams,
    /// Snapshot interval (s) — the "half hour" of the paper, scaled.
    pub snapshot_interval: f64,
    /// Forecast steps per episode (paper: 24).
    pub t_out: usize,
    /// Snapshots in the training archive.
    pub train_snapshots: usize,
    /// Snapshots in the test archive (distinct forcing year).
    pub test_snapshots: usize,
    /// Spin-up seconds before recording.
    pub spinup: f64,
    pub swin: SwinConfig,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
    /// Boundary-forcing override. `None` derives the forcing from the
    /// simulation year ([`TidalForcing::for_year`]); `Some` pins an
    /// explicit parameterization — the hook ensemble perturbations use to
    /// run the same mesh/model under many forcing scenarios.
    pub forcing: Option<TidalForcing>,
}

impl Scenario {
    /// Override the boundary forcing (see [`Scenario::forcing`]).
    pub fn with_forcing(mut self, forcing: TidalForcing) -> Self {
        self.forcing = Some(forcing);
        self
    }

    /// Small scenario that trains in seconds (tests/examples).
    pub fn small() -> Scenario {
        let grid_params = cgrid::GridParams {
            estuary: cgrid::EstuaryParams {
                ny: 24,
                nx: 20,
                ..Default::default()
            },
            nz: 3,
            ..Default::default()
        };
        let swin = SwinConfig {
            ny: 24,
            nx: 20,
            nz: 3,
            t_out: 4,
            patch: [4, 4, 3],
            embed_dim: 12,
            num_heads: vec![2, 4],
            window_first: [2, 2, 2, 2],
            window_rest: [2, 2, 2, 2],
            mlp_ratio: 1.5,
        };
        Scenario {
            grid_params,
            snapshot_interval: 1800.0,
            t_out: 4,
            train_snapshots: 140,
            test_snapshots: 30,
            spinup: 6.0 * 3600.0,
            swin,
            epochs: 20,
            lr: 2e-3,
            seed: 0,
            forcing: None,
        }
    }

    pub fn grid(&self) -> Grid {
        Grid::build(&self.grid_params)
    }

    /// The forcing this scenario runs under for `year`: the pinned
    /// override when one is set, else the year-derived parameterization.
    /// The single resolution rule shared by the solver configuration and
    /// the ensemble engine (perturbation bases, window synthesis) — they
    /// must never disagree on what the base forcing is.
    pub fn base_forcing(&self, year: u32) -> TidalForcing {
        self.forcing
            .clone()
            .unwrap_or_else(|| TidalForcing::for_year(year))
    }

    /// Ocean config with year-specific forcing (or the scenario's
    /// explicit override when one is pinned).
    pub fn ocean_config(&self, grid: &Grid, year: u32) -> OceanConfig {
        let mut cfg = OceanConfig::for_grid(grid);
        cfg.forcing = self.base_forcing(year);
        // Keep the slow step a divisor of the snapshot interval.
        let per = (self.snapshot_interval / cfg.dt_slow()).round().max(1.0);
        cfg.phys.dt_fast = self.snapshot_interval / per / cfg.ndtfast as f64;
        cfg
    }

    /// Simulate one "year" (scaled) of archive data with the given forcing
    /// year.
    pub fn simulate_archive(&self, grid: &Grid, year: u32, n: usize) -> Vec<Snapshot> {
        let cfg = self.ocean_config(grid, year);
        let mut model = Roms::new(grid, cfg);
        model.spinup(self.spinup);
        model.record(n, self.snapshot_interval)
    }
}

/// End-to-end parity gates for the reduced-precision inference tiers:
/// maximum allowed `max |Δζ|` (meters) of an int8 / f16 forecast against
/// the f32 forward of the same trained model on the standard verification
/// scenarios. Enforced by `tests/quant_parity.rs`. ζ on these scenarios
/// spans O(1 m) of tidal range, so the int8 gate is ~1% of signal and the
/// f16 gate ~0.1%.
pub const ZETA_TOL_INT8: f32 = 2e-2;
/// See [`ZETA_TOL_INT8`].
pub const ZETA_TOL_F16: f32 = 2e-3;

/// A trained surrogate bundle.
pub struct TrainedSurrogate {
    pub model: SwinSurrogate,
    pub stats: NormStats,
    pub mask: Tensor,
    pub encode: EncodeConfig,
    pub snapshot_interval: f64,
    /// Final training-epoch statistics.
    pub last_epoch: cpipeline::EpochStats,
    /// Numeric precision of the inference forward: every `predict_*`
    /// builds its graph at this precision. Training always runs f32;
    /// reduced tiers quantize `Linear` weights lazily (cached on the
    /// params) on first predict.
    pub precision: Precision,
}

/// Everything needed to reconstruct a [`TrainedSurrogate`] in another
/// thread or process: the model config, its parameter tensors, and the
/// encode/decode context.
///
/// Unlike the live model (whose parameters are `Rc`-shared and therefore
/// thread-local), a spec is `Send + Sync` — tensors are immutable
/// `Arc`-backed buffers — so replica pools can ship one spec to every
/// worker and rebuild identical models locally.
#[derive(Clone)]
pub struct SurrogateSpec {
    pub swin: SwinConfig,
    /// Parameter tensors in `state_dict` order.
    pub state: Vec<Tensor>,
    /// Non-trainable buffers (BatchNorm running statistics) — without
    /// these a rebuilt model normalizes with fresh stats and drifts from
    /// the trained one.
    pub buffers: Vec<Tensor>,
    pub stats: NormStats,
    pub mask: Tensor,
    pub encode: EncodeConfig,
    pub snapshot_interval: f64,
    /// Precision the instantiated surrogate serves at.
    pub precision: Precision,
}

impl SurrogateSpec {
    /// Same spec at a different serving precision (replica pools use this
    /// to run heterogeneous-precision workers from one trained model).
    pub fn with_precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Forecast steps per episode.
    pub fn t_out(&self) -> usize {
        self.swin.t_out
    }

    /// Expected mesh `(nz, ny, nx)` of request snapshots.
    pub fn mesh(&self) -> (usize, usize, usize) {
        (self.swin.nz, self.swin.ny, self.swin.nx)
    }

    /// Rebuild a live surrogate from this spec (e.g. inside a worker
    /// thread). The reconstruction is exact: parameters are loaded from
    /// the recorded state, not re-initialized.
    pub fn instantiate(&self) -> TrainedSurrogate {
        let model = SwinSurrogate::from_state(self.swin.clone(), &self.state);
        model.load_buffers(&self.buffers);
        if self.precision != Precision::F32 {
            // Warm the per-param quantized-weight caches now, at load
            // time, so the first request doesn't pay for quantizing every
            // layer. Only 2-D params (Linear weights) have a quantized
            // form; the tier gate may still keep individual layers at f16.
            let mut params = Vec::new();
            model.collect_params(&mut params);
            for p in &params {
                let shape = p.value().shape().to_vec();
                if let [k, n] = shape[..] {
                    let _ = p.quantized(self.precision, k, n);
                }
            }
        }
        TrainedSurrogate {
            model,
            stats: self.stats,
            mask: self.mask.clone(),
            encode: self.encode.clone(),
            snapshot_interval: self.snapshot_interval,
            last_epoch: cpipeline::EpochStats::default(),
            precision: self.precision,
        }
    }
}

/// The single source of truth for what a valid episode window is: the
/// initial condition plus `t_out` boundary frames, every snapshot on the
/// `(nz, ny, nx)` mesh with fields of the lengths that mesh implies.
/// Shared by [`TrainedSurrogate`] and the serving front end so admission
/// and execution can never disagree.
pub fn validate_episode_window(
    t_out: usize,
    mesh: (usize, usize, usize),
    window: &[Snapshot],
) -> Result<(), ForecastError> {
    let needed = t_out + 1;
    if window.len() != needed {
        return Err(ForecastError::WindowLength {
            needed,
            got: window.len(),
        });
    }
    let (nz, ny, nx) = mesh;
    for (frame, s) in window.iter().enumerate() {
        let got = (s.nz, s.ny, s.nx);
        if got != mesh {
            return Err(ForecastError::MeshMismatch {
                expected: mesh,
                got,
            });
        }
        for (field, values, expected) in [
            ("zeta", &s.zeta, ny * nx),
            ("u", &s.u, nz * ny * nx),
            ("v", &s.v, nz * ny * nx),
            ("w", &s.w, nz * ny * nx),
        ] {
            if values.len() != expected {
                return Err(ForecastError::FieldLength {
                    frame,
                    field,
                    expected,
                    got: values.len(),
                });
            }
        }
    }
    Ok(())
}

/// Train a surrogate on a snapshot archive.
pub fn train_surrogate(scenario: &Scenario, grid: &Grid, archive: &[Snapshot]) -> TrainedSurrogate {
    let mask_vec: Vec<f64> = (0..grid.ny)
        .flat_map(|j| (0..grid.nx).map(move |i| (j, i)))
        .map(|(j, i)| grid.mask_rho.get(j as isize, i as isize))
        .collect();
    let stats = NormStats::from_snapshots(archive, &mask_vec);
    let mask = Tensor::from_vec(
        mask_vec.iter().map(|&v| v as f32).collect(),
        &[grid.ny, grid.nx],
    );

    let store = Arc::new(SnapshotStore::build(archive));
    let starts = WindowSpec::train(scenario.t_out).starts(archive.len());
    let encode = EncodeConfig::default();
    let loader = DataLoader::new(
        store,
        starts,
        scenario.t_out,
        stats,
        encode.clone(),
        LoaderConfig {
            shuffle_seed: Some(scenario.seed),
            ..Default::default()
        },
    );

    let model = SwinSurrogate::new(scenario.swin.clone(), scenario.seed);
    let mut trainer = Trainer::new(
        model,
        mask.clone(),
        TrainConfig {
            lr: scenario.lr,
            ..Default::default()
        },
    );
    let mut last = cpipeline::EpochStats::default();
    for e in 0..scenario.epochs {
        last = trainer.train_epoch(&loader, e as u64);
    }
    TrainedSurrogate {
        model: trainer.model,
        stats,
        mask,
        encode,
        snapshot_interval: scenario.snapshot_interval,
        last_epoch: last,
        precision: Precision::F32,
    }
}

impl TrainedSurrogate {
    /// Extract the `Send + Sync` spec that reconstructs this surrogate in
    /// another thread (cheap: tensors are `Arc` clones).
    pub fn spec(&self) -> SurrogateSpec {
        SurrogateSpec {
            swin: self.model.cfg.clone(),
            state: state_dict(&self.model),
            buffers: self.model.buffers(),
            stats: self.stats,
            mask: self.mask.clone(),
            encode: self.encode.clone(),
            snapshot_interval: self.snapshot_interval,
            precision: self.precision,
        }
    }

    /// Validate that `window` is a well-formed episode for this model:
    /// the initial condition plus `t_out` boundary frames, all on the
    /// configured mesh.
    pub fn validate_window(&self, window: &[Snapshot]) -> Result<(), ForecastError> {
        validate_episode_window(
            self.model.cfg.t_out,
            (self.model.cfg.nz, self.model.cfg.ny, self.model.cfg.nx),
            window,
        )
    }

    /// Predict one episode: `window[0]` is the initial condition; the
    /// boundary conditions are taken from `window[1..]` (as the paper
    /// feeds future lateral BCs). Returns the predicted snapshots.
    pub fn predict_episode(&self, window: &[Snapshot]) -> Vec<Snapshot> {
        let ep = encode_episode(window, &self.stats, &self.encode);
        self.predict_encoded(&ep)
    }

    /// Fallible [`Self::predict_episode`]: window validation surfaces as a
    /// typed error instead of a panic deeper in the encode/forward path.
    pub fn try_predict_episode(&self, window: &[Snapshot]) -> Result<Vec<Snapshot>, ForecastError> {
        self.validate_window(window)?;
        Ok(self.predict_episode(window))
    }

    /// Predict a batch of episodes in one forward pass.
    ///
    /// The episodes are stacked along the batch axis (the Table I timing
    /// path promoted to a first-class API), so the batched matmul /
    /// attention kernels amortize per-op overhead across requests —
    /// serving throughput scales with batch size, not request count.
    /// Results match per-episode [`Self::predict_episode`] calls within
    /// numerical tolerance.
    pub fn predict_batch(
        &self,
        windows: &[&[Snapshot]],
    ) -> Result<Vec<Vec<Snapshot>>, ForecastError> {
        if windows.is_empty() {
            return Err(ForecastError::EmptyBatch);
        }
        for w in windows {
            self.validate_window(w)?;
        }
        let eps: Vec<Episode> = windows
            .iter()
            .map(|w| encode_episode(w, &self.stats, &self.encode))
            .collect();
        let t0s: Vec<f64> = eps.iter().map(|e| e.t0).collect();
        let batch = stack_episodes(&eps);
        let mut g = Graph::inference_with_precision(self.precision);
        let x3 = g.constant(batch.x3d);
        let x2 = g.constant(batch.x2d);
        let (p3, p2) = self.model.forward(&mut g, x3, x2);
        let mut out = decode_prediction_batch(
            g.value(p3),
            g.value(p2),
            &self.stats,
            &t0s,
            self.snapshot_interval,
        );
        for snaps in &mut out {
            self.mask_land(snaps);
        }
        Ok(out)
    }

    /// Predict from an already-encoded episode.
    pub fn predict_encoded(&self, ep: &Episode) -> Vec<Snapshot> {
        let mut g = Graph::inference_with_precision(self.precision);
        let x3 = g.constant(ep.x3d.clone());
        let x2 = g.constant(ep.x2d.clone());
        let (p3, p2) = self.model.forward(&mut g, x3, x2);
        let mut snaps = decode_prediction(
            g.value(p3),
            g.value(p2),
            &self.stats,
            ep.t0,
            self.snapshot_interval,
        );
        self.mask_land(&mut snaps);
        snaps
    }

    /// Zero land cells (the model is only trained on water).
    fn mask_land(&self, snaps: &mut [Snapshot]) {
        for s in snaps.iter_mut() {
            for j in 0..s.ny {
                for i in 0..s.nx {
                    if self.mask.at(&[j, i]) < 0.5 {
                        let i2 = s.idx2(j, i);
                        s.zeta[i2] = 0.0;
                        for k in 0..s.nz {
                            let i3 = s.idx3(k, j, i);
                            s.u[i3] = 0.0;
                            s.v[i3] = 0.0;
                            s.w[i3] = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// Wall-clock one batched inference (Table I / IV timing).
    pub fn time_inference(&self, windows: &[&[Snapshot]]) -> f64 {
        let eps: Vec<Episode> = windows
            .iter()
            .map(|w| encode_episode(w, &self.stats, &self.encode))
            .collect();
        let batch = stack_episodes(&eps);
        let t0 = std::time::Instant::now();
        let mut g = Graph::inference_with_precision(self.precision);
        let x3 = g.constant(batch.x3d.clone());
        let x2 = g.constant(batch.x2d.clone());
        let _ = self.model.forward(&mut g, x3, x2);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_end_to_end() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 12);
        assert_eq!(archive.len(), 12);
        let mut sc2 = sc.clone();
        sc2.epochs = 1;
        let trained = train_surrogate(&sc2, &grid, &archive);
        assert!(trained.last_epoch.mean_loss.is_finite());
        assert!(trained.last_epoch.instances > 0);

        // Predict the first episode and compare shapes.
        let pred = trained.predict_episode(&archive[..sc.t_out + 1]);
        assert_eq!(pred.len(), sc.t_out);
        assert_eq!(pred[0].ny, grid.ny);
        assert!(pred.iter().all(|s| s.zeta.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn predict_batch_matches_sequential() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 24);
        let mut sc1 = sc.clone();
        sc1.epochs = 1;
        let trained = train_surrogate(&sc1, &grid, &archive);

        let len = sc.t_out + 1;
        let windows: Vec<&[Snapshot]> = archive.chunks_exact(len).collect();
        assert!(windows.len() >= 3);
        let batched = trained.predict_batch(&windows).unwrap();
        assert_eq!(batched.len(), windows.len());
        for (w, b) in windows.iter().zip(&batched) {
            let seq = trained.predict_episode(w);
            assert_eq!(seq.len(), b.len());
            for (s, p) in seq.iter().zip(b) {
                assert_eq!(s.time, p.time);
                for (field_s, field_p) in
                    [(&s.zeta, &p.zeta), (&s.u, &p.u), (&s.v, &p.v), (&s.w, &p.w)]
                {
                    for (a, c) in field_s.iter().zip(field_p.iter()) {
                        assert!((a - c).abs() < 1e-5, "batched {c} vs sequential {a}");
                    }
                }
            }
            // A batch of one is the sequential path bit for bit: the
            // hybrid chain forecasts through it.
            let one = trained.predict_batch(&[w]).unwrap();
            assert_eq!(crate::bits(&one[0]), crate::bits(&seq));
        }
    }

    #[test]
    fn predict_batch_rejects_malformed_windows() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 12);
        let mut sc1 = sc.clone();
        sc1.epochs = 1;
        let trained = train_surrogate(&sc1, &grid, &archive);

        assert!(matches!(
            trained.predict_batch(&[]),
            Err(crate::error::ForecastError::EmptyBatch)
        ));
        let short = &archive[..sc.t_out]; // missing one boundary frame
        assert!(matches!(
            trained.predict_batch(&[short]),
            Err(crate::error::ForecastError::WindowLength { .. })
        ));
        let mut truncated = archive[..sc.t_out + 1].to_vec();
        truncated[1].w.truncate(10);
        assert!(matches!(
            trained.predict_batch(&[&truncated]),
            Err(crate::error::ForecastError::FieldLength {
                frame: 1,
                field: "w",
                got: 10,
                ..
            })
        ));
    }

    #[test]
    fn spec_roundtrip_reproduces_predictions() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 12);
        let mut sc1 = sc.clone();
        sc1.epochs = 1;
        let trained = train_surrogate(&sc1, &grid, &archive);
        let rebuilt = trained.spec().instantiate();

        let window = &archive[..sc.t_out + 1];
        let a = trained.predict_episode(window);
        let b = rebuilt.predict_episode(window);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.zeta, y.zeta, "spec roundtrip must be exact");
            assert_eq!(x.u, y.u);
        }
    }

    #[test]
    fn forcing_override_changes_archive_deterministically() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let base = sc.simulate_archive(&grid, 0, 4);
        let mut f = cocean::TidalForcing::for_year(0);
        for c in &mut f.constituents {
            c.amplitude *= 1.5;
        }
        let pert = sc.clone().with_forcing(f).simulate_archive(&grid, 0, 4);
        assert!(
            base.iter().zip(&pert).any(|(a, b)| a.zeta != b.zeta),
            "forcing override must change the simulated archive"
        );
        let again = sc.simulate_archive(&grid, 0, 4);
        assert_eq!(base[0].zeta, again[0].zeta, "no-override rerun is exact");
    }

    #[test]
    fn training_reduces_loss_across_epochs() {
        let sc = Scenario::small();
        let grid = sc.grid();
        let archive = sc.simulate_archive(&grid, 0, 20);
        let mut sc1 = sc.clone();
        sc1.epochs = 1;
        let one = train_surrogate(&sc1, &grid, &archive);
        let mut sc4 = sc;
        sc4.epochs = 4;
        let four = train_surrogate(&sc4, &grid, &archive);
        assert!(
            four.last_epoch.mean_loss < one.last_epoch.mean_loss,
            "{} !< {}",
            four.last_epoch.mean_loss,
            one.last_epoch.mean_loss
        );
    }
}
