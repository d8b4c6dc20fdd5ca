//! The §V experiment protocols.
//!
//! * [`weight_divergence_experiment`] — train N models with
//!   non-deterministic kernels from identical inputs and initial
//!   weights; per epoch, measure `Vermv` of the weight vector against
//!   the deterministically trained reference. Reproduces the §V-B
//!   findings: mean `Vermv` grows with epochs, and every ND-trained
//!   model ends up with a unique weight set (`Vc → 1`).
//! * [`train_inference_comparisons`] — the four D/ND training ×
//!   inference combinations of Table 7, measured on the inference
//!   predictions against the D/D reference: one comparison per model,
//!   which `table7` summarises per condition as a [`RunSummary`] of
//!   `Vermv` and of `Vc`.

use fpna_core::executor::map_runs;
use fpna_core::harness::RunSummary;
use fpna_core::metrics::ArrayComparison;
use fpna_core::Result;
use fpna_gpu_sim::GpuModel;
use fpna_tensor::context::GpuContext;

use crate::graph::NodeClassification;
use crate::model::{GraphSage, TrainConfig};

/// Result of the weight-divergence experiment.
#[derive(Debug, Clone)]
pub struct WeightDivergence {
    /// Per-epoch summary of weight `Vermv` across the ND runs.
    pub per_epoch_vermv: Vec<RunSummary>,
    /// Per-epoch summary of weight `Vc` across the ND runs.
    pub per_epoch_vc: Vec<RunSummary>,
    /// `Vc` of the final weights across runs (fraction of weights
    /// differing from the deterministic reference).
    pub final_vc: RunSummary,
    /// Number of distinct final weight vectors among the ND runs.
    pub unique_models: usize,
    /// Number of ND training runs.
    pub runs: usize,
    /// Final losses of the ND runs (they should cluster despite the
    /// bitwise divergence — "all models converge to similar loss").
    pub final_losses: Vec<f64>,
}

/// Per-run record of one ND training trajectory, produced on a worker
/// and folded into the experiment summaries in run-index order.
struct NdTrajectory {
    per_epoch: Vec<(f64, f64)>, // (vermv, vc) vs the reference, per epoch
    final_weights_bits: Vec<u64>,
    final_loss: f64,
}

/// Train `runs` ND models and track weight divergence per epoch against
/// a deterministic reference training run. The ND runs are independent
/// (each is seeded from `(seed, run_index)`), so they fan out through
/// [`map_runs`] with bitwise-identical summaries at any thread count.
pub fn weight_divergence_experiment(
    ds: &NodeClassification,
    cfg: &TrainConfig,
    gpu: GpuModel,
    runs: usize,
    seed: u64,
) -> Result<WeightDivergence> {
    // Reference: deterministic training, weights captured per epoch.
    let det_ctx = GpuContext::new(gpu, seed).with_determinism(Some(true));
    let mut reference = GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, cfg);
    let mut ref_weights: Vec<Vec<f64>> = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        reference.train_epoch(&det_ctx.for_run(epoch as u64), ds, cfg.lr)?;
        ref_weights.push(reference.flat_params());
    }

    let trajectories: Result<Vec<NdTrajectory>> = map_runs(0..runs, |r| -> Result<NdTrajectory> {
        let nd_ctx = GpuContext::new(gpu, fpna_core::rng::derive_seed(seed, 1 + r as u64))
            .with_determinism(Some(false));
        let mut model = GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, cfg);
        let mut per_epoch = Vec::with_capacity(cfg.epochs);
        let mut final_weights_bits = Vec::new();
        let mut final_loss = f64::NAN;
        for (epoch, ref_w) in ref_weights.iter().enumerate() {
            final_loss = model.train_epoch(&nd_ctx.for_run(epoch as u64), ds, cfg.lr)?;
            let w = model.flat_params();
            let cmp = ArrayComparison::compare(ref_w, &w);
            per_epoch.push((cmp.vermv, cmp.vc));
            if epoch + 1 == cfg.epochs {
                final_weights_bits = w.iter().map(|x| x.to_bits()).collect();
            }
        }
        Ok(NdTrajectory {
            per_epoch,
            final_weights_bits,
            final_loss,
        })
    })
    .into_iter()
    .collect();
    let trajectories = trajectories?;

    let mut per_epoch: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); cfg.epochs];
    let mut per_epoch_vc: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); cfg.epochs];
    let mut final_vc = Vec::with_capacity(runs);
    let mut final_losses = Vec::with_capacity(runs);
    let mut fingerprints = std::collections::HashSet::new();
    for t in trajectories {
        for (epoch, &(vermv, vc)) in t.per_epoch.iter().enumerate() {
            per_epoch[epoch].push(vermv);
            per_epoch_vc[epoch].push(vc);
            if epoch + 1 == cfg.epochs {
                final_vc.push(vc);
            }
        }
        fingerprints.insert(t.final_weights_bits);
        final_losses.push(t.final_loss);
    }
    Ok(WeightDivergence {
        per_epoch_vermv: per_epoch.iter().map(|v| RunSummary::from_values(v)).collect(),
        per_epoch_vc: per_epoch_vc.iter().map(|v| RunSummary::from_values(v)).collect(),
        final_vc: RunSummary::from_values(&final_vc),
        unique_models: fingerprints.len(),
        runs,
        final_losses,
    })
}

/// D or ND pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Deterministic kernels.
    D,
    /// Non-deterministic kernels.
    Nd,
}

impl Mode {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::D => "D",
            Mode::Nd => "ND",
        }
    }
}

/// The four D/ND training × inference conditions of Table 7, in the
/// paper's row order.
pub const MATRIX_CONDITIONS: [(Mode, Mode); 4] = [
    (Mode::D, Mode::D),
    (Mode::D, Mode::Nd),
    (Mode::Nd, Mode::D),
    (Mode::Nd, Mode::Nd),
];

/// The Table 7 experiment: predictions of independently produced
/// pipelines per condition, compared against the deterministic-train +
/// deterministic-inference reference, for the global model indices in
/// `range` only. Pipelines within a condition fan out through
/// [`map_runs`]. Every comparison is a pure function of
/// `(seed, condition, model_index)` — the D/D reference is recomputed
/// per process (one deterministic training run, cheap next to the
/// sweep) and run seeds are keyed by the *global* index — so any
/// partition of `0..models` concatenates back to the full matrix bit
/// for bit, at any thread count. Returns one `Vec<ArrayComparison>` per
/// condition of [`MATRIX_CONDITIONS`], in `range` index order.
pub fn train_inference_comparisons(
    ds: &NodeClassification,
    cfg: &TrainConfig,
    gpu: GpuModel,
    models: usize,
    seed: u64,
    range: std::ops::Range<usize>,
) -> Result<[Vec<ArrayComparison>; 4]> {
    assert!(range.end <= models, "model range {range:?} exceeds --models {models}");
    let det_ctx = GpuContext::new(gpu, seed).with_determinism(Some(true));
    let (ref_model, _) = crate::model::train_model(ds, cfg, &det_ctx)?;
    let reference = ref_model.predict(&det_ctx, ds)?.into_data();

    let mut out: [Vec<ArrayComparison>; 4] = Default::default();
    for (cond_idx, &(train, infer)) in MATRIX_CONDITIONS.iter().enumerate() {
        let comparisons: Result<Vec<ArrayComparison>> =
            map_runs(range.clone(), |m| -> Result<ArrayComparison> {
                let run_seed =
                    fpna_core::rng::derive_seed(seed, (cond_idx * models + m + 1) as u64);
                let train_ctx =
                    GpuContext::new(gpu, run_seed).with_determinism(Some(train == Mode::D));
                let model = if train == Mode::D {
                    // deterministic training always reproduces the reference
                    ref_model.clone()
                } else {
                    crate::model::train_model(ds, cfg, &train_ctx)?.0
                };
                let infer_ctx = GpuContext::new(gpu, run_seed ^ 0xF00D)
                    .with_determinism(Some(infer == Mode::D));
                let pred = model.predict(&infer_ctx, ds)?.into_data();
                Ok(ArrayComparison::compare(&reference, &pred))
            })
            .into_iter()
            .collect();
        out[cond_idx] = comparisons?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{synthetic_cora, CoraParams};
    use crate::sage::Aggregation;
    use fpna_core::executor::set_threads;
    use fpna_core::harness::VariabilityReport;

    fn tiny() -> NodeClassification {
        // Slightly denser than CoraParams::tiny so FPNA bites.
        let mut p = CoraParams::tiny();
        p.links = 500;
        synthetic_cora(p, 13)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            hidden: 8,
            lr: 0.5,
            epochs: 5,
            init_seed: 3,
            aggregation: Aggregation::Mean,
        }
    }

    /// Table 7 over models `0..models`: one report per condition of
    /// [`MATRIX_CONDITIONS`], whose `vermv` and `vc` are the
    /// `RunSummary`s `table7` prints.
    fn matrix(ds: &NodeClassification, models: usize, seed: u64) -> Vec<VariabilityReport> {
        train_inference_comparisons(ds, &cfg(), GpuModel::H100, models, seed, 0..models)
            .unwrap()
            .iter()
            .map(|comparisons| VariabilityReport::from_comparisons(comparisons))
            .collect()
    }

    #[test]
    fn weight_divergence_grows_and_models_are_unique() {
        let ds = tiny();
        let wd = weight_divergence_experiment(&ds, &cfg(), GpuModel::H100, 4, 17).unwrap();
        assert_eq!(wd.per_epoch_vermv.len(), 5);
        assert_eq!(wd.runs, 4);
        // §V-B: variability present and weights essentially all differ
        let last = wd.per_epoch_vermv.last().unwrap();
        assert!(last.mean > 0.0, "ND training should diverge");
        // On this tiny sparse graph only the touched weight rows can
        // diverge; the full-Cora bench (`table7`) shows Vc ≈ 1.
        assert!(wd.final_vc.mean > 0.05, "a solid fraction of weights should differ, got {}", wd.final_vc.mean);
        assert!(wd.unique_models >= 2);
        // losses cluster
        let min = wd.final_losses.iter().copied().fold(f64::INFINITY, f64::min);
        let max = wd
            .final_losses
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min < 0.5, "losses {:?}", wd.final_losses);
    }

    #[test]
    fn experiments_are_thread_count_invariant() {
        let ds = tiny();
        set_threads(1);
        let serial = weight_divergence_experiment(&ds, &cfg(), GpuModel::H100, 4, 17).unwrap();
        for threads in [2usize, 7] {
            set_threads(threads);
            let parallel =
                weight_divergence_experiment(&ds, &cfg(), GpuModel::H100, 4, 17).unwrap();
            assert_eq!(parallel.unique_models, serial.unique_models);
            for (a, b) in serial.final_losses.iter().zip(&parallel.final_losses) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
            for (a, b) in serial.per_epoch_vermv.iter().zip(&parallel.per_epoch_vermv) {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "threads={threads}");
                assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "threads={threads}");
            }
            assert_eq!(
                serial.final_vc.mean.to_bits(),
                parallel.final_vc.mean.to_bits()
            );
        }

        set_threads(1);
        let m_serial = matrix(&ds, 3, 19);
        set_threads(4);
        let m_parallel = matrix(&ds, 3, 19);
        for (a, b) in m_serial.iter().zip(&m_parallel) {
            assert_eq!(a.vermv.mean.to_bits(), b.vermv.mean.to_bits());
            assert_eq!(a.vc.mean.to_bits(), b.vc.mean.to_bits());
            assert_eq!(a.vc.std_dev.to_bits(), b.vc.std_dev.to_bits());
        }
    }

    #[test]
    fn matrix_dd_row_is_exactly_zero() {
        let ds = tiny();
        let rows = matrix(&ds, 2, 19);
        assert_eq!(rows.len(), 4);
        assert_eq!(MATRIX_CONDITIONS[0], (Mode::D, Mode::D));
        let dd = &rows[0];
        assert_eq!(dd.vermv.mean, 0.0);
        assert_eq!(dd.vc.mean, 0.0);
        // ND conditions produce nonzero divergence
        let ndnd = &rows[3];
        assert!(ndnd.vermv.mean > 0.0);
        assert!(ndnd.vc.mean > 0.0);
    }

    #[test]
    fn nd_training_dominates_nd_inference() {
        // The paper: "training seems to incur more variability" —
        // ND-train/D-infer > D-train/ND-infer in Vermv.
        let ds = tiny();
        let rows = matrix(&ds, 3, 23);
        let d_nd = rows[1].vermv.mean;
        let nd_d = rows[2].vermv.mean;
        assert!(
            nd_d > d_nd,
            "training variability ({nd_d}) should exceed inference variability ({d_nd})"
        );
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::D.label(), "D");
        assert_eq!(Mode::Nd.label(), "ND");
    }
}
