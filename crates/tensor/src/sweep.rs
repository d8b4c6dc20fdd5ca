//! Hyperparameter sweeps over the non-deterministic operations —
//! the machinery behind Table 5 and the reduction-ratio experiments of
//! Figs 3–5.
//!
//! The paper's protocol (§IV): for each operation, sweep its
//! hyperparameters; per configuration run the non-deterministic kernel
//! many times against a fixed reference (the deterministic kernel when
//! one exists, else the first non-deterministic run) and record
//! `Vermv`/`Vc`. Table 5 reports min/max `Vermv` over the sweep;
//! Figs 3–5 fix the operation and sweep the *reduction ratio*
//! `R = output dim / source dim`. Both run that protocol through one
//! type, [`OpCell`]: an op on fixed inputs, its reference rule, and
//! its per-run comparisons.

use fpna_core::executor::map_runs;
use fpna_core::harness::VariabilityReport;
use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::GpuModel;

use crate::context::GpuContext;
use crate::ops::conv::{conv_transpose1d, conv_transpose2d, conv_transpose3d, ConvParams};
use crate::ops::cumsum::cumsum;
use crate::ops::index::{index_add, index_copy, index_put};
use crate::ops::scatter::{scatter, scatter_reduce, ReduceOp};
use crate::tensor::Tensor;

/// Value scale used for sweep inputs: large dynamic range makes
/// rounding (and therefore commit-order sensitivity) visible.
const VALUE_SCALE: f64 = 1e6;

fn wide_random(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut g = SplitMix64::new(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|_| (g.next_f64() - 0.5) * VALUE_SCALE)
            .collect(),
    )
}

fn random_index(len: usize, bound: usize, seed: u64) -> Vec<u32> {
    let mut g = SplitMix64::new(seed);
    (0..len)
        .map(|_| g.next_below(bound.max(1) as u64) as u32)
        .collect()
}

/// A shuffled permutation of `0..len` with `dups` entries overwritten by
/// other entries' values — the "mostly unique scatter" regime in which
/// write races are rare birthday events rather than pile-ups.
fn nearly_unique_index(len: usize, dups: usize, seed: u64) -> Vec<u32> {
    let mut g = SplitMix64::new(seed);
    let mut index = fpna_core::rng::permutation(len, &mut g);
    for _ in 0..dups {
        let a = g.next_below(len as u64) as usize;
        let b = g.next_below(len as u64) as usize;
        index[a] = index[b];
    }
    index
}

/// Values in `[1, 2)`: positive and bounded, so a lost write race
/// perturbs the element by at most a factor of 2 (the relative diff is
/// O(1) and well conditioned — no division by near-zero references).
fn bounded_random(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut g = SplitMix64::new(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| 1.0 + g.next_f64()).collect())
}

/// Per-operation sweep outcome: one row of Table 5.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Operation name as listed in Table 5.
    pub op: &'static str,
    /// Smallest mean `Vermv` over all configurations.
    pub min_vermv: f64,
    /// Largest mean `Vermv` over all configurations.
    pub max_vermv: f64,
    /// Number of hyperparameter configurations visited.
    pub configs: usize,
}

/// One (operation, configuration) cell of a §IV experiment — a
/// Table 5 sweep configuration, or one [`ratio_experiment`] point of
/// Figs 3–5: its inputs, and the kernel that runs on them.
///
/// The kernel runs under a deterministic context for the reference
/// and under `nd.for_run(i)` for the non-deterministic run at
/// **global** run index `i`. Since inputs and per-run seeds are pure
/// functions of the sweep seed and the index, any process can
/// recompute any slice of any cell bit-for-bit — the unit of work the
/// `fpna-sweep` shard protocol distributes. Building a cell runs no
/// kernel, so listing the cells (for their names) is cheap.
pub struct OpCell {
    /// Operation this cell belongs to.
    pub op: &'static str,
    /// Stable cell name `"<op>/c<k>"` (`k` = 1-based configuration
    /// index within the op; a ratio point is `c1`) — the row key in
    /// sharded sweeps.
    pub name: String,
    /// Whether the reference is the first non-deterministic run
    /// (paper §IV protocol for ops without a deterministic kernel).
    /// Such cells have no comparison row at global run 0.
    pub self_referenced: bool,
    det: GpuContext,
    nd: GpuContext,
    kernel: Kernel,
}

/// A cell's op on its inputs, under a given context.
type Kernel = Box<dyn Fn(&GpuContext) -> Vec<f64> + Send + Sync>;

impl OpCell {
    fn new(
        (model, seed): (GpuModel, u64),
        op: &'static str,
        config: usize,
        self_referenced: bool,
        kernel: impl Fn(&GpuContext) -> Vec<f64> + Send + Sync + 'static,
    ) -> OpCell {
        let det = GpuContext::new(model, seed).with_determinism(Some(true));
        let nd = GpuContext::new(model, seed).with_determinism(Some(false));
        let name = format!("{op}/c{config}");
        OpCell { op, name, self_referenced, det, nd, kernel: Box::new(kernel) }
    }

    /// Comparisons for the global run indices in `range`, as
    /// `(global_run, comparison)` pairs in index order. For
    /// self-referenced cells run 0 *is* the reference, so pairs start
    /// at `max(range.start, 1)`; a report assembled from any exact
    /// partition of `0..runs` equals the single-process report. The
    /// reference is computed here, once per call, and not at all for
    /// an empty range.
    pub fn comparisons_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> Vec<(usize, ArrayComparison)> {
        let start = if self.self_referenced {
            range.start.max(1)
        } else {
            range.start
        };
        let range = start..range.end.max(start);
        if range.is_empty() {
            return Vec::new();
        }
        let reference = if self.self_referenced {
            (self.kernel)(&self.nd.for_run(0))
        } else {
            (self.kernel)(&self.det)
        };
        let comparisons = map_runs(range.clone(), |i| {
            ArrayComparison::compare(&reference, &(self.kernel)(&self.nd.for_run(i as u64)))
        });
        range.zip(comparisons).collect()
    }
}

/// Every Table 5 cell, in table order. Only the inputs are built here;
/// each cell runs its kernels, the reference included, in
/// [`OpCell::comparisons_range`].
pub fn table5_cells(model: GpuModel, seed: u64) -> Vec<OpCell> {
    let mut cells = Vec::new();
    let key = (model, seed);

    // --- ConvTranspose1d/2d/3d ------------------------------------
    for (name, rank, sizes) in [
        ("ConvTranspose1d", 1usize, &[64usize, 256][..]),
        ("ConvTranspose2d", 2, &[8, 16][..]),
        ("ConvTranspose3d", 3, &[4, 6][..]),
    ] {
        let mut configs = 0usize;
        for &size in sizes {
            for (kernel, stride, padding) in [(2usize, 1usize, 0usize), (3, 2, 1), (5, 1, 2)] {
                if padding * 2 >= (size - 1) * stride + kernel {
                    continue;
                }
                configs += 1;
                let mut in_shape = vec![1, 3];
                in_shape.extend(std::iter::repeat_n(size, rank));
                let mut w_shape = vec![3, 4];
                w_shape.extend(std::iter::repeat_n(kernel, rank));
                let input = wide_random(in_shape, seed ^ (configs as u64) << 8);
                let weight = wide_random(w_shape, seed ^ 0xABCD ^ (configs as u64));
                let params = ConvParams::uniform(rank, stride, padding);
                cells.push(OpCell::new(key, name, configs, false, move |c| {
                    let out = match rank {
                        1 => conv_transpose1d(c, &input, &weight, None, &params),
                        2 => conv_transpose2d(c, &input, &weight, None, &params),
                        _ => conv_transpose3d(c, &input, &weight, None, &params),
                    };
                    out.expect("conv").into_data()
                }));
            }
        }
    }

    // --- cumsum ----------------------------------------------------
    for (config, &n) in (1..).zip(&[128usize, 4096, 65_536]) {
        let x = wide_random(vec![n], seed ^ 0x10 ^ n as u64);
        cells.push(OpCell::new(key, "cumsum", config, false, move |c| {
            cumsum(c, &x).expect("cumsum").into_data()
        }));
    }

    // --- index_add / index_copy / index_put ------------------------
    for (config, &(n, rows_out)) in (1..).zip(&[(512usize, 8usize), (4096, 64), (16_384, 16)]) {
        let src = wide_random(vec![n], seed ^ 0x20 ^ n as u64);
        let index = random_index(n, rows_out, seed ^ 0x21 ^ n as u64);
        let dst = Tensor::zeros(vec![rows_out]);
        cells.push(OpCell::new(key, "index_add", config, false, move |c| {
            index_add(c, &dst, &index, &src).expect("index_add").into_data()
        }));
        // Write-race ops get a nearly-unique index tensor (a
        // permutation with a handful of duplicates) and bounded
        // positive values: races are rare and each perturbs its
        // element by O(1), so the mean variability is small — the
        // regime the paper's Table 5 magnitudes imply.
        let wide_index = nearly_unique_index(n, 4, seed ^ 0x23 ^ n as u64);
        let wide_dst = Tensor::zeros(vec![n]);
        let src2 = bounded_random(vec![n], seed ^ 0x22 ^ n as u64);
        let (copy_dst, copy_index) = (wide_dst.clone(), wide_index.clone());
        cells.push(OpCell::new(key, "index_copy", config, false, move |c| {
            index_copy(c, &copy_dst, &copy_index, &src2).expect("index_copy").into_data()
        }));
        // index_put: flat indices into a vector.
        let values: Vec<f64> = bounded_random(vec![n], seed ^ 0x24 ^ n as u64).into_data();
        cells.push(OpCell::new(key, "index_put", config, false, move |c| {
            index_put(c, &wide_dst, &wide_index, &values).expect("index_put").into_data()
        }));
    }

    // --- scatter / scatter_reduce (self-referenced: no det kernel) --
    for (config, &(n, rows_out)) in (1..).zip(&[(512usize, 8usize), (4096, 64), (16_384, 16)]) {
        // scatter is a write race: nearly-unique indices and bounded
        // values (see the index_copy comment above).
        let wide_index = nearly_unique_index(n, 4, seed ^ 0x32 ^ n as u64);
        let wide_dst = Tensor::zeros(vec![n]);
        let wide_src = bounded_random(vec![n], seed ^ 0x33 ^ n as u64);
        cells.push(OpCell::new(key, "scatter", config, true, move |c| {
            scatter(c, &wide_dst, &wide_index, &wide_src).expect("scatter").into_data()
        }));
        let src = wide_random(vec![n], seed ^ 0x30 ^ n as u64);
        let index = random_index(n, rows_out, seed ^ 0x31 ^ n as u64);
        let dst = Tensor::zeros(vec![rows_out]);
        cells.push(OpCell::new(key, "scatter_reduce", config, true, move |c| {
            let out = scatter_reduce(c, &dst, &index, &src, ReduceOp::Sum);
            out.expect("scatter_reduce").into_data()
        }));
    }
    cells
}

/// Fold per-configuration mean-`Vermv` values — in cell (sweep) order,
/// one per [`table5_cells`] cell — into Table 5 rows: min/max per
/// operation, ops in first-appearance order. Each cell's mean comes
/// from its comparisons over `0..runs`, which `table5` gathers as sweep
/// rows, so a sharded sweep folds the same means as a single process.
pub fn table5_reduce(cell_means: &[(&'static str, f64)]) -> Vec<SweepRow> {
    let mut rows: Vec<SweepRow> = Vec::new();
    for &(op, v) in cell_means {
        let row = match rows.iter_mut().find(|r| r.op == op) {
            Some(r) => r,
            None => {
                rows.push(SweepRow {
                    op,
                    min_vermv: f64::INFINITY,
                    max_vermv: f64::NEG_INFINITY,
                    configs: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.min_vermv = row.min_vermv.min(v);
        row.max_vermv = row.max_vermv.max(v);
        row.configs += 1;
    }
    rows
}

/// Which operation a reduction-ratio experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioOp {
    /// 1-D `scatter_reduce` with a sum reduction.
    ScatterReduceSum,
    /// 1-D `scatter_reduce` with a mean reduction.
    ScatterReduceMean,
    /// 2-D `index_add` over square inputs.
    IndexAdd,
}

impl RatioOp {
    /// Label used in the figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RatioOp::ScatterReduceSum => "scatter reduce(sum)",
            RatioOp::ScatterReduceMean => "scatter reduce(mean)",
            RatioOp::IndexAdd => "index add",
        }
    }
}

/// One point of the Figs 3–5 experiments: fix the op, the input
/// dimension and the reduction ratio `R = output/source`, run the ND
/// kernel `runs` times and report the variability over the
/// comparisons of an [`OpCell`] at runs `0..runs`.
///
/// `scatter_reduce` is self-referenced (no deterministic kernel), so
/// its report holds `runs − 1` comparisons; `index_add` compares all
/// `runs` against its deterministic kernel — exactly the paper's
/// protocol.
pub fn ratio_experiment(
    model: GpuModel,
    op: RatioOp,
    input_dim: usize,
    ratio: f64,
    runs: usize,
    seed: u64,
) -> VariabilityReport {
    assert!(ratio > 0.0 && ratio <= 1.0, "reduction ratio in (0, 1]");
    let out_rows = ((input_dim as f64 * ratio).round() as usize).max(1);
    let key = (model, seed);
    let cell = match op {
        RatioOp::ScatterReduceSum | RatioOp::ScatterReduceMean => {
            let reduce = if op == RatioOp::ScatterReduceSum {
                ReduceOp::Sum
            } else {
                ReduceOp::Mean
            };
            let src = wide_random(vec![input_dim], seed ^ 0x40);
            let index = random_index(input_dim, out_rows, seed ^ 0x41);
            let dst = Tensor::zeros(vec![out_rows]);
            OpCell::new(key, op.label(), 1, true, move |c| {
                let out = scatter_reduce(c, &dst, &index, &src, reduce);
                out.expect("scatter_reduce").into_data()
            })
        }
        RatioOp::IndexAdd => {
            // 2-D square source, reduced along dim 0.
            let src = wide_random(vec![input_dim, input_dim], seed ^ 0x42);
            let index = random_index(input_dim, out_rows, seed ^ 0x43);
            let dst = Tensor::zeros(vec![out_rows, input_dim]);
            OpCell::new(key, op.label(), 1, false, move |c| {
                index_add(c, &dst, &index, &src).expect("index_add").into_data()
            })
        }
    };
    let comparisons: Vec<ArrayComparison> =
        cell.comparisons_range(0..runs).into_iter().map(|(_, c)| c).collect();
    VariabilityReport::from_comparisons(&comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::executor::set_threads;
    use fpna_gpu_sim::ScheduleKind;

    /// Table 5's rows over `runs` runs per cell: each cell's mean
    /// `Vermv` over `0..runs`, folded by [`table5_reduce`].
    fn table5_rows(runs: usize) -> Vec<SweepRow> {
        let means: Vec<(&'static str, f64)> = table5_cells(GpuModel::H100, 123)
            .iter()
            .map(|cell| {
                let comparisons: Vec<ArrayComparison> = cell
                    .comparisons_range(0..runs)
                    .into_iter()
                    .map(|(_, c)| c)
                    .collect();
                (
                    cell.op,
                    VariabilityReport::from_comparisons(&comparisons).vermv.mean,
                )
            })
            .collect();
        table5_reduce(&means)
    }

    #[test]
    fn table5_sweep_smoke() {
        let rows = table5_rows(3);
        assert_eq!(rows.len(), 9, "one row per Table 5 operation");
        for row in &rows {
            assert!(row.configs > 0, "{}", row.op);
            assert!(
                row.min_vermv <= row.max_vermv,
                "{}: {} > {}",
                row.op,
                row.min_vermv,
                row.max_vermv
            );
            assert!(row.max_vermv.is_finite());
        }
        // accumulating ops must show nonzero variability somewhere
        let max_of = |name: &str| {
            rows.iter()
                .find(|r| r.op == name)
                .map(|r| r.max_vermv)
                .unwrap()
        };
        assert!(max_of("index_add") > 0.0);
        assert!(max_of("scatter_reduce") > 0.0);
    }

    #[test]
    fn self_referenced_uses_first_run() {
        // A stub kernel returning `outputs[i]` under run i's ND context;
        // it panics under any other context, the D one included.
        let base = ScheduleKind::Seeded(9);
        let outputs = [vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]];
        let cell = OpCell::new((GpuModel::H100, 9), "stub", 1, true, move |c| {
            let run = (0..3).find(|&i| c.schedule == base.for_run(i)).expect("an ND run");
            outputs[run as usize].clone()
        });
        let pairs = cell.comparisons_range(0..3);
        // Run 0 is the reference: run 1 is identical, run 2 differs in
        // 1 of 2 elements.
        assert_eq!(pairs.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 2]);
        let comparisons: Vec<ArrayComparison> = pairs.into_iter().map(|(_, c)| c).collect();
        let report = VariabilityReport::from_comparisons(&comparisons);
        assert_eq!(report.per_run.len(), 2);
        assert_eq!(report.bitwise_identical_runs, 1);
        assert_eq!(report.vc.max, 0.5);
        assert!(cell.comparisons_range(0..1).is_empty());
    }

    #[test]
    fn ratio_experiment_scatter_sum() {
        let report = ratio_experiment(GpuModel::H100, RatioOp::ScatterReduceSum, 2000, 0.5, 5, 7);
        // self-referenced: runs-1 comparisons
        assert_eq!(report.per_run.len(), 4);
        assert!(report.vc.mean >= 0.0);
    }

    #[test]
    fn ratio_experiment_index_add_has_det_reference() {
        let report = ratio_experiment(GpuModel::H100, RatioOp::IndexAdd, 64, 0.5, 5, 8);
        assert_eq!(report.per_run.len(), 5);
        // with duplicates and wide values the ND kernel should differ
        // from the deterministic reference in at least one run
        assert!(report.vc.max > 0.0);
    }

    fn reports_identical(a: &VariabilityReport, b: &VariabilityReport) -> bool {
        a.per_run.len() == b.per_run.len()
            && a.bitwise_identical_runs == b.bitwise_identical_runs
            && a.per_run.iter().zip(&b.per_run).all(|(x, y)| {
                x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits()
            })
            && a.vermv.mean.to_bits() == b.vermv.mean.to_bits()
            && a.vc.std_dev.to_bits() == b.vc.std_dev.to_bits()
            && a.max_abs_diff.max.to_bits() == b.max_abs_diff.max.to_bits()
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        // The tentpole guarantee: parallel execution is bitwise
        // indistinguishable from serial, per report and per row.
        set_threads(1);
        let serial = ratio_experiment(GpuModel::H100, RatioOp::IndexAdd, 48, 0.5, 9, 31);
        for threads in [2usize, 4, 7] {
            set_threads(threads);
            let parallel = ratio_experiment(GpuModel::H100, RatioOp::IndexAdd, 48, 0.5, 9, 31);
            assert!(
                reports_identical(&serial, &parallel),
                "ratio_experiment diverged at threads={threads}"
            );
        }

        set_threads(1);
        let rows_serial = table5_rows(3);
        set_threads(4);
        let rows_parallel = table5_rows(3);
        assert_eq!(rows_serial.len(), rows_parallel.len());
        for (a, b) in rows_serial.iter().zip(&rows_parallel) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.min_vermv.to_bits(), b.min_vermv.to_bits(), "{}", a.op);
            assert_eq!(a.max_vermv.to_bits(), b.max_vermv.to_bits(), "{}", a.op);
            assert_eq!(a.configs, b.configs);
        }
    }

    #[test]
    #[should_panic(expected = "reduction ratio")]
    fn bad_ratio_panics() {
        ratio_experiment(GpuModel::H100, RatioOp::IndexAdd, 10, 0.0, 2, 1);
    }

    #[test]
    fn labels() {
        assert_eq!(RatioOp::ScatterReduceSum.label(), "scatter reduce(sum)");
        assert_eq!(RatioOp::IndexAdd.label(), "index add");
    }
}
