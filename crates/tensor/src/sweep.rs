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
//! `R = output dim / source dim`.

use fpna_core::executor::RunExecutor;
use fpna_core::harness::{VariabilityHarness, VariabilityReport};
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

/// One (operation, hyperparameter configuration) cell of the Table 5
/// sweep, with its inputs and reference baked in at construction.
///
/// `run(i)` executes the non-deterministic kernel at **global** run
/// index `i`; since inputs and per-run seeds are pure functions of the
/// sweep seed and the index, any process can recompute any slice of
/// any cell bit-for-bit — the unit of work the `fpna-sweep` shard
/// protocol distributes.
pub struct Table5Cell {
    /// Table 5 operation this cell belongs to.
    pub op: &'static str,
    /// Stable cell name `"<op>/c<k>"` (`k` = 1-based configuration
    /// index within the op) — the row key in sharded sweeps.
    pub name: String,
    /// Whether the reference is the first non-deterministic run
    /// (paper §IV protocol for ops without a deterministic kernel).
    /// Such cells have no comparison row at global run 0.
    pub self_referenced: bool,
    reference: Vec<f64>,
    run: Box<dyn Fn(usize) -> Vec<f64> + Send + Sync>,
}

impl Table5Cell {
    /// Comparisons for the global run indices in `range`, as
    /// `(global_run, comparison)` pairs in index order. For
    /// self-referenced cells run 0 *is* the reference, so pairs start
    /// at `max(range.start, 1)`; a report assembled from any exact
    /// partition of `0..runs` equals the single-process report.
    pub fn comparisons_range(
        &self,
        range: std::ops::Range<usize>,
        executor: &RunExecutor,
    ) -> Vec<(usize, ArrayComparison)> {
        let start = if self.self_referenced {
            range.start.max(1)
        } else {
            range.start
        };
        let range = start..range.end.max(start);
        let comparisons = executor.map_run_range(range.clone(), |i| {
            ArrayComparison::compare(&self.reference, &(self.run)(i))
        });
        range.zip(comparisons).collect()
    }
}

/// Materialise every Table 5 cell, in table order. Deterministic
/// references (and, for self-referenced ops, run 0) are computed
/// eagerly here: they are pure functions of `(model, seed)` and cheap
/// next to the run sweep they anchor, so each shard process just
/// recomputes them.
pub fn table5_cells(model: GpuModel, seed: u64) -> Vec<Table5Cell> {
    let mut cells = Vec::new();

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
                let run_conv = move |c: &GpuContext, input: &Tensor, weight: &Tensor| match rank {
                    1 => conv_transpose1d(c, input, weight, None, &params),
                    2 => conv_transpose2d(c, input, weight, None, &params),
                    _ => conv_transpose3d(c, input, weight, None, &params),
                };
                let det = GpuContext::new(model, seed).with_determinism(Some(true));
                let reference = run_conv(&det, &input, &weight).expect("det conv").into_data();
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                cells.push(Table5Cell {
                    op: name,
                    name: format!("{name}/c{configs}"),
                    self_referenced: false,
                    reference,
                    run: Box::new(move |i| {
                        run_conv(&nd.for_run(i as u64), &input, &weight)
                            .expect("nd conv")
                            .into_data()
                    }),
                });
            }
        }
    }

    // --- cumsum ----------------------------------------------------
    {
        let mut configs = 0usize;
        for &n in &[128usize, 4096, 65_536] {
            configs += 1;
            let x = wide_random(vec![n], seed ^ 0x10 ^ n as u64);
            let det = GpuContext::new(model, seed).with_determinism(Some(true));
            let reference = cumsum(&det, &x).expect("det cumsum").into_data();
            let nd = GpuContext::new(model, seed).with_determinism(Some(false));
            cells.push(Table5Cell {
                op: "cumsum",
                name: format!("cumsum/c{configs}"),
                self_referenced: false,
                reference,
                run: Box::new(move |i| {
                    cumsum(&nd.for_run(i as u64), &x).expect("nd cumsum").into_data()
                }),
            });
        }
    }

    // --- index_add / index_copy / index_put ------------------------
    {
        let mut configs = 0usize;
        for &(n, rows_out) in &[(512usize, 8usize), (4096, 64), (16_384, 16)] {
            configs += 1;
            let det = GpuContext::new(model, seed).with_determinism(Some(true));
            // index_add: det reference
            {
                let src = wide_random(vec![n], seed ^ 0x20 ^ n as u64);
                let index = random_index(n, rows_out, seed ^ 0x21 ^ n as u64);
                let dst = Tensor::zeros(vec![rows_out]);
                let reference = index_add(&det, &dst, &index, &src).unwrap().into_data();
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                cells.push(Table5Cell {
                    op: "index_add",
                    name: format!("index_add/c{configs}"),
                    self_referenced: false,
                    reference,
                    run: Box::new(move |i| {
                        index_add(&nd.for_run(i as u64), &dst, &index, &src)
                            .unwrap()
                            .into_data()
                    }),
                });
            }
            // Write-race ops get a nearly-unique index tensor (a
            // permutation with a handful of duplicates) and bounded
            // positive values: races are rare and each perturbs its
            // element by O(1), so the mean variability is small — the
            // regime the paper's Table 5 magnitudes imply.
            let wide_index = nearly_unique_index(n, 4, seed ^ 0x23 ^ n as u64);
            // index_copy: det reference
            {
                let wide_dst = Tensor::zeros(vec![n]);
                let wide_index = wide_index.clone();
                let src2 = bounded_random(vec![n], seed ^ 0x22 ^ n as u64);
                let reference = index_copy(&det, &wide_dst, &wide_index, &src2)
                    .unwrap()
                    .into_data();
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                cells.push(Table5Cell {
                    op: "index_copy",
                    name: format!("index_copy/c{configs}"),
                    self_referenced: false,
                    reference,
                    run: Box::new(move |i| {
                        index_copy(&nd.for_run(i as u64), &wide_dst, &wide_index, &src2)
                            .unwrap()
                            .into_data()
                    }),
                });
            }
            // index_put: det reference (flat indices into a vector)
            {
                let wide_dst = Tensor::zeros(vec![n]);
                let values: Vec<f64> =
                    bounded_random(vec![n], seed ^ 0x24 ^ n as u64).into_data();
                let reference = index_put(&det, &wide_dst, &wide_index, &values)
                    .unwrap()
                    .into_data();
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                cells.push(Table5Cell {
                    op: "index_put",
                    name: format!("index_put/c{configs}"),
                    self_referenced: false,
                    reference,
                    run: Box::new(move |i| {
                        index_put(&nd.for_run(i as u64), &wide_dst, &wide_index, &values)
                            .unwrap()
                            .into_data()
                    }),
                });
            }
        }
    }

    // --- scatter / scatter_reduce (self-referenced: no det kernel) --
    {
        let mut configs = 0usize;
        for &(n, rows_out) in &[(512usize, 8usize), (4096, 64), (16_384, 16)] {
            configs += 1;
            // scatter is a write race: nearly-unique indices and
            // bounded values (see the index_copy comment above).
            {
                let wide_index = nearly_unique_index(n, 4, seed ^ 0x32 ^ n as u64);
                let wide_dst = Tensor::zeros(vec![n]);
                let wide_src = bounded_random(vec![n], seed ^ 0x33 ^ n as u64);
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                let run = Box::new(move |i: usize| {
                    scatter(&nd.for_run(i as u64), &wide_dst, &wide_index, &wide_src)
                        .unwrap()
                        .into_data()
                });
                cells.push(Table5Cell {
                    op: "scatter",
                    name: format!("scatter/c{configs}"),
                    self_referenced: true,
                    reference: run(0),
                    run,
                });
            }
            {
                let src = wide_random(vec![n], seed ^ 0x30 ^ n as u64);
                let index = random_index(n, rows_out, seed ^ 0x31 ^ n as u64);
                let dst = Tensor::zeros(vec![rows_out]);
                let nd = GpuContext::new(model, seed).with_determinism(Some(false));
                let run = Box::new(move |i: usize| {
                    scatter_reduce(&nd.for_run(i as u64), &dst, &index, &src, ReduceOp::Sum)
                        .unwrap()
                        .into_data()
                });
                cells.push(Table5Cell {
                    op: "scatter_reduce",
                    name: format!("scatter_reduce/c{configs}"),
                    self_referenced: true,
                    reference: run(0),
                    run,
                });
            }
        }
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

/// One cell of the Figs 3–5 experiments: fix the op, the input
/// dimension and the reduction ratio `R = output/source`, run the ND
/// kernel `runs` times and report the variability.
///
/// `scatter_reduce` is self-referenced (no deterministic kernel);
/// `index_add` compares against its deterministic kernel — exactly the
/// paper's protocol.
pub fn ratio_experiment(
    model: GpuModel,
    op: RatioOp,
    input_dim: usize,
    ratio: f64,
    runs: usize,
    seed: u64,
    executor: &RunExecutor,
) -> VariabilityReport {
    assert!(ratio > 0.0 && ratio <= 1.0, "reduction ratio in (0, 1]");
    let harness = VariabilityHarness::new(runs).with_executor(*executor);
    let out_rows = ((input_dim as f64 * ratio).round() as usize).max(1);
    let nd = GpuContext::new(model, seed).with_determinism(Some(false));
    match op {
        RatioOp::ScatterReduceSum | RatioOp::ScatterReduceMean => {
            let reduce = if op == RatioOp::ScatterReduceSum {
                ReduceOp::Sum
            } else {
                ReduceOp::Mean
            };
            let src = wide_random(vec![input_dim], seed ^ 0x40);
            let index = random_index(input_dim, out_rows, seed ^ 0x41);
            let dst = Tensor::zeros(vec![out_rows]);
            harness.array_self_referenced(|i| {
                scatter_reduce(&nd.for_run(i as u64), &dst, &index, &src, reduce)
                    .unwrap()
                    .into_data()
            })
        }
        RatioOp::IndexAdd => {
            // 2-D square source, reduced along dim 0.
            let src = wide_random(vec![input_dim, input_dim], seed ^ 0x42);
            let index = random_index(input_dim, out_rows, seed ^ 0x43);
            let dst = Tensor::zeros(vec![out_rows, input_dim]);
            let det = GpuContext::new(model, seed).with_determinism(Some(true));
            let reference = index_add(&det, &dst, &index, &src).unwrap().into_data();
            harness.array(&reference, |i| {
                index_add(&nd.for_run(i as u64), &dst, &index, &src)
                    .unwrap()
                    .into_data()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 5's rows over `runs` runs per cell: each cell's mean
    /// `Vermv` over `0..runs`, folded by [`table5_reduce`].
    fn table5_rows(runs: usize, executor: &RunExecutor) -> Vec<SweepRow> {
        let means: Vec<(&'static str, f64)> = table5_cells(GpuModel::H100, 123)
            .iter()
            .map(|cell| {
                let comparisons: Vec<ArrayComparison> = cell
                    .comparisons_range(0..runs, executor)
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
        let rows = table5_rows(3, &RunExecutor::serial());
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
    fn ratio_experiment_scatter_sum() {
        let report = ratio_experiment(
            GpuModel::H100,
            RatioOp::ScatterReduceSum,
            2000,
            0.5,
            5,
            7,
            &RunExecutor::serial(),
        );
        // self-referenced: runs-1 comparisons
        assert_eq!(report.per_run.len(), 4);
        assert!(report.vc.mean >= 0.0);
    }

    #[test]
    fn ratio_experiment_index_add_has_det_reference() {
        let report = ratio_experiment(
            GpuModel::H100,
            RatioOp::IndexAdd,
            64,
            0.5,
            5,
            8,
            &RunExecutor::serial(),
        );
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
        let serial = ratio_experiment(
            GpuModel::H100,
            RatioOp::IndexAdd,
            48,
            0.5,
            9,
            31,
            &RunExecutor::serial(),
        );
        for threads in [2usize, 4, 7] {
            let parallel = ratio_experiment(
                GpuModel::H100,
                RatioOp::IndexAdd,
                48,
                0.5,
                9,
                31,
                &RunExecutor::new(threads),
            );
            assert!(
                reports_identical(&serial, &parallel),
                "ratio_experiment diverged at threads={threads}"
            );
        }

        let rows_serial = table5_rows(3, &RunExecutor::serial());
        let rows_parallel = table5_rows(3, &RunExecutor::new(4));
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
        ratio_experiment(
            GpuModel::H100,
            RatioOp::IndexAdd,
            10,
            0.0,
            2,
            1,
            &RunExecutor::serial(),
        );
    }

    #[test]
    fn labels() {
        assert_eq!(RatioOp::ScatterReduceSum.label(), "scatter reduce(sum)");
        assert_eq!(RatioOp::IndexAdd.label(), "index add");
    }
}
