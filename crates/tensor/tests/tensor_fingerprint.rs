//! Pins every observable bit of the tensor ops and of the two sweep
//! paths that run them.
//!
//! One FNV-1a hash per (`GpuModel`, op), for the H100 (32-lane warps)
//! and the MI250X (64-lane warps). Each hash folds the op over ragged
//! shapes under the four [`ScheduleKind`]s, in the deterministic and
//! the non-deterministic mode, at worker budgets 1 and 3: every
//! output's shape and value bits, or the error text (the D request of
//! an op that has no D kernel, and one malformed call per op). One more
//! hash per model pins launches wider than one wave: the ND ops that
//! walk the commit order, over more blocks than the device keeps
//! resident. Two more hashes pin the sweep paths: the
//! `ratio_experiment` reports behind Figs 3–5, and the comparisons of
//! every Table 5 cell over runs `0..3` and `1..4`. A kernel or sweep
//! rewrite that moves one addition, one committed write or one error
//! changes the hash it touched.
//!
//! Each hash was captured once, from the ops as they stood when this
//! test landed. A moved hash is a change in results, so a hash is
//! never re-captured to make a change pass.

use fpna_core::executor::set_threads;
use fpna_core::harness::{RunSummary, VariabilityReport};
use fpna_core::rng::SplitMix64;
use fpna_core::Result;
use fpna_gpu_sim::{GpuModel, ScheduleKind};
use fpna_tensor::context::GpuContext;
use fpna_tensor::ops::conv::{conv_transpose1d, conv_transpose2d, conv_transpose3d, ConvParams};
use fpna_tensor::ops::cumsum::cumsum;
use fpna_tensor::ops::index::{gather_index_add, gather_rows, index_add, index_copy, index_put};
use fpna_tensor::ops::lowp::{index_add_f32, scatter_reduce_f32};
use fpna_tensor::ops::scatter::{reference_scatter_reduce, scatter, scatter_reduce, ReduceOp};
use fpna_tensor::ops::segment::{bincount, embedding_bag, histc, BagMode};
use fpna_tensor::sweep::{ratio_experiment, table5_cells, RatioOp};
use fpna_tensor::Tensor;

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn absorb(&mut self, out: &impl Absorb) {
        out.absorb(self);
    }

    fn summary(&mut self, s: &RunSummary) {
        self.word(s.runs as u64);
        for v in [s.mean, s.std_dev, s.min, s.max] {
            self.word(v.to_bits());
        }
    }

    fn report(&mut self, r: &VariabilityReport) {
        self.word(r.per_run.len() as u64);
        for &(vermv, vc) in &r.per_run {
            self.word(vermv.to_bits());
            self.word(vc.to_bits());
        }
        self.word(r.bitwise_identical_runs as u64);
        for s in [&r.vermv, &r.vc, &r.max_abs_diff] {
            self.summary(s);
        }
    }
}

/// An op output folded into the hash: its length (and shape) and every
/// element's bits, or the error text.
trait Absorb {
    fn absorb(&self, h: &mut Fnv);
}

impl Absorb for Tensor {
    fn absorb(&self, h: &mut Fnv) {
        h.word(self.rank() as u64);
        self.shape().iter().for_each(|&d| h.word(d as u64));
        self.data().iter().for_each(|v| h.word(v.to_bits()));
    }
}

impl Absorb for Vec<f32> {
    fn absorb(&self, h: &mut Fnv) {
        h.word(self.len() as u64);
        self.iter().for_each(|v| h.word(u64::from(v.to_bits())));
    }
}

impl Absorb for Vec<u64> {
    fn absorb(&self, h: &mut Fnv) {
        h.word(self.len() as u64);
        self.iter().for_each(|&v| h.word(v));
    }
}

impl<T: Absorb> Absorb for Result<T> {
    fn absorb(&self, h: &mut Fnv) {
        match self {
            Ok(out) => out.absorb(h),
            Err(err) => {
                h.word(u64::MAX);
                h.text(&err.to_string());
            }
        }
    }
}

/// Values spread over 16 binades, so every reordering of the additions
/// is visible in the bits.
fn data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| (rng.next_f64() - 0.25) * f64::powi(2.0, (i % 16) as i32 - 8))
        .collect()
}

fn tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, data(n, seed))
}

/// `len` entries below `bound`, drawn with replacement: most rows take
/// many contributions, so commit order shows in sums and races.
fn index(len: usize, bound: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_below(bound as u64) as u32).collect()
}

/// A `[rows]` tensor when `w == 1`, else `[rows, w]`.
fn rows_shape(rows: usize, w: usize) -> Vec<usize> {
    if w == 1 {
        vec![rows]
    } else {
        vec![rows, w]
    }
}

/// `(contributions, destination rows, row width)` for the row ops.
/// Widths 3 and 17 split warps across rows on both warp sizes; the
/// last shape commits more than 64 warps.
const ROWS: [(usize, usize, usize); 6] = [
    (0, 1, 1),
    (1, 1, 1),
    (33, 7, 1),
    (257, 5, 3),
    (1000, 31, 1),
    (200, 9, 17),
];

/// Deterministic and non-deterministic contexts under each schedule
/// kind.
fn contexts(model: GpuModel, seed: u64) -> Vec<GpuContext> {
    let kinds = [
        ScheduleKind::Seeded(seed),
        ScheduleKind::UniformRandom(seed ^ 0x55),
        ScheduleKind::InOrder,
        ScheduleKind::Reverse,
    ];
    kinds
        .into_iter()
        .flat_map(|kind| {
            [true, false].map(|d| {
                GpuContext::new(model, seed)
                    .with_schedule(kind)
                    .with_determinism(Some(d))
            })
        })
        .collect()
}

type ConvFn = fn(&GpuContext, &Tensor, &Tensor, Option<&[f64]>, &ConvParams) -> Result<Tensor>;

/// `(batch, c_in, c_out, size, kernel, stride, padding, bias)` per
/// spatial dim; the last valid shape of each rank is large enough for
/// the D kernel to split its planes across workers. The last two
/// entries are malformed (padding too large, then one stride and
/// padding entry too many).
fn conv(h: &mut Fnv, ctx: &GpuContext, rank: usize, (large, large_kernel): (usize, usize)) {
    let op: ConvFn = [conv_transpose1d, conv_transpose2d, conv_transpose3d][rank - 1];
    let shapes = [
        (1, 1, 1, 1, 1, 1, 0, false),
        (2, 3, 2, 2 + 5 / rank, 3, 2, 1, true),
        (1, 2, 3, 3, 2, 1, 0, false),
        (2, 3, 4, large, large_kernel, 2, 2, true),
        (1, 1, 1, 2, 1, 1, 5, false),
    ];
    for (k, &(batch, c_in, c_out, size, kernel, stride, padding, bias)) in shapes.iter().enumerate()
    {
        let mut in_shape = vec![batch, c_in];
        in_shape.extend(std::iter::repeat_n(size, rank));
        let mut w_shape = vec![c_in, c_out];
        w_shape.extend(std::iter::repeat_n(kernel, rank));
        let input = tensor(in_shape, 0xC0 + k as u64);
        let weight = tensor(w_shape, 0xC1 + k as u64);
        let bias = bias.then(|| data(c_out, 0xC2));
        let params = ConvParams::uniform(rank, stride, padding);
        h.absorb(&op(ctx, &input, &weight, bias.as_deref(), &params));
    }
    let input = tensor([1, 1].into_iter().chain(std::iter::repeat_n(2, rank)).collect(), 1);
    h.absorb(&op(ctx, &input, &input, None, &ConvParams::uniform(rank + 1, 1, 0)));
}

fn conv1d(h: &mut Fnv, ctx: &GpuContext) {
    conv(h, ctx, 1, (300, 5));
}

fn conv2d(h: &mut Fnv, ctx: &GpuContext) {
    conv(h, ctx, 2, (11, 4));
}

fn conv3d(h: &mut Fnv, ctx: &GpuContext) {
    conv(h, ctx, 3, (4, 3));
}

fn cumsum_op(h: &mut Fnv, ctx: &GpuContext) {
    for n in [0, 1, 255, 256, 257, 1000, 4099] {
        h.absorb(&cumsum(ctx, &tensor(vec![n], n as u64)));
    }
}

fn index_add_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, w) in ROWS {
        let seed = (len * 100 + w) as u64;
        let dst = tensor(rows_shape(rows, w), seed);
        let src = tensor(rows_shape(len, w), seed + 1);
        h.absorb(&index_add(ctx, &dst, &index(len, rows, seed), &src));
    }
    let src = tensor(vec![3], 0);
    h.absorb(&index_add(ctx, &Tensor::zeros(vec![2]), &[0, 2, 1], &src));
}

fn gather_index_add_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, w) in ROWS {
        let seed = (len * 100 + w) as u64;
        let src_rows = rows + 2;
        let src = tensor(rows_shape(src_rows, w), seed);
        let dst_index = index(len, rows, seed + 1);
        let src_index = index(len, src_rows, seed + 2);
        h.absorb(&gather_index_add(ctx, rows, &dst_index, &src, &src_index));
    }
    let src = tensor(vec![2, 2], 0);
    h.absorb(&gather_index_add(ctx, 2, &[0, 1], &src, &[1]));
}

fn index_copy_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, w) in ROWS {
        let seed = (len * 100 + w) as u64;
        let dst = tensor(rows_shape(rows, w), seed);
        let src = tensor(rows_shape(len, w), seed + 1);
        h.absorb(&index_copy(ctx, &dst, &index(len, rows, seed), &src));
    }
    let src = tensor(vec![2, 3], 0);
    h.absorb(&index_copy(ctx, &Tensor::zeros(vec![2, 2]), &[0, 1], &src));
}

fn index_put_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, w) in ROWS {
        let seed = (len * 100 + w) as u64;
        let dst = tensor(rows_shape(rows, w), seed);
        let values = data(len, seed + 1);
        h.absorb(&index_put(ctx, &dst, &index(len, rows * w, seed), &values));
    }
    h.absorb(&index_put(ctx, &Tensor::zeros(vec![4]), &[0, 1], &[1.0]));
}

/// Pure reads, so `ctx` is unused; the last shape is large enough to
/// split across workers.
fn gather_rows_op(h: &mut Fnv, _ctx: &GpuContext) {
    for (len, rows, w) in ROWS.into_iter().chain([(3000, 40, 23)]) {
        let seed = (len * 100 + w) as u64;
        let src = tensor(rows_shape(rows, w), seed);
        h.absorb(&gather_rows(&src, &index(len, rows, seed + 1)));
    }
    h.absorb(&gather_rows(&tensor(vec![2, 2], 0), &[2]));
}

fn scatter_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, w) in ROWS {
        let seed = (len * 100 + w) as u64;
        let dst = tensor(rows_shape(rows, w), seed);
        let src = tensor(rows_shape(len, w), seed + 1);
        h.absorb(&scatter(ctx, &dst, &index(len, rows, seed), &src));
    }
    let src = tensor(vec![2], 0);
    h.absorb(&scatter(ctx, &Tensor::zeros(vec![2]), &[0, 2], &src));
}

const REDUCE_OPS: [ReduceOp; 5] = [
    ReduceOp::Sum,
    ReduceOp::Mean,
    ReduceOp::Prod,
    ReduceOp::Amax,
    ReduceOp::Amin,
];

fn scatter_reduce_op(h: &mut Fnv, ctx: &GpuContext) {
    for op in REDUCE_OPS {
        for (len, rows, w) in ROWS {
            let seed = (len * 100 + w) as u64;
            let dst = tensor(rows_shape(rows + 1, w), seed);
            let src = tensor(rows_shape(len, w), seed + 1);
            h.absorb(&scatter_reduce(ctx, &dst, &index(len, rows, seed), &src, op));
        }
    }
    let src = tensor(vec![2], 0);
    h.absorb(&scatter_reduce(ctx, &Tensor::zeros(vec![2]), &[0], &src, ReduceOp::Sum));
}

/// Ascending commit order whatever `ctx` says.
fn reference_scatter_reduce_op(h: &mut Fnv, _ctx: &GpuContext) {
    for op in REDUCE_OPS {
        for (len, rows, w) in ROWS {
            let seed = (len * 100 + w) as u64;
            let dst = tensor(rows_shape(rows + 1, w), seed);
            let src = tensor(rows_shape(len, w), seed + 1);
            h.absorb(&reference_scatter_reduce(&dst, &index(len, rows, seed), &src, op));
        }
    }
    let src = tensor(vec![2], 0);
    h.absorb(&reference_scatter_reduce(&Tensor::zeros(vec![2]), &[0, 5], &src, ReduceOp::Sum));
}

fn f32s(n: usize, seed: u64) -> Vec<f32> {
    data(n, seed).into_iter().map(|v| v as f32).collect()
}

fn index_add_f32_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, rows, _) in ROWS {
        let seed = len as u64;
        let dst = f32s(rows, seed);
        h.absorb(&index_add_f32(ctx, &dst, &index(len, rows, seed), &f32s(len, seed + 1)));
    }
    h.absorb(&index_add_f32(ctx, &[0.0; 2], &[0, 1], &[1.0]));
}

fn scatter_reduce_f32_op(h: &mut Fnv, ctx: &GpuContext) {
    for mean in [false, true] {
        for (len, rows, _) in ROWS {
            let seed = len as u64;
            let dst = f32s(rows + 1, seed);
            let idx = index(len, rows, seed);
            h.absorb(&scatter_reduce_f32(ctx, &dst, &idx, &f32s(len, seed + 1), mean));
        }
    }
    h.absorb(&scatter_reduce_f32(ctx, &[0.0; 2], &[3], &[1.0], false));
}

fn embedding_bag_op(h: &mut Fnv, ctx: &GpuContext) {
    for mode in [BagMode::Sum, BagMode::Mean] {
        for (len, vocab, dim) in ROWS {
            let seed = (len * 100 + dim) as u64;
            let weight = tensor(rows_shape(vocab, dim), seed);
            let indices = index(len, vocab, seed + 1);
            // Bags of 0, 1, 2, … entries, the last one taking the rest.
            let mut offsets = vec![0];
            let mut size = 0;
            while offsets.last() < Some(&len) {
                let end = (offsets.last().unwrap() + size).min(len);
                offsets.push(end);
                size += 1;
            }
            h.absorb(&embedding_bag(ctx, &weight, &indices, &offsets, mode));
        }
    }
    let weight = tensor(vec![2, 2], 0);
    h.absorb(&embedding_bag(ctx, &weight, &[0, 1], &[0, 1], BagMode::Sum));
}

fn bincount_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, bins, _) in ROWS {
        h.absorb(&bincount(ctx, &index(len, bins, len as u64), bins));
    }
    h.absorb(&bincount(ctx, &[0, 4], 4));
}

fn histc_op(h: &mut Fnv, ctx: &GpuContext) {
    for (len, bins, _) in ROWS {
        let mut values = data(len, len as u64);
        values.extend([f64::NAN, f64::INFINITY, -0.5, 0.5, 0.0]);
        h.absorb(&histc(ctx, &values, bins, -0.25, 0.5));
    }
    h.absorb(&histc(ctx, &[0.0], 0, 0.0, 1.0));
}

/// One op's calls under one context.
type OpFn = fn(&mut Fnv, &GpuContext);

/// Every public op, in the order of the pinned hashes.
const OPS: [(&str, OpFn); 17] = [
    ("conv_transpose1d", conv1d),
    ("conv_transpose2d", conv2d),
    ("conv_transpose3d", conv3d),
    ("cumsum", cumsum_op),
    ("index_add", index_add_op),
    ("gather_index_add", gather_index_add_op),
    ("index_copy", index_copy_op),
    ("index_put", index_put_op),
    ("gather_rows", gather_rows_op),
    ("scatter", scatter_op),
    ("scatter_reduce", scatter_reduce_op),
    ("reference_scatter_reduce", reference_scatter_reduce_op),
    ("index_add_f32", index_add_f32_op),
    ("scatter_reduce_f32", scatter_reduce_f32_op),
    ("embedding_bag", embedding_bag_op),
    ("bincount", bincount_op),
    ("histc", histc_op),
];

/// One op under every context of `model`, at worker budgets 1 and 3.
fn fingerprint(model: GpuModel, op: OpFn) -> u64 {
    let mut h = Fnv::new();
    for threads in [1, 3] {
        set_threads(threads);
        for ctx in contexts(model, 0x7E50) {
            op(&mut h, &ctx);
        }
    }
    h.0
}

/// Compares `model`'s hashes, in [`OPS`] order, with the pinned ones
/// and reports all of them when any moved.
fn check(model: GpuModel, pinned: [u64; 17]) {
    let got: Vec<(&str, u64)> = OPS
        .iter()
        .map(|&(name, op)| (name, fingerprint(model, op)))
        .collect();
    let report: String = got
        .iter()
        .map(|(name, h)| format!("\n  {h:#018x}, // {name}"))
        .collect();
    for (&want, &(name, have)) in pinned.iter().zip(&got) {
        assert_eq!(
            have,
            want,
            "{} {name} fingerprint moved; all {} hashes:{report}",
            model.name(),
            model.name()
        );
    }
}

#[test]
fn every_h100_tensor_op_bit_is_pinned() {
    check(
        GpuModel::H100,
        [
            0x43e8_05a6_4c76_b889, // conv_transpose1d
            0xf45b_2028_5b81_b491, // conv_transpose2d
            0xf113_6c47_e8e0_0b11, // conv_transpose3d
            0x9078_33d1_dec6_cebd, // cumsum
            0x333d_0280_f459_39dd, // index_add
            0x2f1d_8853_e857_a215, // gather_index_add
            0x1516_32d1_175d_35b9, // index_copy
            0x090e_5f32_4040_09c1, // index_put
            0x8106_6546_457b_a1a5, // gather_rows
            0x97e8_dff3_6bf2_6019, // scatter
            0x4265_43ba_1849_c8c5, // scatter_reduce
            0x4c5a_190f_38dc_0aa5, // reference_scatter_reduce
            0x2439_9c19_a7a6_a4a5, // index_add_f32
            0x889c_8624_1e8f_cf95, // scatter_reduce_f32
            0xc95e_6eae_1b78_e201, // embedding_bag
            0x4c8a_5ca4_2cbc_2325, // bincount
            0xda61_dfed_1ef2_f0c5, // histc
        ],
    );
}

#[test]
fn every_mi250x_tensor_op_bit_is_pinned() {
    check(
        GpuModel::Mi250x,
        [
            0x1b77_a65c_99d8_977d, // conv_transpose1d
            0x7653_87e7_6b82_3eb9, // conv_transpose2d
            0xf030_e17b_6b42_7bb5, // conv_transpose3d
            0x9078_33d1_dec6_cebd, // cumsum
            0x0614_1260_50ac_db05, // index_add
            0x3000_bb58_189e_8bdd, // gather_index_add
            0xda64_fcab_788a_bead, // index_copy
            0x474f_36f2_65d4_e02d, // index_put
            0x8106_6546_457b_a1a5, // gather_rows
            0x0d42_d87b_f1ac_2ff5, // scatter
            0x8928_5a74_5c1d_8df1, // scatter_reduce
            0x4c5a_190f_38dc_0aa5, // reference_scatter_reduce
            0x8d08_fa87_e90c_c77d, // index_add_f32
            0xffad_0ecf_bd1e_ec95, // scatter_reduce_f32
            0xa684_0b4f_6443_f829, // embedding_bag
            0x4c8a_5ca4_2cbc_2325, // bincount
            0xda61_dfed_1ef2_f0c5, // histc
        ],
    );
}

/// Items in each wide launch: 586 scan blocks for `cumsum` and 586
/// blocks of 256 threads for the scatters, more than the H100 (456)
/// or the MI250X (440) keeps resident.
const WIDE: usize = 150_000;

/// The ND ops whose commit order spans more than one wave, under both
/// stochastic kinds; `index_add` is the control.
fn wide_fingerprint(model: GpuModel) -> u64 {
    let rows = 1_000;
    let x = tensor(vec![WIDE], 0xA1);
    let x32 = f32s(WIDE, 0xA1);
    let idx = index(WIDE, rows, 0xA2);
    let dst = tensor(vec![rows], 0xA3);
    let dst32 = f32s(rows, 0xA3);
    let mut h = Fnv::new();
    for kind in [ScheduleKind::Seeded(0x31DE), ScheduleKind::UniformRandom(0x31DF)] {
        let ctx = GpuContext::new(model, 0)
            .with_schedule(kind)
            .with_determinism(Some(false));
        assert!(WIDE.div_ceil(256) > ctx.device.scheduler().concurrent_blocks as usize);
        h.absorb(&cumsum(&ctx, &x));
        h.absorb(&scatter(&ctx, &dst, &idx, &x));
        for op in [ReduceOp::Sum, ReduceOp::Mean] {
            h.absorb(&scatter_reduce(&ctx, &dst, &idx, &x, op));
        }
        for mean in [false, true] {
            h.absorb(&scatter_reduce_f32(&ctx, &dst32, &idx, &x32, mean));
        }
        h.absorb(&index_add(&ctx, &dst, &idx, &x));
    }
    h.0
}

#[test]
fn launches_wider_than_one_wave_are_pinned() {
    let have = [GpuModel::H100, GpuModel::Mi250x].map(wide_fingerprint);
    assert_eq!(
        have,
        [0xb5b9_93f3_6087_4562, 0x7cbf_717e_3aaf_44ab],
        "H100, MI250X wide-launch fingerprints moved: {have:#018x?}"
    );
}

/// Figs 3–5: each ratio op at R ∈ {0.1, 0.5, 1.0}, with one run (a
/// self-referenced op then has nothing to compare) and with four.
#[test]
fn ratio_experiment_reports_are_pinned() {
    let mut h = Fnv::new();
    for threads in [1, 3] {
        set_threads(threads);
        for (op, dim) in [
            (RatioOp::ScatterReduceSum, 500),
            (RatioOp::ScatterReduceMean, 500),
            (RatioOp::IndexAdd, 40),
        ] {
            for ratio in [0.1, 0.5, 1.0] {
                for runs in [1, 4] {
                    h.report(&ratio_experiment(GpuModel::H100, op, dim, ratio, runs, 0xF345));
                }
            }
        }
    }
    assert_eq!(h.0, 0x95af_d226_c53e_7c19, "ratio_experiment fingerprint moved: {:#018x}", h.0);
}

/// Table 5: every cell's `(global run, comparison)` pairs over two
/// overlapping run ranges, so self-referenced cells are pinned with and
/// without their reference run in range.
#[test]
fn table5_cell_comparisons_are_pinned() {
    let mut h = Fnv::new();
    for threads in [1, 3] {
        set_threads(threads);
        for cell in table5_cells(GpuModel::H100, 55) {
            h.text(&cell.name);
            for range in [0..3, 1..4] {
                let pairs = cell.comparisons_range(range);
                h.word(pairs.len() as u64);
                for (run, c) in pairs {
                    h.word(run as u64);
                    for v in [c.vermv, c.vc, c.max_abs_diff] {
                        h.word(v.to_bits());
                    }
                    h.word(c.len as u64);
                }
            }
        }
    }
    assert_eq!(h.0, 0xf9e9_9dd8_fb8e_1779, "table5 cell fingerprint moved: {:#018x}", h.0);
}
