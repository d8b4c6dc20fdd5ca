//! Pins every observable bit of the simulated LPU behind `table8`.
//!
//! One FNV-1a hash per case: `lpu_inference`'s probabilities and fixed
//! `time_us` for GraphSAGE on `CoraParams::tiny()` (an untrained model
//! and one trained for three epochs with D kernels), and the outputs,
//! cycle count and `time_us` of hand-built `fpna-lpu-sim` programs: a
//! matmul chain, a gather → scatter-add with duplicate rows, and a
//! row softmax with a full reduction. A change that moves one output
//! bit or one cycle fails here.
//!
//! Each hash was captured once, from the machine as it stood when this
//! test landed. A moved hash is a change in results, so a hash is never
//! re-captured to make a change pass.

use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::GpuModel;
use fpna_lpu_sim::machine::{Lpu, Tensor2};
use fpna_lpu_sim::program::{Program, TensorId, TensorShape};
use fpna_lpu_sim::spec::LpuSpec;
use fpna_nn::cost::lpu_inference;
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::{train_model, GraphSage, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;

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

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Values of mixed sign and magnitude, so every reordered addition
/// shows in the bits.
fn messy(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut rng = SplitMix64::new(seed);
    let data = (0..rows * cols)
        .map(|_| (rng.next_f64() - 0.5) * 10f64.powi(rng.next_below(9) as i32 - 4))
        .collect();
    Tensor2::new(rows, cols, data)
}

/// Compile `p`, run it on `inputs`, and hash its cycle count, its time
/// and every output's shape and bits.
fn program_hash(p: Program, inputs: &[Tensor2]) -> u64 {
    let compiled = Lpu::new(LpuSpec::groq_like())
        .compile(p)
        .expect("valid program");
    let mut h = Fnv::new();
    h.word(compiled.cycles().to_bits());
    h.word(compiled.time_us().to_bits());
    for out in compiled.run(inputs).expect("inputs match") {
        h.word(out.shape.rows as u64);
        h.word(out.shape.cols as u64);
        h.floats(&out.data);
    }
    h.0
}

fn input(p: &mut Program, t: &Tensor2) -> TensorId {
    p.input(TensorShape::new(t.shape.rows, t.shape.cols))
}

fn matmul_chain() -> u64 {
    let (a, b, c, bias) = (
        messy(5, 7, 1),
        messy(7, 3, 2),
        messy(5, 3, 3),
        messy(1, 3, 4),
    );
    let mut p = Program::new();
    let (ia, ib, ic, ibias) = (
        input(&mut p, &a),
        input(&mut p, &b),
        input(&mut p, &c),
        input(&mut p, &bias),
    );
    let ab = p.matmul(ia, ib);
    let sum = p.add(ab, ic);
    let biased = p.add_row_broadcast(sum, ibias);
    let relu = p.relu(biased);
    let scaled = p.scale(relu, 0.3);
    p.output(ab);
    p.output(scaled);
    program_hash(p, &[a, b, c, bias])
}

fn gather_scatter_rows() -> u64 {
    let src = messy(6, 4, 5);
    let mut p = Program::new();
    let isrc = input(&mut p, &src);
    let gathered = p.gather_rows(isrc, vec![5, 0, 0, 3, 2, 5, 1, 0]);
    let dst = vec![2u32, 0, 2, 4, 2, 1, 0, 2];
    let summed = p.scatter_add_rows(gathered, dst.clone(), 5);
    let counts = (0..5)
        .map(|r| dst.iter().filter(|&&d| d == r).count() as u32)
        .collect();
    let mean = p.div_row_counts(summed, counts);
    p.output(gathered);
    p.output(summed);
    p.output(mean);
    program_hash(p, &[src])
}

fn softmax_and_total() -> u64 {
    let logits = messy(9, 5, 6);
    let mut p = Program::new();
    let il = input(&mut p, &logits);
    let probs = p.softmax_rows(il);
    let total = p.reduce_sum_all(il);
    p.output(probs);
    p.output(total);
    program_hash(p, &[logits])
}

fn inference(model: &GraphSage, ds: &fpna_nn::graph::NodeClassification) -> u64 {
    let (probs, time_us) = lpu_inference(ds, model).expect("valid shapes");
    let mut h = Fnv::new();
    h.floats(&probs);
    h.word(time_us.to_bits());
    h.0
}

#[test]
fn lpu_bits_are_pinned() {
    let ds = synthetic_cora(CoraParams::tiny(), 42);
    let cfg = TrainConfig {
        hidden: 8,
        lr: 0.5,
        epochs: 3,
        init_seed: 7,
        aggregation: Aggregation::Mean,
    };
    let untrained = GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, &cfg);
    let d_training = GpuContext::new(GpuModel::H100, 11).with_determinism(Some(true));
    let (trained, _) = train_model(&ds, &cfg, &d_training).expect("valid shapes");
    let got = [
        ("inference-untrained", inference(&untrained, &ds)),
        ("inference-trained", inference(&trained, &ds)),
        ("matmul-chain", matmul_chain()),
        ("gather-scatter-rows", gather_scatter_rows()),
        ("softmax-and-total", softmax_and_total()),
    ];
    let expected = [
        ("inference-untrained", 0x626e_e1c5_eb97_2154u64),
        ("inference-trained", 0xe7ee_bffc_fcf6_8563),
        ("matmul-chain", 0xc479_8e94_fa22_50d1),
        ("gather-scatter-rows", 0xd4c8_e9fa_796b_c8c8),
        ("softmax-and-total", 0xda0c_03e2_434f_3b40),
    ];
    let moved: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|((case, h), _)| format!("({case:?}, {h:#018x})"))
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {moved:#?}");
}
