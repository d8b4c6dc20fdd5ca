//! Pins every observable bit of a simulated reduction launch.
//!
//! One FNV-1a hash per (`GpuModel`, `ReduceKernel`), folded over a grid
//! of launch geometries × ragged lengths × the four [`ScheduleKind`]s.
//! Each grid point contributes [`GpuDevice::reduce`] under every kind
//! and [`GpuDevice::reduce_runs`] over `0..5` and `3..9` at worker
//! budgets 1 and 3: every outcome's value bits, `time_ns` bits
//! and `deterministic` flag, or the error text (AO on the MI250X).
//! Fig 1's seeded `64 × 7813` launch on one 1M-element array closes
//! each hash. A kernel rewrite that moves one addition, one timing draw
//! or one error anywhere on the grid changes the hash of the pair it
//! touched.
//!
//! Each hash was captured once, from the kernels as they stood when
//! this test landed. A moved hash is a change in results, so a hash is
//! never re-captured to make a change pass.

use fpna_core::executor::set_threads;
use fpna_core::Result;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ReduceOutcome, ScheduleKind};

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

    fn outcome(&mut self, out: &ReduceOutcome) {
        let ReduceOutcome {
            value,
            time_ns,
            deterministic,
        } = *out;
        self.word(value.to_bits());
        self.word(time_ns.to_bits());
        self.word(u64::from(deterministic));
    }

    fn error(&mut self, err: &fpna_core::error::FpnaError) {
        self.word(u64::MAX);
        for b in err.to_string().bytes() {
            self.word(u64::from(b));
        }
    }

    fn one(&mut self, out: &Result<ReduceOutcome>) {
        match out {
            Ok(out) => self.outcome(out),
            Err(err) => self.error(err),
        }
    }

    fn many(&mut self, outs: &Result<Vec<ReduceOutcome>>) {
        match outs {
            Ok(outs) => {
                self.word(outs.len() as u64);
                outs.iter().for_each(|out| self.outcome(out));
            }
            Err(err) => self.error(err),
        }
    }
}

/// Ragged lengths for `Nt × Nb`: empty, one element, fewer elements
/// than blocks, chunks shorter than one row of `Nt` that still end in a
/// partial warp, and (where that stays small) chunks of two rows plus a
/// ragged tail. None but 0 is a multiple of `Nt`. Past 2^16 lanes a
/// debug-build launch costs tens of milliseconds at any length, so the
/// two largest geometries keep only the short-chunk length.
fn lengths(nt: usize, nb: usize) -> Vec<usize> {
    let short = nb * (nt / 2).min(48) + 3;
    if nt * nb > 1 << 16 {
        return vec![short];
    }
    let mut out = vec![0, 1];
    if nb > 2 {
        out.push(nb - 1);
    }
    out.push(short);
    let rows = nb * (2 * nt) + nt / 2 + 1;
    if rows <= 1 << 16 {
        out.push(rows);
    }
    out
}

/// Values spread over 16 binades, so every reordering of the additions
/// is visible in the bits.
fn data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = fpna_core::rng::SplitMix64::new(seed);
    (0..n)
        .map(|i| (rng.next_f64() - 0.25) * f64::powi(2.0, (i % 16) as i32 - 8))
        .collect()
}

fn kinds(seed: u64) -> [ScheduleKind; 4] {
    [
        ScheduleKind::Seeded(seed),
        ScheduleKind::UniformRandom(seed ^ 0x55),
        ScheduleKind::InOrder,
        ScheduleKind::Reverse,
    ]
}

/// `reduce` under every kind, then the sweep path: runs `0..5` and
/// `3..9` of a seeded base at worker budgets 1 and 3. The kinds run
/// at whatever budget the previous launch left; their bits do not
/// depend on it.
fn absorb_launch(
    h: &mut Fnv,
    device: &GpuDevice,
    kernel: ReduceKernel,
    xs: &[f64],
    params: KernelParams,
    seed: u64,
) {
    for kind in kinds(seed) {
        h.one(&device.reduce(kernel, xs, params, &kind));
    }
    let base = ScheduleKind::Seeded(seed);
    for threads in [1, 3] {
        set_threads(threads);
        for range in [0..5, 3..9] {
            h.many(&device.reduce_runs(kernel, xs, params, &base, range));
        }
    }
}

fn fingerprint(model: GpuModel, kernel: ReduceKernel, fig1_data: &[f64]) -> u64 {
    let device = GpuDevice::new(model);
    let mut h = Fnv::new();
    for nt in [32u32, 64, 256, 1024] {
        for nb in [1u32, 7, 782] {
            let params = KernelParams::new(nt, nb);
            for n in lengths(nt as usize, nb as usize) {
                let seed = u64::from(nt) * 1_000_000 + u64::from(nb) * 1_000 + n as u64;
                absorb_launch(&mut h, &device, kernel, &data(n, seed), params, seed);
            }
        }
    }
    h.one(&device.reduce(
        kernel,
        fig1_data,
        KernelParams::fig1(),
        &ScheduleKind::Seeded(1),
    ));
    h.0
}

/// Compares `model`'s six hashes, in `ReduceKernel::all()` order, with
/// the pinned ones and reports all six when any moved.
fn check(model: GpuModel, pinned: [u64; 6]) {
    let fig1_data = data(1_000_000, 0xF161);
    let got: Vec<(ReduceKernel, u64)> = ReduceKernel::all()
        .into_iter()
        .map(|kernel| (kernel, fingerprint(model, kernel, &fig1_data)))
        .collect();
    let report: String = got
        .iter()
        .map(|(kernel, h)| format!("\n  {}: {h:#018x}", kernel.name()))
        .collect();
    for (&want, &(kernel, have)) in pinned.iter().zip(&got) {
        assert_eq!(
            have,
            want,
            "{} {} fingerprint moved; all {} hashes:{report}",
            model.name(),
            kernel.name(),
            model.name()
        );
    }
}

#[test]
fn every_v100_reduce_bit_is_pinned() {
    check(
        GpuModel::V100,
        [
            0x5bf5_3176_8fdc_3108, // CU
            0x4a2a_9ed9_cb92_313d, // SPTR
            0xa261_c375_a423_ec3a, // SPRG
            0x3d52_f022_82af_2743, // TPRC
            0x63a1_1ea0_1a13_6835, // SPA
            0xd37d_a765_f0b6_6cf6, // AO
        ],
    );
}

#[test]
fn every_gh200_reduce_bit_is_pinned() {
    check(
        GpuModel::Gh200,
        [
            0x469a_2270_6507_6858, // CU
            0x8c56_4ffc_f47e_6cad, // SPTR
            0x59cb_8635_aae1_805e, // SPRG
            0xbf50_4bb8_ac4a_6d0e, // TPRC
            0x00f2_81a8_2b12_0937, // SPA
            0x4383_d50c_cc48_b67a, // AO
        ],
    );
}

#[test]
fn every_mi250x_reduce_bit_is_pinned() {
    check(
        GpuModel::Mi250x,
        [
            0x893f_a120_67d2_147f, // CU
            0x83a5_072f_050e_663d, // SPTR
            0x0af7_1bb1_70e9_8d37, // SPRG
            0x9fc1_d5ce_b77a_567a, // TPRC
            0xb052_48cd_8eca_26e9, // SPA
            0x1a67_acf9_9f4a_c15d, // AO: the unsupported-kernel error
        ],
    );
}

#[test]
fn every_h100_reduce_bit_is_pinned() {
    check(
        GpuModel::H100,
        [
            0x223e_0075_4615_ed83, // CU
            0xf554_03c6_9bdc_313f, // SPTR
            0xbcb7_7eb8_1d9f_d0e7, // SPRG
            0xfd6d_5e9f_65fb_f59a, // TPRC
            0x9c48_f38d_9ba6_4860, // SPA
            0x28da_2609_0e52_23c7, // AO
        ],
    );
}
