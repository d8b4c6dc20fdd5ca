//! The LPU executor: compile (shape-check + cycle accounting) and run.
//!
//! Execution is a straight walk of the instruction list — there is no
//! scheduler, no atomics, no arbitration, so the machine is bitwise
//! deterministic by construction. The cycle count is computed entirely
//! at compile time from shapes and the [`crate::spec::LpuSpec`].

use fpna_core::error::FpnaError;
use fpna_core::Result;

use crate::program::{Inst, Program, TensorShape};
use crate::spec::LpuSpec;

/// A dense row-major 2-D tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    /// Shape.
    pub shape: TensorShape,
    /// Row-major data, `shape.len()` elements.
    pub data: Vec<f64>,
}

impl Tensor2 {
    /// Construct, checking the element count.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor2 {
            shape: TensorShape::new(rows, cols),
            data,
        }
    }

    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor2 {
            shape: TensorShape::new(rows, cols),
            data: vec![0.0; rows * cols],
        }
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        let c = self.shape.cols;
        &self.data[r * c..(r + 1) * c]
    }
}

/// A compiled program: validated, with its ahead-of-time cycle count.
#[derive(Debug, Clone)]
pub struct Compiled {
    program: Program,
    cycles: f64,
    spec: LpuSpec,
}

impl Compiled {
    /// Total cycles, known before execution.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Runtime in microseconds — a constant, not a measurement, which
    /// is why the paper's Groq numbers carry no error bars.
    pub fn time_us(&self) -> f64 {
        self.spec.cycles_to_us(self.cycles)
    }

    /// Execute on the given inputs (one tensor per declared input, in
    /// declaration order). Returns the declared outputs in order.
    pub fn run(&self, inputs: &[Tensor2]) -> Result<Vec<Tensor2>> {
        let p = &self.program;
        if inputs.len() != p.inputs.len() {
            return Err(FpnaError::shape(format!(
                "program expects {} inputs, got {}",
                p.inputs.len(),
                inputs.len()
            )));
        }
        let mut slots: Vec<Option<Tensor2>> = vec![None; p.shapes.len()];
        for (id, t) in p.inputs.iter().zip(inputs) {
            let want = p.shapes[id.0];
            if t.shape != want {
                return Err(FpnaError::shape(format!(
                    "input {} expects {}x{}, got {}x{}",
                    id.0, want.rows, want.cols, t.shape.rows, t.shape.cols
                )));
            }
            slots[id.0] = Some(t.clone());
        }
        for inst in &p.insts {
            exec_inst(inst, p, &mut slots);
        }
        let mut outs = Vec::with_capacity(p.outputs.len());
        for id in &p.outputs {
            let t = slots[id.0]
                .clone()
                .ok_or_else(|| FpnaError::config("output tensor never produced"))?;
            outs.push(t);
        }
        Ok(outs)
    }
}

fn get(slots: &[Option<Tensor2>], id: crate::program::TensorId) -> &Tensor2 {
    slots[id.0]
        .as_ref()
        .expect("instruction consumed an undefined tensor (compile should prevent this)")
}

fn exec_inst(inst: &Inst, p: &Program, slots: &mut [Option<Tensor2>]) {
    match inst {
        Inst::MatMul { a, b, out } => {
            let (ta, tb) = (get(slots, *a), get(slots, *b));
            let (m, k, n) = (ta.shape.rows, ta.shape.cols, tb.shape.cols);
            let mut o = Tensor2::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let aik = ta.data[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &tb.data[kk * n..(kk + 1) * n];
                    let orow = &mut o.data[i * n..(i + 1) * n];
                    for j in 0..n {
                        orow[j] += aik * brow[j];
                    }
                }
            }
            slots[out.0] = Some(o);
        }
        Inst::Add { a, b, out } => {
            let (ta, tb) = (get(slots, *a), get(slots, *b));
            let data = ta
                .data
                .iter()
                .zip(&tb.data)
                .map(|(&x, &y)| x + y)
                .collect();
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
        Inst::AddRowBroadcast { a, bias, out } => {
            let (ta, tb) = (get(slots, *a), get(slots, *bias));
            let cols = ta.shape.cols;
            let mut data = ta.data.clone();
            for row in data.chunks_mut(cols) {
                for (x, &b) in row.iter_mut().zip(&tb.data) {
                    *x += b;
                }
            }
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
        Inst::Relu { a, out } => {
            let ta = get(slots, *a);
            let data = ta.data.iter().map(|&x| x.max(0.0)).collect();
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
        Inst::Scale { a, factor, out } => {
            let ta = get(slots, *a);
            let data = ta.data.iter().map(|&x| x * factor).collect();
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
        Inst::GatherRows { src, index, out } => {
            let ts = get(slots, *src);
            let cols = ts.shape.cols;
            let mut data = Vec::with_capacity(index.len() * cols);
            for &i in index {
                data.extend_from_slice(ts.row(i as usize));
            }
            slots[out.0] = Some(Tensor2 {
                shape: p.shape(*out),
                data,
            });
        }
        Inst::ScatterAddRows { src, index, out } => {
            let ts = get(slots, *src);
            let shape = p.shape(*out);
            let cols = shape.cols;
            let mut o = Tensor2::zeros(shape.rows, shape.cols);
            // k ascending: the statically scheduled, deterministic order.
            for (k, &dst) in index.iter().enumerate() {
                let srow = ts.row(k);
                let orow = &mut o.data[dst as usize * cols..(dst as usize + 1) * cols];
                for (x, &s) in orow.iter_mut().zip(srow) {
                    *x += s;
                }
            }
            slots[out.0] = Some(o);
        }
        Inst::DivRowCounts { a, counts, out } => {
            let ta = get(slots, *a);
            let cols = ta.shape.cols;
            let mut data = ta.data.clone();
            for (r, row) in data.chunks_mut(cols).enumerate() {
                let c = counts[r];
                if c > 0 {
                    let inv = 1.0 / c as f64;
                    for x in row.iter_mut() {
                        *x *= inv;
                    }
                }
            }
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
        Inst::ReduceSumAll { a, out } => {
            let ta = get(slots, *a);
            let v = fixed_tree_sum(&ta.data);
            slots[out.0] = Some(Tensor2::new(1, 1, vec![v]));
        }
        Inst::SoftmaxRows { a, out } => {
            let ta = get(slots, *a);
            let cols = ta.shape.cols;
            let mut data = ta.data.clone();
            for row in data.chunks_mut(cols) {
                let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut denom = 0.0;
                for x in row.iter_mut() {
                    *x = (*x - max).exp();
                    denom += *x;
                }
                for x in row.iter_mut() {
                    *x /= denom;
                }
            }
            slots[out.0] = Some(Tensor2 {
                shape: ta.shape,
                data,
            });
        }
    }
}

/// Fixed pairwise tree sum — the machine's only reduction order.
fn fixed_tree_sum(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        n => {
            let mid = n / 2;
            fixed_tree_sum(&xs[..mid]) + fixed_tree_sum(&xs[mid..])
        }
    }
}

/// The LPU device: compiles programs against its spec.
#[derive(Debug, Clone)]
pub struct Lpu {
    spec: LpuSpec,
}

impl Lpu {
    /// Device with the given spec.
    pub fn new(spec: LpuSpec) -> Self {
        Lpu { spec }
    }

    /// The machine spec.
    pub fn spec(&self) -> &LpuSpec {
        &self.spec
    }

    /// Compile: validate and compute the ahead-of-time cycle count.
    pub fn compile(&self, program: Program) -> Result<Compiled> {
        program.validate()?;
        let mut cycles = self.spec.invoke_cycles;
        for inst in &program.insts {
            cycles += self.inst_cycles(inst, &program);
        }
        Ok(Compiled {
            program,
            cycles,
            spec: self.spec.clone(),
        })
    }

    fn inst_cycles(&self, inst: &Inst, p: &Program) -> f64 {
        let lanes = self.spec.vector_lanes as f64;
        let dense = |shape: TensorShape| (shape.len() as f64 / lanes).ceil();
        let d = self.spec.dispatch_cycles;
        match inst {
            Inst::MatMul { a, b, out } => {
                let (sa, sb) = (p.shape(*a), p.shape(*b));
                let macs = sa.rows as f64 * sa.cols as f64 * sb.cols as f64;
                let _ = out;
                d + macs / self.spec.matmul_macs_per_cycle + dense(p.shape(*out))
            }
            Inst::Add { out, .. }
            | Inst::AddRowBroadcast { a: _, bias: _, out }
            | Inst::Relu { a: _, out }
            | Inst::Scale { a: _, factor: _, out }
            | Inst::SoftmaxRows { a: _, out } => d + dense(p.shape(*out)),
            Inst::GatherRows { out, .. } | Inst::ScatterAddRows { out, .. } => {
                d + dense(p.shape(*out)) * self.spec.scatter_stream_factor
            }
            Inst::DivRowCounts { out, .. } => d + dense(p.shape(*out)),
            Inst::ReduceSumAll { a, .. } => d + dense(p.shape(*a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TensorShape;

    fn spec() -> LpuSpec {
        LpuSpec::groq_like()
    }

    #[test]
    fn matmul_executes() {
        let mut p = Program::new();
        let a = p.input(TensorShape::new(2, 3));
        let b = p.input(TensorShape::new(3, 2));
        let y = p.matmul(a, b);
        p.output(y);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let ta = Tensor2::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tb = Tensor2::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let out = compiled.run(&[ta, tb]).unwrap();
        assert_eq!(out[0].data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(3, 2));
        let g = p.gather_rows(x, vec![2, 0, 2]);
        let s = p.scatter_add_rows(g, vec![0, 1, 0], 2);
        p.output(s);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let tx = Tensor2::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = compiled.run(&[tx]).unwrap();
        // row0 = x[2] + x[2] = (10, 12); row1 = x[0] = (1, 2)
        assert_eq!(out[0].data, vec![10.0, 12.0, 1.0, 2.0]);
    }

    #[test]
    fn execution_is_bitwise_deterministic() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(16, 16));
        let w = p.input(TensorShape::new(16, 16));
        let y = p.matmul(x, w);
        let r = p.relu(y);
        let s = p.reduce_sum_all(r);
        p.output(s);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let mk = |seed: u64| {
            let mut g = fpna_core::rng::SplitMix64::new(seed);
            Tensor2::new(16, 16, (0..256).map(|_| g.next_f64() - 0.5).collect())
        };
        let (a, b) = (mk(1), mk(2));
        let first = compiled.run(&[a.clone(), b.clone()]).unwrap();
        for _ in 0..5 {
            let again = compiled.run(&[a.clone(), b.clone()]).unwrap();
            assert_eq!(
                first[0].data[0].to_bits(),
                again[0].data[0].to_bits(),
                "no scheduler, no variability"
            );
        }
    }

    #[test]
    fn cycles_known_before_execution_and_fixed() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(100, 10));
        let s = p.reduce_sum_all(x);
        p.output(s);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let c = compiled.cycles();
        assert!(c > 0.0);
        assert!(compiled.time_us() > 0.0);
        // still the same after running — timing is static
        let t = Tensor2::zeros(100, 10);
        compiled.run(&[t]).unwrap();
        assert_eq!(compiled.cycles(), c);
    }

    #[test]
    fn wrong_inputs_are_rejected() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(2, 2));
        let s = p.reduce_sum_all(x);
        p.output(s);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        assert!(compiled.run(&[]).is_err());
        assert!(compiled.run(&[Tensor2::zeros(3, 2)]).is_err());
    }

    #[test]
    fn softmax_rows_normalises() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(2, 3));
        let y = p.softmax_rows(x);
        p.output(y);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let t = Tensor2::new(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let out = compiled.run(&[t]).unwrap();
        for r in 0..2 {
            let row_sum: f64 = out[0].row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_aggregation_building_blocks() {
        let mut p = Program::new();
        let x = p.input(TensorShape::new(2, 2));
        let m = p.div_row_counts(x, vec![2, 0]);
        p.output(m);
        let compiled = Lpu::new(spec()).compile(p).unwrap();
        let t = Tensor2::new(2, 2, vec![4.0, 6.0, 1.0, 1.0]);
        let out = compiled.run(&[t]).unwrap();
        assert_eq!(out[0].data, vec![2.0, 3.0, 1.0, 1.0]); // zero count passes through
    }
}
