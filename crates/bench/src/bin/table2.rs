//! Table 2: properties of the six parallel-sum implementations.
//!
//! `cargo run -p fpna-bench --bin table2`
//!
//! Speaks the sweep protocol (`--emit-spec` / `--shard-id …` /
//! `--from-shards …`, see `fpna-sweep`): each global run index is one
//! kernel's property row, so even this static table exercises the full
//! emit-spec / shard / merge path — the protocol's smallest, fastest
//! conformance surface.

use std::process::ExitCode;

use fpna_core::report::Table;
use fpna_gpu_sim::ReduceKernel;
use fpna_sweep::{SweepRows, SweepSpec};

/// Synchronisation methods of Table 2, indexed by the code stored in
/// row column 2.
const SYNC_METHODS: [&str; 3] = ["__threadfence", "stream synchronization", "atomicAdd"];

/// Property rows for the kernels at global run indices in `range`:
/// `[deterministic (0/1), kernel count (-1 for the library call),
/// sync-method code]`.
fn compute(range: std::ops::Range<usize>) -> SweepRows {
    let kernels = ReduceKernel::all();
    let mut rows = SweepRows::new();
    for i in range {
        let k = kernels[i];
        let sync = SYNC_METHODS
            .iter()
            .position(|&s| s == k.sync_method())
            .expect("every kernel's sync method is in SYNC_METHODS") as f64;
        rows.push(
            "kernels",
            i,
            vec![
                if k.is_deterministic() { 1.0 } else { 0.0 },
                k.kernel_count().map(f64::from).unwrap_or(-1.0),
                sync,
            ],
        );
    }
    rows
}

/// Print the table from rows alone (kernel names come from the enum
/// walk, every property cell from the row values) — so merged shards
/// render byte-identically to a single process.
fn report(rows: &SweepRows) {
    fpna_bench::banner(
        "Table 2",
        "different implementations of the parallel sum in CUDA",
        "",
    );
    let mut table = Table::new(["Method", "deterministic", "# of kernels", "synchronization"]);
    for (i, k) in ReduceKernel::all().iter().enumerate() {
        let v = rows
            .values("kernels", i)
            .unwrap_or_else(|| panic!("missing row for kernel {i}"));
        table.push_row([
            k.name().to_string(),
            if v[0] != 0.0 { "Yes" } else { "No" }.to_string(),
            if v[1] < 0.0 { "-".to_string() } else { format!("{}", v[1] as u32) },
            SYNC_METHODS[v[2] as usize].to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn main() -> ExitCode {
    let cli = fpna_bench::Cli::parse();
    let spec = SweepSpec::new("table2", ReduceKernel::all().len());
    cli.sweep(&spec, compute, |rows| {
        report(rows);
        true
    })
}
