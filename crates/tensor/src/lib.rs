//! # fpna-tensor
//!
//! A PyTorch-like tensor library whose kernels exist in paired
//! **deterministic / non-deterministic** variants — the §IV substrate
//! of the paper.
//!
//! PyTorch documents a list of operations whose GPU kernels are
//! non-deterministic because they accumulate with `atomicAdd`
//! ([`torch.use_deterministic_algorithms`]). This crate mirrors that
//! situation faithfully on the simulated GPU of `fpna-gpu-sim`:
//!
//! * every listed operation is implemented here —
//!   `conv_transpose1d/2d/3d`, `cumsum`, `index_add`, `index_copy`,
//!   `index_put`, `scatter`, `scatter_reduce` (sum/mean/prod/amax/amin);
//! * the **non-deterministic** variant lets the device's wave
//!   scheduler decide the order its atomic contributions commit in,
//!   streamed one warp at a time
//!   ([`fpna_gpu_sim::GpuDevice::for_each_commit_warp`]): `index_add`
//!   and the fused gather → `index_add`
//!   ([`ops::index::gather_index_add`], GraphSAGE's aggregation) add
//!   each warp's items as contiguous row slices, the other kernels
//!   apply each item as it commits, and `cumsum`'s look-back adds block
//!   partials as the blocks finish
//!   ([`fpna_gpu_sim::Scheduler::interleave`] over one-item queues);
//! * the **deterministic** variant (where PyTorch has one) accumulates
//!   in a fixed order: the same kernel under the in-order schedule
//!   ([`context::GpuContext::commit_schedule`]), except for `cumsum`
//!   and `conv_transpose*d`, whose deterministic kernels differ;
//! * `scatter` and `scatter_reduce` have **no** deterministic kernel:
//!   requesting one via
//!   [`fpna_core::determinism::use_deterministic_algorithms`] produces
//!   the same runtime error the paper reports hitting (§IV) — the
//!   documentation/implementation gap is part of what we reproduce.
//!
//! The kernel choice honours the global determinism switch by default
//! and can be overridden per-context for race-free experiments
//! ([`context::GpuContext::with_determinism`]).
//!
//! [`torch.use_deterministic_algorithms`]:
//!     https://pytorch.org/docs/stable/generated/torch.use_deterministic_algorithms.html
//!
//! ```
//! use fpna_tensor::{Tensor, context::GpuContext};
//! use fpna_gpu_sim::GpuModel;
//!
//! let ctx = GpuContext::new(GpuModel::H100, 42).with_determinism(Some(false));
//! let dst = Tensor::zeros(vec![4]);
//! let src = Tensor::from_vec(vec![6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
//! let index = vec![0u32, 0, 1, 1, 2, 3];
//! let out = fpna_tensor::ops::index::index_add(&ctx, &dst, &index, &src).unwrap();
//! assert_eq!(out.data()[3], 6.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod cost;
pub mod ops;
pub mod sweep;
pub mod tensor;

pub use context::GpuContext;
pub use tensor::Tensor;
