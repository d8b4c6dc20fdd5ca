//! The operation set of the paper's Table 5: every PyTorch operation
//! documented as non-deterministic on GPU, in paired deterministic /
//! non-deterministic implementations.
//!
//! | op | deterministic kernel | non-deterministic kernel |
//! |----|----------------------|--------------------------|
//! | `index_add` | atomic kernel, in-order schedule (ascending `k`) | atomic commit order |
//! | `index_copy` | atomic kernel, in-order schedule (last index wins) | last *commit* wins |
//! | `index_put` | atomic kernel, in-order schedule (last index wins) | last *commit* wins |
//! | `cumsum` | serial scan (its own algorithm) | block scan, look-back combine order |
//! | `conv_transpose1d/2d/3d` | output-gather order (its own algorithm) | input-scatter atomics |
//! | `scatter` | **none** (runtime error) | last commit wins |
//! | `scatter_reduce` | **none** (runtime error) | atomic commit order |
//!
//! `gather_index_add`, `embedding_bag`, `bincount`, `histc` and
//! `index_add_f32` follow the `index_add` row: one kernel walks
//! [`crate::context::GpuContext::commit_schedule`] in both modes.
//! `scatter_reduce_f32` follows the `scatter_reduce` row, and
//! `reference_scatter_reduce` is `scatter_reduce`'s kernel walked in
//! ascending order.
//!
//! `scatter`/`scatter_reduce` erroring under
//! `use_deterministic_algorithms(Deterministic)` reproduces the
//! documentation gap the paper reports (§IV). Reference deterministic
//! implementations still exist for testing, under `reference_*` names —
//! they are *not* part of the PyTorch-mirror surface.

pub mod conv;
pub mod cumsum;
pub mod index;
pub mod lowp;
pub mod scatter;
pub mod segment;

pub use conv::{conv_transpose1d, conv_transpose2d, conv_transpose3d, ConvParams};
pub use cumsum::cumsum;
pub use index::{gather_index_add, gather_rows, index_add, index_copy, index_put};
pub use scatter::{reference_scatter_reduce, scatter, scatter_reduce, ReduceOp};
