//! # fpna-core
//!
//! Core of the floating-point non-associativity (FPNA) reproducibility
//! suite: the variability metrics of Shanmugavelu et al. (SC 2024,
//! arXiv:2408.05148, §II), run-to-run variability reports, a global
//! determinism context mirroring `torch.use_deterministic_algorithms`,
//! and low-level floating-point utilities (error-free transforms, ULP
//! distances) used by the deterministic summation algorithms.
//!
//! ## The problem
//!
//! Floating-point addition is not associative: `(a + b) + c` is in
//! general not bitwise equal to `a + (b + c)`. Any parallel kernel that
//! combines partial results in an order chosen at runtime (thread
//! arrival order, atomic commit order, work stealing) therefore produces
//! results that differ from run to run *on identical inputs*. This crate
//! provides the vocabulary to quantify that variability:
//!
//! * [`metrics::scalar_variability`] — `Vs(f) = 1 − |f_ND / f_D|` for
//!   scalar outputs;
//! * [`metrics::ermv`] — the elementwise relative mean absolute
//!   variation `Vermv` for array outputs (paper Eq. 1);
//! * [`metrics::count_variability`] — the count variability `Vc`, the
//!   fraction of elements that differ bitwise (paper Eq. 2).
//!
//! All three are zero if and only if the outputs are bitwise identical,
//! and grow as variability grows.
//!
//! ## Quick example
//!
//! ```
//! use fpna_core::metrics::{scalar_variability, count_variability};
//!
//! let deterministic = 1.0_f64;
//! let nondeterministic = 1.0_f64 + f64::EPSILON;
//! let vs = scalar_variability(nondeterministic, deterministic);
//! assert!(vs != 0.0 && vs.abs() < 1e-15);
//! assert_eq!(count_variability(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod determinism;
pub mod error;
pub mod executor;
pub mod fp;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod rng;

pub use determinism::{DeterminismGuard, DeterminismMode};
pub use error::{FpnaError, Result};
pub use harness::{RunSummary, VariabilityReport};
pub use metrics::{count_variability, ermv, scalar_variability, ArrayComparison};
