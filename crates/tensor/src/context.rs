//! Execution context: which simulated device runs the kernels, which
//! schedule this "launch" gets, and how the deterministic/non-
//! deterministic choice is made.

use fpna_core::determinism;
use fpna_gpu_sim::{GpuDevice, GpuModel, ScheduleKind};

/// Context threaded through every tensor operation.
///
/// * `device` — the simulated GPU whose wave scheduler orders atomic
///   commits;
/// * `schedule` — the schedule for this launch. Calling
///   [`GpuContext::for_run`] re-keys it, which is the simulation
///   analogue of "run the same program again";
/// * `determinism` — `None` (default) defers to the process-global
///   switch ([`fpna_core::determinism::use_deterministic_algorithms`]),
///   mirroring the PyTorch API; `Some(choice)` overrides it, which
///   experiments use to avoid global state races.
///
/// Atomic-order kernels walk [`GpuContext::commit_schedule`], so a
/// deterministic request is one more schedule; only `cumsum` and
/// `conv_transpose*d` branch on [`GpuContext::deterministic_requested`].
#[derive(Debug, Clone)]
pub struct GpuContext {
    /// The simulated device.
    pub device: GpuDevice,
    /// Schedule for this launch.
    pub schedule: ScheduleKind,
    /// Per-context determinism override (`None` = consult the global).
    pub determinism: Option<bool>,
}

impl GpuContext {
    /// Context on a stock device with a seeded realistic schedule.
    pub fn new(model: GpuModel, seed: u64) -> Self {
        GpuContext {
            device: GpuDevice::new(model),
            schedule: ScheduleKind::Seeded(seed),
            determinism: None,
        }
    }

    /// Override the determinism choice for this context.
    pub fn with_determinism(mut self, determinism: Option<bool>) -> Self {
        self.determinism = determinism;
        self
    }

    /// Replace the schedule (e.g. with an adversarial order).
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// A context for repetition `run`: same device, schedule re-keyed.
    pub fn for_run(&self, run: u64) -> Self {
        GpuContext {
            device: self.device.clone(),
            schedule: self.schedule.for_run(run),
            determinism: self.determinism,
        }
    }

    /// Should kernels use their deterministic variant?
    pub fn deterministic_requested(&self) -> bool {
        match self.determinism {
            Some(choice) => choice,
            None => determinism::deterministic_requested(),
        }
    }

    /// The order this launch's atomics commit in:
    /// [`ScheduleKind::InOrder`] when the deterministic variant is
    /// requested, the context's schedule otherwise. Under `InOrder`
    /// every output element receives its contributions in ascending
    /// item order, the fixed order of a deterministic kernel.
    pub fn commit_schedule(&self) -> ScheduleKind {
        if self.deterministic_requested() {
            ScheduleKind::InOrder
        } else {
            self.schedule
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_beats_global() {
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        assert!(ctx.deterministic_requested());
        let ctx = ctx.with_determinism(Some(false));
        assert!(!ctx.deterministic_requested());
    }

    #[test]
    fn deterministic_request_commits_in_order() {
        let ctx = GpuContext::new(GpuModel::H100, 1).with_schedule(ScheduleKind::Reverse);
        let d = ctx.clone().with_determinism(Some(true));
        assert_eq!(d.commit_schedule(), ScheduleKind::InOrder);
        let nd = ctx.with_determinism(Some(false));
        assert_eq!(nd.commit_schedule(), ScheduleKind::Reverse);
    }

    #[test]
    fn for_run_rekeys_schedule() {
        let ctx = GpuContext::new(GpuModel::V100, 7);
        let a = ctx.for_run(0);
        let b = ctx.for_run(1);
        assert_ne!(a.schedule, b.schedule);
        // deterministic override survives re-keying
        let c = ctx.with_determinism(Some(true)).for_run(2);
        assert_eq!(c.determinism, Some(true));
    }
}
