//! What the measurement protocol needs from a workload.

use crate::inputs::{OpRef, Prog};
use crate::phases::PlanShape;
use crate::trace::Recorder;

/// The five workloads, by their `--workload` names.
pub const NAMES: [&str; 5] = [
    "plan_sweep",
    "exec_compute",
    "exec_messages",
    "serve_steady",
    "serve_degraded",
];

/// One finished op of the timed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Index into the workload's [`Workload::kinds`].
    pub kind: u8,
    pub latency_ms: f64,
    /// No error, reference checksum, reference deterministic counters.
    pub ok: bool,
}

/// Wall-clock seconds of the three set-up stages.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Build inputs, plan, prepare.
    pub build_s: f64,
    /// Centralized reference runs, golden cross-check, first distributed runs.
    pub reference_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.reference_s + self.warmup_s
    }

    /// Every stage multiplied by `factor` (the set-up on the reference clock).
    pub fn scaled(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            build_s: self.build_s * factor,
            reference_s: self.reference_s * factor,
            warmup_s: self.warmup_s * factor,
        }
    }
}

/// A prepared workload: a periodic, seed-determined op sequence the protocol drives
/// in a closed loop, one batch at a time, on the calling thread.
pub trait Workload {
    /// Names of the op kinds (programs, node counts or fault classes).
    fn kinds(&self) -> &[&'static str];

    /// The reference of every position of one period of the op sequence.
    fn period(&self) -> &[OpRef];

    /// Ops one [`run_batch`](Self::run_batch) call executes (a serving batch is one
    /// whole period, because `run_serving` is one call).
    fn batch_len(&self) -> usize;

    /// The tail percentile this workload reports, taken over the ops of one period.
    fn tail_quantile(&self) -> f64;

    /// Mean `(edgecut, rewritten sites)` over the workload's distinct plans.
    fn plan_quality(&self) -> (f64, f64);

    /// The programs the workload plans, with their node counts (the traced pass
    /// re-plans them phase by phase).
    fn planned(&self) -> Vec<(Prog, usize)>;

    /// For a workload whose timed op is itself a planning op: the shapes of the
    /// plans its traced ops made phase by phase.
    fn traced_plan_shapes(&self) -> Option<&[PlanShape]> {
        None
    }

    /// Runs the batch starting at sequence position `pos`, appending one sample per
    /// op. With `rec` enabled the calls into the layers are recorded as spans.
    fn run_batch(&mut self, pos: usize, rec: &mut Recorder, out: &mut Vec<Sample>);
}
