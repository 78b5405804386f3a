//! Quiet-plan identity: proof that the transport's fault wrapper is invisible when a
//! *quiet* plan is attached.
//!
//! Two configurations per workload, both on the paper testbed under the inline
//! scheduler:
//!
//! * **off** — `ClusterConfig.faults = None`, the pre-fault-layer hot path (one
//!   `Option::is_some` branch per send).
//! * **quiet** — a seeded [`FaultPlan`] with every probability at zero: packets
//!   are sequenced, screened through the receive window and counted, but nothing
//!   is injected.
//!
//! `virtual_identical` and `messages_identical` must be `true`: a quiet plan that
//! shifts a virtual clock or a message count is a correctness bug. What sequencing
//! and screening cost in wall time is the frozen benchmark's
//! `net.fault_wrapper_overhead_pct`.

use autodist::{Distributor, DistributorConfig, PipelineResult};
use autodist_runtime::cluster::ClusterConfig;
use autodist_runtime::net::FaultPlan;

/// One workload's off-vs-quiet comparison.
#[derive(Clone, Debug)]
pub struct QuietPlanIdentity {
    /// Workload name (Table 1 row).
    pub name: String,
    /// Virtual clocks byte-identical between the two runs (must be `true`).
    pub virtual_identical: bool,
    /// Message and byte counts identical between the two runs (must be `true`).
    pub messages_identical: bool,
}

/// Compares the off-vs-quiet pair for a chatty and a bulk-transfer Table 1
/// workload (the wrapper touches every message, so `method` is the worst case and
/// `crypt` the amortised one).
pub fn quiet_plan_identity() -> PipelineResult<Vec<QuietPlanIdentity>> {
    let distributor = Distributor::new(DistributorConfig::default());
    let off_cluster = ClusterConfig::paper_testbed();
    let quiet_cluster = ClusterConfig {
        faults: Some(FaultPlan::quiet(0x000F_F1CE)),
        ..ClusterConfig::paper_testbed()
    };
    let mut areas = Vec::new();
    for w in [
        autodist_workloads::method_bench(300),
        autodist_workloads::crypt(400),
    ] {
        let plan = distributor.try_distribute(&w.program)?;
        let off = plan.try_execute(&off_cluster)?;
        let quiet = plan.try_execute(&quiet_cluster)?;
        areas.push(QuietPlanIdentity {
            name: w.name,
            virtual_identical: off.virtual_time_us == quiet.virtual_time_us,
            messages_identical: off.total_messages() == quiet.total_messages()
                && off.total_bytes() == quiet.total_bytes(),
        });
    }
    Ok(areas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plans_are_deterministically_invisible() {
        let areas = quiet_plan_identity().expect("both runs execute");
        assert_eq!(areas.len(), 2);
        for a in &areas {
            assert!(
                a.virtual_identical,
                "{}: quiet plan moved a virtual clock",
                a.name
            );
            assert!(
                a.messages_identical,
                "{}: quiet plan changed traffic",
                a.name
            );
        }
    }
}
