//! The metric registry: every name the benchmark reports, with its unit, direction
//! and gate. `BENCHMARK.json` at the repository root lists exactly these end-to-end
//! and per-layer metrics (pinned by a unit test in `main.rs`).

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline by which the metric may
    /// get worse before `--compare` (and the driver) reports a regression.
    pub bound: Option<f64>,
    /// Deterministic for a given seed (counts, virtual time): `--compare` demands
    /// byte-identical values instead of applying a ratio.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn model(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, printed by the untraced pass. Modelled time has
/// its own unit: it is a deterministic output of the cost model, not a wall clock.
pub const END_TO_END: &[MetricDef] = &[
    wall("setup_s", "s", Lower, 0.25),
    wall("throughput_ops_s", "1/s", Higher, 0.25),
    wall("latency_p50_ms", "ms", Lower, 0.25),
    wall("latency_tail_ms", "ms", Lower, 0.25),
    wall("peak_rss_mb", "MB", Lower, 0.10),
    model("succeeded_ops_pct", "%", Higher, 0.01),
    model("virtual_us_per_op", "virtual_us", Lower, 0.20),
    model("virtual_speedup_pct", "%", Higher, 0.20),
    model("messages_per_op", "count", Lower, 0.20),
    model("wire_bytes_per_op", "bytes", Lower, 0.20),
    model("edgecut_per_plan", "count", Lower, 0.10),
    model("remote_sites_per_plan", "count", Lower, 0.10),
];

/// Single-layer numbers, printed by the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // Compile side, one span per phase call.
    layer("workloads.generate_ms", "ms", Lower),
    layer("analysis.rta_ms", "ms", Lower),
    layer("analysis.crg_ms", "ms", Lower),
    layer("analysis.objects_ms", "ms", Lower),
    layer("analysis.odg_ms", "ms", Lower),
    layer("partition.partition_ms", "ms", Lower),
    layer("codegen.placement_ms", "ms", Lower),
    layer("codegen.rewrite_ms", "ms", Lower),
    layer("ir.verify_ms", "ms", Lower),
    layer("ir.layout_ms", "ms", Lower),
    layer("plan.phase_sum_residual_pct", "%", Lower),
    count("ir.classes_per_op", "count"),
    count("analysis.odg_nodes_per_op", "count"),
    count("analysis.odg_edges_per_op", "count"),
    count("partition.edgecut_per_op", "count"),
    count("partition.imbalance_pct", "%"),
    count("codegen.rewritten_sites_per_op", "count"),
    layer("plan.size_s_ms", "ms", Lower),
    layer("plan.size_m_ms", "ms", Lower),
    layer("plan.size_l_ms", "ms", Lower),
    layer("plan.size_xl_ms", "ms", Lower),
    layer("plan.table1_ms", "ms", Lower),
    layer("analysis.odg_scaling_exponent", "exponent", Lower),
    // Interpreter.
    layer("interp.ns_per_insn", "ns", Lower),
    count("interp.insns_per_op", "count"),
    count("interp.heap_allocs_per_op", "count"),
    layer("exec.crypt_ms_p50", "ms", Lower),
    layer("exec.heapsort_ms_p50", "ms", Lower),
    layer("exec.compress_ms_p50", "ms", Lower),
    layer("exec.db_ms_p50", "ms", Lower),
    layer("exec.moldyn_ms_p50", "ms", Lower),
    // Remote path and wire.
    layer("remote.us_per_msg", "us", Lower),
    count("remote.requests_per_op", "count"),
    count("remote.bytes_per_msg", "bytes"),
    layer("wire.us_per_kib", "us", Lower),
    layer("exec.method_ms_p50", "ms", Lower),
    layer("exec.search_ms_p50", "ms", Lower),
    layer("exec.bank_ms_p50", "ms", Lower),
    layer("exec.gen_tag8_ms_p50", "ms", Lower),
    layer("exec.gen_bulk_ms_p50", "ms", Lower),
    layer("cluster.launch_us_per_op", "us", Lower),
    layer("share.interp_pct", "%", Lower),
    layer("share.remote_pct", "%", Lower),
    layer("share.launch_pct", "%", Lower),
    layer("share.residual_pct", "%", Lower),
    // Serving.
    layer("serve.overhead_us_per_req", "us", Lower),
    layer("serve.prepare_ms", "ms", Lower),
    layer("serve.c1_throughput_ops_s", "1/s", Higher),
    layer("serve.c8_over_c1_pct", "%", Higher),
    // Repair path.
    count("net.retries_per_op", "count"),
    count("net.suppressed_per_op", "count"),
    count("net.repaired_per_op", "count"),
    count("net.lost_per_op", "count"),
    layer("net.drop_req_ms_p50", "ms", Lower),
    layer("net.dup_req_ms_p50", "ms", Lower),
    layer("net.delay_req_ms_p50", "ms", Lower),
    layer("net.reorder_req_ms_p50", "ms", Lower),
    layer("serve.healthy_ms_p50_under_faults", "ms", Lower),
    layer("serve.healthy_ms_p99_under_faults", "ms", Lower),
    layer("net.fault_wrapper_overhead_pct", "%", Lower),
    // Informational: two worker threads on two shared cores.
    layer("sched.pool2_over_inline_pct", "%", Lower),
    layer("serve.pool2_throughput_ops_s", "1/s", Higher),
    layer("serve.pool2_spread_pct", "%", Lower),
    // Adaptive placement.
    layer("adapt.replan_ms", "ms", Lower),
    count("adapt.msgs_per_req_before", "count"),
    count("adapt.msgs_per_req_after", "count"),
    count("adapt.swaps", "count"),
    // Memory, set-up and the tracer itself.
    layer("malloc.allocs_per_op", "count", Lower),
    layer("malloc.bytes_per_op", "bytes", Lower),
    layer("setup.build_s", "s", Lower),
    layer("setup.reference_s", "s", Lower),
    layer("setup.warmup_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in both registries.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values of one run, by name. Values outside the registries (`*_raw`,
/// sample counts) are informational and only appear in the table and `--out` file.
#[derive(Default, Debug)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }
}
