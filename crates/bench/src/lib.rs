//! # autodist-bench
//!
//! The experiment harness: one binary per table/figure of the paper's evaluation
//! (Section 7), the frozen repository benchmark (`benchmark`, which owns every
//! wall-clock figure) and the identity baseline ([`baseline`], which owns every
//! deterministic one).
//!
//! | target | reproduces |
//! |---|---|
//! | `table1`    | Table 1 — benchmark sizes, CRG/ODG sizes and edge cuts |
//! | `table2`    | Table 2 — execution-time breakdown of the distribution transformation |
//! | `table3`    | Table 3 — profiler overhead per metric |
//! | `figure3_4` | Figures 3 & 4 — CRG and ODG of the Bank example (VCG + DOT files) |
//! | `figure5_7` | Figures 5–7 — quads, AST and x86/StrongARM code for `Example.ex` |
//! | `figure8_9` | Figures 8 & 9 — bytecode transformations for remote calls and `new` |
//! | `figure11`  | Figure 11 — centralized vs distributed execution speedup |
//! | `baseline`  | prints the document committed as `BENCH_baseline.json` |
//!
//! Run any of them with `cargo run -p autodist-bench --bin <name>`; the tables and
//! `figure11` take an optional integer scale (`-- 2`).

use autodist::{Distributor, DistributorConfig, PipelineError, PipelineResult, Table1Row};
use autodist_runtime::cluster::ClusterConfig;
use autodist_workloads::Workload;

pub mod baseline;
pub mod fault;
pub mod microbench;
pub mod serving;

/// One row of the Figure 11 experiment.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Sequential execution time on the slow node, virtual microseconds.
    pub centralized_us: f64,
    /// Distributed execution time, virtual microseconds.
    pub distributed_us: f64,
    /// Messages exchanged by the distributed run.
    pub messages: u64,
    /// Bytes exchanged by the distributed run.
    pub bytes: u64,
    /// `true` if the distributed run produced the same `Main.checksum` as the baseline.
    pub checksum_matches: bool,
}

impl SpeedupRow {
    /// The speedup percentage the paper plots (100 % = parity, >100 % = faster).
    pub fn speedup_pct(&self) -> f64 {
        if self.distributed_us <= 0.0 {
            0.0
        } else {
            self.centralized_us / self.distributed_us * 100.0
        }
    }
}

/// Runs the Figure 11 experiment for one workload: centralized baseline on the slow
/// node vs automatic distribution over the paper's two-node testbed. Pipeline and
/// execution failures surface as [`autodist::PipelineError`].
pub fn measure_speedup(
    workload: &Workload,
    config: &DistributorConfig,
) -> PipelineResult<SpeedupRow> {
    let distributor = Distributor::new(config.clone());
    let baseline = distributor.try_run_baseline(&workload.program)?;
    let plan = distributor.try_distribute(&workload.program)?;
    let report = plan.try_execute(&ClusterConfig::paper_testbed())?;
    let checksum_matches =
        report.final_statics.get("Main::checksum") == baseline.final_statics.get("Main::checksum");
    Ok(SpeedupRow {
        benchmark: workload.name.clone(),
        centralized_us: baseline.virtual_time_us,
        distributed_us: report.virtual_time_us,
        messages: report.total_messages(),
        bytes: report.total_bytes(),
        checksum_matches,
    })
}

/// Builds the Table 1 row for one workload.
pub fn table1_row(workload: &Workload, config: &DistributorConfig) -> PipelineResult<Table1Row> {
    let distributor = Distributor::new(config.clone());
    let plan = distributor.try_distribute(&workload.program)?;
    Ok(Table1Row::build(
        &workload.name,
        &workload.program,
        &plan.analysis,
        &plan.partitioning,
        &plan.placement,
    ))
}

/// Parses the optional `scale` argument used by the table/figure binaries: absent
/// means 1, anything else must be an integer of at least 1.
pub fn scale_from_args() -> PipelineResult<usize> {
    parse_scale(std::env::args().nth(1).as_deref())
}

fn parse_scale(arg: Option<&str>) -> PipelineResult<usize> {
    let Some(arg) = arg else { return Ok(1) };
    match arg.parse() {
        Ok(scale) if scale >= 1 => Ok(scale),
        _ => Err(PipelineError::Config(format!(
            "scale must be an integer >= 1, got {arg:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_row_for_bank_is_consistent() {
        let w = autodist_workloads::bank(10);
        let row = measure_speedup(&w, &DistributorConfig::default()).expect("pipeline");
        assert!(row.checksum_matches);
        assert!(row.centralized_us > 0.0);
        assert!(row.distributed_us > 0.0);
        assert!(row.speedup_pct() > 0.0);
    }

    #[test]
    fn scale_argument_is_absent_or_a_positive_integer() {
        assert_eq!(parse_scale(None).unwrap(), 1);
        assert_eq!(parse_scale(Some("3")).unwrap(), 3);
        for bad in ["0", "x"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(
                matches!(&err, PipelineError::Config(msg) if msg.contains(bad)),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn table1_row_matches_workload_name() {
        let w = autodist_workloads::crypt(100);
        let row = table1_row(&w, &DistributorConfig::default()).expect("pipeline");
        assert_eq!(row.benchmark, "crypt");
        assert!(row.crg.nodes > 0 && row.odg.nodes > 0);
    }
}
