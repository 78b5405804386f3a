//! `exec_compute` and `exec_messages`: one op is one `DistributionPlan::try_execute`
//! on the two-node paper testbed under the cooperative scheduler. The two workloads
//! share every line of this file and differ only in their programs: five compute
//! kernels that exchange a handful of messages, or five programs that exchange
//! thousands.

use std::time::Instant;

use autodist::DistributionPlan;
use autodist_runtime::cluster::{run_centralized, ClusterConfig};

use crate::inputs::{self, checksum_of, cluster, distributor, Golden, Goldens, OpRef, Prog, Rng};
use crate::trace::Recorder;
use crate::workload::{Sample, SetupTimes, Workload};

/// Cycles of the program list in one period, each in its own seeded order.
const CYCLES: usize = 4;
/// Warm-up ops at the end of set-up (two periods).
const WARMUP_OPS: usize = 40;

/// A program planned over two nodes with its reference.
pub struct Planned {
    pub prog: Prog,
    pub plan: DistributionPlan,
    pub op_ref: OpRef,
}

/// Plans `prog` over two nodes (the "build" stage of set-up).
pub fn plan_program(
    prog: &Prog,
) -> Result<(autodist_workloads::Workload, DistributionPlan), String> {
    let workload = prog.build();
    let plan = distributor(2)
        .try_distribute(&workload.program)
        .map_err(|e| format!("{}: {e}", prog.id()))?;
    Ok((workload, plan))
}

/// Runs the unrewritten program centralized, checks its checksum against the golden
/// file, runs the plan once distributed and checks it against the centralized run
/// (the "reference" stage of set-up).
pub fn reference_program(
    prog: &Prog,
    workload: &autodist_workloads::Workload,
    plan: DistributionPlan,
    goldens: &Goldens,
) -> Result<Planned, String> {
    let id = prog.id();
    let central = run_centralized(&workload.program, 1.0);
    if !central.is_ok() {
        return Err(format!("{id}: centralized run failed: {:?}", central.error));
    }
    if let Golden::Drift(why) = goldens.check_checksum(&id, &checksum_of(&central)) {
        return Err(format!("golden drift: {why}"));
    }
    let report = plan
        .try_execute(&cluster(2))
        .map_err(|e| format!("{id}: {e}"))?;
    let op_ref = OpRef::new(&report, &central);
    if !op_ref.accepts(&report) {
        return Err(format!(
            "{id}: distributed checksum differs from the centralized one"
        ));
    }
    Ok(Planned {
        prog: prog.clone(),
        plan,
        op_ref,
    })
}

pub struct Exec {
    kinds: &'static [&'static str],
    programs: Vec<Planned>,
    /// Program index per position of the period.
    order: Vec<usize>,
    refs: Vec<OpRef>,
    cluster: ClusterConfig,
}

impl Exec {
    pub fn setup(
        programs: Vec<Prog>,
        kinds: &'static [&'static str],
        seed: u64,
        goldens: &Goldens,
    ) -> Result<(Exec, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let mut built = Vec::new();
        for prog in &programs {
            built.push(plan_program(prog)?);
        }
        times.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut planned = Vec::new();
        for (prog, (workload, plan)) in programs.iter().zip(built) {
            planned.push(reference_program(prog, &workload, plan, goldens)?);
        }
        let mut rng = Rng(inputs::mix(seed, 0xe8ec));
        let mut order = Vec::new();
        for _ in 0..CYCLES {
            let mut cycle: Vec<usize> = (0..planned.len()).collect();
            rng.shuffle(&mut cycle);
            order.extend(cycle);
        }
        let refs = order.iter().map(|&p| planned[p].op_ref.clone()).collect();
        times.reference_s = t.elapsed().as_secs_f64();

        let mut exec = Exec {
            kinds,
            programs: planned,
            order,
            refs,
            cluster: cluster(2),
        };
        let t = Instant::now();
        let mut warm = Vec::new();
        let mut rec = Recorder::new();
        for pos in 0..WARMUP_OPS {
            exec.run_batch(pos, &mut rec, &mut warm);
        }
        if warm.iter().any(|s| !s.ok) {
            return Err("a warm-up execution failed".to_string());
        }
        times.warmup_s = t.elapsed().as_secs_f64();
        Ok((exec, times))
    }
}

impl Workload for Exec {
    fn kinds(&self) -> &[&'static str] {
        self.kinds
    }

    fn period(&self) -> &[OpRef] {
        &self.refs
    }

    fn batch_len(&self) -> usize {
        1
    }

    fn tail_quantile(&self) -> f64 {
        0.95
    }

    fn plan_quality(&self) -> (f64, f64) {
        let n = self.programs.len() as f64;
        let cut: u64 = self
            .programs
            .iter()
            .map(|p| p.plan.partitioning.edgecut)
            .sum();
        let sites: usize = self
            .programs
            .iter()
            .map(|p| p.plan.total_rewritten_sites())
            .sum();
        (cut as f64 / n, sites as f64 / n)
    }

    fn planned(&self) -> Vec<(Prog, usize)> {
        self.programs.iter().map(|p| (p.prog.clone(), 2)).collect()
    }

    fn run_batch(&mut self, pos: usize, rec: &mut Recorder, out: &mut Vec<Sample>) {
        let kind = self.order[pos % self.order.len()];
        let program = &self.programs[kind];
        rec.next_op();
        let start = Instant::now();
        let result = rec.span("cluster.try_execute", || {
            program.plan.try_execute(&self.cluster)
        });
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let ok = result.is_ok_and(|report| program.op_ref.accepts(&report));
        out.push(Sample {
            kind: kind as u8,
            latency_ms,
            ok,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_order_is_seeded_and_every_op_is_checked() {
        let programs = || vec![Prog::Bank(5), Prog::Crypt(40), Prog::Trivial];
        let kinds = || -> &'static [&'static str] { &["bank", "crypt", "trivial"] };
        let goldens = Goldens::parse("").expect("empty");
        let (mut exec, times) = Exec::setup(programs(), kinds(), 5, &goldens).expect("sets up");
        assert!(times.total_s() > 0.0);
        assert_eq!(exec.period().len(), CYCLES * 3);
        let (again, _) = Exec::setup(programs(), kinds(), 5, &goldens).expect("sets up");
        let (other, _) = Exec::setup(programs(), kinds(), 6, &goldens).expect("sets up");
        assert_eq!(exec.order, again.order);
        assert_ne!(exec.order, other.order);
        for cycle in exec.order.chunks(3) {
            let mut c = cycle.to_vec();
            c.sort_unstable();
            assert_eq!(c, [0, 1, 2], "every cycle runs every program once");
        }
        let mut samples = Vec::new();
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        for pos in 0..exec.order.len() {
            exec.run_batch(pos, &mut rec, &mut samples);
        }
        assert!(samples.iter().all(|s| s.ok));
        assert_eq!(rec.count("cluster.try_execute"), samples.len());
        let kinds_run: Vec<usize> = samples.iter().map(|s| s.kind as usize).collect();
        assert_eq!(kinds_run, exec.order);
        // A run that reports another checksum or other counters is a failed op.
        exec.programs[0].op_ref.checksum = "Some(Int(-1))".to_string();
        exec.programs[1].op_ref.messages += 1;
        samples.clear();
        for pos in 0..3 {
            exec.run_batch(pos, &mut rec, &mut samples);
        }
        let failed = samples.iter().filter(|s| !s.ok).count();
        assert_eq!(failed, 2, "{samples:?}");
        // A golden checksum that disagrees with the centralized run aborts set-up.
        let drifted = Goldens::parse("checksum bank-5 Some(Int(0))").expect("parses");
        assert!(Exec::setup(programs(), kinds(), 5, &drifted).is_err_and(|e| e.contains("golden")));
    }
}
