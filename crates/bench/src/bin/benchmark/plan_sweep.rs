//! `plan_sweep`: the compile side. An op generates a paper-scale program, distributes
//! it over 2, 4 or 8 nodes and prepares the result for serving; nothing is executed
//! in the timed phase, so only the frontend, the analyses, the partitioner, the
//! rewriter and the layout builder can move its numbers.

use std::hint::black_box;
use std::time::Instant;

use autodist::DistributionPlan;
use autodist_runtime::cluster::run_centralized;
use autodist_workloads::GenConfig;

use crate::inputs::{self, checksum_of, cluster, distributor, Golden, Goldens, OpRef, Prog, Rng};
use crate::phases::{traced_plan_op, PlanShape};
use crate::trace::Recorder;
use crate::workload::{Sample, SetupTimes, Workload};

/// Generated programs per run seed.
pub const POOL: usize = 16;
/// Node counts every pool program is distributed over.
pub const NODE_COUNTS: [usize; 3] = [2, 4, 8];
/// Warm-up ops at the end of set-up.
const WARMUP_OPS: usize = 24;

const KINDS: [&str; 3] = ["nodes2", "nodes4", "nodes8"];

struct PlanOp {
    config: GenConfig,
    nodes: usize,
    /// `(edgecut, rewritten sites)` of the plan set-up produced for this op.
    expected: (u64, usize),
}

pub struct PlanSweep {
    ops: Vec<PlanOp>,
    refs: Vec<OpRef>,
    quality: (f64, f64),
    /// Shapes of the plans made by traced ops (the exact per-layer counts).
    shapes: Vec<PlanShape>,
}

fn plan_pair(plan: &DistributionPlan) -> (u64, usize) {
    (plan.partitioning.edgecut, plan.total_rewritten_sites())
}

impl PlanSweep {
    /// Builds the pool, plans every `(program, nodes)` pair once, executes each plan
    /// once against the centralized checksum of its program, and warms up.
    pub fn setup(
        seed: u64,
        goldens: &Goldens,
        notes: &mut Vec<String>,
    ) -> Result<(PlanSweep, SetupTimes), String> {
        // One program at a time, so set-up never holds more than three plans; the
        // two stages are timed cumulatively.
        let mut times = SetupTimes::default();
        let mut pairs = Vec::new();
        for i in 0..POOL {
            let t = Instant::now();
            let config = inputs::sweep_program(seed, i);
            let prog = Prog::Gen(config.clone());
            let workload = prog.build();
            let mut plans = Vec::new();
            for nodes in NODE_COUNTS {
                let plan = distributor(nodes)
                    .try_distribute(&workload.program)
                    .map_err(|e| format!("{}: {e}", workload.name))?;
                black_box(plan.prepare_server(&cluster(nodes)));
                plans.push(plan);
            }
            times.build_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let id = prog.id();
            let central = run_centralized(&workload.program, 1.0);
            if let Golden::Drift(why) = goldens.check_checksum(&id, &checksum_of(&central)) {
                return Err(format!("golden drift: {why}"));
            }
            for (plan, nodes) in plans.iter().zip(NODE_COUNTS) {
                let report = plan
                    .try_execute(&cluster(nodes))
                    .map_err(|e| format!("{id}: {e}"))?;
                let op_ref = OpRef::new(&report, &central);
                if !op_ref.accepts(&report) {
                    return Err(format!(
                        "{id} on {nodes} nodes: distributed checksum differs"
                    ));
                }
                let expected = plan_pair(plan);
                if let Golden::Drift(why) = goldens.check_plan(&id, nodes, expected.0, expected.1) {
                    notes.push(format!("plan differs from golden: {why}"));
                }
                pairs.push((
                    PlanOp {
                        config: config.clone(),
                        nodes,
                        expected,
                    },
                    op_ref,
                ));
            }
            times.reference_s += t.elapsed().as_secs_f64();
        }
        let n = pairs.len() as f64;
        let quality = (
            pairs.iter().map(|(o, _)| o.expected.0 as f64).sum::<f64>() / n,
            pairs.iter().map(|(o, _)| o.expected.1 as f64).sum::<f64>() / n,
        );
        Rng(inputs::mix(seed, 0x0bde)).shuffle(&mut pairs);
        let (ops, refs) = pairs.into_iter().unzip();

        let mut sweep = PlanSweep {
            ops,
            refs,
            quality,
            shapes: Vec::new(),
        };
        let t = Instant::now();
        let mut warm = Vec::new();
        let mut rec = Recorder::new();
        for pos in 0..WARMUP_OPS {
            sweep.run_batch(pos, &mut rec, &mut warm);
        }
        if warm.iter().any(|s| !s.ok) {
            return Err("a warm-up planning op failed".to_string());
        }
        times.warmup_s = t.elapsed().as_secs_f64();
        Ok((sweep, times))
    }

    /// Golden lines for the pool of `seed` (the `--goldens` maintenance output).
    pub fn golden_lines(seed: u64) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        for i in 0..POOL {
            let prog = Prog::Gen(inputs::sweep_program(seed, i));
            let workload = prog.build();
            let central = run_centralized(&workload.program, 1.0);
            lines.push(Goldens::checksum_line(&prog.id(), &checksum_of(&central)));
            for nodes in NODE_COUNTS {
                let plan = distributor(nodes)
                    .try_distribute(&workload.program)
                    .map_err(|e| e.to_string())?;
                let (edgecut, sites) = plan_pair(&plan);
                lines.push(Goldens::plan_line(&prog.id(), nodes, edgecut, sites));
            }
        }
        Ok(lines)
    }
}

impl Workload for PlanSweep {
    fn kinds(&self) -> &[&'static str] {
        &KINDS
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
        self.quality
    }

    fn planned(&self) -> Vec<(Prog, usize)> {
        self.ops
            .iter()
            .map(|o| (Prog::Gen(o.config.clone()), o.nodes))
            .collect()
    }

    fn traced_plan_shapes(&self) -> Option<&[PlanShape]> {
        Some(&self.shapes)
    }

    fn run_batch(&mut self, pos: usize, rec: &mut Recorder, out: &mut Vec<Sample>) {
        let op = &self.ops[pos % self.ops.len()];
        let kind = NODE_COUNTS
            .iter()
            .position(|&n| n == op.nodes)
            .expect("a swept node count");
        let start = Instant::now();
        let ok = if rec.enabled() {
            match traced_plan_op(rec, &Prog::Gen(op.config.clone()), op.nodes) {
                Ok(shape) => {
                    self.shapes.push(shape);
                    (shape.edgecut, shape.sites) == op.expected
                }
                Err(_) => false,
            }
        } else {
            let generated = autodist_workloads::generated(&op.config);
            match distributor(op.nodes).try_distribute(&generated.workload.program) {
                Ok(plan) => {
                    black_box(plan.prepare_server(&cluster(op.nodes)));
                    plan_pair(&plan) == op.expected
                }
                Err(_) => false,
            }
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        out.push(Sample {
            kind: kind as u8,
            latency_ms,
            ok,
        });
    }
}
