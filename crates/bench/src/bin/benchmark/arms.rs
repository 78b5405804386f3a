//! Calibration arms of the traced pass.
//!
//! `try_execute` and `run_serving` are opaque from outside, so what a layer costs is
//! measured by arms that use only top-level calls and differ in one thing: the same
//! program centralized and distributed, a program that does nothing, a ping-pong
//! program, the same call tree with 8-byte and with 512-byte tags, the same request
//! period at window 1 and 8, with and without a quiet fault plan, on one thread and
//! on two. Every traced run executes every arm, whatever its workload: the arms
//! describe the commit, the workload's own spans and shares describe the workload.

use std::sync::Arc;
use std::time::Instant;

use autodist::{AdaptOptions, PlanReplanner, ServeOptions};
use autodist_runtime::cluster::{run_centralized, ClusterConfig, Schedule};
use autodist_runtime::net::FaultPlan;
use autodist_runtime::serve::run_serving;
use autodist_workloads::{self as workloads, GenConfig};

use crate::exec::{plan_program, reference_program};
use crate::inputs::{self, cluster, distributor, Goldens, Prog};
use crate::metrics::Values;
use crate::phases::{plan_by_phases, traced_plan_op};
use crate::serve::{inline_options, Faults, Serve, FAULT_KINDS, PERIOD, WINDOW};
use crate::stats::{log_log_slope, median, percentile, sort, spread_pct};
use crate::trace::Recorder;
use crate::workload::Workload;

/// How often the arms repeat their measurements.
#[derive(Clone, Copy, Debug)]
pub struct Reps {
    /// Runs of each program in the execution arms.
    pub exec: usize,
    /// Runs of the trivial program (it takes microseconds).
    pub trivial: usize,
    /// Repetitions of each serving arm, and request periods per repetition.
    pub serve: usize,
    pub periods: usize,
}

impl Reps {
    pub const FULL: Reps = Reps {
        exec: 31,
        trivial: 201,
        serve: 3,
        periods: 4,
    };
    /// One of everything: `--smoke` only shows that every arm still runs.
    pub const SMOKE: Reps = Reps {
        exec: 1,
        trivial: 5,
        serve: 1,
        periods: 1,
    };
}

/// Requests of the trivial app per serving-overhead repetition.
const TRIVIAL_REQUESTS: usize = 2000;
/// Requests of the adaptive arm and its epoch length.
const ADAPT_REQUESTS: usize = 64;
const ADAPT_EPOCH: usize = 16;

/// What one unit of work costs in each layer, for the share account.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    pub ns_per_insn: f64,
    pub us_per_msg: f64,
    pub us_per_kib: f64,
    /// A distributed run of the trivial program: clone, layout build, world.
    pub launch_us: f64,
    /// The layout-build part of `launch_us` (the trivial program's own layouts).
    pub trivial_layout_us: f64,
    /// One request of the trivial app through the server.
    pub serve_overhead_us: f64,
}

/// Wall times of `reps` runs in milliseconds, as `(fastest, median)`. The rows
/// report medians; the calibrations of the share account take the fastest run,
/// like the timed phase they are set against.
fn walls_ms(reps: usize, mut run: impl FnMut()) -> (f64, f64) {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let median = median(&mut walls);
    (walls[0], median)
}

fn pool2() -> ClusterConfig {
    let mut c = cluster(2);
    c.schedule = Schedule::Pool { threads: 2 };
    c
}

/// The execution arms: the per-program rows, the interpreter, remote-path, wire and
/// launch calibrations, and the pool-versus-inline ratio.
pub fn exec_arms(reps: Reps, goldens: &Goldens, out: &mut Values) -> Result<Calibration, String> {
    let rows = inputs::COMPUTE_KINDS.iter().chain(&inputs::MESSAGE_KINDS);
    let programs: Vec<Prog> = inputs::compute_programs()
        .into_iter()
        .chain(inputs::message_programs())
        .collect();
    let inline = cluster(2);
    let (mut central_ns, mut central_insns, mut us_per_msg) = (0.0, 0u64, 0.0);
    let mut tags = Vec::new();
    for (i, (row, prog)) in rows.zip(&programs).enumerate() {
        let (workload, plan) = plan_program(prog)?;
        let planned = reference_program(prog, &workload, plan, goldens)?;
        let (dist_fastest_ms, dist_ms) = walls_ms(reps.exec, || {
            std::hint::black_box(planned.plan.execute(&inline));
        });
        out.set(&format!("exec.{row}_ms_p50"), dist_ms);
        let is_compute = i < inputs::COMPUTE_KINDS.len();
        if is_compute || *row == "method" {
            let mut insns = 0;
            let (central_ms, _) = walls_ms(reps.exec, || {
                insns = run_centralized(&workload.program, 1.0).per_node[0].instructions;
            });
            if is_compute {
                // The centralized arm: the interpreter alone.
                central_ns += central_ms * 1e6;
                central_insns += insns;
            } else {
                // The ping-pong arm: what distribution adds, per message exchanged.
                us_per_msg = (dist_fastest_ms - central_ms) * 1e3 / planned.op_ref.messages as f64;
                let pool = pool2();
                let (_, pool_ms) = walls_ms(reps.exec, || {
                    std::hint::black_box(planned.plan.execute(&pool));
                });
                out.set("sched.pool2_over_inline_pct", pool_ms / dist_ms * 100.0);
            }
        }
        if row.starts_with("gen_") {
            tags.push((dist_fastest_ms, planned.op_ref.bytes));
        }
    }
    let (trivial_workload, trivial) = plan_program(&Prog::Trivial)?;
    let trivial = reference_program(&Prog::Trivial, &trivial_workload, trivial, goldens)?;
    let launch_us = 1e3
        * walls_ms(reps.trivial, || {
            std::hint::black_box(trivial.plan.execute(&inline));
        })
        .0;
    let mut rec = Recorder::new();
    rec.set_enabled(true);
    for _ in 0..reps.exec {
        traced_plan_op(&mut rec, &Prog::Trivial, 2)?;
    }
    let cal = Calibration {
        ns_per_insn: central_ns / central_insns as f64,
        us_per_msg,
        us_per_kib: (tags[1].0 - tags[0].0) * 1e3 / ((tags[1].1 - tags[0].1) as f64 / 1024.0),
        launch_us,
        trivial_layout_us: rec.total_ms("ir.layout") * 1e3 / reps.exec as f64,
        serve_overhead_us: 0.0,
    };
    out.set("interp.ns_per_insn", cal.ns_per_insn);
    out.set("remote.us_per_msg", cal.us_per_msg);
    out.set("wire.us_per_kib", cal.us_per_kib);
    out.set("cluster.launch_us_per_op", cal.launch_us);
    Ok(cal)
}

/// Throughput of `periods` request periods served under `opts`.
fn serve_rep(serve: &Serve, opts: &ServeOptions, periods: usize) -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..periods {
        let report = serve.serve_with(opts);
        if !report.is_ok() || report.requests.len() != PERIOD {
            return Err("a request of a serving arm failed".to_string());
        }
    }
    Ok((periods * PERIOD) as f64 / t.elapsed().as_secs_f64())
}

/// `reps.serve` repetitions of [`serve_rep`].
fn serve_reps(serve: &Serve, opts: &ServeOptions, reps: Reps) -> Result<Vec<f64>, String> {
    (0..reps.serve)
        .map(|_| serve_rep(serve, opts, reps.periods))
        .collect()
}

/// The serving arms: window 1 against window 8, two pool workers against the calling
/// thread, a trivial app (what the server adds to a request), the degraded period by
/// fault class, and a quiet plan on every request against none.
pub fn serve_arms(
    reps: Reps,
    seed: u64,
    goldens: &Goldens,
    out: &mut Values,
) -> Result<f64, String> {
    let (steady, _) = Serve::setup(Faults::None, seed, goldens, 1)?;
    out.set("serve.prepare_ms", steady.prepare_ms());
    let mut c1 = serve_reps(&steady, &inline_options(1, Vec::new()), reps)?;
    let mut c8 = serve_reps(&steady, &inline_options(WINDOW, Vec::new()), reps)?;
    let (c1, c8) = (median(&mut c1), median(&mut c8));
    out.set("serve.c1_throughput_ops_s", c1);
    out.set("serve.c8_over_c1_pct", c8 / c1 * 100.0);
    let pool_opts = ServeOptions {
        concurrency: WINDOW,
        schedule: Schedule::Pool { threads: 2 },
        ..Default::default()
    };
    let mut pool = serve_reps(&steady, &pool_opts, reps)?;
    out.set("serve.pool2_spread_pct", spread_pct(&pool));
    out.set("serve.pool2_throughput_ops_s", median(&mut pool));

    // A quiet plan engages sequencing and screening but injects nothing.
    let quiet: Vec<(usize, FaultPlan)> = (0..PERIOD)
        .map(|i| (i, FaultPlan::quiet(inputs::mix(seed, i as u64))))
        .collect();
    let (with_plan, without) = (
        inline_options(WINDOW, quiet),
        inline_options(WINDOW, Vec::new()),
    );
    let mut slowdown = Vec::new();
    for _ in 0..reps.serve {
        // Paired, so a drift of the machine hits both sides of a ratio alike.
        let base = serve_rep(&steady, &without, reps.periods)?;
        slowdown.push(base / serve_rep(&steady, &with_plan, reps.periods)?);
    }
    out.set(
        "net.fault_wrapper_overhead_pct",
        (median(&mut slowdown) - 1.0) * 100.0,
    );

    let (_, trivial_plan) = plan_program(&Prog::Trivial)?;
    let trivial_app = [trivial_plan.prepare_server(&cluster(2))];
    let sequence = vec![0; TRIVIAL_REQUESTS];
    let opts = inline_options(WINDOW, Vec::new());
    let overhead_us =
        1e3 * walls_ms(reps.serve, || {
            std::hint::black_box(run_serving(&trivial_app, &sequence, &opts));
        })
        .0 / TRIVIAL_REQUESTS as f64;
    out.set("serve.overhead_us_per_req", overhead_us);

    let (mut degraded, _) = Serve::setup(Faults::Spread, seed, goldens, 0)?;
    let mut samples = Vec::new();
    let mut rec = Recorder::new();
    for _ in 0..reps.serve {
        degraded.run_batch(0, &mut rec, &mut samples);
    }
    if samples.iter().any(|s| !s.ok) {
        return Err("a request of the degraded arm failed".to_string());
    }
    let by_kind = |kind: usize| {
        let mut l: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind as usize == kind)
            .map(|s| s.latency_ms)
            .collect();
        sort(&mut l);
        l
    };
    let healthy = by_kind(0);
    out.set(
        "serve.healthy_ms_p50_under_faults",
        percentile(&healthy, 0.5),
    );
    out.set(
        "serve.healthy_ms_p99_under_faults",
        percentile(&healthy, 0.99),
    );
    for (kind, name) in ["drop", "dup", "delay", "reorder"].iter().enumerate() {
        debug_assert!(FAULT_KINDS[kind + 1].starts_with(name));
        out.set(
            &format!("net.{name}_req_ms_p50"),
            percentile(&by_kind(kind + 1), 0.5),
        );
    }
    Ok(overhead_us)
}

/// The adaptive-placement arm: a skewed generated app served at window 1 with the
/// epoch controller replanning every 16 requests, against the same controller with
/// an epoch longer than the run (profiling on, no replan).
pub fn adapt_arm(reps: Reps, out: &mut Values) -> Result<(), String> {
    let config = GenConfig {
        width: 4,
        depth: 3,
        fan_out: 2,
        affinity_skew: 8.0,
        ..GenConfig::default()
    };
    let generated = workloads::generated(&config);
    let program = &generated.workload.program;
    let dist = distributor(2);
    let plan = dist.try_distribute(program).map_err(|e| e.to_string())?;
    let testbed = cluster(2);
    let apps = [plan.prepare_server(&testbed)];
    let sequence = vec![0; ADAPT_REQUESTS];
    let serve = |epoch: usize| {
        let mut planner = PlanReplanner::new();
        planner.add_plan(&dist.config, program, &plan, &testbed);
        let opts = ServeOptions {
            adapt: Some(AdaptOptions::new(Arc::new(planner)).with_epoch(epoch)),
            ..inline_options(1, Vec::new())
        };
        let t = Instant::now();
        let report = run_serving(&apps, &sequence, &opts);
        (t.elapsed().as_secs_f64() * 1e3, report)
    };
    let (mut replanning, mut profiling_only) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.serve {
        profiling_only.push(serve(ADAPT_REQUESTS + 1).0);
        let (wall_ms, report) = serve(ADAPT_EPOCH);
        replanning.push(wall_ms);
        last = Some(report);
    }
    let report = last.expect("at least one repetition");
    if !report.is_ok() || report.requests.len() != ADAPT_REQUESTS {
        return Err("a request of the adaptive arm failed".to_string());
    }
    let swaps = report.placement_swaps;
    out.set("adapt.swaps", swaps as f64);
    out.set(
        "adapt.msgs_per_req_before",
        report.requests[0].report.total_messages() as f64,
    );
    let after = report.requests[ADAPT_REQUESTS - 1].report.total_messages();
    out.set("adapt.msgs_per_req_after", after as f64);
    let extra_ms = median(&mut replanning) - median(&mut profiling_only);
    out.set("adapt.replan_ms", extra_ms / swaps.max(1) as f64);
    Ok(())
}

/// The planning size sweep: four generated programs of growing size planned phase by
/// phase on two nodes, and the exponent of ODG construction time over ODG size.
pub fn size_sweep_arm(reps: Reps, out: &mut Values) -> Result<(), String> {
    let sizes = [("s", 3, 4), ("m", 4, 8), ("l", 6, 16), ("xl", 8, 24)];
    let mut points = Vec::new();
    for (name, depth, width) in sizes {
        let program = Prog::Gen(inputs::tree(1, depth, width, 3)).build().program;
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        let mut nodes = 0;
        let mut walls = Vec::new();
        for _ in 0..reps.serve {
            let t = Instant::now();
            nodes = plan_by_phases(&mut rec, &program, 2)?.odg_nodes;
            walls.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.set(&format!("plan.size_{name}_ms"), median(&mut walls));
        points.push((
            nodes as f64,
            rec.total_ms("analysis.odg") / reps.serve as f64,
        ));
    }
    out.set("analysis.odg_scaling_exponent", log_log_slope(&points));
    let table1 = workloads::table1_workloads(1);
    let (_, table1_ms) = walls_ms(reps.exec, || {
        for w in &table1 {
            std::hint::black_box(distributor(2).try_distribute(&w.program).is_ok());
        }
    });
    out.set("plan.table1_ms", table1_ms);
    Ok(())
}
