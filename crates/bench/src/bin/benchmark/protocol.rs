//! The measurement protocol shared by all workloads: repeated set-up, the periodic
//! closed-loop timed phase, the end-to-end metrics of the untraced pass and the layer
//! account of the traced pass.
//!
//! The machine is shared, and it disturbs a run in two ways. Its cores change their
//! clock with their neighbours' load, by 5 to 20 % for seconds to minutes: the
//! benchmark measures the clock next to the ops and reports processor time as it
//! would read on a reference clock (`clock.rs`). And its neighbours slow single ops
//! by 20 to 40 % for milliseconds at a time, always in one direction: the op
//! sequence of every workload is periodic, so each op is repeated many times in a
//! run, and every wall-clock metric is taken over one period in which each op takes
//! the time of the lower quartile of its repetitions.

use std::time::Instant;

use crate::arms::{self, Calibration, Reps};
use crate::clock::{Pace, Stopwatch, Stretch, SAMPLES_PER_PERIOD};
use crate::exec::Exec;
use crate::inputs::{self, Goldens, OpRef};
use crate::metrics::Values;
use crate::phases::{self, traced_plan_op};
use crate::plan_sweep::PlanSweep;
use crate::serve::{Faults, Serve};
use crate::stats::{mean, percentile, sort, MIN_REPETITIONS};
use crate::trace::Recorder;
use crate::workload::{Sample, SetupTimes, Workload};
use crate::{alloc_counters, set_alloc_counting};

/// Set-up runs per process; `setup_s` is their lower quartile.
const SETUP_REPS: usize = 5;
/// Phase-by-phase plans the traced pass makes of a non-planning workload's programs.
const PLAN_ARM_OPS: usize = 20;
/// The repetition of an op that is reported: the lower quartile. The machine's
/// neighbours only ever add time, so the undisturbed repetitions are the fast ones;
/// the fastest of all is an extreme value that moves from run to run, the lower
/// quartile does not.
const REPORTED_REPETITION: f64 = 0.25;
/// Repetitions of a period that are kept; later ones overwrite the earliest. The
/// store is allocated and touched before the first op, so the benchmark's own memory
/// does not depend on the throughput it measures.
const KEPT_REPETITIONS: usize = 1024;

/// One run of the benchmark.
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `--smoke`: one set-up and one repetition of every arm.
    pub smoke: bool,
}

/// What a run produced.
pub struct Outcome {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    /// Statements the workload is meant to satisfy, with whether this run did.
    pub claims: Vec<(String, bool)>,
    pub notes: Vec<String>,
    pub recorder: Recorder,
}

fn setup_workload(
    name: &str,
    seed: u64,
    goldens: &Goldens,
    notes: &mut Vec<String>,
) -> Result<Prepared, String> {
    fn boxed<W: Workload + 'static>(r: (W, SetupTimes)) -> Prepared {
        (Box::new(r.0), r.1)
    }
    match name {
        "plan_sweep" => PlanSweep::setup(seed, goldens, notes).map(boxed),
        "exec_compute" => {
            let programs = inputs::compute_programs();
            Exec::setup(programs, &inputs::COMPUTE_KINDS, seed, goldens).map(boxed)
        }
        "exec_messages" => {
            let programs = inputs::message_programs();
            Exec::setup(programs, &inputs::MESSAGE_KINDS, seed, goldens).map(boxed)
        }
        "serve_steady" => Serve::setup(Faults::None, seed, goldens, 5).map(boxed),
        "serve_degraded" => Serve::setup(Faults::Burst, seed, goldens, 1).map(boxed),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// What the timed phase keeps of one kind of period (untraced or traced): for every
/// op position of the period the latency of each repetition, for every batch
/// position the wall time of each repetition, both on the reference clock, and the
/// factor that put each repetition there.
struct Repetitions {
    /// Per op position: the kind of the op there.
    kind: Vec<u8>,
    /// Per op position, `KEPT_REPETITIONS` latencies in milliseconds.
    latency_ms: Vec<f32>,
    /// Per batch position, `KEPT_REPETITIONS` wall times of the `run_batch` call.
    batch_s: Vec<f32>,
    /// Per repetition: reference-clock time over measured time.
    factor: Vec<f32>,
    /// Periods seen and their total measured wall time.
    periods: usize,
    elapsed_s: f64,
    failed: usize,
    allocs: u64,
    alloc_bytes: u64,
}

impl Repetitions {
    fn new(ops: usize, batches: usize) -> Repetitions {
        // Filled with a value, not zeroed: every page is touched here, not as the
        // run goes on.
        let touched = |n: usize| vec![f32::NAN; n * KEPT_REPETITIONS];
        Repetitions {
            kind: vec![0; ops],
            latency_ms: touched(ops),
            batch_s: touched(batches),
            factor: touched(1),
            periods: 0,
            elapsed_s: 0.0,
            failed: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// Adds one period: the wall time of each of its batches, its samples (one per
    /// op position) and the factor that puts its times on the reference clock.
    fn add(&mut self, batch_s: &[f64], samples: &[Sample], factor: f64) {
        assert_eq!(samples.len(), self.kind.len(), "one sample per op position");
        let slot = self.periods % KEPT_REPETITIONS;
        for (i, &s) in batch_s.iter().enumerate() {
            self.batch_s[i * KEPT_REPETITIONS + slot] = (s * factor) as f32;
        }
        for (i, sample) in samples.iter().enumerate() {
            self.kind[i] = sample.kind;
            self.latency_ms[i * KEPT_REPETITIONS + slot] = (sample.latency_ms * factor) as f32;
        }
        self.factor[slot] = factor as f32;
        self.periods += 1;
        self.elapsed_s += batch_s.iter().sum::<f64>();
        self.failed += samples.iter().filter(|s| !s.ok).count();
    }

    fn ops(&self) -> usize {
        self.periods * self.kind.len()
    }

    fn kept(&self) -> usize {
        self.periods.min(KEPT_REPETITIONS)
    }

    /// The reported repetition of position `i` of `store`: on the reference clock,
    /// or (`raw`) as the machine's own clock read it.
    fn reported(&self, store: &[f32], i: usize, raw: bool) -> f64 {
        let kept = &store[i * KEPT_REPETITIONS..][..self.kept()];
        let mut values: Vec<f64> = kept
            .iter()
            .zip(&self.factor)
            .map(|(&v, &f)| f64::from(v) / if raw { f64::from(f) } else { 1.0 })
            .collect();
        sort(&mut values);
        percentile(&values, REPORTED_REPETITION)
    }

    /// Ops per second of a period in which every batch takes the time of its
    /// reported repetition.
    fn throughput(&self, raw: bool) -> f64 {
        let batches = self.batch_s.len() / KEPT_REPETITIONS;
        let period_s: f64 = (0..batches)
            .map(|i| self.reported(&self.batch_s, i, raw))
            .sum();
        self.kind.len() as f64 / period_s
    }

    /// Nearest-rank percentile `q` over the op positions of each position's
    /// reported latency, and the kind of the op sitting there.
    fn latency(&self, q: f64, raw: bool) -> (f64, u8) {
        let values: Vec<f64> = (0..self.kind.len())
            .map(|i| self.reported(&self.latency_ms, i, raw))
            .collect();
        position_percentile(&values, &self.kind, q)
    }

    /// Median, smallest and largest factor of the kept repetitions.
    fn factors(&self) -> (f64, f64, f64) {
        let mut f: Vec<f64> = self.factor[..self.kept()]
            .iter()
            .map(|&f| f64::from(f))
            .collect();
        sort(&mut f);
        (percentile(&f, 0.5), f[0], f[f.len() - 1])
    }
}

/// Nearest-rank percentile `q` of `values`, and the kind at that position.
fn position_percentile(values: &[f64], kinds: &[u8], q: f64) -> (f64, u8) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let at = percentile(&sorted, q);
    let position = values.iter().position(|&v| v == at).expect("a position");
    (at, kinds[position])
}

/// Scratch buffers of [`run_period`], reused from period to period.
struct Scratch {
    samples: Vec<Sample>,
    batch_s: Vec<f64>,
    pace: Pace,
}

/// Drives `workload` in a closed loop through one period of its op sequence from
/// position `pos` and adds it to `reps`. The pace of the clock is sampled before
/// every batch and after the last. With `rec` enabled the calling thread's heap
/// allocations are counted.
fn run_period(
    workload: &mut dyn Workload,
    pos: &mut usize,
    rec: &mut Recorder,
    reps: &mut Repetitions,
    scratch: &mut Scratch,
) {
    let Scratch {
        samples,
        batch_s,
        pace,
    } = scratch;
    samples.clear();
    batch_s.clear();
    pace.clear();
    let batches = reps.batch_s.len() / KEPT_REPETITIONS;
    let pace_samples = SAMPLES_PER_PERIOD.div_ceil(batches + 1);
    let mut took = Stretch::default();
    let before = alloc_counters();
    for _ in 0..batches {
        pace.sample(pace_samples);
        set_alloc_counting(rec.enabled());
        let watch = Stopwatch::start();
        workload.run_batch(*pos, rec, samples);
        let batch = watch.stop();
        set_alloc_counting(false);
        batch_s.push(batch.wall_s);
        took += batch;
        *pos += workload.batch_len();
    }
    pace.sample(pace_samples);
    let after = alloc_counters();
    let factor = pace.factor(took);
    reps.add(batch_s, samples, factor);
    reps.allocs += after.0 - before.0;
    reps.alloc_bytes += after.1 - before.1;
}

/// What the timed phase leaves behind.
struct Timed {
    untraced: Repetitions,
    /// The traced periods (none in the untraced pass).
    traced: Repetitions,
}

/// The timed phase: whole periods in a closed loop for `spec.seconds` (one period
/// at least; the traced pass alternates untraced and traced periods, one pair at
/// least).
fn timed_phase(spec: &RunSpec, workload: &mut dyn Workload, rec: &mut Recorder) -> Timed {
    let ops = workload.period().len();
    let batches = ops / workload.batch_len();
    let mut timed = Timed {
        untraced: Repetitions::new(ops, batches),
        traced: if spec.traced {
            Repetitions::new(ops, batches)
        } else {
            Repetitions::new(0, 0)
        },
    };
    let mut scratch = Scratch {
        samples: Vec::new(),
        batch_s: Vec::new(),
        pace: Pace::new(),
    };
    let mut pos = 0;
    let phase = Instant::now();
    for period in 0.. {
        let paired = !spec.traced || period % 2 == 0;
        if period > 0 && paired && phase.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
        let tracing = spec.traced && period % 2 == 1;
        rec.set_enabled(tracing);
        let reps = if tracing {
            &mut timed.traced
        } else {
            &mut timed.untraced
        };
        run_period(workload, &mut pos, rec, reps, &mut scratch);
    }
    rec.set_enabled(false);
    timed
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload under `spec`. An `Err` is a broken set-up (golden drift, a
/// reference run that fails); failed ops of the timed phase are counted, not fatal.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let goldens = Goldens::committed();
    run_with(spec, &goldens, &mut |notes| {
        setup_workload(&spec.workload, spec.seed, &goldens, notes)
    })
}

type Prepared = (Box<dyn Workload>, SetupTimes);

/// [`run`] with the workload's set-up passed in (tests drive the protocol with a
/// workload small enough for an unoptimised build).
fn run_with(
    spec: &RunSpec,
    goldens: &Goldens,
    setup: &mut dyn FnMut(&mut Vec<String>) -> Result<Prepared, String>,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut values = Values::default();

    // Set-up, several times, each on the reference clock: the lower quartile is what
    // a later change is held to (the slower ones measure the machine's neighbours),
    // and the last set-up's state is what the timed phase runs on.
    let mut all_times = Vec::new();
    let mut prepared = None;
    let mut pace = Pace::new();
    for _ in 0..if spec.smoke { 1 } else { SETUP_REPS } {
        notes.clear();
        drop(prepared.take());
        pace.clear();
        pace.sample(SAMPLES_PER_PERIOD / 2);
        let watch = Stopwatch::start();
        let (workload, times) = setup(&mut notes)?;
        let took = watch.stop();
        pace.sample(SAMPLES_PER_PERIOD / 2);
        all_times.push(times.scaled(pace.factor(took)));
        prepared = Some(workload);
    }
    let mut workload = prepared.expect("SETUP_REPS is at least one");
    let stage = |f: fn(&SetupTimes) -> f64| {
        let mut seconds: Vec<f64> = all_times.iter().map(f).collect();
        sort(&mut seconds);
        percentile(&seconds, REPORTED_REPETITION)
    };
    values.set("setup_s", stage(SetupTimes::total_s));

    let mut rec = Recorder::new();
    let timed = timed_phase(spec, workload.as_mut(), &mut rec);
    let mut outcome = Outcome {
        values,
        attempted: timed.untraced.ops() + timed.traced.ops(),
        failed: timed.untraced.failed + timed.traced.failed,
        claims: Vec::new(),
        notes,
        recorder: rec,
    };
    if spec.traced {
        let stages = [
            ("setup.build_s", stage(|t| t.build_s)),
            ("setup.reference_s", stage(|t| t.reference_s)),
            ("setup.warmup_s", stage(|t| t.warmup_s)),
        ];
        for (name, seconds) in stages {
            outcome.values.set(name, seconds);
        }
        layer_account(spec, goldens, workload.as_ref(), &timed, &mut outcome)?;
    } else {
        end_to_end(spec, workload.as_ref(), &timed.untraced, &mut outcome)?;
    }
    Ok(outcome)
}

/// Means over one period of the op sequence. Deterministic metrics come from here,
/// so they do not depend on how many ops the run length allowed.
struct PeriodMeans {
    messages: f64,
    bytes: f64,
    insns: f64,
    virtual_us: f64,
    central_virtual_us: f64,
}

fn per_op(period: &[OpRef], f: impl Fn(&OpRef) -> f64) -> f64 {
    mean(&period.iter().map(f).collect::<Vec<_>>())
}

impl PeriodMeans {
    fn of(period: &[OpRef]) -> PeriodMeans {
        PeriodMeans {
            messages: per_op(period, |r| r.messages as f64),
            bytes: per_op(period, |r| r.bytes as f64),
            insns: per_op(period, |r| r.insns as f64),
            virtual_us: per_op(period, |r| r.virtual_us),
            central_virtual_us: per_op(period, |r| r.central_virtual_us),
        }
    }
}

/// The untraced pass: every end-to-end metric. A wall-clock metric describes one
/// period in which every op takes the time of the lower quartile of its repetitions
/// on the reference clock; the same metric as the machine's own clock read it is
/// printed next to it (`*_raw`), with the factors between the two.
fn end_to_end(
    spec: &RunSpec,
    workload: &dyn Workload,
    reps: &Repetitions,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let q = workload.tail_quantile();
    let means = PeriodMeans::of(workload.period());
    let (edgecut, sites) = workload.plan_quality();
    let succeeded = (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
    let (factor, slowest_clock, fastest_clock) = reps.factors();
    let values = &mut outcome.values;
    values.set("throughput_ops_s", reps.throughput(false));
    values.set("throughput_ops_s_raw", reps.throughput(true));
    values.set("latency_p50_ms", reps.latency(0.5, false).0);
    values.set("latency_p50_ms_raw", reps.latency(0.5, true).0);
    values.set("latency_tail_ms", reps.latency(q, false).0);
    values.set("latency_tail_ms_raw", reps.latency(q, true).0);
    values.set("latency_tail_percentile", q * 100.0);
    values.set("clock_factor_median", factor);
    values.set("clock_factor_min", slowest_clock);
    values.set("clock_factor_max", fastest_clock);
    values.set(
        "throughput_ops_s_whole_run",
        reps.ops() as f64 / reps.elapsed_s,
    );
    values.set("repetitions_per_op", reps.periods as f64);
    values.set("peak_rss_mb", peak_rss_mb()?);
    values.set("succeeded_ops_pct", succeeded * 100.0);
    values.set("virtual_us_per_op", means.virtual_us);
    values.set(
        "virtual_speedup_pct",
        means.central_virtual_us / means.virtual_us * 100.0,
    );
    values.set("messages_per_op", means.messages);
    values.set("wire_bytes_per_op", means.bytes);
    values.set("edgecut_per_plan", edgecut);
    values.set("remote_sites_per_plan", sites);
    if !spec.smoke {
        outcome.claims.push((
            format!(
                "every op of the period was repeated at least {MIN_REPETITIONS} times ({})",
                reps.periods
            ),
            reps.periods >= MIN_REPETITIONS,
        ));
    }
    Ok(())
}

/// The traced pass: every per-layer metric, from the traced periods' spans and
/// allocation counts, the workload's period and the calibration arms.
fn layer_account(
    spec: &RunSpec,
    goldens: &Goldens,
    workload: &dyn Workload,
    timed: &Timed,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let overhead_pct =
        (1.0 - timed.traced.throughput(false) / timed.untraced.throughput(false)) * 100.0;
    // The arms read the machine's own clock, so the account sets them against the
    // traced ops as that clock read them.
    let op_us = 1e6 / timed.traced.throughput(true);
    let traced_ops = timed.traced.ops();
    let allocs = timed.traced.allocs;
    let alloc_bytes = timed.traced.alloc_bytes;
    let period = workload.period();
    let means = PeriodMeans::of(period);
    let Outcome {
        values,
        claims,
        recorder: rec,
        ..
    } = outcome;
    values.set("trace.overhead_pct", overhead_pct);
    values.set("malloc.allocs_per_op", allocs as f64 / traced_ops as f64);
    values.set(
        "malloc.bytes_per_op",
        alloc_bytes as f64 / traced_ops as f64,
    );

    // Compile side: a planning workload traced its own ops phase by phase; for the
    // others the traced pass re-plans their programs the same way.
    let shapes = match workload.traced_plan_shapes() {
        Some(shapes) => shapes.to_vec(),
        None => {
            rec.set_enabled(true);
            let planned = workload.planned();
            let mut shapes = Vec::new();
            for i in 0..PLAN_ARM_OPS.max(planned.len()) {
                let (prog, nodes) = &planned[i % planned.len()];
                shapes.push(traced_plan_op(rec, prog, *nodes)?);
            }
            rec.set_enabled(false);
            shapes
        }
    };
    phases::report(rec, &shapes, values);

    values.set("interp.insns_per_op", means.insns);
    values.set(
        "interp.heap_allocs_per_op",
        per_op(period, |r| r.heap_allocs as f64),
    );
    values.set(
        "remote.requests_per_op",
        per_op(period, |r| r.remote_requests as f64),
    );
    values.set("remote.bytes_per_msg", means.bytes / means.messages);
    values.set("net.retries_per_op", per_op(period, |r| r.retries as f64));
    values.set(
        "net.suppressed_per_op",
        per_op(period, |r| r.suppressed as f64),
    );
    values.set("net.repaired_per_op", per_op(period, |r| r.repaired as f64));
    values.set("net.lost_per_op", per_op(period, |r| r.lost as f64));

    // The arms, each under one span so `trace.json` shows where the pass went.
    let reps = if spec.smoke { Reps::SMOKE } else { Reps::FULL };
    rec.set_enabled(true);
    rec.next_op();
    let arm = rec.begin("arm.exec");
    let mut cal = arms::exec_arms(reps, goldens, values)?;
    rec.end(arm);
    let arm = rec.begin("arm.serve");
    cal.serve_overhead_us = arms::serve_arms(reps, spec.seed, goldens, values)?;
    rec.end(arm);
    let arm = rec.begin("arm.adapt");
    arms::adapt_arm(reps, values)?;
    rec.end(arm);
    let arm = rec.begin("arm.size_sweep");
    arms::size_sweep_arm(reps, values)?;
    rec.end(arm);
    rec.set_enabled(false);

    // The share account: the op's wall time predicted from the calibration arms.
    let executes = workload.traced_plan_shapes().is_none();
    let shares = if executes {
        let serving = workload.batch_len() > 1;
        let layout_us = values.get("ir.layout_ms").unwrap_or(0.0) * 1e3;
        share_account(&cal, serving, layout_us, &means, op_us)
    } else {
        // A planning op executes nothing: there is no interpreter or transport share.
        [0.0; 4]
    };
    for (name, share) in ["interp", "remote", "launch", "residual"]
        .iter()
        .zip(shares)
    {
        values.set(&format!("share.{name}_pct"), share);
    }

    // What the workload is meant to satisfy. Printed, never turned into failed ops:
    // a later change that, say, ends reorder starvation must not be rejected by it.
    let messages = means.messages;
    claims.push((
        format!("trace overhead {overhead_pct:.2} % is at most 5 %"),
        overhead_pct <= 5.0,
    ));
    match spec.workload.as_str() {
        "exec_compute" => {
            let interp = format!("interpreter share {:.1} % is at least 80 %", shares[0]);
            claims.push((interp, shares[0] >= 80.0));
            claims.push((
                format!("{messages} messages per op are at most 12"),
                messages <= 12.0,
            ));
        }
        "exec_messages" => {
            let interp = format!("interpreter share {:.1} % is at most 50 %", shares[0]);
            claims.push((interp, shares[0] <= 50.0));
            let many = format!("{messages} messages per op are at least 1000");
            claims.push((many, messages >= 1000.0));
        }
        "plan_sweep" => claims.push(("timed ops execute no program".to_string(), !executes)),
        "serve_steady" => {
            let repaired = values.get("net.repaired_per_op") == Some(0.0);
            claims.push(("no sequence gap is repaired".to_string(), repaired));
        }
        "serve_degraded" => {
            let (_, kind) = timed.traced.latency(workload.tail_quantile(), false);
            let reordered = workload.kinds()[kind as usize] == "reorder";
            let claim = "the op at the tail percentile is a reorder request";
            claims.push((claim.to_string(), reordered));
        }
        _ => {}
    }
    Ok(())
}

/// Shares of an op's wall time, in percent: `[interp, remote, launch, residual]`.
/// Predicted as instructions × ns/instruction, messages × µs/message plus KiB ×
/// µs/KiB, and the launch cost (for an execution the trivial run plus this
/// workload's own layout builds; for a served request the trivial request);
/// the residual is what the prediction leaves of the measured time.
fn share_account(
    cal: &Calibration,
    serving: bool,
    layout_us: f64,
    means: &PeriodMeans,
    op_us: f64,
) -> [f64; 4] {
    let interp = means.insns * cal.ns_per_insn / 1e3;
    let remote = means.messages * cal.us_per_msg + means.bytes / 1024.0 * cal.us_per_kib;
    let launch = if serving {
        cal.serve_overhead_us
    } else {
        cal.launch_us + (layout_us - cal.trivial_layout_us).max(0.0)
    };
    let pct = |us: f64| us / op_us * 100.0;
    [
        pct(interp),
        pct(remote),
        pct(launch),
        100.0 - pct(interp + remote + launch),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_the_whole() {
        let cal = Calibration {
            ns_per_insn: 10.0,
            us_per_msg: 0.5,
            us_per_kib: 1.0,
            launch_us: 100.0,
            trivial_layout_us: 20.0,
            serve_overhead_us: 7.0,
        };
        let means = |insns, messages, bytes| PeriodMeans {
            messages,
            bytes,
            insns,
            virtual_us: 0.0,
            central_virtual_us: 0.0,
        };
        let s = share_account(&cal, false, 120.0, &means(50_000.0, 400.0, 2048.0), 1000.0);
        for (share, want) in s.iter().zip([50.0, 20.2, 20.0, 9.8]) {
            assert!((share - want).abs() < 1e-9, "{s:?}");
        }
        assert!((s.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        let served = share_account(&cal, true, 120.0, &means(0.0, 0.0, 0.0), 70.0);
        assert_eq!(served[2], 10.0);
    }

    #[test]
    fn every_op_reports_the_lower_quartile_of_its_repetitions() {
        let op = |latency_ms, kind| Sample {
            kind,
            latency_ms,
            ok: kind != 9,
        };
        // A period of three ops in two batches (one op, then two), four times; the
        // third repetition ran on a clock half as fast as the reference. (The store
        // is single precision: the numbers here are exact in it.)
        let mut r = Repetitions::new(3, 2);
        r.add(&[4.0, 10.0], &[op(4.0, 0), op(3.0, 1), op(7.0, 2)], 1.0);
        r.add(&[2.0, 16.0], &[op(2.0, 0), op(5.0, 1), op(9.0, 2)], 1.0);
        r.add(&[12.0, 40.0], &[op(12.0, 0), op(16.0, 1), op(24.0, 2)], 0.5);
        r.add(&[3.0, 12.0], &[op(3.0, 0), op(4.0, 1), op(8.0, 9)], 1.0);
        assert_eq!((r.periods, r.ops(), r.failed), (4, 12, 1));
        // Lower quartile of four repetitions: the fastest. On the reference clock the
        // third repetition reads 6, 8 and 12 ms; raw it reads 12, 16 and 24.
        assert_eq!(r.reported(&r.latency_ms, 0, false), 2.0);
        assert_eq!(r.reported(&r.latency_ms, 2, false), 7.0);
        assert_eq!(r.throughput(false), 3.0 / (2.0 + 10.0));
        assert_eq!(r.latency(0.5, false), (3.0, 1));
        assert_eq!(
            r.latency(0.95, false),
            (7.0, 9),
            "the kind of the last repetition"
        );
        assert_eq!(r.latency(0.95, true), (7.0, 9));
        assert_eq!(r.factors(), (1.0, 0.5, 1.0));
        // With eight repetitions the lower quartile is the second fastest.
        for _ in 0..4 {
            r.add(&[1.0, 1.0], &[op(1.0, 0), op(1.0, 1), op(1.0, 2)], 1.0);
        }
        assert_eq!(r.reported(&r.latency_ms, 0, false), 1.0);
        r.add(&[1.0, 1.0], &[op(0.5, 0), op(1.0, 1), op(1.0, 2)], 1.0);
        assert_eq!(
            r.reported(&r.latency_ms, 0, false),
            1.0,
            "not the fastest of nine"
        );
    }

    #[test]
    fn the_store_keeps_the_latest_repetitions() {
        let mut r = Repetitions::new(1, 1);
        let op = |latency_ms| Sample {
            kind: 0,
            latency_ms,
            ok: true,
        };
        for _ in 0..KEPT_REPETITIONS {
            r.add(&[0.5], &[op(1.0)], 1.0);
        }
        for _ in 0..KEPT_REPETITIONS {
            r.add(&[2.0], &[op(2.0)], 1.0);
        }
        assert_eq!(
            (r.periods, r.kept()),
            (2 * KEPT_REPETITIONS, KEPT_REPETITIONS)
        );
        assert_eq!(r.latency(0.5, false).0, 2.0);
        assert_eq!(r.throughput(true), 0.5);
    }

    /// The protocol over a workload small enough for an unoptimised test build
    /// (`--smoke` drives the five real ones): every end-to-end metric is reported
    /// and positive, every op is checked, set-up is repeated.
    #[test]
    fn the_untraced_pass_reports_every_end_to_end_metric() {
        use crate::inputs::Prog;
        let goldens = Goldens::parse("").expect("empty");
        let mut setups = 0;
        let mut setup = |_: &mut Vec<String>| {
            setups += 1;
            let programs = vec![Prog::Bank(5), Prog::Crypt(40)];
            let (exec, times) = Exec::setup(programs, &["bank", "crypt"], 9, &goldens)?;
            Ok((Box::new(exec) as Box<dyn Workload>, times))
        };
        let spec = RunSpec {
            workload: "tiny".to_string(),
            seed: 9,
            seconds: 0.05,
            traced: false,
            smoke: false,
        };
        let outcome = run_with(&spec, &goldens, &mut setup).expect("runs");
        assert_eq!(setups, SETUP_REPS);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 8, "one period at least");
        assert_eq!(outcome.attempted % 8, 0, "whole periods only");
        for m in crate::metrics::END_TO_END {
            let v = outcome
                .values
                .get(m.name)
                .unwrap_or_else(|| panic!("{} is missing", m.name));
            assert!(v > 0.0, "{} = {v}", m.name);
        }
        for printed in ["throughput_ops_s_raw", "clock_factor_median"] {
            assert!(outcome.values.get(printed).is_some_and(|v| v > 0.0));
        }
        assert!(
            outcome.recorder.spans().is_empty(),
            "the untraced pass records no span"
        );
    }
}
