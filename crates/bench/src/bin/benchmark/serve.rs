//! `serve_steady` and `serve_degraded`: the cluster as a closed-loop server. One
//! batch is one `run_serving` call over a 400-request period at window 8 on the
//! calling thread; the degraded variant attaches seeded healing fault plans to a
//! tenth of the requests, so the same transport is measured on its fast path and on
//! its repair path.

use std::time::Instant;

use autodist::{ServeOptions, ServerApp};
use autodist_runtime::cluster::{run_centralized, ExecutionReport, Schedule};
use autodist_runtime::net::FaultPlan;
use autodist_runtime::serve::{run_serving, ServingReport};

use crate::exec::plan_program;
use crate::inputs::{self, checksum_of, cluster, Golden, Goldens, OpRef, Prog, Rng};
use crate::trace::Recorder;
use crate::workload::{Sample, SetupTimes, Workload};

/// Requests per batch (one period of the request sequence).
pub const PERIOD: usize = 400;
/// The closed loop's admission window.
pub const WINDOW: usize = 8;
/// Every n-th request of the degraded workload carries a fault plan.
const FAULT_EVERY: usize = 10;
/// Re-draws of a drop plan that loses a packet for good before set-up gives up.
const MAX_REDRAWS: u64 = 8;

pub const APP_KINDS: [&str; 5] = ["bank", "method", "crypt", "gen", "search"];
pub const FAULT_KINDS: [&str; 5] = ["healthy", "drop", "duplicate", "delay", "reorder"];

/// The fault classes, in assignment order; kind `i + 1` of [`FAULT_KINDS`].
fn fault_plan(class: usize, seed: u64) -> FaultPlan {
    let quiet = FaultPlan::quiet(seed);
    match class {
        0 => quiet.with_drop(0.02),
        1 => quiet.with_duplicate(0.1),
        2 => quiet.with_delay(0.2, 300.0),
        _ => quiet.with_reorder(0.2),
    }
}

/// The request sequence of one period: round-robin over the apps, each round in its
/// own seeded order.
pub fn request_sequence(apps: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng(inputs::mix(seed, 0x5e9));
    let mut sequence = Vec::with_capacity(PERIOD);
    while sequence.len() < PERIOD {
        let mut round: Vec<usize> = (0..apps).collect();
        rng.shuffle(&mut round);
        sequence.extend(round);
    }
    sequence.truncate(PERIOD);
    sequence
}

/// Index of the reorder class in [`fault_plan`].
const REORDER: usize = 3;
/// The reorder plans do not take their seeds from the run's seed. A reordered `bank`
/// request needs about five stall-detector rounds of 6 ms, how many exactly depends on
/// its plan's seed, and a burst of eight is most of a period's wall time: seeded from
/// the run's seed, the burst moved `throughput_ops_s` by 23 % and the tail by 22 % over
/// ten seeds, with no change to the code. The `n`-th reordered request of a period has
/// the `n`-th plan derived from this constant; which requests those are still follows
/// the run's seed.
const REORDER_SEED: u64 = 0x5eed_0bad_0dd5;

/// Where the fault plans of a period go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    /// `serve_steady`: no plan anywhere.
    None,
    /// `serve_degraded`: drop, duplicate and delay plans cycle over every tenth
    /// request; the reorder plans form one burst on the last window's worth of
    /// faulted-app requests. A reordered request makes no progress while anything
    /// else is runnable, so reorder plans spread over the period starve behind the
    /// healthy traffic: stalled requests pile up until one or two window slots are
    /// left, and whether it is one or two decides p50 (0.25 or 0.44 ms from one
    /// seed to the next). A burst at the end stalls the whole window at once, with
    /// nothing left to admit, so the repair path is measured and p50 stays the
    /// healthy requests' own.
    Burst,
    /// The traced pass's arm: all four classes cycle over every tenth request —
    /// the starving regime described above, reported per fault class.
    Spread,
}

/// Which requests of a period are faulted, as `(position, class)` pairs. A slot is
/// every tenth request, moved forward to the next request of the faulted app, so
/// each fault class has one latency mode (over all three message-heavy apps a
/// reordered request takes 0.15 to 0.6 s depending on its app).
pub fn fault_positions(sequence: &[usize], faults: Faults) -> Vec<(usize, usize)> {
    let on_app = |p: &usize| sequence[*p] == inputs::SERVING_FAULTED_APP;
    let burst: Vec<usize> = match faults {
        Faults::Burst => {
            let mut tail: Vec<usize> = (0..sequence.len())
                .rev()
                .filter(on_app)
                .take(WINDOW)
                .collect();
            tail.reverse();
            tail
        }
        _ => Vec::new(),
    };
    let classes = match faults {
        Faults::None => return Vec::new(),
        Faults::Burst => REORDER,
        Faults::Spread => REORDER + 1,
    };
    let mut faulted = Vec::new();
    for slot in (0..sequence.len()).step_by(FAULT_EVERY) {
        match (slot..sequence.len()).find(on_app) {
            Some(pos) if !burst.contains(&pos) => faulted.push((pos, faulted.len() % classes)),
            _ => {}
        }
    }
    faulted.extend(burst.into_iter().map(|pos| (pos, REORDER)));
    faulted
}

/// The serving apps, prepared once, with the centralized run of each.
pub struct Apps {
    pub programs: Vec<Prog>,
    pub apps: Vec<ServerApp>,
    pub centrals: Vec<ExecutionReport>,
    pub quality: (f64, f64),
    /// Wall time of the `prepare_server` calls alone.
    pub prepare_ms: f64,
}

impl Apps {
    /// Builds, plans and prepares `programs`; returns the unrewritten programs too
    /// (the reference stage runs them centralized).
    pub fn build(programs: Vec<Prog>) -> Result<(Apps, Vec<autodist_workloads::Workload>), String> {
        let mut apps = Vec::new();
        let mut sources = Vec::new();
        let (mut cut, mut sites, mut prepare_ms) = (0u64, 0usize, 0.0);
        for prog in &programs {
            let (workload, plan) = plan_program(prog)?;
            let t = Instant::now();
            apps.push(plan.prepare_server(&cluster(2)));
            prepare_ms += t.elapsed().as_secs_f64() * 1e3;
            cut += plan.partitioning.edgecut;
            sites += plan.total_rewritten_sites();
            sources.push(workload);
        }
        let n = programs.len() as f64;
        let quality = (cut as f64 / n, sites as f64 / n);
        Ok((
            Apps {
                programs,
                apps,
                centrals: Vec::new(),
                quality,
                prepare_ms,
            },
            sources,
        ))
    }

    /// Runs every unrewritten program centralized and checks the golden checksums.
    pub fn reference(
        &mut self,
        sources: &[autodist_workloads::Workload],
        goldens: &Goldens,
    ) -> Result<(), String> {
        for (prog, workload) in self.programs.iter().zip(sources) {
            let central = run_centralized(&workload.program, 1.0);
            if !central.is_ok() {
                return Err(format!("{}: centralized run failed", prog.id()));
            }
            if let Golden::Drift(why) = goldens.check_checksum(&prog.id(), &checksum_of(&central)) {
                return Err(format!("golden drift: {why}"));
            }
            self.centrals.push(central);
        }
        Ok(())
    }
}

/// Closed-loop options on the calling thread: no modelled sleeps, no worker threads.
pub fn inline_options(window: usize, faults: Vec<(usize, FaultPlan)>) -> ServeOptions {
    ServeOptions {
        concurrency: window,
        schedule: Schedule::Inline,
        faults,
        ..Default::default()
    }
}

pub struct Serve {
    kinds: &'static [&'static str],
    apps: Apps,
    sequence: Vec<usize>,
    /// Kind per position: the app for the steady workload, the fault class
    /// (0 = healthy) for the degraded one.
    kind_of: Vec<u8>,
    opts: ServeOptions,
    refs: Vec<OpRef>,
}

impl Serve {
    /// Samples of one period served under `opts` instead of the workload's own
    /// options (the traced pass's window, pool and quiet-plan arms).
    pub fn serve_with(&self, opts: &ServeOptions) -> ServingReport {
        run_serving(&self.apps.apps, &self.sequence, opts)
    }

    /// Wall time of the `prepare_server` calls of set-up, in milliseconds.
    pub fn prepare_ms(&self) -> f64 {
        self.apps.prepare_ms
    }

    pub fn setup(
        faults: Faults,
        seed: u64,
        goldens: &Goldens,
        warmup_batches: usize,
    ) -> Result<(Serve, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let (mut apps, sources) = Apps::build(inputs::serving_programs())?;
        times.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        apps.reference(&sources, goldens)?;
        let sequence = request_sequence(apps.apps.len(), seed);
        let faulted = fault_positions(&sequence, faults);
        let degraded = faults != Faults::None;
        let kind_of: Vec<u8> = (0..PERIOD)
            .map(|pos| match faulted.iter().find(|(p, _)| *p == pos) {
                Some((_, class)) => *class as u8 + 1,
                None if degraded => 0,
                None => sequence[pos] as u8,
            })
            .collect();
        // The reference period. A drop plan can lose a packet for good (all retries
        // dropped); such a plan is re-drawn, so every plan of the timed phase heals.
        let mut redraws = vec![0u64; faulted.len()];
        let (opts, first) = loop {
            let mut reordered = 0;
            let plans = faulted
                .iter()
                .zip(&redraws)
                .map(|(&(pos, class), &redraw)| {
                    let plan_seed = if class == REORDER {
                        reordered += 1;
                        inputs::mix(REORDER_SEED, reordered)
                    } else {
                        inputs::mix(seed, ((pos as u64) << 8) | redraw)
                    };
                    (pos, fault_plan(class, plan_seed))
                })
                .collect();
            let opts = inline_options(WINDOW, plans);
            let report = run_serving(&apps.apps, &sequence, &opts);
            if report.requests.len() != PERIOD {
                return Err(format!(
                    "served {} of {PERIOD} requests",
                    report.requests.len()
                ));
            }
            let failed: Vec<usize> = (0..PERIOD)
                .filter(|&i| !report.requests[i].report.is_ok())
                .collect();
            if failed.is_empty() {
                break (opts, report);
            }
            for pos in failed {
                let slot = faulted.iter().position(|(p, _)| *p == pos);
                match slot {
                    Some(slot) if redraws[slot] < MAX_REDRAWS => redraws[slot] += 1,
                    _ => {
                        let error = &report.requests[pos].report.error;
                        return Err(format!(
                            "request {pos} failed in the reference period: {error:?}"
                        ));
                    }
                }
            }
        };
        let refs: Vec<OpRef> = first
            .requests
            .iter()
            .map(|r| OpRef::new(&r.report, &apps.centrals[sequence[r.index]]))
            .collect();
        if let Some(bad) = first
            .requests
            .iter()
            .position(|r| !refs[r.index].accepts(&r.report))
        {
            return Err(format!(
                "request {bad}: served checksum differs from the centralized one"
            ));
        }
        times.reference_s = t.elapsed().as_secs_f64();

        let kinds: &'static [&'static str] = if degraded { &FAULT_KINDS } else { &APP_KINDS };
        let mut serve = Serve {
            kinds,
            apps,
            sequence,
            kind_of,
            opts,
            refs,
        };
        let t = Instant::now();
        let mut warm = Vec::new();
        let mut rec = Recorder::new();
        for _ in 0..warmup_batches {
            serve.run_batch(0, &mut rec, &mut warm);
        }
        if warm.iter().any(|s| !s.ok) {
            return Err("a warm-up request failed".to_string());
        }
        times.warmup_s = t.elapsed().as_secs_f64();
        Ok((serve, times))
    }
}

impl Workload for Serve {
    fn kinds(&self) -> &[&'static str] {
        self.kinds
    }

    fn period(&self) -> &[OpRef] {
        &self.refs
    }

    fn batch_len(&self) -> usize {
        PERIOD
    }

    fn tail_quantile(&self) -> f64 {
        0.99
    }

    fn plan_quality(&self) -> (f64, f64) {
        self.apps.quality
    }

    fn planned(&self) -> Vec<(Prog, usize)> {
        self.apps.programs.iter().map(|p| (p.clone(), 2)).collect()
    }

    fn run_batch(&mut self, _pos: usize, rec: &mut Recorder, out: &mut Vec<Sample>) {
        rec.next_op();
        let report = rec.span("serve.run_serving", || {
            run_serving(&self.apps.apps, &self.sequence, &self.opts)
        });
        for pos in 0..PERIOD {
            // Requests come back in submission order; a missing one is a failed op.
            let (latency_ms, ok) = match report.requests.get(pos) {
                Some(r) => (r.latency_us / 1e3, self.refs[pos].accepts(&r.report)),
                None => (0.0, false),
            };
            out.push(Sample {
                kind: self.kind_of[pos],
                latency_ms,
                ok,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_seeded_round_robin() {
        let apps = APP_KINDS.len();
        let a = request_sequence(apps, 11);
        assert_eq!(a, request_sequence(apps, 11));
        assert_ne!(a, request_sequence(apps, 12));
        assert_eq!(a.len(), PERIOD);
        for round in a.chunks(apps) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, [0, 1, 2, 3, 4], "every round serves every app once");
        }
    }

    #[test]
    fn fault_plans_are_assigned_by_layout() {
        let apps = APP_KINDS.len();
        let sequence = request_sequence(apps, 3);
        assert!(fault_positions(&sequence, Faults::None).is_empty());
        let spread = fault_positions(&sequence, Faults::Spread);
        assert_eq!(spread, fault_positions(&sequence, Faults::Spread));
        assert_eq!(spread.len(), PERIOD / FAULT_EVERY);
        for (i, &(pos, class)) in spread.iter().enumerate() {
            assert_eq!(class, i % 4, "classes cycle");
            assert_eq!(sequence[pos], inputs::SERVING_FAULTED_APP);
            // The next request of the faulted app is at most two rounds less two away.
            assert!(
                (i * FAULT_EVERY..i * FAULT_EVERY + 2 * apps - 1).contains(&pos),
                "{pos}"
            );
        }
        let burst = fault_positions(&sequence, Faults::Burst);
        let reordered: Vec<usize> = burst
            .iter()
            .filter(|f| f.1 == REORDER)
            .map(|f| f.0)
            .collect();
        assert_eq!(reordered.len(), WINDOW);
        assert!(
            reordered.iter().all(|&p| p >= PERIOD - apps * WINDOW),
            "the burst ends the period"
        );
        assert!(burst.iter().all(|&(pos, class)| {
            sequence[pos] == inputs::SERVING_FAULTED_APP
                && (class == REORDER) == reordered.contains(&pos)
        }));
        for class in 0..REORDER {
            assert!(burst.iter().filter(|f| f.1 == class).count() >= PERIOD / FAULT_EVERY / 3 - 2);
        }
        let mut positions: Vec<usize> = burst.iter().map(|f| f.0).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), burst.len(), "no request is faulted twice");
    }

    /// One degraded period: every request heals to the centralized checksum, the
    /// burst's requests are the slow ones, and a replay is identical.
    #[test]
    fn a_degraded_period_heals_and_replays_exactly() {
        let goldens = Goldens::parse("").expect("empty");
        let (mut serve, times) = Serve::setup(Faults::Burst, 4, &goldens, 0).expect("sets up");
        assert!(times.reference_s > 0.0 && times.warmup_s < times.reference_s);
        let mut samples = Vec::new();
        serve.run_batch(0, &mut Recorder::new(), &mut samples);
        assert_eq!(samples.len(), PERIOD);
        assert!(
            samples.iter().all(|s| s.ok),
            "deterministic counters repeat, checksums match"
        );
        let reorder = FAULT_KINDS
            .iter()
            .position(|k| *k == "reorder")
            .expect("a kind") as u8;
        let slowest_healthy = samples
            .iter()
            .filter(|s| s.kind == 0)
            .map(|s| s.latency_ms)
            .fold(0.0, f64::max);
        let reordered: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == reorder)
            .map(|s| s.latency_ms)
            .collect();
        assert_eq!(reordered.len(), WINDOW);
        assert!(
            reordered.iter().all(|&l| l > slowest_healthy),
            "{reordered:?} {slowest_healthy}"
        );
        assert!(
            serve.period().iter().any(|r| r.repaired > 0),
            "gaps were repaired"
        );
        assert!(serve.period().iter().all(|r| r.lost == 0));
    }
}
