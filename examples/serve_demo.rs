//! Serving mode: the distributed cluster as a throughput-oriented server.
//!
//! Distributes three Table 1 programs once, then drives them as a closed-loop
//! request stream: up to `CONCURRENCY` root computations are in flight at a time,
//! each with its own request-scoped virtual clocks and message channels, all
//! interleaving on one shared ready queue. The same load runs under the inline
//! scheduler (one thread, pure interleaving) and a worker pool (four threads over
//! the same loop). The point is isolation: under both schedules every request's
//! virtual clock equals the program's solo run exactly. Both throughputs are
//! printed as measured — which schedule is faster depends on the machine.
//!
//! Run with: `cargo run --release --example serve_demo`

use autodist::{Distributor, DistributorConfig, PipelineError, ServeOptions};
use autodist_runtime::cluster::{ClusterConfig, Schedule};
use autodist_runtime::serve::run_serving;

const REQUESTS: usize = 48;
const CONCURRENCY: usize = 16;

fn main() -> Result<(), PipelineError> {
    // 1. Prepare the apps once: distribute each program and intern its per-node
    //    layouts. Admission later only instantiates interpreter state.
    let distributor = Distributor::new(DistributorConfig::default());
    let cluster = ClusterConfig::paper_testbed();
    let mut apps = Vec::new();
    let mut solo_virtual = Vec::new();
    for w in [
        autodist_workloads::bank(40),
        autodist_workloads::method_bench(200),
        autodist_workloads::crypt(400),
    ] {
        let plan = distributor.try_distribute(&w.program)?;
        let solo = plan.try_execute(&cluster)?;
        println!(
            "prepared {:<8} ({} nodes, solo virtual time {:.0} us)",
            w.name,
            plan.programs().len(),
            solo.virtual_time_us
        );
        solo_virtual.push(solo.virtual_time_us);
        apps.push(plan.prepare_server(&cluster));
    }

    // 2. The closed-loop request stream: round-robin over the mix.
    let sequence: Vec<usize> = (0..REQUESTS).map(|i| i % apps.len()).collect();
    println!("\nserving {REQUESTS} requests at concurrency {CONCURRENCY}:\n");
    for (label, schedule) in [
        ("inline", Schedule::Inline),
        ("pool-4", Schedule::Pool { threads: 4 }),
    ] {
        let report = run_serving(
            &apps,
            &sequence,
            &ServeOptions {
                concurrency: CONCURRENCY,
                schedule,
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok(), "every request completes");
        // 3. Isolation check: concurrency must not perturb any request's virtual
        //    execution — byte-identical clocks per request, whatever the schedule.
        for req in &report.requests {
            assert!(
                (req.report.virtual_time_us - solo_virtual[req.app]).abs() < 1e-9,
                "request {} drifted from its solo virtual clock",
                req.index
            );
        }
        println!(
            "{label:<8} {:>8.1} req/s   p50 {:>8.1} us   p99 {:>8.1} us   wall {:>7.1} ms",
            report.requests_per_sec(),
            report.latency_percentile_us(0.50),
            report.latency_percentile_us(0.99),
            report.wall_time_ms
        );
    }
    println!("\nall requests byte-identical to their solo runs: yes");
    Ok(())
}
