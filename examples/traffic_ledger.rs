//! Traffic ledger: per program of the repository benchmark's three execution mixes,
//! what crosses the wire in one distributed run and what it costs in virtual time.
//!
//! Each program is planned the way the benchmark plans it (multilevel partitioning on
//! two nodes) and run once on the paper's testbed. A row reads the run's own
//! counters: `requests` is the request frames the nodes sent (`remote_requests`),
//! `served` the ones they served, `packets` the messages on the wire
//! (`messages_sent`; one-way `NEW`s ride in the packet of the next request to their
//! home, so a packet can carry several requests), `bytes` the physical bytes, and
//! `virtual us` the launch node's final clock. The mean row of each mix is the
//! per-op figure the benchmark reports (`messages_per_op`, `virtual_us_per_op`, ...).
//! Prints only; CI diffs the output against `.github/traffic_ledger.txt`.
//!
//! Run with: `cargo run --release --example traffic_ledger`

use autodist::{Distributor, DistributorConfig, PipelineError};
use autodist_runtime::cluster::{ClusterConfig, ExecutionReport, Schedule};
use autodist_workloads::{self as workloads, GenConfig, Workload};

/// A generated call tree of the given shape.
fn tree(seed: u64, depth: usize, width: usize, fan_out: usize) -> GenConfig {
    GenConfig {
        seed,
        depth,
        width,
        fan_out,
        ..GenConfig::default()
    }
}

/// The three mixes at the benchmark's sizes: `exec_compute`, `exec_messages` and the
/// serving apps of `serve_steady` / `serve_degraded`.
fn mixes() -> Vec<(&'static str, Vec<Workload>)> {
    let small = GenConfig {
        iterations: 160,
        ..tree(1, 4, 4, 2)
    };
    let bulk = GenConfig {
        payload: 512,
        ..small.clone()
    };
    vec![
        (
            "exec_compute",
            vec![
                workloads::crypt(20_000),
                workloads::heapsort(2_100),
                workloads::compress(20_000),
                workloads::db_bench(160, 900),
                workloads::moldyn(48, 8),
            ],
        ),
        (
            "exec_messages",
            vec![
                workloads::method_bench(7_500),
                workloads::search(9),
                workloads::bank(2_600),
                workloads::generated(&small).workload,
                workloads::generated(&bulk).workload,
            ],
        ),
        (
            "serving mix",
            vec![
                workloads::bank(40),
                workloads::method_bench(200),
                workloads::crypt(400),
                workloads::generated(&tree(1, 3, 4, 2)).workload,
                workloads::search(5),
            ],
        ),
    ]
}

/// One ledger row: requests, served, packets, bytes, virtual µs.
fn ledger(report: &ExecutionReport) -> [f64; 5] {
    let sum = |f: fn(&autodist_runtime::cluster::NodeStats) -> u64| {
        report.per_node.iter().map(f).sum::<u64>() as f64
    };
    [
        sum(|n| n.remote_requests),
        sum(|n| n.requests_served),
        report.total_messages() as f64,
        report.total_bytes() as f64,
        report.virtual_time_us,
    ]
}

fn main() -> Result<(), PipelineError> {
    let distributor = Distributor::new(DistributorConfig::multilevel(2));
    let cluster = ClusterConfig {
        schedule: Schedule::Inline,
        ..ClusterConfig::paper_testbed()
    };
    for (mix, programs) in mixes() {
        println!("\n{mix}");
        println!(
            "{:<40} {:>9} {:>9} {:>9} {:>10} {:>14} {:>9}",
            "program", "requests", "served", "packets", "bytes", "virtual us", "bytes/pkt"
        );
        let mut total = [0.0; 5];
        for w in &programs {
            let report = distributor
                .try_distribute(&w.program)?
                .try_execute(&cluster)?;
            let row = ledger(&report);
            for (t, v) in total.iter_mut().zip(row) {
                *t += v;
            }
            print_row(&w.name, row);
        }
        print_row("mean per op", total.map(|t| t / programs.len() as f64));
    }
    Ok(())
}

fn print_row(name: &str, [requests, served, packets, bytes, virtual_us]: [f64; 5]) {
    let per_packet = if packets > 0.0 { bytes / packets } else { 0.0 };
    println!(
        "{name:<40} {requests:>9.1} {served:>9.1} {packets:>9.1} {bytes:>10.1} {virtual_us:>14.1} {per_packet:>9.1}"
    );
}
