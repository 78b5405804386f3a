//! Machine-readable performance report: the Table 1 workload suite (centralized vs
//! distributed, median wall time + virtual time) plus the micro-bench areas —
//! including the op-dispatch probe of the explicit-stack interpreter and the
//! message-delivery probe of the transport's ready queue — and the serving areas
//! (closed-loop requests/sec + p50/p99 latency per schedule), written as JSON.
//!
//! This is the baseline artifact all perf PRs diff against: run it before and after a
//! change and compare `totals.suite_wall_ms`, the per-workload `*_virtual_us`
//! fields, which must be byte-identical across purely mechanical interpreter changes,
//! and the `serving` section's `requests_per_sec` per schedule (see the README's
//! "Performance" section for the schema and the committed `BENCH_pr3.json` …
//! `BENCH_pr16.json` baselines). The `adaptive_serving` section A/Bs static vs
//! adaptive placement on the skewed generated workload; its deterministic
//! `adaptive_messages < static_messages` comparison is the CI guard on the
//! online repartition loop.
//!
//! Usage: `cargo run --release -p autodist-bench --bin bench_report -- \
//!            [--repeats N] [--scale N] [--out FILE] [--quick]`

use autodist::PipelineError;
use autodist_bench::report::measure;

fn main() -> Result<(), PipelineError> {
    let mut repeats = 5usize;
    let mut scale = 1usize;
    let mut out = "BENCH_pr16.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeats" => repeats = parse_arg(args.next(), "--repeats")?,
            "--scale" => scale = parse_arg(args.next(), "--scale")?,
            "--out" => {
                out = args.next().ok_or_else(|| {
                    PipelineError::Config("--out requires a file path".to_string())
                })?
            }
            "--quick" => {
                // CI smoke configuration: fewest repeats on the smallest workloads.
                repeats = 2;
                scale = 1;
            }
            other => {
                return Err(PipelineError::Config(format!(
                    "unknown argument {other} (expected --repeats/--scale/--out/--quick)"
                )))
            }
        }
    }

    let report = measure(scale, repeats)?;
    println!(
        "{:<26} {:>12} {:>14} {:>12} {:>14} {:>9} {:>8}",
        "workload", "cent ms", "cent virt us", "dist ms", "dist virt us", "messages", "correct"
    );
    for w in &report.workloads {
        println!(
            "{:<26} {:>12.3} {:>14.0} {:>12.3} {:>14.0} {:>9} {:>8}",
            w.name,
            w.centralized_wall_ms,
            w.centralized_virtual_us,
            w.distributed_wall_ms,
            w.distributed_virtual_us,
            w.messages,
            w.checksum_matches
        );
    }
    println!();
    for m in &report.micro {
        println!("micro {:<28} {:>12.2} us", m.name, m.median_us);
    }
    println!();
    for c in &report.census {
        println!(
            "census {:<27} {:>6} -> {:>6} ops static, dispatch reduction {:>5.1}%",
            c.name,
            c.static_.unfused_ops,
            c.static_.fused_ops,
            c.dynamic.dispatch_reduction_pct()
        );
    }
    println!();
    for s in &report.serving {
        println!(
            "serving {:<10} threads {:>2} conc {:>3} reqs {:>4} ingress {:>3} us  {:>9.1} req/s  p50 {:>9.1} us  p99 {:>9.1} us  ok {}",
            s.name, s.threads, s.concurrency, s.requests, s.ingress_us, s.requests_per_sec, s.p50_us, s.p99_us, s.all_ok
        );
    }
    println!();
    let a = &report.adaptive_serving;
    println!(
        "adaptive_serving reqs {:>3} epoch {:>3}  static {:>5} msgs {:>9.1} req/s  adaptive {:>5} msgs {:>9.1} req/s  swaps {}  ok {}  checksums {}",
        a.requests, a.epoch_requests, a.static_messages, a.static_rps, a.adaptive_messages, a.adaptive_rps, a.placement_swaps, a.all_ok, a.checksums_match
    );
    println!();
    for a in &report.fault_overhead {
        println!(
            "fault_overhead {:<16} off {:>8.3} ms  quiet {:>8.3} ms  overhead {:>6.1}%  virt-identical {}  traffic-identical {}",
            a.name, a.off_wall_ms, a.quiet_wall_ms, a.overhead_pct, a.virtual_identical, a.messages_identical
        );
    }
    println!();
    println!(
        "totals: centralized {:.3} ms, distributed {:.3} ms, suite {:.3} ms",
        report.total_centralized_ms(),
        report.total_distributed_ms(),
        report.total_suite_ms()
    );

    std::fs::write(&out, report.to_json())
        .map_err(|e| PipelineError::Config(format!("cannot write {out}: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

fn parse_arg(v: Option<String>, flag: &str) -> Result<usize, PipelineError> {
    v.and_then(|s| s.parse().ok())
        .ok_or_else(|| PipelineError::Config(format!("{flag} requires a positive integer")))
}
