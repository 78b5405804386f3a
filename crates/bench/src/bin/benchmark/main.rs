//! The repository benchmark: five single-threaded closed-loop workloads with an
//! outside-in layer account. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out FILE]
//! benchmark --smoke [--out FILE]
//! benchmark --compare BASE NEW
//! benchmark --goldens
//! ```
//!
//! One process runs one workload. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — every end-to-end metric
//! without `--trace`, every per-layer metric with it.

mod arms;
mod clock;
mod exec;
mod flatjson;
mod inputs;
mod metrics;
mod phases;
mod plan_sweep;
mod protocol;
mod serve;
mod stats;
mod trace;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::process::ExitCode;

use flatjson::{Flat, Scalar};
use metrics::MetricDef;
use protocol::{Outcome, RunSpec};

/// Run length when `--seconds` is not given; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` runs every workload for this share of the default run length.
const SMOKE_DIVISOR: f64 = 50.0;
/// Seeds whose generated programs have golden values in `expected_checksums.txt`.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];
/// Where the traced pass writes its spans.
const TRACE_FILE: &str = "trace.json";

/// Counts the calling thread's heap allocations while the traced pass asks for it.
/// Every timed op runs on the main thread, so per-thread counters see all of them
/// and cost a plain increment instead of two locked ones per allocation.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        ALLOC_BYTES.set(ALLOC_BYTES.get() + size as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so touching them neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, bytes)` the calling thread has counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (ALLOCS.get(), ALLOC_BYTES.get())
}

/// Switches counting of the calling thread's allocations on or off.
pub fn set_alloc_counting(on: bool) {
    COUNTING.set(on);
}

enum Command {
    Run { spec: RunSpec, out: Option<String> },
    Smoke { out: Option<String> },
    Compare { base: String, new: String },
    Goldens,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut spec = RunSpec {
        workload: String::new(),
        seed: GOLDEN_SEEDS[0],
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let (mut out, mut smoke, mut goldens, mut compare) = (None, false, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => spec.workload = value("--workload")?,
            "--seed" => {
                spec.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                spec.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--out" => out = Some(value("--out")?),
            "--compare" => compare = Some((value("--compare")?, value("--compare")?)),
            "--smoke" => smoke = true,
            "--goldens" => goldens = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                let next = it.peek().map(|s| s.as_str());
                spec.traced = next != Some("0");
                if matches!(next, Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some((base, new)) = compare {
        return Ok(Command::Compare { base, new });
    }
    if goldens {
        return Ok(Command::Goldens);
    }
    if smoke {
        return Ok(Command::Smoke { out });
    }
    if !workload::NAMES.contains(&spec.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Command::Run { spec, out })
}

/// The metrics the last line must carry for this kind of pass.
fn contract_metrics(traced: bool) -> &'static [MetricDef] {
    if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

/// The last line of standard output.
fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for def in contract_metrics(traced) {
        let value = outcome
            .values
            .get(def.name)
            .ok_or(format!("metric {} was not measured", def.name))?;
        fields.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    ))
}

/// The `--out` record of a run.
fn flat_record(spec: &RunSpec, comparable: bool, outcome: &Outcome) -> Flat {
    let mut obj = Flat::new();
    obj.insert("workload".into(), Scalar::Str(spec.workload.clone()));
    obj.insert("seed".into(), Scalar::Str(spec.seed.to_string()));
    obj.insert("seconds".into(), Scalar::Num(spec.seconds));
    obj.insert(
        "trace".into(),
        Scalar::Num(f64::from(u8::from(spec.traced))),
    );
    obj.insert("comparable".into(), Scalar::Bool(comparable));
    obj.insert("correct".into(), Scalar::Bool(outcome.failed == 0));
    obj.insert("attempted".into(), Scalar::Num(outcome.attempted as f64));
    obj.insert("failed".into(), Scalar::Num(outcome.failed as f64));
    let violated = outcome.claims.iter().filter(|c| !c.1).count();
    obj.insert("claims_violated".into(), Scalar::Num(violated as f64));
    for (name, value) in &outcome.values.0 {
        obj.insert(name.clone(), Scalar::Num(*value));
    }
    obj
}

fn print_table(spec: &RunSpec, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} pass {}",
        spec.workload,
        spec.seed,
        spec.seconds,
        if spec.traced { "traced" } else { "untraced" }
    );
    let succeeded = outcome.attempted - outcome.failed;
    println!(
        "ops attempted {} succeeded {succeeded} failed {}",
        outcome.attempted, outcome.failed
    );
    for (name, value) in &outcome.values.0 {
        let unit = metrics::find(name).map_or("", |d| d.unit);
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    for (claim, holds) in &outcome.claims {
        println!(
            "  claim {}: {claim}",
            if *holds { "holds" } else { "VIOLATED" }
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

fn append_record(path: &str, record: &Flat) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{}", flatjson::write(record)).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload and prints its result; `Ok(false)` when an op failed.
fn run_one(spec: &RunSpec, comparable: bool, out: Option<&str>) -> Result<bool, String> {
    let outcome = protocol::run(spec)?;
    print_table(spec, &outcome);
    if spec.traced {
        outcome
            .recorder
            .write_json(TRACE_FILE)
            .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
        println!(
            "  {} spans written to {TRACE_FILE}",
            outcome.recorder.spans().len()
        );
    }
    if let Some(path) = out {
        append_record(path, &flat_record(spec, comparable, &outcome))?;
    }
    let line = result_line(&outcome, spec.traced)?;
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn run_command(command: Command) -> Result<bool, String> {
    match command {
        // Failed ops of a single run are reported in its result line, not its exit code.
        Command::Run { spec, out } => run_one(&spec, true, out.as_deref()).map(|_| true),
        Command::Smoke { out } => {
            let mut all_ok = true;
            for name in workload::NAMES {
                for traced in [false, true] {
                    let spec = RunSpec {
                        workload: name.to_string(),
                        seed: GOLDEN_SEEDS[0],
                        seconds: DEFAULT_SECONDS / SMOKE_DIVISOR,
                        traced,
                        smoke: true,
                    };
                    all_ok &= run_one(&spec, false, out.as_deref())?;
                }
            }
            println!("smoke run: results are not comparable");
            Ok(all_ok)
        }
        Command::Compare { base, new } => {
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, ok) = flatjson::compare(&read(&base)?, &read(&new)?)?;
            print!("{table}");
            println!(
                "{}",
                if ok {
                    "all gated metrics hold"
                } else {
                    "some gated metrics do not hold"
                }
            );
            Ok(ok)
        }
        Command::Goldens => {
            println!(
                "# Golden values of the benchmark: `checksum <program> <Main::checksum of the"
            );
            println!(
                "# centralized run>` and `plan <program> <nodes> <edgecut> <rewritten sites>`."
            );
            println!("# Regenerate with `benchmark --goldens` (seeds {GOLDEN_SEEDS:?}).");
            for line in golden_lines()? {
                println!("{line}");
            }
            Ok(true)
        }
    }
}

fn golden_lines() -> Result<Vec<String>, String> {
    use autodist_runtime::cluster::run_centralized;
    let mut fixed: Vec<inputs::Prog> = inputs::compute_programs();
    fixed.extend(inputs::message_programs());
    fixed.extend(inputs::serving_programs());
    fixed.push(inputs::Prog::Trivial);
    let mut lines = Vec::new();
    for prog in fixed {
        let report = run_centralized(&prog.build().program, 1.0);
        lines.push(inputs::Goldens::checksum_line(
            &prog.id(),
            &inputs::checksum_of(&report),
        ));
    }
    for seed in GOLDEN_SEEDS {
        lines.extend(plan_sweep::PlanSweep::golden_lines(seed)?);
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run_command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_forms() {
        let Ok(Command::Run { spec, out }) = parse_args(&args(
            "--workload exec_compute --seed 7 --seconds 2.5 --trace 1 --out r.jsonl",
        )) else {
            panic!("a run command");
        };
        assert_eq!(
            (spec.workload.as_str(), spec.seed, spec.seconds),
            ("exec_compute", 7, 2.5)
        );
        assert!(spec.traced);
        assert_eq!(out.as_deref(), Some("r.jsonl"));
        for (line, traced) in [
            ("--workload plan_sweep --trace 0", false),
            ("--workload plan_sweep --trace", true),
            ("--trace --workload plan_sweep", true),
            ("--workload plan_sweep", false),
        ] {
            let Ok(Command::Run { spec, .. }) = parse_args(&args(line)) else {
                panic!("{line}")
            };
            assert_eq!(spec.traced, traced, "{line}");
            assert_eq!((spec.seed, spec.seconds), (1, DEFAULT_SECONDS));
        }
        assert!(matches!(
            parse_args(&args("--smoke")),
            Ok(Command::Smoke { out: None })
        ));
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare { .. })
        ));
        assert!(matches!(
            parse_args(&args("--goldens")),
            Ok(Command::Goldens)
        ));
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--seed x --workload plan_sweep",
            "--seconds 0 --workload plan_sweep",
            "--compare a",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_contract_metrics() {
        let mut values = metrics::Values::default();
        for (i, def) in metrics::END_TO_END.iter().enumerate() {
            values.set(def.name, 1.5 + i as f64);
        }
        values.set("throughput_ops_s_raw", 0.3);
        let mut outcome = Outcome {
            values,
            attempted: 10,
            failed: 0,
            claims: vec![("a".into(), true)],
            notes: Vec::new(),
            recorder: trace::Recorder::new(),
        };
        let line = result_line(&outcome, false).expect("complete");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!line.contains("_raw"));
        assert_eq!(line.matches("\"value\"").count(), metrics::END_TO_END.len());
        assert!(
            result_line(&outcome, true).is_err(),
            "per-layer metrics are missing"
        );
        outcome.failed = 2;
        assert!(result_line(&outcome, false)
            .expect("complete")
            .contains("\"correct\":false"));
        let spec = RunSpec {
            workload: "plan_sweep".into(),
            seed: 1,
            seconds: 20.0,
            traced: false,
            smoke: false,
        };
        let record = flat_record(&spec, true, &outcome);
        assert_eq!(
            flatjson::read(&flatjson::write(&record)).expect("round trip"),
            record
        );
    }

    /// `BENCHMARK.json` is written by hand; it must name what the binary reports.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(path) = dir
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            return; // built outside the repository
        };
        let text = std::fs::read_to_string(path).expect("readable");
        for name in workload::NAMES {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
        for (section, defs) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            for def in defs {
                let better = match def.better {
                    metrics::Better::Lower => "lower",
                    metrics::Better::Higher => "higher",
                };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    def.name, def.unit
                );
                if let Some(bound) = def.bound {
                    entry.push_str(&format!(", \"bound\": {bound}"));
                }
                entry.push('}');
                assert!(text.contains(&entry), "{section}: {entry}");
            }
        }
        let listed = text.matches("\"better\"").count();
        assert_eq!(listed, metrics::END_TO_END.len() + metrics::PER_LAYER.len());
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
