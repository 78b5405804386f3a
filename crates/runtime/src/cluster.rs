//! The cluster driver: runs a program centralized or distributed and reports timings.
//!
//! Node 0 plays the paper's launch node (the 800 MHz machine where the user starts the
//! program), runs the Execution Starter and finally broadcasts a shutdown; every other
//! node answers `NEW`/`DEPENDENCE` requests. Each node keeps a virtual clock fed by the
//! instruction and network cost model, so the reported *virtual time* reproduces the
//! shape of the paper's Figure 11 even though everything actually executes on one
//! machine; wall-clock time is reported as well.
//!
//! This module holds the run configuration ([`ClusterConfig`], [`Schedule`]) and the
//! reporting surface ([`ExecutionReport`], [`NodeStats`]). There is one way to drive
//! a distributed execution — the worker loop in [`crate::sched`], on the calling
//! thread — and [`run_distributed`] goes through it as a serving run of one request
//! at window 1.

use std::time::{Duration, Instant};

use autodist_ir::program::Program;

use crate::interp::{ExecError, Interp, ProfilerSink};
use crate::net::{FaultPlan, FaultSummary, NetworkConfig};
use crate::sched::Server;
use crate::serve::ServerApp;
use crate::value::Statics;

/// How the worker loop is scheduled. There is one schedule: the loop runs on the
/// calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// One worker, on the calling thread: virtual nodes are multiplexed on it; a
    /// node waiting on a remote operation parks its frame stack as a continuation
    /// and its world delivers the oldest pending packet next (O(1) delivery per
    /// packet).
    #[default]
    Inline,
    /// The same single-threaded loop as [`Schedule::Inline`]; `threads` is ignored.
    /// Kept only so existing callers that name it still compile.
    #[doc(hidden)]
    Pool {
        /// Ignored.
        threads: usize,
    },
}

/// Configuration of a distributed run.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// The network / CPU cost model. The number of nodes is `network.nodes()`.
    pub network: NetworkConfig,
    /// Kept for callers that name it: every [`Schedule`] runs the worker loop on the
    /// calling thread.
    pub schedule: Schedule,
    /// Optional deterministic fault-injection plan wrapping the transport (see
    /// [`FaultPlan`]). `None` — the default — leaves the hot path untouched.
    pub faults: Option<FaultPlan>,
}

impl ClusterConfig {
    /// The paper's two-node testbed.
    pub fn paper_testbed() -> Self {
        ClusterConfig {
            network: NetworkConfig::paper_testbed(),
            schedule: Schedule::Inline,
            faults: None,
        }
    }

    /// This configuration with a fault plan attached.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Per-node execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStats {
    /// Node rank.
    pub node: usize,
    /// Instructions interpreted.
    pub instructions: u64,
    /// Objects/arrays allocated.
    pub allocations: u64,
    /// Bytes allocated.
    pub allocated_bytes: u64,
    /// Method invocations.
    pub method_invocations: u64,
    /// Remote requests issued by this node.
    pub remote_requests: u64,
    /// Requests served for other nodes.
    pub requests_served: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Final virtual clock of the node in microseconds.
    pub clock_us: f64,
}

/// The result of a (centralized or distributed) execution.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Virtual execution time in microseconds (the launch node's final clock).
    pub virtual_time_us: f64,
    /// Wall-clock time of the simulation in milliseconds.
    pub wall_time_ms: f64,
    /// Per-node statistics (a single entry for centralized runs).
    pub per_node: Vec<NodeStats>,
    /// Final values of static fields on the launch node, strings resolved (used to
    /// check that the distributed execution computes the same answers as the
    /// centralized one).
    pub final_statics: Statics,
    /// The typed runtime fault if execution failed.
    pub error: Option<ExecError>,
    /// Fault-layer activity of the run, when a [`FaultPlan`] was attached (`None`
    /// for fault-free runs — the report stays byte-identical to the pre-fault
    /// surface).
    pub faults: Option<FaultSummary>,
}

impl ExecutionReport {
    /// Total messages exchanged.
    pub fn total_messages(&self) -> u64 {
        self.per_node.iter().map(|n| n.messages_sent).sum()
    }

    /// Total bytes exchanged.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.iter().map(|n| n.bytes_sent).sum()
    }

    /// Speedup of `self` relative to `baseline` in virtual time (values above 1.0 mean
    /// `self` is faster). This is the quantity plotted in Figure 11 (as a percentage).
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        if self.virtual_time_us <= 0.0 {
            return 0.0;
        }
        baseline.virtual_time_us / self.virtual_time_us
    }

    /// `true` if execution completed without an error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

pub(crate) fn stats_of(interp: &Interp, node: usize) -> NodeStats {
    let (messages_sent, bytes_sent) = interp
        .dist
        .as_ref()
        .map(|d| (d.endpoint.messages_sent, d.endpoint.bytes_sent))
        .unwrap_or((0, 0));
    NodeStats {
        node,
        instructions: interp.counters.instructions,
        allocations: interp.counters.allocations,
        allocated_bytes: interp.counters.allocated_bytes,
        method_invocations: interp.counters.method_invocations,
        remote_requests: interp.counters.remote_requests,
        requests_served: interp.counters.requests_served,
        messages_sent,
        bytes_sent,
        clock_us: interp.clock_us,
    }
}

/// Runs `program` on a single node with the given relative CPU speed (1.0 = the paper's
/// 800 MHz computation node). This is the sequential baseline of Figure 11.
pub fn run_centralized(program: &Program, speed: f64) -> ExecutionReport {
    run_centralized_profiled(program, speed, None, 0)
}

/// Centralized run with an optional profiler sink attached (used by the Table 3
/// harness). `sample_interval` is in interpreted instructions; 0 disables sampling.
pub fn run_centralized_profiled(
    program: &Program,
    speed: f64,
    profiler: Option<Box<dyn ProfilerSink>>,
    sample_interval: u64,
) -> ExecutionReport {
    let start = Instant::now();
    let mut interp = Interp::new(program).with_speed(speed);
    interp.instr_cost_us = NetworkConfig::paper_testbed().instr_cost_us;
    if let Some(p) = profiler {
        interp = interp.with_profiler(p, sample_interval);
    }
    let result = interp.run_entry();
    let wall = start.elapsed();
    ExecutionReport {
        virtual_time_us: interp.clock_us,
        wall_time_ms: wall.as_secs_f64() * 1e3,
        per_node: vec![stats_of(&interp, 0)],
        final_statics: interp.statics_snapshot(),
        error: result.err(),
        faults: None,
    }
}

/// A profiler sink to attach to one node of a distributed run (see
/// [`run_distributed_profiled`]).
pub struct NodeProfiler {
    /// The sink collecting this node's measurements.
    pub sink: Box<dyn ProfilerSink>,
    /// Sampling quantum in interpreted instructions; 0 disables sampling.
    pub sample_interval: u64,
}

impl NodeProfiler {
    /// Pairs a sink with its sampling quantum.
    pub fn new(sink: Box<dyn ProfilerSink>, sample_interval: u64) -> Self {
        NodeProfiler {
            sink,
            sample_interval,
        }
    }
}

/// Runs the per-node program copies distributed over `config.network.nodes()` nodes.
///
/// `programs[r]` is the (rewritten) program copy executed by rank `r`; `programs.len()`
/// must equal the node count of the network configuration. Every placement is
/// schedulable, cyclic/re-entrant ones included: a node serves callbacks as fresh
/// continuations while its own computation stays parked.
pub fn run_distributed(programs: &[Program], config: &ClusterConfig) -> ExecutionReport {
    run_distributed_profiled(programs, config, Vec::new())
}

/// [`run_distributed`] with per-node profiler sinks attached. `profilers[r]`, when
/// present, is handed to rank `r`'s interpreter; a shorter (or empty) vector leaves
/// the remaining nodes unprofiled. Every hook fires on the calling thread, and the
/// call stack lives on each [`crate::interp::Continuation`], so sampling attribution
/// is exact however the loop interleaves nodes.
pub fn run_distributed_profiled(
    programs: &[Program],
    config: &ClusterConfig,
    profilers: Vec<Option<NodeProfiler>>,
) -> ExecutionReport {
    assert!(!programs.is_empty(), "at least one node required");
    let start = Instant::now();
    let app = ServerApp::prepare(programs.to_vec(), config.network.clone());
    let mut report = run_app(&app, config, profilers);
    report.wall_time_ms = start.elapsed().as_secs_f64() * 1e3;
    report
}

/// Runs one request of `app` alone on the worker loop, under `config`'s fault plan.
fn run_app(
    app: &ServerApp,
    config: &ClusterConfig,
    profilers: Vec<Option<NodeProfiler>>,
) -> ExecutionReport {
    let mut server = Server {
        apps: std::slice::from_ref(app),
        sequence: &[0],
        concurrency: 1,
        faults: vec![config.faults.clone()],
        adapt: None,
        // A single-root run reports virtual time; its delivery deadline is the
        // instant its one world runs dry.
        deadline_wait: Duration::ZERO,
    };
    let mut requests = server.run(profilers);
    requests.pop().expect("one request, one report").report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::StaticValue;
    use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
    use autodist_ir::frontend::compile_source;
    use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout};
    use std::collections::BTreeMap as Map;
    use std::sync::Arc;

    const BANK_SRC: &str = r#"
        class Account {
            int id;
            int savings;
            Account(int id, int savings) { this.id = id; this.savings = savings; }
            int getSavings() { return this.savings; }
            void setBalance(int b) { this.savings = b; }
        }
        class Bank {
            Account[] accounts;
            int count;
            Bank(int n) {
                this.accounts = new Account[100];
                this.count = 0;
                int i = 0;
                while (i < n) {
                    this.openAccount(new Account(i, 1000));
                    i = i + 1;
                }
            }
            void openAccount(Account a) {
                this.accounts[this.count] = a;
                this.count = this.count + 1;
            }
            Account getCustomer(int id) { return this.accounts[id]; }
            int totalSavings() {
                int t = 0;
                int i = 0;
                while (i < this.count) {
                    t = t + this.accounts[i].getSavings();
                    i = i + 1;
                }
                return t;
            }
        }
        class Main {
            static int result;
            static void main() {
                Bank merchants = new Bank(10);
                Account a4 = new Account(100, 50000);
                merchants.openAccount(a4);
                Account a = merchants.getCustomer(2);
                a.setBalance(a.getSavings() - 900);
                result = merchants.totalSavings();
            }
        }
    "#;

    fn split_placement(p: &autodist_ir::Program) -> ClassPlacement {
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Bank").unwrap(), 1);
        home.insert(p.class_by_name("Account").unwrap(), 1);
        ClassPlacement::new(2, home)
    }

    /// What the deleted thread-per-node schedule (`Schedule::Threaded`: one blocking
    /// OS thread per node, nested requests served re-entrantly on the native stack)
    /// computed for a fixed program, recorded on the last commit that had it. It was
    /// the independent implementation the worker loop was cross-checked against;
    /// its verdicts survive as data.
    struct ThreadedRecord {
        virtual_time_us: f64,
        messages: u64,
        /// Physical frame bytes: the one field that follows the wire encoding
        /// (re-recorded with it) rather than the cost model.
        bytes: u64,
        /// `(instructions, requests_served)` per node.
        per_node: &'static [(u64, u64)],
    }

    const BANK_THREADED: ThreadedRecord = ThreadedRecord {
        virtual_time_us: 2131.472380952402,
        messages: 14,
        bytes: 159,
        per_node: &[(88, 0), (625, 7)],
    };

    const RELAY_THREADED: ThreadedRecord = ThreadedRecord {
        virtual_time_us: 1211.9333333333325,
        messages: 8,
        bytes: 90,
        per_node: &[(42, 2), (14, 2)],
    };

    fn assert_matches_threaded_record(report: &ExecutionReport, record: &ThreadedRecord) {
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(report.virtual_time_us, record.virtual_time_us);
        assert_eq!(report.total_messages(), record.messages);
        assert_eq!(report.total_bytes(), record.bytes);
        let per_node: Vec<_> = report
            .per_node
            .iter()
            .map(|n| (n.instructions, n.requests_served))
            .collect();
        assert_eq!(per_node, record.per_node);
    }

    /// The re-entrant placement: node 1's method calls back into an object living
    /// on node 0, so the inter-node digraph is cyclic.
    fn relay_copies() -> Vec<autodist_ir::Program> {
        let src = r#"
            class Cell {
                int v;
                int bump() { this.v = this.v + 1; return this.v; }
            }
            class Relay {
                int poke(Cell c) { return c.bump() + c.bump(); }
            }
            class Main {
                static int result;
                static void main() {
                    Cell c = new Cell();
                    Relay r = new Relay();
                    result = r.poke(c);
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Cell").unwrap(), 0);
        home.insert(p.class_by_name("Relay").unwrap(), 1);
        let placement = ClassPlacement::new(2, home);
        (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect()
    }

    #[test]
    fn centralized_bank_run_produces_expected_total() {
        let p = compile_source(BANK_SRC).unwrap();
        let report = run_centralized(&p, 1.0);
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(
            report.final_statics.get("Main::result"),
            Some(&StaticValue::Int(10 * 1000 + 50000 - 900))
        );
        assert!(report.virtual_time_us > 0.0);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn distributed_bank_run_matches_centralized_result() {
        let p = compile_source(BANK_SRC).unwrap();
        let centralized = run_centralized(&p, 1.0);

        let placement = split_placement(&p);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let report = run_distributed(&copies, &ClusterConfig::paper_testbed());
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(
            report.final_statics.get("Main::result"),
            centralized.final_statics.get("Main::result"),
            "distributed execution computes the same answer"
        );
        assert!(report.total_messages() > 0, "communication happened");
        assert!(report.total_bytes() > 0);
        assert!(report.per_node[1].requests_served > 0);
        assert!(report.virtual_time_us > 0.0);
    }

    #[test]
    fn single_node_distributed_run_behaves_like_centralized() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = ClassPlacement::centralized(1);
        let copy = rewrite_for_node(&p, &placement, 0).program;
        let config = ClusterConfig {
            network: NetworkConfig::uniform(1),
            ..Default::default()
        };
        let report = run_distributed(std::slice::from_ref(&copy), &config);
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(report.total_messages(), 0);
        assert_eq!(
            report.final_statics.get("Main::result"),
            Some(&StaticValue::Int(10 * 1000 + 50000 - 900))
        );
    }

    #[test]
    fn offloading_work_to_a_faster_node_can_give_speedup() {
        // A compute-heavy class placed on the fast node: distribution should beat the
        // slow-node-only baseline in virtual time (this is the Figure 11 effect).
        let src = r#"
            class Worker {
                int crunch(int n) {
                    int acc = 0;
                    int i = 0;
                    while (i < n) {
                        acc = acc + (i * i) % 1000;
                        i = i + 1;
                    }
                    return acc;
                }
            }
            class Main {
                static int result;
                static void main() {
                    Worker w = new Worker();
                    result = w.crunch(20000);
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let baseline = run_centralized(&p, 1.0);

        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Worker").unwrap(), 1);
        let placement = ClassPlacement::new(2, home);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let dist = run_distributed(&copies, &ClusterConfig::paper_testbed());
        assert!(dist.is_ok(), "{:?}", dist.error);
        assert_eq!(
            dist.final_statics.get("Main::result"),
            baseline.final_statics.get("Main::result")
        );
        let speedup = dist.speedup_over(&baseline);
        assert!(
            speedup > 1.2,
            "offloading the hot loop to the 2.1x node should win (speedup {speedup:.2})"
        );
    }

    /// The worker loop reproduces, bit for bit, what thread-per-node execution
    /// computed for the split bank.
    #[test]
    fn inline_schedule_matches_threaded_results_and_virtual_time() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = split_placement(&p);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let report = run_distributed(&copies, &ClusterConfig::paper_testbed());
        assert_matches_threaded_record(&report, &BANK_THREADED);
        assert_eq!(
            report.final_statics.get("Main::result"),
            Some(&StaticValue::Int(10 * 1000 + 50000 - 900))
        );
    }

    #[test]
    fn inline_schedule_scales_to_many_virtual_nodes() {
        // 64 virtual nodes on one OS thread.
        let p = compile_source(BANK_SRC).unwrap();
        let nodes = 64;
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Bank").unwrap(), 1);
        home.insert(p.class_by_name("Account").unwrap(), 2);
        let placement = ClassPlacement::new(nodes, home);
        let copies: Vec<autodist_ir::Program> = (0..nodes)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let config = ClusterConfig {
            network: NetworkConfig::uniform(nodes),
            schedule: Schedule::Inline,
            ..Default::default()
        };
        let report = run_distributed(&copies, &config);
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(report.per_node.len(), nodes);
        assert_eq!(
            report.final_statics.get("Main::result"),
            Some(&StaticValue::Int(10 * 1000 + 50000 - 900))
        );
        assert!(report.total_messages() > 0);
    }

    /// The cyclic placement: node 0's main parks while node 1
    /// serves `poke`, which calls back into node 0 — the callback runs as a fresh
    /// continuation on node 0 while its root computation stays parked. Results,
    /// traffic and virtual clocks are those of thread-per-node execution.
    #[test]
    fn inline_schedule_supports_reentrant_callbacks() {
        let report = run_distributed(
            &relay_copies(),
            &ClusterConfig {
                schedule: Schedule::Inline,
                ..ClusterConfig::paper_testbed()
            },
        );
        assert_matches_threaded_record(&report, &RELAY_THREADED);
        assert_eq!(
            report.final_statics.get("Main::result"),
            Some(&StaticValue::Int(3))
        );
        assert!(
            report.per_node[0].requests_served > 0,
            "the launch node served the callback while parked"
        );
    }

    /// Strings are per-node ids, so what crosses a node — a `NEW` argument built at
    /// run time, invoke arguments and results, a remote field read — must arrive as
    /// content: `+`, `==` against a literal and `<` come out as in the centralized
    /// run, and so do the string statics.
    #[test]
    fn strings_cross_nodes_by_content() {
        let src = r#"
            class Shop {
                String name;
                Shop(String name) { this.name = name; }
                String greet(String who) { return this.name + ", " + who; }
                boolean before(String a, String b) { return a < b; }
            }
            class Main {
                static String greeting;
                static String owner;
                static int result;
                static void main() {
                    Shop s = new Shop("Mer" + "chants");
                    String g = s.greet("ABC");
                    greeting = g;
                    owner = s.name;
                    if (g == "Merchants, ABC") { result = result + 1; }
                    if (s.before("ABC", g)) { result = result + 10; }
                    if (s.before(g, "ABC")) { result = result + 1000; }
                    String zz = "z" + "z";
                    String ab = "a" + "b";
                    if (s.before(zz, ab)) { result = result + 10000; }
                    if (owner == "Merchants") { result = result + 100; }
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let central = run_centralized(&p, 1.0);
        assert!(central.is_ok(), "{:?}", central.error);
        assert_eq!(
            central.final_statics.get("Main::greeting"),
            Some(&StaticValue::Str("Merchants, ABC".into()))
        );
        assert_eq!(
            central.final_statics.get("Main::result"),
            Some(&StaticValue::Int(111))
        );
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Shop").unwrap(), 1);
        let placement = ClassPlacement::new(2, home);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let dist = run_distributed(&copies, &ClusterConfig::paper_testbed());
        assert!(dist.is_ok(), "{:?}", dist.error);
        assert!(dist.per_node[1].requests_served >= 4);
        assert_eq!(dist.final_statics, central.final_statics);
    }

    #[test]
    fn communication_heavy_distribution_shows_overhead() {
        // Fine-grained remote field access with almost no compute: distribution should
        // be slower than the baseline (the sub-100% cases of Figure 11).
        let src = r#"
            class Cell {
                int v;
                int get() { return this.v; }
                void set(int x) { this.v = x; }
            }
            class Main {
                static int result;
                static void main() {
                    Cell c = new Cell();
                    int i = 0;
                    while (i < 200) {
                        c.set(c.get() + 1);
                        i = i + 1;
                    }
                    result = c.get();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let baseline = run_centralized(&p, 1.0);
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Cell").unwrap(), 1);
        let placement = ClassPlacement::new(2, home);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let dist = run_distributed(&copies, &ClusterConfig::paper_testbed());
        assert!(dist.is_ok(), "{:?}", dist.error);
        assert_eq!(
            dist.final_statics.get("Main::result"),
            baseline.final_statics.get("Main::result")
        );
        assert!(
            dist.speedup_over(&baseline) < 1.0,
            "chatty fine-grained access should pay communication overhead"
        );
        assert!(dist.total_messages() >= 400, "two messages per round trip");
    }

    /// A loop on the launch node reads a field of an object living on the other
    /// node through its proxy: `d.f` is a `getfield` on `Base`, at home here, so it
    /// stays a plain field op. The register kernel runs the loop, stops at the
    /// `RGetField` on the proxy every iteration, and the machine parks there and
    /// resumes with the reply. The whole report — result, clocks, counters,
    /// traffic — is the unfolded 1:1 form's (`fuse: false`).
    #[test]
    fn a_loop_that_parks_at_a_proxied_field_reports_what_the_stack_form_does() {
        let src = r#"
            class Base { int f; }
            class Derived extends Base {
                Derived(int f) { this.f = f; }
            }
            class Main {
                static int checksum;
                static void main() {
                    Derived d = new Derived(3);
                    int s = 0;
                    int i = 0;
                    while (i < 10) {
                        s = s + d.f * i;
                        i = i + 1;
                    }
                    checksum = s;
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Base").unwrap(), 0);
        home.insert(p.class_by_name("Derived").unwrap(), 1);
        let placement = ClassPlacement::new(2, home);
        let copies: Vec<autodist_ir::Program> = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let main = copies[0].entry.unwrap();
        let layout = ProgramLayout::build(&copies[0]);
        assert!(
            layout
                .ops(main)
                .ops
                .iter()
                .any(|op| matches!(op, Op::RGetField(..))),
            "{:?}",
            layout.ops(main).ops
        );
        let config = ClusterConfig::paper_testbed();
        // `run_distributed` over layouts built with `opts` (the class defaults
        // depend only on class shapes, which `fuse` leaves alone).
        let report = |opts| {
            let mut app = ServerApp::prepare(copies.clone(), config.network.clone());
            app.layouts = ProgramLayout::build_family(copies.clone(), opts)
                .into_iter()
                .map(Arc::new)
                .collect();
            let mut report = run_app(&app, &config, Vec::new());
            report.wall_time_ms = 0.0;
            report
        };
        let registers = report(LayoutOptions::default());
        assert!(registers.is_ok(), "{:?}", registers.error);
        assert_eq!(
            registers.final_statics.get("Main::checksum"),
            Some(&StaticValue::Int(3 * 45))
        );
        assert!(
            registers.per_node[0].remote_requests >= 10,
            "every iteration reads the field remotely"
        );
        assert_eq!(
            format!("{registers:?}"),
            format!("{:?}", report(LayoutOptions { fuse: false }))
        );
    }
}
