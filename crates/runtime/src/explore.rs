//! Seeded exploration of world order, in tests only.
//!
//! Two orders are the worker loop's to choose: which pending entry a world takes next
//! ([`crate::net::Transport::next_pending`]), and which stuck world the delivery
//! deadline resumes first. Neither may change a report: per-node clocks depend only on
//! each node's own packet arrival order, which FIFO mailboxes and the protocol fix. An
//! [`Explorer`] replaces both choices with seeded ones, and the sweep below holds every
//! report it produces to the FIFO solo run of the same request under the same fault
//! plan.
//!
//! A pending entry is only a rank — the world's next receive on that rank takes the
//! mailbox's oldest packet — so taking the first entry of a rank chosen among the
//! distinct ranks pending keeps every mailbox FIFO and explores one order per class
//! of equivalent ones: two entries for one rank are the same choice.
//!
//! Two invariants, after Adjiman et al.'s termination detection, are checked while a
//! run is explored, and the first violation is reported with the explorer's seed:
//!
//! 1. a world whose pending list runs dry before its root completes is doomed by a
//!    recorded loss or waits on a sequence gap — it is never simply stuck
//!    ([`check_dry`], after every delivery);
//! 2. a world in the stuck list has nothing it could deliver, so when the window is
//!    full of them no world can progress (checked by the worker loop each time it
//!    decides between admitting and the delivery deadline).

use std::collections::VecDeque;

use crate::net::Transport;

/// One world's seeded choice of pending entries, a hash of the ranks it took, and
/// the first invariant it broke.
pub(crate) struct Order {
    rng: u64,
    trace: u64,
    violation: Option<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Order {
    /// Takes the first pending entry of a rank drawn among the distinct ranks pending.
    pub(crate) fn take(&mut self, pending: &mut VecDeque<u32>) -> Option<usize> {
        let mut ranks: Vec<u32> = Vec::new();
        for &rank in pending.iter() {
            if !ranks.contains(&rank) {
                ranks.push(rank);
            }
        }
        if ranks.is_empty() {
            return None;
        }
        let rank = ranks[(splitmix(&mut self.rng) % ranks.len() as u64) as usize];
        let at = pending.iter().position(|&r| r == rank)?;
        pending.remove(at);
        self.trace = fnv(self.trace, u64::from(rank));
        Some(rank as usize)
    }
}

/// The seeded choices of one run of the worker loop, what they were, and the
/// invariants they broke.
pub(crate) struct Explorer {
    rng: u64,
    /// A hash of the ranks each finished world took, in completion order.
    pub(crate) worlds: Vec<u64>,
    /// Every invariant violation seen, in the order seen.
    pub(crate) violations: Vec<String>,
}

impl Explorer {
    pub(crate) fn new(seed: u64) -> Self {
        Explorer {
            rng: seed,
            worlds: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Records a finished world's order and the invariant it broke, if any.
    pub(crate) fn record(&mut self, order: Option<&Order>) {
        self.worlds.push(order.map_or(0, |o| o.trace));
        if let Some(v) = order.and_then(|o| o.violation.clone()) {
            self.violations.push(v);
        }
    }
}

/// `net` with a seeded order drawn from `explore`, if there is one.
pub(crate) fn ordered(mut net: Transport, explore: Option<&mut Explorer>) -> Transport {
    net.order = explore.map(|e| Order {
        rng: splitmix(&mut e.rng),
        trace: FNV_OFFSET,
        violation: None,
    });
    net
}

/// Invariant 1, checked after a delivery that did not end the world: an explored
/// world of `ranks` nodes whose pending list is empty has a recorded loss or a
/// sequence gap.
pub(crate) fn check_dry(net: &mut Transport, ranks: usize) {
    let explained = !net.pending.is_empty()
        || net.first_loss().is_some()
        || (0..ranks).any(|rank| net.has_sequence_gap(rank));
    if let (false, Some(order)) = (explained, net.order.as_mut()) {
        order.violation.get_or_insert_with(|| {
            "a world's pending list ran dry with no loss and no sequence gap".to_string()
        });
    }
}

/// `worlds` in a seeded order drawn from `explore`, if there is one.
pub(crate) fn shuffled<T>(mut worlds: Vec<T>, explore: Option<&mut Explorer>) -> Vec<T> {
    if let Some(e) = explore {
        for i in (1..worlds.len()).rev() {
            let j = (splitmix(&mut e.rng) % (i as u64 + 1)) as usize;
            worlds.swap(i, j);
        }
    }
    worlds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_centralized, ExecutionReport};
    use crate::net::{FaultPlan, NetworkConfig};
    use crate::sched::{run_explored, Server};
    use crate::serve::ServerApp;
    use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
    use autodist_ir::frontend::compile_source;
    use std::collections::{BTreeMap, HashSet};
    use std::time::Duration;

    /// `bank`'s shape: a loop of one-way creations, then a round trip on each object.
    const BANK: &str = r#"
        class Account {
            int id;
            int balance;
            Account(int id, int balance) { this.id = id; this.balance = balance; }
            int weighted() { return this.balance * (this.id + 1); }
        }
        class Main {
            static int checksum;
            static void main() {
                Account[] accounts = new Account[10];
                int i = 0;
                while (i < 10) {
                    accounts[i] = new Account(i, 100 + 3 * i);
                    i = i + 1;
                }
                int total = 0;
                i = 0;
                while (i < 10) {
                    total = total + accounts[i].weighted();
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// `search`'s shape: each object is created one-way and called at once.
    const SEARCH: &str = r#"
        class Board {
            int[] cells;
            int size;
            Board(int size) {
                this.size = size;
                this.cells = new int[size];
                int i = 0;
                while (i < size) {
                    this.cells[i] = i * i % 7;
                    i = i + 1;
                }
            }
            int solve(int depth) {
                int best = 0;
                int i = 0;
                while (i < this.size) {
                    best = best + this.cells[i] * depth;
                    i = i + 1;
                }
                return best;
            }
        }
        class Main {
            static int checksum;
            static void main() {
                int total = 0;
                int i = 1;
                while (i < 7) {
                    Board b = new Board(i * 3);
                    total = total + b.solve(i);
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// Four nodes: a reference to a one-way-created `Cell` (node 1) reaches a third
    /// node (2 or 3) before anything else touches it there.
    const RELAY: &str = r#"
        class Cell {
            int v;
            Cell(int v) { this.v = v; }
            int get() { return this.v; }
        }
        class Relay { int read(Cell c) { return c.get() + 1; } }
        class Echo { int pass(Cell c) { return c.get() * 2; } }
        class Main {
            static int checksum;
            static void main() {
                Relay r = new Relay();
                Echo e = new Echo();
                int total = 0;
                int i = 0;
                while (i < 4) {
                    Cell c = new Cell(i * 7 + 1);
                    total = total + r.read(c) + e.pass(new Cell(i));
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// Two nodes: node 1 is called with a `Probe` of node 0, creates a `Tally` on node
    /// 0 one-way and then calls the probe. Its first request on the link carries the
    /// fingerprint hello; a reorder delivers the call before it.
    const CALLBACK: &str = r#"
        class Probe {
            int v;
            Probe(int v) { this.v = v; }
            int get() { return this.v; }
        }
        class Tally {
            int n;
            Tally(int n) { this.n = n * 3; }
        }
        class Worker {
            int work(Probe p) {
                Tally t = new Tally(7);
                return p.get() + 1;
            }
        }
        class Main {
            static int checksum;
            static void main() {
                Worker w = new Worker();
                int total = 0;
                int i = 0;
                while (i < 4) {
                    total = total + w.work(new Probe(i * 5 + 2));
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// A run of one-way creations, then a call on one of them: the run and the call
    /// travel as one packet of four frames.
    const BATCH: &str = r#"
        class Cell {
            int v;
            Cell(int v) { this.v = v * 3 + 1; }
            int get() { return this.v; }
        }
        class Main {
            static int checksum;
            static void main() {
                int total = 0;
                int i = 0;
                while (i < 4) {
                    Cell a = new Cell(i);
                    Cell b = new Cell(i + 5);
                    Cell c = new Cell(i + 9);
                    total = total + b.get();
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// Three nodes: a run of one-way creations on node 1, then a call to node 2 that
    /// passes one of them, so the run leaves as a packet of its own just before the
    /// call, and node 2 calls back into node 1.
    const FLUSH: &str = r#"
        class Cell {
            int v;
            Cell(int v) { this.v = v + 2; }
            int get() { return this.v; }
        }
        class Relay { int read(Cell c) { return c.get() * 5; } }
        class Main {
            static int checksum;
            static void main() {
                Relay r = new Relay();
                int total = 0;
                int i = 0;
                while (i < 4) {
                    Cell a = new Cell(i * 7);
                    Cell b = new Cell(i);
                    total = total + r.read(a) + r.read(b);
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#;

    /// A program of `src` placed by `homes`, prepared for `network`.
    fn app(src: &str, homes: &[(&str, usize)], network: NetworkConfig) -> ServerApp {
        let p = compile_source(src).unwrap();
        let home: BTreeMap<_, _> = homes
            .iter()
            .map(|&(class, node)| (p.class_by_name(class).unwrap(), node))
            .collect();
        let placement = ClassPlacement::new(network.nodes(), home);
        let programs = (0..network.nodes())
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        ServerApp::prepare(programs, network)
    }

    fn cases() -> Vec<(&'static str, &'static str, ServerApp)> {
        let four = NetworkConfig {
            node_speeds: vec![1.0, 2.1, 1.5, 0.8],
            ..NetworkConfig::uniform(4)
        };
        let three = NetworkConfig {
            node_speeds: vec![1.0, 2.1, 1.5],
            ..NetworkConfig::uniform(3)
        };
        vec![
            (
                "bank",
                BANK,
                app(
                    BANK,
                    &[("Main", 0), ("Account", 1)],
                    NetworkConfig::paper_testbed(),
                ),
            ),
            (
                "search",
                SEARCH,
                app(
                    SEARCH,
                    &[("Main", 0), ("Board", 1)],
                    NetworkConfig::paper_testbed(),
                ),
            ),
            (
                "callback",
                CALLBACK,
                app(
                    CALLBACK,
                    &[("Main", 0), ("Probe", 0), ("Tally", 0), ("Worker", 1)],
                    NetworkConfig::paper_testbed(),
                ),
            ),
            (
                "relay",
                RELAY,
                app(
                    RELAY,
                    &[("Main", 0), ("Cell", 1), ("Relay", 2), ("Echo", 3)],
                    four,
                ),
            ),
            (
                "batch",
                BATCH,
                app(
                    BATCH,
                    &[("Main", 0), ("Cell", 1)],
                    NetworkConfig::paper_testbed(),
                ),
            ),
            (
                "flush",
                FLUSH,
                app(FLUSH, &[("Main", 0), ("Cell", 1), ("Relay", 2)], three),
            ),
        ]
    }

    fn plans() -> Vec<(&'static str, Option<FaultPlan>)> {
        vec![
            ("none", None),
            ("reorder 0.2", Some(FaultPlan::quiet(41).with_reorder(0.2))),
            ("reorder 1.0", Some(FaultPlan::quiet(13).with_reorder(1.0))),
            ("duplicate", Some(FaultPlan::quiet(7).with_duplicate(0.5))),
            (
                "drop",
                Some(FaultPlan {
                    max_retries: 64,
                    ..FaultPlan::quiet(3).with_drop(0.3)
                }),
            ),
        ]
    }

    /// Every field of a report but its wall time, by name; the first four are what
    /// a healed run shares with the fault-free one.
    fn fields(r: &ExecutionReport) -> [(&'static str, String); 7] {
        [
            ("virtual_time_us", format!("{:?}", r.virtual_time_us)),
            ("final_statics", format!("{:?}", r.final_statics)),
            ("messages", r.total_messages().to_string()),
            ("bytes", r.total_bytes().to_string()),
            ("per_node", format!("{:?}", r.per_node)),
            ("faults", format!("{:?}", r.faults)),
            ("error", format!("{:?}", r.error)),
        ]
    }

    /// The first of the first `n` [`fields`] in which `got` differs from `want`.
    fn first_difference(got: &ExecutionReport, want: &ExecutionReport, n: usize) -> Option<String> {
        fields(got)
            .into_iter()
            .zip(fields(want))
            .take(n)
            .find(|(g, w)| g.1 != w.1)
            .map(|((name, g), (_, w))| format!("{name}: {g} instead of {w}"))
    }

    fn server<'s>(
        app: &'s ServerApp,
        sequence: &'s [usize],
        window: usize,
        plan: &Option<FaultPlan>,
    ) -> Server<'s> {
        Server {
            apps: std::slice::from_ref(app),
            sequence,
            concurrency: window,
            faults: vec![plan.clone(); sequence.len()],
            adapt: None,
            deadline_wait: Duration::ZERO,
        }
    }

    /// The FIFO solo run of one request under `plan`.
    fn solo(app: &ServerApp, plan: &Option<FaultPlan>) -> ExecutionReport {
        let mut server = server(app, &[0], 1, plan);
        server.run(Vec::new()).pop().unwrap().report
    }

    /// Seeds × fault plans × windows over the programs: no order breaks an invariant
    /// of the module doc, every report equals the FIFO solo run of its request under
    /// its plan, and a plan that heals (reorder, duplicate) leaves the launch node's
    /// clock, the checksum and the traffic where the fault-free run has them. Counts
    /// the distinct world orders it saw.
    #[test]
    fn every_order_gives_the_fifo_solo_report() {
        const REQUESTS: usize = 3;
        let sequence = [0; REQUESTS];
        let mut distinct = 0;
        for (name, src, app) in cases() {
            let central = run_centralized(&compile_source(src).unwrap(), 1.0);
            let healthy = solo(&app, &None);
            assert!(healthy.is_ok(), "{name}: {:?}", healthy.error);
            assert_eq!(
                healthy.final_statics.get("Main::checksum"),
                central.final_statics.get("Main::checksum"),
                "{name}: distribution changed the checksum"
            );
            for (plan_name, plan) in plans() {
                let want = solo(&app, &plan);
                assert!(want.is_ok(), "{name} / {plan_name}: {:?}", want.error);
                // Reordered and duplicated packets heal to the fault-free run's clock,
                // checksum and traffic; retried drops cost clock.
                let heals = plan_name != "drop";
                let mut orders = HashSet::new();
                for window in [1, 2, 8] {
                    for seed in 0..SEEDS {
                        let seed = seed * 0x9e37_79b9 + window as u64;
                        let mut server = server(&app, &sequence, window, &plan);
                        let (reports, explorer) = run_explored(&mut server, Explorer::new(seed));
                        if let Some(v) = explorer.violations.first() {
                            panic!(
                                "{name} / {plan_name}, window {window}, explorer seed {seed}: {v}"
                            );
                        }
                        for r in &reports {
                            let at = format!(
                                "{name} / {plan_name}, window {window}, explorer seed {seed}, \
                                 request {}",
                                r.index
                            );
                            if let Some(d) = first_difference(&r.report, &want, 7) {
                                panic!("{at}: {d} in its FIFO solo run");
                            }
                            if let Some(d) =
                                first_difference(&r.report, &healthy, 4).filter(|_| heals)
                            {
                                panic!("{at}: {d} in the fault-free run");
                            }
                        }
                        orders.extend(explorer.worlds);
                    }
                }
                distinct += orders.len();
            }
        }
        eprintln!("distinct world orders: {distinct}");
        assert!(distinct >= 10_000, "only {distinct} distinct world orders");
    }

    const SEEDS: u64 = 300;

    /// `main` ends on a remote creation. Its one-way `NEW` waits in node 0's open
    /// packet, which no later request closes, so the world has one order: `main`
    /// completes in the seed without a delivery, and `World::finish` sends the packet
    /// and the constructor runs there. Every seed gives the same instructions on every
    /// node.
    #[test]
    fn a_trailing_creation_runs_whichever_order_is_chosen() {
        const TAIL: &str = r#"
            class Tail {
                int sum;
                Tail(int n) {
                    int i = 0;
                    while (i < n) { this.sum = this.sum + i; i = i + 1; }
                }
            }
            class Main {
                static int checksum;
                static void main() { checksum = 7; Tail t = new Tail(40); }
            }
        "#;
        let app = app(
            TAIL,
            &[("Main", 0), ("Tail", 1)],
            NetworkConfig::paper_testbed(),
        );
        let instructions = |r: &ExecutionReport| {
            r.per_node
                .iter()
                .map(|n| n.instructions)
                .collect::<Vec<_>>()
        };
        let want = solo(&app, &None);
        let mut orders = HashSet::new();
        for seed in 0..16 {
            let mut server = server(&app, &[0], 1, &None);
            let (reports, explorer) = run_explored(&mut server, Explorer::new(seed));
            let report = &reports[0].report;
            assert!(report.is_ok(), "seed {seed}: {:?}", report.error);
            assert_eq!(instructions(report), instructions(&want), "seed {seed}");
            orders.insert(explorer.worlds[0]);
        }
        assert_eq!(orders.len(), 1, "one order: the NEW leaves after main ends");
    }
}
