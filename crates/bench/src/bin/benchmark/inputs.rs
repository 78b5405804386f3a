//! Inputs and oracles: the programs each workload runs, the seeded choices made
//! from `--seed`, the per-op reference every timed op is checked against, and the
//! golden values committed in `expected_checksums.txt`.

use std::collections::BTreeMap;

use autodist::{Distributor, DistributorConfig};
use autodist_runtime::cluster::{ClusterConfig, ExecutionReport, Schedule};
use autodist_runtime::net::NetworkConfig;
use autodist_workloads::{self as workloads, GenConfig, Workload};

/// SplitMix64 step: the `salt`-th value derived from `seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic generator for op orders and fault assignment.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A program the benchmark runs, by constructor and size.
#[derive(Clone, Debug, PartialEq)]
pub enum Prog {
    Crypt(usize),
    Heapsort(usize),
    Compress(usize),
    Db(usize, usize),
    Moldyn(usize, usize),
    Method(usize),
    Search(usize),
    Bank(usize),
    Gen(GenConfig),
    /// `main` stores a constant: what is left of a run when the program does nothing.
    Trivial,
}

const TRIVIAL_SRC: &str =
    "class Main { static int checksum; static void main() { checksum = 1; } }";

impl Prog {
    /// Stable identifier: the key of the program's golden checksum.
    pub fn id(&self) -> String {
        match self {
            Prog::Crypt(n) => format!("crypt-{n}"),
            Prog::Heapsort(n) => format!("heapsort-{n}"),
            Prog::Compress(n) => format!("compress-{n}"),
            Prog::Db(r, o) => format!("db-{r}x{o}"),
            Prog::Moldyn(p, s) => format!("moldyn-{p}x{s}"),
            Prog::Method(n) => format!("method-{n}"),
            Prog::Search(d) => format!("search-{d}"),
            Prog::Bank(n) => format!("bank-{n}"),
            Prog::Gen(c) => format!(
                "gen-s{:x}-d{}w{}f{}k{}p{}i{}",
                c.seed, c.depth, c.width, c.fan_out, c.affinity_skew, c.payload, c.iterations
            ),
            Prog::Trivial => "trivial".to_string(),
        }
    }

    /// Builds the program (for generated ones this includes the frontend).
    pub fn build(&self) -> Workload {
        match self {
            Prog::Crypt(n) => workloads::crypt(*n),
            Prog::Heapsort(n) => workloads::heapsort(*n),
            Prog::Compress(n) => workloads::compress(*n),
            Prog::Db(r, o) => workloads::db_bench(*r, *o),
            Prog::Moldyn(p, s) => workloads::moldyn(*p, *s),
            Prog::Method(n) => workloads::method_bench(*n),
            Prog::Search(d) => workloads::search(*d),
            Prog::Bank(n) => workloads::bank(*n),
            Prog::Gen(c) => workloads::generated(c).workload,
            Prog::Trivial => Workload {
                name: "trivial".to_string(),
                description: "stores a constant".to_string(),
                program: Distributor::compile(TRIVIAL_SRC).expect("the trivial program compiles"),
            },
        }
    }
}

/// A generated call tree of the given shape.
pub fn tree(seed: u64, depth: usize, width: usize, fan_out: usize) -> GenConfig {
    GenConfig {
        seed,
        depth,
        width,
        fan_out,
        ..GenConfig::default()
    }
}

/// Names of the [`compute_programs`] and [`message_programs`], in order: the op kinds
/// of the exec workloads and the `exec.<name>_ms_p50` rows of the layer account.
pub const COMPUTE_KINDS: [&str; 5] = ["crypt", "heapsort", "compress", "db", "moldyn"];
pub const MESSAGE_KINDS: [&str; 5] = ["method", "search", "bank", "gen_tag8", "gen_bulk"];

/// `exec_compute`: each sized so one distributed run takes about 10 ms on the parent.
pub fn compute_programs() -> Vec<Prog> {
    vec![
        Prog::Crypt(20_000),
        Prog::Heapsort(2_100),
        Prog::Compress(20_000),
        Prog::Db(160, 900),
        Prog::Moldyn(48, 8),
    ]
}

/// `exec_messages`: ping-pong, tree search, object-graph traffic, and one generated
/// call tree twice — with 8-byte and with 512-byte tags at identical message counts.
pub fn message_programs() -> Vec<Prog> {
    let small = GenConfig {
        iterations: 160,
        ..tree(1, 4, 4, 2)
    };
    let bulk = GenConfig {
        payload: 512,
        ..small.clone()
    };
    vec![
        Prog::Method(7_500),
        Prog::Search(9),
        Prog::Bank(2_600),
        Prog::Gen(small),
        Prog::Gen(bulk),
    ]
}

/// The serving mix: four Table 1 programs of distinct shape and one generated app.
/// Five, not four: served round-robin, each app's requests form one latency mode, and
/// with an odd number of equal modes the median request sits inside the middle one
/// (`bank`) instead of on the cliff between two (with four apps p45 was 0.58 ms and
/// p55 1.17 ms, and p50 moved between them with the seed's request order).
pub fn serving_programs() -> Vec<Prog> {
    vec![
        Prog::Bank(40),
        Prog::Method(200),
        Prog::Crypt(400),
        Prog::Gen(tree(1, 3, 4, 2)),
        Prog::Search(5),
    ]
}

/// Index of the serving app whose requests the degraded workload faults: `bank`,
/// object-graph traffic of 174 messages a request.
pub const SERVING_FAULTED_APP: usize = 0;

/// `plan_sweep` pool entry `i` for a run seed: the paper-scale generated program.
pub fn sweep_program(seed: u64, i: usize) -> GenConfig {
    GenConfig {
        iterations: 1,
        ..tree(mix(seed, i as u64), 6, 12, 3)
    }
}

/// The two-node paper testbed for `nodes == 2`, a uniform cluster otherwise, always
/// on the cooperative single-threaded scheduler.
pub fn cluster(nodes: usize) -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    if nodes != 2 {
        c.network = NetworkConfig::uniform(nodes);
    }
    c.schedule = Schedule::Inline;
    c
}

/// The distributor every workload plans with: multilevel partitioning, verification on.
pub fn distributor(nodes: usize) -> Distributor {
    Distributor::new(DistributorConfig::multilevel(nodes))
}

/// `Main::checksum` of a finished run, as text.
pub fn checksum_of(report: &ExecutionReport) -> String {
    format!("{:?}", report.final_statics.get("Main::checksum"))
}

/// What a correct execution of one op must report: the checksum of the centralized
/// run of the unrewritten program, and the deterministic counters of the first
/// distributed run (virtual time, traffic), which every later run must reproduce.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpRef {
    pub checksum: String,
    pub messages: u64,
    pub bytes: u64,
    pub virtual_us: f64,
    pub central_virtual_us: f64,
    pub insns: u64,
    pub heap_allocs: u64,
    pub remote_requests: u64,
    pub retries: u64,
    pub suppressed: u64,
    pub repaired: u64,
    pub lost: u64,
}

impl OpRef {
    /// Reference for an op from its first distributed `report` and the centralized
    /// run of the same program.
    pub fn new(report: &ExecutionReport, central: &ExecutionReport) -> OpRef {
        let faults = report.faults.unwrap_or_default();
        OpRef {
            checksum: checksum_of(central),
            messages: report.total_messages(),
            bytes: report.total_bytes(),
            virtual_us: report.virtual_time_us,
            central_virtual_us: central.virtual_time_us,
            insns: report.per_node.iter().map(|n| n.instructions).sum(),
            heap_allocs: report.per_node.iter().map(|n| n.allocations).sum(),
            remote_requests: report.per_node.iter().map(|n| n.remote_requests).sum(),
            retries: faults.retries,
            suppressed: faults.suppressed,
            repaired: faults.repaired,
            lost: faults.lost,
        }
    }

    /// `true` when `report` finished without error, computed the reference checksum
    /// and reproduced the deterministic counters exactly.
    pub fn accepts(&self, report: &ExecutionReport) -> bool {
        report.is_ok()
            && checksum_of(report) == self.checksum
            && report.total_messages() == self.messages
            && report.total_bytes() == self.bytes
            && report.virtual_time_us.to_bits() == self.virtual_us.to_bits()
    }
}

/// Golden values committed next to the benchmark.
pub struct Goldens {
    checksums: BTreeMap<String, String>,
    plans: BTreeMap<(String, usize), (u64, usize)>,
}

/// Outcome of a golden lookup.
#[derive(Debug, PartialEq)]
pub enum Golden {
    Match,
    /// The key is not listed (a generated program of a seed without goldens).
    Unlisted,
    Drift(String),
}

impl Goldens {
    /// The committed file.
    pub fn committed() -> Goldens {
        Goldens::parse(include_str!("expected_checksums.txt")).expect("golden file is well formed")
    }

    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut g = Goldens {
            checksums: BTreeMap::new(),
            plans: BTreeMap::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("line {}: '{line}'", n + 1);
            match fields.as_slice() {
                [] => {}
                [first, ..] if first.starts_with('#') => {}
                ["checksum", id, value] => {
                    g.checksums.insert(id.to_string(), value.to_string());
                }
                ["plan", id, nodes, edgecut, sites] => {
                    let key = (id.to_string(), nodes.parse().map_err(|_| bad())?);
                    let value = (
                        edgecut.parse().map_err(|_| bad())?,
                        sites.parse().map_err(|_| bad())?,
                    );
                    g.plans.insert(key, value);
                }
                _ => return Err(bad()),
            }
        }
        Ok(g)
    }

    pub fn checksum_line(id: &str, checksum: &str) -> String {
        format!("checksum {id} {checksum}")
    }

    pub fn plan_line(id: &str, nodes: usize, edgecut: u64, sites: usize) -> String {
        format!("plan {id} {nodes} {edgecut} {sites}")
    }

    /// Checks the centralized checksum of program `id`.
    pub fn check_checksum(&self, id: &str, checksum: &str) -> Golden {
        match self.checksums.get(id) {
            None => Golden::Unlisted,
            Some(want) if want == checksum => Golden::Match,
            Some(want) => Golden::Drift(format!("{id}: checksum {checksum}, golden {want}")),
        }
    }

    /// Checks the `(edgecut, rewritten sites)` pair of planning `id` over `nodes`.
    pub fn check_plan(&self, id: &str, nodes: usize, edgecut: u64, sites: usize) -> Golden {
        match self.plans.get(&(id.to_string(), nodes)) {
            None => Golden::Unlisted,
            Some(&want) if want == (edgecut, sites) => Golden::Match,
            Some(want) => Golden::Drift(format!(
                "{id} on {nodes} nodes: (edgecut, sites) ({edgecut}, {sites}), golden {want:?}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_choices_are_deterministic_and_seed_dependent() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        let order = |seed| {
            let mut v: Vec<usize> = (0..20).collect();
            Rng(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(sweep_program(3, 5), sweep_program(3, 5));
        assert_ne!(sweep_program(3, 5).seed, sweep_program(4, 5).seed);
    }

    #[test]
    fn program_ids_are_distinct() {
        let mut ids: Vec<String> = compute_programs()
            .iter()
            .chain(&message_programs())
            .chain(&serving_programs())
            .map(Prog::id)
            .collect();
        ids.push(Prog::Trivial.id());
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn goldens_parse_and_classify() {
        let g =
            Goldens::parse("# comment\n\nchecksum crypt-1 Some(Int(5))\nplan gen-x 4 141 2196\n")
                .expect("parses");
        assert_eq!(g.check_checksum("crypt-1", "Some(Int(5))"), Golden::Match);
        assert_eq!(
            g.check_checksum("crypt-2", "Some(Int(5))"),
            Golden::Unlisted
        );
        assert!(matches!(
            g.check_checksum("crypt-1", "Some(Int(6))"),
            Golden::Drift(_)
        ));
        assert_eq!(g.check_plan("gen-x", 4, 141, 2196), Golden::Match);
        assert_eq!(g.check_plan("gen-x", 2, 141, 2196), Golden::Unlisted);
        assert!(matches!(
            g.check_plan("gen-x", 4, 140, 2196),
            Golden::Drift(_)
        ));
        assert!(Goldens::parse("checksum only-two").is_err());
        assert!(Goldens::parse("plan p two 1 2").is_err());
        assert_eq!(
            Goldens::parse(&Goldens::plan_line("p", 2, 3, 4))
                .expect("round trip")
                .check_plan("p", 2, 3, 4),
            Golden::Match
        );
        // The committed file itself must parse.
        let _ = Goldens::committed();
    }

    #[test]
    fn the_trivial_program_runs() {
        let w = Prog::Trivial.build();
        let report = autodist_runtime::cluster::run_centralized(&w.program, 1.0);
        assert_eq!(checksum_of(&report), "Some(Int(1))");
    }
}
