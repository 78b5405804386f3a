//! # autodist-partition
//!
//! Multilevel, multi-constraint k-way graph partitioning — the role Metis plays in the
//! paper (Section 3), reimplemented from scratch:
//!
//! * [`graph`] — the weighted undirected graph representation (multi-constraint vertex
//!   weight vectors, integer edge weights) plus quality metrics (edge cut, balance).
//! * [`coarsen`] — heavy-edge-matching coarsening (the first phase of the multilevel
//!   scheme of Hendrickson/Leland and Karypis/Kumar).
//! * [`refine`] — Fiduccia–Mattheyses / Kernighan–Lin style boundary refinement under
//!   balance constraints.
//! * [`kway`] — the multilevel driver: recursive bisection with greedy graph growing
//!   initial partitions, projection and per-level refinement.
//! * [`naive`] — the baselines the paper actually used for its measurements
//!   ("we currently use a suboptimal naive partitioning"): round-robin and random
//!   assignment.
//!
//! The public entry point is [`partition`] with a [`PartitionConfig`].

pub mod coarsen;
pub mod graph;
pub mod kway;
pub mod naive;
pub mod refine;

pub use graph::{Graph, GraphBuilder};
pub use kway::multilevel_kway;
pub use naive::{random_partition, round_robin_partition};

/// Which partitioning algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Multilevel recursive bisection with FM refinement (the Metis-style default).
    Multilevel,
    /// Round-robin assignment by vertex index (the paper's "naive" partitioning).
    RoundRobin,
    /// Uniform random assignment (seeded).
    Random,
}

/// Configuration for [`partition`].
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of parts (0 is read as 1).
    pub nparts: usize,
    /// Algorithm to use.
    pub method: Method,
    /// Allowed imbalance: a part may weigh up to `(1 + balance_tolerance) * ideal`.
    pub balance_tolerance: f64,
    /// Stop coarsening when the graph has at most this many vertices.
    pub coarsen_to: usize,
    /// Number of refinement passes per level.
    pub refine_passes: usize,
    /// Seed for randomized choices (matching order, random partitioning).
    pub seed: u64,
}

/// Minimum number of non-empty parts (capped at `nparts` and at the vertex count). The
/// multilevel scheme legitimately minimises the cut by collapsing a small dependence
/// graph into one part — which yields a "distribution" with zero communication and no
/// offloading at all. A floor of 2 guarantees the pipeline actually places work on more
/// than one node.
const MIN_PARALLELISM: usize = 2;

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            nparts: 2,
            method: Method::Multilevel,
            balance_tolerance: 0.10,
            coarsen_to: 64,
            refine_passes: 4,
            seed: 0x5eed,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor for a k-way multilevel partitioning.
    pub fn kway(nparts: usize) -> Self {
        PartitionConfig {
            nparts,
            ..Default::default()
        }
    }

    /// Convenience constructor for the paper's naive round-robin partitioning.
    pub fn naive(nparts: usize) -> Self {
        PartitionConfig {
            nparts,
            method: Method::RoundRobin,
            ..Default::default()
        }
    }
}

/// The result of a partitioning run.
#[derive(Clone, Debug, PartialEq)]
pub struct Partitioning {
    /// Part index (0..nparts) for every vertex.
    pub assignment: Vec<usize>,
    /// Total weight of edges whose endpoints lie in different parts.
    pub edgecut: u64,
    /// Number of edges crossing parts (unweighted edge cut, Table 1's "EC" column).
    pub cut_edges: usize,
    /// Per-constraint imbalance: max part weight / ideal part weight.
    pub imbalance: Vec<f64>,
    /// Number of parts requested (at least 1).
    pub nparts: usize,
}

/// Partitions `graph` into `config.nparts` parts.
///
/// Empty graphs yield an empty assignment; `nparts <= 1` puts everything in part 0 and
/// reports one part. Afterwards the `MIN_PARALLELISM` floor is enforced.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Partitioning {
    let n = graph.vertex_count();
    let nparts = config.nparts.max(1);
    let mut assignment = if n == 0 {
        Vec::new()
    } else if nparts == 1 {
        vec![0; n]
    } else {
        match config.method {
            Method::Multilevel => kway::multilevel_kway(graph, config),
            Method::RoundRobin => naive::round_robin_partition(n, nparts),
            Method::Random => naive::random_partition(n, nparts, config.seed),
        }
    };
    enforce_min_parallelism(graph, &mut assignment, nparts);
    summarize(graph, assignment, nparts)
}

/// Ensures at least `min(MIN_PARALLELISM, nparts, n)` parts are non-empty by moving,
/// one at a time, the vertex whose migration adds the least edge weight to the cut
/// (choosing from parts that keep at least one vertex) into an empty part.
fn enforce_min_parallelism(graph: &Graph, assignment: &mut [usize], nparts: usize) {
    let n = assignment.len();
    let target = MIN_PARALLELISM.min(nparts).min(n);
    if target <= 1 {
        return;
    }
    loop {
        let mut part_sizes = vec![0usize; nparts];
        for &a in assignment.iter() {
            part_sizes[a] += 1;
        }
        let non_empty = part_sizes.iter().filter(|&&s| s > 0).count();
        if non_empty >= target {
            return;
        }
        let empty_part = part_sizes
            .iter()
            .position(|&s| s == 0)
            .expect("non_empty < nparts implies an empty part exists");
        // The cost of moving v out of its part is the weight of its edges into that
        // part (they become cut edges) minus the weight of edges already cut that
        // stay cut; edges into the empty destination are impossible. Prefer the
        // cheapest move, breaking ties towards lighter vertices.
        let candidate = (0..n)
            .filter(|&v| part_sizes[assignment[v]] > 1)
            .map(|v| {
                let internal: u64 = graph
                    .neighbours(v)
                    .filter(|&(u, _)| assignment[u] == assignment[v])
                    .map(|(_, w)| w)
                    .sum();
                (internal, graph.vertex_weight(v)[0], v)
            })
            .min();
        match candidate {
            Some((_, _, v)) => assignment[v] = empty_part,
            None => return, // every part has exactly one vertex; nothing to move
        }
    }
}

/// Repartitions `graph` with a warm start: runs a fresh partitioning *and*
/// evaluates the incumbent assignment `hint` under the (re-weighted) graph, then
/// returns whichever cuts less edge weight. The adaptive serving loop calls this
/// with the currently installed placement as the hint, which guarantees the
/// result is never worse than what is already running — a fresh multilevel run
/// on freshly re-weighted edges can legitimately lose to an incumbent that the
/// previous round already optimised.
///
/// A hint of the wrong length, or naming parts outside `0..nparts`, is ignored
/// (the fresh partitioning wins by default). The hint is re-subjected to the
/// `MIN_PARALLELISM` floor, so a collapsed incumbent cannot sneak past it.
pub fn repartition(graph: &Graph, config: &PartitionConfig, hint: &[usize]) -> Partitioning {
    let fresh = partition(graph, config);
    let nparts = fresh.nparts;
    let valid = hint.len() == graph.vertex_count() && hint.iter().all(|&p| p < nparts);
    if !valid {
        return fresh;
    }
    let mut warm = hint.to_vec();
    enforce_min_parallelism(graph, &mut warm, nparts);
    let warm = summarize(graph, warm, nparts);
    if warm.edgecut < fresh.edgecut {
        warm
    } else {
        fresh
    }
}

/// Computes the quality metrics for an existing assignment.
pub fn summarize(graph: &Graph, assignment: Vec<usize>, nparts: usize) -> Partitioning {
    let edgecut = graph.edge_cut(&assignment);
    let cut_edges = graph.cut_edge_count(&assignment);
    let imbalance = graph.imbalance(&assignment, nparts);
    Partitioning {
        assignment,
        edgecut,
        cut_edges,
        imbalance,
        nparts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Two dense clusters of 8 vertices joined by a single light edge: the multilevel
    /// partitioner must find the obvious cut.
    fn two_clusters() -> Graph {
        let mut b = GraphBuilder::new(16, 1);
        for v in 0..16 {
            b.set_weight(v, &[1]);
        }
        for c in 0..2 {
            let base = c * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_edge(base + i, base + j, 10);
                }
            }
        }
        b.add_edge(3, 12, 1);
        b.build()
    }

    #[test]
    fn multilevel_finds_the_natural_bisection() {
        let g = two_clusters();
        let p = partition(&g, &PartitionConfig::kway(2));
        assert_eq!(p.assignment.len(), 16);
        assert_eq!(p.edgecut, 1, "only the bridge edge should be cut");
        // Both clusters stay whole.
        for i in 0..8 {
            assert_eq!(p.assignment[i], p.assignment[0]);
            assert_eq!(p.assignment[8 + i], p.assignment[8]);
        }
        assert_ne!(p.assignment[0], p.assignment[8]);
    }

    #[test]
    fn multilevel_beats_round_robin_on_clustered_graphs() {
        let g = two_clusters();
        let ml = partition(&g, &PartitionConfig::kway(2));
        let rr = partition(&g, &PartitionConfig::naive(2));
        assert!(ml.edgecut < rr.edgecut);
    }

    #[test]
    fn all_methods_produce_valid_assignments() {
        let g = two_clusters();
        for method in [Method::Multilevel, Method::RoundRobin, Method::Random] {
            let cfg = PartitionConfig {
                nparts: 4,
                method,
                ..Default::default()
            };
            let p = partition(&g, &cfg);
            assert_eq!(p.assignment.len(), 16);
            assert!(p.assignment.iter().all(|&a| a < 4));
        }
    }

    #[test]
    fn zero_parts_is_one_part_for_every_method() {
        let g = two_clusters();
        for method in [Method::Multilevel, Method::RoundRobin, Method::Random] {
            let cfg = PartitionConfig {
                nparts: 0,
                method,
                ..Default::default()
            };
            let p = partition(&g, &cfg);
            assert_eq!(p.nparts, 1, "{method:?}");
            assert_eq!(p.assignment, vec![0; 16], "{method:?}");
            assert!(g.is_valid_assignment(&p.assignment, p.nparts), "{method:?}");
            assert_eq!(p.edgecut, 0);
            assert_eq!(repartition(&g, &cfg, &[0; 16]), p, "{method:?}");
        }
    }

    #[test]
    fn single_part_and_empty_graph_edge_cases() {
        let g = two_clusters();
        let p1 = partition(&g, &PartitionConfig::kway(1));
        assert!(p1.assignment.iter().all(|&a| a == 0));
        assert_eq!(p1.edgecut, 0);

        let empty = GraphBuilder::new(0, 1).build();
        let p0 = partition(&empty, &PartitionConfig::kway(2));
        assert!(p0.assignment.is_empty());
        assert_eq!(p0.edgecut, 0);
    }

    #[test]
    fn imbalance_stays_within_tolerance_on_uniform_graphs() {
        let g = two_clusters();
        let cfg = PartitionConfig::kway(2);
        let p = partition(&g, &cfg);
        for &imb in &p.imbalance {
            assert!(imb <= 1.0 + cfg.balance_tolerance + 1e-9, "imbalance {imb}");
        }
    }

    #[test]
    fn min_parallelism_prevents_fully_collapsed_partitions() {
        // A single dense clique: the cut-minimal 2-way partition puts everything in
        // one part (cut 0), which means no distribution at all. The min-parallelism
        // constraint must force a second non-empty part.
        let mut b = GraphBuilder::new(6, 1);
        for v in 0..6 {
            b.set_weight(v, &[1]);
            for u in (v + 1)..6 {
                b.add_edge(v, u, 5);
            }
        }
        let g = b.build();
        let p = partition(&g, &PartitionConfig::kway(2));
        let mut counts = [0usize; 2];
        for &a in &p.assignment {
            counts[a] += 1;
        }
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "both parts must be populated: {counts:?}"
        );
    }

    #[test]
    fn min_parallelism_is_capped_by_vertex_count() {
        let mut b = GraphBuilder::new(1, 1);
        b.set_weight(0, &[1]);
        let g = b.build();
        let p = partition(&g, &PartitionConfig::kway(4));
        assert_eq!(p.assignment, vec![0], "one vertex can only fill one part");
    }

    #[test]
    fn repartition_keeps_a_better_incumbent() {
        // Hand the optimal bisection of the two-cluster graph as the hint but
        // configure a naive method whose fresh run cuts far more: the warm start
        // must win.
        let g = two_clusters();
        let cfg = PartitionConfig::naive(2);
        let hint: Vec<usize> = (0..16).map(|v| v / 8).collect();
        let p = repartition(&g, &cfg, &hint);
        assert_eq!(p.edgecut, 1, "the incumbent bisection is kept");
        assert_eq!(p.assignment, hint);
    }

    #[test]
    fn repartition_abandons_a_worse_incumbent() {
        // An alternating incumbent cuts almost every clique edge; the fresh
        // multilevel run must replace it.
        let g = two_clusters();
        let cfg = PartitionConfig::kway(2);
        let hint: Vec<usize> = (0..16).map(|v| v % 2).collect();
        let p = repartition(&g, &cfg, &hint);
        assert_eq!(p.edgecut, 1, "the fresh run wins over the bad incumbent");
    }

    #[test]
    fn repartition_ignores_invalid_hints() {
        let g = two_clusters();
        let cfg = PartitionConfig::kway(2);
        let fresh = partition(&g, &cfg);
        // Wrong length.
        assert_eq!(repartition(&g, &cfg, &[0; 3]), fresh);
        // Part index out of range.
        let bad: Vec<usize> = (0..16).map(|_| 7).collect();
        assert_eq!(repartition(&g, &cfg, &bad), fresh);
    }

    #[test]
    fn repartition_re_enforces_min_parallelism_on_the_hint() {
        // A collapsed incumbent (everything on part 0) would have edgecut 0 and
        // always "win" — unless the floor is re-applied to it first.
        let g = two_clusters();
        let cfg = PartitionConfig::kway(2);
        let p = repartition(&g, &cfg, &[0; 16]);
        let mut counts = [0usize; 2];
        for &a in &p.assignment {
            counts[a] += 1;
        }
        assert!(counts[0] > 0 && counts[1] > 0, "{counts:?}");
    }

    #[test]
    fn four_way_partition_of_ring() {
        // A ring of 32 vertices: a 4-way partition should cut few edges (>= 4 by
        // necessity) and keep parts near 8 vertices each.
        let mut b = GraphBuilder::new(32, 1);
        for v in 0..32 {
            b.set_weight(v, &[1]);
            b.add_edge(v, (v + 1) % 32, 1);
        }
        let g = b.build();
        let p = partition(&g, &PartitionConfig::kway(4));
        assert!(p.edgecut >= 4);
        assert!(p.edgecut <= 10, "edgecut {} too high for a ring", p.edgecut);
        let mut counts = [0usize; 4];
        for &a in &p.assignment {
            counts[a] += 1;
        }
        for c in counts {
            assert!(c >= 4, "part sizes {counts:?} too skewed");
        }
    }
}
