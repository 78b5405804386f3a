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
/// reports one part. Otherwise the assignment is exactly what `config.method` produced:
/// like Metis, the partitioner applies no floor on the number of non-empty parts
/// afterwards. The multilevel method does not collapse a graph of two or more vertices
/// into one part anyway: every bisection's balance envelope
/// ([`refine::BisectionTargets`]) holds each side within `1 + balance_tolerance` of
/// its share and below the total weight.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Partitioning {
    let n = graph.vertex_count();
    let nparts = config.nparts.max(1);
    let assignment = if n == 0 {
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
    summarize(graph, assignment, nparts)
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
    fn balance_tolerance_splits_a_clique_the_cut_would_collapse() {
        // A single dense clique: the cut-minimal 2-way partition puts everything in
        // one part (cut 0), which means no distribution at all. The bisection's balance
        // envelope lets a side hold at most ceil(3 * 1.1) = 4 of the six vertices.
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
            counts.iter().all(|&c| (1..=4).contains(&c)),
            "both parts must be populated within the envelope: {counts:?}"
        );
    }

    #[test]
    fn one_vertex_fills_one_part_of_four() {
        let mut b = GraphBuilder::new(1, 1);
        b.set_weight(0, &[1]);
        let g = b.build();
        let p = partition(&g, &PartitionConfig::kway(4));
        assert_eq!(p.assignment, vec![0], "one vertex can only fill one part");
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
