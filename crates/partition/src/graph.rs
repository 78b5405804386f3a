//! The weighted undirected graph handed to the partitioner.
//!
//! Vertices carry multi-constraint weight vectors (the paper uses memory, CPU and
//! battery); edges carry a single integer weight (the communication volume if the
//! endpoints are separated). Storage is CSR (compressed sparse row) built once from an
//! edge list; parallel edges are merged by summing weights.

/// An immutable weighted undirected graph in CSR form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    /// Number of weight constraints per vertex (>= 1).
    pub ncon: usize,
    /// Vertex weights, `vertex_count * ncon`, row-major.
    pub vwgt: Vec<u64>,
    /// CSR row pointers (length `vertex_count + 1`).
    pub xadj: Vec<usize>,
    /// CSR column indices (neighbours).
    pub adjncy: Vec<usize>,
    /// CSR edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u64>,
}

impl Graph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.xadj.len().saturating_sub(1)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The weight vector of vertex `v`.
    pub fn vertex_weight(&self, v: usize) -> &[u64] {
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// Iterator over `(neighbour, edge_weight)` of vertex `v`.
    pub fn neighbours(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Sum of all vertex weights per constraint.
    pub fn total_weight(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.ncon];
        for v in 0..self.vertex_count() {
            for (c, t) in totals.iter_mut().enumerate() {
                *t += self.vertex_weight(v)[c];
            }
        }
        totals
    }

    /// Total weight of edges whose endpoints are in different parts.
    pub fn edge_cut(&self, assignment: &[usize]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.vertex_count() {
            for (u, w) in self.neighbours(v) {
                if u > v && assignment[u] != assignment[v] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Number of distinct edges crossing parts (the paper's "edgecut" column counts
    /// edges, not weights).
    pub fn cut_edge_count(&self, assignment: &[usize]) -> usize {
        let mut cut = 0usize;
        for v in 0..self.vertex_count() {
            for (u, _) in self.neighbours(v) {
                if u > v && assignment[u] != assignment[v] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Per-part, per-constraint weights.
    pub fn part_weights(&self, assignment: &[usize], nparts: usize) -> Vec<Vec<u64>> {
        let mut pw = vec![vec![0u64; self.ncon]; nparts];
        assert_eq!(
            assignment.len(),
            self.vertex_count(),
            "assignment must cover every vertex"
        );
        for (v, &p) in assignment.iter().enumerate() {
            for (acc, w) in pw[p].iter_mut().zip(self.vertex_weight(v)) {
                *acc += w;
            }
        }
        pw
    }

    /// Per-constraint imbalance: `max_p weight(p, c) / (total(c) / nparts)`.
    pub fn imbalance(&self, assignment: &[usize], nparts: usize) -> Vec<f64> {
        if self.vertex_count() == 0 || nparts == 0 {
            return vec![1.0; self.ncon];
        }
        let totals = self.total_weight();
        let pw = self.part_weights(assignment, nparts);
        (0..self.ncon)
            .map(|c| {
                let ideal = totals[c] as f64 / nparts as f64;
                if ideal == 0.0 {
                    1.0
                } else {
                    pw.iter().map(|p| p[c] as f64).fold(0.0, f64::max) / ideal
                }
            })
            .collect()
    }

    /// `true` if every vertex's part index is below `nparts`.
    pub fn is_valid_assignment(&self, assignment: &[usize], nparts: usize) -> bool {
        assignment.len() == self.vertex_count() && assignment.iter().all(|&a| a < nparts)
    }
}

/// Incrementally builds a [`Graph`] from vertices and undirected edges.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    ncon: usize,
    /// Vertex weights, `vertex_count * ncon`, row-major.
    vwgt: Vec<u64>,
    /// Every `add_edge` that was not a self loop, as `(min, max, weight)`.
    edges: Vec<(usize, usize, u64)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices and `ncon` weight constraints.
    /// All vertex weights default to 1.
    pub fn new(n: usize, ncon: usize) -> Self {
        assert!(ncon >= 1, "at least one constraint required");
        GraphBuilder {
            ncon,
            vwgt: vec![1; n * ncon],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vwgt.len() / self.ncon
    }

    /// Sets the weight vector of vertex `v` (must have `ncon` entries).
    pub fn set_weight(&mut self, v: usize, w: &[u64]) -> &mut Self {
        assert_eq!(w.len(), self.ncon, "weight vector length mismatch");
        self.vwgt[v * self.ncon..(v + 1) * self.ncon].copy_from_slice(w);
        self
    }

    /// Adds (or accumulates) an undirected edge. Self loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize, w: u64) -> &mut Self {
        if a != b {
            self.edges.push((a.min(b), a.max(b), w));
        }
        self
    }

    /// Finalises the CSR representation: parallel edges merged into one whose weight is
    /// their sum, every row listing its neighbours in ascending order (heavy-edge
    /// matching breaks ties by that order).
    pub fn build(&self) -> Graph {
        let n = self.vertex_count();
        let mut edges = self.edges.clone();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        edges.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
        let mut xadj = vec![0usize; n + 1];
        for &(a, b, _) in &edges {
            xadj[a + 1] += 1;
            xadj[b + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        // In `(a, b)` order, row `v` receives its lower neighbours (edges `(u, v)`)
        // ascending, then its higher ones (edges `(v, u)`) ascending.
        let mut next = xadj.clone();
        let mut adjncy = vec![0; xadj[n]];
        let mut adjwgt = vec![0; xadj[n]];
        for &(a, b, w) in &edges {
            for (from, to) in [(a, b), (b, a)] {
                adjncy[next[from]] = to;
                adjwgt[next[from]] = w;
                next[from] += 1;
            }
        }
        Graph {
            ncon: self.ncon,
            vwgt: self.vwgt.clone(),
            xadj,
            adjncy,
            adjwgt,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// The builder before it was CSR-native: a `BTreeMap` keyed by `(min, max)`
    /// accumulates the edges, one `Vec` per vertex holds the rows. `kway::tests` holds
    /// [`GraphBuilder::build`] to it.
    pub(crate) struct OracleBuilder {
        ncon: usize,
        weights: Vec<Vec<u64>>,
        edges: BTreeMap<(usize, usize), u64>,
    }

    impl OracleBuilder {
        pub(crate) fn new(n: usize, ncon: usize) -> Self {
            OracleBuilder {
                ncon,
                weights: vec![vec![1; ncon]; n],
                edges: BTreeMap::new(),
            }
        }

        pub(crate) fn set_weight(&mut self, v: usize, w: &[u64]) {
            self.weights[v] = w.to_vec();
        }

        pub(crate) fn add_edge(&mut self, a: usize, b: usize, w: u64) {
            if a != b {
                *self.edges.entry((a.min(b), a.max(b))).or_insert(0) += w;
            }
        }

        pub(crate) fn build(&self) -> Graph {
            let n = self.weights.len();
            let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
            for (&(a, b), &w) in &self.edges {
                adj[a].push((b, w));
                adj[b].push((a, w));
            }
            let mut xadj = vec![0];
            let mut adjncy = Vec::new();
            let mut adjwgt = Vec::new();
            for list in &adj {
                for &(u, w) in list {
                    adjncy.push(u);
                    adjwgt.push(w);
                }
                xadj.push(adjncy.len());
            }
            Graph {
                ncon: self.ncon,
                vwgt: self.weights.iter().flatten().copied().collect(),
                xadj,
                adjncy,
                adjwgt,
            }
        }
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3, 2);
        b.set_weight(0, &[1, 10]);
        b.set_weight(1, &[2, 20]);
        b.set_weight(2, &[3, 30]);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 7);
        b.add_edge(2, 0, 9);
        b.build()
    }

    #[test]
    fn csr_structure_is_consistent() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.vertex_weight(1), &[2, 20]);
        let n0: Vec<(usize, u64)> = g.neighbours(0).collect();
        assert!(n0.contains(&(1, 5)));
        assert!(n0.contains(&(2, 9)));
    }

    #[test]
    fn parallel_edges_are_merged() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 0, 4);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbours(0).next(), Some((1, 7)));
    }

    #[test]
    fn rows_list_neighbours_in_ascending_order() {
        let mut b = GraphBuilder::new(5, 1);
        b.add_edge(2, 4, 1);
        b.add_edge(2, 0, 2);
        b.add_edge(3, 2, 3);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 5);
        let g = b.build();
        let row: Vec<(usize, u64)> = g.neighbours(2).collect();
        assert_eq!(row, vec![(0, 7), (1, 0), (3, 3), (4, 1)]);
        assert_eq!(g.xadj, vec![0, 1, 2, 6, 7, 8]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 0, 3);
        b.add_edge(0, 1, 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_cut_and_counts() {
        let g = triangle();
        // All in one part: no cut.
        assert_eq!(g.edge_cut(&[0, 0, 0]), 0);
        assert_eq!(g.cut_edge_count(&[0, 0, 0]), 0);
        // Vertex 2 alone: edges (1,2) and (2,0) cut.
        assert_eq!(g.edge_cut(&[0, 0, 1]), 16);
        assert_eq!(g.cut_edge_count(&[0, 0, 1]), 2);
    }

    #[test]
    fn part_weights_and_imbalance() {
        let g = triangle();
        let pw = g.part_weights(&[0, 0, 1], 2);
        assert_eq!(pw[0], vec![3, 30]);
        assert_eq!(pw[1], vec![3, 30]);
        let imb = g.imbalance(&[0, 0, 1], 2);
        // Both constraints perfectly balanced.
        assert!((imb[0] - 1.0).abs() < 1e-9);
        assert!((imb[1] - 1.0).abs() < 1e-9);
        let imb_bad = g.imbalance(&[0, 0, 0], 2);
        assert!((imb_bad[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn total_weight_sums_constraints_independently() {
        let g = triangle();
        assert_eq!(g.total_weight(), vec![6, 60]);
    }

    #[test]
    fn validity_check() {
        let g = triangle();
        assert!(g.is_valid_assignment(&[0, 1, 1], 2));
        assert!(!g.is_valid_assignment(&[0, 1, 2], 2));
        assert!(!g.is_valid_assignment(&[0, 1], 2));
    }

    #[test]
    #[should_panic(expected = "weight vector length mismatch")]
    fn wrong_weight_arity_panics() {
        let mut b = GraphBuilder::new(1, 2);
        b.set_weight(0, &[1]);
    }
}
