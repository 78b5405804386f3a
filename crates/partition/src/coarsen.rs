//! Heavy-edge-matching coarsening.
//!
//! The first phase of the multilevel scheme: vertices are visited in a pseudo-random
//! order and matched with the unmatched neighbour connected by the heaviest edge
//! (heavy-edge matching, HEM). Matched pairs collapse into a single coarse vertex whose
//! weight vector is the sum of its constituents; edges between coarse vertices
//! accumulate the fine edge weights.

use crate::graph::Graph;

/// One level of the coarsening hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseLevel {
    /// The coarser graph.
    pub graph: Graph,
    /// For every fine vertex, the coarse vertex it collapsed into.
    pub map: Vec<usize>,
}

/// A deterministic pseudo-random permutation of `0..n` derived from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let j = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Performs one round of heavy-edge matching.
///
/// Returns `None` when the graph no longer shrinks meaningfully (fewer than ~10% of the
/// vertices can be matched), which signals the driver to stop coarsening.
pub fn coarsen_once(graph: &Graph, seed: u64) -> Option<CoarseLevel> {
    let n = graph.vertex_count();
    if n < 2 {
        return None;
    }
    const UNMATCHED: usize = usize::MAX;
    let mut match_of = vec![UNMATCHED; n];
    let order = permutation(n, seed);
    let mut matched_pairs = 0usize;

    for &v in &order {
        if match_of[v] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(usize, u64)> = None;
        for (u, w) in graph.neighbours(v) {
            if match_of[u] == UNMATCHED && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                match_of[v] = u;
                match_of[u] = v;
                matched_pairs += 1;
            }
            None => match_of[v] = v,
        }
    }

    if matched_pairs * 10 < n {
        return None; // not shrinking enough to be worth another level
    }

    // Assign coarse ids.
    let mut map = vec![UNMATCHED; n];
    let mut next = 0usize;
    for v in 0..n {
        if map[v] != UNMATCHED {
            continue;
        }
        let m = match_of[v];
        map[v] = next;
        if m != v {
            map[m] = next;
        }
        next += 1;
    }

    // Build the coarse graph.
    let ncon = graph.ncon;
    let mut coarse = Graph {
        ncon,
        vwgt: vec![0; next * ncon],
        xadj: Vec::with_capacity(next + 1),
        adjncy: Vec::with_capacity(graph.adjncy.len()),
        adjwgt: Vec::with_capacity(graph.adjncy.len()),
    };
    coarse.xadj.push(0);
    // Coarse rows in id order: a coarse vertex is built when its lower constituent is
    // reached. The row accumulates in `row`, where `slot[cu]` is the position of
    // coarse neighbour `cu` (a stale slot points past the row or at another neighbour).
    let mut row: Vec<(usize, u64)> = Vec::new();
    let mut slot = vec![usize::MAX; next];
    for v in 0..n {
        let m = match_of[v];
        if m < v {
            continue;
        }
        let cv = map[v];
        row.clear();
        for fine in std::iter::once(v).chain((m != v).then_some(m)) {
            let weights = &mut coarse.vwgt[cv * ncon..(cv + 1) * ncon];
            for (acc, w) in weights.iter_mut().zip(graph.vertex_weight(fine)) {
                *acc += w;
            }
            for (u, w) in graph.neighbours(fine) {
                let cu = map[u];
                if cu == cv {
                    continue;
                }
                match row.get_mut(slot[cu]) {
                    Some((at, acc)) if *at == cu => *acc += w,
                    _ => {
                        slot[cu] = row.len();
                        row.push((cu, w));
                    }
                }
            }
        }
        row.sort_unstable_by_key(|&(cu, _)| cu);
        for &(cu, w) in &row {
            coarse.adjncy.push(cu);
            coarse.adjwgt.push(w);
        }
        coarse.xadj.push(coarse.adjncy.len());
    }
    Some(CoarseLevel { graph: coarse, map })
}

/// Coarsens repeatedly until the graph has at most `coarsen_to` vertices or stops
/// shrinking. Returns the hierarchy from finest to coarsest (may be empty).
pub fn coarsen_hierarchy(graph: &Graph, coarsen_to: usize, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let current = levels.last().map_or(graph, |l| &l.graph);
        if current.vertex_count() <= coarsen_to.max(2) {
            break;
        }
        match coarsen_once(current, seed.wrapping_add(levels.len() as u64)) {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    levels
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::tests::OracleBuilder;
    use crate::graph::GraphBuilder;

    /// The coarse-graph build before the dense accumulator: every fine edge between two
    /// coarse vertices goes through the `BTreeMap` builder. The matching did not change,
    /// so the map is `coarsen_once`'s.
    pub(crate) fn oracle_coarsen_once(graph: &Graph, seed: u64) -> Option<CoarseLevel> {
        let map = coarsen_once(graph, seed)?.map;
        let next = map.iter().max().map_or(0, |&cv| cv + 1);
        let n = graph.vertex_count();
        let mut builder = OracleBuilder::new(next, graph.ncon);
        let mut weights = vec![vec![0u64; graph.ncon]; next];
        for v in 0..n {
            for (acc, w) in weights[map[v]].iter_mut().zip(graph.vertex_weight(v)) {
                *acc += w;
            }
        }
        for (cv, w) in weights.iter().enumerate() {
            builder.set_weight(cv, w);
        }
        for v in 0..n {
            for (u, w) in graph.neighbours(v) {
                if u > v && map[u] != map[v] {
                    builder.add_edge(map[v], map[u], w);
                }
            }
        }
        Some(CoarseLevel {
            graph: builder.build(),
            map,
        })
    }

    /// The hierarchy before it borrowed its levels: each one cloned to coarsen again.
    pub(crate) fn oracle_coarsen_hierarchy(
        graph: &Graph,
        coarsen_to: usize,
        seed: u64,
    ) -> Vec<CoarseLevel> {
        let mut levels = Vec::new();
        let mut current = graph.clone();
        let mut round = 0u64;
        while current.vertex_count() > coarsen_to.max(2) {
            match oracle_coarsen_once(&current, seed.wrapping_add(round)) {
                Some(level) => {
                    current = level.graph.clone();
                    levels.push(level);
                    round += 1;
                }
                None => break,
            }
        }
        levels
    }

    fn grid(n: usize) -> Graph {
        // n x n grid graph with unit weights.
        let mut b = GraphBuilder::new(n * n, 1);
        for i in 0..n {
            for j in 0..n {
                let v = i * n + j;
                if j + 1 < n {
                    b.add_edge(v, v + 1, 1);
                }
                if i + 1 < n {
                    b.add_edge(v, v + n, 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn coarsening_shrinks_and_preserves_total_weight() {
        let g = grid(8);
        let level = coarsen_once(&g, 7).expect("coarsens");
        assert!(level.graph.vertex_count() < g.vertex_count());
        assert!(level.graph.vertex_count() >= g.vertex_count() / 2);
        assert_eq!(level.graph.total_weight(), g.total_weight());
        // The map covers every fine vertex and targets valid coarse vertices.
        assert_eq!(level.map.len(), g.vertex_count());
        assert!(level.map.iter().all(|&cv| cv < level.graph.vertex_count()));
    }

    #[test]
    fn heavy_edges_are_preferred() {
        // 0-1 heavy, 1-2 light: 0 and 1 should be merged.
        let mut b = GraphBuilder::new(4, 1);
        b.add_edge(0, 1, 100);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 100);
        let g = b.build();
        let level = coarsen_once(&g, 1).expect("coarsens");
        assert_eq!(level.map[0], level.map[1]);
        assert_eq!(level.map[2], level.map[3]);
        assert_ne!(level.map[0], level.map[2]);
    }

    #[test]
    fn hierarchy_reaches_target_size() {
        let g = grid(10);
        let levels = coarsen_hierarchy(&g, 12, 3);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.vertex_count() <= 25, "close to the target size");
        // Monotone shrinking.
        let mut prev = g.vertex_count();
        for l in &levels {
            assert!(l.graph.vertex_count() < prev);
            prev = l.graph.vertex_count();
        }
    }

    #[test]
    fn tiny_graphs_do_not_coarsen() {
        let g = GraphBuilder::new(1, 1).build();
        assert!(coarsen_once(&g, 1).is_none());
        let g2 = GraphBuilder::new(0, 1).build();
        assert!(coarsen_once(&g2, 1).is_none());
    }

    #[test]
    fn edgeless_graph_stops_coarsening() {
        let g = GraphBuilder::new(50, 1).build();
        // No edges => no matches => None.
        assert!(coarsen_once(&g, 1).is_none());
        assert!(coarsen_hierarchy(&g, 10, 1).is_empty());
    }
}
