//! Boundary refinement of bisections (Fiduccia–Mattheyses / Kernighan–Lin style).
//!
//! Given a two-way assignment, each pass repeatedly moves the highest-gain movable
//! vertex to the other side (where *gain* is the reduction in cut weight), locks it,
//! and finally rolls back to the best prefix of moves seen during the pass. Moves that
//! would push the receiving side above its allowed weight (per constraint) are skipped,
//! which is how the multi-constraint balance of the paper's resource model is enforced.
//!
//! **Selection rule.** Each move is the unlocked vertex that fits its receiving side
//! with the highest gain, the lowest index on ties — "first feasible" in index order
//! among the best. The rule is what fixes a partition, so it is an invariant: the
//! rescanning FM it replaced lives on as `tests::oracle_fm_refine_bisection`, and the
//! proptest in `kway::tests` holds [`fm_refine_bisection`] to it, cut and assignment,
//! on random graphs. How the move is found is free: a pass keeps one
//! gain per vertex (locked ones `MASKED`) and updates only the moved vertex's
//! neighbours, by ±2w; a move is one `argmax` scan of the gains that asks about balance
//! only for a vertex beating every fitting one before it (so when the top move fits,
//! only a handful are asked); the cut is tracked, not recomputed.

use crate::graph::Graph;

/// Balance envelope for a bisection: per side, per constraint, the maximum allowed
/// weight.
#[derive(Clone, Debug)]
pub struct BisectionTargets {
    /// `allowed[side][constraint]`.
    pub allowed: Vec<Vec<u64>>,
}

impl BisectionTargets {
    /// Builds targets where side 0 gets `frac` of the total weight and side 1 the rest,
    /// each inflated by `tolerance`. Neither side is ever allowed to absorb the entire
    /// graph: distribution is being *requested*, so a bisection must actually bisect
    /// (this mirrors the paper's resource-constraint motivation — a single node cannot
    /// host everything).
    pub fn from_fraction(graph: &Graph, frac: f64, tolerance: f64) -> Self {
        let totals = graph.total_weight();
        let mk = |f: f64| {
            totals
                .iter()
                .map(|&t| {
                    let inflated = ((t as f64) * f * (1.0 + tolerance)).ceil() as u64;
                    let cap = if t >= 2 { t - 1 } else { t };
                    inflated.clamp(1, cap.max(1))
                })
                .collect::<Vec<u64>>()
        };
        BisectionTargets {
            allowed: vec![mk(frac), mk(1.0 - frac)],
        }
    }
}

/// The gain (cut-weight reduction) of moving `v` to the other side.
pub fn move_gain(graph: &Graph, assignment: &[usize], v: usize) -> i64 {
    let mut internal = 0i64;
    let mut external = 0i64;
    for (u, w) in graph.neighbours(v) {
        if assignment[u] == assignment[v] {
            internal += w as i64;
        } else {
            external += w as i64;
        }
    }
    external - internal
}

/// Marks a vertex that may not move (locked for the rest of the pass, or already in
/// the grown region) in a gain array; no real gain or connectivity comes near it.
pub(crate) const MASKED: i64 = i64::MIN;

/// The first index holding the largest key that `accept` accepts — the highest gain,
/// lowest index on ties, among the admissible. `accept` is asked only about a key
/// that beats every accepted key before it, so a scan whose top key is accepted asks
/// a handful of times. `None` when no unmasked key is accepted.
pub(crate) fn argmax(keys: &[i64], mut accept: impl FnMut(usize) -> bool) -> Option<usize> {
    let (mut best, mut best_key) = (None, MASKED);
    for (v, &k) in keys.iter().enumerate() {
        if k > best_key && accept(v) {
            (best, best_key) = (Some(v), k);
        }
    }
    best
}

/// Runs up to `passes` FM passes over a bisection, improving `assignment` in place.
/// Returns the final cut weight, and whether the last pass ran improved nothing — then
/// `assignment` is a fixed point: a pass from it replays that pass and moves nothing.
pub fn fm_refine_bisection(
    graph: &Graph,
    assignment: &mut [usize],
    targets: &BisectionTargets,
    passes: usize,
) -> (u64, bool) {
    let n = graph.vertex_count();
    let ncon = graph.ncon;
    let allowed = targets.allowed.concat();
    let mut best_cut = graph.edge_cut(assignment);
    let mut gain = vec![0i64; n];
    // `room[side * ncon + c]`: what `side` may still take of constraint `c` (negative
    // when the side is already over its envelope).
    let mut room = vec![0i64; 2 * ncon];
    let mut moves: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..passes {
        for (r, &a) in room.iter_mut().zip(&allowed) {
            *r = a as i64;
        }
        for v in 0..n {
            gain[v] = move_gain(graph, assignment, v);
            let side = assignment[v] * ncon;
            let rooms = room[side..side + ncon].iter_mut();
            for (r, &w) in rooms.zip(graph.vertex_weight(v)) {
                *r -= w as i64;
            }
        }
        moves.clear();
        let mut cur_cut = best_cut as i64;
        let mut best_prefix_cut = best_cut as i64;
        let mut best_prefix_len = 0usize;

        // Every vertex is unlocked until it moves, so the pass ends after `n` moves.
        while moves.len() < n {
            // The best unlocked move that keeps its receiving side inside the envelope.
            let fits = |v: usize| {
                let to = &room[(1 - assignment[v]) * ncon..][..ncon];
                to.iter()
                    .zip(graph.vertex_weight(v))
                    .all(|(&r, &w)| w as i64 <= r)
            };
            let Some(v) = argmax(&gain, fits) else { break };
            cur_cut -= gain[v];
            gain[v] = MASKED;
            let (from, to) = (assignment[v], 1 - assignment[v]);
            for (c, &w) in graph.vertex_weight(v).iter().enumerate() {
                room[from * ncon + c] += w as i64;
                room[to * ncon + c] -= w as i64;
            }
            assignment[v] = to;
            // An edge to the side `v` joined stops being cut: its other end gains less
            // by moving. An edge to the side `v` left starts being cut.
            for (u, w) in graph.neighbours(v) {
                if gain[u] != MASKED {
                    let delta = 2 * w as i64;
                    gain[u] += if assignment[u] == to { -delta } else { delta };
                }
            }
            moves.push(v);
            if cur_cut < best_prefix_cut {
                best_prefix_cut = cur_cut;
                best_prefix_len = moves.len();
            }
        }

        // Roll back to the best prefix. Its cut is `best_prefix_cut`: every gain was
        // exact when its move was made.
        for &v in &moves[best_prefix_len..] {
            assignment[v] = 1 - assignment[v];
        }
        if best_prefix_len == 0 {
            return (best_cut, true); // no improvement this pass — converged
        }
        best_cut = best_prefix_cut as u64;
    }
    (best_cut, false)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// FM before it kept its gains: every move rescans every unlocked vertex, checks
    /// its balance and recomputes its gain from its neighbour list; every pass
    /// recomputes the cut. The definition of the selection rule.
    pub(crate) fn oracle_fm_refine_bisection(
        graph: &Graph,
        assignment: &mut [usize],
        targets: &BisectionTargets,
        passes: usize,
    ) -> u64 {
        let n = graph.vertex_count();
        if n == 0 {
            return 0;
        }
        let ncon = graph.ncon;
        let mut best_cut = graph.edge_cut(assignment);

        for _ in 0..passes {
            let mut part_weights = graph.part_weights(assignment, 2);
            let mut locked = vec![false; n];
            let mut moves: Vec<usize> = Vec::new();
            let mut cur_cut = best_cut as i64;
            let mut best_prefix_cut = best_cut as i64;
            let mut best_prefix_len = 0usize;

            loop {
                let mut best_v: Option<(usize, i64)> = None;
                for v in 0..n {
                    if locked[v] {
                        continue;
                    }
                    let to = 1 - assignment[v];
                    let fits = (0..ncon).all(|c| {
                        part_weights[to][c] + graph.vertex_weight(v)[c] <= targets.allowed[to][c]
                    });
                    if !fits {
                        continue;
                    }
                    let g = move_gain(graph, assignment, v);
                    match best_v {
                        Some((_, bg)) if bg >= g => {}
                        _ => best_v = Some((v, g)),
                    }
                }
                let Some((v, gain)) = best_v else { break };
                let from = assignment[v];
                let to = 1 - from;
                for (c, w) in graph.vertex_weight(v).iter().enumerate() {
                    part_weights[from][c] -= w;
                    part_weights[to][c] += w;
                }
                assignment[v] = to;
                locked[v] = true;
                moves.push(v);
                cur_cut -= gain;
                if cur_cut < best_prefix_cut {
                    best_prefix_cut = cur_cut;
                    best_prefix_len = moves.len();
                }
                if moves.len() == n {
                    break;
                }
            }

            for &v in moves.iter().skip(best_prefix_len) {
                assignment[v] = 1 - assignment[v];
            }
            let new_cut = graph.edge_cut(assignment);
            if new_cut >= best_cut {
                best_cut = new_cut.min(best_cut);
                break;
            }
            best_cut = new_cut;
        }
        best_cut
    }

    #[test]
    fn argmax_takes_the_lowest_index_of_the_largest_accepted_key() {
        let any = |_| true;
        assert_eq!(argmax(&[3, 7, 7, MASKED, 1], any), Some(1));
        assert_eq!(argmax(&[MASKED, -4, MASKED, -4], any), Some(1));
        assert_eq!(argmax(&[MASKED, MASKED], any), None);
        assert_eq!(argmax(&[], any), None);
        // Vertex 1 is refused: the best admissible is the first 7 after it.
        assert_eq!(argmax(&[3, 9, 7, 7], |v| v != 1), Some(2));
        assert_eq!(argmax(&[3, 9], |_| false), None);
        // Asked only about keys that beat the best accepted one: the first 3, 9, the
        // first 7.
        let mut asked = Vec::new();
        let best = argmax(&[3, 2, 9, 3, 7, 7], |v| {
            asked.push(v);
            v != 2
        });
        assert_eq!((best, asked), (Some(4), vec![0, 2, 4]));
    }

    /// Two 4-cliques joined by one edge, with a deliberately bad initial split.
    fn cliques_with_bad_split() -> (Graph, Vec<usize>) {
        let mut b = GraphBuilder::new(8, 1);
        for c in 0..2 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, 5);
                }
            }
        }
        b.add_edge(0, 4, 1);
        let g = b.build();
        // Swap one vertex from each clique: cut = 3*5 + 3*5 + ... definitely bad.
        let assignment = vec![0, 0, 0, 1, 1, 1, 1, 0];
        (g, assignment)
    }

    #[test]
    fn refinement_recovers_the_natural_cut() {
        let (g, mut a) = cliques_with_bad_split();
        let targets = BisectionTargets::from_fraction(&g, 0.5, 0.1);
        let (cut, _) = fm_refine_bisection(&g, &mut a, &targets, 8);
        assert_eq!(cut, 1, "refinement should find the single bridge cut");
        assert_eq!(g.edge_cut(&a), 1);
        // The parts are the two cliques.
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], a[2]);
        assert_eq!(a[0], a[3]);
        assert_ne!(a[0], a[4]);
    }

    #[test]
    fn refinement_never_worsens_the_cut() {
        let (g, a0) = cliques_with_bad_split();
        let before = g.edge_cut(&a0);
        let mut a = a0.clone();
        let targets = BisectionTargets::from_fraction(&g, 0.5, 0.1);
        let (after, _) = fm_refine_bisection(&g, &mut a, &targets, 3);
        assert!(after <= before);
    }

    #[test]
    fn balance_envelope_is_respected() {
        // A star: center 0 with 7 leaves. Unbalanced targets would want everything on
        // one side; the envelope must prevent one side from absorbing all vertices.
        let mut b = GraphBuilder::new(8, 1);
        for v in 1..8 {
            b.add_edge(0, v, 1);
        }
        let g = b.build();
        let mut a: Vec<usize> = (0..8).map(|v| v % 2).collect();
        let targets = BisectionTargets::from_fraction(&g, 0.5, 0.2);
        fm_refine_bisection(&g, &mut a, &targets, 4);
        let pw = g.part_weights(&a, 2);
        assert!(pw[0][0] <= targets.allowed[0][0]);
        assert!(pw[1][0] <= targets.allowed[1][0]);
        assert!(pw[0][0] > 0 && pw[1][0] > 0, "neither side empties out");
    }

    #[test]
    fn move_gain_matches_definition() {
        let mut b = GraphBuilder::new(3, 1);
        b.add_edge(0, 1, 4);
        b.add_edge(0, 2, 6);
        let g = b.build();
        let a = vec![0, 0, 1];
        // Moving 0 to part 1: external (0-2,w6) becomes internal, internal (0-1,w4)
        // becomes external => gain = 6 - 4 = 2.
        assert_eq!(move_gain(&g, &a, 0), 2);
        // Moving 2: external 6 - internal 0 = 6.
        assert_eq!(move_gain(&g, &a, 2), 6);
    }

    #[test]
    fn multi_constraint_balance_is_enforced_per_constraint() {
        // Vertices heavy in constraint 1 must not all end up on one side even if that
        // would improve the cut.
        let mut b = GraphBuilder::new(4, 2);
        b.set_weight(0, &[1, 100]);
        b.set_weight(1, &[1, 100]);
        b.set_weight(2, &[1, 1]);
        b.set_weight(3, &[1, 1]);
        b.add_edge(0, 1, 50);
        b.add_edge(2, 3, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let mut a = vec![0, 1, 0, 1];
        let targets = BisectionTargets::from_fraction(&g, 0.5, 0.25);
        fm_refine_bisection(&g, &mut a, &targets, 4);
        let pw = g.part_weights(&a, 2);
        for (weights, allowed) in pw.iter().zip(&targets.allowed) {
            for (w, cap) in weights.iter().zip(allowed) {
                assert!(w <= cap);
            }
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = GraphBuilder::new(0, 1).build();
        let targets = BisectionTargets::from_fraction(&g, 0.5, 0.1);
        let mut a: Vec<usize> = vec![];
        assert_eq!(fm_refine_bisection(&g, &mut a, &targets, 2).0, 0);
    }
}
