//! Control-flow utilities over bytecode bodies.
//!
//! The dependence analyses need two things from control flow: basic-block boundaries
//! (shared with the bytecode→quad lowering) and a conservative "is this program point
//! inside a loop" predicate, which drives the paper's distinction between single-instance
//! allocation sites and `*`-prefixed summary sites ("created inside a control structure").

use crate::bytecode::Insn;

/// Basic-block structure of a bytecode method body. Successors and predecessors are
/// kept in CSR form: block `b`'s row is `succ[succ_at[b]..succ_at[b + 1]]` (and the
/// same for `pred`), read through [`BytecodeCfg::succs`] and [`BytecodeCfg::preds`].
#[derive(Clone, Debug)]
pub struct BytecodeCfg {
    /// Sorted start pcs of each block.
    pub leaders: Vec<usize>,
    /// For each block (indexed as in `leaders`), the pcs `[start, end)` it covers.
    pub ranges: Vec<(usize, usize)>,
    succ_at: Vec<usize>,
    succ: Vec<usize>,
    pred_at: Vec<usize>,
    pred: Vec<usize>,
}

impl BytecodeCfg {
    /// Builds the CFG of a bytecode body.
    pub fn build(body: &[Insn]) -> Self {
        const NONE: u32 = u32::MAX;
        let n = body.len();
        // `block_at[pc]` is the block starting at `pc`, or `NONE`. A branch may name
        // one past the end (an unverified body even further), so the table grows to
        // the largest target.
        let mut block_at = vec![NONE; n + 1];
        let mut lead = |pc: usize| {
            if pc >= block_at.len() {
                block_at.resize(pc + 1, NONE);
            }
            block_at[pc] = 0;
        };
        if n > 0 {
            lead(0);
        }
        for (pc, insn) in body.iter().enumerate() {
            if let Some(t) = insn.branch_target() {
                lead(t);
                if pc + 1 < n {
                    lead(pc + 1);
                }
            } else if insn.is_terminator() && pc + 1 < n {
                lead(pc + 1);
            }
        }
        let mut leaders = Vec::new();
        for (pc, b) in block_at.iter_mut().enumerate() {
            if *b != NONE {
                *b = leaders.len() as u32;
                leaders.push(pc);
            }
        }
        let blocks = leaders.len();
        let ranges: Vec<(usize, usize)> = (0..blocks)
            .map(|i| (leaders[i], leaders.get(i + 1).copied().unwrap_or(n)))
            .collect();
        let mut succ_at = Vec::with_capacity(blocks + 1);
        let mut succ = Vec::with_capacity(2 * blocks);
        succ_at.push(0);
        for &(start, end) in &ranges {
            if start != end {
                let last = &body[end - 1];
                if let Some(t) = last.branch_target() {
                    succ.push(block_at[t] as usize);
                }
                if !last.is_terminator() && end < n {
                    succ.push(block_at[end] as usize);
                }
            }
            succ_at.push(succ.len());
        }
        // Predecessors by counting sort: `pred_at[s]` first counts up to the end of
        // `s`'s row, then the blocks, walked backwards, fill each row from its end, so
        // every row lists its predecessors in block order.
        let mut pred_at = vec![0; blocks + 1];
        for &s in &succ {
            pred_at[s] += 1;
        }
        let mut total = 0;
        for at in &mut pred_at {
            total += *at;
            *at = total;
        }
        let mut pred = vec![0; succ.len()];
        for b in (0..blocks).rev() {
            for &s in succ[succ_at[b]..succ_at[b + 1]].iter().rev() {
                pred_at[s] -= 1;
                pred[pred_at[s]] = b;
            }
        }
        BytecodeCfg {
            leaders,
            ranges,
            succ_at,
            succ,
            pred_at,
            pred,
        }
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.leaders.len()
    }

    /// Successor block indices of block `b`: its branch target first, then the block
    /// it falls through to.
    pub fn succs(&self, b: usize) -> &[usize] {
        &self.succ[self.succ_at[b]..self.succ_at[b + 1]]
    }

    /// Predecessor block indices of block `b`, in block order.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.pred[self.pred_at[b]..self.pred_at[b + 1]]
    }

    /// The block index containing `pc`.
    pub fn block_of_pc(&self, pc: usize) -> usize {
        match self.leaders.binary_search(&pc) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// Blocks reachable from the entry block (index 0).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.block_count()];
        if self.block_count() == 0 {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in self.succs(b) {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Set of blocks that belong to at least one natural loop.
    ///
    /// Back edges are detected via a DFS from the entry block; for each back edge
    /// `n -> h` the natural loop body is collected by walking predecessors from `n`
    /// until `h` is reached.
    pub fn loop_blocks(&self) -> Vec<bool> {
        let n = self.block_count();
        let mut in_loop = vec![false; n];
        if n == 0 {
            return in_loop;
        }
        // DFS to find back edges (edge to an ancestor on the DFS stack).
        let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
        let mut back_edges = Vec::new();
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = 1;
        while let Some(&mut (b, ref mut idx)) = stack.last_mut() {
            if let Some(&s) = self.succs(b).get(*idx) {
                *idx += 1;
                match color[s] {
                    0 => {
                        color[s] = 1;
                        stack.push((s, 0));
                    }
                    1 => back_edges.push((b, s)),
                    _ => {}
                }
            } else {
                color[b] = 2;
                stack.pop();
            }
        }
        for (tail, head) in back_edges {
            // Natural loop of back edge tail -> head.
            let mut body = vec![false; n];
            body[head] = true;
            let mut work = vec![tail];
            while let Some(b) = work.pop() {
                if body[b] {
                    continue;
                }
                body[b] = true;
                for &p in self.preds(b) {
                    if !body[p] {
                        work.push(p);
                    }
                }
            }
            for (i, &inb) in body.iter().enumerate() {
                if inb {
                    in_loop[i] = true;
                }
            }
        }
        in_loop
    }
}

/// Convenience: the set of pcs of a body that are inside loops (used to classify
/// allocation sites as summary `*` sites).
pub fn loop_pcs(body: &[Insn]) -> Vec<bool> {
    let cfg = BytecodeCfg::build(body);
    let loops = cfg.loop_blocks();
    let mut out = vec![false; body.len()];
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        if loops[b] {
            for slot in out.iter_mut().take(end).skip(start) {
                *slot = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, Const};
    use std::collections::{BTreeMap, BTreeSet};

    /// What `BytecodeCfg::build` used to be, kept as its definition: leaders in a
    /// `BTreeSet`, a `BTreeMap` from leader pc to block, and one successor and one
    /// predecessor `Vec` per block.
    #[derive(Debug, PartialEq)]
    struct OracleCfg {
        leaders: Vec<usize>,
        ranges: Vec<(usize, usize)>,
        succs: Vec<Vec<usize>>,
        preds: Vec<Vec<usize>>,
    }

    fn oracle_build(body: &[Insn]) -> OracleCfg {
        let mut leader_set: BTreeSet<usize> = BTreeSet::new();
        if !body.is_empty() {
            leader_set.insert(0);
        }
        for (pc, insn) in body.iter().enumerate() {
            if let Some(t) = insn.branch_target() {
                leader_set.insert(t);
                if pc + 1 < body.len() {
                    leader_set.insert(pc + 1);
                }
            } else if insn.is_terminator() && pc + 1 < body.len() {
                leader_set.insert(pc + 1);
            }
        }
        let leaders: Vec<usize> = leader_set.into_iter().collect();
        let block_of: BTreeMap<usize, usize> =
            leaders.iter().enumerate().map(|(i, &pc)| (pc, i)).collect();
        let mut ranges = Vec::with_capacity(leaders.len());
        for (i, &start) in leaders.iter().enumerate() {
            let end = leaders.get(i + 1).copied().unwrap_or(body.len());
            ranges.push((start, end));
        }
        let mut succs = vec![Vec::new(); leaders.len()];
        for (i, &(start, end)) in ranges.iter().enumerate() {
            if start == end {
                continue;
            }
            let last = &body[end - 1];
            if let Some(t) = last.branch_target() {
                succs[i].push(block_of[&t]);
            }
            if !last.is_terminator() && end < body.len() {
                succs[i].push(block_of[&end]);
            }
        }
        let mut preds = vec![Vec::new(); leaders.len()];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(i);
            }
        }
        OracleCfg {
            leaders,
            ranges,
            succs,
            preds,
        }
    }

    /// Asserts that the CSR build of `body` is the oracle's, row for row and in order.
    fn assert_matches_oracle(body: &[Insn], what: &str) {
        let cfg = BytecodeCfg::build(body);
        let rows = |row: &dyn Fn(usize) -> Vec<usize>| (0..cfg.block_count()).map(row).collect();
        let got = OracleCfg {
            leaders: cfg.leaders.clone(),
            ranges: cfg.ranges.clone(),
            succs: rows(&|b| cfg.succs(b).to_vec()),
            preds: rows(&|b| cfg.preds(b).to_vec()),
        };
        assert_eq!(got, oracle_build(body), "{what}");
    }

    /// The CFG sees an instruction only through `branch_target` and `is_terminator`,
    /// so this stand-in for `insn` (from any build of this crate) has the same CFG.
    fn skeleton(target: Option<usize>, terminates: bool) -> Insn {
        match (target, terminates) {
            (Some(t), true) => Insn::Goto(t),
            (Some(t), false) => Insn::If(CmpOp::Eq, t),
            (None, true) => Insn::Return,
            (None, false) => Insn::Pop,
        }
    }

    /// Every body of the analyses' corpus: Table 1, Table 3, `bank(100)` and the
    /// generated call trees at five sizes × three seeds.
    #[test]
    fn the_csr_build_is_the_oracles_on_every_corpus_body() {
        use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};
        let mut programs: Vec<_> = table1_workloads(1)
            .into_iter()
            .chain(table3_workloads(1))
            .chain([bank(100)])
            .collect();
        for (depth, width) in [(3, 4), (4, 8), (6, 12), (6, 16), (8, 24)] {
            for seed in [1, 2, 3] {
                let cfg = GenConfig {
                    seed,
                    depth,
                    width,
                    fan_out: 3,
                    ..Default::default()
                };
                programs.push(generated(&cfg).workload);
            }
        }
        let mut bodies = 0;
        for w in &programs {
            for m in &w.program.methods {
                let body: Vec<Insn> = (m.body.iter())
                    .map(|i| skeleton(i.branch_target(), i.is_terminator()))
                    .collect();
                assert_matches_oracle(&body, &format!("{}: {}", w.name, m.name));
                bodies += 1;
            }
        }
        assert!(bodies > 1_000, "{bodies} bodies");
    }

    #[test]
    fn the_csr_build_is_the_oracles_at_the_edges() {
        let cases: [(&str, Vec<Insn>); 6] = [
            ("empty body", vec![]),
            (
                "a branch to one past the end",
                vec![
                    Insn::Const(Const::Int(1)),
                    Insn::If(CmpOp::Eq, 3),
                    Insn::Return,
                ],
            ),
            (
                "a back edge to pc 0",
                vec![Insn::Const(Const::Int(1)), Insn::Pop, Insn::Goto(0)],
            ),
            (
                "an unreachable tail",
                vec![
                    Insn::Return,
                    Insn::Const(Const::Int(1)),
                    Insn::Pop,
                    Insn::Return,
                ],
            ),
            (
                "a branch to the next pc",
                vec![
                    Insn::Const(Const::Int(1)),
                    Insn::If(CmpOp::Eq, 2),
                    Insn::Return,
                ],
            ),
            ("the loop", real_loop_body()),
        ];
        for (what, body) in &cases {
            assert_matches_oracle(body, what);
        }
    }

    /// while (i < 10) { i = i + 1 }  — a single natural loop.
    fn loop_body() -> Vec<Insn> {
        vec![
            Insn::Const(Const::Int(0)),             // 0
            Insn::Store(0),                         // 1
            Insn::Load(0),                          // 2  <- loop header
            Insn::Const(Const::Int(10)),            // 3
            Insn::IfCmp(CmpOp::Ge, 9),              // 4
            Insn::Load(0),                          // 5
            Insn::Const(Const::Int(1)),             // 6
            Insn::Bin(crate::bytecode::BinOp::Add), // 7
            Insn::Store(0),                         // 8 ... falls to 9? no: loop back
            Insn::Return,                           // 9
        ]
    }

    /// Same loop but with an explicit back edge.
    fn real_loop_body() -> Vec<Insn> {
        vec![
            Insn::Const(Const::Int(0)),             // 0
            Insn::Store(0),                         // 1
            Insn::Load(0),                          // 2  header
            Insn::Const(Const::Int(10)),            // 3
            Insn::IfCmp(CmpOp::Ge, 10),             // 4
            Insn::Load(0),                          // 5
            Insn::Const(Const::Int(1)),             // 6
            Insn::Bin(crate::bytecode::BinOp::Add), // 7
            Insn::Store(0),                         // 8
            Insn::Goto(2),                          // 9  back edge
            Insn::Return,                           // 10
        ]
    }

    #[test]
    fn straight_line_has_one_block() {
        let body = vec![Insn::Const(Const::Int(1)), Insn::Store(0), Insn::Return];
        let cfg = BytecodeCfg::build(&body);
        assert_eq!(cfg.block_count(), 1);
        assert!(cfg.succs(0).is_empty());
        assert!(!cfg.loop_blocks().iter().any(|&b| b));
    }

    #[test]
    fn branch_splits_blocks() {
        let cfg = BytecodeCfg::build(&loop_body());
        assert!(cfg.block_count() >= 3);
        let reach = cfg.reachable();
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn back_edge_forms_loop() {
        let body = real_loop_body();
        let cfg = BytecodeCfg::build(&body);
        let loops = cfg.loop_blocks();
        assert!(loops.iter().any(|&b| b), "loop detected");
        // the increment at pc 7 is inside the loop, the return at pc 10 is not.
        let pcs = loop_pcs(&body);
        assert!(pcs[5] && pcs[7] && pcs[9]);
        assert!(!pcs[10]);
    }

    #[test]
    fn block_of_pc_matches_ranges() {
        let body = real_loop_body();
        let cfg = BytecodeCfg::build(&body);
        for (b, &(s, e)) in cfg.ranges.iter().enumerate() {
            for pc in s..e {
                assert_eq!(cfg.block_of_pc(pc), b);
            }
        }
    }

    #[test]
    fn empty_body() {
        let cfg = BytecodeCfg::build(&[]);
        assert_eq!(cfg.block_count(), 0);
        assert!(cfg.reachable().is_empty());
    }
}
