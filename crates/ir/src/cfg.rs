//! Control-flow utilities over bytecode bodies.
//!
//! The dependence analyses need two things from control flow: basic-block boundaries
//! (shared with the bytecode→quad lowering) and a conservative "is this program point
//! inside a loop" predicate, which drives the paper's distinction between single-instance
//! allocation sites and `*`-prefixed summary sites ("created inside a control structure").
//!
//! A pass over many bodies keeps one [`BytecodeCfg`] and [`BytecodeCfg::rebuild`]s it
//! for each, and finds loops with one [`LoopFinder`], so it allocates per pass rather
//! than per body.

use crate::bytecode::Insn;

/// Basic-block structure of a bytecode method body. Successors and predecessors are
/// kept in CSR form: block `b`'s row is `succ[succ_at[b]..succ_at[b + 1]]` (and the
/// same for `pred`), read through [`BytecodeCfg::succs`] and [`BytecodeCfg::preds`].
#[derive(Clone, Debug, Default)]
pub struct BytecodeCfg {
    /// Sorted start pcs of each block.
    pub leaders: Vec<usize>,
    /// For each block (indexed as in `leaders`), the pcs `[start, end)` it covers.
    pub ranges: Vec<(usize, usize)>,
    succ_at: Vec<usize>,
    succ: Vec<usize>,
    pred_at: Vec<usize>,
    pred: Vec<usize>,
    /// Scratch of the build: the block starting at each pc, or `NONE`.
    block_at: Vec<u32>,
}

impl BytecodeCfg {
    /// Builds the CFG of a bytecode body.
    pub fn build(body: &[Insn]) -> Self {
        let mut cfg = BytecodeCfg::default();
        cfg.rebuild(body);
        cfg
    }

    /// Makes this the CFG of `body`, reusing the buffers of the body it described.
    pub fn rebuild(&mut self, body: &[Insn]) {
        const NONE: u32 = u32::MAX;
        let n = body.len();
        // `block_at[pc]` is the block starting at `pc`, or `NONE`. A branch may name
        // one past the end (an unverified body even further), so the table grows to
        // the largest target.
        let block_at = &mut self.block_at;
        block_at.clear();
        block_at.resize(n + 1, NONE);
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
        let leaders = &mut self.leaders;
        leaders.clear();
        for (pc, b) in block_at.iter_mut().enumerate() {
            if *b != NONE {
                *b = leaders.len() as u32;
                leaders.push(pc);
            }
        }
        let blocks = leaders.len();
        self.ranges.clear();
        (self.ranges)
            .extend((0..blocks).map(|i| (leaders[i], leaders.get(i + 1).copied().unwrap_or(n))));
        let (succ_at, succ) = (&mut self.succ_at, &mut self.succ);
        succ_at.clear();
        succ.clear();
        succ_at.reserve(blocks + 1);
        succ.reserve(2 * blocks);
        succ_at.push(0);
        for &(start, end) in &self.ranges {
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
        let (pred_at, pred) = (&mut self.pred_at, &mut self.pred);
        pred_at.clear();
        pred_at.resize(blocks + 1, 0);
        for &s in succ.iter() {
            pred_at[s] += 1;
        }
        let mut total = 0;
        for at in pred_at.iter_mut() {
            total += *at;
            *at = total;
        }
        pred.clear();
        pred.resize(succ.len(), 0);
        for b in (0..blocks).rev() {
            for &s in succ[succ_at[b]..succ_at[b + 1]].iter().rev() {
                pred_at[s] -= 1;
                pred[pred_at[s]] = b;
            }
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
}

/// Finds the pcs inside loops of one body after another, with one CFG and one set of
/// search buffers.
#[derive(Debug, Default)]
pub struct LoopFinder {
    cfg: BytecodeCfg,
    /// Per block: whether it belongs to at least one natural loop.
    in_loop: Vec<bool>,
    /// Per block: 0 = white, 1 = on the DFS stack, 2 = done.
    color: Vec<u8>,
    /// The DFS stack: a block and how many of its successors it has visited.
    stack: Vec<(usize, usize)>,
    back_edges: Vec<(usize, usize)>,
    /// The natural loop being collected, and its worklist.
    body: Vec<bool>,
    work: Vec<usize>,
}

impl LoopFinder {
    /// Appends to `out` one flag per pc of `body`: whether that pc is inside a loop.
    pub fn push_loop_pcs(&mut self, body: &[Insn], out: &mut Vec<bool>) {
        self.cfg.rebuild(body);
        self.mark_loop_blocks();
        let at = out.len();
        out.resize(at + body.len(), false);
        let flags = &mut out[at..];
        for (&(start, end), &looped) in self.cfg.ranges.iter().zip(&self.in_loop) {
            if looped {
                flags
                    .iter_mut()
                    .take(end)
                    .skip(start)
                    .for_each(|slot| *slot = true);
            }
        }
    }

    /// Marks in `in_loop` the blocks of the CFG that belong to at least one natural
    /// loop.
    ///
    /// Back edges are detected via a DFS from the entry block; for each back edge
    /// `n -> h` the natural loop body is collected by walking predecessors from `n`
    /// until `h` is reached.
    fn mark_loop_blocks(&mut self) {
        let cfg = &self.cfg;
        let n = cfg.block_count();
        self.in_loop.clear();
        self.in_loop.resize(n, false);
        if n == 0 {
            return;
        }
        // DFS to find back edges (edge to an ancestor on the DFS stack).
        let color = &mut self.color;
        color.clear();
        color.resize(n, 0);
        self.back_edges.clear();
        let stack = &mut self.stack;
        stack.clear();
        stack.push((0, 0));
        color[0] = 1;
        while let Some(&mut (b, ref mut idx)) = stack.last_mut() {
            if let Some(&s) = cfg.succs(b).get(*idx) {
                *idx += 1;
                match color[s] {
                    0 => {
                        color[s] = 1;
                        stack.push((s, 0));
                    }
                    1 => self.back_edges.push((b, s)),
                    _ => {}
                }
            } else {
                color[b] = 2;
                stack.pop();
            }
        }
        for &(tail, head) in &self.back_edges {
            // Natural loop of back edge tail -> head.
            let body = &mut self.body;
            body.clear();
            body.resize(n, false);
            body[head] = true;
            self.work.push(tail);
            while let Some(b) = self.work.pop() {
                if body[b] {
                    continue;
                }
                body[b] = true;
                for &p in cfg.preds(b) {
                    if !body[p] {
                        self.work.push(p);
                    }
                }
            }
            for (i, &inb) in body.iter().enumerate() {
                if inb {
                    self.in_loop[i] = true;
                }
            }
        }
    }
}

/// Convenience: the set of pcs of a body that are inside loops (used to classify
/// allocation sites as summary `*` sites).
pub fn loop_pcs(body: &[Insn]) -> Vec<bool> {
    let mut out = Vec::with_capacity(body.len());
    LoopFinder::default().push_loop_pcs(body, &mut out);
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

    /// `cfg`'s blocks and rows in the oracle's form.
    fn csr_rows(cfg: &BytecodeCfg) -> OracleCfg {
        let rows = |row: &dyn Fn(usize) -> Vec<usize>| (0..cfg.block_count()).map(row).collect();
        OracleCfg {
            leaders: cfg.leaders.clone(),
            ranges: cfg.ranges.clone(),
            succs: rows(&|b| cfg.succs(b).to_vec()),
            preds: rows(&|b| cfg.preds(b).to_vec()),
        }
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

    /// The control-flow skeleton of every body of the analyses' corpus: Table 1,
    /// Table 3, `bank(100)` and the generated call trees at five sizes × three seeds.
    fn corpus_bodies() -> Vec<(String, Vec<Insn>)> {
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
        let mut bodies = Vec::new();
        for w in &programs {
            for m in &w.program.methods {
                let body: Vec<Insn> = (m.body.iter())
                    .map(|i| skeleton(i.branch_target(), i.is_terminator()))
                    .collect();
                bodies.push((format!("{}: {}", w.name, m.name), body));
            }
        }
        bodies
    }

    fn edge_cases() -> [(&'static str, Vec<Insn>); 6] {
        [
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
        ]
    }

    #[test]
    fn the_csr_build_is_the_oracles_on_every_corpus_body() {
        let bodies = corpus_bodies();
        for (what, body) in &bodies {
            assert_eq!(
                csr_rows(&BytecodeCfg::build(body)),
                oracle_build(body),
                "{what}"
            );
        }
        assert!(bodies.len() > 1_000, "{} bodies", bodies.len());
    }

    #[test]
    fn the_csr_build_is_the_oracles_at_the_edges() {
        for (what, body) in &edge_cases() {
            assert_eq!(
                csr_rows(&BytecodeCfg::build(body)),
                oracle_build(body),
                "{what}"
            );
        }
    }

    /// One CFG and one loop finder carried across every body, the largest and the
    /// smallest left in turn, so each rebuild follows a body of a very different
    /// size: nothing of the previous body may show through.
    #[test]
    fn one_cfg_and_loop_finder_serve_every_body_as_fresh_ones_would() {
        let mut bodies = corpus_bodies();
        bodies.extend(edge_cases().map(|(what, body)| (what.to_string(), body)));
        bodies.sort_by_key(|(_, body)| body.len());
        let (small, large) = bodies.split_at(bodies.len() / 2);
        let turns = large.iter().rev().zip(small).flat_map(|(l, s)| [l, s]);
        // With an odd count, the middle body is left over.
        let middle = large.first().filter(|_| large.len() > small.len());
        let mut cfg = BytecodeCfg::default();
        let mut finder = LoopFinder::default();
        let mut flags = Vec::new();
        let mut rebuilt = 0;
        for (what, body) in turns.chain(middle) {
            cfg.rebuild(body);
            let rows = csr_rows(&cfg);
            assert_eq!(rows, csr_rows(&BytecodeCfg::build(body)), "{what}");
            assert_eq!(rows, oracle_build(body), "{what}");
            let at = flags.len();
            finder.push_loop_pcs(body, &mut flags);
            assert_eq!(flags[at..], loop_pcs(body), "{what}");
            rebuilt += 1;
        }
        assert_eq!(rebuilt, bodies.len());
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
        assert!(!loop_pcs(&body).contains(&true));
    }

    #[test]
    fn branch_splits_blocks() {
        let cfg = BytecodeCfg::build(&loop_body());
        assert!(cfg.block_count() >= 3);
        assert!((1..cfg.block_count()).all(|b| !cfg.preds(b).is_empty()));
    }

    #[test]
    fn back_edge_forms_loop() {
        let body = real_loop_body();
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
        assert!(loop_pcs(&[]).is_empty());
    }
}
