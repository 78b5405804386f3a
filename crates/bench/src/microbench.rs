//! The deep arithmetic / boolean / conditional-chain microbench family and the
//! op **census** of the interpreter's register form.
//!
//! The Table 1 workloads exercise the interpreter through realistic object graphs;
//! this family instead maximises the density of what the register translation in
//! `autodist_ir::layout` gains most on — local/local and local/constant arithmetic
//! whose result a `Store` retargets, compare-and-branch chains, and the `i = i + 1`
//! increment idiom — so the `arith_chain_deep` / `cond_chain_deep` census rows
//! record its best case. The [`census`] half counts, per workload, (a)
//! **statically** the ops of the 1:1 and the folded register form, the `Mov` /
//! `Set*` ops that place a slot and the ops that stand for no seed instruction, and
//! (b) **dynamically** how many dispatch-loop iterations folding saves at run time (`instructions` counts seed ops,
//! `dispatches` counts loop trips, so `1 - dispatches/instructions` is the dynamic
//! win).

use autodist_ir::frontend::compile_source;
use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout};
use autodist_ir::program::Program;
use autodist_runtime::interp::Interp;

/// Deep arithmetic chain: four accumulators rewritten from each other every
/// iteration. Almost every statement lowers to `Load Load Bin Store` or
/// `Load Const Bin Store`: one register op each.
pub const ARITH_CHAIN_DEEP: &str = "class Main {
    static int sink;
    static void main() {
        int a = 1;
        int b = 2;
        int c = 3;
        int d = 4;
        int i = 0;
        while (i < 6000) {
            a = b + c;
            b = c + d;
            c = d + a;
            d = a + b;
            a = a + 1;
            b = b - 2;
            c = c * 3;
            d = d % 65537;
            i = i + 1;
        }
        sink = a + b + c + d;
    }
}";

/// Deep conditional chain: a run of two-local and local-vs-constant compares per
/// iteration (`RIfCmp` / `RIfCmpI`) plus the increment idiom on every taken arm.
pub const COND_CHAIN_DEEP: &str = "class Main {
    static int sink;
    static void main() {
        int hits = 0;
        int i = 0;
        int j = 4000;
        while (i < 6000) {
            if (i < j) {
                hits = hits + 1;
            }
            if (hits > 100) {
                j = j - 1;
            }
            if (i == j) {
                hits = hits + 2;
            }
            if (j >= 2000) {
                hits = hits + 3;
            }
            i = i + 1;
        }
        sink = hits;
    }
}";

/// Compiles one of the chain sources (or any standalone `Main` program).
pub fn compile_chain(src: &str) -> Program {
    compile_source(src).expect("chain microbench source compiles")
}

/// Static census of one program: the op counts of its 1:1 and folded forms and what
/// the folded form spends beyond one op per consumed value.
#[derive(Clone, Debug)]
pub struct StaticCensus {
    /// Op count of the 1:1 form (`fuse: false`, one per bytecode insn).
    pub stack_ops: usize,
    /// Op count of the folded register form (the default layout).
    pub register_ops: usize,
    /// `Mov` / `Set*` ops of the folded form: slots placed at home.
    pub moves: usize,
    /// Ops of the folded form that stand for no seed instruction.
    pub zero_width: usize,
}

/// Dynamic census of one program: seed instructions executed vs dispatch loop
/// iterations taken in the folded form (equal in the 1:1 form).
#[derive(Clone, Debug)]
pub struct DynamicCensus {
    /// Seed instructions interpreted (the same in either form).
    pub instructions: u64,
    /// Dispatch-loop iterations in the folded form.
    pub dispatches: u64,
}

impl DynamicCensus {
    /// Percentage of dispatch-loop iterations folding eliminated.
    pub fn dispatch_reduction_pct(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (1.0 - self.dispatches as f64 / self.instructions as f64) * 100.0
    }
}

/// The census of one workload: static + dynamic halves under one name.
#[derive(Clone, Debug)]
pub struct OpCensus {
    /// Workload (or microbench) name.
    pub name: String,
    /// Static stream shape.
    pub static_: StaticCensus,
    /// Dynamic execution shape.
    pub dynamic: DynamicCensus,
}

/// Computes the static census over every method of `program`.
pub fn static_census(program: &Program) -> StaticCensus {
    let one_to_one = ProgramLayout::build_with(program, LayoutOptions { fuse: false });
    let registers = ProgramLayout::build_with(program, LayoutOptions { fuse: true });
    let mut census = StaticCensus {
        stack_ops: one_to_one.method_ops.iter().map(|m| m.ops.len()).sum(),
        register_ops: 0,
        moves: 0,
        zero_width: 0,
    };
    for mops in &registers.method_ops {
        census.register_ops += mops.ops.len();
        census.moves += mops
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Mov(..)
                        | Op::SetI(..)
                        | Op::SetF(..)
                        | Op::SetB(..)
                        | Op::SetS(..)
                        | Op::SetN(_)
                )
            })
            .count();
        census.zero_width += (0..mops.ops.len())
            .filter(|&pc| mops.seed_width(pc) == 0)
            .count();
    }
    census
}

/// Computes the dynamic census by running `program` centralized in the folded
/// register form.
pub fn dynamic_census(program: &Program) -> DynamicCensus {
    let mut interp = Interp::new_with_options(program, LayoutOptions { fuse: true });
    interp.run_entry().expect("census program runs");
    DynamicCensus {
        instructions: interp.counters.instructions,
        dispatches: interp.counters.dispatches,
    }
}

/// The full census of one named program.
pub fn census(name: &str, program: &Program) -> OpCensus {
    OpCensus {
        name: name.to_string(),
        static_: static_census(program),
        dynamic: dynamic_census(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_sources_compile_and_run() {
        for src in [ARITH_CHAIN_DEEP, COND_CHAIN_DEEP] {
            let p = compile_chain(src);
            assert!(dynamic_census(&p).instructions > 10_000, "chains run deep");
        }
    }

    /// The arithmetic statements are register ops, and the dispatch stream shrinks
    /// by more than 60 %.
    #[test]
    fn arith_chain_census_is_dominated_by_fused_arithmetic() {
        let p = compile_chain(ARITH_CHAIN_DEEP);
        let c = census("arith_chain_deep", &p);
        let layout = ProgramLayout::build(&p);
        let arithmetic = layout
            .method_ops
            .iter()
            .flat_map(|m| &m.ops)
            .filter(|op| matches!(op, Op::RBin(..) | Op::RBinI(..)))
            .count();
        assert!(arithmetic >= 4, "a = b + c family: {arithmetic}");
        assert!(c.static_.register_ops < c.static_.stack_ops);
        assert!(
            c.dynamic.dispatch_reduction_pct() > 60.0,
            "{}",
            c.dynamic.dispatch_reduction_pct()
        );
    }

    /// One register compare-and-branch per conditional: the loop head and the four
    /// `if`s.
    #[test]
    fn cond_chain_census_contains_fused_compares() {
        let p = compile_chain(COND_CHAIN_DEEP);
        let layout = ProgramLayout::build(&p);
        let main = p.entry.expect("chain has main");
        let compares = layout
            .ops(main)
            .ops
            .iter()
            .filter(|op| matches!(op, Op::RIfCmp(..) | Op::RIfCmpI(..)))
            .count();
        assert_eq!(compares, 5, "{:?}", layout.ops(main).ops);
        let c = census("cond_chain_deep", &p);
        assert!(c.dynamic.dispatch_reduction_pct() > 60.0);
    }

    #[test]
    fn instructions_are_fusion_independent() {
        let p = compile_chain(ARITH_CHAIN_DEEP);
        let fused = dynamic_census(&p);
        let mut unfused = Interp::new_with_options(&p, LayoutOptions { fuse: false });
        unfused.run_entry().expect("runs");
        assert_eq!(fused.instructions, unfused.counters.instructions);
        assert_eq!(
            unfused.counters.instructions, unfused.counters.dispatches,
            "in the 1:1 form every seed op is one dispatch"
        );
    }
}
