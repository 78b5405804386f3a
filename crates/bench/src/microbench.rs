//! The deep arithmetic / boolean / conditional-chain microbench family and the
//! op-pair **census** justifying the interpreter's superinstruction set.
//!
//! The Table 1 workloads exercise the interpreter through realistic object graphs;
//! this family instead maximises the density of the op *patterns* the fusion pass in
//! `autodist_ir::layout` targets — `Load Load Bin`, `Load Const Bin`, `Bin Store`,
//! compare-and-branch chains, and the `Load Const Add Store` increment idiom — so
//! the `arith_chain_deep` / `cond_chain_deep` census rows record the fusion pass's
//! best case. The [`census`] half counts, per workload, (a) **statically** how many
//! superinstructions of each kind the fusion pass emits and (b) **dynamically** how
//! many dispatch-loop iterations fusion saves at run time (`instructions` counts
//! seed ops, `dispatches` counts loop trips, so `1 - dispatches/instructions` is the
//! dynamic win).

use autodist_ir::frontend::compile_source;
use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout};
use autodist_ir::program::Program;
use autodist_runtime::interp::Interp;

/// Deep arithmetic chain: four accumulators rewritten from each other every
/// iteration. Almost every statement lowers to `Load Load Bin Store` or
/// `Load Const Bin Store`, the fusion pass's bread-and-butter windows.
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
/// iteration, exercising the fused compare-and-branch forms (`IfCmpFused`,
/// `LoadConstIfCmp`, `LoadIfCmp`) plus the increment idiom on every taken arm.
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

/// Static fusion census of one program: how many ops the unfused decode yields,
/// how many the fused stream keeps, and how many superinstructions of each kind
/// the fusion pass emitted (kind names match the printer's mnemonic suffixes).
#[derive(Clone, Debug)]
pub struct StaticCensus {
    /// Decoded op count with `fuse: false` (one per bytecode insn).
    pub unfused_ops: usize,
    /// Op count of the fused stream.
    pub fused_ops: usize,
    /// `(kind, count)` per superinstruction kind, fixed order, zero counts kept.
    pub super_counts: Vec<(&'static str, usize)>,
}

/// Dynamic fusion census of one program: seed instructions executed vs dispatch
/// loop iterations taken (equal when fusion is off).
#[derive(Clone, Debug)]
pub struct DynamicCensus {
    /// Seed instructions interpreted (fusion-independent).
    pub instructions: u64,
    /// Dispatch-loop iterations with fusion on.
    pub dispatches: u64,
}

impl DynamicCensus {
    /// Percentage of dispatch-loop iterations fusion eliminated.
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

/// Classifies a superinstruction for the census; `None` for plain seed ops.
fn super_kind(op: &Op) -> Option<&'static str> {
    match op {
        Op::LoadLoadBin(..) => Some("load_load_bin"),
        Op::LoadConstBin(..) => Some("load_const_bin"),
        Op::BinStore(..) => Some("bin_store"),
        Op::LoadIfCmp(..) => Some("load_if_cmp"),
        Op::IfCmpFused(..) => Some("if_cmp_fused"),
        Op::LoadConstIfCmp(..) => Some("load_const_if_cmp"),
        Op::IncLocal(..) => Some("inc_local"),
        Op::LoadFieldGet { .. } => Some("load_field_get"),
        _ => None,
    }
}

/// All census kinds in reporting order.
const KINDS: [&str; 8] = [
    "load_load_bin",
    "load_const_bin",
    "bin_store",
    "load_if_cmp",
    "if_cmp_fused",
    "load_const_if_cmp",
    "inc_local",
    "load_field_get",
];

/// Computes the static census over every method of `program`.
pub fn static_census(program: &Program) -> StaticCensus {
    let unfused = ProgramLayout::build_with(program, LayoutOptions { fuse: false });
    let fused = ProgramLayout::build_with(program, LayoutOptions { fuse: true });
    let mut counts = vec![0usize; KINDS.len()];
    let mut unfused_ops = 0usize;
    let mut fused_ops = 0usize;
    for (u, f) in unfused.method_ops.iter().zip(fused.method_ops.iter()) {
        unfused_ops += u.ops.len();
        fused_ops += f.ops.len();
        for op in &f.ops {
            if let Some(kind) = super_kind(op) {
                let i = KINDS.iter().position(|k| *k == kind).expect("known kind");
                counts[i] += 1;
            }
        }
    }
    StaticCensus {
        unfused_ops,
        fused_ops,
        super_counts: KINDS.iter().copied().zip(counts).collect(),
    }
}

/// Computes the dynamic census by running `program` centralized with fusion on.
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

    #[test]
    fn arith_chain_census_is_dominated_by_fused_arithmetic() {
        let p = compile_chain(ARITH_CHAIN_DEEP);
        let c = census("arith_chain_deep", &p);
        let count = |kind: &str| {
            c.static_
                .super_counts
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert!(c.static_.fused_ops < c.static_.unfused_ops);
        assert!(count("load_load_bin") >= 4, "a = b + c family");
        assert!(count("inc_local") >= 1, "i = i + 1");
        // Fusion must pay off dynamically, not just in the listing.
        assert!(c.dynamic.dispatches < c.dynamic.instructions);
        assert!(c.dynamic.dispatch_reduction_pct() > 20.0);
    }

    #[test]
    fn cond_chain_census_contains_fused_compares() {
        let p = compile_chain(COND_CHAIN_DEEP);
        let c = census("cond_chain_deep", &p);
        let fused_compares: usize = c
            .static_
            .super_counts
            .iter()
            .filter(|(k, _)| matches!(*k, "if_cmp_fused" | "load_const_if_cmp" | "load_if_cmp"))
            .map(|(_, n)| n)
            .sum();
        assert!(fused_compares >= 4, "one per conditional in the chain");
        assert!(c.dynamic.dispatch_reduction_pct() > 10.0);
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
            "without fusion every seed op is one dispatch"
        );
    }
}
