//! # autodist-codegen
//!
//! Code and communication generation (Section 4 of the paper).
//!
//! * [`ast`] — turns quad methods into abstract syntax trees: every quad becomes the
//!   root of a small tree whose leaves are its operands (Figure 6).
//! * [`burs`] — a bottom-up rewrite system (BURS) code-generator generator (the JBurg
//!   role). Rules are data: a tree pattern, the nonterminals its children derive and a
//!   cost. A target is data too: a [`Dialect`] holding what its assembly looks like,
//!   and a rule table. One [`Emitter`] serves every target: a dynamic-programming pass
//!   labels every node with its cheapest derivation per nonterminal, and a second pass
//!   reduces the tree, printing it in the dialect.
//! * [`x86`] / [`arm`] — the dialects and rule tables of an x86-like and a
//!   StrongARM-like target (Figure 7).
//! * [`rewrite`] — **communication generation**: given a placement of classes onto
//!   nodes, produces the per-node program copies in which accesses to remote objects
//!   are replaced by operations on `rt/DependentObject` proxies that exchange `NEW` and
//!   `DEPENDENCE` messages at run time (Figures 8 and 9).

pub mod arm;
pub mod ast;
pub mod burs;
pub mod rewrite;
pub mod x86;

pub use ast::{build_method_forest, TreeNode, TreeOp};
pub use burs::{Dialect, Emitter, Nonterminal, Pattern, Rule};
pub use rewrite::{
    rewrite_for_node, ClassPlacement, RewriteStats, RewrittenProgram, ACCESS_GET_FIELD,
    ACCESS_INVOKE_HASRETURN, ACCESS_INVOKE_VOID, ACCESS_PUT_FIELD, DEPENDENT_OBJECT_CLASS,
};

/// The targets supported by the retargetable back-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// 32/64-bit x86 flavoured assembly (Figure 7 left column).
    X86,
    /// StrongARM flavoured assembly (Figure 7 right column).
    StrongArm,
}

impl Target {
    /// A fresh emitter for this target's dialect and rule table.
    pub fn emitter(self) -> Emitter {
        match self {
            Target::X86 => Emitter::new(&x86::DIALECT, &x86::RULES),
            Target::StrongArm => Emitter::new(&arm::DIALECT, &arm::RULES),
        }
    }
}

/// Generates assembly text for one quad method on the chosen target.
pub fn generate_method(
    program: &autodist_ir::Program,
    qm: &autodist_ir::QuadMethod,
    target: Target,
) -> Vec<String> {
    target.emitter().method(program, qm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::frontend::compile_source;
    use autodist_ir::lower::lower_method;
    use autodist_ir::{MethodId, Program};

    /// The paper's Figure 5 method.
    pub(crate) fn figure5_example() -> (Program, MethodId) {
        let p = compile_source(
            "class Example { int ex(int b) { b = 4; if (b > 2) { b = b + 1; } return b; } }",
        )
        .unwrap();
        let id = p.find_method(p.class_by_name("Example").unwrap(), "ex");
        (p, id.unwrap())
    }

    fn example() -> (Program, autodist_ir::QuadMethod) {
        let (p, id) = figure5_example();
        let qm = lower_method(&p, p.method(id)).unwrap();
        (p, qm)
    }

    #[test]
    fn x86_output_resembles_figure7() {
        let (p, qm) = example();
        let asm = generate_method(&p, &qm, Target::X86);
        let text = asm.join("\n");
        assert!(text.contains("mov"), "{text}");
        assert!(text.contains("cmp"), "{text}");
        assert!(text.contains("jle") || text.contains("jg"), "{text}");
        assert!(text.contains("add"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    #[test]
    fn arm_output_resembles_figure7() {
        let (p, qm) = example();
        let asm = generate_method(&p, &qm, Target::StrongArm);
        let text = asm.join("\n");
        assert!(text.contains("mov"), "{text}");
        assert!(text.contains("cmp"), "{text}");
        assert!(text.contains("ble") || text.contains("bgt"), "{text}");
        assert!(text.contains("add"), "{text}");
        assert!(
            text.contains("mov PC, R14") || text.contains("mov pc"),
            "{text}"
        );
    }

    #[test]
    fn both_targets_emit_labels_for_branch_blocks() {
        let (p, qm) = example();
        for t in [Target::X86, Target::StrongArm] {
            let asm = generate_method(&p, &qm, t);
            assert!(asm.iter().any(|l| l.starts_with("BB") && l.ends_with(':')));
        }
    }
}
