//! x86-flavoured target (Figure 7, left column): its dialect and rule table.
//!
//! The output is pedagogical assembly in the same style the paper prints: virtual
//! registers are mapped onto a small set of general-purpose register names, constants
//! may appear as immediates, arithmetic is two-address, calls (an allocation's too)
//! push their arguments, become `call` and pop them with `add esp, 4n`, and returns
//! place their value in `eax`.

use crate::burs::{rule, Args, Dialect, Nonterminal, Pattern, Rule};
use autodist_ir::quad::Reg;

/// Maps a virtual register onto an x86 register name (cycling through the GPRs, with a
/// stack-slot style name once they run out).
pub fn x86_reg_name(r: Reg) -> String {
    const NAMES: [&str; 6] = ["eax", "ebx", "ecx", "edx", "esi", "edi"];
    if (r.0 as usize) < NAMES.len() {
        NAMES[r.0 as usize].to_string()
    } else {
        format!("[ebp-{}]", (r.0 as usize - NAMES.len() + 1) * 4)
    }
}

/// The x86 dialect.
pub static DIALECT: Dialect = Dialect {
    reg_name: x86_reg_name,
    temp: "r",
    result: "eax",
    imm: "",
    string: "offset str_",
    load_imm: "mov",
    bin: [
        "add",
        "sub",
        "imul",
        "idiv",
        "idiv ; remainder in edx",
        "and",
        "or",
        "xor",
        "shl",
        "sar",
    ],
    unary: [
        "neg {0}",
        "not {0}",
        "cvtsi2sd {0}, {1}",
        "cvttsd2si {0}, {1}",
    ],
    branch: ["je", "jne", "jl", "jle", "jg", "jge"],
    jump: "jmp",
    three_address: false,
    call: "call",
    args: Args {
        regs: &[],
        push: "push {0}",
        pop: "add esp, {0}",
        pop_into: "pop {0}",
        slot: 4,
    },
    call_result: "eax",
    load: "mov {0}, {1}",
    store: "mov {1}, {0}",
    field: "[{0} + {1}]",
    static_field: "[{0}]",
    element: "[{0} + {1}*8]",
    length: "[{0} - 8]",
    ret: "ret eax",
    ret_void: "ret",
};

const REG: &[Nonterminal] = &[Nonterminal::Reg];
const IMM: &[Nonterminal] = &[Nonterminal::Imm];

/// The x86 rule table. A compare of two immediates keeps both; every other root takes
/// its operands in registers, materialising immediates through the chain rule, except
/// a move of an immediate.
pub static RULES: [Rule; 13] = [
    rule("x86.reg", Nonterminal::Reg, Pattern::Reg, &[], false, 0),
    rule("x86.imm", Nonterminal::Imm, Pattern::Const, &[], false, 0),
    rule(
        "x86.move_ri",
        Nonterminal::Stmt,
        Pattern::Move,
        IMM,
        false,
        1,
    ),
    rule(
        "x86.move_rr",
        Nonterminal::Stmt,
        Pattern::Move,
        REG,
        false,
        1,
    ),
    rule(
        "x86.bin_stmt",
        Nonterminal::Stmt,
        Pattern::Arith,
        REG,
        true,
        3,
    ),
    rule(
        "x86.ifcmp",
        Nonterminal::Stmt,
        Pattern::Compare,
        IMM,
        true,
        2,
    ),
    rule(
        "x86.ifcmp_r",
        Nonterminal::Stmt,
        Pattern::Compare,
        REG,
        true,
        3,
    ),
    rule("x86.goto", Nonterminal::Stmt, Pattern::Jump, &[], false, 1),
    rule("x86.ret", Nonterminal::Stmt, Pattern::Return, REG, true, 1),
    rule("x86.call", Nonterminal::Stmt, Pattern::Call, REG, true, 4),
    rule(
        "x86.getfield",
        Nonterminal::Stmt,
        Pattern::Load,
        REG,
        true,
        2,
    ),
    rule(
        "x86.putfield",
        Nonterminal::Stmt,
        Pattern::Store,
        REG,
        true,
        2,
    ),
    rule("x86.new", Nonterminal::Stmt, Pattern::Alloc, REG, true, 4),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{TreeNode, TreeOp};
    use crate::Target;
    use autodist_ir::quad::BlockId;

    #[test]
    fn register_naming_cycles_then_spills() {
        assert_eq!(x86_reg_name(Reg(0)), "eax");
        assert_eq!(x86_reg_name(Reg(1)), "ebx");
        assert_eq!(x86_reg_name(Reg(5)), "edi");
        assert!(x86_reg_name(Reg(6)).starts_with("[ebp-"));
    }

    #[test]
    fn move_of_constant_matches_figure7_line1() {
        let mut burs = Target::X86.emitter();
        let tree = TreeNode {
            op: TreeOp::Move,
            dst: Some(Reg(0)),
            children: vec![TreeNode {
                op: TreeOp::IConstLeaf(4),
                dst: None,
                children: vec![],
            }],
        };
        let lines = burs.reduce(&tree);
        assert_eq!(lines, vec!["mov eax, 4"]);
    }

    #[test]
    fn compare_and_branch_matches_figure7_line2() {
        let mut burs = Target::X86.emitter();
        let tree = TreeNode {
            op: TreeOp::IfCmp {
                cond: "LE",
                target: BlockId(4),
            },
            dst: None,
            children: vec![
                TreeNode {
                    op: TreeOp::IConstLeaf(4),
                    dst: None,
                    children: vec![],
                },
                TreeNode {
                    op: TreeOp::IConstLeaf(2),
                    dst: None,
                    children: vec![],
                },
            ],
        };
        let lines = burs.reduce(&tree);
        assert_eq!(lines, vec!["cmp 4, 2", "jle BB4"]);
    }

    #[test]
    fn call_pushes_arguments_and_cleans_the_stack() {
        let mut burs = Target::X86.emitter();
        let tree = TreeNode {
            op: TreeOp::Invoke("Account.getSavings".to_string()),
            dst: Some(Reg(1)),
            children: vec![TreeNode {
                op: TreeOp::RegLeaf(Reg(2)),
                dst: None,
                children: vec![],
            }],
        };
        let lines = burs.reduce(&tree);
        let text = lines.join("\n");
        assert!(text.contains("push ecx"));
        assert!(text.contains("call Account.getSavings"));
        assert!(text.contains("add esp, 4"));
        assert!(text.contains("mov ebx, eax"));
    }
}
