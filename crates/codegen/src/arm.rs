//! StrongARM-flavoured target (Figure 7, right column): its dialect and rule table.
//!
//! The ARM target demonstrates the retargetability of the BURS back-end: the same AST
//! reduces to three-operand RISC instructions (`add R2, R1, R8`), immediates carry the
//! `#` prefix, conditional branches use `b<cc>`, calls pass their first four arguments
//! in `R0`–`R3` and push the rest (`str Rn, [SP, #-4]!`, popped with
//! `add SP, SP, #4k` after the call), and returns are `mov PC, R14`.

use crate::burs::{rule, Args, Dialect, Nonterminal, Pattern, Rule};
use autodist_ir::quad::Reg;

/// Maps a virtual register onto an ARM register name.
pub fn arm_reg_name(r: Reg) -> String {
    format!("R{}", r.0.min(12))
}

/// The StrongARM dialect.
pub static DIALECT: Dialect = Dialect {
    reg_name: arm_reg_name,
    temp: "R",
    result: "R1",
    imm: "#",
    string: "=str_",
    load_imm: "mov",
    bin: [
        "add", "sub", "mul", "sdiv", "srem", "and", "orr", "eor", "lsl", "asr",
    ],
    unary: [
        "rsb {0}, {1}, #0",
        "mvn {0}, {1}",
        "flt {0}, {1}",
        "fix {0}, {1}",
    ],
    branch: ["beq", "bne", "blt", "ble", "bgt", "bge"],
    jump: "b",
    three_address: true,
    call: "bl",
    args: Args {
        regs: &["R0", "R1", "R2", "R3"],
        push: "str {0}, [SP, #-4]!",
        pop: "add SP, SP, #{0}",
        pop_into: "ldr {0}, [SP], #4",
        slot: 4,
    },
    call_result: "R0",
    load: "ldr {0}, {1}",
    store: "str {0}, {1}",
    field: "[{0}, #{1}]",
    static_field: "={0}",
    element: "[{0}, {1}, lsl #3]",
    length: "[{0}, #-8]",
    ret: "mov PC, R14",
    ret_void: "mov PC, R14",
};

const REG: &[Nonterminal] = &[Nonterminal::Reg];
const IMM: &[Nonterminal] = &[Nonterminal::Imm];
const REG_IMM: &[Nonterminal] = &[Nonterminal::Reg, Nonterminal::Imm];
const REG_REG: &[Nonterminal] = &[Nonterminal::Reg, Nonterminal::Reg];

/// The StrongARM rule table. A compare keeps an immediate second operand, or two; every
/// other root takes its operands in registers, materialising immediates through the
/// chain rule, except a move of an immediate.
pub static RULES: [Rule; 14] = [
    rule("arm.reg", Nonterminal::Reg, Pattern::Reg, &[], false, 0),
    rule("arm.imm", Nonterminal::Imm, Pattern::Const, &[], false, 0),
    rule("arm.move", Nonterminal::Stmt, Pattern::Move, IMM, false, 1),
    rule(
        "arm.move_r",
        Nonterminal::Stmt,
        Pattern::Move,
        REG,
        false,
        1,
    ),
    rule(
        "arm.bin_stmt",
        Nonterminal::Stmt,
        Pattern::Arith,
        REG,
        true,
        2,
    ),
    rule(
        "arm.ifcmp",
        Nonterminal::Stmt,
        Pattern::Compare,
        IMM,
        true,
        2,
    ),
    rule(
        "arm.ifcmp_r",
        Nonterminal::Stmt,
        Pattern::Compare,
        REG_IMM,
        false,
        2,
    ),
    rule(
        "arm.ifcmp_rr",
        Nonterminal::Stmt,
        Pattern::Compare,
        REG_REG,
        false,
        3,
    ),
    rule("arm.goto", Nonterminal::Stmt, Pattern::Jump, &[], false, 1),
    rule("arm.ret", Nonterminal::Stmt, Pattern::Return, REG, true, 1),
    rule("arm.call", Nonterminal::Stmt, Pattern::Call, REG, true, 3),
    rule(
        "arm.mem_read",
        Nonterminal::Stmt,
        Pattern::Load,
        REG,
        true,
        2,
    ),
    rule(
        "arm.mem_write",
        Nonterminal::Stmt,
        Pattern::Store,
        REG,
        true,
        2,
    ),
    rule("arm.new", Nonterminal::Stmt, Pattern::Alloc, REG, true, 3),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{TreeNode, TreeOp};
    use crate::Target;
    use autodist_ir::quad::BlockId;

    #[test]
    fn move_constant_uses_immediate_syntax() {
        let mut burs = Target::StrongArm.emitter();
        let tree = TreeNode {
            op: TreeOp::Move,
            dst: Some(Reg(1)),
            children: vec![TreeNode {
                op: TreeOp::IConstLeaf(4),
                dst: None,
                children: vec![],
            }],
        };
        assert_eq!(burs.reduce(&tree), vec!["mov R1, #4"]);
    }

    #[test]
    fn compare_and_branch_matches_figure7() {
        let mut burs = Target::StrongArm.emitter();
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
        assert_eq!(burs.reduce(&tree), vec!["cmp #4, #2", "ble BB4"]);
    }

    #[test]
    fn return_restores_pc_from_link_register() {
        let mut burs = Target::StrongArm.emitter();
        let tree = TreeNode {
            op: TreeOp::Return,
            dst: None,
            children: vec![TreeNode {
                op: TreeOp::RegLeaf(Reg(1)),
                dst: None,
                children: vec![],
            }],
        };
        let lines = burs.reduce(&tree);
        assert_eq!(lines.last().unwrap(), "mov PC, R14");
    }
}
