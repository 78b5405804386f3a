//! The register-based quadruple IR.
//!
//! Quads resemble the register IR used by Joeq and shown in Figure 5 of the paper:
//! each method is a list of basic blocks (`BB0 (ENTRY)`, `BB1 (EXIT)`, `BB2`, ...), and
//! each block holds quads such as `MOVE_I R1 int, IConst: 4`. The quad IR is the input
//! of the retargetable code generator (AST construction + BURS).

use std::fmt;

use crate::bytecode::{BinOp, CmpOp, InvokeKind, UnOp};
use crate::program::{ClassId, FieldRef, MethodId, Type};

/// A virtual register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}
impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of a basic block within a [`QuadMethod`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BB{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BB{}", self.0)
    }
}

/// An operand of a quad: either a register or a constant.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// Virtual register.
    Reg(Reg),
    /// Integer constant.
    IConst(i64),
    /// Float constant.
    FConst(f64),
    /// Boolean constant.
    BConst(bool),
    /// String constant.
    SConst(String),
    /// The null reference.
    Null,
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::IConst(v) => write!(f, "IConst: {v}"),
            Operand::FConst(v) => write!(f, "FConst: {v}"),
            Operand::BConst(v) => write!(f, "BConst: {v}"),
            Operand::SConst(s) => write!(f, "SConst: \"{s}\""),
            Operand::Null => write!(f, "null"),
        }
    }
}

/// A single quadruple instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Quad {
    /// `dst := src`
    Move { dst: Reg, src: Operand },
    /// `dst := lhs op rhs`
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst := op src`
    Un { op: UnOp, dst: Reg, src: Operand },
    /// Branch to `target` if `lhs op rhs`.
    IfCmp {
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
        target: BlockId,
    },
    /// Unconditional branch.
    Goto { target: BlockId },
    /// `dst := new class`
    New { dst: Reg, class: ClassId },
    /// `dst := new elem[len]`
    NewArray { dst: Reg, elem: Type, len: Operand },
    /// `dst := arr[idx]`
    ALoad {
        dst: Reg,
        arr: Operand,
        idx: Operand,
    },
    /// `arr[idx] := val`
    AStore {
        arr: Operand,
        idx: Operand,
        val: Operand,
    },
    /// `dst := arr.length`
    ALen { dst: Reg, arr: Operand },
    /// `dst := obj.field`
    GetField {
        dst: Reg,
        obj: Operand,
        field: FieldRef,
    },
    /// `obj.field := val`
    PutField {
        obj: Operand,
        field: FieldRef,
        val: Operand,
    },
    /// `dst := Class.field`
    GetStatic { dst: Reg, field: FieldRef },
    /// `Class.field := val`
    PutStatic { field: FieldRef, val: Operand },
    /// `dst := invoke kind method(args...)` — for non-static kinds `args[0]` is the receiver.
    Invoke {
        kind: InvokeKind,
        dst: Option<Reg>,
        method: MethodId,
        args: Vec<Operand>,
    },
    /// Return, optionally with a value.
    Return { val: Option<Operand> },
}

impl Quad {
    /// The register defined by this quad, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Quad::Move { dst, .. }
            | Quad::Bin { dst, .. }
            | Quad::Un { dst, .. }
            | Quad::New { dst, .. }
            | Quad::NewArray { dst, .. }
            | Quad::ALoad { dst, .. }
            | Quad::ALen { dst, .. }
            | Quad::GetField { dst, .. }
            | Quad::GetStatic { dst, .. } => Some(*dst),
            Quad::Invoke { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All operands used (read) by this quad.
    pub fn uses(&self) -> Vec<&Operand> {
        match self {
            Quad::Move { src, .. } => vec![src],
            Quad::Bin { lhs, rhs, .. } => vec![lhs, rhs],
            Quad::Un { src, .. } => vec![src],
            Quad::IfCmp { lhs, rhs, .. } => vec![lhs, rhs],
            Quad::Goto { .. } | Quad::New { .. } | Quad::GetStatic { .. } => vec![],
            Quad::NewArray { len, .. } => vec![len],
            Quad::ALoad { arr, idx, .. } => vec![arr, idx],
            Quad::AStore { arr, idx, val } => vec![arr, idx, val],
            Quad::ALen { arr, .. } => vec![arr],
            Quad::GetField { obj, .. } => vec![obj],
            Quad::PutField { obj, val, .. } => vec![obj, val],
            Quad::PutStatic { val, .. } => vec![val],
            Quad::Invoke { args, .. } => args.iter().collect(),
            Quad::Return { val } => val.iter().collect(),
        }
    }

    /// `true` if the quad ends its basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Quad::Goto { .. } | Quad::Return { .. })
    }

    /// Branch target of a control-transfer quad.
    pub fn target(&self) -> Option<BlockId> {
        match self {
            Quad::IfCmp { target, .. } | Quad::Goto { target } => Some(*target),
            _ => None,
        }
    }

    /// A short opcode name matching the paper's quad listing style (`MOVE_I`, `ADD_I`,
    /// `IFCMP_I`, `RETURN_I`, ...).
    pub fn opcode(&self) -> String {
        match self {
            Quad::Move { .. } => "MOVE_I".into(),
            Quad::Bin { op, .. } => format!("{}_I", op.mnemonic()),
            Quad::Un { op, .. } => format!("{}_I", op.mnemonic()),
            Quad::IfCmp { .. } => "IFCMP_I".into(),
            Quad::Goto { .. } => "GOTO".into(),
            Quad::New { .. } => "NEW".into(),
            Quad::NewArray { .. } => "NEWARRAY".into(),
            Quad::ALoad { .. } => "ALOAD".into(),
            Quad::AStore { .. } => "ASTORE".into(),
            Quad::ALen { .. } => "ARRAYLENGTH".into(),
            Quad::GetField { .. } => "GETFIELD".into(),
            Quad::PutField { .. } => "PUTFIELD".into(),
            Quad::GetStatic { .. } => "GETSTATIC".into(),
            Quad::PutStatic { .. } => "PUTSTATIC".into(),
            Quad::Invoke { kind, .. } => match kind {
                InvokeKind::Virtual => "INVOKEVIRTUAL".into(),
                InvokeKind::Static => "INVOKESTATIC".into(),
                InvokeKind::Special => "INVOKESPECIAL".into(),
            },
            Quad::Return { val: Some(_) } => "RETURN_I".into(),
            Quad::Return { val: None } => "RETURN_V".into(),
        }
    }
}

/// A basic block of quads.
#[derive(Clone, Debug, Default)]
pub struct QuadBlock {
    /// Block id.
    pub id: BlockId,
    /// The quads in program order.
    pub quads: Vec<Quad>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

/// A method in quad form.
#[derive(Clone, Debug)]
pub struct QuadMethod {
    /// The bytecode method this was lowered from.
    pub method: MethodId,
    /// Basic blocks. Block 0 is the synthetic ENTRY block, block 1 the synthetic EXIT.
    pub blocks: Vec<QuadBlock>,
    /// Number of virtual registers used.
    pub reg_count: u32,
}

impl QuadMethod {
    /// The synthetic entry block id.
    pub const ENTRY: BlockId = BlockId(0);
    /// The synthetic exit block id.
    pub const EXIT: BlockId = BlockId(1);

    /// Accessor for a block.
    pub fn block(&self, id: BlockId) -> &QuadBlock {
        &self.blocks[id.0 as usize]
    }

    /// Total number of quads across all blocks.
    pub fn quad_count(&self) -> usize {
        self.blocks.iter().map(|b| b.quads.len()).sum()
    }

    /// Iterates over all quads in block order.
    pub fn iter_quads(&self) -> impl Iterator<Item = (&QuadBlock, &Quad)> {
        self.blocks
            .iter()
            .flat_map(|b| b.quads.iter().map(move |q| (b, q)))
    }

    /// Recomputes predecessor lists from the successor lists.
    pub fn recompute_preds(&mut self) {
        for b in &mut self.blocks {
            b.preds.clear();
        }
        let edges: Vec<(BlockId, BlockId)> = self
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().map(move |&s| (b.id, s)))
            .collect();
        for (from, to) in edges {
            self.blocks[to.0 as usize].preds.push(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let q = Quad::Bin {
            op: BinOp::Add,
            dst: Reg(1),
            lhs: Operand::Reg(Reg(2)),
            rhs: Operand::IConst(4),
        };
        assert_eq!(q.def(), Some(Reg(1)));
        assert_eq!(q.uses().len(), 2);
        assert_eq!(q.opcode(), "ADD_I");
    }

    #[test]
    fn terminators_and_targets() {
        let g = Quad::Goto { target: BlockId(4) };
        assert!(g.is_terminator());
        assert_eq!(g.target(), Some(BlockId(4)));
        let r = Quad::Return { val: None };
        assert!(r.is_terminator());
        assert_eq!(r.opcode(), "RETURN_V");
        let ic = Quad::IfCmp {
            op: CmpOp::Le,
            lhs: Operand::IConst(4),
            rhs: Operand::IConst(2),
            target: BlockId(4),
        };
        assert!(!ic.is_terminator());
        assert_eq!(ic.target(), Some(BlockId(4)));
    }

    #[test]
    fn recompute_preds_builds_reverse_edges() {
        let mut m = QuadMethod {
            method: MethodId(0),
            blocks: vec![
                QuadBlock {
                    id: BlockId(0),
                    succs: vec![BlockId(2)],
                    ..Default::default()
                },
                QuadBlock {
                    id: BlockId(1),
                    ..Default::default()
                },
                QuadBlock {
                    id: BlockId(2),
                    succs: vec![BlockId(1)],
                    ..Default::default()
                },
            ],
            reg_count: 0,
        };
        m.recompute_preds();
        assert_eq!(m.block(BlockId(2)).preds, vec![BlockId(0)]);
        assert_eq!(m.block(BlockId(1)).preds, vec![BlockId(2)]);
    }
}
