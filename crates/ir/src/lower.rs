//! Bytecode → quad lowering.
//!
//! This is the "Bytecode to Quad" translation of Figure 1: the stack-machine bytecode is
//! converted into the register-based quad IR by abstract interpretation of the operand
//! stack. Local variable slot `i` maps to register `Ri`; operand-stack depth `d` maps to
//! register `R(locals + d)`, which makes control-flow merges with non-empty stacks
//! straightforward (values are flushed into the per-depth registers at block ends).
//!
//! Constants are kept symbolic as long as possible so that the resulting listing matches
//! the paper's Figure 5 (`IFCMP_I IConst: 4, IConst: 2, LE, BB4`).

use std::collections::HashMap;

use crate::bytecode::{Const, Insn, InvokeKind};
use crate::cfg::BytecodeCfg;
use crate::program::{Method, MethodId, Program, Type};
use crate::quad::{BlockId, Operand, Quad, QuadBlock, QuadMethod, Reg};

/// Errors produced by the lowering pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The operand stack underflowed at the given pc.
    StackUnderflow { method: MethodId, pc: usize },
    /// Different control-flow paths reach a block with different stack heights.
    InconsistentStackHeight { method: MethodId, block_pc: usize },
    /// The method body is empty (abstract/native methods cannot be lowered).
    EmptyBody { method: MethodId },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::StackUnderflow { method, pc } => {
                write!(f, "operand stack underflow in {method:?} at pc {pc}")
            }
            LowerError::InconsistentStackHeight { method, block_pc } => write!(
                f,
                "inconsistent stack height at join point pc {block_pc} in {method:?}"
            ),
            LowerError::EmptyBody { method } => write!(f, "cannot lower empty body {method:?}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers every method with a body in `program` to quad form.
pub fn lower_program(program: &Program) -> Result<Vec<QuadMethod>, LowerError> {
    program
        .methods
        .iter()
        .filter(|m| !m.body.is_empty())
        .map(|m| lower_method(program, m))
        .collect()
}

/// Lowers a single method to quad form.
pub fn lower_method(program: &Program, method: &Method) -> Result<QuadMethod, LowerError> {
    if method.body.is_empty() {
        return Err(LowerError::EmptyBody { method: method.id });
    }
    let cfg = BytecodeCfg::build(&method.body);
    let nlocals = method.locals.max(method.entry_locals()) as u32;

    // Entry stack height per bytecode block, by worklist propagation.
    let heights = compute_entry_heights(program, method, &cfg)?;

    // Quad block ids: 0 = ENTRY, 1 = EXIT, bytecode block i -> i + 2.
    let qid = |bc_block: usize| BlockId(bc_block as u32 + 2);

    let mut blocks: Vec<QuadBlock> = (0..cfg.block_count() + 2)
        .map(|i| QuadBlock {
            id: BlockId(i as u32),
            ..Default::default()
        })
        .collect();
    blocks[0].succs = vec![qid(0)];

    let mut max_reg = nlocals;

    for (bi, &(start, end)) in cfg.ranges.iter().enumerate() {
        let mut stack: Vec<Operand> = (0..heights[bi])
            .map(|d| Operand::Reg(Reg(nlocals + d as u32)))
            .collect();
        let mut quads: Vec<Quad> = Vec::new();
        let mut succs: Vec<BlockId> = Vec::new();
        let stack_reg = |d: usize| Reg(nlocals + d as u32);

        for pc in start..end {
            let insn = &method.body[pc];
            let underflow = |stack: &Vec<Operand>, need: usize| {
                if stack.len() < need {
                    Err(LowerError::StackUnderflow {
                        method: method.id,
                        pc,
                    })
                } else {
                    Ok(())
                }
            };
            match insn {
                Insn::Const(c) => {
                    let op = match c {
                        Const::Int(v) => Operand::IConst(*v),
                        Const::Float(v) => Operand::FConst(*v),
                        Const::Bool(v) => Operand::BConst(*v),
                        Const::Str(s) => Operand::SConst(s.clone()),
                        Const::Null => Operand::Null,
                    };
                    stack.push(op);
                }
                Insn::Load(n) => stack.push(Operand::Reg(Reg(*n as u32))),
                Insn::Store(n) => {
                    underflow(&stack, 1)?;
                    let val = stack.pop().unwrap();
                    // Spill any remaining stack entries that alias the overwritten local.
                    for (d, entry) in stack.iter_mut().enumerate() {
                        if *entry == Operand::Reg(Reg(*n as u32)) {
                            let spill = stack_reg(d);
                            quads.push(Quad::Move {
                                dst: spill,
                                src: entry.clone(),
                            });
                            *entry = Operand::Reg(spill);
                            max_reg = max_reg.max(spill.0 + 1);
                        }
                    }
                    quads.push(Quad::Move {
                        dst: Reg(*n as u32),
                        src: val,
                    });
                }
                Insn::Dup => {
                    underflow(&stack, 1)?;
                    let top = stack.last().unwrap().clone();
                    stack.push(top);
                }
                Insn::Pop => {
                    underflow(&stack, 1)?;
                    stack.pop();
                }
                Insn::Swap => {
                    underflow(&stack, 2)?;
                    let len = stack.len();
                    stack.swap(len - 1, len - 2);
                }
                Insn::Bin(op) => {
                    underflow(&stack, 2)?;
                    let rhs = stack.pop().unwrap();
                    let lhs = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::Bin {
                        op: *op,
                        dst,
                        lhs,
                        rhs,
                    });
                    stack.push(Operand::Reg(dst));
                }
                Insn::Un(op) => {
                    underflow(&stack, 1)?;
                    let src = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::Un { op: *op, dst, src });
                    stack.push(Operand::Reg(dst));
                }
                Insn::IfCmp(op, target) => {
                    underflow(&stack, 2)?;
                    let rhs = stack.pop().unwrap();
                    let lhs = stack.pop().unwrap();
                    flush_stack(&stack, &mut quads, nlocals, &mut max_reg);
                    let tb = qid(cfg.block_of_pc(*target));
                    quads.push(Quad::IfCmp {
                        op: *op,
                        lhs,
                        rhs,
                        target: tb,
                    });
                    succs.push(tb);
                }
                Insn::If(op, target) => {
                    underflow(&stack, 1)?;
                    let lhs = stack.pop().unwrap();
                    flush_stack(&stack, &mut quads, nlocals, &mut max_reg);
                    let tb = qid(cfg.block_of_pc(*target));
                    quads.push(Quad::IfCmp {
                        op: *op,
                        lhs,
                        rhs: Operand::IConst(0),
                        target: tb,
                    });
                    succs.push(tb);
                }
                Insn::Goto(target) => {
                    flush_stack(&stack, &mut quads, nlocals, &mut max_reg);
                    let tb = qid(cfg.block_of_pc(*target));
                    quads.push(Quad::Goto { target: tb });
                    succs.push(tb);
                }
                Insn::New(class) => {
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::New { dst, class: *class });
                    stack.push(Operand::Reg(dst));
                }
                Insn::NewArray(elem) => {
                    underflow(&stack, 1)?;
                    let len = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::NewArray {
                        dst,
                        elem: elem.clone(),
                        len,
                    });
                    stack.push(Operand::Reg(dst));
                }
                Insn::ArrayLoad => {
                    underflow(&stack, 2)?;
                    let idx = stack.pop().unwrap();
                    let arr = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::ALoad { dst, arr, idx });
                    stack.push(Operand::Reg(dst));
                }
                Insn::ArrayStore => {
                    underflow(&stack, 3)?;
                    let val = stack.pop().unwrap();
                    let idx = stack.pop().unwrap();
                    let arr = stack.pop().unwrap();
                    quads.push(Quad::AStore { arr, idx, val });
                }
                Insn::ArrayLength => {
                    underflow(&stack, 1)?;
                    let arr = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::ALen { dst, arr });
                    stack.push(Operand::Reg(dst));
                }
                Insn::GetField(fr) => {
                    underflow(&stack, 1)?;
                    let obj = stack.pop().unwrap();
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::GetField {
                        dst,
                        obj,
                        field: *fr,
                    });
                    stack.push(Operand::Reg(dst));
                }
                Insn::PutField(fr) => {
                    underflow(&stack, 2)?;
                    let val = stack.pop().unwrap();
                    let obj = stack.pop().unwrap();
                    quads.push(Quad::PutField {
                        obj,
                        field: *fr,
                        val,
                    });
                }
                Insn::GetStatic(fr) => {
                    let dst = stack_reg(stack.len());
                    max_reg = max_reg.max(dst.0 + 1);
                    quads.push(Quad::GetStatic { dst, field: *fr });
                    stack.push(Operand::Reg(dst));
                }
                Insn::PutStatic(fr) => {
                    underflow(&stack, 1)?;
                    let val = stack.pop().unwrap();
                    quads.push(Quad::PutStatic { field: *fr, val });
                }
                Insn::Invoke(kind, mid) => {
                    let callee = program.method(*mid);
                    let nargs =
                        callee.params.len() + if *kind == InvokeKind::Static { 0 } else { 1 };
                    underflow(&stack, nargs)?;
                    let mut args: Vec<Operand> = stack.split_off(stack.len() - nargs);
                    // args currently receiver-first already (pushed left to right).
                    let dst = if callee.ret != Type::Void {
                        let d = stack_reg(stack.len());
                        max_reg = max_reg.max(d.0 + 1);
                        Some(d)
                    } else {
                        None
                    };
                    quads.push(Quad::Invoke {
                        kind: *kind,
                        dst,
                        method: *mid,
                        args: std::mem::take(&mut args),
                    });
                    if let Some(d) = dst {
                        stack.push(Operand::Reg(d));
                    }
                }
                Insn::Return => {
                    quads.push(Quad::Return { val: None });
                    succs.push(QuadMethod::EXIT);
                }
                Insn::ReturnValue => {
                    underflow(&stack, 1)?;
                    let v = stack.pop().unwrap();
                    quads.push(Quad::Return { val: Some(v) });
                    succs.push(QuadMethod::EXIT);
                }
            }
        }

        // Fallthrough edge.
        let last = &method.body[end - 1];
        if !last.is_terminator() && !matches!(last, Insn::ReturnValue | Insn::Return) {
            flush_stack(&stack, &mut quads, nlocals, &mut max_reg);
            if bi + 1 < cfg.block_count() {
                succs.push(qid(bi + 1));
            }
        }

        let qb = &mut blocks[qid(bi).0 as usize];
        qb.quads = quads;
        qb.succs = succs;
    }

    let mut qm = QuadMethod {
        method: method.id,
        blocks,
        reg_count: max_reg,
    };
    qm.recompute_preds();
    Ok(qm)
}

/// Flushes symbolic stack entries into their canonical per-depth registers so that
/// successor blocks can pick them up.
fn flush_stack(stack: &[Operand], quads: &mut Vec<Quad>, nlocals: u32, max_reg: &mut u32) {
    for (d, entry) in stack.iter().enumerate() {
        let canonical = Reg(nlocals + d as u32);
        if *entry != Operand::Reg(canonical) {
            quads.push(Quad::Move {
                dst: canonical,
                src: entry.clone(),
            });
            *max_reg = (*max_reg).max(canonical.0 + 1);
        }
    }
}

/// Computes the operand-stack height at entry of each bytecode basic block.
fn compute_entry_heights(
    program: &Program,
    method: &Method,
    cfg: &BytecodeCfg,
) -> Result<Vec<usize>, LowerError> {
    let mut heights: HashMap<usize, usize> = HashMap::new();
    heights.insert(0, 0);
    let mut work = vec![0usize];
    let mut out = vec![0usize; cfg.block_count()];
    while let Some(b) = work.pop() {
        let mut h = heights[&b] as isize;
        out[b] = h as usize;
        let (start, end) = cfg.ranges[b];
        for pc in start..end {
            let insn = &method.body[pc];
            h += insn.stack_delta(|m| {
                let callee = program.method(m);
                (callee.params.len(), callee.ret != Type::Void)
            });
            if h < 0 {
                return Err(LowerError::StackUnderflow {
                    method: method.id,
                    pc,
                });
            }
        }
        // For conditional branches the popped operands are already accounted; both
        // successors see the same height.
        for &s in &cfg.succs[b] {
            let hs = h as usize;
            match heights.get(&s) {
                Some(&prev) if prev != hs => {
                    return Err(LowerError::InconsistentStackHeight {
                        method: method.id,
                        block_pc: cfg.leaders[s],
                    })
                }
                Some(_) => {}
                None => {
                    heights.insert(s, hs);
                    work.push(s);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BinOp, Const, InvokeKind};
    use crate::figure5_example as example_program;

    #[test]
    fn lowers_figure5_example() {
        let (p, id) = example_program();
        let qm = lower_method(&p, p.method(id)).unwrap();
        // ENTRY, EXIT and at least three real blocks (cond, then, join).
        assert!(qm.blocks.len() >= 5);
        // A MOVE of constant 4 into the local register R1 must exist.
        let has_move = qm.iter_quads().any(|(_, q)| {
            matches!(q, Quad::Move { dst, src } if *dst == Reg(1) && *src == Operand::IConst(4))
        });
        assert!(has_move, "MOVE_I R1, IConst: 4 present");
        // An ADD with constant 1 must exist.
        let has_add = qm.iter_quads().any(|(_, q)| {
            matches!(q, Quad::Bin { op: BinOp::Add, rhs, .. } if *rhs == Operand::IConst(1))
        });
        assert!(has_add);
        // A RETURN with a value must exist and the exit block must have preds.
        let has_ret = qm
            .iter_quads()
            .any(|(_, q)| matches!(q, Quad::Return { val: Some(_) }));
        assert!(has_ret);
        assert!(!qm.block(QuadMethod::EXIT).preds.is_empty());
    }

    #[test]
    fn entry_block_points_at_first_real_block() {
        let (p, id) = example_program();
        let qm = lower_method(&p, p.method(id)).unwrap();
        assert_eq!(qm.block(QuadMethod::ENTRY).succs, vec![BlockId(2)]);
        assert!(qm.block(QuadMethod::ENTRY).quads.is_empty());
    }

    #[test]
    fn conditional_blocks_have_two_successors() {
        let (p, id) = example_program();
        let qm = lower_method(&p, p.method(id)).unwrap();
        let cond_block = qm
            .blocks
            .iter()
            .find(|b| b.quads.iter().any(|q| matches!(q, Quad::IfCmp { .. })))
            .expect("conditional block");
        assert_eq!(cond_block.succs.len(), 2);
    }

    #[test]
    fn invoke_lowering_passes_receiver_and_args() {
        // A null receiver: a shape the front end never emits.
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let callee = p.add_method(c, "f", vec![Type::Int, Type::Int], Type::Int, false);
        let main = p.add_method(c, "main", vec![], Type::Void, true);
        let body = vec![
            Insn::Const(Const::Null),
            Insn::Const(Const::Int(1)),
            Insn::Const(Const::Int(2)),
            Insn::Invoke(InvokeKind::Virtual, callee),
            Insn::Pop,
            Insn::Return,
        ];
        p.set_body(main, body, 0);
        let qm = lower_method(&p, p.method(main)).unwrap();
        let inv = qm
            .iter_quads()
            .find_map(|(_, q)| match q {
                Quad::Invoke { args, dst, .. } => Some((args.clone(), *dst)),
                _ => None,
            })
            .expect("invoke quad");
        assert_eq!(inv.0.len(), 3); // receiver + 2 args
        assert!(inv.1.is_some()); // has a result register
    }

    #[test]
    fn empty_body_is_rejected() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "abstract_m", vec![], Type::Void, false);
        let err = lower_method(&p, p.method(m)).unwrap_err();
        assert!(matches!(err, LowerError::EmptyBody { .. }));
    }

    #[test]
    fn store_spills_aliased_stack_entries() {
        // load 0; load 0; iconst 1; add; store 0; store 1  — the second stack entry
        // aliases local 0 when it is overwritten and must be spilled first.
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let id = p.add_method(c, "f", vec![Type::Int], Type::Int, true);
        let body = vec![
            Insn::Load(0),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::Store(0),
            Insn::Store(1),
            Insn::Load(1),
            Insn::ReturnValue,
        ];
        p.set_body(id, body, 2);
        let qm = lower_method(&p, p.method(id)).unwrap();
        // Find the Move into R0 (store 0). Before it, a spill Move from R0 must occur.
        let all: Vec<&Quad> = qm.iter_quads().map(|(_, q)| q).collect();
        let store0_idx = all
            .iter()
            .position(|q| matches!(q, Quad::Move { dst: Reg(0), .. }))
            .expect("store to local 0");
        let spill_before = all[..store0_idx]
            .iter()
            .any(|q| matches!(q, Quad::Move { src: Operand::Reg(Reg(0)), dst } if dst.0 != 0));
        assert!(spill_before, "aliased stack entry spilled before overwrite");
    }

    #[test]
    fn lower_program_skips_bodyless_methods() {
        let (mut p, _id) = example_program();
        let c = p.class_by_name("Example").unwrap();
        p.add_method(c, "native_m", vec![], Type::Void, false);
        let qms = lower_program(&p).unwrap();
        assert_eq!(qms.len(), 1);
    }
}
