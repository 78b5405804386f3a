//! Decoded-op round-trip properties.
//!
//! The interpreter no longer executes [`Insn`] directly: `ProgramLayout::build`
//! decodes every method body once — to the register form by default, where operands
//! are frame registers, or 1:1 to the stack form — and the explicit-stack dispatch
//! loop runs over that. These tests pin the pipeline down from four sides:
//!
//! * **structurally** — the stack decode stays 1:1 with the bytecode for every
//!   Table 1 workload: branch targets carry over unchanged, constant-pool indices
//!   resolve to the original literals, field ops keep their `FieldRef` and agree with
//!   the layout's slot resolution, invokes keep their static target and selector; and
//!   every body, in either form, carries one seed-accounting table (`src_pc`: an entry
//!   per op plus the seed length, non-decreasing, so its ops partition the seed body,
//!   with only a `Mov` / `Set*` standing for no seed instruction) on which every
//!   branch target lands on its seed target; and every method of the paper's
//!   workloads, and of their 2-node copies, takes the register form;
//! * **semantically** — random integer-machine bodies (including deliberately
//!   unbalanced stacks reached through forward branches) execute identically under
//!   the decoded-op interpreter and a direct reference evaluation of the seed `Insn`
//!   semantics, down to the exact fault (`StackUnderflow` coordinates included);
//! * **form parity** — the same programs (Table 1 workloads, random bodies, and
//!   hand-built cases: retargeted stores, placed operands, faults inside a window,
//!   bodies that fall back, and loops the register kernel leaves in the middle — a
//!   zero divisor, an index past the end, a null receiver) produce bit-identical
//!   results, faults, virtual clocks and instruction counts in the register and the
//!   stack form;
//! * **accounting** — the interpreter charges whole straight-line runs, not single
//!   dispatches, so parity between the forms cannot catch a miscount both share.
//!   The reference evaluation counts the seed instructions it runs (the faulting one
//!   included), and both forms must report exactly that count and the clock that
//!   many sequential `+= unit` additions give, bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use autodist::{Distributor, DistributorConfig};
use autodist_bench::microbench::is_stack_form;
use autodist_ir::bytecode::{BinOp, CmpOp, Const, Insn, UnOp};
use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout, NO_SLOT};
use autodist_ir::program::{MethodId, Program, Type};
use autodist_runtime::interp::{ExecError, Interp};
use autodist_runtime::value::Value;
use proptest::prelude::*;

const NOFUSE: LayoutOptions = LayoutOptions { fuse: false };

/// Every method body of every Table 1 workload decodes 1:1 in the stack form: same
/// length, branch targets preserved verbatim, names resolved consistently with the
/// layout tables.
#[test]
fn decode_is_one_to_one_for_all_workloads() {
    for w in autodist_workloads::table1_workloads(1) {
        let layout = ProgramLayout::build_with(&w.program, NOFUSE);
        for m in &w.program.methods {
            let mops = layout.ops(m.id);
            assert_eq!(
                mops.ops.len(),
                m.body.len(),
                "{}: op count differs from insn count in {}",
                w.name,
                m.name
            );
            for (pc, (insn, op)) in m.body.iter().zip(mops.ops.iter()).enumerate() {
                match (insn, op) {
                    (Insn::Goto(t), Op::Goto(t2)) => assert_eq!(*t, *t2 as usize),
                    (Insn::IfCmp(c, t), Op::IfCmp(c2, t2)) => {
                        assert_eq!(c, c2);
                        assert_eq!(*t, *t2 as usize);
                        assert!(*t <= m.body.len(), "branch target out of range");
                    }
                    (Insn::If(c, t), Op::If(c2, t2)) => {
                        assert_eq!(c, c2);
                        assert_eq!(*t, *t2 as usize);
                    }
                    (Insn::Const(Const::Str(s)), Op::ConstStr(i)) => {
                        assert_eq!(layout.literals.get(*i), Some(s.as_str()));
                    }
                    (Insn::Const(Const::Int(v)), Op::ConstInt(v2)) => assert_eq!(v, v2),
                    (Insn::GetField(fr), Op::GetField { slot, fr: fr2 })
                    | (Insn::PutField(fr), Op::PutField { slot, fr: fr2 }) => {
                        assert_eq!(fr, fr2, "field ref must survive for the wire path");
                        assert_eq!(*slot, layout.field_slot(*fr).unwrap_or(NO_SLOT));
                    }
                    (Insn::GetStatic(fr), Op::GetStatic(slot))
                    | (Insn::PutStatic(fr), Op::PutStatic(slot)) => {
                        assert_eq!(*slot, layout.static_slot(*fr).unwrap_or(NO_SLOT));
                    }
                    (
                        Insn::Invoke(kind, target),
                        Op::Invoke {
                            kind: k2,
                            target: t2,
                            sel,
                            nargs,
                            ..
                        },
                    ) => {
                        assert_eq!(kind, k2);
                        assert_eq!(target, t2);
                        assert_eq!(*sel, layout.selector(*target));
                        let callee = w.program.method(*target);
                        let receiver = usize::from(!callee.is_static);
                        assert_eq!(*nargs as usize, callee.params.len() + receiver);
                    }
                    _ => {}
                }
                // Every branch-carrying op was matched above; anything else is a
                // payload-free or value-carrying op whose variant correspondence is
                // covered by the semantic property below.
                let _ = pc;
            }
        }
    }
}

/// Asserts the seed-accounting table of `method`'s decoded body against its seed
/// body: one entry per op plus the seed length, starting at 0 and non-decreasing
/// (so the ops partition the seed body), a window of no seed instruction only for a
/// `Mov` / `Set*`, and every branch target `t` landing on its seed target
/// (`src_pc[t]` is the target of the seed instruction the branch stands for, the
/// last of its window).
fn assert_src_pc_is_the_seed_table(layout: &ProgramLayout, program: &Program, method: MethodId) {
    let body = &program.method(method).body;
    let mops = layout.ops(method);
    let src_pc = &mops.src_pc;
    assert_eq!(
        src_pc.len(),
        mops.ops.len() + 1,
        "one entry per op, then the end"
    );
    assert_eq!(src_pc[0], 0, "the table starts at the seed entry");
    assert!(
        src_pc.windows(2).all(|w| w[0] <= w[1]),
        "the table is non-decreasing: {src_pc:?}"
    );
    assert_eq!(
        *src_pc.last().unwrap() as usize,
        body.len(),
        "the table ends at the seed length"
    );
    for (pc, op) in mops.ops.iter().enumerate() {
        if mops.seed_width(pc) == 0 {
            assert!(
                matches!(
                    op,
                    Op::Mov(..)
                        | Op::SetI(..)
                        | Op::SetF(..)
                        | Op::SetB(..)
                        | Op::SetS(..)
                        | Op::SetN(_)
                ),
                "op {pc} ({op:?}) stands for no seed instruction"
            );
        }
        if let Op::IfCmp(_, t)
        | Op::If(_, t)
        | Op::Goto(t)
        | Op::RIfCmp(.., t)
        | Op::RIfCmpI(.., t)
        | Op::RIf(.., t) = op
        {
            let seed = body[src_pc[pc + 1] as usize - 1].branch_target();
            assert_eq!(
                Some(src_pc[*t as usize] as usize),
                seed,
                "op {pc} ({op:?}) lands off its seed target"
            );
        }
    }
}

/// The ops of every Table 1 method, in both forms, partition its seed body through
/// the seed-accounting table, and every remapped branch target lands on its seed
/// target.
#[test]
fn fusion_partitions_every_workload_body_and_remaps_targets() {
    for w in autodist_workloads::table1_workloads(1) {
        for opts in [LayoutOptions::default(), NOFUSE] {
            let layout = ProgramLayout::build_with(&w.program, opts);
            for m in &w.program.methods {
                assert_src_pc_is_the_seed_table(&layout, &w.program, m.id);
            }
        }
    }
}

/// Every method of Table 1, Table 3 and the serving mix, and of their rewritten
/// 2-node copies, takes the register form: none falls back to the stack form.
#[test]
fn every_workload_method_takes_the_register_form() {
    let workloads = autodist_workloads::table1_workloads(1)
        .into_iter()
        .chain(autodist_workloads::table3_workloads(1))
        .chain([
            autodist_workloads::bank(40),
            autodist_workloads::method_bench(200),
            autodist_workloads::crypt(400),
        ]);
    let distributor = Distributor::new(DistributorConfig::default());
    for w in workloads {
        let plan = distributor.try_distribute(&w.program).expect("plans");
        for (copy, program) in [w.program.clone()]
            .into_iter()
            .chain(plan.programs())
            .enumerate()
        {
            let layout = ProgramLayout::build(&program);
            for m in &program.methods {
                let mops = layout.ops(m.id);
                assert!(
                    !is_stack_form(mops),
                    "{} (copy {copy}): {} fell back to the stack form",
                    w.name,
                    m.name
                );
                assert_src_pc_is_the_seed_table(&layout, &program, m.id);
            }
        }
    }
}

const BINOPS: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];
const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Materialises a raw token stream into an integer-machine body. Each token emits
/// exactly one insn, so token index == insn index and forward branch targets can be
/// computed directly. A static stack-depth estimate keeps the *straight-line* path
/// well-formed; branch joins may still reach an insn with a different runtime depth,
/// which is exactly the situation where the interpreter's underflow semantics matter.
fn materialize(tokens: &[(u8, i64, u8)]) -> Vec<Insn> {
    let end = tokens.len();
    let fwd = |i: usize, a: i64| (i + 1 + (a.unsigned_abs() as usize % 7)).min(end);
    let mut body = Vec::with_capacity(end + 3);
    let mut depth = 0usize;
    for (i, &(code, a, aux)) in tokens.iter().enumerate() {
        let insn = match code % 11 {
            1 => Insn::Load(u16::from(aux % 4)),
            2 if depth >= 1 => Insn::Store(u16::from(aux % 4)),
            3 if depth >= 1 => Insn::Dup,
            4 if depth >= 1 => Insn::Pop,
            5 if depth >= 2 => Insn::Swap,
            6 if depth >= 2 => Insn::Bin(BINOPS[aux as usize % BINOPS.len()]),
            7 if depth >= 1 => Insn::Un(UnOp::Neg),
            8 if depth >= 2 => Insn::IfCmp(CMPS[aux as usize % CMPS.len()], fwd(i, a)),
            9 if depth >= 1 => Insn::If(CMPS[aux as usize % CMPS.len()], fwd(i, a)),
            10 => Insn::Goto(fwd(i, a)),
            _ => Insn::Const(Const::Int(a)),
        };
        depth = match &insn {
            Insn::Const(_) | Insn::Load(_) | Insn::Dup => depth + 1,
            Insn::Store(_) | Insn::Pop | Insn::Bin(_) | Insn::If(_, _) => depth - 1,
            Insn::IfCmp(_, _) => depth - 2,
            _ => depth,
        };
        body.push(insn);
    }
    // Epilogue: reduce whatever is left to one value and return it.
    if depth == 0 {
        body.push(Insn::Const(Const::Int(0)));
        depth = 1;
    }
    while depth > 1 {
        body.push(Insn::Bin(BinOp::Add));
        depth -= 1;
    }
    body.push(Insn::ReturnValue);
    body
}

/// Wraps `body` as the static method `Probe::probe(int, int, int, int) -> int`.
fn build_probe(body: Vec<Insn>) -> (Program, MethodId) {
    let mut p = Program::new();
    let c = p.add_class("Probe", None);
    let id = p.add_method(c, "probe", vec![Type::Int; 4], Type::Int, true);
    let m = p.method_mut(id);
    m.locals = 4;
    m.body = body;
    (p, id)
}

/// Direct evaluation of the seed [`Insn`] semantics for the integer machine: the
/// value model, wrapping arithmetic, comparison rules and fault coordinates mirror
/// the interpreter's contract exactly, but execution walks the *undecoded* bytecode.
/// Returns the outcome and the number of seed instructions executed, the faulting
/// one included. A local past the argument slots reads as null, and a `Bin` on a
/// null fails the way the interpreter's does.
fn reference_eval(
    body: &[Insn],
    args: [i64; 4],
    method: MethodId,
) -> (Result<Value, ExecError>, u64) {
    let mut locals: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
    let mut stack: Vec<Value> = Vec::new();
    let mut pc = 0usize;
    let mut steps = 0u64;
    loop {
        if pc >= body.len() {
            return (Ok(Value::Null), steps);
        }
        steps += 1;
        assert!(steps < 4_000_000, "reference evaluation ran away");
        macro_rules! fault {
            ($e:expr) => {
                return (Err($e), steps)
            };
        }
        macro_rules! rpop {
            () => {
                match stack.pop() {
                    Some(v) => v,
                    None => fault!(ExecError::StackUnderflow {
                        pc: pc as u32,
                        method,
                    }),
                }
            };
        }
        macro_rules! rpop_int {
            () => {
                match rpop!() {
                    Value::Int(v) => v,
                    other => panic!("integer machine produced {other:?}"),
                }
            };
        }
        match &body[pc] {
            Insn::Const(Const::Int(v)) => stack.push(Value::Int(*v)),
            Insn::Load(n) => {
                let i = *n as usize;
                if i >= locals.len() {
                    locals.resize(i + 1, Value::Null);
                }
                stack.push(locals[i]);
            }
            Insn::Store(n) => {
                let i = *n as usize;
                if i >= locals.len() {
                    locals.resize(i + 1, Value::Null);
                }
                locals[i] = rpop!();
            }
            Insn::Dup => match stack.last().copied() {
                Some(v) => stack.push(v),
                None => fault!(ExecError::StackUnderflow {
                    pc: pc as u32,
                    method,
                }),
            },
            Insn::Pop => {
                rpop!();
            }
            Insn::Swap => {
                let len = stack.len();
                if len < 2 {
                    fault!(ExecError::StackUnderflow {
                        pc: pc as u32,
                        method,
                    });
                }
                stack.swap(len - 1, len - 2);
            }
            Insn::Bin(op) => {
                let (rhs, lhs) = (rpop!(), rpop!());
                let (a, b) = match (lhs, rhs) {
                    (Value::Int(a), Value::Int(b)) => (a, b),
                    (Value::Null, _) | (_, Value::Null) => {
                        fault!(ExecError::Unsupported(format!("{op:?} on non-number Null")))
                    }
                    other => panic!("integer machine produced {other:?}"),
                };
                let r = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            fault!(ExecError::DivisionByZero);
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            fault!(ExecError::DivisionByZero);
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                };
                stack.push(Value::Int(r));
            }
            Insn::Un(UnOp::Neg) => {
                let v = rpop_int!();
                stack.push(Value::Int(-v));
            }
            Insn::IfCmp(op, target) => {
                let b = rpop_int!();
                let a = rpop_int!();
                if op.eval_ord(a.cmp(&b)) {
                    pc = *target;
                    continue;
                }
            }
            Insn::If(op, target) => {
                let v = rpop_int!();
                if op.eval_ord(v.cmp(&0)) {
                    pc = *target;
                    continue;
                }
            }
            Insn::Goto(target) => {
                pc = *target;
                continue;
            }
            Insn::ReturnValue => return (Ok(rpop!()), steps),
            other => panic!("integer machine does not emit {other:?}"),
        }
        pc += 1;
    }
}

/// One probe run under explicit layout options: the outcome plus the accounting the
/// parity suite compares bit-for-bit (virtual clock, instruction count) and the
/// dispatch count (which the register form is allowed — expected — to shrink).
fn run_probe(
    program: &Program,
    probe: MethodId,
    args: &[i64],
    opts: LayoutOptions,
) -> (Result<Value, ExecError>, f64, u64, u64) {
    let mut interp = Interp::new_with_options(program, opts);
    let got = interp.invoke(probe, args.iter().map(|&v| Value::Int(v)).collect());
    (
        got,
        interp.clock_us,
        interp.counters.instructions,
        interp.counters.dispatches,
    )
}

/// The clock of a fresh interpreter after `n` instructions, charged one at a time.
fn sequential_clock(n: u64) -> f64 {
    let fresh = Interp::new(&Program::new());
    let unit = fresh.instr_cost_us / fresh.speed;
    let mut clock = fresh.clock_us;
    for _ in 0..n {
        clock += unit;
    }
    clock
}

/// Asserts register-form and stack-form executions of `body` agree with each other
/// and with the reference evaluation on outcome, instruction count and virtual clock
/// (bitwise, against that many sequential additions), for one argument vector.
fn assert_form_parity(body: &[Insn], args: [i64; 4]) {
    let (program, probe) = build_probe(body.to_vec());
    let (expected, steps) = reference_eval(body, args, probe);
    let (regs, rclock, rinstr, rdisp) = run_probe(&program, probe, &args, LayoutOptions::default());
    let (stack, sclock, sinstr, sdisp) = run_probe(&program, probe, &args, NOFUSE);
    assert_eq!(regs, expected, "register form diverged from the reference");
    assert_eq!(stack, expected, "stack form diverged from the reference");
    assert_eq!(
        rinstr, steps,
        "register form miscounted its seed instructions"
    );
    assert_eq!(sinstr, steps, "stack form miscounted its seed instructions");
    let clock = sequential_clock(steps);
    assert_eq!(
        rclock.to_bits(),
        clock.to_bits(),
        "register clock is not {steps} sequential additions ({rclock} vs {clock})"
    );
    assert_eq!(
        sclock.to_bits(),
        clock.to_bits(),
        "stack clock is not {steps} sequential additions ({sclock} vs {clock})"
    );
    assert!(
        rdisp <= sdisp,
        "the register form must never add dispatches ({rdisp} > {sdisp})"
    );
    assert_eq!(sdisp, sinstr, "stack dispatches are 1:1 with instructions");
}

/// Asserts `body` translates to a register stream with an op matching `expect` and
/// then runs it through [`assert_form_parity`].
fn assert_translated_parity(body: &[Insn], expect: fn(&Op) -> bool, args: [i64; 4]) {
    let (program, probe) = build_probe(body.to_vec());
    let layout = ProgramLayout::build(&program);
    assert!(
        layout.ops(probe).ops.iter().any(expect),
        "expected the op in the register form: {:?}",
        layout.ops(probe).ops
    );
    assert_form_parity(body, args);
}

/// Asserts `body` keeps the stack form and underflows at seed pc `at` in both
/// layouts, as the reference does, for `args`.
fn assert_falls_back_and_underflows(body: &[Insn], args: [i64; 4], at: u32) {
    let (program, probe) = build_probe(body.to_vec());
    let layout = ProgramLayout::build(&program);
    assert!(
        is_stack_form(layout.ops(probe)),
        "{:?}",
        layout.ops(probe).ops
    );
    assert_eq!(layout.ops(probe).ops.len(), body.len());
    for opts in [LayoutOptions::default(), NOFUSE] {
        let (got, ..) = run_probe(&program, probe, &args, opts);
        assert_eq!(
            got,
            Err(ExecError::StackUnderflow {
                pc: at,
                method: probe
            }),
            "{opts:?}"
        );
    }
    assert_form_parity(body, args);
}

/// A fault inside a register op's window charges the whole window: the `Load`s and
/// constants it reads in place ran before its `Bin`, the `Store` it was retargeted
/// for did not.
#[test]
fn a_fault_inside_a_superinstruction_is_charged_through_its_bin() {
    // a0 / 0, the constant read in place.
    let body = vec![
        Insn::Const(Const::Int(1)),
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::Bin(BinOp::Div),
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
    ];
    assert_translated_parity(
        &body,
        |op| matches!(op, Op::RBinI(BinOp::Div, ..)),
        [5, 0, 0, 0],
    );
    // a0 % a1 with a1 = 0.
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Rem),
        Insn::ReturnValue,
    ];
    assert_translated_parity(
        &body,
        |op| matches!(op, Op::RBin(BinOp::Rem, ..)),
        [5, 0, 0, 0],
    );
    assert_translated_parity(
        &body,
        |op| matches!(op, Op::RBin(BinOp::Rem, ..)),
        [5, 3, 0, 0],
    );
    // An add cannot divide by zero, so its one fault is a null local (slot 5 is
    // past the arguments); the Store retargets it to slot 5.
    let body = vec![
        Insn::Const(Const::Int(7)),
        Insn::Load(5),
        Insn::Const(Const::Int(1)),
        Insn::Bin(BinOp::Add),
        Insn::Store(5),
        Insn::ReturnValue,
    ];
    assert_translated_parity(
        &body,
        |op| *op == Op::RBinI(BinOp::Add, 5, 5, 1),
        [0, 0, 0, 0],
    );
}

/// `Load a; Load b; Bin Div; Store c` is one op writing `c`: dividing by zero
/// faults in it, charged three seed instructions — `c` is never written, and the
/// `Store` is not charged.
#[test]
fn a_retargeted_division_by_zero_charges_its_window_and_writes_nothing() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Div),
        Insn::Store(2),
        Insn::Load(2),
        Insn::ReturnValue,
    ];
    let (program, probe) = build_probe(body.clone());
    let layout = ProgramLayout::build(&program);
    let mops = layout.ops(probe);
    assert_eq!(mops.ops[0], Op::RBin(BinOp::Div, 2, 0, 1));
    assert_eq!(mops.seed_width(0), 3);
    let (got, clock, instructions, _) =
        run_probe(&program, probe, &[6, 0, 0, 0], LayoutOptions::default());
    assert_eq!(got, Err(ExecError::DivisionByZero));
    assert_eq!(instructions, 3);
    assert_eq!(clock.to_bits(), sequential_clock(3).to_bits());
    assert_form_parity(&body, [6, 0, 0, 0]);
    assert_form_parity(&body, [6, 4, 0, 0]);
}

/// `Load x; Load y; Store x` with the deferred `x` still on the stack: the old `x`
/// is placed in its slot's register before the `Store` writes `x`.
#[test]
fn a_deferred_load_is_placed_before_its_local_is_written() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Store(0),
        Insn::Load(0),
        Insn::Bin(BinOp::Sub), // old a0 - a1
        Insn::ReturnValue,
    ];
    let (program, probe) = build_probe(body.clone());
    let layout = ProgramLayout::build(&program);
    let ops = &layout.ops(probe).ops;
    assert_eq!(ops[..2], [Op::Mov(4, 0), Op::Mov(0, 1)], "{ops:?}");
    assert_form_parity(&body, [9, 4, 0, 0]);
}

/// A `Store` retargets only the op that produced the very slot it pops: after a
/// `Pop` drops a newer result, the older slot underneath is moved, and the op that
/// produced the dropped one keeps its own register.
#[test]
fn a_store_under_a_popped_result_moves_the_older_slot() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Add), // slot 0: a0 + a1
        Insn::Load(2),
        Insn::Load(3),
        Insn::Bin(BinOp::Mul), // slot 1: a2 * a3, dropped
        Insn::Pop,
        Insn::Store(2),
        Insn::Load(2),
        Insn::ReturnValue,
    ];
    let (program, probe) = build_probe(body.clone());
    let layout = ProgramLayout::build(&program);
    let ops = &layout.ops(probe).ops;
    assert!(ops.contains(&Op::RBin(BinOp::Mul, 5, 2, 3)), "{ops:?}");
    assert!(ops.contains(&Op::Mov(2, 4)), "{ops:?}");
    assert_form_parity(&body, [1, 2, 3, 4]);
}

/// Bodies the translation leaves in the stack form — one with `Swap`, one whose
/// join has two stack heights — fault with `StackUnderflow` at the same seed pc in
/// both layouts.
#[test]
fn a_swap_body_and_an_inconsistent_join_fall_back_and_underflow_alike() {
    let body = vec![Insn::Const(Const::Int(1)), Insn::Swap, Insn::ReturnValue];
    assert_falls_back_and_underflows(&body, [0, 0, 0, 0], 1);
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 3), // a0 > 0: arrives at the Bin with an empty stack
        Insn::Load(1),
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
    ];
    assert_falls_back_and_underflows(&body, [1, 0, 0, 0], 3);
    assert_form_parity(&body, [-1, 0, 0, 0]);
}

/// A body that underflows keeps the stack form, and the fault is charged through
/// the op that popped.
#[test]
fn an_underflow_inside_a_fused_window_is_charged_through_the_pop() {
    let body = vec![
        Insn::Const(Const::Int(3)),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
        Insn::Load(2),
        Insn::ReturnValue,
    ];
    assert_falls_back_and_underflows(&body, [0, 0, 0, 0], 1);
    let body = vec![
        Insn::Const(Const::Int(1)),
        Insn::Pop,
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 5),
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    assert_falls_back_and_underflows(&body, [0, 0, 0, 0], 3);
}

/// A branch taken from the middle of straight-line code closes the run there and
/// opens the next one at its target; a loop closes and reopens the same run many
/// times.
#[test]
fn a_branch_out_of_the_middle_of_a_run_is_charged_where_it_leaves() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Add), // retargeted to local 2
        Insn::Store(2),
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::IfCmp(CmpOp::Gt, 11), // out of the middle
        Insn::Load(2),
        Insn::Const(Const::Int(3)),
        Insn::Bin(BinOp::Mul),
        Insn::ReturnValue,
        Insn::Load(2), // target
        Insn::ReturnValue,
    ];
    let compare = |op: &Op| matches!(op, Op::RIfCmpI(CmpOp::Gt, 0, 0, _));
    assert_translated_parity(&body, compare, [1, 2, 0, 0]);
    assert_translated_parity(&body, compare, [-1, 2, 0, 0]);
    // while (a0 > 0) { a1 = a1 + 2; a0 = a0 - 1; } return a1;
    let body = vec![
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::IfCmp(CmpOp::Le, 12),
        Insn::Load(1),
        Insn::Const(Const::Int(2)),
        Insn::Bin(BinOp::Add),
        Insn::Store(1),
        Insn::Load(0),
        Insn::Const(Const::Int(1)),
        Insn::Bin(BinOp::Sub),
        Insn::Store(0),
        Insn::Goto(0),
        Insn::Load(1),
        Insn::ReturnValue,
    ];
    let increment = |op: &Op| *op == Op::RBinI(BinOp::Add, 1, 1, 2);
    assert_translated_parity(&body, increment, [37, 1, 0, 0]);
}

/// A body that runs off its end returns null; the run that reaches the end —
/// straight or by a branch to one past the last op, with a retargeted `Store` still
/// pending — is charged in full.
#[test]
fn a_body_that_falls_off_its_end_is_charged_to_its_end() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
    ];
    let add = |op: &Op| matches!(op, Op::RBin(BinOp::Add, ..));
    assert_translated_parity(&body, add, [1, 2, 0, 0]);
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 5), // to one past the end
        Insn::Load(1),
        Insn::Load(2),
        Insn::Bin(BinOp::Add), // the last op
    ];
    assert_translated_parity(&body, add, [1, 2, 3, 0]);
    assert_translated_parity(&body, add, [0, 2, 3, 0]);
}

/// A conditional branch lands inside a `Load/Const/Bin` sequence with another
/// stack height than the fall-through, so the body keeps the stack form — and the
/// underflow reached through that join reports the same pc either way.
#[test]
fn branch_into_mid_pattern_executes_identically() {
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 3), // a0 > 0: join at the ConstInt with an empty stack
        Insn::Load(1),
        Insn::Const(Const::Int(5)), // mid-pattern branch target
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
    ];
    // a0 > 0 joins mid-pattern and underflows at the Bin (pc 4); a0 <= 0 takes the
    // straight line and returns a1 + 5.
    assert_falls_back_and_underflows(&body, [1, 7, 0, 0], 4);
    assert_form_parity(&body, [-1, 7, 0, 0]);
}

/// A join with two stack heights keeps the stack form even where the branch lands
/// on the start of a sequence, and the underflow reports the seed pc of the op
/// that popped.
#[test]
fn underflow_inside_a_fused_window_reports_the_seed_pc() {
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 4), // a0 > 0: jump straight to the Bin, stack empty
        Insn::Load(1),
        Insn::Load(2),
        Insn::Bin(BinOp::Add),
        Insn::Store(3),
        Insn::Load(3),
        Insn::ReturnValue,
    ];
    assert_falls_back_and_underflows(&body, [1, 0, 0, 0], 4);
    assert_form_parity(&body, [1, 2, 3, 0]);
    assert_form_parity(&body, [-1, 2, 3, 0]);
}

/// `Load; IfCmp` on an otherwise empty stack pops below the bottom: the body keeps
/// the stack form and underflows at the IfCmp's seed pc.
#[test]
fn load_ifcmp_underflow_reports_the_ifcmp_seed_pc() {
    let body = vec![
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 3), // lhs pop underflows: nothing below the load
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    assert_falls_back_and_underflows(&body, [1, 0, 0, 0], 1);
}

/// A loop the register kernel runs whole until iteration `n`, where its division
/// meets a zero divisor: the kernel stops at the `RBin` without running it, and the
/// machine faults there. Result, seed count (the faulting instruction included,
/// which pins where it struck) and clock bits are the reference's in both forms.
#[test]
fn a_division_the_kernel_declines_faults_in_the_machine() {
    // s = 0; for (i = 0; i <= n; i++) s += 100 / (n - i); return s;
    let body = vec![
        Insn::Load(2),
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Gt, 16), // i > n: out (never: iteration n faults)
        Insn::Load(1),
        Insn::Const(Const::Int(100)),
        Insn::Load(0),
        Insn::Load(2),
        Insn::Bin(BinOp::Sub),
        Insn::Bin(BinOp::Div), // 100 / (n - i)
        Insn::Bin(BinOp::Add),
        Insn::Store(1),
        Insn::Load(2),
        Insn::Const(Const::Int(1)),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
        Insn::Goto(0),
        Insn::Load(1),
        Insn::ReturnValue,
    ];
    let divide = |op: &Op| matches!(op, Op::RBin(BinOp::Div, ..));
    let (_, probe) = build_probe(body.clone());
    for n in [0, 1, 7] {
        let (expected, steps) = reference_eval(&body, [n, 0, 0, 0], probe);
        assert_eq!(expected, Err(ExecError::DivisionByZero));
        // Sixteen per iteration, then seed pcs 0..=8: the fault is the `Div`'s.
        assert_eq!(
            steps,
            16 * n as u64 + 9,
            "faults at seed pc 8 of iteration {n}"
        );
        assert_translated_parity(&body, divide, [n, 0, 0, 0]);
    }
}

/// `Kernel`'s methods run in both forms, each from a fresh interpreter.
const KERNEL_SRC: &str = r#"
    class Node {
        int v;
        Node next;
    }
    class Kernel {
        static int pastTheEnd(int n, int extra) {
            int[] xs = new int[n];
            int i = 0;
            while (i < n) { xs[i] = i * 3; i = i + 1; }
            int s = 0;
            i = 0;
            while (i < n + extra) { s = s + xs[i]; i = i + 1; }
            return s;
        }
        static float mixed(int n) {
            float f = 0.5;
            int k = 1;
            int i = 0;
            while (i < n) {
                k = k * 3 + i;
                f = f * 1.5 + k;
                f = f - i / 2;
                i = i + 1;
            }
            return f + k;
        }
        static int everyThird(int n) {
            int s = 0;
            int i = 0;
            while (i < n) {
                boolean third = i % 3 == 0;
                if (third) { s = s + i; }
                i = i + 1;
            }
            return s;
        }
        static int walk(int n, int extra) {
            Node head = null;
            int i = 0;
            while (i < n) {
                Node x = new Node();
                x.v = i + 1;
                x.next = head;
                head = x;
                i = i + 1;
            }
            int s = 0;
            Node c = head;
            i = 0;
            while (i < n + extra) { s = s + c.v; c = c.next; i = i + 1; }
            return s;
        }
        static void main() { }
    }
"#;

/// The outcome of `Kernel::<name>(args)` (floats by their bits, through `Debug`),
/// the clock bits, the seed count and the dispatches, in one form.
fn run_kernel_method(
    program: &Program,
    name: &str,
    args: &[i64],
    opts: LayoutOptions,
) -> (String, u64, u64, u64) {
    let class = program.class_by_name("Kernel").unwrap();
    let method = program.find_method(class, name).unwrap();
    let (got, clock, instructions, dispatches) = run_probe(program, method, args, opts);
    (
        format!("{got:?}"),
        clock.to_bits(),
        instructions,
        dispatches,
    )
}

/// Asserts `Kernel::<name>` takes the register form with an op matching `expect`,
/// and that it runs on `args` to the same outcome, clock bits and seed count in
/// both forms, with no more dispatches in the register form. Returns the outcome.
fn assert_kernel_parity(name: &str, expect: fn(&Op) -> bool, args: &[i64]) -> String {
    let program = autodist_ir::frontend::compile_source(KERNEL_SRC).unwrap();
    let class = program.class_by_name("Kernel").unwrap();
    let method = program.find_method(class, name).unwrap();
    let layout = ProgramLayout::build(&program);
    let mops = layout.ops(method);
    assert!(!is_stack_form(mops), "{name} fell back to the stack form");
    assert!(mops.ops.iter().any(expect), "{name}: {:?}", mops.ops);
    let (regs, rclock, rinstr, rdisp) =
        run_kernel_method(&program, name, args, LayoutOptions::default());
    let (stack, sclock, sinstr, sdisp) = run_kernel_method(&program, name, args, NOFUSE);
    assert_eq!(regs, stack, "{name}{args:?}: outcome");
    assert_eq!(rclock, sclock, "{name}{args:?}: clock bits");
    assert_eq!(rinstr, sinstr, "{name}{args:?}: seed count");
    assert_eq!(sdisp, sinstr, "{name}{args:?}: stack dispatches are 1:1");
    assert!(
        rdisp <= sdisp,
        "{name}{args:?}: {rdisp} > {sdisp} dispatches"
    );
    regs
}

/// An `aaload` loop the kernel runs until the index reaches the length: it stops
/// at the `RArrayLoad` and the machine reports the index and the length.
#[test]
fn an_element_one_past_the_end_faults_in_the_machine() {
    let load = |op: &Op| matches!(op, Op::RArrayLoad(..));
    assert_eq!(
        assert_kernel_parity("pastTheEnd", load, &[6, 0]),
        "Ok(Int(45))"
    );
    assert_eq!(
        assert_kernel_parity("pastTheEnd", load, &[6, 1]),
        "Err(IndexOutOfBounds { index: 6, len: 6 })"
    );
    assert_eq!(
        assert_kernel_parity("pastTheEnd", load, &[0, 1]),
        "Err(IndexOutOfBounds { index: 0, len: 0 })"
    );
}

/// Integer and float accumulation in one loop: `Int` with `Float` operands in the
/// kernel's numeric rule, the conversions and the integer division beside them.
#[test]
fn int_and_float_accumulation_agree_bit_for_bit() {
    let float = |op: &Op| matches!(op, Op::RBin(BinOp::Mul, ..) | Op::RBinI(BinOp::Mul, ..));
    for n in [0, 1, 9, 40] {
        let got = assert_kernel_parity("mixed", float, &[n]);
        assert!(got.starts_with("Ok(Float("), "mixed({n}) = {got}");
    }
}

/// A boolean materialised in a register and tested by `RIf`.
#[test]
fn an_rif_on_a_bool_branches_as_the_stack_form_does() {
    let rif = |op: &Op| matches!(op, Op::RIf(..));
    assert_eq!(
        assert_kernel_parity("everyThird", rif, &[10]),
        "Ok(Int(18))"
    );
    assert_eq!(assert_kernel_parity("everyThird", rif, &[0]), "Ok(Int(0))");
}

/// A list walk the kernel runs field by field until the next node is null: it
/// stops at the `RGetField` on null, and the machine faults there.
#[test]
fn a_getfield_on_null_inside_a_loop_faults_in_the_machine() {
    let get = |op: &Op| matches!(op, Op::RGetField(..));
    assert_eq!(assert_kernel_parity("walk", get, &[5, 0]), "Ok(Int(15))");
    let fault = assert_kernel_parity("walk", get, &[5, 1]);
    assert!(fault.starts_with("Err(NullPointer("), "{fault}");
}

/// Every Table 1 workload runs entry-to-exit with identical results, statics,
/// virtual clocks (bitwise) and instruction counts in the register and the stack
/// form — and the register form strictly reduces dispatch-loop iterations on every
/// one of them.
#[test]
fn table1_workloads_execute_identically_with_fuse_on_and_off() {
    for w in autodist_workloads::table1_workloads(1) {
        let run = |opts: LayoutOptions| {
            let mut interp = Interp::new_with_options(&w.program, opts);
            let r = interp.run_entry();
            let statics = interp.statics_snapshot();
            (
                r,
                statics,
                interp.clock_us,
                interp.counters.instructions,
                interp.counters.dispatches,
            )
        };
        let (rr, rstatics, rclock, rinstr, rdisp) = run(LayoutOptions::default());
        let (sr, sstatics, sclock, sinstr, sdisp) = run(NOFUSE);
        assert_eq!(rr, sr, "{}: result differs between the forms", w.name);
        assert_eq!(rstatics, sstatics, "{}: statics differ", w.name);
        assert_eq!(
            rclock.to_bits(),
            sclock.to_bits(),
            "{}: virtual clock differs ({rclock} vs {sclock})",
            w.name
        );
        assert_eq!(rinstr, sinstr, "{}: instruction count differs", w.name);
        assert!(
            rdisp < sdisp,
            "{}: the register form should shorten the dispatch stream ({rdisp} vs {sdisp})",
            w.name
        );
    }
}

/// Random bodies that took the register form, across the cases of
/// [`random_int_body_cases`].
static REGISTER_BODIES: AtomicUsize = AtomicUsize::new(0);

/// Random integer-machine bodies produce the same outcome — value or typed fault,
/// including the faulting pc — through the decode + explicit-stack loop (register
/// *and* stack form) as through direct evaluation of the bytecode, with the
/// reference's instruction count and its count of sequential clock additions, bit
/// for bit, under both layouts. The generated bodies branch forward into arbitrary
/// offsets, so joins of two heights (and the fallback they force) are routine;
/// some bodies must take the register form all the same.
#[test]
fn random_int_bodies_execute_identically() {
    random_int_body_cases();
    assert!(
        REGISTER_BODIES.load(Ordering::Relaxed) > 0,
        "no random body took the register form"
    );
}

proptest! {
    /// The cases of [`random_int_bodies_execute_identically`].
    fn random_int_body_cases(
        tokens in prop::collection::vec((0u8..64, -9i64..10, any::<u8>()), 0..80),
        a0 in -100i64..100,
        a1 in -100i64..100,
        a2 in -100i64..100,
        a3 in -100i64..100,
    ) {
        let body = materialize(&tokens);
        let (program, probe) = build_probe(body.clone());
        let stack = ProgramLayout::build_with(&program, NOFUSE);
        prop_assert_eq!(stack.ops(probe).ops.len(), body.len());
        let registers = ProgramLayout::build(&program);
        assert_src_pc_is_the_seed_table(&stack, &program, probe);
        assert_src_pc_is_the_seed_table(&registers, &program, probe);
        if !is_stack_form(registers.ops(probe)) {
            REGISTER_BODIES.fetch_add(1, Ordering::Relaxed);
        }

        let args = [a0, a1, a2, a3];
        let (expected, steps) = reference_eval(&body, args, probe);
        let (rgot, rclock, rinstr, rdisp) = run_probe(&program, probe, &args, LayoutOptions::default());
        let (sgot, sclock, sinstr, sdisp) = run_probe(&program, probe, &args, NOFUSE);
        prop_assert_eq!(rgot, expected.clone());
        prop_assert_eq!(sgot, expected);
        prop_assert_eq!(rinstr, steps);
        prop_assert_eq!(sinstr, steps);
        let clock = sequential_clock(steps).to_bits();
        prop_assert_eq!(rclock.to_bits(), clock);
        prop_assert_eq!(sclock.to_bits(), clock);
        prop_assert!(rdisp <= sdisp);
        prop_assert_eq!(sdisp, steps);
    }
}
