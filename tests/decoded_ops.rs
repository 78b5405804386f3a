//! Decoded-op round-trip properties.
//!
//! The interpreter no longer executes [`Insn`] directly: `ProgramLayout::build`
//! decodes every method body once into the compact [`Op`] format (and, by default,
//! fuses hot sequences into superinstructions) and the explicit-stack dispatch loop
//! runs over that. These tests pin the pipeline down from three sides:
//!
//! * **structurally** — the unfused decode stays 1:1 with the bytecode for every
//!   Table 1 workload: branch targets carry over unchanged, constant-pool indices
//!   resolve to the original literals, field ops keep their `FieldRef` and agree with
//!   the layout's slot resolution, invokes keep their static target and selector; and
//!   every body, fused or not, carries one seed-accounting table (`src_pc`: an entry
//!   per op plus the seed length, strictly increasing, so its ops partition the seed
//!   body) on which every remapped branch target lands on its seed target;
//! * **semantically** — random integer-machine bodies (including deliberately
//!   unbalanced stacks reached through forward branches) execute identically under
//!   the decoded-op interpreter and a direct reference evaluation of the seed `Insn`
//!   semantics, down to the exact fault (`StackUnderflow` coordinates included);
//! * **fusion parity** — the same programs (Table 1 workloads, random bodies, and
//!   hand-built mid-pattern branch cases) produce bit-identical results, faults,
//!   virtual clocks and instruction counts with `LayoutOptions::fuse` on and off;
//! * **accounting** — the interpreter charges whole straight-line runs, not single
//!   dispatches, so fused-against-unfused parity cannot catch a miscount both
//!   layouts share. The reference evaluation counts the seed instructions it runs
//!   (the faulting one included), and both layouts must report exactly that count
//!   and the clock that many sequential `+= unit` additions give, bit for bit.

use autodist_ir::bytecode::{BinOp, CmpOp, Const, Insn, UnOp};
use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout, NO_SLOT};
use autodist_ir::program::{MethodId, Program, Type};
use autodist_runtime::interp::{ExecError, Interp};
use autodist_runtime::value::Value;
use proptest::prelude::*;

const NOFUSE: LayoutOptions = LayoutOptions { fuse: false };

/// Every method body of every Table 1 workload decodes 1:1 when fusion is off: same
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
/// body: one entry per op plus the seed length, starting at 0 and strictly
/// increasing (so the ops partition the seed body), and every branch target `t` of
/// the decoded stream landing on its seed target (`src_pc[t]` is the target of the
/// seed instruction the branch came from).
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
        src_pc.windows(2).all(|w| w[0] < w[1]),
        "the table is strictly increasing: {src_pc:?}"
    );
    assert_eq!(
        *src_pc.last().unwrap() as usize,
        body.len(),
        "the table ends at the seed length"
    );
    for (pc, op) in mops.ops.iter().enumerate() {
        if let Op::IfCmp(_, t)
        | Op::If(_, t)
        | Op::Goto(t)
        | Op::LoadIfCmp(_, _, t)
        | Op::IfCmpFused(_, _, _, t)
        | Op::LoadConstIfCmp(_, _, _, t) = op
        {
            // The branch is the last component of its window.
            let seed = body[src_pc[pc + 1] as usize - 1].branch_target();
            assert_eq!(
                Some(src_pc[*t as usize] as usize),
                seed,
                "op {pc} ({op:?}) lands off its seed target"
            );
        }
    }
}

/// The ops of every Table 1 method, fused and unfused, partition its seed body
/// through the seed-accounting table, and every remapped branch target lands on its
/// seed target.
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
/// dispatch count (which fusion is allowed — expected — to shrink).
fn run_probe(
    program: &Program,
    probe: MethodId,
    args: [i64; 4],
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

/// Asserts fused and unfused executions of `body` agree with each other and with
/// the reference evaluation on outcome, instruction count and virtual clock
/// (bitwise, against that many sequential additions), for one argument vector.
fn assert_fusion_parity(body: &[Insn], args: [i64; 4]) {
    let (program, probe) = build_probe(body.to_vec());
    let (expected, steps) = reference_eval(body, args, probe);
    let (fused, fclock, finstr, fdisp) = run_probe(&program, probe, args, LayoutOptions::default());
    let (plain, uclock, uinstr, udisp) = run_probe(&program, probe, args, NOFUSE);
    assert_eq!(fused, expected, "fused run diverged from the reference");
    assert_eq!(plain, expected, "unfused run diverged from the reference");
    assert_eq!(finstr, steps, "fused run miscounted its seed instructions");
    assert_eq!(
        uinstr, steps,
        "unfused run miscounted its seed instructions"
    );
    let clock = sequential_clock(steps);
    assert_eq!(
        fclock.to_bits(),
        clock.to_bits(),
        "fused clock is not {steps} sequential additions ({fclock} vs {clock})"
    );
    assert_eq!(
        uclock.to_bits(),
        clock.to_bits(),
        "unfused clock is not {steps} sequential additions ({uclock} vs {clock})"
    );
    assert!(
        fdisp <= udisp,
        "fusion must never add dispatches ({fdisp} > {udisp})"
    );
    assert_eq!(
        udisp, uinstr,
        "unfused dispatches are 1:1 with instructions"
    );
}

/// Asserts `body` fuses to an op matching `fused` and then runs it through
/// [`assert_fusion_parity`].
fn assert_fused_parity(body: &[Insn], fused: fn(&Op) -> bool, args: [i64; 4]) {
    let (program, probe) = build_probe(body.to_vec());
    let layout = ProgramLayout::build(&program);
    assert!(
        layout.ops(probe).ops.iter().any(fused),
        "expected the window to fuse: {:?}",
        layout.ops(probe).ops
    );
    assert_fusion_parity(body, args);
}

/// A fault inside an arithmetic superinstruction is charged through its Bin — the
/// Load and Const (or second Load) before it too, the Store of `IncLocal` not.
#[test]
fn a_fault_inside_a_superinstruction_is_charged_through_its_bin() {
    // LoadConstBin: a0 / 0.
    let body = vec![
        Insn::Const(Const::Int(1)),
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::Bin(BinOp::Div),
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::LoadConstBin(..)), [5, 0, 0, 0]);
    // LoadLoadBin: a0 % a1 with a1 = 0.
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Rem),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::LoadLoadBin(..)), [5, 0, 0, 0]);
    assert_fused_parity(&body, |op| matches!(op, Op::LoadLoadBin(..)), [5, 3, 0, 0]);
    // IncLocal: an add cannot divide by zero, so its one fault is a null local
    // (slot 5 is past the arguments).
    let body = vec![
        Insn::Const(Const::Int(7)),
        Insn::Load(5),
        Insn::Const(Const::Int(1)),
        Insn::Bin(BinOp::Add),
        Insn::Store(5),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::IncLocal(..)), [0, 0, 0, 0]);
}

/// A fused window that underflows is charged through the component that popped:
/// the Bin of `BinStore` (its Store never runs), the IfCmp of `LoadIfCmp`.
#[test]
fn an_underflow_inside_a_fused_window_is_charged_through_the_pop() {
    let body = vec![
        Insn::Const(Const::Int(3)),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
        Insn::Load(2),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::BinStore(..)), [0, 0, 0, 0]);
    let body = vec![
        Insn::Const(Const::Int(1)),
        Insn::Pop,
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 5),
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::LoadIfCmp(..)), [0, 0, 0, 0]);
}

/// A branch taken from the middle of straight-line code closes the run there and
/// opens the next one at its target, over fused and 1:1 ops alike; a loop closes
/// and reopens the same run many times.
#[test]
fn a_branch_out_of_the_middle_of_a_run_is_charged_where_it_leaves() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Add), // LoadLoadBin
        Insn::Store(2),
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::IfCmp(CmpOp::Gt, 11), // LoadConstIfCmp, out of the middle
        Insn::Load(2),
        Insn::Const(Const::Int(3)),
        Insn::Bin(BinOp::Mul),
        Insn::ReturnValue,
        Insn::Load(2), // target
        Insn::ReturnValue,
    ];
    assert_fused_parity(
        &body,
        |op| matches!(op, Op::LoadConstIfCmp(..)),
        [1, 2, 0, 0],
    );
    assert_fused_parity(
        &body,
        |op| matches!(op, Op::LoadConstIfCmp(..)),
        [-1, 2, 0, 0],
    );
    // while (a0 > 0) { a1 = a1 + 2; a0 = a0 - 1; } return a1;
    let body = vec![
        Insn::Load(0),
        Insn::Const(Const::Int(0)),
        Insn::IfCmp(CmpOp::Le, 12),
        Insn::Load(1),
        Insn::Const(Const::Int(2)),
        Insn::Bin(BinOp::Add),
        Insn::Store(1), // IncLocal
        Insn::Load(0),
        Insn::Const(Const::Int(1)),
        Insn::Bin(BinOp::Sub),
        Insn::Store(0),
        Insn::Goto(0),
        Insn::Load(1),
        Insn::ReturnValue,
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::IncLocal(..)), [37, 1, 0, 0]);
}

/// A body that runs off its end returns null; the run that reaches the end —
/// straight or by a branch to one past the last op, behind a fused window — is
/// charged in full.
#[test]
fn a_body_that_falls_off_its_end_is_charged_to_its_end() {
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::LoadLoadBin(..)), [1, 2, 0, 0]);
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 5), // to one past the end
        Insn::Load(1),
        Insn::Load(2),
        Insn::Bin(BinOp::Add), // the last op is fused
    ];
    assert_fused_parity(&body, |op| matches!(op, Op::LoadLoadBin(..)), [1, 2, 3, 0]);
    assert_fused_parity(&body, |op| matches!(op, Op::LoadLoadBin(..)), [0, 2, 3, 0]);
}

/// A conditional branch lands *inside* a would-be `Load/Const/Bin` window, so the
/// window must stay unfused — and the underflow reached through that join reports
/// the same pc either way.
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
    let (program, probe) = build_probe(body.clone());
    let fused = ProgramLayout::build(&program);
    assert_eq!(
        fused.ops(probe).ops.len(),
        body.len(),
        "mid-pattern target must block fusion"
    );
    // a0 > 0 joins mid-pattern and underflows at the Bin (pc 4); a0 <= 0 takes the
    // straight line and returns a1 + 5.
    assert_fusion_parity(&body, [1, 7, 0, 0]);
    assert_fusion_parity(&body, [-1, 7, 0, 0]);
}

/// A branch to a *window start* keeps the window fusible (`Bin; Store` becomes
/// `BinStore`), and an underflow inside the fused op reports the seed pc of the
/// component that popped.
#[test]
fn underflow_inside_a_fused_window_reports_the_seed_pc() {
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 4), // a0 > 0: jump straight to the Bin, stack empty
        Insn::Load(1),
        Insn::Load(2),
        Insn::Bin(BinOp::Add), // fuses with the Store below
        Insn::Store(3),
        Insn::Load(3),
        Insn::ReturnValue,
    ];
    let (program, probe) = build_probe(body.clone());
    let fused = ProgramLayout::build(&program);
    assert!(
        fused
            .ops(probe)
            .ops
            .iter()
            .any(|op| matches!(op, Op::BinStore(..))),
        "window-start branch target must not block fusion"
    );
    let (got, ..) = run_probe(&program, probe, [1, 0, 0, 0], LayoutOptions::default());
    assert_eq!(
        got,
        Err(ExecError::StackUnderflow {
            pc: 4,
            method: probe
        }),
        "fault pc must be the seed Bin's, not the fused op's"
    );
    assert_fusion_parity(&body, [1, 2, 3, 0]);
    assert_fusion_parity(&body, [-1, 2, 3, 0]);
}

/// `Load; IfCmp` fuses to `LoadIfCmp`, whose lhs pop is the seed IfCmp's stack
/// effect — an empty stack underflows at the IfCmp's seed pc (offset 1 into the
/// window), identically to the unfused run.
#[test]
fn load_ifcmp_underflow_reports_the_ifcmp_seed_pc() {
    let body = vec![
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 3), // lhs pop underflows: nothing below the load
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    let (program, probe) = build_probe(body.clone());
    let fused = ProgramLayout::build(&program);
    assert!(
        fused
            .ops(probe)
            .ops
            .iter()
            .any(|op| matches!(op, Op::LoadIfCmp(..))),
        "expected the Load/IfCmp pair to fuse"
    );
    let (got, ..) = run_probe(&program, probe, [1, 0, 0, 0], LayoutOptions::default());
    assert_eq!(
        got,
        Err(ExecError::StackUnderflow {
            pc: 1,
            method: probe
        })
    );
    assert_fusion_parity(&body, [1, 0, 0, 0]);
}

/// Every Table 1 workload runs entry-to-exit with identical results, statics,
/// virtual clocks (bitwise) and instruction counts with fusion on and off — and
/// fusion strictly reduces dispatch-loop iterations on every one of them.
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
        let (fr, fstatics, fclock, finstr, fdisp) = run(LayoutOptions::default());
        let (ur, ustatics, uclock, uinstr, udisp) = run(NOFUSE);
        assert_eq!(fr, ur, "{}: result differs under fusion", w.name);
        assert_eq!(
            fstatics, ustatics,
            "{}: statics differ under fusion",
            w.name
        );
        assert_eq!(
            fclock.to_bits(),
            uclock.to_bits(),
            "{}: virtual clock differs under fusion ({fclock} vs {uclock})",
            w.name
        );
        assert_eq!(finstr, uinstr, "{}: instruction count differs", w.name);
        assert!(
            fdisp < udisp,
            "{}: fusion should shorten the dispatch stream ({fdisp} vs {udisp})",
            w.name
        );
    }
}

proptest! {
    /// Random integer-machine bodies produce the same outcome — value or typed
    /// fault, including the faulting pc — through the decode + explicit-stack loop
    /// (fused *and* unfused) as through direct evaluation of the bytecode, with the
    /// reference's instruction count and its count of sequential clock additions,
    /// bit for bit, under both layouts.
    /// The generated bodies branch forward into arbitrary offsets, so targets land
    /// mid-pattern routinely and exercise the fusion blocker.
    #[test]
    fn random_int_bodies_execute_identically(
        tokens in prop::collection::vec((0u8..64, -9i64..10, any::<u8>()), 0..80),
        a0 in -100i64..100,
        a1 in -100i64..100,
        a2 in -100i64..100,
        a3 in -100i64..100,
    ) {
        let body = materialize(&tokens);
        let (program, probe) = build_probe(body.clone());
        let unfused = ProgramLayout::build_with(&program, NOFUSE);
        prop_assert_eq!(unfused.ops(probe).ops.len(), body.len());
        let fused = ProgramLayout::build(&program);
        assert_src_pc_is_the_seed_table(&unfused, &program, probe);
        assert_src_pc_is_the_seed_table(&fused, &program, probe);

        let args = [a0, a1, a2, a3];
        let (expected, steps) = reference_eval(&body, args, probe);
        let (fgot, fclock, finstr, fdisp) = run_probe(&program, probe, args, LayoutOptions::default());
        let (ugot, uclock, uinstr, udisp) = run_probe(&program, probe, args, NOFUSE);
        prop_assert_eq!(fgot, expected.clone());
        prop_assert_eq!(ugot, expected);
        prop_assert_eq!(finstr, steps);
        prop_assert_eq!(uinstr, steps);
        let clock = sequential_clock(steps).to_bits();
        prop_assert_eq!(fclock.to_bits(), clock);
        prop_assert_eq!(uclock.to_bits(), clock);
        prop_assert!(fdisp <= udisp);
        prop_assert_eq!(udisp, steps);
    }
}
