//! Decoded-op round-trip properties.
//!
//! The interpreter never executes [`Insn`] directly: `ProgramLayout::build`
//! translates every method body once to the register form — operands are frame
//! registers, folded by default or one op per seed instruction with `fuse: false` —
//! and the explicit-stack dispatch loop runs over that. These tests pin the pipeline
//! down from four sides:
//!
//! * **structurally** — the 1:1 form stays one op per seed instruction for every
//!   Table 1 workload, each the register twin of its instruction: branch targets carry
//!   over unchanged, constant-pool indices resolve to the original literals, field ops
//!   agree with the layout's slot resolution, invokes keep their static target and
//!   selector; every body, in either form, carries one seed-accounting table (`src_pc`:
//!   an entry per op plus the seed length, non-decreasing, so its ops partition the
//!   seed body, with only a `Mov` / `Set*` standing for no seed instruction) on which
//!   every branch target lands on its seed target; and no method of the paper's
//!   workloads, or of their 2-node copies, is the entry-fault op;
//! * **semantically** — random bodies over ints, floats, booleans, null and arrays
//!   (swaps, forward branches and their joins included) execute identically under the
//!   decoded-op interpreter and a direct reference evaluation of the seed `Insn`
//!   semantics, down to the exact fault; a body `verify_method` rejects (an underflow,
//!   a join of two stack heights) faults on entry with the verifier's error instead and
//!   runs nothing;
//! * **form parity** — the same programs (Table 1 workloads, random bodies, and
//!   hand-built cases: retargeted stores, placed operands, swaps, faults inside a
//!   window, a body reached only through a backward branch, and loops the register
//!   kernel leaves in the middle — a zero divisor, an index past the end, a null
//!   receiver) produce bit-identical results, faults, virtual clocks and instruction
//!   counts folded and 1:1;
//! * **accounting** — the interpreter charges whole straight-line runs, not single
//!   dispatches, so parity between the forms cannot catch a miscount both share.
//!   The reference evaluation counts the seed instructions it runs (the faulting one
//!   included), and both forms must report exactly that count and the clock that
//!   many sequential `+= unit` additions give, bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use autodist::{Distributor, DistributorConfig};
use autodist_ir::bytecode::{BinOp, CmpOp, Const, Insn, UnOp};
use autodist_ir::layout::{LayoutOptions, MethodOps, Op, ProgramLayout, Rejected, NO_REG, NO_SLOT};
use autodist_ir::program::{MethodId, Program, Type};
use autodist_ir::verify::{verify_method, VerifyError};
use autodist_runtime::interp::{ExecError, Interp};
use autodist_runtime::value::{ObjRef, Value};
use proptest::prelude::*;

const NOFUSE: LayoutOptions = LayoutOptions { fuse: false };

/// Every method body of every Table 1 workload decodes 1:1 with folding off: one
/// op of width 1 per seed instruction, each the register twin of its instruction —
/// branch targets verbatim, names resolved consistently with the layout tables.
#[test]
fn decode_is_one_to_one_for_all_workloads() {
    for w in autodist_workloads::table1_workloads(1) {
        let layout = ProgramLayout::build_with(&w.program, NOFUSE);
        for m in &w.program.methods {
            let mops = layout.ops(m.id);
            assert_eq!(
                mops.src_pc,
                (0..=m.body.len() as u32).collect::<Vec<_>>(),
                "{}: {} is not one op per seed instruction",
                w.name,
                m.name
            );
            for (insn, op) in m.body.iter().zip(&mops.ops) {
                let twin = match (insn, op) {
                    // A `Pop`, or dead code.
                    (_, Op::Nop) => true,
                    (Insn::Const(Const::Str(s)), Op::SetS(_, i)) => {
                        layout.literals.get(*i) == Some(s.as_str())
                    }
                    (Insn::Const(Const::Int(v)), Op::SetI(_, k)) => v == k,
                    (Insn::Const(_), Op::SetF(..) | Op::SetB(..) | Op::SetN(_)) => true,
                    (Insn::Load(x), Op::Mov(_, r)) => x == r,
                    (Insn::Store(x), Op::Mov(d, _)) => x == d,
                    (Insn::Dup, Op::Mov(..)) => true,
                    (Insn::Bin(b), Op::RBin(b2, ..)) => b == b2,
                    (Insn::Un(u), Op::RUn(u2, ..)) => u == u2,
                    (Insn::IfCmp(c, t), Op::RIfCmp(c2, .., t2))
                    | (Insn::If(c, t), Op::RIf(c2, _, t2)) => c == c2 && *t == *t2 as usize,
                    (Insn::Goto(t), Op::Goto(t2)) => *t == *t2 as usize,
                    (Insn::New(c), Op::RNew(_, c2)) => c == c2,
                    (Insn::NewArray(_), Op::RNewArray(..))
                    | (Insn::ArrayLoad, Op::RArrayLoad(..))
                    | (Insn::ArrayStore, Op::RArrayStore(..))
                    | (Insn::ArrayLength, Op::RArrayLength(..))
                    | (Insn::Return, Op::Return)
                    | (Insn::ReturnValue, Op::RReturnValue(_)) => true,
                    (Insn::GetField(fr), Op::RGetField(_, _, slot))
                    | (Insn::PutField(fr), Op::RPutField(_, _, slot)) => {
                        *slot == layout.field_slot(*fr).unwrap_or(NO_SLOT)
                    }
                    (Insn::GetStatic(fr), Op::RGetStatic(_, slot))
                    | (Insn::PutStatic(fr), Op::RPutStatic(_, slot)) => {
                        *slot == layout.static_slot(*fr).unwrap_or(NO_SLOT)
                    }
                    (
                        Insn::Invoke(kind, target),
                        Op::RInvoke {
                            kind: k2,
                            target: t2,
                            sel,
                            nargs,
                            dst,
                            ..
                        },
                    ) => {
                        let callee = w.program.method(*target);
                        let receiver = usize::from(!callee.is_static);
                        kind == k2
                            && target == t2
                            && *sel == layout.selector(*target)
                            && *nargs as usize == callee.params.len() + receiver
                            && (*dst == NO_REG) == (callee.ret == Type::Void)
                    }
                    _ => false,
                };
                assert!(twin, "{}: {} decodes {insn:?} to {op:?}", w.name, m.name);
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
        if let Op::Goto(t) | Op::RIfCmp(.., t) | Op::RIfCmpI(.., t) | Op::RIf(.., t) = op {
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
/// 2-node copies, translates: none is the op that faults on entry.
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
                    !faults_on_entry(mops),
                    "{} (copy {copy}): {} faults on entry: {:?}",
                    w.name,
                    m.name,
                    mops.ops
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

const UNOPS: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::IntToFloat, UnOp::FloatToInt];
const ELEMENTS: [Type; 4] = [Type::Int, Type::Float, Type::Bool, Type::Str];

/// Whether a decoded body is the one op a rejected body decodes to.
fn faults_on_entry(mops: &MethodOps) -> bool {
    matches!(mops.ops.first(), Some(Op::Fault(_)))
}

/// The local the random bodies keep their array in (the probe's arguments are 0..3,
/// and local 4 starts null).
const ARRAY: u16 = 5;

/// Materialises a raw token stream into a body over ints, floats, booleans, null
/// and arrays. A prologue puts an `int[4]` in local [`ARRAY`]; array tokens work on
/// it (load or store at a constant index, 0 to 3 and now and then 4; its length),
/// replace it (a new array of 4 to 6 elements, now and then -1, or null), or — for
/// an `aux` of 0xF0 or more — apply the raw array op to whatever the stack holds. Forward branch targets name the
/// token they land on, remapped to its first insn at the end. A static stack-depth
/// estimate keeps the straight-line path well-formed, and joins are steered toward
/// one height: the first branch to a token fixes the height it expects, and a later
/// branch there, or the fall-through into it, first pops or pushes constants to
/// match — unless the token's `aux` is 0xE0 or more, which leaves that join
/// unbalanced. Such a join usually sees two heights, which `verify_method` rejects
/// and the layout turns into an entry fault.
fn materialize(tokens: &[(u8, i64, u8)]) -> Vec<Insn> {
    let end = tokens.len();
    let fwd = |i: usize, a: i64| (i + 1 + (a.unsigned_abs() as usize % 7)).min(end);
    let mut body = vec![
        Insn::Const(Const::Int(4)),
        Insn::NewArray(Type::Int),
        Insn::Store(ARRAY),
    ];
    let mut start = Vec::with_capacity(end + 1);
    // The height the first branch to a token arrives with.
    let mut want: Vec<Option<usize>> = vec![None; end + 1];
    let mut depth = 0usize;
    let mut live = true;
    // Pops or pushes constants until the depth is `to`.
    let level = |body: &mut Vec<Insn>, depth: &mut usize, to: usize| {
        while *depth > to {
            body.push(Insn::Pop);
            *depth -= 1;
        }
        while *depth < to {
            body.push(Insn::Const(Const::Int(*depth as i64)));
            *depth += 1;
        }
    };
    for i in 0..=end {
        let (code, a, aux) = tokens.get(i).copied().unwrap_or((0, 0, 0));
        let balance = aux < 0xE0;
        match want[i] {
            Some(h) if !live => (depth, live) = (h, true),
            Some(h) if balance => level(&mut body, &mut depth, h),
            _ => {}
        }
        start.push(body.len());
        if i == end {
            break;
        }
        let (pick, raw) = (aux as usize, aux >= 0xF0);
        let index = Insn::Const(Const::Int(if a == 9 { 4 } else { a.rem_euclid(4) }));
        let insns = match code % 17 {
            1 => vec![Insn::Load(u16::from(aux % 5))],
            2 if depth >= 1 => vec![Insn::Store(u16::from(aux % 5))],
            3 if depth >= 1 => vec![Insn::Dup],
            4 if depth >= 1 => vec![Insn::Pop],
            5 if depth >= 2 => vec![Insn::Swap],
            6 if depth >= 2 => vec![Insn::Bin(BINOPS[pick % BINOPS.len()])],
            7 if depth >= 1 => vec![Insn::Un(UNOPS[pick % UNOPS.len()])],
            8 if depth >= 2 => vec![Insn::IfCmp(CMPS[pick % CMPS.len()], fwd(i, a))],
            9 if depth >= 1 => vec![Insn::If(CMPS[pick % CMPS.len()], fwd(i, a))],
            10 => vec![Insn::Goto(fwd(i, a))],
            11 => vec![Insn::Const(Const::Float(a as f64 / 4.0))],
            12 if aux % 4 == 0 => vec![Insn::Const(Const::Null), Insn::Store(ARRAY)],
            12 if aux % 4 == 1 => vec![Insn::Const(Const::Null)],
            12 => vec![Insn::Const(Const::Bool(a > 0))],
            13 => vec![
                Insn::Const(Const::Int(if a == -9 { -1 } else { 4 + a.rem_euclid(3) })),
                Insn::NewArray(ELEMENTS[pick % ELEMENTS.len()].clone()),
                Insn::Store(ARRAY),
            ],
            14 if raw && depth >= 2 => vec![Insn::ArrayLoad],
            14 => vec![Insn::Load(ARRAY), index, Insn::ArrayLoad],
            15 if raw && depth >= 3 => vec![Insn::ArrayStore],
            15 if depth >= 1 => {
                let at = [Insn::Load(ARRAY), Insn::Swap, index, Insn::Swap];
                at.into_iter().chain([Insn::ArrayStore]).collect()
            }
            16 if raw && depth >= 1 => vec![Insn::ArrayLength],
            16 => vec![Insn::Load(ARRAY), Insn::ArrayLength],
            _ => vec![Insn::Const(Const::Int(a))],
        };
        for insn in insns {
            let (pops, pushes) = insn.stack_effect(|_| unreachable!("no invokes"));
            if let (Some(t), true) = (insn.branch_target(), live) {
                match want[t] {
                    Some(h) if balance => level(&mut body, &mut depth, h + pops),
                    Some(_) => {}
                    None => want[t] = Some(depth - pops),
                }
            }
            depth = depth - pops + pushes;
            live &= !insn.is_terminator();
            body.push(insn);
        }
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
    for insn in &mut body {
        insn.remap_targets(|t| start[t]);
    }
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

/// The `Bin` rule: integer arithmetic wraps; a float on either side makes it IEEE
/// arithmetic over both operands read as floats (ints and booleans widen); a string,
/// null or reference operand fails with the interpreter's text.
fn reference_bin(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, ExecError> {
    if matches!(lhs, Value::Float(_)) || matches!(rhs, Value::Float(_)) {
        let non_number = || ExecError::Unsupported("float op on non-number".into());
        let a = lhs.as_float().ok_or_else(non_number)?;
        let b = rhs.as_float().ok_or_else(non_number)?;
        return Ok(Value::Float(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div if b == 0.0 => return Err(ExecError::DivisionByZero),
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            _ => return Err(ExecError::Unsupported(format!("bitwise {op:?} on floats"))),
        }));
    }
    let int = |v: Value| match v {
        Value::Int(_) | Value::Bool(_) => Ok(v.as_int().expect("a number")),
        other => Err(ExecError::Unsupported(format!(
            "{op:?} on non-number {other:?}"
        ))),
    };
    let (a, b) = (int(lhs)?, int(rhs)?);
    Ok(Value::Int(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Rem if b == 0 => return Err(ExecError::DivisionByZero),
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    }))
}

/// The `Un` rule: negation keeps a float a float and reads anything else as an int
/// (0 where it is none); `Not` is truthiness; the conversions read 0 for a non-number.
fn reference_un(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => match v {
            Value::Float(f) => Value::Float(-f),
            other => Value::Int(other.as_int().unwrap_or(0).wrapping_neg()),
        },
        UnOp::Not => Value::Bool(!v.is_truthy()),
        UnOp::IntToFloat => Value::Float(v.as_float().unwrap_or(0.0)),
        UnOp::FloatToInt => Value::Int(v.as_int().unwrap_or(0)),
    }
}

/// The `IfCmp` rule: two ints compare as ints; null equals only null; references
/// compare by identity and have no order; anything else compares as floats if both
/// read as numbers (NaN: never), and holds for no operator otherwise.
fn reference_cmp(op: CmpOp, lhs: Value, rhs: Value) -> bool {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => op.eval_ord(a.cmp(&b)),
        (Value::Null, Value::Null) => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        (Value::Null, _) | (_, Value::Null) => op == CmpOp::Ne,
        (Value::Ref(a), Value::Ref(b)) => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => false,
        },
        _ => match (lhs.as_float(), rhs.as_float()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).is_some_and(|o| op.eval_ord(o)),
            _ => false,
        },
    }
}

/// The `If` rule: null is zero, a reference is not, anything else reads as an int.
fn reference_if(op: CmpOp, v: Value) -> bool {
    match v {
        Value::Null => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        Value::Ref(_) => op == CmpOp::Ne,
        other => op.eval_ord(other.as_int().unwrap_or(0).cmp(&0)),
    }
}

/// The array `arr` refers to, or the fault of an array `what` on anything else.
fn reference_array<'h>(
    heap: &'h mut [Vec<Value>],
    arr: Value,
    what: &str,
) -> Result<&'h mut Vec<Value>, ExecError> {
    match arr {
        Value::Ref(ObjRef::Local(h)) => Ok(&mut heap[h as usize]),
        Value::Null => Err(ExecError::NullPointer(format!("array {what}"))),
        _ => Err(ExecError::Unsupported(format!(
            "array {what} on non-reference"
        ))),
    }
}

/// An array index: anything that reads as an int.
fn reference_index(idx: Value) -> Result<i64, ExecError> {
    idx.as_int()
        .ok_or_else(|| ExecError::Unsupported("array index not an int".into()))
}

/// Direct evaluation of the seed [`Insn`] semantics of a body `verify_method`
/// accepts: the value model (ints, floats, booleans, null, arrays), wrapping integer
/// arithmetic, the int/float coercions, comparison rules and fault texts mirror the
/// interpreter's contract, but execution walks the *undecoded* bytecode. Returns the
/// outcome and the number of seed instructions executed, the faulting one included.
/// A local past the argument slots reads as null, and arrays are numbered in
/// allocation order, as the interpreter's heap numbers them.
fn reference_eval(body: &[Insn], args: [i64; 4]) -> (Result<Value, ExecError>, u64) {
    let mut locals: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
    let mut stack: Vec<Value> = Vec::new();
    let mut heap: Vec<Vec<Value>> = Vec::new();
    let mut pc = 0usize;
    let mut steps = 0u64;
    loop {
        if pc >= body.len() {
            return (Ok(Value::Null), steps);
        }
        steps += 1;
        assert!(steps < 4_000_000, "reference evaluation ran away");
        macro_rules! pop {
            () => {
                stack.pop().expect("a verified body never underflows")
            };
        }
        macro_rules! or_fault {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(e) => return (Err(e), steps),
                }
            };
        }
        match &body[pc] {
            Insn::Const(c) => stack.push(match c {
                Const::Int(v) => Value::Int(*v),
                Const::Float(v) => Value::Float(*v),
                Const::Bool(v) => Value::Bool(*v),
                Const::Null => Value::Null,
                Const::Str(_) => panic!("the probes hold no strings"),
            }),
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
                locals[i] = pop!();
            }
            Insn::Dup => {
                let v = pop!();
                stack.extend([v, v]);
            }
            Insn::Pop => {
                pop!();
            }
            Insn::Swap => {
                let (top, below) = (pop!(), pop!());
                stack.extend([top, below]);
            }
            Insn::Bin(op) => {
                let (rhs, lhs) = (pop!(), pop!());
                stack.push(or_fault!(reference_bin(*op, lhs, rhs)));
            }
            Insn::Un(op) => {
                let v = pop!();
                stack.push(reference_un(*op, v));
            }
            Insn::IfCmp(op, target) => {
                let (rhs, lhs) = (pop!(), pop!());
                if reference_cmp(*op, lhs, rhs) {
                    pc = *target;
                    continue;
                }
            }
            Insn::If(op, target) => {
                if reference_if(*op, pop!()) {
                    pc = *target;
                    continue;
                }
            }
            Insn::Goto(target) => {
                pc = *target;
                continue;
            }
            Insn::NewArray(ty) => {
                let Some(len) = pop!().as_int() else {
                    return (
                        Err(ExecError::Unsupported("array length not an int".into())),
                        steps,
                    );
                };
                if len < 0 {
                    return (
                        Err(ExecError::IndexOutOfBounds { index: len, len: 0 }),
                        steps,
                    );
                }
                let zero = match ty {
                    Type::Int => Value::Int(0),
                    Type::Float => Value::Float(0.0),
                    Type::Bool => Value::Bool(false),
                    _ => Value::Null,
                };
                heap.push(vec![zero; len as usize]);
                stack.push(Value::Ref(ObjRef::Local(heap.len() as u32 - 1)));
            }
            Insn::ArrayLoad => {
                let (idx, arr) = (pop!(), pop!());
                let i = or_fault!(reference_index(idx));
                let data = or_fault!(reference_array(&mut heap, arr, "load"));
                let len = data.len();
                let v = data.get(i as usize).copied();
                stack.push(or_fault!(
                    v.ok_or(ExecError::IndexOutOfBounds { index: i, len })
                ));
            }
            Insn::ArrayStore => {
                let (val, idx, arr) = (pop!(), pop!(), pop!());
                let i = or_fault!(reference_index(idx));
                let data = or_fault!(reference_array(&mut heap, arr, "store"));
                let len = data.len();
                match data.get_mut(i as usize) {
                    Some(cell) => *cell = val,
                    None => return (Err(ExecError::IndexOutOfBounds { index: i, len }), steps),
                }
            }
            Insn::ArrayLength => {
                let data = or_fault!(reference_array(&mut heap, pop!(), "length"));
                stack.push(Value::Int(data.len() as i64));
            }
            Insn::ReturnValue => return (Ok(pop!()), steps),
            other => panic!("the probes hold no {other:?}"),
        }
        pc += 1;
    }
}

/// What running `probe` on `args` must give: for a body whose stack discipline or
/// branch range `verify_method` rejects, the entry fault with the verifier's error,
/// having run nothing; for any other, the reference evaluation. (A body may run off
/// its end, by falling or by a branch to one past its last instruction, and return
/// null: the verifier refuses that, the layout does not.)
fn expected_outcome(
    program: &Program,
    probe: MethodId,
    args: [i64; 4],
) -> (Result<Value, ExecError>, u64) {
    let method = program.method(probe);
    let rejects = |e: &VerifyError| match e {
        VerifyError::StackUnderflow { .. } | VerifyError::InconsistentStack { .. } => true,
        VerifyError::BranchOutOfRange { target, .. } => *target > method.body.len(),
        _ => false,
    };
    match verify_method(program, method) {
        Err(errors) if rejects(&errors[0]) => (
            Err(ExecError::Rejected(Rejected::Verify(errors[0].clone()))),
            0,
        ),
        _ => reference_eval(&method.body, args),
    }
}

/// One probe run under explicit layout options: the outcome plus the accounting the
/// parity suite compares bit-for-bit (virtual clock, instruction count) and the
/// dispatch count (which folding is allowed — expected — to shrink).
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

/// Asserts the folded and 1:1 executions of `body` agree with each other and with
/// [`expected_outcome`] on outcome (floats by their bits, through `Debug`),
/// instruction count and virtual clock (bitwise, against that many sequential
/// additions), for one argument vector.
fn assert_form_parity(body: &[Insn], args: [i64; 4]) {
    let (program, probe) = build_probe(body.to_vec());
    let (expected, steps) = expected_outcome(&program, probe, args);
    let (regs, rclock, rinstr, rdisp) = run_probe(&program, probe, &args, LayoutOptions::default());
    let (one, sclock, sinstr, sdisp) = run_probe(&program, probe, &args, NOFUSE);
    let expected = format!("{expected:?}");
    assert_eq!(
        format!("{regs:?}"),
        expected,
        "folded form diverged from the reference"
    );
    assert_eq!(
        format!("{one:?}"),
        expected,
        "1:1 form diverged from the reference"
    );
    assert_eq!(
        rinstr, steps,
        "folded form miscounted its seed instructions"
    );
    assert_eq!(sinstr, steps, "1:1 form miscounted its seed instructions");
    let clock = sequential_clock(steps);
    assert_eq!(
        rclock.to_bits(),
        clock.to_bits(),
        "folded clock is not {steps} sequential additions ({rclock} vs {clock})"
    );
    assert_eq!(
        sclock.to_bits(),
        clock.to_bits(),
        "1:1 clock is not {steps} sequential additions ({sclock} vs {clock})"
    );
    assert!(
        rdisp <= sdisp,
        "folding must never add dispatches ({rdisp} > {sdisp})"
    );
    if !body.contains(&Insn::Swap) {
        assert_eq!(sdisp, sinstr, "1:1 dispatches are 1:1 with instructions");
    }
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

/// Asserts `verify_method` rejects `body` with `e` alone, and that in both forms
/// the body is one op that faults on entry with that error for `args`, charging
/// nothing: no seed instruction, no dispatch, no clock.
fn assert_faults_on_entry(body: &[Insn], args: [i64; 4], e: VerifyError) {
    let (program, probe) = build_probe(body.to_vec());
    assert_eq!(
        verify_method(&program, program.method(probe)),
        Err(vec![e.clone()])
    );
    let rejected = Rejected::Verify(e);
    for opts in [LayoutOptions::default(), NOFUSE] {
        let layout = ProgramLayout::build_with(&program, opts);
        let fault = Op::Fault(Box::new(rejected.clone()));
        assert_eq!(layout.ops(probe).ops, [fault], "{opts:?}");
        let (got, clock, instructions, dispatches) = run_probe(&program, probe, &args, opts);
        assert_eq!(got, Err(ExecError::Rejected(rejected.clone())), "{opts:?}");
        assert_eq!(
            (instructions, dispatches, clock.to_bits()),
            (0, 0, sequential_clock(0).to_bits()),
            "{opts:?}: an entry fault charges nothing"
        );
    }
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

/// A `Swap` runs in the register form — two `Mov`s through the scratch register
/// after the locals, whose reader is placed before a second `Swap` reuses it — while
/// a `Swap` that pops below the bottom, and a join of two stack heights, fault on
/// entry in both forms.
#[test]
fn a_swap_body_runs_in_registers_and_an_inconsistent_join_faults_on_entry() {
    // a1 - a0: locals 0..3, the scratch register 4, then slots 5 and 6.
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Swap,
        Insn::Bin(BinOp::Sub),
        Insn::ReturnValue,
    ];
    let through_scratch = |op: &Op| *op == Op::Mov(4, 5);
    assert_translated_parity(&body, through_scratch, [9, 4, 0, 0]);
    // a1 - a0 * (a3 - a2): the first swap's scratch reader is placed at home
    // before the second swap writes the scratch.
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Swap,
        Insn::Load(2),
        Insn::Load(3),
        Insn::Swap,
        Insn::Bin(BinOp::Sub),
        Insn::Bin(BinOp::Mul),
        Insn::Bin(BinOp::Sub),
        Insn::ReturnValue,
    ];
    let kept = |op: &Op| *op == Op::Mov(6, 4);
    assert_translated_parity(&body, kept, [2, 30, 5, 7]);
    // A swap whose slots are placed at a branch and swapped back on one path.
    let body = vec![
        Insn::Load(0),
        Insn::Load(1),
        Insn::Swap,
        Insn::Load(2),
        Insn::If(CmpOp::Gt, 6), // a2 > 0: a1 - a0, else a0 - a1
        Insn::Swap,
        Insn::Bin(BinOp::Sub),
        Insn::ReturnValue,
    ];
    assert_translated_parity(&body, through_scratch, [9, 4, 1, 0]);
    assert_translated_parity(&body, through_scratch, [9, 4, -1, 0]);

    let body = vec![Insn::Const(Const::Int(1)), Insn::Swap, Insn::ReturnValue];
    let probe = MethodId(0);
    let underflow = VerifyError::StackUnderflow {
        method: probe,
        pc: 1,
    };
    assert_faults_on_entry(&body, [0, 0, 0, 0], underflow);
    let body = vec![
        Insn::Load(0),
        Insn::If(CmpOp::Gt, 3), // a0 > 0: arrives at the Bin with an empty stack
        Insn::Load(1),
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
    ];
    let join = VerifyError::InconsistentStack {
        method: probe,
        pc: 3,
    };
    assert_faults_on_entry(&body, [1, 0, 0, 0], join.clone());
    assert_faults_on_entry(&body, [-1, 0, 0, 0], join);
}

/// A body that pops below the bottom on some path is rejected whole: it faults on
/// entry, whatever path the arguments would take, and charges nothing — not the
/// instructions before the pop, nor the pop itself.
#[test]
fn an_underflowing_body_faults_on_entry_and_charges_nothing() {
    let probe = MethodId(0);
    let body = vec![
        Insn::Const(Const::Int(3)),
        Insn::Bin(BinOp::Add),
        Insn::Store(2),
        Insn::Load(2),
        Insn::ReturnValue,
    ];
    let underflow = VerifyError::StackUnderflow {
        method: probe,
        pc: 1,
    };
    assert_faults_on_entry(&body, [0, 0, 0, 0], underflow);
    let body = vec![
        Insn::Const(Const::Int(1)),
        Insn::Pop,
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 5),
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    let underflow = VerifyError::StackUnderflow {
        method: probe,
        pc: 3,
    };
    assert_faults_on_entry(&body, [0, 0, 0, 0], underflow);
}

/// A body whose middle is reached only by a backward `Goto`: the translation meets
/// that stretch before any branch to it, so it takes the stretch's height from the
/// verifier, and the whole body runs in the register form.
#[test]
fn a_body_reached_only_by_a_backward_goto_takes_the_register_form() {
    // a0 = a0 * 2 + 0, jumping back over the return that reads it: a1 + 2 * a0.
    let body = vec![
        Insn::Goto(5),
        Insn::Load(1), // reached only from the Goto at 9
        Insn::Load(0),
        Insn::Bin(BinOp::Add),
        Insn::ReturnValue,
        Insn::Load(0),
        Insn::Const(Const::Int(2)),
        Insn::Bin(BinOp::Mul),
        Insn::Store(0),
        Insn::Goto(1),
    ];
    let (program, probe) = build_probe(body.clone());
    for opts in [LayoutOptions::default(), NOFUSE] {
        let layout = ProgramLayout::build_with(&program, opts);
        assert!(!faults_on_entry(layout.ops(probe)), "{opts:?}");
        assert_src_pc_is_the_seed_table(&layout, &program, probe);
    }
    let add = |op: &Op| *op == Op::RBin(BinOp::Add, 4, 1, 0);
    assert_translated_parity(&body, add, [21, 5, 0, 0]);
    assert_translated_parity(&body, add, [-3, 0, 0, 0]);
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
/// stack height than the fall-through, so the body faults on entry — whichever way
/// the arguments would have gone.
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
    let join = VerifyError::InconsistentStack {
        method: MethodId(0),
        pc: 3,
    };
    assert_faults_on_entry(&body, [1, 7, 0, 0], join.clone());
    assert_faults_on_entry(&body, [-1, 7, 0, 0], join);
}

/// A join with two stack heights where the branch lands on the start of a sequence:
/// the entry fault carries the seed pc of the join.
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
    let join = VerifyError::InconsistentStack {
        method: MethodId(0),
        pc: 4,
    };
    for args in [[1, 0, 0, 0], [1, 2, 3, 0], [-1, 2, 3, 0]] {
        assert_faults_on_entry(&body, args, join.clone());
    }
}

/// `Load; IfCmp` on an otherwise empty stack pops below the bottom: the body faults
/// on entry with the IfCmp's seed pc.
#[test]
fn load_ifcmp_underflow_reports_the_ifcmp_seed_pc() {
    let body = vec![
        Insn::Load(0),
        Insn::IfCmp(CmpOp::Eq, 3), // lhs pop underflows: nothing below the load
        Insn::Const(Const::Int(1)),
        Insn::ReturnValue,
    ];
    let underflow = VerifyError::StackUnderflow {
        method: MethodId(0),
        pc: 1,
    };
    assert_faults_on_entry(&body, [1, 0, 0, 0], underflow);
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
    for n in [0, 1, 7] {
        let (expected, steps) = reference_eval(&body, [n, 0, 0, 0]);
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

/// Asserts `Kernel::<name>` translates with an op matching `expect`, and that it
/// runs on `args` to the same outcome, clock bits and seed count folded and 1:1,
/// with no more dispatches folded. Returns the outcome.
fn assert_kernel_parity(name: &str, expect: fn(&Op) -> bool, args: &[i64]) -> String {
    let program = autodist_ir::frontend::compile_source(KERNEL_SRC).unwrap();
    let class = program.class_by_name("Kernel").unwrap();
    let method = program.find_method(class, name).unwrap();
    let layout = ProgramLayout::build(&program);
    let mops = layout.ops(method);
    assert!(!faults_on_entry(mops), "{name} faults on entry");
    assert!(mops.ops.iter().any(expect), "{name}: {:?}", mops.ops);
    let (regs, rclock, rinstr, rdisp) =
        run_kernel_method(&program, name, args, LayoutOptions::default());
    let (one, sclock, sinstr, sdisp) = run_kernel_method(&program, name, args, NOFUSE);
    assert_eq!(regs, one, "{name}{args:?}: outcome");
    assert_eq!(rclock, sclock, "{name}{args:?}: clock bits");
    assert_eq!(rinstr, sinstr, "{name}{args:?}: seed count");
    assert_eq!(sdisp, sinstr, "{name}{args:?}: 1:1 dispatches are 1:1");
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

/// A boolean materialised in a register and tested by `RIf`, folded as 1:1.
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
/// virtual clocks (bitwise) and instruction counts folded and 1:1 — folding strictly
/// reduces dispatch-loop iterations on every one of them, and 1:1 dispatches one op
/// per seed instruction.
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
        assert_eq!(sdisp, sinstr, "{}: 1:1 dispatches are 1:1", w.name);
        assert!(
            rdisp < sdisp,
            "{}: folding should shorten the dispatch stream ({rdisp} vs {sdisp})",
            w.name
        );
    }
}

/// Random bodies generated, accepted by `verify_method`, and accepted with a
/// `Swap`, across the cases of [`random_int_body_cases`].
static GENERATED: AtomicUsize = AtomicUsize::new(0);
static ACCEPTED: AtomicUsize = AtomicUsize::new(0);
static SWAPPING: AtomicUsize = AtomicUsize::new(0);

/// Random bodies produce the same outcome — value or typed fault — through the
/// decode + explicit-stack loop (folded *and* 1:1) as [`expected_outcome`]: direct
/// evaluation of the bytecode where `verify_method` accepts the body, the entry
/// fault with its error where it does not. Both forms report the reference's
/// instruction count and its count of sequential clock additions, bit for bit. The
/// generated bodies branch forward into arbitrary offsets, so joins of two heights
/// (and the entry faults they force) are routine; at least half of the bodies must
/// verify all the same, and some that swap.
#[test]
fn random_int_bodies_execute_identically() {
    random_int_body_cases();
    let load = |n: &AtomicUsize| n.load(Ordering::Relaxed);
    let (generated, accepted, swapping) = (load(&GENERATED), load(&ACCEPTED), load(&SWAPPING));
    eprintln!(
        "verify_method accepted {accepted} of {generated} random bodies ({:.1} %), \
         {swapping} of them with a Swap",
        100.0 * accepted as f64 / generated as f64
    );
    assert!(2 * accepted >= generated, "too few random bodies verify");
    assert!(accepted < generated, "no random body faults on entry");
    assert!(swapping > 0, "no verified random body swaps");
}

proptest! {
    /// The cases of [`random_int_bodies_execute_identically`].
    fn random_int_body_cases(
        tokens in prop::collection::vec((0u8..68, -9i64..10, any::<u8>()), 0..80),
        a0 in -100i64..100,
        a1 in -100i64..100,
        a2 in -100i64..100,
        a3 in -100i64..100,
    ) {
        let body = materialize(&tokens);
        let (program, probe) = build_probe(body.clone());
        let folded = ProgramLayout::build(&program);
        let one_to_one = ProgramLayout::build_with(&program, NOFUSE);
        assert_src_pc_is_the_seed_table(&folded, &program, probe);
        assert_src_pc_is_the_seed_table(&one_to_one, &program, probe);
        let swaps = body.contains(&Insn::Swap);
        GENERATED.fetch_add(1, Ordering::Relaxed);
        if faults_on_entry(folded.ops(probe)) {
            prop_assert_eq!(&one_to_one.ops(probe).ops, &folded.ops(probe).ops);
        } else {
            ACCEPTED.fetch_add(1, Ordering::Relaxed);
            SWAPPING.fetch_add(usize::from(swaps), Ordering::Relaxed);
            if !swaps {
                prop_assert_eq!(one_to_one.ops(probe).ops.len(), body.len());
            }
        }

        let args = [a0, a1, a2, a3];
        let (expected, steps) = expected_outcome(&program, probe, args);
        let (rgot, rclock, rinstr, rdisp) = run_probe(&program, probe, &args, LayoutOptions::default());
        let (sgot, sclock, sinstr, sdisp) = run_probe(&program, probe, &args, NOFUSE);
        let expected = format!("{expected:?}");
        prop_assert_eq!(format!("{rgot:?}"), expected.clone());
        prop_assert_eq!(format!("{sgot:?}"), expected);
        prop_assert_eq!(rinstr, steps);
        prop_assert_eq!(sinstr, steps);
        let clock = sequential_clock(steps).to_bits();
        prop_assert_eq!(rclock.to_bits(), clock);
        prop_assert_eq!(sclock.to_bits(), clock);
        prop_assert!(rdisp <= sdisp);
        if !swaps {
            prop_assert_eq!(sdisp, steps);
        }
    }
}
