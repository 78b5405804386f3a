//! Human-readable listings of bytecode and quads.
//!
//! [`print_quads`] reproduces the layout of the paper's Figure 5:
//!
//! ```text
//! BB0 (ENTRY) (in: <none>, out: BB2)
//! BB2 (in: BB0 (ENTRY), out: BB3, BB4)
//! 1    MOVE_I R1 int, IConst: 4
//! 2    IFCMP_I IConst: 4, IConst: 2, LE, BB4
//! ...
//! ```
//!
//! [`print_bytecode`] produces a `javap`-style listing used by the Figure 8/9
//! transformation demonstrations.
//!
//! [`print_decoded`] renders what the interpreter actually executes: the decoded
//! [`Op`] stream of a method — the register form by default — annotating every op
//! that does not stand for exactly one seed instruction with its seed range.

use std::fmt::Write as _;

use crate::bytecode::{Insn, InvokeKind};
use crate::layout::{Op, ProgramLayout, NO_REG, NO_SLOT};
use crate::program::{FieldRef, MethodId, Program};
use crate::quad::{BlockId, Quad, QuadMethod};

/// Formats a block id the way the paper does, tagging entry/exit.
fn block_name(id: BlockId) -> String {
    match id {
        QuadMethod::ENTRY => "BB0 (ENTRY)".to_string(),
        QuadMethod::EXIT => "BB1 (EXIT)".to_string(),
        b => format!("{b}"),
    }
}

fn block_list(ids: &[BlockId]) -> String {
    if ids.is_empty() {
        "<none>".to_string()
    } else {
        ids.iter()
            .map(|&b| block_name(b))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Renders a quad to a single line in the Figure 5 style.
pub fn format_quad(program: &Program, q: &Quad) -> String {
    match q {
        Quad::Move { dst, src } => format!("MOVE_I {dst} int, {src}"),
        Quad::Bin { op, dst, lhs, rhs } => {
            format!("{}_I {dst} int, {lhs}, {rhs}", op.mnemonic())
        }
        Quad::Un { op, dst, src } => format!("{}_I {dst} int, {src}", op.mnemonic()),
        Quad::IfCmp {
            op,
            lhs,
            rhs,
            target,
        } => format!(
            "IFCMP_I {lhs}, {rhs}, {}, {}",
            op.mnemonic(),
            block_name(*target)
        ),
        Quad::Goto { target } => format!("GOTO {}", block_name(*target)),
        Quad::New { dst, class } => format!("NEW {dst}, {}", program.class(*class).name),
        Quad::NewArray { dst, elem, len } => format!("NEWARRAY {dst}, {elem}, {len}"),
        Quad::ALoad { dst, arr, idx } => format!("ALOAD {dst}, {arr}[{idx}]"),
        Quad::AStore { arr, idx, val } => format!("ASTORE {arr}[{idx}], {val}"),
        Quad::ALen { dst, arr } => format!("ARRAYLENGTH {dst}, {arr}"),
        Quad::GetField { dst, obj, field } => {
            format!("GETFIELD {dst}, {obj}.{}", program.field(*field).name)
        }
        Quad::PutField { obj, field, val } => {
            format!("PUTFIELD {obj}.{}, {val}", program.field(*field).name)
        }
        Quad::GetStatic { dst, field } => format!(
            "GETSTATIC {dst}, {}.{}",
            program.class(field.class).name,
            program.field(*field).name
        ),
        Quad::PutStatic { field, val } => format!(
            "PUTSTATIC {}.{}, {val}",
            program.class(field.class).name,
            program.field(*field).name
        ),
        Quad::Invoke {
            kind,
            dst,
            method,
            args,
        } => {
            let m = program.method(*method);
            let cname = &program.class(m.class).name;
            let argstr = args
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let kindstr = match kind {
                InvokeKind::Virtual => "INVOKEVIRTUAL",
                InvokeKind::Static => "INVOKESTATIC",
                InvokeKind::Special => "INVOKESPECIAL",
            };
            match dst {
                Some(d) => format!("{kindstr} {d}, {cname}.{}({argstr})", m.name),
                None => format!("{kindstr} {cname}.{}({argstr})", m.name),
            }
        }
        Quad::Return { val: Some(v) } => format!("RETURN_I {v}"),
        Quad::Return { val: None } => "RETURN_V".to_string(),
    }
}

/// Renders a whole quad method in the Figure 5 listing format.
pub fn print_quads(program: &Program, qm: &QuadMethod) -> String {
    let mut out = String::new();
    let mut counter = 1usize;
    for block in &qm.blocks {
        // Skip unreachable empty helper blocks except entry/exit.
        if block.quads.is_empty()
            && block.preds.is_empty()
            && block.id != QuadMethod::ENTRY
            && block.id != QuadMethod::EXIT
        {
            continue;
        }
        let _ = writeln!(
            out,
            "{} (in: {}, out: {})",
            block_name(block.id),
            block_list(&block.preds),
            block_list(&block.succs)
        );
        for q in &block.quads {
            let _ = writeln!(out, "{counter:>4}    {}", format_quad(program, q));
            counter += 1;
        }
    }
    out
}

/// Renders a bytecode body as a numbered, `javap`-style listing (Figures 8 and 9).
pub fn print_bytecode(program: &Program, method: MethodId) -> String {
    let m = program.method(method);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// {}.{}({}) : {}",
        program.class(m.class).name,
        m.name,
        m.params
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        m.ret
    );
    for (pc, insn) in m.body.iter().enumerate() {
        let _ = writeln!(out, "{pc:>4}: {}", format_insn(program, insn));
    }
    out
}

/// Renders a single bytecode instruction.
pub fn format_insn(program: &Program, insn: &Insn) -> String {
    match insn {
        Insn::Const(c) => format!("ldc {c}"),
        Insn::Load(n) => format!("load {n}"),
        Insn::Store(n) => format!("store {n}"),
        Insn::Dup => "dup".to_string(),
        Insn::Pop => "pop".to_string(),
        Insn::Swap => "swap".to_string(),
        Insn::Bin(op) => op.mnemonic().to_lowercase(),
        Insn::Un(op) => op.mnemonic().to_lowercase(),
        Insn::IfCmp(op, t) => format!("if_cmp{} {t}", op.mnemonic().to_lowercase()),
        Insn::If(op, t) => format!("if{} {t}", op.mnemonic().to_lowercase()),
        Insn::Goto(t) => format!("goto {t}"),
        Insn::New(c) => format!("new {}", program.class(*c).name),
        Insn::NewArray(t) => format!("newarray {t}"),
        Insn::ArrayLoad => "aaload".to_string(),
        Insn::ArrayStore => "aastore".to_string(),
        Insn::ArrayLength => "arraylength".to_string(),
        Insn::GetField(f) => format!(
            "getfield {}.{}",
            program.class(f.class).name,
            program.field(*f).name
        ),
        Insn::PutField(f) => format!(
            "putfield {}.{}",
            program.class(f.class).name,
            program.field(*f).name
        ),
        Insn::GetStatic(f) => format!(
            "getstatic {}.{}",
            program.class(f.class).name,
            program.field(*f).name
        ),
        Insn::PutStatic(f) => format!(
            "putstatic {}.{}",
            program.class(f.class).name,
            program.field(*f).name
        ),
        Insn::Invoke(kind, m) => {
            let callee = program.method(*m);
            let cname = &program.class(callee.class).name;
            let k = invoke_mnemonic(*kind);
            format!("{k} {cname}.{}:({})", callee.name, callee.params.len())
        }
        Insn::Return => "return".to_string(),
        Insn::ReturnValue => "vreturn".to_string(),
    }
}

/// Renders a method's decoded op stream (the register form with the default layout
/// options), one op per line. An op that does not stand for exactly one seed
/// instruction is annotated with the seed pc range of its window, read off
/// [`crate::layout::MethodOps::src_pc`] (`-` for none).
pub fn print_decoded(program: &Program, layout: &ProgramLayout, method: MethodId) -> String {
    let m = program.method(method);
    let mops = layout.ops(method);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// {}.{} decoded: {} ops for {} insns",
        program.class(m.class).name,
        m.name,
        mops.ops.len(),
        m.body.len()
    );
    for (pc, op) in mops.ops.iter().enumerate() {
        let op = format_op(program, layout, op);
        let (from, to) = (mops.seed_pc(pc), mops.seed_pc(pc + 1));
        let _ = match to - from {
            1 => writeln!(out, "{pc:>4}: {op}"),
            0 => writeln!(out, "{pc:>4}: {op}  ; insns -"),
            _ => writeln!(out, "{pc:>4}: {op}  ; insns {from}..={}", to - 1),
        };
    }
    out
}

/// The mnemonic of an invoke kind.
fn invoke_mnemonic(kind: InvokeKind) -> &'static str {
    match kind {
        InvokeKind::Virtual => "invokevirtual",
        InvokeKind::Static => "invokestatic",
        InvokeKind::Special => "invokespecial",
    }
}

/// Renders a single decoded op. Register operands print as `r<n>`: the locals
/// first, then one register per operand-stack slot.
pub fn format_op(program: &Program, layout: &ProgramLayout, op: &Op) -> String {
    let field = |fr: &FieldRef| {
        format!(
            "{}.{}",
            program.class(fr.class).name,
            program.field(*fr).name
        )
    };
    let invoke = |kind: InvokeKind, target: MethodId, args: String| {
        let callee = program.method(target);
        let (k, class) = (invoke_mnemonic(kind), &program.class(callee.class).name);
        format!("{k} {class}.{}:({args})", callee.name)
    };
    let slot = |s: u32| {
        if s == NO_SLOT {
            "-".to_string()
        } else {
            s.to_string()
        }
    };
    match op {
        Op::ConstInt(v) => format!("const.i {v}"),
        Op::ConstFloat(v) => format!("const.f {v}"),
        Op::ConstBool(v) => format!("const.b {v}"),
        Op::ConstStr(i) => format!("const.s {:?}", layout.literals.get(*i).unwrap_or_default()),
        Op::ConstNull => "const.null".to_string(),
        Op::Load(n) => format!("load {n}"),
        Op::Store(n) => format!("store {n}"),
        Op::Dup => "dup".to_string(),
        Op::Pop => "pop".to_string(),
        Op::Swap => "swap".to_string(),
        Op::Bin(op) => op.mnemonic().to_lowercase(),
        Op::Un(op) => op.mnemonic().to_lowercase(),
        Op::IfCmp(c, t) => format!("if_cmp{} {t}", c.mnemonic().to_lowercase()),
        Op::If(c, t) => format!("if{} {t}", c.mnemonic().to_lowercase()),
        Op::Goto(t) => format!("goto {t}"),
        Op::New(c) => format!("new {}", program.class(*c).name),
        Op::NewArray(init) => format!("newarray {init:?}"),
        Op::ArrayLoad => "aaload".to_string(),
        Op::ArrayStore => "aastore".to_string(),
        Op::ArrayLength => "arraylength".to_string(),
        Op::GetField { slot: s, fr } => format!("getfield [{}] {}", slot(*s), field(fr)),
        Op::PutField { slot: s, fr } => format!("putfield [{}] {}", slot(*s), field(fr)),
        Op::GetStatic(s) => format!("getstatic [{}]", slot(*s)),
        Op::PutStatic(s) => format!("putstatic [{}]", slot(*s)),
        Op::Invoke {
            kind,
            target,
            nargs,
            push_ret,
            ..
        } => invoke(*kind, *target, nargs.to_string()) + if *push_ret { " -> push" } else { "" },
        Op::Return => "return".to_string(),
        Op::ReturnValue => "vreturn".to_string(),
        Op::Nop => "nop".to_string(),
        Op::Mov(d, r) => format!("mov r{d}, r{r}"),
        Op::SetI(d, k) => format!("set.i r{d}, {k}"),
        Op::SetF(d, k) => format!("set.f r{d}, {k}"),
        Op::SetB(d, k) => format!("set.b r{d}, {k}"),
        Op::SetS(d, i) => format!(
            "set.s r{d}, {:?}",
            layout.literals.get(*i).unwrap_or_default()
        ),
        Op::SetN(d) => format!("set.null r{d}"),
        Op::RBin(op, d, a, b) => format!("{} r{d}, r{a}, r{b}", op.mnemonic().to_lowercase()),
        Op::RBinI(op, d, a, k) => format!("{} r{d}, r{a}, {k}", op.mnemonic().to_lowercase()),
        Op::RUn(op, d, a) => format!("{} r{d}, r{a}", op.mnemonic().to_lowercase()),
        Op::RIfCmp(c, a, b, t) => format!("if_cmp{} r{a}, r{b}, {t}", c.mnemonic().to_lowercase()),
        Op::RIfCmpI(c, a, k, t) => format!("if_cmp{} r{a}, {k}, {t}", c.mnemonic().to_lowercase()),
        Op::RIf(c, a, t) => format!("if{} r{a}, {t}", c.mnemonic().to_lowercase()),
        Op::RNew(d, c) => format!("new r{d}, {}", program.class(*c).name),
        Op::RNewArray(d, n, init) => format!("newarray r{d}, r{n} {init:?}"),
        Op::RArrayLoad(d, a, i) => format!("aaload r{d}, r{a}[r{i}]"),
        Op::RArrayStore(a, i, v) => format!("aastore r{a}[r{i}], r{v}"),
        Op::RArrayLength(d, a) => format!("arraylength r{d}, r{a}"),
        Op::RGetField(d, o, s) => format!("getfield r{d}, r{o} [{}]", slot(*s)),
        Op::RPutField(o, v, s) => format!("putfield r{o} [{}], r{v}", slot(*s)),
        Op::RGetStatic(d, s) => format!("getstatic r{d}, [{}]", slot(*s)),
        Op::RPutStatic(v, s) => format!("putstatic [{}], r{v}", slot(*s)),
        Op::RInvoke {
            kind,
            dst,
            args,
            nargs,
            target,
            ..
        } => match *dst {
            NO_REG => invoke(*kind, *target, format!("r{args}..+{nargs}")),
            d => invoke(*kind, *target, format!("r{args}..+{nargs}")) + &format!(" -> r{d}"),
        },
        Op::RReturnValue(r) => format!("vreturn r{r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure5_example as example;
    use crate::layout::LayoutOptions;
    use crate::lower::lower_method;

    #[test]
    fn quad_listing_mentions_entry_exit_and_opcodes() {
        let (p, id) = example();
        let qm = lower_method(&p, p.method(id)).unwrap();
        let listing = print_quads(&p, &qm);
        assert!(listing.contains("BB0 (ENTRY)"));
        assert!(listing.contains("BB1 (EXIT)"));
        assert!(listing.contains("MOVE_I"));
        assert!(listing.contains("IFCMP_I"));
        assert!(listing.contains("RETURN_I"));
        assert!(listing.contains("LE"));
    }

    #[test]
    fn bytecode_listing_is_numbered() {
        let (p, id) = example();
        let listing = print_bytecode(&p, id);
        assert!(listing.contains("0: ldc IConst: 4"));
        assert!(listing.contains("Example.ex"));
        assert!(listing.lines().count() > 5);
    }

    #[test]
    fn every_quad_formats_without_panic() {
        let (p, id) = example();
        let qm = lower_method(&p, p.method(id)).unwrap();
        for (_, q) in qm.iter_quads() {
            let s = format_quad(&p, q);
            assert!(!s.is_empty());
        }
    }

    /// The register listing: operands in place, windows annotated.
    #[test]
    fn decoded_listing_shows_superinstructions_with_seed_ranges() {
        let (p, id) = example();
        let layout = ProgramLayout::build(&p);
        let listing = print_decoded(&p, &layout, id);
        // The loop head compares a local with a constant in place, and the
        // increment's `Store` retargets its add.
        assert!(listing.contains("Example.ex decoded:"), "{listing}");
        assert!(listing.contains("if_cmple r1, 2,"), "{listing}");
        assert!(listing.contains("add r1, r1, 1"), "{listing}");
        // Ops are annotated with the seed insn range they stand for.
        assert!(listing.contains("; insns 2..=4"), "{listing}");
        assert!(listing.contains("; insns 5..=7"), "{listing}");
    }

    #[test]
    fn unfused_decoded_listing_has_one_line_per_insn() {
        let (p, id) = example();
        let layout = ProgramLayout::build_with(&p, LayoutOptions { fuse: false });
        let listing = print_decoded(&p, &layout, id);
        let body_len = p.method(id).body.len();
        // Header line plus one line per decoded op, none annotated.
        assert_eq!(listing.lines().count(), body_len + 1, "{listing}");
        assert!(!listing.contains("; insns"), "{listing}");
        assert!(listing.contains("load 1"), "{listing}");
    }

    #[test]
    fn every_decoded_op_formats_without_panic() {
        let (p, id) = example();
        for opts in [LayoutOptions { fuse: true }, LayoutOptions { fuse: false }] {
            let layout = ProgramLayout::build_with(&p, opts);
            for op in &layout.ops(id).ops {
                let s = format_op(&p, &layout, op);
                assert!(!s.is_empty());
            }
        }
    }
}
