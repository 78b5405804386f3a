//! A structural verifier for bytecode bodies.
//!
//! The rewriting passes (communication generation in particular) transform method bodies
//! in place; the verifier gives the same guarantee the JVM verifier gives the paper's
//! system — a transformed body still "makes sense" before it is handed to the runtime:
//!
//! * all branch targets are in range,
//! * the operand stack never underflows and has consistent heights at join points,
//! * all referenced classes / methods / fields exist,
//! * the method ends on a terminator on every path.

use std::sync::Arc;

use crate::bytecode::Insn;
use crate::cfg::BytecodeCfg;
use crate::program::{Method, MethodId, Program, Type};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A branch points past the end of the body.
    BranchOutOfRange {
        method: MethodId,
        pc: usize,
        target: usize,
    },
    /// Operand stack underflow.
    StackUnderflow { method: MethodId, pc: usize },
    /// Two paths reach the same pc with different stack heights.
    InconsistentStack { method: MethodId, pc: usize },
    /// A referenced entity does not exist in the program.
    DanglingReference {
        method: MethodId,
        pc: usize,
        what: &'static str,
    },
    /// Execution can fall off the end of the body.
    MissingReturn { method: MethodId },
    /// The program has no entry point.
    NoEntryPoint,
    /// The entry point is not a static method.
    EntryNotStatic { method: MethodId },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BranchOutOfRange { method, pc, target } => {
                write!(f, "{method:?}@{pc}: branch target {target} out of range")
            }
            VerifyError::StackUnderflow { method, pc } => {
                write!(f, "{method:?}@{pc}: stack underflow")
            }
            VerifyError::InconsistentStack { method, pc } => {
                write!(f, "{method:?}@{pc}: inconsistent stack heights at join")
            }
            VerifyError::DanglingReference { method, pc, what } => {
                write!(f, "{method:?}@{pc}: dangling {what} reference")
            }
            VerifyError::MissingReturn { method } => {
                write!(f, "{method:?}: execution can fall off the end of the body")
            }
            VerifyError::NoEntryPoint => write!(f, "program has no entry point"),
            VerifyError::EntryNotStatic { method } => {
                write!(f, "entry point {method:?} is not static")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole program: the entry point plus every method body.
pub fn verify_program(program: &Program) -> Result<(), Vec<VerifyError>> {
    verify_copies([program]).map_err(|(_, errors)| errors)
}

/// Verifies the per-node copies of one program, each distinct method body once.
///
/// [`verify_method`] reads a program only through its signature tables (class count,
/// field counts, callee signatures), which copies of one program share, so a method
/// `Arc` that verified in one copy is verified in all of them; the entry checks stay
/// per copy. On failure returns the index of the first copy holding an offending
/// method, with every error of that copy. A copy whose tables differ from its
/// predecessor's starts over rather than trust it.
pub fn verify_copies<'p>(
    copies: impl IntoIterator<Item = &'p Program>,
) -> Result<(), (usize, Vec<VerifyError>)> {
    // The method `Arc` last verified at each method index.
    let mut verified: Vec<*const Method> = Vec::new();
    let mut previous: Option<&Program> = None;
    for (index, program) in copies.into_iter().enumerate() {
        if previous.is_some_and(|p| !same_signatures(p, program)) {
            verified.clear();
        }
        verified.resize(program.methods.len(), std::ptr::null());
        previous = Some(program);
        let mut errors = Vec::new();
        match program.entry {
            None => errors.push(VerifyError::NoEntryPoint),
            Some(e) if !program.method(e).is_static => {
                errors.push(VerifyError::EntryNotStatic { method: e });
            }
            Some(_) => {}
        }
        for (m, seen) in program.methods.iter().zip(&mut verified) {
            if m.body.is_empty() || std::mem::replace(seen, Arc::as_ptr(m)) == Arc::as_ptr(m) {
                continue;
            }
            if let Err(mut es) = verify_method(program, m) {
                errors.append(&mut es);
            }
        }
        if !errors.is_empty() {
            return Err((index, errors));
        }
    }
    Ok(())
}

/// Whether `a` and `b` answer everything [`verify_method`] asks of a program alike.
fn same_signatures(a: &Program, b: &Program) -> bool {
    a.classes.len() == b.classes.len()
        && a.methods.len() == b.methods.len()
        && (a.classes.iter().zip(&b.classes))
            .all(|(x, y)| Arc::ptr_eq(x, y) || x.fields.len() == y.fields.len())
        && a.methods.iter().zip(&b.methods).all(|(x, y)| {
            Arc::ptr_eq(x, y)
                || (x.params.len() == y.params.len())
                    && (x.ret == Type::Void) == (y.ret == Type::Void)
        })
}

/// Verifies a single method body.
pub fn verify_method(program: &Program, method: &Method) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let body = &method.body;
    let n = body.len();

    // 1. Branch targets and entity references.
    for (pc, insn) in body.iter().enumerate() {
        if let Some(t) = insn.branch_target() {
            if t >= n {
                errors.push(VerifyError::BranchOutOfRange {
                    method: method.id,
                    pc,
                    target: t,
                });
            }
        }
        let dangling = |what: &'static str| VerifyError::DanglingReference {
            method: method.id,
            pc,
            what,
        };
        match insn {
            Insn::New(c) if c.0 as usize >= program.classes.len() => {
                errors.push(dangling("class"));
            }
            Insn::GetField(f) | Insn::PutField(f) | Insn::GetStatic(f) | Insn::PutStatic(f)
                if (f.class.0 as usize >= program.classes.len()
                    || f.index as usize >= program.class(f.class).fields.len()) =>
            {
                errors.push(dangling("field"));
            }
            Insn::Invoke(_, m) if m.0 as usize >= program.methods.len() => {
                errors.push(dangling("method"));
            }
            _ => {}
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // 2. Stack discipline via CFG simulation.
    let cfg = BytecodeCfg::build(body);
    entry_heights(program, method, &cfg).map_err(|e| vec![e])?;

    // 3. Every reachable block either ends on a terminator or falls through to another
    //    block; the final instruction of the body must not fall off the end.
    let reach = cfg.reachable();
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        if !reach[b] || start == end {
            continue;
        }
        let last = &body[end - 1];
        if end == n && !last.is_terminator() {
            errors.push(VerifyError::MissingReturn { method: method.id });
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// The operand-stack height at entry of each block of `cfg` (`None` where no path
/// from the entry reaches the block), by worklist propagation from height 0. Fails
/// on the first instruction that pops more than the stack holds and on the first
/// join reached at two heights. The verifier, the quad lowering and the layout's
/// register translation share it.
pub(crate) fn entry_heights(
    program: &Program,
    method: &Method,
    cfg: &BytecodeCfg,
) -> Result<Vec<Option<usize>>, VerifyError> {
    let mut heights = vec![None; cfg.block_count()];
    if heights.is_empty() {
        return Ok(heights);
    }
    heights[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut h = heights[b].expect("a queued block has a height");
        let (start, end) = cfg.ranges[b];
        for (pc, insn) in (start..end).zip(&method.body[start..end]) {
            let (pops, pushes) = insn.stack_effect(|m| {
                let callee = program.method(m);
                (callee.params.len(), callee.ret != Type::Void)
            });
            if h < pops {
                return Err(VerifyError::StackUnderflow {
                    method: method.id,
                    pc,
                });
            }
            h = h - pops + pushes;
        }
        for &s in cfg.succs(b) {
            match heights[s] {
                Some(prev) if prev != h => {
                    return Err(VerifyError::InconsistentStack {
                        method: method.id,
                        pc: cfg.leaders[s],
                    });
                }
                Some(_) => {}
                None => {
                    heights[s] = Some(h);
                    work.push(s);
                }
            }
        }
    }
    Ok(heights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BinOp, CmpOp, Const};
    use crate::frontend::compile_source;
    use crate::program::ClassId;

    #[test]
    fn valid_program_verifies() {
        let p = compile_source("class C { static void main() { int x = 1 + 2; } }").unwrap();
        assert!(verify_program(&p).is_ok());
    }

    #[test]
    fn missing_entry_is_reported() {
        let p = compile_source("class C { static void helper() { } }").unwrap();
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.contains(&VerifyError::NoEntryPoint));
    }

    #[test]
    fn non_static_entry_is_reported() {
        // The front end only ever names a static `main` as the entry.
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "main", vec![], Type::Void, false);
        p.set_body(m, vec![Insn::Return], 1);
        p.set_entry(m);
        let errs = verify_program(&p).unwrap_err();
        assert!(matches!(errs[0], VerifyError::EntryNotStatic { .. }));
    }

    const TWO_METHODS: &str = "class C {
        static int twice(int x) { return x + x; }
        static void main() { int y = C.twice(2); }
    }";

    #[test]
    fn a_broken_method_of_one_copy_is_pinned_on_that_copy() {
        let source = compile_source(TWO_METHODS).unwrap();
        let twice = source.find_method(ClassId(0), "twice").unwrap();
        let copies = [source.clone(), source.clone(), source.clone()];
        assert_eq!(verify_copies(&copies), Ok(()));
        // Only copy 1 holds the broken body; copies 0 and 2 still share the source's.
        let mut copies = copies;
        copies[1].set_body(twice, vec![Insn::Pop, Insn::Return], 1);
        let (copy, errors) = verify_copies(&copies).unwrap_err();
        assert_eq!(copy, 1);
        assert_eq!(errors, verify_program(&copies[1]).unwrap_err());
        assert!(matches!(
            errors[0],
            VerifyError::StackUnderflow { pc: 0, .. }
        ));
        // A method every copy shares is reported on the first.
        let mut broken = source.clone();
        broken.set_body(twice, vec![Insn::Goto(9), Insn::Return], 1);
        let copies = [broken.clone(), broken];
        assert_eq!(verify_copies(&copies).unwrap_err().0, 0);
        // The entry is checked on every copy, shared bodies or not.
        let mut headless = source.clone();
        headless.entry = None;
        assert_eq!(
            verify_copies([&source, &headless]),
            Err((1, vec![VerifyError::NoEntryPoint]))
        );
    }

    #[test]
    fn a_method_verified_in_one_program_is_not_trusted_in_another() {
        // `main` calls `twice(int)`; in `wider` the callee takes two values, so the same
        // `main` body — the same `Arc` — underflows there.
        let source = compile_source(TWO_METHODS).unwrap();
        let twice = source.find_method(ClassId(0), "twice").unwrap();
        let mut wider = source.clone();
        wider.method_mut(twice).params.push(Type::Int);
        assert!(Arc::ptr_eq(&source.methods[1], &wider.methods[1]));
        let (copy, errors) = verify_copies([&source, &wider]).unwrap_err();
        assert_eq!(copy, 1);
        assert_eq!(errors, verify_program(&wider).unwrap_err());
    }

    #[test]
    fn branch_out_of_range_is_reported() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Void, true);
        p.method_mut(m).body = vec![Insn::Goto(100), Insn::Return];
        let errs = verify_method(&p, p.method(m)).unwrap_err();
        assert!(matches!(
            errs[0],
            VerifyError::BranchOutOfRange { target: 100, .. }
        ));
    }

    #[test]
    fn stack_underflow_is_reported() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Void, true);
        p.method_mut(m).body = vec![Insn::Pop, Insn::Return];
        let errs = verify_method(&p, p.method(m)).unwrap_err();
        assert!(matches!(errs[0], VerifyError::StackUnderflow { pc: 0, .. }));
    }

    /// An instruction that pops more than the stack holds underflows even where
    /// what it pushes back leaves the height non-negative.
    #[test]
    fn an_underflow_the_pushes_would_hide_is_reported() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Int, true);
        let one = Insn::Const(Const::Int(1));
        for (body, pc) in [
            (
                vec![one.clone(), Insn::Bin(BinOp::Add), Insn::ReturnValue],
                1,
            ),
            (vec![Insn::Dup, Insn::ReturnValue], 0),
            (vec![one, Insn::Swap, Insn::ReturnValue], 1),
        ] {
            p.method_mut(m).body = body;
            let errs = verify_method(&p, p.method(m)).unwrap_err();
            assert_eq!(errs, [VerifyError::StackUnderflow { method: m, pc }]);
        }
    }

    #[test]
    fn dangling_class_reference_is_reported() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Void, true);
        p.method_mut(m).body = vec![Insn::New(ClassId(99)), Insn::Pop, Insn::Return];
        let errs = verify_method(&p, p.method(m)).unwrap_err();
        assert!(matches!(
            errs[0],
            VerifyError::DanglingReference { what: "class", .. }
        ));
    }

    #[test]
    fn inconsistent_join_heights_are_reported() {
        // if (cond) push 1 else push nothing; join — heights differ.
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Void, true);
        p.method_mut(m).body = vec![
            Insn::Const(Const::Bool(true)), // 0
            Insn::If(CmpOp::Ne, 3),         // 1: branch to 3
            Insn::Const(Const::Int(7)),     // 2: push (fallthrough path)
            Insn::Return,                   // 3: join with differing heights
        ];
        let errs = verify_method(&p, p.method(m)).unwrap_err();
        assert!(matches!(errs[0], VerifyError::InconsistentStack { .. }));
    }

    #[test]
    fn falling_off_the_end_is_reported() {
        let mut p = Program::new();
        let c = p.add_class("C", None);
        let m = p.add_method(c, "bad", vec![], Type::Void, true);
        p.method_mut(m).body = vec![Insn::Const(Const::Int(1)), Insn::Pop];
        let errs = verify_method(&p, p.method(m)).unwrap_err();
        assert!(errs.contains(&VerifyError::MissingReturn { method: m }));
    }
}
