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
    let mut errors = Vec::new();
    match program.entry {
        None => errors.push(VerifyError::NoEntryPoint),
        Some(e) => {
            if !program.method(e).is_static {
                errors.push(VerifyError::EntryNotStatic { method: e });
            }
        }
    }
    for m in &program.methods {
        if m.body.is_empty() {
            continue;
        }
        if let Err(mut es) = verify_method(program, m) {
            errors.append(&mut es);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
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
    let mut entry_height: Vec<Option<isize>> = vec![None; cfg.block_count()];
    if cfg.block_count() > 0 {
        entry_height[0] = Some(0);
        let mut work = vec![0usize];
        while let Some(b) = work.pop() {
            let mut h = entry_height[b].unwrap();
            let (start, end) = cfg.ranges[b];
            // `pc` is a real program counter (it appears in the diagnostics below),
            // so the index-based loop is the clearer spelling.
            #[allow(clippy::needless_range_loop)]
            for pc in start..end {
                h += body[pc].stack_delta(|m| {
                    let callee = program.method(m);
                    (callee.params.len(), callee.ret != Type::Void)
                });
                if h < 0 {
                    errors.push(VerifyError::StackUnderflow {
                        method: method.id,
                        pc,
                    });
                    return Err(errors);
                }
            }
            for &s in &cfg.succs[b] {
                match entry_height[s] {
                    Some(prev) if prev != h => {
                        errors.push(VerifyError::InconsistentStack {
                            method: method.id,
                            pc: cfg.leaders[s],
                        });
                        return Err(errors);
                    }
                    Some(_) => {}
                    None => {
                        entry_height[s] = Some(h);
                        work.push(s);
                    }
                }
            }
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, Const};
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
