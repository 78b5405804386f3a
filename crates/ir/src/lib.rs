//! # autodist-ir
//!
//! The program representation substrate for the automatic-distribution pipeline.
//!
//! The paper (Diaconescu et al., IPPS 2005) consumes Java bytecode through the Joeq
//! front-end and works on two intermediate representations: a stack-machine *bytecode*
//! IR and a register-style *quad* IR. This crate provides the equivalent substrate,
//! built from scratch:
//!
//! * [`program`] — the class-file-like program model: classes, fields, methods, types.
//! * [`bytecode`] — a JVM-flavoured stack instruction set ([`bytecode::Insn`]).
//! * [`quad`] — the register-based quadruple IR organised into basic blocks.
//! * [`lower`] — translation from bytecode to quads by abstract interpretation of the
//!   operand stack (the paper's "Bytecode to Quad" box in Figure 1).
//! * [`frontend`] — a small MiniJava-like source language front-end, playing the role
//!   of `javac`: every program outside tests (the workloads, the paper's Bank/Account
//!   example of Figure 2) is compiled from source text by it. Tests that need a shape
//!   it never emits write a body with [`Program::add_method`] and [`Program::set_body`].
//! * [`cfg`](mod@cfg) — control-flow graph utilities over bytecode (leaders, back edges, loops).
//! * [`layout`] — the load-time interning pass: dense field slots, static slots,
//!   selector-indexed vtables, and the pre-decoded compact op format
//!   ([`layout::Op`]) the interpreter's dispatch loop executes.
//! * [`printer`] — human-readable listings of bytecode and quads (Figure 5 style).
//! * [`verify`] — a structural verifier for methods (stack discipline, branch targets).

pub mod bytecode;
pub mod cfg;
pub mod frontend;
pub mod layout;
pub mod lower;
pub mod printer;
pub mod program;
pub mod quad;
pub mod verify;

pub use bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind, UnOp};
pub use layout::{ArrayInit, ClassLayout, LayoutShape, MethodOps, Op, ProgramLayout, NO_SLOT};
pub use program::{Class, ClassId, Field, FieldRef, Method, MethodId, Program, Type};
pub use quad::{BlockId, Operand, Quad, QuadMethod, Reg};

/// The paper's Figure 5 method, `Example.ex`, for the tests that lower and print it.
#[cfg(test)]
pub(crate) fn figure5_example() -> (Program, MethodId) {
    let p = frontend::compile_source(
        "class Example { int ex(int b) { b = 4; if (b > 2) { b = b + 1; } return b; } }",
    )
    .unwrap();
    let id = p.find_method(p.class_by_name("Example").unwrap(), "ex");
    (p, id.unwrap())
}
