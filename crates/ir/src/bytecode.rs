//! The stack-machine bytecode instruction set.
//!
//! This is a compact, JVM-flavoured instruction set: a per-frame operand stack, numbered
//! local variable slots, object allocation (`New`), field access, virtual/static/special
//! dispatch, arrays, and structured control flow through pc-relative branches. It is the
//! representation that the dependence analyses inspect and that the communication
//! rewriter transforms (Figures 8 and 9 in the paper).

use std::fmt;

use crate::program::{ClassId, FieldRef, MethodId, Type};

/// A constant that can be pushed onto the operand stack.
#[derive(Clone, Debug, PartialEq)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// Floating point constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// String constant.
    Str(String),
    /// The null reference.
    Null,
}

impl Const {
    /// The static type of the constant.
    pub fn ty(&self) -> Option<Type> {
        match self {
            Const::Int(_) => Some(Type::Int),
            Const::Float(_) => Some(Type::Float),
            Const::Bool(_) => Some(Type::Bool),
            Const::Str(_) => Some(Type::Str),
            Const::Null => None,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "IConst: {v}"),
            Const::Float(v) => write!(f, "FConst: {v}"),
            Const::Bool(v) => write!(f, "BConst: {v}"),
            Const::Str(s) => write!(f, "SConst: \"{s}\""),
            Const::Null => write!(f, "null"),
        }
    }
}

/// Binary arithmetic / bitwise operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates toward zero; division by zero traps).
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// Mnemonic used by the quad printer, e.g. `ADD`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "ADD",
            BinOp::Sub => "SUB",
            BinOp::Mul => "MUL",
            BinOp::Div => "DIV",
            BinOp::Rem => "REM",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Xor => "XOR",
            BinOp::Shl => "SHL",
            BinOp::Shr => "SHR",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation of a boolean.
    Not,
    /// Integer to float conversion.
    IntToFloat,
    /// Float to integer conversion (truncating).
    FloatToInt,
}

impl UnOp {
    /// Mnemonic used by the quad printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "NEG",
            UnOp::Not => "NOT",
            UnOp::IntToFloat => "I2F",
            UnOp::FloatToInt => "F2I",
        }
    }
}

/// Comparison operators used by conditional branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Mnemonic in the quad listing (`EQ`, `LE`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
        }
    }

    /// The negated comparison (`a < b` becomes `a >= b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluates the comparison on two ordered integers.
    pub fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Method invocation kinds, mirroring the JVM's `invokevirtual` / `invokestatic` /
/// `invokespecial` distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvokeKind {
    /// Virtual dispatch on the runtime class of the receiver.
    Virtual,
    /// Static dispatch, no receiver.
    Static,
    /// Non-virtual dispatch on a receiver: constructors and super calls.
    Special,
}

/// A single bytecode instruction.
///
/// Branch targets are absolute instruction indices within the owning method body.
#[derive(Clone, Debug, PartialEq)]
pub enum Insn {
    /// Push a constant.
    Const(Const),
    /// Push the value of local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost stack values.
    Swap,
    /// Pop two values, push `lhs op rhs`.
    Bin(BinOp),
    /// Pop one value, push `op value`.
    Un(UnOp),
    /// Pop `rhs`, `lhs`; branch to `target` if `lhs op rhs`.
    IfCmp(CmpOp, usize),
    /// Pop `v`; branch to `target` if `v op 0` (or for refs: `Eq` = is-null).
    If(CmpOp, usize),
    /// Unconditional branch to `target`.
    Goto(usize),
    /// Allocate a new (uninitialised) instance of the class and push the reference.
    New(ClassId),
    /// Pop a length, allocate an array of the element type and push the reference.
    NewArray(Type),
    /// Pop index and array reference, push the element.
    ArrayLoad,
    /// Pop value, index and array reference, store the element.
    ArrayStore,
    /// Pop an array reference, push its length.
    ArrayLength,
    /// Pop an object reference, push the value of the instance field.
    GetField(FieldRef),
    /// Pop a value and an object reference, store into the instance field.
    PutField(FieldRef),
    /// Push the value of a static field.
    GetStatic(FieldRef),
    /// Pop a value into a static field.
    PutStatic(FieldRef),
    /// Invoke a method. Arguments (and the receiver for non-static kinds) are popped
    /// from the stack, rightmost argument on top. A non-void result is pushed.
    Invoke(InvokeKind, MethodId),
    /// Return with no value.
    Return,
    /// Pop a value and return it.
    ReturnValue,
}

impl Insn {
    /// How many operand-stack values this instruction pops and then pushes, given the
    /// callee signature lookup closure for invokes (arg count, returns-value). An
    /// instruction underflows where the stack holds fewer than it pops.
    pub fn stack_effect(&self, invoke_sig: impl Fn(MethodId) -> (usize, bool)) -> (usize, usize) {
        match self {
            Insn::Const(_) | Insn::Load(_) | Insn::New(_) | Insn::GetStatic(_) => (0, 1),
            Insn::Goto(_) | Insn::Return => (0, 0),
            Insn::Store(_)
            | Insn::Pop
            | Insn::PutStatic(_)
            | Insn::If(_, _)
            | Insn::ReturnValue => (1, 0),
            Insn::Dup => (1, 2),
            Insn::Un(_) | Insn::NewArray(_) | Insn::ArrayLength | Insn::GetField(_) => (1, 1),
            Insn::Swap => (2, 2),
            Insn::Bin(_) | Insn::ArrayLoad => (2, 1),
            Insn::PutField(_) | Insn::IfCmp(_, _) => (2, 0),
            Insn::ArrayStore => (3, 0),
            Insn::Invoke(kind, m) => {
                let (nargs, has_ret) = invoke_sig(*m);
                let receiver = usize::from(*kind != InvokeKind::Static);
                (nargs + receiver, usize::from(has_ret))
            }
        }
    }

    /// Returns the branch target if this instruction can transfer control non-sequentially.
    pub fn branch_target(&self) -> Option<usize> {
        match self {
            Insn::IfCmp(_, t) | Insn::If(_, t) | Insn::Goto(t) => Some(*t),
            _ => None,
        }
    }

    /// `true` if control never falls through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Insn::Goto(_) | Insn::Return | Insn::ReturnValue)
    }

    /// Remaps branch targets through `f`; used by the bytecode rewriter when the body
    /// length changes.
    pub fn remap_targets(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            Insn::IfCmp(_, t) | Insn::If(_, t) | Insn::Goto(t) => *t = f(*t),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negation_round_trips() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_eval_matches_integers() {
        use std::cmp::Ordering;
        assert!(CmpOp::Lt.eval_ord(Ordering::Less));
        assert!(!CmpOp::Lt.eval_ord(Ordering::Equal));
        assert!(CmpOp::Le.eval_ord(Ordering::Equal));
        assert!(CmpOp::Ge.eval_ord(Ordering::Greater));
        assert!(CmpOp::Ne.eval_ord(Ordering::Greater));
        assert!(CmpOp::Eq.eval_ord(Ordering::Equal));
    }

    #[test]
    fn stack_deltas_are_consistent() {
        let sig = |_m: MethodId| (2usize, true);
        assert_eq!(Insn::Const(Const::Int(1)).stack_effect(sig), (0, 1));
        assert_eq!(Insn::Bin(BinOp::Add).stack_effect(sig), (2, 1));
        assert_eq!(Insn::ArrayStore.stack_effect(sig), (3, 0));
        // dup and swap read what they push back: an empty stack underflows them.
        assert_eq!(Insn::Dup.stack_effect(sig), (1, 2));
        assert_eq!(Insn::Swap.stack_effect(sig), (2, 2));
        // getfield pops the receiver and pushes the value.
        assert_eq!(
            Insn::GetField(crate::program::FieldRef {
                class: crate::program::ClassId(0),
                index: 0
            })
            .stack_effect(sig),
            (1, 1)
        );
        // if_cmp pops both comparands.
        assert_eq!(Insn::IfCmp(CmpOp::Lt, 0).stack_effect(sig), (2, 0));
        // virtual invoke with 2 args and a result: pops receiver + 2, pushes 1.
        assert_eq!(
            Insn::Invoke(InvokeKind::Virtual, MethodId(0)).stack_effect(sig),
            (3, 1)
        );
        // static invoke with 2 args and a result: pops 2, pushes 1.
        assert_eq!(
            Insn::Invoke(InvokeKind::Static, MethodId(0)).stack_effect(sig),
            (2, 1)
        );
    }

    #[test]
    fn branch_targets_and_terminators() {
        assert_eq!(Insn::Goto(7).branch_target(), Some(7));
        assert_eq!(Insn::If(CmpOp::Eq, 3).branch_target(), Some(3));
        assert_eq!(Insn::Pop.branch_target(), None);
        assert!(Insn::Return.is_terminator());
        assert!(Insn::Goto(0).is_terminator());
        assert!(!Insn::If(CmpOp::Eq, 0).is_terminator());
    }

    #[test]
    fn remap_targets_only_touches_branches() {
        let mut i = Insn::Goto(4);
        i.remap_targets(|t| t + 10);
        assert_eq!(i, Insn::Goto(14));
        let mut j = Insn::Pop;
        j.remap_targets(|t| t + 10);
        assert_eq!(j, Insn::Pop);
    }

    #[test]
    fn const_types() {
        assert_eq!(Const::Int(3).ty(), Some(Type::Int));
        assert_eq!(Const::Null.ty(), None);
        assert_eq!(Const::Str("x".into()).ty(), Some(Type::Str));
    }
}
