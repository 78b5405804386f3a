//! A small bottom-up rewrite system (BURS) engine.
//!
//! This plays the role of JBurg in the paper: a code-generator generator, in which a
//! target is data. A target is a [`Dialect`], which holds what differs between the two
//! columns of Figure 7 (register names, immediate syntax, mnemonics, two- or
//! three-address arithmetic, the call convention, address templates and the return
//! sequence), and a table of [`Rule`]s. A rule is plain data too: the tree
//! [`Pattern`] it matches, the [`Nonterminal`] it derives, the nonterminals its
//! children must derive, and its cost. One [`Emitter`] serves every target, in two
//! passes over each AST (exactly as the paper describes):
//!
//! 1. **Labelling** — dynamic programming bottom-up over the tree computing, for every
//!    node and every nonterminal, the cheapest rule deriving it there, including the
//!    chain derivation "materialise an immediate in a register". Each tree is
//!    labelled once.
//! 2. **Reduction** — a top-down walk that follows the recorded rules, reducing each
//!    child to the nonterminal its parent's rule asks for, and emits each node in the
//!    dialect's syntax. Which rule derives a node decides only what its children are
//!    reduced to (an immediate, or a register that may have to be materialised); how
//!    the node prints is the dialect's.
//!
//! No move the emitter writes is a self-move (`mov X, X`), whatever the target. Every
//! call, an allocation's included, passes its arguments through one convention
//! ([`Args`]): the stack slots a call pushes are popped right after it, and the moves
//! into argument registers are one parallel move, so none reads a register an earlier
//! one overwrote.

use crate::ast::{build_method_forest, TreeNode, TreeOp};
use autodist_ir::quad::{QuadMethod, Reg};
use autodist_ir::Program;

/// The grammar nonterminals of the code-generation grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Nonterminal {
    /// A completed statement (no result value).
    Stmt,
    /// A value available in a register.
    Reg,
    /// A value available as an immediate operand.
    Imm,
}

/// The tree operators a rule can match, grouped the way both targets print them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// A virtual-register leaf.
    Reg,
    /// An integer, float, string or `null` leaf.
    Const,
    /// `dst := src`.
    Move,
    /// A binary or unary operation.
    Arith,
    /// A conditional branch on a comparison.
    Compare,
    /// An unconditional branch.
    Jump,
    /// A return, with or without a value.
    Return,
    /// A method call.
    Call,
    /// A field, static, element or length read.
    Load,
    /// A field, static or element write.
    Store,
    /// An object or array allocation.
    Alloc,
}

impl Pattern {
    /// The pattern `op` belongs to.
    fn of(op: &TreeOp) -> Pattern {
        match op {
            TreeOp::RegLeaf(_) => Pattern::Reg,
            TreeOp::IConstLeaf(_)
            | TreeOp::FConstLeaf(_)
            | TreeOp::SConstLeaf(_)
            | TreeOp::NullLeaf => Pattern::Const,
            TreeOp::Move => Pattern::Move,
            TreeOp::Bin(_) | TreeOp::Un(_) => Pattern::Arith,
            TreeOp::IfCmp { .. } => Pattern::Compare,
            TreeOp::Goto(_) => Pattern::Jump,
            TreeOp::Return => Pattern::Return,
            TreeOp::Invoke(_) => Pattern::Call,
            TreeOp::GetField(_) | TreeOp::GetStatic(_) | TreeOp::ALoad | TreeOp::ALen => {
                Pattern::Load
            }
            TreeOp::PutField(_) | TreeOp::PutStatic(_) | TreeOp::AStore => Pattern::Store,
            TreeOp::New(_) | TreeOp::NewArray => Pattern::Alloc,
        }
    }
}

/// A single BURS rule.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Human-readable rule name (used by tests and the rule census).
    pub name: &'static str,
    /// The nonterminal this rule derives.
    pub produces: Nonterminal,
    /// The tree operators it matches.
    pub pattern: Pattern,
    /// Required nonterminals of the children. If `variadic` is set, every child must
    /// derive `kids[0]` regardless of arity.
    pub kids: &'static [Nonterminal],
    /// Accept any number of children, all deriving `kids[0]`.
    pub variadic: bool,
    /// Rule cost (target instruction count / latency estimate).
    pub cost: u32,
}

/// A rule deriving `produces` from a node of `pattern` whose children derive `kids`
/// (every child `kids[0]` if `variadic`), at `cost`.
pub(crate) const fn rule(
    name: &'static str,
    produces: Nonterminal,
    pattern: Pattern,
    kids: &'static [Nonterminal],
    variadic: bool,
    cost: u32,
) -> Rule {
    Rule {
        name,
        produces,
        pattern,
        kids,
        variadic,
        cost,
    }
}

impl Rule {
    /// The nonterminal child `i` must derive.
    fn kid(&self, i: usize) -> Nonterminal {
        self.kids[if self.variadic { 0 } else { i }]
    }
}

/// Cost of the chain derivation `reg <- imm`, on every target.
const CHAIN_COST: u32 = 1;

/// The binary operators in the order of [`Dialect::bin`].
const BIN_OPS: [&str; 10] = [
    "ADD", "SUB", "MUL", "DIV", "REM", "AND", "OR", "XOR", "SHL", "SHR",
];
/// The unary operators in the order of [`Dialect::unary`].
const UN_OPS: [&str; 4] = ["NEG", "NOT", "I2F", "F2I"];
/// The comparisons in the order of [`Dialect::branch`].
const CMP_OPS: [&str; 6] = ["EQ", "NE", "LT", "LE", "GT", "GE"];

/// How a call passes its arguments: the first ones in `regs`, in order, and the rest
/// on the stack. The stacked ones are pushed right to left before the register moves,
/// and the caller pops their slots after the call. A cycle among the register moves
/// is broken through the stack with `push` and `pop_into`.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The argument registers, in order (none on a target that passes all on the
    /// stack).
    pub regs: &'static [&'static str],
    /// Pushes argument `{0}`.
    pub push: &'static str,
    /// Pops `{0}` bytes of arguments.
    pub pop: &'static str,
    /// Pops the slot pushed last into register `{0}`.
    pub pop_into: &'static str,
    /// Bytes of one pushed argument.
    pub slot: usize,
}

/// What one target's assembly looks like. The templates name their operands `{0}`,
/// `{1}`.
#[derive(Clone, Copy, Debug)]
pub struct Dialect {
    /// The target name of a virtual register.
    pub reg_name: fn(Reg) -> String,
    /// Prefix of the scratch register that holds a materialised immediate.
    pub temp: &'static str,
    /// The register a method returns its value in.
    pub result: &'static str,
    /// Prefix of an immediate operand.
    pub imm: &'static str,
    /// Prefix of a string constant's address, completed by the string's length.
    pub string: &'static str,
    /// The mnemonic that materialises an immediate in a scratch register.
    pub load_imm: &'static str,
    /// Mnemonics of `ADD SUB MUL DIV REM AND OR XOR SHL SHR`.
    pub bin: [&'static str; 10],
    /// `NEG NOT I2F F2I`, each writing register `{0}` from operand `{1}`; on a
    /// two-address target a template that does not read `{1}` works in place, after a
    /// move of the operand into `{0}`.
    pub unary: [&'static str; 4],
    /// Conditional branches on `EQ NE LT LE GT GE`.
    pub branch: [&'static str; 6],
    /// The unconditional branch.
    pub jump: &'static str,
    /// `op d, a, b` instead of `mov d, a; op d, b`.
    pub three_address: bool,
    /// The call mnemonic.
    pub call: &'static str,
    /// How a call passes its arguments.
    pub args: Args,
    /// The register a call returns its value in.
    pub call_result: &'static str,
    /// Reads address `{1}` into register `{0}`.
    pub load: &'static str,
    /// Writes value `{0}` to address `{1}`.
    pub store: &'static str,
    /// The address of field `{1}` of object `{0}`.
    pub field: &'static str,
    /// The address of static `{0}`.
    pub static_field: &'static str,
    /// The address of element `{1}` of array `{0}`.
    pub element: &'static str,
    /// The address of the length of array `{0}`.
    pub length: &'static str,
    /// Returns once the value is in [`Dialect::result`].
    pub ret: &'static str,
    /// Returns without a value.
    pub ret_void: &'static str,
}

/// `template` with each `{k}` replaced by `args[k]`.
fn fill(template: &str, args: &[&str]) -> String {
    (args.iter().enumerate()).fold(template.to_string(), |text, (k, arg)| {
        text.replace(&format!("{{{k}}}"), arg)
    })
}

/// The dialect's name for `key` in `names`, which is ordered as `keys`.
fn lookup(keys: &[&str], names: &[&'static str], key: &'static str) -> &'static str {
    keys.iter()
        .position(|k| *k == key)
        .map_or(key, |i| names[i])
}

/// Per-node labelling result: for each nonterminal, the cheapest derivation.
#[derive(Clone, Copy, Debug, Default)]
struct Label {
    /// `best[nt]` = (total cost, rule index; the table's length stands for the chain
    /// rule), `None` if not derivable.
    best: [Option<(u32, usize)>; 3],
    /// Nodes in the subtree rooted here, so that a node's children can be found in the
    /// pre-order label list.
    size: usize,
}

/// Emits one target's code: the dialect and rule table, the labels of the tree being
/// reduced, the scratch-register counter and how often each rule was chosen.
pub struct Emitter {
    dialect: &'static Dialect,
    rules: &'static [Rule],
    /// One label per node of the current tree, in pre-order.
    labels: Vec<Label>,
    next_temp: u32,
    /// Reductions per rule; the last entry counts the chain rule.
    chosen: Vec<u32>,
}

impl Emitter {
    /// An emitter for `dialect` driven by `rules`.
    pub fn new(dialect: &'static Dialect, rules: &'static [Rule]) -> Self {
        Emitter {
            dialect,
            rules,
            labels: Vec::new(),
            next_temp: 0,
            chosen: vec![0; rules.len() + 1],
        }
    }

    /// Emits one quad method: each block's label, then each of its trees reduced to
    /// a statement. Scratch registers are numbered afresh for every method.
    pub fn method(&mut self, program: &Program, qm: &QuadMethod) -> Vec<String> {
        self.next_temp = 0;
        let mut out = Vec::new();
        for (block, trees) in build_method_forest(program, qm) {
            if !trees.is_empty() && block.0 >= 2 {
                out.push(format!("BB{}:", block.0));
            }
            for tree in &trees {
                self.reduce_into(tree, &mut out);
            }
        }
        out
    }

    /// Reduces a statement tree (a quad root) to target code.
    pub fn reduce(&mut self, tree: &TreeNode) -> Vec<String> {
        let mut out = Vec::new();
        self.reduce_into(tree, &mut out);
        out
    }

    fn reduce_into(&mut self, tree: &TreeNode, out: &mut Vec<String>) {
        self.labels.clear();
        self.label(tree);
        self.reduce_to(tree, 0, Nonterminal::Stmt, out);
    }

    /// The minimum derivation cost of `goal` for the tree, if derivable.
    pub fn derivation_cost(&mut self, tree: &TreeNode, goal: Nonterminal) -> Option<u32> {
        self.labels.clear();
        self.label(tree);
        self.labels[0].best[goal as usize].map(|(c, _)| c)
    }

    /// Every rule's name and how often it was chosen so far, in table order, then the
    /// chain rule's as `imm_to_reg`.
    pub fn census(&self) -> Vec<(&'static str, u32)> {
        let names = self.rules.iter().map(|r| r.name).chain(["imm_to_reg"]);
        names.zip(self.chosen.iter().copied()).collect()
    }

    /// Labels `node` and its subtree, appending their labels in pre-order.
    fn label(&mut self, node: &TreeNode) {
        let at = self.labels.len();
        self.labels.push(Label::default());
        for child in &node.children {
            self.label(child);
        }
        let pattern = Pattern::of(&node.op);
        let mut best = [None; 3];
        for (ri, rule) in self.rules.iter().enumerate() {
            if rule.pattern != pattern || (!rule.variadic && rule.kids.len() != node.children.len())
            {
                continue;
            }
            let mut total = Some(rule.cost);
            let mut child = at + 1;
            for i in 0..node.children.len() {
                let need = self.labels[child].best[rule.kid(i) as usize];
                total = total.zip(need).map(|(t, (c, _))| t + c);
                child += self.labels[child].size;
            }
            let slot = &mut best[rule.produces as usize];
            if let Some(total) = total.filter(|&t| slot.is_none_or(|(c, _)| t < c)) {
                *slot = Some((total, ri));
            }
        }
        if let Some((imm, _)) = best[Nonterminal::Imm as usize] {
            let via = imm + CHAIN_COST;
            let slot = &mut best[Nonterminal::Reg as usize];
            if slot.is_none_or(|(c, _)| via < c) {
                *slot = Some((via, self.rules.len()));
            }
        }
        self.labels[at] = Label {
            best,
            size: self.labels.len() - at,
        };
    }

    /// Reduces `node`, labelled at `at`, to `goal`, emitting into `out`. Returns the
    /// operand text of its value (empty for a statement that has none).
    fn reduce_to(
        &mut self,
        node: &TreeNode,
        at: usize,
        goal: Nonterminal,
        out: &mut Vec<String>,
    ) -> String {
        let Some((_, ri)) = self.labels[at].best[goal as usize] else {
            // No derivation: fall back to a comment so the output stays inspectable
            // rather than panicking on exotic trees.
            out.push(format!("; unsupported tree op {:?}", node.op));
            return String::new();
        };
        self.chosen[ri] += 1;
        let Some(rule) = self.rules.get(ri) else {
            let imm = self.reduce_to(node, at, Nonterminal::Imm, out);
            let temp = format!("{}{}", self.dialect.temp, self.next_temp + 8);
            self.next_temp += 1;
            out.push(format!("{} {temp}, {imm}", self.dialect.load_imm));
            return temp;
        };
        let mut ops = Vec::with_capacity(node.children.len());
        let mut child = at + 1;
        for (i, c) in node.children.iter().enumerate() {
            ops.push(self.reduce_to(c, child, rule.kid(i), out));
            child += self.labels[child].size;
        }
        self.emit(node, &ops, out)
    }

    /// Prints `node`, whose children reduced to `ops`, in the dialect's syntax.
    fn emit(&self, node: &TreeNode, ops: &[String], out: &mut Vec<String>) -> String {
        let d = self.dialect;
        let op = |i: usize| ops.get(i).map_or("", String::as_str);
        let dst = || node.dst.map_or_else(|| d.result.to_string(), d.reg_name);
        let load = |address: String| fill(d.load, &[&dst(), &address]);
        let store = |value: &str, address: String| fill(d.store, &[value, &address]);
        match &node.op {
            TreeOp::RegLeaf(r) => return (d.reg_name)(*r),
            TreeOp::IConstLeaf(v) => return format!("{}{v}", d.imm),
            TreeOp::FConstLeaf(v) => return format!("{}{v}", d.imm),
            TreeOp::SConstLeaf(s) => return format!("{}{}", d.string, s.len()),
            TreeOp::NullLeaf => return format!("{}0", d.imm),
            TreeOp::Move => mov(out, &dst(), op(0)),
            TreeOp::Bin(m) => {
                let mnemonic = lookup(&BIN_OPS, &d.bin, m);
                return self.arith(out, dst(), mnemonic, op(0), op(1));
            }
            TreeOp::Un(m) => {
                let dst = dst();
                let template = lookup(&UN_OPS, &d.unary, m);
                if !d.three_address && !template.contains("{1}") {
                    mov(out, &dst, op(0));
                }
                out.push(fill(template, &[&dst, op(0)]));
                return dst;
            }
            TreeOp::IfCmp { cond, target } => {
                out.push(format!("cmp {}, {}", op(0), op(1)));
                let branch = lookup(&CMP_OPS, &d.branch, cond);
                out.push(format!("{branch} BB{}", target.0));
            }
            TreeOp::Goto(target) => out.push(format!("{} BB{}", d.jump, target.0)),
            TreeOp::Return => match ops.first() {
                Some(value) => {
                    mov(out, d.result, value);
                    out.push(d.ret.to_string());
                }
                None => out.push(d.ret_void.to_string()),
            },
            TreeOp::Invoke(name) => self.call(node, name, ops, out),
            TreeOp::New(class) => self.call(node, &format!("rt_new_{class}"), &[], out),
            TreeOp::NewArray => self.call(node, "rt_new_array", ops, out),
            TreeOp::GetField(f) => out.push(load(fill(d.field, &[op(0), f]))),
            TreeOp::GetStatic(f) => out.push(load(fill(d.static_field, &[f]))),
            TreeOp::ALoad => out.push(load(fill(d.element, &[op(0), op(1)]))),
            TreeOp::ALen => out.push(load(fill(d.length, &[op(0)]))),
            TreeOp::PutField(f) => out.push(store(op(1), fill(d.field, &[op(0), f]))),
            TreeOp::PutStatic(f) => out.push(store(op(0), fill(d.static_field, &[f]))),
            TreeOp::AStore => out.push(store(op(2), fill(d.element, &[op(0), op(1)]))),
        }
        String::new()
    }

    /// `dst := lhs op rhs`; returns `dst`.
    fn arith(
        &self,
        out: &mut Vec<String>,
        dst: String,
        mnemonic: &str,
        lhs: &str,
        rhs: &str,
    ) -> String {
        if self.dialect.three_address {
            out.push(format!("{mnemonic} {dst}, {lhs}, {rhs}"));
        } else {
            mov(out, &dst, lhs);
            out.push(format!("{mnemonic} {dst}, {rhs}"));
        }
        dst
    }

    /// Calls `callee` with `args` in the dialect's convention, then moves the result
    /// into the node's destination register, if it has one.
    fn call(&self, node: &TreeNode, callee: &str, args: &[String], out: &mut Vec<String>) {
        let d = self.dialect;
        let in_regs = args.len().min(d.args.regs.len());
        let stacked = &args[in_regs..];
        out.extend(stacked.iter().rev().map(|a| fill(d.args.push, &[a])));
        let moves: Vec<(&str, &str)> = (d.args.regs.iter().zip(args))
            .map(|(reg, a)| (*reg, a.as_str()))
            .collect();
        parallel_move(&d.args, &moves, out);
        out.push(format!("{} {callee}", d.call));
        if !stacked.is_empty() {
            let bytes = (stacked.len() * d.args.slot).to_string();
            out.push(fill(d.args.pop, &[&bytes]));
        }
        if let Some(dst) = node.dst {
            mov(out, &(d.reg_name)(dst), d.call_result);
        }
    }
}

/// Writes every `(dst, src)` of `moves` as if all at once: a move waits until no
/// pending move still reads its destination. When every pending destination is still
/// read, the pending moves form cycles; the first one's destination is pushed, and the
/// move that read it pops it instead.
fn parallel_move(args: &Args, moves: &[(&str, &str)], out: &mut Vec<String>) {
    // A `None` source is the slot pushed last.
    let mut pending: Vec<(&str, Option<&str>)> = (moves.iter())
        .filter(|(dst, src)| dst != src)
        .map(|&(dst, src)| (dst, Some(src)))
        .collect();
    while !pending.is_empty() {
        let read = |reg: &str| pending.iter().any(|&(_, src)| src == Some(reg));
        match pending.iter().position(|&(dst, _)| !read(dst)) {
            Some(i) => match pending.remove(i) {
                (dst, Some(src)) => mov(out, dst, src),
                (dst, None) => out.push(fill(args.pop_into, &[dst])),
            },
            None => {
                let saved = pending[0].0;
                out.push(fill(args.push, &[saved]));
                for (_, src) in pending.iter_mut().filter(|(_, src)| *src == Some(saved)) {
                    *src = None;
                }
            }
        }
    }
}

/// `mov dst, src`, unless the two are the same register.
fn mov(out: &mut Vec<String>, dst: &str, src: &str) {
    if dst != src {
        out.push(format!("mov {dst}, {src}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{TreeNode, TreeOp};
    use autodist_ir::quad::Operand;

    fn toy_reg_name(r: Reg) -> String {
        format!("r{}", r.0)
    }

    /// A toy target: two-address, `addi` for an add, `li` to materialise an immediate.
    static TOY: Dialect = Dialect {
        reg_name: toy_reg_name,
        temp: "t",
        result: "r0",
        load_imm: "li",
        bin: [
            "addi", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
        ],
        ..crate::x86::DIALECT
    };

    /// Imm leaves, reg leaves, add(reg, imm) cheap, add(reg, reg) expensive — the
    /// labeler must pick the cheap form when the rhs is an immediate. No rule matches
    /// a return.
    static TOY_RULES: [Rule; 5] = [
        rule("imm", Nonterminal::Imm, Pattern::Const, &[], false, 0),
        rule("reg", Nonterminal::Reg, Pattern::Reg, &[], false, 0),
        rule(
            "add_ri",
            Nonterminal::Reg,
            Pattern::Arith,
            REG_IMM,
            false,
            1,
        ),
        rule(
            "add_rr",
            Nonterminal::Reg,
            Pattern::Arith,
            REG_REG,
            false,
            3,
        ),
        rule(
            "move",
            Nonterminal::Stmt,
            Pattern::Move,
            &[Nonterminal::Reg],
            false,
            1,
        ),
    ];
    const REG_IMM: &[Nonterminal] = &[Nonterminal::Reg, Nonterminal::Imm];
    const REG_REG: &[Nonterminal] = &[Nonterminal::Reg, Nonterminal::Reg];

    fn toy_target() -> Emitter {
        Emitter::new(&TOY, &TOY_RULES)
    }

    fn add_tree(rhs_imm: bool) -> TreeNode {
        let rhs = if rhs_imm {
            TreeNode {
                op: TreeOp::IConstLeaf(4),
                dst: None,
                children: vec![],
            }
        } else {
            TreeNode {
                op: TreeOp::RegLeaf(autodist_ir::Reg(2)),
                dst: None,
                children: vec![],
            }
        };
        TreeNode {
            op: TreeOp::Move,
            dst: Some(autodist_ir::Reg(1)),
            children: vec![TreeNode {
                op: TreeOp::Bin("ADD"),
                dst: Some(autodist_ir::Reg(1)),
                children: vec![
                    TreeNode {
                        op: TreeOp::RegLeaf(autodist_ir::Reg(1)),
                        dst: None,
                        children: vec![],
                    },
                    rhs,
                ],
            }],
        }
    }

    #[test]
    fn labeler_prefers_the_cheaper_rule() {
        let mut t = toy_target();
        // add reg, imm: move(1) + add_ri(1) = 2
        assert_eq!(
            t.derivation_cost(&add_tree(true), Nonterminal::Stmt),
            Some(2)
        );
        // add reg, reg: move(1) + add_rr(3) = 4
        assert_eq!(
            t.derivation_cost(&add_tree(false), Nonterminal::Stmt),
            Some(4)
        );
    }

    #[test]
    fn reduction_emits_the_chosen_instructions() {
        let mut t = toy_target();
        // add_ri keeps the immediate; the move of r1 into itself is never emitted.
        assert_eq!(t.reduce(&add_tree(true)), vec!["addi r1, 4"]);
        let chosen = |t: &Emitter, name| t.census().iter().find(|r| r.0 == name).unwrap().1;
        assert_eq!((chosen(&t, "add_ri"), chosen(&t, "add_rr")), (1, 0));
        // add_rr is the only way to add two registers.
        assert_eq!(t.reduce(&add_tree(false)), vec!["addi r1, r2"]);
        assert_eq!((chosen(&t, "add_ri"), chosen(&t, "add_rr")), (1, 1));
    }

    #[test]
    fn chain_rule_materialises_immediates_when_needed() {
        // A Move whose operand is an immediate: the move rule wants a Reg child, so the
        // imm must go through the chain rule.
        let mut t = toy_target();
        let tree = TreeNode {
            op: TreeOp::Move,
            dst: Some(autodist_ir::Reg(3)),
            children: vec![TreeNode {
                op: TreeOp::IConstLeaf(7),
                dst: None,
                children: vec![],
            }],
        };
        let lines = t.reduce(&tree);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("li "), "{lines:?}");
        assert!(lines[1].starts_with("mov r3"), "{lines:?}");
    }

    #[test]
    fn unsupported_ops_degrade_to_comments() {
        let mut t = toy_target();
        let tree = TreeNode {
            op: TreeOp::Return,
            dst: None,
            children: vec![],
        };
        let lines = t.reduce(&tree);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with(';'));
    }

    /// `C.m(a0, .., a5)` from registers 6..=11 into register 1: x86 pushes all six and
    /// pops 24 bytes; ARM moves four into `R0`–`R3` and pushes and pops the other two.
    #[test]
    fn a_six_argument_call_passes_every_argument_and_pops_what_it_pushed() {
        let tree = TreeNode {
            op: TreeOp::Invoke("C.m".to_string()),
            dst: Some(Reg(1)),
            children: (6..12)
                .map(|r| TreeNode::leaf(&Operand::Reg(Reg(r))))
                .collect(),
        };
        let x86 = [
            "push [ebp-24]",
            "push [ebp-20]",
            "push [ebp-16]",
            "push [ebp-12]",
            "push [ebp-8]",
            "push [ebp-4]",
            "call C.m",
            "add esp, 24",
            "mov ebx, eax",
        ];
        assert_eq!(crate::Target::X86.emitter().reduce(&tree), x86);
        let arm = [
            "str R11, [SP, #-4]!",
            "str R10, [SP, #-4]!",
            "mov R0, R6",
            "mov R1, R7",
            "mov R2, R8",
            "mov R3, R9",
            "bl C.m",
            "add SP, SP, #8",
            "mov R1, R0",
        ];
        assert_eq!(crate::Target::StrongArm.emitter().reduce(&tree), arm);
    }

    /// `C.m(r1, r0, r0, r5)`: ARM's argument moves swap `R0` and `R1` while `R2` still
    /// reads the old `R0`, so `R2` and `R3` are written first and the swap goes through
    /// the stack; x86 pushes all four.
    #[test]
    fn argument_moves_are_one_parallel_move() {
        let tree = TreeNode {
            op: TreeOp::Invoke("C.m".to_string()),
            dst: None,
            children: [1, 0, 0, 5]
                .map(|r| TreeNode::leaf(&Operand::Reg(Reg(r))))
                .into(),
        };
        let x86 = [
            "push edi",
            "push eax",
            "push eax",
            "push ebx",
            "call C.m",
            "add esp, 16",
        ];
        assert_eq!(crate::Target::X86.emitter().reduce(&tree), x86);
        let arm = [
            "mov R2, R0",
            "mov R3, R5",
            "str R0, [SP, #-4]!",
            "mov R0, R1",
            "ldr R1, [SP], #4",
            "bl C.m",
        ];
        assert_eq!(crate::Target::StrongArm.emitter().reduce(&tree), arm);
    }

    /// `r1 := ~r2`: a complement, not a negation, on both targets.
    #[test]
    fn not_is_a_bitwise_complement_on_both_targets() {
        let tree = TreeNode {
            op: TreeOp::Un("NOT"),
            dst: Some(Reg(1)),
            children: vec![TreeNode::leaf(&Operand::Reg(Reg(2)))],
        };
        let x86 = ["mov ebx, ecx", "not ebx"];
        assert_eq!(crate::Target::X86.emitter().reduce(&tree), x86);
        assert_eq!(
            crate::Target::StrongArm.emitter().reduce(&tree),
            ["mvn R1, R2"]
        );
    }

    /// `r1 := (float) r2` and `r1 := (int) r2`: conversions, not a complement or a
    /// negation, on both targets; x86's conversions read their source, so no move
    /// comes first.
    #[test]
    fn conversions_convert_on_both_targets() {
        let convert = |op| TreeNode {
            op: TreeOp::Un(op),
            dst: Some(Reg(1)),
            children: vec![TreeNode::leaf(&Operand::Reg(Reg(2)))],
        };
        let mut x86 = crate::Target::X86.emitter();
        let mut arm = crate::Target::StrongArm.emitter();
        assert_eq!(x86.reduce(&convert("I2F")), ["cvtsi2sd ebx, ecx"]);
        assert_eq!(x86.reduce(&convert("F2I")), ["cvttsd2si ebx, ecx"]);
        assert_eq!(arm.reduce(&convert("I2F")), ["flt R1, R2"]);
        assert_eq!(arm.reduce(&convert("F2I")), ["fix R1, R2"]);
    }

    #[test]
    fn temp_names_are_unique_and_start_afresh_per_method() {
        let mut t = toy_target();
        let tree = TreeNode {
            op: TreeOp::Move,
            dst: Some(autodist_ir::Reg(3)),
            children: vec![TreeNode::leaf(&autodist_ir::quad::Operand::IConst(7))],
        };
        let a = t.reduce(&tree);
        let b = t.reduce(&tree);
        assert_ne!(a[0], b[0]);
        let (p, id) = crate::tests::figure5_example();
        let qm = autodist_ir::lower::lower_method(&p, p.method(id)).unwrap();
        assert_eq!(t.method(&p, &qm), t.method(&p, &qm));
    }
}
