//! Abstract syntax trees over quads.
//!
//! The paper: "the program is then turned into an Abstract Syntax Tree to act as the
//! code generator front-end. The AST is structured such that each instruction acts as a
//! root node, with instruction parameters represented as child leaves" (Figure 6).

use autodist_ir::program::Program;
use autodist_ir::quad::{BlockId, Operand, Quad, QuadMethod, Reg};

/// The operator of an AST node.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeOp {
    /// `MOVE_I dst, src` root.
    Move,
    /// Arithmetic / bitwise operation root, tagged with its mnemonic (`ADD`, `SUB`, ...).
    Bin(&'static str),
    /// Unary operation root.
    Un(&'static str),
    /// Conditional branch root: children are the comparands; the condition mnemonic and
    /// target block are in the payload.
    IfCmp { cond: &'static str, target: BlockId },
    /// Unconditional branch.
    Goto(BlockId),
    /// Object allocation, payload is the class name.
    New(String),
    /// Array allocation.
    NewArray,
    /// Array load / store / length.
    ALoad,
    /// Array store.
    AStore,
    /// Array length.
    ALen,
    /// Field read, payload is the field name.
    GetField(String),
    /// Field write, payload is the field name.
    PutField(String),
    /// Static field read.
    GetStatic(String),
    /// Static field write.
    PutStatic(String),
    /// Call, payload is `Class.method`.
    Invoke(String),
    /// Return (with or without value child).
    Return,
    /// Leaf: virtual register.
    RegLeaf(Reg),
    /// Leaf: integer constant.
    IConstLeaf(i64),
    /// Leaf: float constant.
    FConstLeaf(f64),
    /// Leaf: string constant.
    SConstLeaf(String),
    /// Leaf: null.
    NullLeaf,
}

/// A node of the code-generation AST.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeNode {
    /// Operator.
    pub op: TreeOp,
    /// The register this node writes, if any (roots of value-producing quads).
    pub dst: Option<Reg>,
    /// Children (operand subtrees).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// A leaf node for an operand.
    pub fn leaf(op: &Operand) -> TreeNode {
        let top = match op {
            Operand::Reg(r) => TreeOp::RegLeaf(*r),
            Operand::IConst(v) => TreeOp::IConstLeaf(*v),
            Operand::FConst(v) => TreeOp::FConstLeaf(*v),
            Operand::BConst(v) => TreeOp::IConstLeaf(*v as i64),
            Operand::SConst(s) => TreeOp::SConstLeaf(s.clone()),
            Operand::Null => TreeOp::NullLeaf,
        };
        TreeNode {
            op: top,
            dst: None,
            children: Vec::new(),
        }
    }

    /// Number of nodes in the tree (including this one).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Depth of the tree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Pretty-prints the tree with indentation (used by the Figure 6 reproduction).
    pub fn render(&self, indent: usize) -> String {
        let mut out = String::new();
        let pad = "  ".repeat(indent);
        let label = match &self.op {
            TreeOp::Move => "MOVE_I".to_string(),
            TreeOp::Bin(m) => format!("{m}_I"),
            TreeOp::Un(m) => format!("{m}_I"),
            TreeOp::IfCmp { cond, target } => format!("IFCMP_I [{cond} -> BB{}]", target.0),
            TreeOp::Goto(t) => format!("GOTO BB{}", t.0),
            TreeOp::New(c) => format!("NEW {c}"),
            TreeOp::NewArray => "NEWARRAY".to_string(),
            TreeOp::ALoad => "ALOAD".to_string(),
            TreeOp::AStore => "ASTORE".to_string(),
            TreeOp::ALen => "ARRAYLENGTH".to_string(),
            TreeOp::GetField(f) => format!("GETFIELD {f}"),
            TreeOp::PutField(f) => format!("PUTFIELD {f}"),
            TreeOp::GetStatic(f) => format!("GETSTATIC {f}"),
            TreeOp::PutStatic(f) => format!("PUTSTATIC {f}"),
            TreeOp::Invoke(m) => format!("INVOKE {m}"),
            TreeOp::Return => "RETURN_I".to_string(),
            TreeOp::RegLeaf(r) => format!("{r}"),
            TreeOp::IConstLeaf(v) => format!("IConst {v}"),
            TreeOp::FConstLeaf(v) => format!("FConst {v}"),
            TreeOp::SConstLeaf(s) => format!("SConst \"{s}\""),
            TreeOp::NullLeaf => "null".to_string(),
        };
        let dst = match self.dst {
            Some(r) => format!(" => {r}"),
            None => String::new(),
        };
        out.push_str(&format!("{pad}{label}{dst}\n"));
        for c in &self.children {
            out.push_str(&c.render(indent + 1));
        }
        out
    }
}

/// Builds one AST per quad of `qm`, grouped by basic block.
pub fn build_method_forest(program: &Program, qm: &QuadMethod) -> Vec<(BlockId, Vec<TreeNode>)> {
    qm.blocks
        .iter()
        .map(|b| {
            let trees = b.quads.iter().map(|q| quad_to_tree(program, q)).collect();
            (b.id, trees)
        })
        .collect()
}

/// Converts a single quad into its AST.
pub fn quad_to_tree(program: &Program, q: &Quad) -> TreeNode {
    match q {
        Quad::Move { dst, src } => TreeNode {
            op: TreeOp::Move,
            dst: Some(*dst),
            children: vec![TreeNode::leaf(src)],
        },
        Quad::Bin { op, dst, lhs, rhs } => TreeNode {
            op: TreeOp::Bin(op.mnemonic()),
            dst: Some(*dst),
            children: vec![TreeNode::leaf(lhs), TreeNode::leaf(rhs)],
        },
        Quad::Un { op, dst, src } => TreeNode {
            op: TreeOp::Un(op.mnemonic()),
            dst: Some(*dst),
            children: vec![TreeNode::leaf(src)],
        },
        Quad::IfCmp {
            op,
            lhs,
            rhs,
            target,
        } => TreeNode {
            op: TreeOp::IfCmp {
                cond: op.mnemonic(),
                target: *target,
            },
            dst: None,
            children: vec![TreeNode::leaf(lhs), TreeNode::leaf(rhs)],
        },
        Quad::Goto { target } => TreeNode {
            op: TreeOp::Goto(*target),
            dst: None,
            children: vec![],
        },
        Quad::New { dst, class } => TreeNode {
            op: TreeOp::New(program.class(*class).name.clone()),
            dst: Some(*dst),
            children: vec![],
        },
        Quad::NewArray { dst, len, .. } => TreeNode {
            op: TreeOp::NewArray,
            dst: Some(*dst),
            children: vec![TreeNode::leaf(len)],
        },
        Quad::ALoad { dst, arr, idx } => TreeNode {
            op: TreeOp::ALoad,
            dst: Some(*dst),
            children: vec![TreeNode::leaf(arr), TreeNode::leaf(idx)],
        },
        Quad::AStore { arr, idx, val } => TreeNode {
            op: TreeOp::AStore,
            dst: None,
            children: vec![
                TreeNode::leaf(arr),
                TreeNode::leaf(idx),
                TreeNode::leaf(val),
            ],
        },
        Quad::ALen { dst, arr } => TreeNode {
            op: TreeOp::ALen,
            dst: Some(*dst),
            children: vec![TreeNode::leaf(arr)],
        },
        Quad::GetField { dst, obj, field } => TreeNode {
            op: TreeOp::GetField(program.field(*field).name.clone()),
            dst: Some(*dst),
            children: vec![TreeNode::leaf(obj)],
        },
        Quad::PutField { obj, field, val } => TreeNode {
            op: TreeOp::PutField(program.field(*field).name.clone()),
            dst: None,
            children: vec![TreeNode::leaf(obj), TreeNode::leaf(val)],
        },
        Quad::GetStatic { dst, field } => TreeNode {
            op: TreeOp::GetStatic(program.field(*field).name.clone()),
            dst: Some(*dst),
            children: vec![],
        },
        Quad::PutStatic { field, val } => TreeNode {
            op: TreeOp::PutStatic(program.field(*field).name.clone()),
            dst: None,
            children: vec![TreeNode::leaf(val)],
        },
        Quad::Invoke {
            dst, method, args, ..
        } => {
            let m = program.method(*method);
            TreeNode {
                op: TreeOp::Invoke(format!("{}.{}", program.class(m.class).name, m.name)),
                dst: *dst,
                children: args.iter().map(TreeNode::leaf).collect(),
            }
        }
        Quad::Return { val } => TreeNode {
            op: TreeOp::Return,
            dst: None,
            children: val.iter().map(TreeNode::leaf).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::lower::lower_method;

    fn example_forest() -> Vec<(BlockId, Vec<TreeNode>)> {
        let (p, id) = crate::tests::figure5_example();
        let qm = lower_method(&p, p.method(id)).unwrap();
        build_method_forest(&p, &qm)
    }

    #[test]
    fn every_quad_becomes_a_root_node() {
        let forest = example_forest();
        let total: usize = forest.iter().map(|(_, t)| t.len()).sum();
        assert!(total >= 5, "move, ifcmp, add, move, return at least");
        // Roots carry leaves as children, never nested roots in this forest shape.
        for (_, trees) in &forest {
            for t in trees {
                for c in &t.children {
                    assert!(c.children.is_empty(), "operands are leaves");
                }
            }
        }
    }

    #[test]
    fn figure6_shape_for_ifcmp() {
        let forest = example_forest();
        let ifcmp = forest
            .iter()
            .flat_map(|(_, t)| t.iter())
            .find(|t| matches!(t.op, TreeOp::IfCmp { .. }))
            .expect("ifcmp tree");
        assert_eq!(ifcmp.children.len(), 2);
        assert_eq!(ifcmp.size(), 3);
        assert_eq!(ifcmp.depth(), 2);
        let rendered = ifcmp.render(0);
        assert!(rendered.contains("IFCMP_I"));
        assert!(rendered.contains("LE"));
    }

    #[test]
    fn render_is_indented() {
        let forest = example_forest();
        let any = forest
            .iter()
            .flat_map(|(_, t)| t.iter())
            .find(|t| !t.children.is_empty())
            .unwrap();
        let r = any.render(0);
        assert!(r.lines().count() >= 2);
        assert!(r.lines().nth(1).unwrap().starts_with("  "));
    }
}
