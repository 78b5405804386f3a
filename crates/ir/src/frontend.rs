//! A small MiniJava-like source front-end.
//!
//! The paper's input is Java bytecode produced by `javac`; our equivalent is a tiny
//! object-oriented source language with classes, fields, constructors, methods, arrays
//! and structured control flow, compiled straight to the bytecode IR. The paper's
//! Bank/Account running example (Figure 2) can be written in this language — see the
//! `bank_distribution` example and the tests at the bottom of this module.
//!
//! The front-end is a hand-written lexer + recursive-descent parser + a two-pass
//! compiler (declaration collection, then body compilation with a per-method local
//! symbol table).

use std::collections::HashMap;
use std::fmt;

use crate::bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind};
use crate::program::{ClassId, MethodId, Program, Type};

/// A source-level compilation error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // punctuation
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    AndAnd,
    OrOr,
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 2;
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < bytes.len() && bytes[i] != '"' {
                    s.push(bytes[i]);
                    i += 1;
                }
                if i >= bytes.len() {
                    return err(line, "unterminated string literal");
                }
                i += 1;
                toks.push(SpannedTok {
                    tok: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let tok = if text.contains('.') {
                    Tok::Float(text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad float literal {text}"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad int literal {text}"),
                    })?)
                };
                toks.push(SpannedTok { tok, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                toks.push(SpannedTok {
                    tok: Tok::Ident(text),
                    line,
                });
            }
            _ => {
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let (tok, len) = match two.as_str() {
                    "==" => (Tok::EqEq, 2),
                    "!=" => (Tok::NotEq, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    "&&" => (Tok::AndAnd, 2),
                    "||" => (Tok::OrOr, 2),
                    _ => {
                        let t = match c {
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ';' => Tok::Semi,
                            ',' => Tok::Comma,
                            '.' => Tok::Dot,
                            '=' => Tok::Assign,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '!' => Tok::Bang,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            other => return err(line, format!("unexpected character '{other}'")),
                        };
                        (t, 1)
                    }
                };
                toks.push(SpannedTok { tok, line });
                i += len;
            }
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Eof,
        line,
    });
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum TypeName {
    Int,
    Float,
    Bool,
    Str,
    Void,
    Class(String),
    Array(Box<TypeName>),
}

#[derive(Debug, Clone)]
enum Expr {
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    BoolLit(bool),
    Null,
    This,
    Var(String),
    Field(Box<Expr>, String),
    Index(Box<Expr>, Box<Expr>),
    Length(Box<Expr>),
    Call {
        recv: Option<Box<Expr>>,
        class: Option<String>,
        name: String,
        args: Vec<Expr>,
    },
    New(String, Vec<Expr>),
    NewArray(TypeName, Box<Expr>),
    Unary(UnKind, Box<Expr>),
    Binary(BinKind, Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnKind {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

#[derive(Debug, Clone)]
enum Stmt {
    Block(Vec<Stmt>),
    VarDecl(TypeName, String, Option<Expr>),
    Assign(Expr, Expr),
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    While(Expr, Box<Stmt>),
    Return(Option<Expr>),
    Expr(Expr),
}

#[derive(Debug, Clone)]
struct MethodDecl {
    name: String,
    is_static: bool,
    params: Vec<(TypeName, String)>,
    ret: TypeName,
    body: Vec<Stmt>,
    line: usize,
}

#[derive(Debug, Clone)]
struct ClassDecl {
    name: String,
    super_name: Option<String>,
    fields: Vec<(TypeName, String, bool)>, // ty, name, is_static
    methods: Vec<MethodDecl>,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }
    fn line(&self) -> usize {
        self.toks[self.pos].line
    }
    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        self.pos += 1;
        t
    }
    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            err(
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            )
        }
    }
    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => err(self.line(), format!("expected identifier, found {other:?}")),
        }
    }
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn parse_program(&mut self) -> Result<Vec<ClassDecl>, ParseError> {
        let mut classes = Vec::new();
        while self.peek() != &Tok::Eof {
            if !self.eat_keyword("class") {
                return err(self.line(), "expected 'class'");
            }
            classes.push(self.parse_class()?);
        }
        Ok(classes)
    }

    fn parse_class(&mut self) -> Result<ClassDecl, ParseError> {
        let name = self.expect_ident()?;
        let super_name = if self.eat_keyword("extends") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect(&Tok::LBrace, "'{'")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while self.peek() != &Tok::RBrace {
            let line = self.line();
            let is_static = self.eat_keyword("static");
            // Constructor: IDENT '(' where IDENT == class name.
            if let Tok::Ident(id) = self.peek().clone() {
                if id == name && self.toks[self.pos + 1].tok == Tok::LParen {
                    self.bump();
                    let params = self.parse_params()?;
                    let body = self.parse_block()?;
                    methods.push(MethodDecl {
                        name: "<init>".to_string(),
                        is_static: false,
                        params,
                        ret: TypeName::Void,
                        body,
                        line,
                    });
                    continue;
                }
            }
            let ty = self.parse_type()?;
            let member_name = self.expect_ident()?;
            if self.peek() == &Tok::LParen {
                let params = self.parse_params()?;
                let body = self.parse_block()?;
                methods.push(MethodDecl {
                    name: member_name,
                    is_static,
                    params,
                    ret: ty,
                    body,
                    line,
                });
            } else {
                self.expect(&Tok::Semi, "';'")?;
                fields.push((ty, member_name, is_static));
            }
        }
        self.expect(&Tok::RBrace, "'}'")?;
        Ok(ClassDecl {
            name,
            super_name,
            fields,
            methods,
        })
    }

    fn parse_params(&mut self) -> Result<Vec<(TypeName, String)>, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        while self.peek() != &Tok::RParen {
            if !params.is_empty() {
                self.expect(&Tok::Comma, "','")?;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            params.push((ty, name));
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(params)
    }

    /// Parses a type name without any trailing `[]` suffix (needed by `new T[expr]`).
    fn parse_base_type(&mut self) -> Result<TypeName, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(match s.as_str() {
                "int" => TypeName::Int,
                "float" | "double" => TypeName::Float,
                "boolean" => TypeName::Bool,
                "String" => TypeName::Str,
                "void" => TypeName::Void,
                _ => TypeName::Class(s),
            }),
            other => err(self.line(), format!("expected type, found {other:?}")),
        }
    }

    fn parse_type(&mut self) -> Result<TypeName, ParseError> {
        let base = self.parse_base_type()?;
        let mut ty = base;
        while self.peek() == &Tok::LBracket && self.toks[self.pos + 1].tok == Tok::RBracket {
            self.bump();
            self.bump();
            ty = TypeName::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&Tok::RBrace, "'}'")?;
        Ok(stmts)
    }

    fn looks_like_decl(&self) -> bool {
        // `Type name ...` — identifier followed by identifier, or a primitive keyword,
        // or `Type[] name`.
        match self.peek() {
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "int" | "float" | "double" | "boolean" | "String"
                ) =>
            {
                true
            }
            Tok::Ident(_) => {
                // Ident Ident  or  Ident [ ] Ident
                matches!(
                    (
                        &self.toks[self.pos + 1].tok,
                        self.toks.get(self.pos + 2).map(|t| &t.tok),
                    ),
                    (Tok::Ident(_), _) | (Tok::LBracket, Some(Tok::RBracket))
                )
            }
            _ => false,
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::LBrace => Ok(Stmt::Block(self.parse_block()?)),
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "')'")?;
                let then = Box::new(self.parse_stmt()?);
                let els = if self.eat_keyword("else") {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "')'")?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::While(cond, body))
            }
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                if self.peek() == &Tok::Semi {
                    self.bump();
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&Tok::Semi, "';'")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            _ if self.looks_like_decl() => {
                let ty = self.parse_type()?;
                let name = self.expect_ident()?;
                let init = if self.peek() == &Tok::Assign {
                    self.bump();
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(&Tok::Semi, "';'")?;
                Ok(Stmt::VarDecl(ty, name, init))
            }
            _ => {
                let e = self.parse_expr()?;
                if self.peek() == &Tok::Assign {
                    self.bump();
                    let rhs = self.parse_expr()?;
                    self.expect(&Tok::Semi, "';'")?;
                    Ok(Stmt::Assign(e, rhs))
                } else {
                    self.expect(&Tok::Semi, "';'")?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinKind::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(BinKind::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let kind = match self.peek() {
            Tok::Lt => BinKind::Lt,
            Tok::Le => BinKind::Le,
            Tok::Gt => BinKind::Gt,
            Tok::Ge => BinKind::Ge,
            Tok::EqEq => BinKind::Eq,
            Tok::NotEq => BinKind::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Binary(kind, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let kind = match self.peek() {
                Tok::Plus => BinKind::Add,
                Tok::Minus => BinKind::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary(kind, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let kind = match self.peek() {
                Tok::Star => BinKind::Mul,
                Tok::Slash => BinKind::Div,
                Tok::Percent => BinKind::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(kind, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnKind::Neg, Box::new(self.parse_unary()?)))
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Unary(UnKind::Not, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if self.peek() == &Tok::LParen {
                        let args = self.parse_args()?;
                        e = Expr::Call {
                            recv: Some(Box::new(e)),
                            class: None,
                            name,
                            args,
                        };
                    } else if name == "length" {
                        e = Expr::Length(Box::new(e));
                    } else {
                        e = Expr::Field(Box::new(e), name);
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(&Tok::RBracket, "']'")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        while self.peek() != &Tok::RParen {
            if !args.is_empty() {
                self.expect(&Tok::Comma, "','")?;
            }
            args.push(self.parse_expr()?);
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Str(s) => Ok(Expr::StrLit(s)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(id) => match id.as_str() {
                "true" => Ok(Expr::BoolLit(true)),
                "false" => Ok(Expr::BoolLit(false)),
                "null" => Ok(Expr::Null),
                "this" => Ok(Expr::This),
                "new" => {
                    let ty = self.parse_base_type()?;
                    if self.peek() == &Tok::LBracket {
                        self.bump();
                        let len = self.parse_expr()?;
                        self.expect(&Tok::RBracket, "']'")?;
                        Ok(Expr::NewArray(ty, Box::new(len)))
                    } else {
                        let class = match ty {
                            TypeName::Class(c) => c,
                            other => {
                                return err(
                                    self.line(),
                                    format!("cannot 'new' non-class type {other:?}"),
                                )
                            }
                        };
                        let args = self.parse_args()?;
                        Ok(Expr::New(class, args))
                    }
                }
                _ => {
                    // Qualified static call `Class.method(...)` is handled in postfix as a
                    // field/virtual chain; plain `name(...)` is a same-class call.
                    if self.peek() == &Tok::LParen {
                        let args = self.parse_args()?;
                        Ok(Expr::Call {
                            recv: None,
                            class: None,
                            name: id,
                            args,
                        })
                    } else {
                        Ok(Expr::Var(id))
                    }
                }
            },
            other => err(self.line(), format!("unexpected token {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Compiler (AST -> bytecode)
// ---------------------------------------------------------------------------

struct MethodCtx {
    insns: Vec<Insn>,
    locals: HashMap<String, (u16, Type)>,
    next_local: u16,
    fixups: Vec<(usize, usize)>, // (insn index, label id)
    labels: Vec<Option<usize>>,
}

impl MethodCtx {
    fn new() -> Self {
        MethodCtx {
            insns: Vec::new(),
            locals: HashMap::new(),
            next_local: 0,
            fixups: Vec::new(),
            labels: Vec::new(),
        }
    }
    fn emit(&mut self, i: Insn) {
        self.insns.push(i);
    }
    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }
    fn place(&mut self, l: usize) {
        self.labels[l] = Some(self.insns.len());
    }
    fn branch(&mut self, insn: Insn, label: usize) {
        self.fixups.push((self.insns.len(), label));
        self.insns.push(insn);
    }
    fn declare(&mut self, name: &str, ty: Type) -> u16 {
        let slot = self.next_local;
        self.next_local += 1;
        self.locals.insert(name.to_string(), (slot, ty));
        slot
    }
    fn finish(mut self) -> (Vec<Insn>, u16) {
        let fixups = std::mem::take(&mut self.fixups);
        // A label may legitimately point one past the last instruction (e.g. the join
        // label of an if/else whose branches both return). Keep branch targets in range
        // by appending an unreachable return.
        if fixups
            .iter()
            .any(|&(_, l)| self.labels[l] == Some(self.insns.len()))
        {
            self.insns.push(Insn::Return);
        }
        for (idx, label) in fixups {
            let target = self.labels[label].expect("unplaced label");
            self.insns[idx].remap_targets(|_| target);
        }
        (self.insns, self.next_local)
    }
}

struct Compiler<'a> {
    program: &'a mut Program,
    class_ids: HashMap<String, ClassId>,
    method_ids: HashMap<(String, String), MethodId>,
    decls: Vec<ClassDecl>,
}

impl<'a> Compiler<'a> {
    fn resolve_type(&self, t: &TypeName, line: usize) -> Result<Type, ParseError> {
        Ok(match t {
            TypeName::Int => Type::Int,
            TypeName::Float => Type::Float,
            TypeName::Bool => Type::Bool,
            TypeName::Str => Type::Str,
            TypeName::Void => Type::Void,
            TypeName::Class(c) => Type::Ref(*self.class_ids.get(c).ok_or_else(|| ParseError {
                line,
                message: format!("unknown class {c}"),
            })?),
            TypeName::Array(inner) => Type::Array(Box::new(self.resolve_type(inner, line)?)),
        })
    }

    fn declare_all(&mut self) -> Result<(), ParseError> {
        // Pass 1a: classes.
        for decl in &self.decls {
            let id = self.program.add_class(&decl.name, None);
            self.class_ids.insert(decl.name.clone(), id);
        }
        // Pass 1b: supers, fields, method signatures.
        let decls = self.decls.clone();
        for decl in &decls {
            let cid = self.class_ids[&decl.name];
            if let Some(sup) = &decl.super_name {
                let sid = *self.class_ids.get(sup).ok_or_else(|| ParseError {
                    line: 0,
                    message: format!("unknown superclass {sup}"),
                })?;
                self.program.class_mut(cid).super_class = Some(sid);
            }
            for (ty, name, is_static) in &decl.fields {
                let rty = self.resolve_type(ty, 0)?;
                self.program.add_field(cid, name, rty, *is_static);
            }
            for m in &decl.methods {
                let params = m
                    .params
                    .iter()
                    .map(|(t, _)| self.resolve_type(t, m.line))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret = self.resolve_type(&m.ret, m.line)?;
                let mid = self
                    .program
                    .add_method(cid, &m.name, params, ret, m.is_static);
                self.method_ids
                    .insert((decl.name.clone(), m.name.clone()), mid);
            }
        }
        Ok(())
    }

    fn compile_bodies(&mut self) -> Result<(), ParseError> {
        let decls = self.decls.clone();
        for decl in &decls {
            let cid = self.class_ids[&decl.name];
            for m in &decl.methods {
                let mid = self.method_ids[&(decl.name.clone(), m.name.clone())];
                let (body, locals) = self.compile_method(cid, m)?;
                let pm = self.program.method_mut(mid);
                pm.body = body;
                pm.locals = locals.max(pm.entry_locals());
            }
        }
        // entry point: a static `main` method anywhere.
        for c in &decls {
            if let Some(&mid) = self.method_ids.get(&(c.name.clone(), "main".to_string())) {
                if self.program.method(mid).is_static {
                    self.program.set_entry(mid);
                }
            }
        }
        Ok(())
    }

    fn compile_method(
        &mut self,
        class: ClassId,
        m: &MethodDecl,
    ) -> Result<(Vec<Insn>, u16), ParseError> {
        let mut ctx = MethodCtx::new();
        if !m.is_static {
            ctx.declare("this", Type::Ref(class));
        }
        for (ty, name) in &m.params {
            let rty = self.resolve_type(ty, m.line)?;
            ctx.declare(name, rty);
        }
        for stmt in &m.body {
            self.compile_stmt(class, m, &mut ctx, stmt)?;
        }
        // Implicit return for void methods / constructors.
        let ret = self.resolve_type(&m.ret, m.line)?;
        if ret == Type::Void {
            if !matches!(ctx.insns.last(), Some(i) if i.is_terminator()) {
                ctx.emit(Insn::Return);
            }
        } else if !matches!(ctx.insns.last(), Some(i) if i.is_terminator()) {
            return err(m.line, format!("method {} may not return a value", m.name));
        }
        Ok(ctx.finish())
    }

    fn compile_stmt(
        &mut self,
        class: ClassId,
        m: &MethodDecl,
        ctx: &mut MethodCtx,
        stmt: &Stmt,
    ) -> Result<(), ParseError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.compile_stmt(class, m, ctx, s)?;
                }
            }
            Stmt::VarDecl(ty, name, init) => {
                let rty = self.resolve_type(ty, m.line)?;
                if let Some(e) = init {
                    self.compile_expr(class, m, ctx, e)?;
                    let slot = ctx.declare(name, rty);
                    ctx.emit(Insn::Store(slot));
                } else {
                    ctx.declare(name, rty);
                }
            }
            Stmt::Assign(lhs, rhs) => match lhs {
                Expr::Var(name) => {
                    if let Some((slot, _)) = ctx.locals.get(name).cloned() {
                        self.compile_expr(class, m, ctx, rhs)?;
                        ctx.emit(Insn::Store(slot));
                    } else if let Some(fr) = self.program.resolve_field(class, name) {
                        // implicit this.field = rhs
                        if self.program.field(fr).is_static {
                            self.compile_expr(class, m, ctx, rhs)?;
                            ctx.emit(Insn::PutStatic(fr));
                        } else {
                            ctx.emit(Insn::Load(0));
                            self.compile_expr(class, m, ctx, rhs)?;
                            ctx.emit(Insn::PutField(fr));
                        }
                    } else {
                        return err(m.line, format!("unknown variable {name}"));
                    }
                }
                Expr::Field(obj, fname) => {
                    let oty = self.compile_expr(class, m, ctx, obj)?;
                    let ocls = oty.ref_class().ok_or_else(|| ParseError {
                        line: m.line,
                        message: format!("field {fname} on non-object"),
                    })?;
                    let fr = self
                        .program
                        .resolve_field(ocls, fname)
                        .ok_or_else(|| ParseError {
                            line: m.line,
                            message: format!("unknown field {fname}"),
                        })?;
                    self.compile_expr(class, m, ctx, rhs)?;
                    ctx.emit(Insn::PutField(fr));
                }
                Expr::Index(arr, idx) => {
                    self.compile_expr(class, m, ctx, arr)?;
                    self.compile_expr(class, m, ctx, idx)?;
                    self.compile_expr(class, m, ctx, rhs)?;
                    ctx.emit(Insn::ArrayStore);
                }
                _ => return err(m.line, "invalid assignment target"),
            },
            Stmt::If(cond, then, els) => {
                let else_l = ctx.new_label();
                let end_l = ctx.new_label();
                self.compile_condition(class, m, ctx, cond, else_l)?;
                self.compile_stmt(class, m, ctx, then)?;
                ctx.branch(Insn::Goto(usize::MAX), end_l);
                ctx.place(else_l);
                if let Some(e) = els {
                    self.compile_stmt(class, m, ctx, e)?;
                }
                ctx.place(end_l);
            }
            Stmt::While(cond, body) => {
                let head = ctx.insns.len();
                let exit_l = ctx.new_label();
                self.compile_condition(class, m, ctx, cond, exit_l)?;
                self.compile_stmt(class, m, ctx, body)?;
                ctx.emit(Insn::Goto(head));
                ctx.place(exit_l);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.compile_expr(class, m, ctx, e)?;
                    ctx.emit(Insn::ReturnValue);
                } else {
                    ctx.emit(Insn::Return);
                }
            }
            Stmt::Expr(e) => {
                let ty = self.compile_expr(class, m, ctx, e)?;
                if ty != Type::Void {
                    ctx.emit(Insn::Pop);
                }
            }
        }
        Ok(())
    }

    /// Compiles `cond`, branching to `false_label` if it evaluates to false.
    fn compile_condition(
        &mut self,
        class: ClassId,
        m: &MethodDecl,
        ctx: &mut MethodCtx,
        cond: &Expr,
        false_label: usize,
    ) -> Result<(), ParseError> {
        if let Expr::Binary(kind, lhs, rhs) = cond {
            let cmp = match kind {
                BinKind::Lt => Some(CmpOp::Lt),
                BinKind::Le => Some(CmpOp::Le),
                BinKind::Gt => Some(CmpOp::Gt),
                BinKind::Ge => Some(CmpOp::Ge),
                BinKind::Eq => Some(CmpOp::Eq),
                BinKind::Ne => Some(CmpOp::Ne),
                _ => None,
            };
            if let Some(op) = cmp {
                self.compile_expr(class, m, ctx, lhs)?;
                self.compile_expr(class, m, ctx, rhs)?;
                ctx.branch(Insn::IfCmp(op.negate(), usize::MAX), false_label);
                return Ok(());
            }
        }
        self.compile_expr(class, m, ctx, cond)?;
        ctx.branch(Insn::If(CmpOp::Eq, usize::MAX), false_label);
        Ok(())
    }

    fn compile_expr(
        &mut self,
        class: ClassId,
        m: &MethodDecl,
        ctx: &mut MethodCtx,
        e: &Expr,
    ) -> Result<Type, ParseError> {
        match e {
            Expr::IntLit(v) => {
                ctx.emit(Insn::Const(Const::Int(*v)));
                Ok(Type::Int)
            }
            Expr::FloatLit(v) => {
                ctx.emit(Insn::Const(Const::Float(*v)));
                Ok(Type::Float)
            }
            Expr::StrLit(s) => {
                ctx.emit(Insn::Const(Const::Str(s.clone())));
                Ok(Type::Str)
            }
            Expr::BoolLit(b) => {
                ctx.emit(Insn::Const(Const::Bool(*b)));
                Ok(Type::Bool)
            }
            Expr::Null => {
                ctx.emit(Insn::Const(Const::Null));
                Ok(Type::Ref(class))
            }
            Expr::This => {
                ctx.emit(Insn::Load(0));
                Ok(Type::Ref(class))
            }
            Expr::Var(name) => {
                if let Some((slot, ty)) = ctx.locals.get(name).cloned() {
                    ctx.emit(Insn::Load(slot));
                    Ok(ty)
                } else if let Some(fr) = self.program.resolve_field(class, name) {
                    let f = self.program.field(fr).clone();
                    if f.is_static {
                        ctx.emit(Insn::GetStatic(fr));
                    } else {
                        ctx.emit(Insn::Load(0));
                        ctx.emit(Insn::GetField(fr));
                    }
                    Ok(f.ty)
                } else {
                    err(m.line, format!("unknown variable {name}"))
                }
            }
            Expr::Field(obj, fname) => {
                let oty = self.compile_expr(class, m, ctx, obj)?;
                let ocls = oty.ref_class().ok_or_else(|| ParseError {
                    line: m.line,
                    message: format!("field access {fname} on non-object"),
                })?;
                let fr = self
                    .program
                    .resolve_field(ocls, fname)
                    .ok_or_else(|| ParseError {
                        line: m.line,
                        message: format!("unknown field {fname}"),
                    })?;
                ctx.emit(Insn::GetField(fr));
                Ok(self.program.field(fr).ty.clone())
            }
            Expr::Index(arr, idx) => {
                let aty = self.compile_expr(class, m, ctx, arr)?;
                self.compile_expr(class, m, ctx, idx)?;
                ctx.emit(Insn::ArrayLoad);
                match aty {
                    Type::Array(inner) => Ok(*inner),
                    _ => err(m.line, "indexing a non-array"),
                }
            }
            Expr::Length(arr) => {
                self.compile_expr(class, m, ctx, arr)?;
                ctx.emit(Insn::ArrayLength);
                Ok(Type::Int)
            }
            Expr::Call {
                recv,
                class: _qual,
                name,
                args,
            } => {
                // Determine the receiver class.
                let (recv_class, is_static_call) = match recv {
                    None => (class, false),
                    Some(r) => {
                        // `Ident.method(...)` where Ident is a class name = static call.
                        if let Expr::Var(cname) = r.as_ref() {
                            if !ctx.locals.contains_key(cname)
                                && self.program.resolve_field(class, cname).is_none()
                            {
                                if let Some(&cid) = self.class_ids.get(cname) {
                                    (cid, true)
                                } else {
                                    return err(m.line, format!("unknown receiver {cname}"));
                                }
                            } else {
                                let t = self.peek_expr_type(class, ctx, r)?;
                                (
                                    t.ref_class().ok_or_else(|| ParseError {
                                        line: m.line,
                                        message: format!("call {name} on non-object"),
                                    })?,
                                    false,
                                )
                            }
                        } else {
                            let t = self.peek_expr_type(class, ctx, r)?;
                            (
                                t.ref_class().ok_or_else(|| ParseError {
                                    line: m.line,
                                    message: format!("call {name} on non-object"),
                                })?,
                                false,
                            )
                        }
                    }
                };
                let mid = self
                    .program
                    .resolve_method(recv_class, name)
                    .ok_or_else(|| ParseError {
                        line: m.line,
                        message: format!(
                            "unknown method {}.{name}",
                            self.program.class(recv_class).name
                        ),
                    })?;
                let callee = self.program.method(mid).clone();
                if callee.is_static || is_static_call {
                    for a in args {
                        self.compile_expr(class, m, ctx, a)?;
                    }
                    ctx.emit(Insn::Invoke(InvokeKind::Static, mid));
                } else {
                    match recv {
                        None => ctx.emit(Insn::Load(0)),
                        Some(r) => {
                            self.compile_expr(class, m, ctx, r)?;
                        }
                    }
                    for a in args {
                        self.compile_expr(class, m, ctx, a)?;
                    }
                    ctx.emit(Insn::Invoke(InvokeKind::Virtual, mid));
                }
                Ok(callee.ret)
            }
            Expr::New(cname, args) => {
                let cid = *self.class_ids.get(cname).ok_or_else(|| ParseError {
                    line: m.line,
                    message: format!("unknown class {cname}"),
                })?;
                let ctor = self.program.find_method(cid, "<init>");
                ctx.emit(Insn::New(cid));
                if let Some(ctor) = ctor {
                    ctx.emit(Insn::Dup);
                    for a in args {
                        self.compile_expr(class, m, ctx, a)?;
                    }
                    ctx.emit(Insn::Invoke(InvokeKind::Special, ctor));
                } else if !args.is_empty() {
                    return err(m.line, format!("class {cname} has no constructor"));
                }
                Ok(Type::Ref(cid))
            }
            Expr::NewArray(ty, len) => {
                let elem = self.resolve_type(ty, m.line)?;
                self.compile_expr(class, m, ctx, len)?;
                ctx.emit(Insn::NewArray(elem.clone()));
                Ok(Type::Array(Box::new(elem)))
            }
            Expr::Unary(kind, inner) => {
                let t = self.compile_expr(class, m, ctx, inner)?;
                match kind {
                    UnKind::Neg => ctx.emit(Insn::Un(crate::bytecode::UnOp::Neg)),
                    UnKind::Not => ctx.emit(Insn::Un(crate::bytecode::UnOp::Not)),
                }
                Ok(t)
            }
            Expr::Binary(kind, lhs, rhs) => {
                match kind {
                    BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Div | BinKind::Rem => {
                        let t = self.compile_expr(class, m, ctx, lhs)?;
                        self.compile_expr(class, m, ctx, rhs)?;
                        let op = match kind {
                            BinKind::Add => BinOp::Add,
                            BinKind::Sub => BinOp::Sub,
                            BinKind::Mul => BinOp::Mul,
                            BinKind::Div => BinOp::Div,
                            _ => BinOp::Rem,
                        };
                        ctx.emit(Insn::Bin(op));
                        Ok(t)
                    }
                    BinKind::And | BinKind::Or => {
                        // Java-style short-circuit evaluation: the right operand is only
                        // evaluated when the left one has not already decided the result.
                        let short = ctx.new_label();
                        let end = ctx.new_label();
                        self.compile_expr(class, m, ctx, lhs)?;
                        if *kind == BinKind::And {
                            ctx.branch(Insn::If(CmpOp::Eq, usize::MAX), short);
                        } else {
                            ctx.branch(Insn::If(CmpOp::Ne, usize::MAX), short);
                        }
                        self.compile_expr(class, m, ctx, rhs)?;
                        ctx.branch(Insn::Goto(usize::MAX), end);
                        ctx.place(short);
                        ctx.emit(Insn::Const(Const::Bool(*kind == BinKind::Or)));
                        ctx.place(end);
                        Ok(Type::Bool)
                    }
                    _ => {
                        // Comparison producing a boolean value: if (cmp) push true else false.
                        self.compile_expr(class, m, ctx, lhs)?;
                        self.compile_expr(class, m, ctx, rhs)?;
                        let op = match kind {
                            BinKind::Lt => CmpOp::Lt,
                            BinKind::Le => CmpOp::Le,
                            BinKind::Gt => CmpOp::Gt,
                            BinKind::Ge => CmpOp::Ge,
                            BinKind::Eq => CmpOp::Eq,
                            _ => CmpOp::Ne,
                        };
                        let true_l = ctx.new_label();
                        let end_l = ctx.new_label();
                        ctx.branch(Insn::IfCmp(op, usize::MAX), true_l);
                        ctx.emit(Insn::Const(Const::Bool(false)));
                        ctx.branch(Insn::Goto(usize::MAX), end_l);
                        ctx.place(true_l);
                        ctx.emit(Insn::Const(Const::Bool(true)));
                        ctx.place(end_l);
                        Ok(Type::Bool)
                    }
                }
            }
        }
    }

    /// Computes the type an expression would have without emitting code twice: for the
    /// receiver of a call we must emit the code exactly once, so this compiles into a
    /// scratch context purely for its type. (Receivers are re-compiled for real by the
    /// caller; bodies are small so this stays cheap.)
    fn peek_expr_type(
        &mut self,
        class: ClassId,
        ctx: &MethodCtx,
        e: &Expr,
    ) -> Result<Type, ParseError> {
        let mut scratch = MethodCtx::new();
        scratch.locals = ctx.locals.clone();
        scratch.next_local = ctx.next_local;
        let dummy = MethodDecl {
            name: "<peek>".into(),
            is_static: false,
            params: vec![],
            ret: TypeName::Void,
            body: vec![],
            line: 0,
        };
        self.compile_expr(class, &dummy, &mut scratch, e)
    }
}

/// Compiles MiniJava-like source text into a [`Program`].
///
/// The entry point is any `static void main()` method. See the module documentation for
/// the supported language subset.
pub fn compile_source(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut parser = Parser { toks, pos: 0 };
    let decls = parser.parse_program()?;
    let mut program = Program::new();
    let mut compiler = Compiler {
        program: &mut program,
        class_ids: HashMap::new(),
        method_ids: HashMap::new(),
        decls,
    };
    compiler.declare_all()?;
    compiler.compile_bodies()?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_program;

    const BANK_SRC: &str = r#"
        class Account {
            int id;
            String name;
            int savings;
            int checking;
            Account(int id, String name, int savings, int checking) {
                this.id = id;
                this.name = name;
                this.savings = savings;
                this.checking = checking;
            }
            int getSavings() { return this.savings; }
            int getId() { return this.id; }
            void setBalance(int b) { this.savings = b; }
            int getBalance() { return this.savings; }
        }
        class Bank {
            int id;
            String name;
            int numCustomers;
            Account[] accounts;
            int count;
            Bank(String name, int numCustomers, int initialBalance) {
                this.name = name;
                this.numCustomers = numCustomers;
                this.accounts = new Account[100];
                this.count = 0;
                this.initializeAccounts(initialBalance);
            }
            void initializeAccounts(int initialBalance) {
                int i = 0;
                while (i < this.numCustomers) {
                    Account a = new Account(i, "customer", initialBalance, 0);
                    this.openAccount(a);
                    i = i + 1;
                }
            }
            void openAccount(Account a) {
                this.accounts[this.count] = a;
                this.count = this.count + 1;
            }
            Account getCustomer(int customerID) {
                return this.accounts[customerID];
            }
            boolean withdraw(int customerID, int amount) {
                if (amount > 0) {
                    this.getCustomer(customerID).setBalance(
                        this.getCustomer(customerID).getBalance() - amount);
                    return true;
                } else {
                    return false;
                }
            }
            static void main() {
                Bank merchants = new Bank("Merchants", 10, 10000);
                Account a4 = new Account(1, "ABC Market", 1000000, 100000);
                Account a5 = new Account(2, "CDE Outlet", 5000000, 300000);
                merchants.openAccount(a4);
                merchants.openAccount(a5);
                Account a = merchants.getCustomer(2);
                merchants.withdraw(a.getId(), 900);
            }
        }
    "#;

    #[test]
    fn bank_example_compiles_and_verifies() {
        let p = compile_source(BANK_SRC).expect("compiles");
        assert!(p.class_by_name("Account").is_some());
        assert!(p.class_by_name("Bank").is_some());
        assert!(p.entry.is_some());
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn simple_arithmetic_compiles() {
        let src = r#"
            class Calc {
                int square(int x) { return x * x; }
                static void main() {
                    Calc c = new Calc();
                    int y = c.square(7);
                    if (y > 40) { y = y - 1; } else { y = 0; }
                    while (y > 0) { y = y - 10; }
                }
            }
        "#;
        let p = compile_source(src).expect("compiles");
        verify_program(&p).expect("verifies");
        let main = p.entry.unwrap();
        assert!(p.method(main).body.len() > 10);
    }

    #[test]
    fn classes_without_constructor_are_allowed() {
        let src = r#"
            class Point { int x; int y; }
            class Main {
                static void main() {
                    Point p = new Point();
                    p.x = 3;
                    p.y = 4;
                    int d = p.x * p.x + p.y * p.y;
                }
            }
        "#;
        let p = compile_source(src).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn arrays_and_length_compile() {
        let src = r#"
            class A {
                static void main() {
                    int[] xs = new int[10];
                    int i = 0;
                    while (i < xs.length) {
                        xs[i] = i * 2;
                        i = i + 1;
                    }
                    int total = 0;
                    i = 0;
                    while (i < xs.length) {
                        total = total + xs[i];
                        i = i + 1;
                    }
                }
            }
        "#;
        let p = compile_source(src).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let src = r#"
            class A { static void main() { x = 3; } }
        "#;
        let e = compile_source(src).unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn unknown_class_is_an_error() {
        let src = r#"
            class A { static void main() { B b = new B(); } }
        "#;
        assert!(compile_source(src).is_err());
    }

    #[test]
    fn boolean_comparison_as_value() {
        let src = r#"
            class A {
                static void main() {
                    int x = 5;
                    boolean big = x > 3;
                    if (big) { x = 1; }
                }
            }
        "#;
        let p = compile_source(src).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn inheritance_and_virtual_dispatch_compile() {
        let src = r#"
            class Shape {
                int area() { return 0; }
            }
            class Square extends Shape {
                int side;
                Square(int side) { this.side = side; }
                int area() { return this.side * this.side; }
            }
            class Main {
                static void main() {
                    Shape s = new Square(4);
                    int a = s.area();
                }
            }
        "#;
        let p = compile_source(src).expect("compiles");
        verify_program(&p).expect("verifies");
        let sq = p.class_by_name("Square").unwrap();
        let sh = p.class_by_name("Shape").unwrap();
        assert!(p.is_subclass_of(sq, sh));
    }

    #[test]
    fn lexer_reports_unterminated_string() {
        assert!(compile_source("class A { static void main() { String s = \"oops; } }").is_err());
    }

    /// Every diagnostic keeps its line and its wording. Body errors carry the line
    /// their method starts on; parse errors the line of the offending token.
    #[test]
    fn errors_keep_their_lines_and_messages() {
        let cases: [(&str, usize, &str); 10] = [
            (
                "class A {\n  static void main() {\n    x = 3;\n  }\n}",
                2,
                "unknown variable x",
            ),
            (
                "class A {\n\n  static void main() { B b = new B(); }\n}",
                3,
                "unknown class B",
            ),
            (
                "class C { }\nclass A {\n  static void main() {\n    C c = new C();\n    c.m();\n  }\n}",
                3,
                "unknown method C.m",
            ),
            (
                "class A {\n  int f;\n  static void main() { Zed.go(); }\n}",
                3,
                "unknown receiver Zed",
            ),
            (
                "class C { }\nclass A {\n  static void main() { C c = new C(1); }\n}",
                3,
                "class C has no constructor",
            ),
            (
                "class A {\n  static void main() { }\n  int m() { }\n}",
                3,
                "method m may not return a value",
            ),
            (
                "class A {\n  static void main() {\n    int x = 1\n  }\n}",
                4,
                "expected ';', found RBrace",
            ),
            (
                "class A {\n  static void main() {\n    String s = \"oops;\n  }\n}",
                3,
                "unterminated string literal",
            ),
            // The two declaration errors that used to lose their line.
            ("class A {\n  int ok;\n  Nope gone;\n}", 0, "unknown class Nope"),
            (
                "class A { }\n\nclass B extends Base { }",
                0,
                "unknown superclass Base",
            ),
        ];
        for (src, line, message) in cases {
            let e = compile_source(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{src}");
        }
    }

    #[test]
    fn comments_are_ignored() {
        let src = r#"
            // line comment
            class A {
                /* block
                   comment */
                static void main() { int x = 1; }
            }
        "#;
        assert!(compile_source(src).is_ok());
    }
}
