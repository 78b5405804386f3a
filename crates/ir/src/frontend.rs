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
//! symbol table). It borrows from the source text: the lexer walks the bytes and
//! yields `Copy` tokens whose identifiers and string literals are slices of the
//! input, the AST holds those slices and is walked by reference once per pass, and
//! the only owned strings are the names the finished [`Program`] keeps.

use std::fmt;

use crate::bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind, UnOp};
use crate::program::{ClassId, FieldRef, MethodId, Program, Type};

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

fn error(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(error(line, message))
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(i64),
    Float(f64),
    Str(&'s str),
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

#[derive(Debug, Clone, Copy)]
struct SpannedTok<'s> {
    tok: Tok<'s>,
    line: usize,
}

/// Every delimiter the lexer stops at is ASCII, so `i` only ever rests on a character
/// boundary and the slices taken below are valid `str`s whatever a comment or a
/// string literal contains.
fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>, ParseError> {
    let bytes = src.as_bytes();
    // Indented source runs at 3.4 bytes a token; one buffer, seldom regrown.
    let mut toks = Vec::with_capacity(bytes.len() / 3);
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        let start = i;
        let tok = match c {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'/' if next == Some(b'*') => {
                let opened = line;
                i += 2;
                while !bytes[i..].starts_with(b"*/") {
                    match bytes.get(i) {
                        None => return err(opened, "unterminated block comment"),
                        Some(b'\n') => line += 1,
                        Some(_) => {}
                    }
                    i += 1;
                }
                i += 2;
                continue;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return err(line, "unterminated string literal");
                }
                i += 1;
                Tok::Str(&src[start + 1..i - 1])
            }
            b'0'..=b'9' => {
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                if text.contains('.') {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| error(line, format!("bad float literal {text}")))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| error(line, format!("bad int literal {text}")))?,
                    )
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            _ => {
                let (tok, len) = match (c, next) {
                    (b'=', Some(b'=')) => (Tok::EqEq, 2),
                    (b'!', Some(b'=')) => (Tok::NotEq, 2),
                    (b'<', Some(b'=')) => (Tok::Le, 2),
                    (b'>', Some(b'=')) => (Tok::Ge, 2),
                    (b'&', Some(b'&')) => (Tok::AndAnd, 2),
                    (b'|', Some(b'|')) => (Tok::OrOr, 2),
                    (b'{', _) => (Tok::LBrace, 1),
                    (b'}', _) => (Tok::RBrace, 1),
                    (b'(', _) => (Tok::LParen, 1),
                    (b')', _) => (Tok::RParen, 1),
                    (b'[', _) => (Tok::LBracket, 1),
                    (b']', _) => (Tok::RBracket, 1),
                    (b';', _) => (Tok::Semi, 1),
                    (b',', _) => (Tok::Comma, 1),
                    (b'.', _) => (Tok::Dot, 1),
                    (b'=', _) => (Tok::Assign, 1),
                    (b'+', _) => (Tok::Plus, 1),
                    (b'-', _) => (Tok::Minus, 1),
                    (b'*', _) => (Tok::Star, 1),
                    (b'/', _) => (Tok::Slash, 1),
                    (b'%', _) => (Tok::Percent, 1),
                    (b'!', _) => (Tok::Bang, 1),
                    (b'<', _) => (Tok::Lt, 1),
                    (b'>', _) => (Tok::Gt, 1),
                    _ => {
                        let other = src[i..].chars().next().expect("i is inside src");
                        return err(line, format!("unexpected character '{other}'"));
                    }
                };
                i += len;
                tok
            }
        };
        toks.push(SpannedTok { tok, line });
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

#[derive(Debug, PartialEq)]
enum TypeName<'s> {
    Int,
    Float,
    Bool,
    Str,
    Void,
    Class(&'s str),
    Array(Box<TypeName<'s>>),
}

#[derive(Debug)]
enum Expr<'s> {
    IntLit(i64),
    FloatLit(f64),
    StrLit(&'s str),
    BoolLit(bool),
    Null,
    This,
    Var(&'s str),
    Field(Box<Expr<'s>>, &'s str),
    Index(Box<Expr<'s>>, Box<Expr<'s>>),
    Length(Box<Expr<'s>>),
    Call {
        recv: Option<Box<Expr<'s>>>,
        name: &'s str,
        args: Vec<Expr<'s>>,
    },
    New(&'s str, Vec<Expr<'s>>),
    NewArray(TypeName<'s>, Box<Expr<'s>>),
    Unary(UnOp, Box<Expr<'s>>),
    Binary(BinKind, Box<Expr<'s>>, Box<Expr<'s>>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinKind {
    Arith(BinOp),
    Cmp(CmpOp),
    And,
    Or,
}

#[derive(Debug)]
enum Stmt<'s> {
    Block(Vec<Stmt<'s>>),
    VarDecl(TypeName<'s>, &'s str, Option<Expr<'s>>),
    Assign(Expr<'s>, Expr<'s>),
    If(Expr<'s>, Box<Stmt<'s>>, Option<Box<Stmt<'s>>>),
    While(Expr<'s>, Box<Stmt<'s>>),
    Return(Option<Expr<'s>>),
    Expr(Expr<'s>),
}

#[derive(Debug)]
struct MethodDecl<'s> {
    name: &'s str,
    is_static: bool,
    params: Vec<(TypeName<'s>, &'s str)>,
    ret: TypeName<'s>,
    body: Vec<Stmt<'s>>,
    line: usize,
}

#[derive(Debug)]
struct FieldDecl<'s> {
    ty: TypeName<'s>,
    name: &'s str,
    is_static: bool,
    line: usize,
}

#[derive(Debug)]
struct ClassDecl<'s> {
    name: &'s str,
    super_name: Option<&'s str>,
    fields: Vec<FieldDecl<'s>>,
    methods: Vec<MethodDecl<'s>>,
    line: usize,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The binary operator a token spells, with its binding power:
/// `||` < `&&` < comparisons < `+ -` < `* / %`.
fn binary_op(t: Tok<'_>) -> Option<(u8, BinKind)> {
    Some(match t {
        Tok::OrOr => (1, BinKind::Or),
        Tok::AndAnd => (2, BinKind::And),
        Tok::Lt => (3, BinKind::Cmp(CmpOp::Lt)),
        Tok::Le => (3, BinKind::Cmp(CmpOp::Le)),
        Tok::Gt => (3, BinKind::Cmp(CmpOp::Gt)),
        Tok::Ge => (3, BinKind::Cmp(CmpOp::Ge)),
        Tok::EqEq => (3, BinKind::Cmp(CmpOp::Eq)),
        Tok::NotEq => (3, BinKind::Cmp(CmpOp::Ne)),
        Tok::Plus => (4, BinKind::Arith(BinOp::Add)),
        Tok::Minus => (4, BinKind::Arith(BinOp::Sub)),
        Tok::Star => (5, BinKind::Arith(BinOp::Mul)),
        Tok::Slash => (5, BinKind::Arith(BinOp::Div)),
        Tok::Percent => (5, BinKind::Arith(BinOp::Rem)),
        _ => return None,
    })
}

struct Parser<'s> {
    toks: Vec<SpannedTok<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Tok<'s> {
        self.toks[self.pos].tok
    }
    /// The token after the next one (`Eof` repeats for ever).
    fn peek2(&self) -> Tok<'s> {
        self.toks.get(self.pos + 1).map_or(Tok::Eof, |t| t.tok)
    }
    fn line(&self) -> usize {
        self.toks[self.pos].line
    }
    fn bump(&mut self) -> Tok<'s> {
        let t = self.peek();
        if t != Tok::Eof {
            self.pos += 1;
        }
        t
    }
    fn expect(&mut self, t: Tok<'_>, what: &str) -> Result<(), ParseError> {
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
    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => err(self.line(), format!("expected identifier, found {other:?}")),
        }
    }
    fn eat(&mut self, t: Tok<'_>) -> bool {
        let found = self.peek() == t;
        if found {
            self.bump();
        }
        found
    }
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.eat(Tok::Ident(kw))
    }

    fn parse_program(&mut self) -> Result<Vec<ClassDecl<'s>>, ParseError> {
        let mut classes = Vec::new();
        while self.peek() != Tok::Eof {
            if !self.eat_keyword("class") {
                return err(self.line(), "expected 'class'");
            }
            classes.push(self.parse_class()?);
        }
        Ok(classes)
    }

    fn parse_class(&mut self) -> Result<ClassDecl<'s>, ParseError> {
        let line = self.line();
        let name = self.expect_ident()?;
        let super_name = if self.eat_keyword("extends") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect(Tok::LBrace, "'{'")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while self.peek() != Tok::RBrace {
            let line = self.line();
            let is_static = self.eat_keyword("static");
            // Constructor: IDENT '(' where IDENT == class name.
            if self.peek() == Tok::Ident(name) && self.peek2() == Tok::LParen {
                self.bump();
                methods.push(MethodDecl {
                    name: "<init>",
                    is_static: false,
                    params: self.parse_params()?,
                    ret: TypeName::Void,
                    body: self.parse_block()?,
                    line,
                });
                continue;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.peek() == Tok::LParen {
                methods.push(MethodDecl {
                    name,
                    is_static,
                    params: self.parse_params()?,
                    ret: ty,
                    body: self.parse_block()?,
                    line,
                });
            } else {
                self.expect(Tok::Semi, "';'")?;
                fields.push(FieldDecl {
                    ty,
                    name,
                    is_static,
                    line,
                });
            }
        }
        self.expect(Tok::RBrace, "'}'")?;
        Ok(ClassDecl {
            name,
            super_name,
            fields,
            methods,
            line,
        })
    }

    fn parse_params(&mut self) -> Result<Vec<(TypeName<'s>, &'s str)>, ParseError> {
        self.expect(Tok::LParen, "'('")?;
        let mut params = Vec::new();
        while self.peek() != Tok::RParen {
            if !params.is_empty() {
                self.expect(Tok::Comma, "','")?;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            params.push((ty, name));
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(params)
    }

    /// Parses a type name without any trailing `[]` suffix (needed by `new T[expr]`).
    fn parse_base_type(&mut self) -> Result<TypeName<'s>, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(match s {
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

    fn parse_type(&mut self) -> Result<TypeName<'s>, ParseError> {
        let mut ty = self.parse_base_type()?;
        while self.peek() == Tok::LBracket && self.peek2() == Tok::RBracket {
            self.bump();
            self.bump();
            ty = TypeName::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt<'s>>, ParseError> {
        self.expect(Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.peek() != Tok::RBrace {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(Tok::RBrace, "'}'")?;
        Ok(stmts)
    }

    fn looks_like_decl(&self) -> bool {
        // `Type name ...` — identifier followed by identifier, or a primitive keyword,
        // or `Type[] name`.
        match self.peek() {
            Tok::Ident("int" | "float" | "double" | "boolean" | "String") => true,
            Tok::Ident(_) => {
                // Ident Ident  or  Ident [ ] Ident
                matches!(
                    (self.peek2(), self.toks.get(self.pos + 2).map(|t| t.tok)),
                    (Tok::Ident(_), _) | (Tok::LBracket, Some(Tok::RBracket))
                )
            }
            _ => false,
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt<'s>, ParseError> {
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.parse_block()?)),
            Tok::Ident("if") => {
                self.bump();
                self.expect(Tok::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen, "')'")?;
                let then = Box::new(self.parse_stmt()?);
                let els = if self.eat_keyword("else") {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::Ident("while") => {
                self.bump();
                self.expect(Tok::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen, "')'")?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::While(cond, body))
            }
            Tok::Ident("return") => {
                self.bump();
                if self.eat(Tok::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(Tok::Semi, "';'")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            _ if self.looks_like_decl() => {
                let ty = self.parse_type()?;
                let name = self.expect_ident()?;
                let init = if self.eat(Tok::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi, "';'")?;
                Ok(Stmt::VarDecl(ty, name, init))
            }
            _ => {
                let e = self.parse_expr()?;
                if self.eat(Tok::Assign) {
                    let rhs = self.parse_expr()?;
                    self.expect(Tok::Semi, "';'")?;
                    Ok(Stmt::Assign(e, rhs))
                } else {
                    self.expect(Tok::Semi, "';'")?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr<'s>, ParseError> {
        self.parse_binary(1)
    }

    /// Precedence climbing over [`binary_op`]: parses the operators that bind at least
    /// as tightly as `min`. All associate to the left except the comparisons, which
    /// do not chain (`a < b < c` is a syntax error, as in Java).
    fn parse_binary(&mut self, min: u8) -> Result<Expr<'s>, ParseError> {
        let mut lhs = self.parse_unary()?;
        // Tightest operator that may still follow `lhs` at this level.
        let mut max = u8::MAX;
        while let Some((power, kind)) =
            binary_op(self.peek()).filter(|&(power, _)| (min..=max).contains(&power))
        {
            self.bump();
            let rhs = self.parse_binary(power + 1)?;
            lhs = Expr::Binary(kind, Box::new(lhs), Box::new(rhs));
            max = match kind {
                BinKind::Cmp(_) => power - 1,
                _ => power,
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr<'s>, ParseError> {
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            _ => return self.parse_postfix(),
        };
        self.bump();
        Ok(Expr::Unary(op, Box::new(self.parse_unary()?)))
    }

    fn parse_postfix(&mut self) -> Result<Expr<'s>, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if self.peek() == Tok::LParen {
                        let args = self.parse_args()?;
                        e = Expr::Call {
                            recv: Some(Box::new(e)),
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
                    self.expect(Tok::RBracket, "']'")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self) -> Result<Vec<Expr<'s>>, ParseError> {
        self.expect(Tok::LParen, "'('")?;
        let mut args = Vec::new();
        while self.peek() != Tok::RParen {
            if !args.is_empty() {
                self.expect(Tok::Comma, "','")?;
            }
            args.push(self.parse_expr()?);
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr<'s>, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Str(s) => Ok(Expr::StrLit(s)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident("true") => Ok(Expr::BoolLit(true)),
            Tok::Ident("false") => Ok(Expr::BoolLit(false)),
            Tok::Ident("null") => Ok(Expr::Null),
            Tok::Ident("this") => Ok(Expr::This),
            Tok::Ident("new") => {
                let ty = self.parse_base_type()?;
                if self.eat(Tok::LBracket) {
                    let len = self.parse_expr()?;
                    self.expect(Tok::RBracket, "']'")?;
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
                    Ok(Expr::New(class, self.parse_args()?))
                }
            }
            // A qualified static call `Class.method(...)` is handled in postfix as a
            // field/virtual chain; plain `name(...)` is a same-class call.
            Tok::Ident(name) if self.peek() == Tok::LParen => Ok(Expr::Call {
                recv: None,
                name,
                args: self.parse_args()?,
            }),
            Tok::Ident(name) => Ok(Expr::Var(name)),
            other => err(self.line(), format!("unexpected token {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Compiler (AST -> bytecode)
// ---------------------------------------------------------------------------

/// One method body being compiled: where it is declared, and what it has emitted.
struct MethodCtx<'s> {
    class: ClassId,
    /// Line of the method's declaration — the line every error in its body reports.
    line: usize,
    insns: Vec<Insn>,
    /// Declared locals in declaration order; a name's latest declaration wins.
    locals: Vec<(&'s str, u16, Type)>,
    next_local: u16,
    fixups: Vec<(usize, usize)>, // (insn index, label id)
    labels: Vec<Option<usize>>,
}

impl<'s> MethodCtx<'s> {
    fn new(class: ClassId, line: usize) -> Self {
        MethodCtx {
            class,
            line,
            insns: Vec::new(),
            locals: Vec::new(),
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
    fn declare(&mut self, name: &'s str, ty: Type) -> u16 {
        let slot = self.next_local;
        self.next_local += 1;
        self.locals.push((name, slot, ty));
        slot
    }
    /// The slot and type of local `name`: a short list, scanned from the end.
    fn local(&self, name: &str) -> Option<(u16, &Type)> {
        let (_, slot, ty) = self.locals.iter().rev().find(|(n, ..)| *n == name)?;
        Some((*slot, ty))
    }
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        err(self.line, message)
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

/// The two passes over the declarations. Pass 1 ([`Compiler::declare_all`]) is the only
/// one that adds to the program; pass 2 reads classes, fields and callees in place and
/// writes each finished body once.
struct Compiler {
    program: Program,
}

impl Compiler {
    fn class_named(&self, name: &str, line: usize) -> Result<ClassId, ParseError> {
        self.program
            .class_by_name(name)
            .ok_or_else(|| error(line, format!("unknown class {name}")))
    }

    fn resolve_type(&self, t: &TypeName<'_>, line: usize) -> Result<Type, ParseError> {
        Ok(match t {
            TypeName::Int => Type::Int,
            TypeName::Float => Type::Float,
            TypeName::Bool => Type::Bool,
            TypeName::Str => Type::Str,
            TypeName::Void => Type::Void,
            TypeName::Class(c) => Type::Ref(self.class_named(c, line)?),
            TypeName::Array(inner) => Type::Array(Box::new(self.resolve_type(inner, line)?)),
        })
    }

    fn declare_all(&mut self, decls: &[ClassDecl<'_>]) -> Result<(), ParseError> {
        // Pass 1a: classes (ids follow declaration order, so `decls[i]` is class `i`).
        for decl in decls {
            self.program.add_class(decl.name, None);
        }
        // Pass 1b: supers, fields, method signatures (method ids follow declaration
        // order too, which is how pass 2 finds each body's method again).
        for (decl, cid) in decls.iter().zip((0..).map(ClassId)) {
            if let Some(sup) = decl.super_name {
                let sid = self
                    .program
                    .class_by_name(sup)
                    .ok_or_else(|| error(decl.line, format!("unknown superclass {sup}")))?;
                self.program.class_mut(cid).super_class = Some(sid);
            }
            for f in &decl.fields {
                let ty = self.resolve_type(&f.ty, f.line)?;
                self.program.add_field(cid, f.name, ty, f.is_static);
            }
            for m in &decl.methods {
                let params = m
                    .params
                    .iter()
                    .map(|(t, _)| self.resolve_type(t, m.line))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret = self.resolve_type(&m.ret, m.line)?;
                self.program
                    .add_method(cid, m.name, params, ret, m.is_static);
            }
        }
        Ok(())
    }

    fn compile_bodies(&mut self, decls: &[ClassDecl<'_>]) -> Result<(), ParseError> {
        let methods = decls.iter().flat_map(|decl| &decl.methods);
        for (m, mid) in methods.zip((0..).map(MethodId)) {
            let (body, locals) = self.compile_method(mid, m)?;
            let entry_locals = self.program.method(mid).entry_locals();
            self.program.set_body(mid, body, locals.max(entry_locals));
        }
        // entry point: a static `main` method anywhere (the last one declared wins).
        for cid in (0..decls.len() as u32).map(ClassId) {
            if let Some(mid) = self.program.find_method(cid, "main") {
                if self.program.method(mid).is_static {
                    self.program.set_entry(mid);
                }
            }
        }
        Ok(())
    }

    fn compile_method<'s>(
        &self,
        mid: MethodId,
        m: &MethodDecl<'s>,
    ) -> Result<(Vec<Insn>, u16), ParseError> {
        let declared = self.program.method(mid);
        let mut ctx = MethodCtx::new(declared.class, m.line);
        if !m.is_static {
            ctx.declare("this", Type::Ref(declared.class));
        }
        for ((_, name), ty) in m.params.iter().zip(&declared.params) {
            ctx.declare(name, ty.clone());
        }
        for stmt in &m.body {
            self.compile_stmt(&mut ctx, stmt)?;
        }
        // Implicit return for void methods / constructors.
        if !matches!(ctx.insns.last(), Some(i) if i.is_terminator()) {
            if declared.ret != Type::Void {
                return ctx.err(format!("method {} may not return a value", m.name));
            }
            ctx.emit(Insn::Return);
        }
        Ok(ctx.finish())
    }

    fn compile_stmt<'s>(&self, ctx: &mut MethodCtx<'s>, stmt: &Stmt<'s>) -> Result<(), ParseError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.compile_stmt(ctx, s)?;
                }
            }
            Stmt::VarDecl(ty, name, init) => {
                let rty = self.resolve_type(ty, ctx.line)?;
                if let Some(e) = init {
                    self.compile_expr(ctx, e)?;
                    let slot = ctx.declare(name, rty);
                    ctx.emit(Insn::Store(slot));
                } else {
                    ctx.declare(name, rty);
                }
            }
            Stmt::Assign(lhs, rhs) => match lhs {
                Expr::Var(name) => {
                    if let Some((slot, _)) = ctx.local(name) {
                        self.compile_expr(ctx, rhs)?;
                        ctx.emit(Insn::Store(slot));
                    } else {
                        // implicit this.field = rhs
                        let fr = self.field_named(ctx, name)?;
                        if self.program.field(fr).is_static {
                            self.compile_expr(ctx, rhs)?;
                            ctx.emit(Insn::PutStatic(fr));
                        } else {
                            ctx.emit(Insn::Load(0));
                            self.compile_expr(ctx, rhs)?;
                            ctx.emit(Insn::PutField(fr));
                        }
                    }
                }
                Expr::Field(obj, fname) => {
                    let oty = self.compile_expr(ctx, obj)?;
                    let ocls = oty
                        .ref_class()
                        .ok_or_else(|| error(ctx.line, format!("field {fname} on non-object")))?;
                    let fr = self
                        .program
                        .resolve_field(ocls, fname)
                        .ok_or_else(|| error(ctx.line, format!("unknown field {fname}")))?;
                    self.compile_expr(ctx, rhs)?;
                    ctx.emit(Insn::PutField(fr));
                }
                Expr::Index(arr, idx) => {
                    self.compile_expr(ctx, arr)?;
                    self.compile_expr(ctx, idx)?;
                    self.compile_expr(ctx, rhs)?;
                    ctx.emit(Insn::ArrayStore);
                }
                _ => return ctx.err("invalid assignment target"),
            },
            Stmt::If(cond, then, els) => {
                let else_l = ctx.new_label();
                let end_l = ctx.new_label();
                self.compile_condition(ctx, cond, else_l)?;
                self.compile_stmt(ctx, then)?;
                ctx.branch(Insn::Goto(usize::MAX), end_l);
                ctx.place(else_l);
                if let Some(e) = els {
                    self.compile_stmt(ctx, e)?;
                }
                ctx.place(end_l);
            }
            Stmt::While(cond, body) => {
                let head = ctx.insns.len();
                let exit_l = ctx.new_label();
                self.compile_condition(ctx, cond, exit_l)?;
                self.compile_stmt(ctx, body)?;
                ctx.emit(Insn::Goto(head));
                ctx.place(exit_l);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.compile_expr(ctx, e)?;
                    ctx.emit(Insn::ReturnValue);
                } else {
                    ctx.emit(Insn::Return);
                }
            }
            Stmt::Expr(e) => {
                let ty = self.compile_expr(ctx, e)?;
                if ty != Type::Void {
                    ctx.emit(Insn::Pop);
                }
            }
        }
        Ok(())
    }

    /// Compiles `cond`, branching to `false_label` if it evaluates to false.
    fn compile_condition<'s>(
        &self,
        ctx: &mut MethodCtx<'s>,
        cond: &Expr<'s>,
        false_label: usize,
    ) -> Result<(), ParseError> {
        if let Expr::Binary(BinKind::Cmp(op), lhs, rhs) = cond {
            self.compile_expr(ctx, lhs)?;
            self.compile_expr(ctx, rhs)?;
            ctx.branch(Insn::IfCmp(op.negate(), usize::MAX), false_label);
            return Ok(());
        }
        self.compile_expr(ctx, cond)?;
        ctx.branch(Insn::If(CmpOp::Eq, usize::MAX), false_label);
        Ok(())
    }

    /// The field (of `this`, or static) a bare name that is no local refers to.
    fn field_named(&self, ctx: &MethodCtx<'_>, name: &str) -> Result<FieldRef, ParseError> {
        self.program
            .resolve_field(ctx.class, name)
            .ok_or_else(|| error(ctx.line, format!("unknown variable {name}")))
    }

    /// The field `fname` of an object of type `oty`.
    fn field_of(
        &self,
        ctx: &MethodCtx<'_>,
        oty: &Type,
        fname: &str,
    ) -> Result<FieldRef, ParseError> {
        let ocls = oty
            .ref_class()
            .ok_or_else(|| error(ctx.line, format!("field access {fname} on non-object")))?;
        self.program
            .resolve_field(ocls, fname)
            .ok_or_else(|| error(ctx.line, format!("unknown field {fname}")))
    }

    /// The method a call expression names, and whether it is reached through a class
    /// name (`Class.method(...)`) and therefore static whatever its declaration says.
    fn callee<'s>(
        &self,
        ctx: &MethodCtx<'s>,
        recv: Option<&Expr<'s>>,
        name: &str,
    ) -> Result<(MethodId, bool), ParseError> {
        let (recv_class, via_class) = match recv {
            None => (ctx.class, false),
            // `Ident.method(...)` where Ident is no variable is a class name.
            Some(Expr::Var(cname))
                if ctx.local(cname).is_none()
                    && self.program.resolve_field(ctx.class, cname).is_none() =>
            {
                match self.program.class_by_name(cname) {
                    Some(cid) => (cid, true),
                    None => return ctx.err(format!("unknown receiver {cname}")),
                }
            }
            Some(r) => match self.type_of(ctx, r)?.ref_class() {
                Some(cid) => (cid, false),
                None => return ctx.err(format!("call {name} on non-object")),
            },
        };
        match self.program.resolve_method(recv_class, name) {
            Some(mid) => Ok((mid, via_class)),
            None => ctx.err(format!(
                "unknown method {}.{name}",
                self.program.class(recv_class).name
            )),
        }
    }

    /// The type [`Compiler::compile_expr`] would return for `e`, emitting nothing: a
    /// call must know its receiver's class before it knows whether the receiver is
    /// evaluated at all (a static callee takes none).
    fn type_of<'s>(&self, ctx: &MethodCtx<'s>, e: &Expr<'s>) -> Result<Type, ParseError> {
        Ok(match e {
            Expr::IntLit(_) | Expr::Length(_) => Type::Int,
            Expr::FloatLit(_) => Type::Float,
            Expr::StrLit(_) => Type::Str,
            Expr::BoolLit(_) | Expr::Binary(BinKind::Cmp(_) | BinKind::And | BinKind::Or, ..) => {
                Type::Bool
            }
            Expr::Null | Expr::This => Type::Ref(ctx.class),
            Expr::Var(name) => match ctx.local(name) {
                Some((_, ty)) => ty.clone(),
                None => self.program.field(self.field_named(ctx, name)?).ty.clone(),
            },
            Expr::Field(obj, fname) => {
                let oty = self.type_of(ctx, obj)?;
                self.program
                    .field(self.field_of(ctx, &oty, fname)?)
                    .ty
                    .clone()
            }
            Expr::Index(arr, _) => match self.type_of(ctx, arr)? {
                Type::Array(inner) => *inner,
                _ => return ctx.err("indexing a non-array"),
            },
            Expr::Call { recv, name, .. } => {
                let (mid, _) = self.callee(ctx, recv.as_deref(), name)?;
                self.program.method(mid).ret.clone()
            }
            Expr::New(cname, _) => Type::Ref(self.class_named(cname, ctx.line)?),
            Expr::NewArray(ty, _) => Type::Array(Box::new(self.resolve_type(ty, ctx.line)?)),
            Expr::Unary(_, inner) | Expr::Binary(BinKind::Arith(_), inner, _) => {
                self.type_of(ctx, inner)?
            }
        })
    }

    fn compile_expr<'s>(&self, ctx: &mut MethodCtx<'s>, e: &Expr<'s>) -> Result<Type, ParseError> {
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
                ctx.emit(Insn::Const(Const::Str(s.to_string())));
                Ok(Type::Str)
            }
            Expr::BoolLit(b) => {
                ctx.emit(Insn::Const(Const::Bool(*b)));
                Ok(Type::Bool)
            }
            Expr::Null => {
                ctx.emit(Insn::Const(Const::Null));
                Ok(Type::Ref(ctx.class))
            }
            Expr::This => {
                ctx.emit(Insn::Load(0));
                Ok(Type::Ref(ctx.class))
            }
            Expr::Var(name) => {
                if let Some((slot, ty)) = ctx.local(name) {
                    let ty = ty.clone();
                    ctx.emit(Insn::Load(slot));
                    return Ok(ty);
                }
                let fr = self.field_named(ctx, name)?;
                let f = self.program.field(fr);
                if f.is_static {
                    ctx.emit(Insn::GetStatic(fr));
                } else {
                    ctx.emit(Insn::Load(0));
                    ctx.emit(Insn::GetField(fr));
                }
                Ok(f.ty.clone())
            }
            Expr::Field(obj, fname) => {
                let oty = self.compile_expr(ctx, obj)?;
                let fr = self.field_of(ctx, &oty, fname)?;
                ctx.emit(Insn::GetField(fr));
                Ok(self.program.field(fr).ty.clone())
            }
            Expr::Index(arr, idx) => {
                let aty = self.compile_expr(ctx, arr)?;
                self.compile_expr(ctx, idx)?;
                ctx.emit(Insn::ArrayLoad);
                match aty {
                    Type::Array(inner) => Ok(*inner),
                    _ => ctx.err("indexing a non-array"),
                }
            }
            Expr::Length(arr) => {
                self.compile_expr(ctx, arr)?;
                ctx.emit(Insn::ArrayLength);
                Ok(Type::Int)
            }
            Expr::Call { recv, name, args } => {
                let (mid, via_class) = self.callee(ctx, recv.as_deref(), name)?;
                let callee = self.program.method(mid);
                let kind = if callee.is_static || via_class {
                    InvokeKind::Static
                } else {
                    match recv {
                        None => ctx.emit(Insn::Load(0)),
                        Some(r) => {
                            self.compile_expr(ctx, r)?;
                        }
                    }
                    InvokeKind::Virtual
                };
                for a in args {
                    self.compile_expr(ctx, a)?;
                }
                ctx.emit(Insn::Invoke(kind, mid));
                Ok(callee.ret.clone())
            }
            Expr::New(cname, args) => {
                let cid = self.class_named(cname, ctx.line)?;
                ctx.emit(Insn::New(cid));
                if let Some(ctor) = self.program.find_method(cid, "<init>") {
                    ctx.emit(Insn::Dup);
                    for a in args {
                        self.compile_expr(ctx, a)?;
                    }
                    ctx.emit(Insn::Invoke(InvokeKind::Special, ctor));
                } else if !args.is_empty() {
                    return ctx.err(format!("class {cname} has no constructor"));
                }
                Ok(Type::Ref(cid))
            }
            Expr::NewArray(ty, len) => {
                let elem = self.resolve_type(ty, ctx.line)?;
                self.compile_expr(ctx, len)?;
                ctx.emit(Insn::NewArray(elem.clone()));
                Ok(Type::Array(Box::new(elem)))
            }
            Expr::Unary(op, inner) => {
                let t = self.compile_expr(ctx, inner)?;
                ctx.emit(Insn::Un(*op));
                Ok(t)
            }
            Expr::Binary(BinKind::Arith(op), lhs, rhs) => {
                let t = self.compile_expr(ctx, lhs)?;
                self.compile_expr(ctx, rhs)?;
                ctx.emit(Insn::Bin(*op));
                Ok(t)
            }
            Expr::Binary(kind @ (BinKind::And | BinKind::Or), lhs, rhs) => {
                // Java-style short-circuit evaluation: the right operand is only
                // evaluated when the left one has not already decided the result.
                let short = ctx.new_label();
                let end = ctx.new_label();
                self.compile_expr(ctx, lhs)?;
                let decided = if *kind == BinKind::And {
                    CmpOp::Eq
                } else {
                    CmpOp::Ne
                };
                ctx.branch(Insn::If(decided, usize::MAX), short);
                self.compile_expr(ctx, rhs)?;
                ctx.branch(Insn::Goto(usize::MAX), end);
                ctx.place(short);
                ctx.emit(Insn::Const(Const::Bool(*kind == BinKind::Or)));
                ctx.place(end);
                Ok(Type::Bool)
            }
            Expr::Binary(BinKind::Cmp(op), lhs, rhs) => {
                // Comparison producing a boolean value: if (cmp) push true else false.
                self.compile_expr(ctx, lhs)?;
                self.compile_expr(ctx, rhs)?;
                let true_l = ctx.new_label();
                let end_l = ctx.new_label();
                ctx.branch(Insn::IfCmp(*op, usize::MAX), true_l);
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

/// Compiles MiniJava-like source text into a [`Program`].
///
/// The entry point is any `static void main()` method. See the module documentation for
/// the supported language subset.
pub fn compile_source(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    let decls = parser.parse_program()?;
    let mut compiler = Compiler {
        program: Program::new(),
    };
    compiler.declare_all(&decls)?;
    compiler.compile_bodies(&decls)?;
    Ok(compiler.program)
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
        let cases: [(&str, usize, &str); 12] = [
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
            // Declaration errors carry the declaration's line (they reported line 0).
            ("class A {\n  int ok;\n  Nope gone;\n}", 3, "unknown class Nope"),
            (
                "class A { }\n\nclass B extends Base { }",
                3,
                "unknown superclass Base",
            ),
            // So does an error inside a call's receiver, which is typed before it is
            // compiled (it reported line 0 too).
            (
                "class A {\n  int f() { return 1; }\n  static void main() {\n    nope.f.f();\n  }\n}",
                3,
                "unknown variable nope",
            ),
            (
                "class A {\n  static void main() { }\n}\n/* never closed\n\n",
                4,
                "unterminated block comment",
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
