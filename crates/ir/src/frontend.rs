//! A small MiniJava-like source front-end.
//!
//! The paper's input is Java bytecode produced by `javac`; our equivalent is a tiny
//! object-oriented source language with classes, fields, constructors, methods, arrays
//! and structured control flow, compiled straight to the bytecode IR. The paper's
//! Bank/Account running example (Figure 2) can be written in this language — see the
//! `bank_distribution` example and the tests at the bottom of this module.
//!
//! The front-end is a hand-written lexer and two passes over its tokens. Pass 1 parses
//! the class, field and method headers and steps over each method body by brace depth,
//! keeping only its token range; the declarations are then checked and entered into the
//! [`Program`]. Pass 2 compiles each body straight from its tokens by recursive descent,
//! emitting bytecode as it parses (Wirth's delayed code generation): an expression
//! compiles to an *item* (a value on the stack, a local, a static, a field or element
//! whose receiver is on the stack, a pending comparison) that its consumer finishes as
//! a load, a store or a branch. No expression or statement tree is built. The lexer
//! walks the bytes and yields `Copy` tokens whose identifiers and string literals are
//! slices of the input; the only owned strings are the names the finished [`Program`]
//! keeps. The body pass reuses one set of instruction, local and label buffers for
//! every method, so a compile allocates per vector rather than per node.
//!
//! Errors come in phase order: lexical errors, then header syntax, then declarations,
//! then each body's first error in source order.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::ops::Range;

use crate::bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind, UnOp};
use crate::layout::StrHasher;
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
// Pass 1: declarations
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum BaseType<'s> {
    Int,
    Float,
    Bool,
    Str,
    Void,
    Class(&'s str),
}

/// A type name: its base type and how many `[]` follow it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TypeName<'s> {
    base: BaseType<'s>,
    dims: u32,
}

#[derive(Debug)]
struct MethodDecl<'s> {
    name: &'s str,
    is_static: bool,
    /// In [`Headers::params`].
    params: Range<usize>,
    ret: TypeName<'s>,
    /// The body's tokens, from its `{` to the matching `}` (to `Eof` if it never closes).
    body: Range<usize>,
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
    /// In [`Headers::fields`].
    fields: Range<usize>,
    /// In [`Headers::methods`].
    methods: Range<usize>,
    line: usize,
}

/// Every declaration of a source file, each method body left as a token range. Methods
/// are numbered in declaration order across all classes, as [`MethodId`]s are.
#[derive(Debug)]
struct Headers<'s> {
    classes: Vec<ClassDecl<'s>>,
    fields: Vec<FieldDecl<'s>>,
    methods: Vec<MethodDecl<'s>>,
    params: Vec<(TypeName<'s>, &'s str)>,
}

impl Headers<'_> {
    /// Empty lists with room for what `tokens` tokens of source declare, so that they
    /// are seldom regrown.
    fn with_capacity(tokens: usize) -> Self {
        Headers {
            classes: Vec::with_capacity(tokens / 128),
            fields: Vec::with_capacity(tokens / 32),
            methods: Vec::with_capacity(tokens / 32),
            params: Vec::with_capacity(tokens / 24),
        }
    }
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinKind {
    Arith(BinOp),
    Cmp(CmpOp),
    And,
    Or,
}

/// A cursor over the tokens: pass 1 walks the declarations with it, pass 2 each body.
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

    fn parse_headers(&mut self) -> Result<Headers<'s>, ParseError> {
        let mut headers = Headers::with_capacity(self.toks.len());
        while self.peek() != Tok::Eof {
            if !self.eat_keyword("class") {
                return err(self.line(), "expected 'class'");
            }
            self.parse_class(&mut headers)?;
        }
        Ok(headers)
    }

    fn parse_class(&mut self, headers: &mut Headers<'s>) -> Result<(), ParseError> {
        let line = self.line();
        let name = self.expect_ident()?;
        let super_name = if self.eat_keyword("extends") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect(Tok::LBrace, "'{'")?;
        let (fields, methods) = (headers.fields.len(), headers.methods.len());
        let mut open = false;
        while !open && self.peek() != Tok::RBrace {
            let line = self.line();
            let is_static = self.eat_keyword("static");
            // Constructor: IDENT '(' where IDENT == class name.
            let (name, is_static, ret) =
                if self.peek() == Tok::Ident(name) && self.peek2() == Tok::LParen {
                    self.bump();
                    let void = TypeName {
                        base: BaseType::Void,
                        dims: 0,
                    };
                    ("<init>", false, void)
                } else {
                    let ty = self.parse_type()?;
                    let name = self.expect_ident()?;
                    if self.peek() != Tok::LParen {
                        self.expect(Tok::Semi, "';'")?;
                        let field = FieldDecl {
                            ty,
                            name,
                            is_static,
                            line,
                        };
                        headers.fields.push(field);
                        continue;
                    }
                    (name, is_static, ty)
                };
            let params = self.parse_params(headers)?;
            let body = self.skip_body()?;
            // A body that never closes holds a syntax error, for pass 2 to report.
            open = body.end == self.toks.len();
            let method = MethodDecl {
                name,
                is_static,
                params,
                ret,
                body,
                line,
            };
            headers.methods.push(method);
        }
        self.bump(); // the class's `}` (`Eof` stays)
        let class = ClassDecl {
            name,
            super_name,
            fields: fields..headers.fields.len(),
            methods: methods..headers.methods.len(),
            line,
        };
        headers.classes.push(class);
        Ok(())
    }

    fn parse_params(&mut self, headers: &mut Headers<'s>) -> Result<Range<usize>, ParseError> {
        self.expect(Tok::LParen, "'('")?;
        let start = headers.params.len();
        while self.peek() != Tok::RParen {
            if headers.params.len() > start {
                self.expect(Tok::Comma, "','")?;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            headers.params.push((ty, name));
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(start..headers.params.len())
    }

    /// Steps over a method body by brace depth and returns its token range. A body that
    /// never closes runs to the end, `Eof` included.
    fn skip_body(&mut self) -> Result<Range<usize>, ParseError> {
        let start = self.pos;
        self.expect(Tok::LBrace, "'{'")?;
        let mut depth = 1;
        let close = self.toks[self.pos..].iter().position(|t| {
            match t.tok {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth -= 1,
                _ => {}
            }
            depth == 0
        });
        let Some(close) = close else {
            self.pos = self.toks.len() - 1;
            return Ok(start..self.toks.len());
        };
        self.pos += close + 1;
        Ok(start..self.pos)
    }

    /// Parses a type name without any trailing `[]` suffix (needed by `new T[expr]`).
    fn parse_base_type(&mut self) -> Result<BaseType<'s>, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(match s {
                "int" => BaseType::Int,
                "float" | "double" => BaseType::Float,
                "boolean" => BaseType::Bool,
                "String" => BaseType::Str,
                "void" => BaseType::Void,
                _ => BaseType::Class(s),
            }),
            other => err(self.line(), format!("expected type, found {other:?}")),
        }
    }

    fn parse_type(&mut self) -> Result<TypeName<'s>, ParseError> {
        let base = self.parse_base_type()?;
        let mut dims = 0;
        while self.peek() == Tok::LBracket && self.peek2() == Tok::RBracket {
            self.bump();
            self.bump();
            dims += 1;
        }
        Ok(TypeName { base, dims })
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
}

/// Checks and enters every declaration: the only step that adds to the program.
/// Pass 2 reads classes, fields and callees in place and writes each finished body once.
struct Compiler<'s> {
    program: Program,
    /// Every class by name.
    class_ids: HashMap<&'s str, ClassId, BuildHasherDefault<StrHasher>>,
}

impl<'s> Compiler<'s> {
    fn class_named(&self, name: &str, line: usize) -> Result<ClassId, ParseError> {
        (self.class_ids.get(name).copied())
            .ok_or_else(|| error(line, format!("unknown class {name}")))
    }

    fn resolve_base(&self, base: BaseType<'_>, line: usize) -> Result<Type, ParseError> {
        Ok(match base {
            BaseType::Int => Type::Int,
            BaseType::Float => Type::Float,
            BaseType::Bool => Type::Bool,
            BaseType::Str => Type::Str,
            BaseType::Void => Type::Void,
            BaseType::Class(c) => Type::Ref(self.class_named(c, line)?),
        })
    }

    fn resolve_type(&self, t: TypeName<'_>, line: usize) -> Result<Type, ParseError> {
        let mut ty = self.resolve_base(t.base, line)?;
        for _ in 0..t.dims {
            ty = Type::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn declare_all(&mut self, headers: &Headers<'s>) -> Result<(), ParseError> {
        // Classes first (ids follow declaration order, so `classes[i]` is class `i`).
        self.program.classes.reserve_exact(headers.classes.len());
        self.program.methods.reserve_exact(headers.methods.len());
        for decl in &headers.classes {
            let id = self.program.classes.len() as u32;
            if self.class_ids.insert(decl.name, ClassId(id)).is_some() {
                return err(decl.line, format!("duplicate class {}", decl.name));
            }
            self.program.add_class(decl.name, None);
        }
        // Then supers, fields, method signatures (method ids follow declaration order
        // too, which is how pass 2 finds each body's method again).
        for (decl, cid) in headers.classes.iter().zip((0..).map(ClassId)) {
            if let Some(sup) = decl.super_name {
                let sid = (self.class_ids.get(sup).copied())
                    .ok_or_else(|| error(decl.line, format!("unknown superclass {sup}")))?;
                self.program.class_mut(cid).super_class = Some(sid);
            }
            for f in &headers.fields[decl.fields.clone()] {
                let ty = self.resolve_type(f.ty, f.line)?;
                if self.program.class(cid).field_index(f.name).is_some() {
                    return err(f.line, format!("duplicate field {}.{}", decl.name, f.name));
                }
                self.program.add_field(cid, f.name, ty, f.is_static);
            }
            for m in &headers.methods[decl.methods.clone()] {
                let params = (headers.params[m.params.clone()].iter())
                    .map(|&(t, _)| self.resolve_type(t, m.line))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret = self.resolve_type(m.ret, m.line)?;
                self.program
                    .add_method(cid, m.name, params, ret, m.is_static);
            }
        }
        Ok(())
    }

    fn compile_bodies(
        &mut self,
        headers: &Headers<'s>,
        parser: &mut Parser<'s>,
    ) -> Result<(), ParseError> {
        let mut ctx = MethodCtx::new();
        for (m, mid) in headers.methods.iter().zip((0..).map(MethodId)) {
            parser.pos = m.body.start;
            let body = BodyCompiler {
                c: self,
                p: parser,
                ctx: &mut ctx,
            };
            let (body, locals) = body.method(mid, m, &headers.params[m.params.clone()])?;
            debug_assert_eq!(parser.pos, m.body.end, "a body ends at its closing brace");
            let entry_locals = self.program.method(mid).entry_locals();
            self.program.set_body(mid, body, locals.max(entry_locals));
        }
        // entry point: a static `main` method anywhere (the last one declared wins).
        for cid in (0..headers.classes.len() as u32).map(ClassId) {
            if let Some(mid) = self.program.find_method(cid, "main") {
                if self.program.method(mid).is_static {
                    self.program.set_entry(mid);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pass 2: method bodies, compiled as they are parsed
// ---------------------------------------------------------------------------

/// How much of a body was emitted at some point: `insns`, `fixups` and `labels` lengths.
type Mark = (usize, usize, usize);

/// The method body being compiled: where it is declared, and what it has emitted.
/// One is made per compile and cleared for each method, so its buffers are reused.
struct MethodCtx<'s> {
    class: ClassId,
    /// Line of the method's declaration — the line every error in its body reports.
    line: usize,
    insns: Vec<Insn>,
    /// Declared locals in declaration order, each in the slot of its position; a
    /// name's latest declaration wins.
    locals: Vec<(&'s str, Type)>,
    fixups: Vec<(usize, usize)>, // (insn index, label id)
    labels: Vec<Option<usize>>,
}

impl<'s> MethodCtx<'s> {
    fn new() -> Self {
        MethodCtx {
            class: ClassId(0),
            line: 0,
            insns: Vec::new(),
            locals: Vec::new(),
            fixups: Vec::new(),
            labels: Vec::new(),
        }
    }
    /// Starts the body of a method of `class` declared on `line`.
    fn begin(&mut self, class: ClassId, line: usize) {
        self.class = class;
        self.line = line;
        self.insns.clear();
        self.locals.clear();
        self.fixups.clear();
        self.labels.clear();
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
    fn mark(&self) -> Mark {
        (self.insns.len(), self.fixups.len(), self.labels.len())
    }
    /// Forgets everything emitted since `mark`.
    fn truncate(&mut self, (insns, fixups, labels): Mark) {
        self.insns.truncate(insns);
        self.fixups.truncate(fixups);
        self.labels.truncate(labels);
    }
    fn declare(&mut self, name: &'s str, ty: Type) -> u16 {
        self.locals.push((name, ty));
        (self.locals.len() - 1) as u16
    }
    /// The slot of local `name`: a short list, scanned from the end.
    fn local(&self, name: &str) -> Option<u16> {
        let slot = self.locals.iter().rposition(|&(n, _)| n == name)?;
        Some(slot as u16)
    }
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        err(self.line, message)
    }
    /// The finished body, in a vector of its exact size, and its local count.
    fn finish(&mut self) -> (Vec<Insn>, u16) {
        // A label may legitimately point one past the last instruction (e.g. the join
        // label of an if/else whose branches both return). Keep branch targets in range
        // by appending an unreachable return.
        if (self.fixups.iter()).any(|&(_, l)| self.labels[l] == Some(self.insns.len())) {
            self.insns.push(Insn::Return);
        }
        for &(idx, label) in &self.fixups {
            let target = self.labels[label].expect("unplaced label");
            self.insns[idx].remap_targets(|_| target);
        }
        (self.insns.drain(..).collect(), self.locals.len() as u16)
    }
}

/// What a compiled expression leaves to its consumer (an *item*, after Wirth's
/// delayed code generation): its code is emitted up to a last step, and reading it,
/// assigning to it or branching on it each finish it differently.
enum Item<'s> {
    /// A value on the stack, of this type (a call to a void method leaves none).
    Value(Type),
    /// The local in this slot.
    Local(u16),
    /// A static field.
    Static(FieldRef),
    /// A field of the object on the stack.
    Field(FieldRef),
    /// An element of the array under the index on the stack, of this type (`None` if
    /// the array expression is no array, which only a read rejects).
    Element(Option<Type>),
    /// A comparison of the two values on the stack, not yet branched on.
    Cmp(CmpOp),
    /// A name that is no local and no field: a class, if a call follows it.
    Name(&'s str),
    /// A field named on a value that is no object.
    NoObject(&'s str),
}

/// Pass 2 for one method: recursive descent over the body's tokens that emits as it
/// parses.
struct BodyCompiler<'a, 's> {
    c: &'a Compiler<'s>,
    p: &'a mut Parser<'s>,
    ctx: &'a mut MethodCtx<'s>,
}

impl<'s> BodyCompiler<'_, 's> {
    /// Compiles the body of `mid`, declared as `m` with `params`; the cursor is on its `{`.
    fn method(
        mut self,
        mid: MethodId,
        m: &MethodDecl<'s>,
        params: &[(TypeName<'s>, &'s str)],
    ) -> Result<(Vec<Insn>, u16), ParseError> {
        let declared = self.c.program.method(mid);
        self.ctx.begin(declared.class, m.line);
        if !m.is_static {
            self.ctx.declare("this", Type::Ref(declared.class));
        }
        for (&(_, name), ty) in params.iter().zip(&declared.params) {
            self.ctx.declare(name, ty.clone());
        }
        self.block()?;
        // Implicit return for void methods / constructors.
        if !matches!(self.ctx.insns.last(), Some(i) if i.is_terminator()) {
            if declared.ret != Type::Void {
                return self
                    .ctx
                    .err(format!("method {} may not return a value", m.name));
            }
            self.ctx.emit(Insn::Return);
        }
        Ok(self.ctx.finish())
    }

    fn block(&mut self) -> Result<(), ParseError> {
        self.p.expect(Tok::LBrace, "'{'")?;
        while self.p.peek() != Tok::RBrace {
            self.stmt()?;
        }
        self.p.bump();
        Ok(())
    }

    fn stmt(&mut self) -> Result<(), ParseError> {
        match self.p.peek() {
            Tok::LBrace => self.block()?,
            Tok::Ident("if") => {
                self.p.bump();
                let else_l = self.ctx.new_label();
                let end_l = self.ctx.new_label();
                self.condition(else_l)?;
                self.stmt()?;
                self.ctx.branch(Insn::Goto(usize::MAX), end_l);
                self.ctx.place(else_l);
                if self.p.eat_keyword("else") {
                    self.stmt()?;
                }
                self.ctx.place(end_l);
            }
            Tok::Ident("while") => {
                self.p.bump();
                let head = self.ctx.insns.len();
                let exit_l = self.ctx.new_label();
                self.condition(exit_l)?;
                self.stmt()?;
                self.ctx.emit(Insn::Goto(head));
                self.ctx.place(exit_l);
            }
            Tok::Ident("return") => {
                self.p.bump();
                if self.p.eat(Tok::Semi) {
                    self.ctx.emit(Insn::Return);
                } else {
                    self.value()?;
                    self.p.expect(Tok::Semi, "';'")?;
                    self.ctx.emit(Insn::ReturnValue);
                }
            }
            _ if self.p.looks_like_decl() => {
                let ty = self.p.parse_type()?;
                let ty = self.c.resolve_type(ty, self.ctx.line)?;
                let name = self.p.expect_ident()?;
                let init = self.p.eat(Tok::Assign);
                if init {
                    self.value()?;
                }
                self.p.expect(Tok::Semi, "';'")?;
                let slot = self.ctx.declare(name, ty);
                if init {
                    self.ctx.emit(Insn::Store(slot));
                }
            }
            _ => {
                let item = self.expr()?;
                if self.p.eat(Tok::Assign) {
                    self.assign(item)?;
                } else if self.load(item)? != Type::Void {
                    self.ctx.emit(Insn::Pop);
                }
                self.p.expect(Tok::Semi, "';'")?;
            }
        }
        Ok(())
    }

    /// Compiles `( cond )`, branching to `false_label` if it evaluates to false.
    fn condition(&mut self, false_label: usize) -> Result<(), ParseError> {
        self.p.expect(Tok::LParen, "'('")?;
        let branch = match self.expr()? {
            Item::Cmp(op) => Insn::IfCmp(op.negate(), usize::MAX),
            item => {
                self.load(item)?;
                Insn::If(CmpOp::Eq, usize::MAX)
            }
        };
        self.p.expect(Tok::RParen, "')'")?;
        self.ctx.branch(branch, false_label);
        Ok(())
    }

    /// Compiles `rhs` after `target =` and stores it there.
    fn assign(&mut self, target: Item<'s>) -> Result<(), ParseError> {
        let store = match target {
            Item::Local(slot) => Insn::Store(slot),
            Item::Static(fr) => Insn::PutStatic(fr),
            Item::Field(fr) => Insn::PutField(fr),
            Item::Element(_) => Insn::ArrayStore,
            Item::Name(name) => return self.ctx.err(format!("unknown variable {name}")),
            Item::NoObject(name) => return self.ctx.err(format!("field {name} on non-object")),
            Item::Value(_) | Item::Cmp(_) => return self.ctx.err("invalid assignment target"),
        };
        self.value()?;
        self.ctx.emit(store);
        Ok(())
    }

    /// Finishes `item` as a value on the stack and returns its type.
    fn load(&mut self, item: Item<'s>) -> Result<Type, ParseError> {
        let program = &self.c.program;
        Ok(match item {
            Item::Value(ty) => ty,
            Item::Local(slot) => {
                self.ctx.emit(Insn::Load(slot));
                self.ctx.locals[slot as usize].1.clone()
            }
            Item::Static(fr) => {
                self.ctx.emit(Insn::GetStatic(fr));
                program.field(fr).ty.clone()
            }
            Item::Field(fr) => {
                self.ctx.emit(Insn::GetField(fr));
                program.field(fr).ty.clone()
            }
            Item::Element(ty) => {
                self.ctx.emit(Insn::ArrayLoad);
                ty.ok_or_else(|| error(self.ctx.line, "indexing a non-array"))?
            }
            Item::Cmp(op) => {
                // Comparison producing a boolean value: if (cmp) push true else false.
                let true_l = self.ctx.new_label();
                let end_l = self.ctx.new_label();
                self.ctx.branch(Insn::IfCmp(op, usize::MAX), true_l);
                self.ctx.emit(Insn::Const(Const::Bool(false)));
                self.ctx.branch(Insn::Goto(usize::MAX), end_l);
                self.ctx.place(true_l);
                self.ctx.emit(Insn::Const(Const::Bool(true)));
                self.ctx.place(end_l);
                Type::Bool
            }
            Item::Name(name) => return self.ctx.err(format!("unknown variable {name}")),
            Item::NoObject(name) => {
                return self.ctx.err(format!("field access {name} on non-object"))
            }
        })
    }

    fn expr(&mut self) -> Result<Item<'s>, ParseError> {
        self.binary(1)
    }

    /// Compiles an expression and leaves its value on the stack.
    fn value(&mut self) -> Result<Type, ParseError> {
        let item = self.expr()?;
        self.load(item)
    }

    /// Precedence climbing over [`binary_op`]: compiles the operators that bind at least
    /// as tightly as `min`. All associate to the left except the comparisons, which
    /// do not chain (`a < b < c` is a syntax error, as in Java).
    fn binary(&mut self, min: u8) -> Result<Item<'s>, ParseError> {
        let mut lhs = self.unary()?;
        // Tightest operator that may still follow `lhs` at this level.
        let mut max = u8::MAX;
        while let Some((power, kind)) =
            binary_op(self.p.peek()).filter(|&(power, _)| (min..=max).contains(&power))
        {
            self.p.bump();
            let ty = self.load(lhs)?;
            lhs = match kind {
                BinKind::Arith(op) => {
                    self.operand(power)?;
                    self.ctx.emit(Insn::Bin(op));
                    Item::Value(ty)
                }
                BinKind::Cmp(op) => {
                    self.operand(power)?;
                    Item::Cmp(op)
                }
                BinKind::And | BinKind::Or => {
                    // Java-style short-circuit evaluation: the right operand is only
                    // evaluated when the left one has not already decided the result.
                    let or = kind == BinKind::Or;
                    let short = self.ctx.new_label();
                    let end = self.ctx.new_label();
                    let decided = if or { CmpOp::Ne } else { CmpOp::Eq };
                    self.ctx.branch(Insn::If(decided, usize::MAX), short);
                    self.operand(power)?;
                    self.ctx.branch(Insn::Goto(usize::MAX), end);
                    self.ctx.place(short);
                    self.ctx.emit(Insn::Const(Const::Bool(or)));
                    self.ctx.place(end);
                    Item::Value(Type::Bool)
                }
            };
            max = match kind {
                BinKind::Cmp(_) => power - 1,
                _ => power,
            };
        }
        Ok(lhs)
    }

    /// The right operand of an operator that binds with `power`, on the stack.
    fn operand(&mut self, power: u8) -> Result<Type, ParseError> {
        let item = self.binary(power + 1)?;
        self.load(item)
    }

    fn unary(&mut self) -> Result<Item<'s>, ParseError> {
        let op = match self.p.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            _ => return self.postfix(),
        };
        self.p.bump();
        let operand = self.unary()?;
        let ty = self.load(operand)?;
        self.ctx.emit(Insn::Un(op));
        Ok(Item::Value(ty))
    }

    /// A primary and its `.name`, `.name(..)` and `[index]` suffixes. Everything
    /// emitted since `mark` is the receiver of the next call, which a static callee
    /// drops.
    fn postfix(&mut self) -> Result<Item<'s>, ParseError> {
        let mark = self.ctx.mark();
        let mut item = self.primary()?;
        loop {
            item = match self.p.peek() {
                Tok::Dot => {
                    self.p.bump();
                    let name = self.p.expect_ident()?;
                    if self.p.peek() == Tok::LParen {
                        self.call_on(item, name, mark)?
                    } else if name == "length" {
                        self.load(item)?;
                        self.ctx.emit(Insn::ArrayLength);
                        Item::Value(Type::Int)
                    } else {
                        let ty = self.load(item)?;
                        self.field_of(&ty, name)?
                    }
                }
                Tok::LBracket => {
                    self.p.bump();
                    let ty = self.load(item)?;
                    self.value()?;
                    self.p.expect(Tok::RBracket, "']'")?;
                    Item::Element(match ty {
                        Type::Array(elem) => Some(*elem),
                        _ => None,
                    })
                }
                _ => return Ok(item),
            };
        }
    }

    fn primary(&mut self) -> Result<Item<'s>, ParseError> {
        let (constant, ty) = match self.p.bump() {
            Tok::Int(v) => (Insn::Const(Const::Int(v)), Type::Int),
            Tok::Float(v) => (Insn::Const(Const::Float(v)), Type::Float),
            Tok::Str(s) => (Insn::Const(Const::Str(s.to_string())), Type::Str),
            Tok::LParen => {
                let item = self.expr()?;
                self.p.expect(Tok::RParen, "')'")?;
                return Ok(item);
            }
            Tok::Ident("true") => (Insn::Const(Const::Bool(true)), Type::Bool),
            Tok::Ident("false") => (Insn::Const(Const::Bool(false)), Type::Bool),
            Tok::Ident("null") => (Insn::Const(Const::Null), Type::Ref(self.ctx.class)),
            Tok::Ident("this") => (Insn::Load(0), Type::Ref(self.ctx.class)),
            Tok::Ident("new") => return self.new_object(),
            // A qualified static call `Class.method(...)` is a call on an
            // `Item::Name`; plain `name(...)` is a same-class call.
            Tok::Ident(name) if self.p.peek() == Tok::LParen => {
                let mid = self.method_of(self.ctx.class, name)?;
                let kind = if self.c.program.method(mid).is_static {
                    InvokeKind::Static
                } else {
                    self.ctx.emit(Insn::Load(0));
                    InvokeKind::Virtual
                };
                return self.call(kind, mid);
            }
            Tok::Ident(name) => return Ok(self.name(name)),
            other => return err(self.p.line(), format!("unexpected token {other:?}")),
        };
        self.ctx.emit(constant);
        Ok(Item::Value(ty))
    }

    /// A bare name: a local, else a field of `this` or a static one, else a class.
    fn name(&mut self, name: &'s str) -> Item<'s> {
        if let Some(slot) = self.ctx.local(name) {
            return Item::Local(slot);
        }
        match self.c.program.resolve_field(self.ctx.class, name) {
            Some(fr) if self.c.program.field(fr).is_static => Item::Static(fr),
            Some(fr) => {
                self.ctx.emit(Insn::Load(0));
                Item::Field(fr)
            }
            None => Item::Name(name),
        }
    }

    /// The field `name` of a value of type `ty`.
    fn field_of(&self, ty: &Type, name: &'s str) -> Result<Item<'s>, ParseError> {
        let Some(class) = ty.ref_class() else {
            return Ok(Item::NoObject(name));
        };
        match self.c.program.resolve_field(class, name) {
            Some(fr) => Ok(Item::Field(fr)),
            None => self.ctx.err(format!("unknown field {name}")),
        }
    }

    /// The method `name` of `class` or of its nearest ancestor that declares one.
    fn method_of(&self, class: ClassId, name: &str) -> Result<MethodId, ParseError> {
        let program = &self.c.program;
        (program.resolve_method(class, name)).ok_or_else(|| {
            let class = &program.class(class).name;
            error(self.ctx.line, format!("unknown method {class}.{name}"))
        })
    }

    /// `recv.name(...)`. The call is static when `recv` names a class or the callee is
    /// static, and then the receiver's code, emitted since `mark`, goes again.
    fn call_on(&mut self, recv: Item<'s>, name: &str, mark: Mark) -> Result<Item<'s>, ParseError> {
        let (class, via_class) = match recv {
            Item::Name(cname) => match self.c.class_ids.get(cname) {
                Some(&cid) => (cid, true),
                None => return self.ctx.err(format!("unknown receiver {cname}")),
            },
            recv => match self.load(recv)?.ref_class() {
                Some(cid) => (cid, false),
                None => return self.ctx.err(format!("call {name} on non-object")),
            },
        };
        let mid = self.method_of(class, name)?;
        let kind = if via_class || self.c.program.method(mid).is_static {
            self.ctx.truncate(mark);
            InvokeKind::Static
        } else {
            InvokeKind::Virtual
        };
        self.call(kind, mid)
    }

    /// Compiles the argument list `(a, b, ..)` and invokes `mid`.
    fn call(&mut self, kind: InvokeKind, mid: MethodId) -> Result<Item<'s>, ParseError> {
        self.p.expect(Tok::LParen, "'('")?;
        let mut first = true;
        while self.p.peek() != Tok::RParen {
            if !first {
                self.p.expect(Tok::Comma, "','")?;
            }
            first = false;
            self.value()?;
        }
        self.p.bump();
        self.ctx.emit(Insn::Invoke(kind, mid));
        Ok(Item::Value(self.c.program.method(mid).ret.clone()))
    }

    /// `new C(..)` or `new T[len]`, after the `new`.
    fn new_object(&mut self) -> Result<Item<'s>, ParseError> {
        let base = self.p.parse_base_type()?;
        if self.p.eat(Tok::LBracket) {
            let elem = self.c.resolve_base(base, self.ctx.line)?;
            self.value()?;
            self.p.expect(Tok::RBracket, "']'")?;
            self.ctx.emit(Insn::NewArray(elem.clone()));
            return Ok(Item::Value(Type::Array(Box::new(elem))));
        }
        let BaseType::Class(cname) = base else {
            return err(
                self.p.line(),
                format!("cannot 'new' non-class type {base:?}"),
            );
        };
        let cid = self.c.class_named(cname, self.ctx.line)?;
        self.ctx.emit(Insn::New(cid));
        if let Some(ctor) = self.c.program.find_method(cid, "<init>") {
            self.ctx.emit(Insn::Dup);
            self.call(InvokeKind::Special, ctor)?;
        } else {
            self.p.expect(Tok::LParen, "'('")?;
            if !self.p.eat(Tok::RParen) {
                return self.ctx.err(format!("class {cname} has no constructor"));
            }
        }
        Ok(Item::Value(Type::Ref(cid)))
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
    let headers = parser.parse_headers()?;
    let mut compiler = Compiler {
        program: Program::new(),
        class_ids: HashMap::with_capacity_and_hasher(headers.classes.len(), Default::default()),
    };
    compiler.declare_all(&headers)?;
    compiler.compile_bodies(&headers, &mut parser)?;
    Ok(compiler.program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_program;
    use oracle::oracle_compile_source;

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

    const ARITHMETIC_SRC: &str = r#"
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

    const NO_CONSTRUCTOR_SRC: &str = r#"
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

    const ARRAYS_SRC: &str = r#"
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

    const UNKNOWN_VARIABLE_SRC: &str = r#"
        class A { static void main() { x = 3; } }
    "#;

    const UNKNOWN_CLASS_SRC: &str = r#"
        class A { static void main() { B b = new B(); } }
    "#;

    const BOOLEAN_VALUE_SRC: &str = r#"
        class A {
            static void main() {
                int x = 5;
                boolean big = x > 3;
                if (big) { x = 1; }
            }
        }
    "#;

    const INHERITANCE_SRC: &str = r#"
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

    const UNTERMINATED_STRING_SRC: &str = "class A { static void main() { String s = \"oops; } }";

    const COMMENTS_SRC: &str = r#"
        // line comment
        class A {
            /* block
               comment */
            static void main() { int x = 1; }
        }
    "#;

    /// The places where a compiler that emits while it parses could leave the tree's
    /// order: static callees behind receivers (the instance one short-circuits), every
    /// shape of condition, comparisons used as values, every kind of assignment target,
    /// a dropped call result and an if/else whose join nobody reaches.
    const CORNER_SRC: &str = r#"
        class Helper {
            int v;
            static int s() { return 7; }
            int get() { return this.v; }
        }
        class Corner {
            int f;
            static int count;
            Helper h;
            Corner next;
            int[][] m;
            Corner() { this.next = this; this.h = new Helper(); }
            Helper pick(boolean b) { return this.h; }
            int virt(int x) { return x + this.f; }
            static int stat(int x) { return x * 2; }
            static boolean less(int a, int b) { return a < b; }
            boolean flags(int a, int b, int c, int d, boolean e) {
                boolean lt = a < b;
                if ((a < b)) { a = a + 1; }
                if (!(a < b)) { b = b + 1; }
                while (a < b && c != d) { a = a + 1; }
                if ((a < b) == e) { c = c + 1; }
                lt = less(a, b) || less(b, a);
                return a < b;
            }
            int calls(int a, int b, int c, int d) {
                int r = pick(a < b && c != d).s();
                r = r + this.pick(a < b || c != d).s() + Helper.s();
                r = r + virt(a) + stat(b) + Corner.stat(c) + this.virt(d);
                boolean g = less((a < b) == (c < d), a);
                virt(r);
                Corner.stat(r);
                this.h.get();
                return r;
            }
            void stores(Corner o, int e) {
                o.next.f = e;
                this.m[e][e] = e;
                m[e][e + 1] = e * 2;
                int x = 0;
                (x) = e;
                ((x)) = x + 1;
                f = e;
                count = e;
                (f) = count;
                o.next.next.h.v = -e;
            }
            int branches(int a) {
                if (a < 0) { return 0 - a; } else { return a; }
            }
            static void main() {
                Corner c = new Corner();
                c.stores(c, 1);
                int r = c.calls(1, 2, 3, 4) + c.branches(-3);
                boolean b = c.flags(r, 2, 3, 4, true);
            }
        }
    "#;

    /// The sources the rest of the crate's tests compile (`verify`'s and Figure 5's).
    const OTHER_IR_SOURCES: [&str; 4] = [
        "class C { static void main() { int x = 1 + 2; } }",
        "class C { static void helper() { } }",
        "class C {
        static int twice(int x) { return x + x; }
        static void main() { int y = C.twice(2); }
    }",
        "class Example { int ex(int b) { b = 4; if (b > 2) { b = b + 1; } return b; } }",
    ];

    /// Every diagnostic keeps its line and its wording. Body errors carry the line
    /// their method starts on; parse errors the line of the offending token.
    const ERROR_CASES: [(&str, usize, &str); 14] = [
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
        // So does an error inside a call's receiver, which is compiled before its
        // callee is known (it reported line 0 too).
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
        // A repeated class or field is an error on the line of the second declaration
        // (they panicked inside `Program`).
        ("class A { }\nclass A { }", 2, "duplicate class A"),
        (
            "class A {\n  int x;\n  static void main() { }\n  String x;\n}",
            4,
            "duplicate field A.x",
        ),
    ];

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
        let p = compile_source(ARITHMETIC_SRC).expect("compiles");
        verify_program(&p).expect("verifies");
        let main = p.entry.unwrap();
        assert!(p.method(main).body.len() > 10);
    }

    #[test]
    fn classes_without_constructor_are_allowed() {
        let p = compile_source(NO_CONSTRUCTOR_SRC).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn arrays_and_length_compile() {
        let p = compile_source(ARRAYS_SRC).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let e = compile_source(UNKNOWN_VARIABLE_SRC).unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn unknown_class_is_an_error() {
        assert!(compile_source(UNKNOWN_CLASS_SRC).is_err());
    }

    #[test]
    fn boolean_comparison_as_value() {
        let p = compile_source(BOOLEAN_VALUE_SRC).expect("compiles");
        verify_program(&p).expect("verifies");
    }

    #[test]
    fn inheritance_and_virtual_dispatch_compile() {
        let p = compile_source(INHERITANCE_SRC).expect("compiles");
        verify_program(&p).expect("verifies");
        let sq = p.class_by_name("Square").unwrap();
        let sh = p.class_by_name("Shape").unwrap();
        assert!(p.is_subclass_of(sq, sh));
    }

    #[test]
    fn lexer_reports_unterminated_string() {
        assert!(compile_source(UNTERMINATED_STRING_SRC).is_err());
    }

    #[test]
    fn errors_keep_their_lines_and_messages() {
        for (src, line, message) in ERROR_CASES {
            let e = compile_source(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{src}");
        }
    }

    #[test]
    fn duplicate_method_names_stay_accepted() {
        let p = compile_source("class A {\n  int m() { return 1; }\n  int m() { return 2; }\n}")
            .expect("compiles");
        assert_eq!(p.methods.len(), 2);
    }

    #[test]
    fn comments_are_ignored() {
        assert!(compile_source(COMMENTS_SRC).is_ok());
    }

    /// Compiles `src` with both front ends and asserts the same outcome: the same
    /// program, field for field, or the same error. Where the oracle panics on a
    /// duplicate declaration the one-pass front end must report its wording.
    fn assert_matches_oracle(src: &str, what: &str) {
        let ours = compile_source(src);
        match std::panic::catch_unwind(|| oracle_compile_source(src)) {
            Ok(theirs) => assert!(format!("{ours:?}") == format!("{theirs:?}"), "{what}"),
            Err(panic) => {
                let wording = panic.downcast_ref::<String>().expect("a formatted panic");
                let ours = ours.map(|_| ()).expect_err("the oracle panicked");
                assert_eq!(&ours.message, wording, "{what}");
            }
        }
    }

    #[test]
    fn the_flat_front_end_compiles_what_the_boxed_one_did() {
        let sources = [
            BANK_SRC,
            ARITHMETIC_SRC,
            NO_CONSTRUCTOR_SRC,
            ARRAYS_SRC,
            UNKNOWN_VARIABLE_SRC,
            UNKNOWN_CLASS_SRC,
            BOOLEAN_VALUE_SRC,
            INHERITANCE_SRC,
            UNTERMINATED_STRING_SRC,
            COMMENTS_SRC,
            CORNER_SRC,
        ];
        let errors = ERROR_CASES.map(|(src, ..)| src);
        for src in sources.into_iter().chain(OTHER_IR_SOURCES).chain(errors) {
            assert_matches_oracle(src, src);
        }
        let corners = compile_source(CORNER_SRC).expect("the corner cases compile");
        verify_program(&corners).expect("and verify");
    }

    /// Where compiling as it parses differs from the tree, on purpose. (a) A static
    /// call's receiver is compiled and then dropped, so an error inside it counts; the
    /// tree never looked at it. (b) Errors come in phase order (lexical, headers,
    /// declarations, then each body's first in source order), so a body's syntax error
    /// no longer outranks a declaration error or an earlier semantic one.
    #[test]
    fn one_pass_differs_from_the_tree_only_where_it_means_to() {
        let cases = [
            (
                "class A {\n  static int s() { return 1; }\n  A f(int x) { return this; }\n  \
                 void m() {\n    int y = f(nope).s();\n  }\n}",
                (4, "unknown variable nope"),
                None,
            ),
            (
                "class A {\n  Nope x;\n  void m() { int y = ; }\n}",
                (2, "unknown class Nope"),
                Some((3, "unexpected token Semi")),
            ),
            (
                "class A {\n  void m() { x = 1; }\n  void n() { int y = ; }\n}",
                (2, "unknown variable x"),
                Some((3, "unexpected token Semi")),
            ),
            (
                "class A {\n  void m() {\n    x = 1;\n    int y = ;\n  }\n}",
                (2, "unknown variable x"),
                Some((5, "unexpected token Semi")),
            ),
        ];
        for (src, ours, theirs) in cases {
            let e = compile_source(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), ours, "{src}");
            let tree = oracle_compile_source(src).err();
            let tree = tree.as_ref().map(|e| (e.line, e.message.as_str()));
            assert_eq!(tree, theirs, "{src}");
        }
    }

    #[test]
    fn the_flat_front_end_compiles_every_generated_tree_as_the_boxed_one_did() {
        use autodist_workloads::{generated_source, GenConfig};
        let mut configs = Vec::new();
        for (depth, width) in [(3, 4), (4, 8), (6, 12), (6, 16), (8, 24)] {
            for seed in [1, 2, 3] {
                configs.push((depth, width, seed, 0.0));
            }
            for skew in [2.0, 8.0] {
                configs.push((depth, width, 1, skew));
            }
        }
        for (depth, width, seed, affinity_skew) in configs {
            let config = GenConfig {
                seed,
                depth,
                width,
                fan_out: 3,
                affinity_skew,
                ..Default::default()
            };
            assert_matches_oracle(&generated_source(&config), &format!("{config:?}"));
        }
    }

    /// The boxed-AST front end, kept verbatim as the one-pass compiler's definition:
    /// one `Box` per expression and statement, one `Vec` per argument list, block and
    /// declaration list, a method context per method and class lookups through
    /// [`Program::class_by_name`]. It shares the lexer and the operator table.
    /// Duplicate declarations panic in it (inside [`Program`]) where the one-pass front
    /// end reports them.
    mod oracle {
        use super::super::{binary_op, err, error, lex, BinKind, ParseError, SpannedTok, Tok};
        use crate::bytecode::{CmpOp, Const, Insn, InvokeKind, UnOp};
        use crate::program::{ClassId, FieldRef, MethodId, Program, Type};

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
                    TypeName::Array(inner) => {
                        Type::Array(Box::new(self.resolve_type(inner, line)?))
                    }
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

            fn compile_stmt<'s>(
                &self,
                ctx: &mut MethodCtx<'s>,
                stmt: &Stmt<'s>,
            ) -> Result<(), ParseError> {
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
                            let ocls = oty.ref_class().ok_or_else(|| {
                                error(ctx.line, format!("field {fname} on non-object"))
                            })?;
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
                let ocls = oty.ref_class().ok_or_else(|| {
                    error(ctx.line, format!("field access {fname} on non-object"))
                })?;
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
                    Expr::BoolLit(_)
                    | Expr::Binary(BinKind::Cmp(_) | BinKind::And | BinKind::Or, ..) => Type::Bool,
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
                    Expr::NewArray(ty, _) => {
                        Type::Array(Box::new(self.resolve_type(ty, ctx.line)?))
                    }
                    Expr::Unary(_, inner) | Expr::Binary(BinKind::Arith(_), inner, _) => {
                        self.type_of(ctx, inner)?
                    }
                })
            }

            fn compile_expr<'s>(
                &self,
                ctx: &mut MethodCtx<'s>,
                e: &Expr<'s>,
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
        pub(super) fn oracle_compile_source(src: &str) -> Result<Program, ParseError> {
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
    }
}
