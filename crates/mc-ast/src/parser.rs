//! Recursive-descent parser for the C subset.
//!
//! The grammar is classic C89 minus the features FLASH protocol code never
//! uses (K&R declarations, bitfields, function pointers in full generality).
//! Two extensions matter to the rest of the workspace:
//!
//! * **Typedef tracking** — `typedef` items register names so later
//!   declarations can use them; callers may also pre-register names with
//!   [`Parser::add_typedef`] (the driver does this with the FLASH header
//!   types, mirroring how xg++ saw the real headers).
//! * **Wildcards** — when constructed with [`Parser::with_wildcards`],
//!   identifiers in the given set parse as [`ExprKind::Wildcard`]. The metal
//!   pattern compiler uses this so patterns are "written in the base
//!   language", exactly as the paper describes.

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::{is_keyword, is_type_keyword, unescape, Punct, Span, Token, TokenKind};
use std::collections::HashSet;
use std::fmt;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
    /// File the error occurred in (empty when parsing fragments).
    pub file: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "parse error at {}: {}", self.span, self.message)
        } else {
            write!(
                f,
                "{}:{}: parse error: {}",
                self.file, self.span, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
            file: String::new(),
        }
    }
}

/// Parses a complete source file.
///
/// # Errors
///
/// Returns [`ParseError`] on the first syntax error.
pub fn parse_translation_unit(src: &str, file: &str) -> Result<TranslationUnit, ParseError> {
    let (tokens, pp) = Lexer::new(src).tokenize().map_err(|e| ParseError {
        file: file.to_string(),
        ..ParseError::from(e)
    })?;
    let mut parser = Parser::new(tokens, file);
    parser.preprocessor_lines = pp;
    parser.translation_unit()
}

/// Parses a single expression (used for metal patterns and tests).
///
/// # Errors
///
/// Returns [`ParseError`] if `src` is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let (tokens, _) = Lexer::new(src).tokenize()?;
    let mut parser = Parser::new(tokens, "");
    let e = parser.expr()?;
    parser.expect_eof()?;
    Ok(e)
}

/// Parses a single statement (used for metal patterns and tests).
///
/// # Errors
///
/// Returns [`ParseError`] if `src` is not exactly one statement.
pub fn parse_stmt(src: &str) -> Result<Stmt, ParseError> {
    let (tokens, _) = Lexer::new(src).tokenize()?;
    let mut parser = Parser::new(tokens, "");
    let s = parser.stmt()?;
    parser.expect_eof()?;
    Ok(s)
}

/// The parser state. Tokens borrow their text from the source; the parser
/// copies it into the AST only where a node keeps it.
#[derive(Debug)]
pub struct Parser<'src> {
    /// Never empty: the last token is always [`TokenKind::Eof`], and `pos`
    /// never moves past it.
    tokens: Vec<Token<'src>>,
    pos: usize,
    file: String,
    typedefs: HashSet<String>,
    wildcards: HashSet<String>,
    /// Preprocessor lines captured by the lexer, stored into the resulting
    /// [`TranslationUnit`].
    pub preprocessor_lines: Vec<String>,
}

impl<'src> Parser<'src> {
    /// Creates a parser over a token stream (an [`TokenKind::Eof`] token is
    /// appended if the stream does not end with one).
    pub fn new(mut tokens: Vec<Token<'src>>, file: &str) -> Self {
        if !matches!(tokens.last(), Some(t) if t.kind == TokenKind::Eof) {
            let span = tokens.last().map_or_else(Span::default, |t| t.span);
            tokens.push(Token::new(TokenKind::Eof, span));
        }
        Parser {
            tokens,
            pos: 0,
            file: file.to_string(),
            typedefs: HashSet::new(),
            wildcards: HashSet::new(),
            preprocessor_lines: Vec::new(),
        }
    }

    /// Creates a parser whose identifiers in `wildcards` parse as
    /// [`ExprKind::Wildcard`] — the mechanism behind metal `decl` variables.
    pub fn with_wildcards(tokens: Vec<Token<'src>>, wildcards: HashSet<String>) -> Self {
        Parser {
            wildcards,
            ..Parser::new(tokens, "")
        }
    }

    /// Registers a typedef name so subsequent declarations can use it.
    pub fn add_typedef(&mut self, name: &str) {
        self.typedefs.insert(name.to_string());
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            span: self.peek_span(),
            file: self.file.clone(),
        })
    }

    fn peek(&self) -> TokenKind<'src> {
        self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> TokenKind<'src> {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Consumes the current token (staying on the final `Eof`) and
    /// returns it.
    fn bump(&mut self) -> TokenKind<'src> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn is_typedef(&self, name: &str) -> bool {
        !self.typedefs.is_empty() && self.typedefs.contains(name)
    }

    fn is_wildcard(&self, name: &str) -> bool {
        !self.wildcards.is_empty() && self.wildcards.contains(name)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found `{}`", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) if !is_keyword(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        // Allow one trailing semicolon in fragments.
        self.eat_punct(Punct::Semi);
        if self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of input, found `{}`", self.peek()))
        }
    }

    // ----- types and declarations -------------------------------------

    fn at_type(&self) -> bool {
        match self.peek() {
            TokenKind::Ident(s) => {
                is_type_keyword(s)
                    || self.is_typedef(s)
                    || matches!(
                        s,
                        "static" | "extern" | "const" | "volatile" | "inline" | "register"
                    )
            }
            _ => false,
        }
    }

    fn storage_class(&mut self) -> StorageClass {
        let mut sc = StorageClass::default();
        while let TokenKind::Ident(word) = self.peek() {
            match word {
                "static" => sc.is_static = true,
                "extern" => sc.is_extern = true,
                "const" => sc.is_const = true,
                "volatile" => sc.is_volatile = true,
                "inline" => sc.is_inline = true,
                "register" => sc.is_register = true,
                _ => break,
            }
            self.bump();
        }
        sc
    }

    /// Parses a type specifier (no declarator): `unsigned long`,
    /// `struct Foo`, a typedef name, etc.
    fn type_specifier(&mut self) -> Result<Type, ParseError> {
        if self.eat_kw("void") {
            return Ok(self.pointered(Type::Void));
        }
        if self.eat_kw("float") {
            return Ok(self.pointered(Type::Float));
        }
        if self.eat_kw("double") {
            return Ok(self.pointered(Type::Double));
        }
        if self.eat_kw("struct") || {
            if self.peek().is_kw("union") {
                self.bump();
                let name = self.expect_ident()?;
                return Ok(self.pointered(Type::Struct {
                    name,
                    is_union: true,
                }));
            }
            false
        } {
            let name = self.expect_ident()?;
            return Ok(self.pointered(Type::Struct {
                name,
                is_union: false,
            }));
        }
        if self.eat_kw("enum") {
            let name = self.expect_ident()?;
            return Ok(self.pointered(Type::Enum(name)));
        }
        // Integer family: any sequence of signed/unsigned/char/short/int/long.
        let mut unsigned = false;
        let mut width: Option<&'static str> = None;
        let mut saw_int_kw = false;
        while let TokenKind::Ident(word) = self.peek() {
            match word {
                "unsigned" => {
                    unsigned = true;
                    saw_int_kw = true;
                }
                "signed" => {
                    saw_int_kw = true;
                }
                "char" => {
                    width = Some("char");
                    saw_int_kw = true;
                }
                "short" => {
                    width = Some("short");
                    saw_int_kw = true;
                }
                "long" => {
                    width = Some("long");
                    saw_int_kw = true;
                }
                "int" => {
                    width = width.or(Some("int"));
                    saw_int_kw = true;
                }
                _ => break,
            }
            self.bump();
        }
        if saw_int_kw {
            return Ok(self.pointered(Type::Int {
                unsigned,
                width: width.unwrap_or("int"),
            }));
        }
        // Typedef name.
        if let TokenKind::Ident(s) = self.peek() {
            if self.is_typedef(s) {
                self.bump();
                return Ok(self.pointered(Type::Named(s.to_string())));
            }
        }
        self.err(format!("expected type, found `{}`", self.peek()))
    }

    fn pointered(&mut self, mut ty: Type) -> Type {
        while self.peek().is_punct(Punct::Star) {
            self.bump();
            // `const` after `*` is allowed and ignored.
            while self.eat_kw("const") || self.eat_kw("volatile") {}
            ty = Type::Ptr(Box::new(ty));
        }
        ty
    }

    /// Parses array suffixes on a declarator: `x[10][2]`.
    fn array_suffixes(&mut self, mut ty: Type) -> Result<Type, ParseError> {
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            if self.eat_punct(Punct::RBracket) {
                dims.push(None);
            } else {
                let e = self.expr()?;
                let n = const_eval(&e);
                self.expect_punct(Punct::RBracket)?;
                dims.push(n);
            }
        }
        for d in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    // ----- top level ----------------------------------------------------

    /// Parses the whole token stream as a translation unit.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on the first syntax error.
    pub fn translation_unit(&mut self) -> Result<TranslationUnit, ParseError> {
        let mut items = Vec::new();
        while self.peek() != TokenKind::Eof {
            items.push(self.external_item()?);
        }
        Ok(TranslationUnit {
            file: self.file.clone(),
            preprocessor_lines: std::mem::take(&mut self.preprocessor_lines),
            items,
        })
    }

    fn external_item(&mut self) -> Result<Item, ParseError> {
        let span = self.peek_span();
        // typedef
        if self.peek().is_kw("typedef") {
            self.bump();
            let ty = self.type_specifier()?;
            let name = self.expect_ident()?;
            let ty = self.array_suffixes(ty)?;
            self.expect_punct(Punct::Semi)?;
            self.typedefs.insert(name.clone());
            return Ok(Item::Decl(ExternalDecl::Typedef { ty, name, span }));
        }
        // struct/union definition `struct S { ... };`
        if (self.peek().is_kw("struct") || self.peek().is_kw("union"))
            && self.peek_at(2).is_punct(Punct::LBrace)
        {
            let is_union = self.peek().is_kw("union");
            self.bump();
            let name = self.expect_ident()?;
            self.expect_punct(Punct::LBrace)?;
            let mut fields = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                let _sc = self.storage_class();
                let base = self.type_specifier()?;
                loop {
                    let fname = self.expect_ident()?;
                    let fty = self.array_suffixes(base.clone())?;
                    fields.push((fty, fname));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
            }
            self.expect_punct(Punct::Semi)?;
            return Ok(Item::Decl(ExternalDecl::Struct(StructDef {
                name,
                is_union,
                fields,
                span,
            })));
        }
        // enum definition `enum E { ... };`
        if self.peek().is_kw("enum") && self.peek_at(2).is_punct(Punct::LBrace) {
            self.bump();
            let name = self.expect_ident()?;
            self.expect_punct(Punct::LBrace)?;
            let mut variants = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                let vname = self.expect_ident()?;
                let value = if self.eat_punct(Punct::Assign) {
                    // Not `expr()`: a comma here separates enumerators.
                    let e = self.assignment_expr()?;
                    const_eval(&e)
                } else {
                    None
                };
                variants.push((vname, value));
                if !self.eat_punct(Punct::Comma) {
                    // allow trailing `}` after last variant
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
            return Ok(Item::Decl(ExternalDecl::EnumDef {
                name,
                variants,
                span,
            }));
        }

        let storage = self.storage_class();
        let base = self.type_specifier()?;
        let name = self.expect_ident()?;

        if self.peek().is_punct(Punct::LParen) {
            // Function definition or prototype.
            self.bump();
            let params = self.param_list()?;
            self.expect_punct(Punct::RParen)?;
            let func = Function {
                storage,
                return_type: base,
                name,
                params,
                body: Vec::new(),
                span,
            };
            if self.eat_punct(Punct::Semi) {
                return Ok(Item::Decl(ExternalDecl::Proto(func)));
            }
            self.expect_punct(Punct::LBrace)?;
            let body = self.block_body()?;
            return Ok(Item::Function(Function { body, ..func }));
        }

        // Global variable (only the first declarator may be followed by
        // others, which we split into separate items is unnecessary at file
        // scope — FLASH globals are one per line; keep the first and require
        // `;` or `= init ;`).
        let ty = self.array_suffixes(base)?;
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect_punct(Punct::Semi)?;
        Ok(Item::Decl(ExternalDecl::Var(Declaration {
            storage,
            ty,
            name,
            init,
            span,
        })))
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.peek().is_punct(Punct::RParen) {
            return Ok(params);
        }
        if self.peek().is_kw("void") && self.peek_at(1).is_punct(Punct::RParen) {
            self.bump();
            return Ok(params);
        }
        loop {
            let _sc = self.storage_class();
            let base = self.type_specifier()?;
            let name = match self.peek() {
                TokenKind::Ident(s) if !is_keyword(s) => {
                    self.bump();
                    s.to_string()
                }
                _ => String::new(),
            };
            let ty = self.array_suffixes(base)?;
            params.push(Param { ty, name });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn initializer(&mut self) -> Result<Initializer, ParseError> {
        if self.eat_punct(Punct::LBrace) {
            let mut list = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                list.push(self.initializer()?);
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
            Ok(Initializer::List(list))
        } else {
            Ok(Initializer::Expr(self.assignment_expr()?))
        }
    }

    // ----- statements ---------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == TokenKind::Eof {
                return self.err("unexpected end of file inside block");
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    /// Parses one statement.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        // Label: `ident :` not followed by another colon-ish construct.
        if let TokenKind::Ident(s) = self.peek() {
            if !is_keyword(s) && self.peek_at(1).is_punct(Punct::Colon) {
                let label = s.to_string();
                self.bump();
                self.bump();
                let inner = self.stmt()?;
                return Ok(Stmt::new(StmtKind::Label(label, Box::new(inner)), span));
            }
        }
        if self.eat_punct(Punct::Semi) {
            return Ok(Stmt::new(StmtKind::Empty, span));
        }
        if self.eat_punct(Punct::LBrace) {
            let body = self.block_body()?;
            return Ok(Stmt::new(StmtKind::Block(body), span));
        }
        if self.eat_kw("if") {
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::new(StmtKind::If { cond, then, els }, span));
        }
        if self.eat_kw("while") {
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::new(StmtKind::While { cond, body }, span));
        }
        if self.eat_kw("do") {
            let body = Box::new(self.stmt()?);
            if !self.eat_kw("while") {
                return self.err("expected `while` after `do` body");
            }
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::new(StmtKind::DoWhile { body, cond }, span));
        }
        if self.eat_kw("for") {
            self.expect_punct(Punct::LParen)?;
            let init = if self.eat_punct(Punct::Semi) {
                None
            } else if self.at_type() {
                Some(Box::new(self.decl_stmt()?))
            } else {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Some(Box::new(Stmt::new(StmtKind::Expr(e), span)))
            };
            let cond = if self.peek().is_punct(Punct::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::Semi)?;
            let step = if self.peek().is_punct(Punct::RParen) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::new(
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
                span,
            ));
        }
        if self.eat_kw("switch") {
            self.expect_punct(Punct::LParen)?;
            let scrutinee = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::LBrace)?;
            let mut cases = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                let case_span = self.peek_span();
                let value = if self.eat_kw("case") {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Colon)?;
                    Some(e)
                } else if self.eat_kw("default") {
                    self.expect_punct(Punct::Colon)?;
                    None
                } else {
                    return self.err("expected `case` or `default` in switch body");
                };
                let mut body = Vec::new();
                while !self.peek().is_kw("case")
                    && !self.peek().is_kw("default")
                    && !self.peek().is_punct(Punct::RBrace)
                {
                    if self.peek() == TokenKind::Eof {
                        return self.err("unexpected end of file inside switch");
                    }
                    body.push(self.stmt()?);
                }
                cases.push(SwitchCase {
                    value,
                    body,
                    span: case_span,
                });
            }
            return Ok(Stmt::new(StmtKind::Switch { scrutinee, cases }, span));
        }
        if self.eat_kw("break") {
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::new(StmtKind::Break, span));
        }
        if self.eat_kw("continue") {
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::new(StmtKind::Continue, span));
        }
        if self.eat_kw("return") {
            if self.eat_punct(Punct::Semi) {
                return Ok(Stmt::new(StmtKind::Return(None), span));
            }
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::new(StmtKind::Return(Some(e)), span));
        }
        if self.eat_kw("goto") {
            let label = self.expect_ident()?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::new(StmtKind::Goto(label), span));
        }
        if self.at_type() {
            return self.decl_stmt();
        }
        let e = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::new(StmtKind::Expr(e), span))
    }

    /// Parses a local declaration statement. Multiple declarators become a
    /// block of single-declaration statements.
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        let storage = self.storage_class();
        let base = self.type_specifier()?;
        let mut decls = Vec::new();
        loop {
            // Each declarator may add its own pointer stars.
            let mut ty = base.clone();
            while self.eat_punct(Punct::Star) {
                ty = Type::Ptr(Box::new(ty));
            }
            let name = self.expect_ident()?;
            let ty = self.array_suffixes(ty)?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            decls.push(Stmt::new(
                StmtKind::Decl(Declaration {
                    storage,
                    ty,
                    name,
                    init,
                    span,
                }),
                span,
            ));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        if decls.len() == 1 {
            Ok(decls.pop().expect("one declaration"))
        } else {
            Ok(Stmt::new(StmtKind::Block(decls), span))
        }
    }

    // ----- expressions ----------------------------------------------------

    /// Parses a full (comma-level) expression.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.assignment_expr()?;
        while self.peek().is_punct(Punct::Comma) {
            // Comma only binds inside parens/statements; call-argument
            // parsing never enters here.
            let span = self.peek_span();
            self.bump();
            let rhs = self.assignment_expr()?;
            e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), span);
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => None,
            TokenKind::Punct(Punct::PlusEq) => Some(BinaryOp::Add),
            TokenKind::Punct(Punct::MinusEq) => Some(BinaryOp::Sub),
            TokenKind::Punct(Punct::StarEq) => Some(BinaryOp::Mul),
            TokenKind::Punct(Punct::SlashEq) => Some(BinaryOp::Div),
            TokenKind::Punct(Punct::PercentEq) => Some(BinaryOp::Rem),
            TokenKind::Punct(Punct::AmpEq) => Some(BinaryOp::BitAnd),
            TokenKind::Punct(Punct::PipeEq) => Some(BinaryOp::BitOr),
            TokenKind::Punct(Punct::CaretEq) => Some(BinaryOp::BitXor),
            TokenKind::Punct(Punct::ShlEq) => Some(BinaryOp::Shl),
            TokenKind::Punct(Punct::ShrEq) => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        let span = self.peek_span();
        self.bump();
        let rhs = self.assignment_expr()?;
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let span = cond.span;
            let then = self.expr()?;
            self.expect_punct(Punct::Colon)?;
            let els = self.assignment_expr()?;
            return Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
            ));
        }
        Ok(cond)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct(Punct::OrOr) => (BinaryOp::LogOr, 1),
                TokenKind::Punct(Punct::AndAnd) => (BinaryOp::LogAnd, 2),
                TokenKind::Punct(Punct::Pipe) => (BinaryOp::BitOr, 3),
                TokenKind::Punct(Punct::Caret) => (BinaryOp::BitXor, 4),
                TokenKind::Punct(Punct::Amp) => (BinaryOp::BitAnd, 5),
                TokenKind::Punct(Punct::EqEq) => (BinaryOp::Eq, 6),
                TokenKind::Punct(Punct::NotEq) => (BinaryOp::Ne, 6),
                TokenKind::Punct(Punct::Lt) => (BinaryOp::Lt, 7),
                TokenKind::Punct(Punct::Gt) => (BinaryOp::Gt, 7),
                TokenKind::Punct(Punct::Le) => (BinaryOp::Le, 7),
                TokenKind::Punct(Punct::Ge) => (BinaryOp::Ge, 7),
                TokenKind::Punct(Punct::Shl) => (BinaryOp::Shl, 8),
                TokenKind::Punct(Punct::Shr) => (BinaryOp::Shr, 8),
                TokenKind::Punct(Punct::Plus) => (BinaryOp::Add, 9),
                TokenKind::Punct(Punct::Minus) => (BinaryOp::Sub, 9),
                TokenKind::Punct(Punct::Star) => (BinaryOp::Mul, 10),
                TokenKind::Punct(Punct::Slash) => (BinaryOp::Div, 10),
                TokenKind::Punct(Punct::Percent) => (BinaryOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.peek_span();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Not) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnaryOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnaryOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary_expr()?;
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                span,
            ));
        }
        if self.peek().is_kw("sizeof")
            || self.peek().is_punct(Punct::LParen) && self.lookahead_is_type()
        {
            return self.sizeof_or_cast(span);
        }
        self.postfix_expr()
    }

    /// `sizeof(type)` or a cast. This and [`Parser::postfix_expr`] stay out
    /// of `unary_expr`'s frame, which repeats once per prefix operator, so
    /// long `- - - x` chains fit the stack.
    #[inline(never)]
    fn sizeof_or_cast(&mut self, span: Span) -> Result<Expr, ParseError> {
        if self.peek().is_kw("sizeof") {
            self.bump();
            self.expect_punct(Punct::LParen)?;
            let ty = self.type_specifier()?;
            self.expect_punct(Punct::RParen)?;
            return Ok(Expr::new(ExprKind::SizeofType(ty), span));
        }
        // Cast: `(` type `)` unary.
        self.bump();
        let ty = self.type_specifier()?;
        self.expect_punct(Punct::RParen)?;
        let inner = self.unary_expr()?;
        Ok(Expr::new(
            ExprKind::Cast {
                ty,
                expr: Box::new(inner),
            },
            span,
        ))
    }

    fn lookahead_is_type(&self) -> bool {
        match self.peek_at(1) {
            TokenKind::Ident(s) => is_type_keyword(s) || self.is_typedef(s),
            _ => false,
        }
    }

    #[inline(never)]
    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            let span = self.peek_span();
            if self.eat_punct(Punct::LParen) {
                let mut args = Vec::new();
                if !self.peek().is_punct(Punct::RParen) {
                    loop {
                        args.push(self.assignment_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
                e = Expr::new(
                    ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                    span,
                );
            } else if self.eat_punct(Punct::LBracket) {
                let index = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = Expr::new(
                    ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                    span,
                );
            } else if self.eat_punct(Punct::Dot) {
                let field = self.expect_ident()?;
                e = Expr::new(
                    ExprKind::Member {
                        base: Box::new(e),
                        field,
                        arrow: false,
                    },
                    span,
                );
            } else if self.eat_punct(Punct::Arrow) {
                let field = self.expect_ident()?;
                e = Expr::new(
                    ExprKind::Member {
                        base: Box::new(e),
                        field,
                        arrow: true,
                    },
                    span,
                );
            } else if self.eat_punct(Punct::PlusPlus) {
                e = Expr::new(
                    ExprKind::Postfix {
                        operand: Box::new(e),
                        inc: true,
                    },
                    span,
                );
            } else if self.eat_punct(Punct::MinusMinus) {
                e = Expr::new(
                    ExprKind::Postfix {
                        operand: Box::new(e),
                        inc: false,
                    },
                    span,
                );
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        match self.bump() {
            TokenKind::Int(v, text) => Ok(Expr::new(ExprKind::IntLit(v, text.to_string()), span)),
            TokenKind::Float(v, text) => {
                Ok(Expr::new(ExprKind::FloatLit(v, text.to_string()), span))
            }
            TokenKind::Char(c) => Ok(Expr::new(ExprKind::CharLit(c), span)),
            TokenKind::Str(raw) => Ok(Expr::new(
                ExprKind::StrLit(unescape(raw).into_owned()),
                span,
            )),
            TokenKind::Ident(name) => {
                if is_keyword(name) {
                    return self.err(format!("unexpected keyword `{name}` in expression"));
                }
                let name_kind = if self.is_wildcard(name) {
                    ExprKind::Wildcard
                } else {
                    ExprKind::Ident
                };
                Ok(Expr::new(name_kind(name.to_string()), span))
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => self.err(format!("expected expression, found `{other}`")),
        }
    }
}

/// Best-effort constant evaluation for array dimensions and enum values.
fn const_eval(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v, _) => Some(*v),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => const_eval(operand).map(|v| -v),
        ExprKind::Binary { op, lhs, rhs } => {
            let l = const_eval(lhs)?;
            let r = const_eval(rhs)?;
            match op {
                BinaryOp::Add => Some(l + r),
                BinaryOp::Sub => Some(l - r),
                BinaryOp::Mul => Some(l * r),
                BinaryOp::Div => (r != 0).then(|| l / r),
                BinaryOp::Shl => Some(l << (r & 63)),
                BinaryOp::Shr => Some(l >> (r & 63)),
                BinaryOp::BitOr => Some(l | r),
                BinaryOp::BitAnd => Some(l & r),
                BinaryOp::BitXor => Some(l ^ r),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_function() {
        let tu = parse_translation_unit("void PILocalGet(void) { int x; x = 1 + 2 * 3; }", "t.c")
            .unwrap();
        let f = tu.function("PILocalGet").unwrap();
        assert!(f.is_handler_shaped());
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn assignment_right_associative() {
        let e = parse_expr("a = b = 1").unwrap();
        match e.kind {
            ExprKind::Assign { rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn flash_macro_call_forms() {
        let e = parse_expr("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA").unwrap();
        match e.kind {
            ExprKind::Assign { lhs, rhs, .. } => {
                let (callee, args) = lhs.as_call().unwrap();
                assert_eq!(callee, "HANDLER_GLOBALS");
                assert!(matches!(&args[0].kind, ExprKind::Member { .. }));
                assert_eq!(rhs.as_ident(), Some("LEN_NODATA"));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn if_else_chain() {
        let s = parse_stmt("if (a) { f(); } else if (b) g(); else h();").unwrap();
        match s.kind {
            StmtKind::If { els, .. } => {
                assert!(matches!(els.unwrap().kind, StmtKind::If { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn switch_statement() {
        let s =
            parse_stmt("switch (op) { case 1: f(); break; case 2: default: g(); break; }").unwrap();
        match s.kind {
            StmtKind::Switch { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert!(cases[0].value.is_some());
                assert!(cases[1].body.is_empty()); // fallthrough case
                assert!(cases[2].value.is_none());
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn loops() {
        assert!(matches!(
            parse_stmt("while (x) x--;").unwrap().kind,
            StmtKind::While { .. }
        ));
        assert!(matches!(
            parse_stmt("do { x--; } while (x);").unwrap().kind,
            StmtKind::DoWhile { .. }
        ));
        assert!(matches!(
            parse_stmt("for (i = 0; i < 10; i++) f(i);").unwrap().kind,
            StmtKind::For { .. }
        ));
        assert!(matches!(
            parse_stmt("for (int i = 0; i < 10; i++) f(i);")
                .unwrap()
                .kind,
            StmtKind::For { .. }
        ));
    }

    #[test]
    fn multi_declarator_splits() {
        let s = parse_stmt("int a, b = 2;").unwrap();
        match s.kind {
            StmtKind::Block(decls) => {
                assert_eq!(decls.len(), 2);
                assert!(matches!(&decls[1].kind, StmtKind::Decl(d) if d.init.is_some()));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn struct_definition_and_use() {
        let tu = parse_translation_unit(
            "struct Dir { unsigned state; unsigned vector[4]; };\n\
             struct Dir gDir;\n\
             void h(void) { struct Dir* d; d = &gDir; d->state = 1; }",
            "t.c",
        )
        .unwrap();
        assert_eq!(tu.items.len(), 3);
    }

    #[test]
    fn typedefs_enable_named_types() {
        let tu = parse_translation_unit(
            "typedef unsigned long DirEntry;\nvoid h(void) { DirEntry e; e = 0; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("h").unwrap();
        assert!(matches!(
            &f.body[0].kind,
            StmtKind::Decl(d) if d.ty == Type::Named("DirEntry".into())
        ));
    }

    #[test]
    fn enum_definition() {
        let tu = parse_translation_unit("enum State { IDLE, BUSY = 5, DONE };", "t.c").unwrap();
        match &tu.items[0] {
            Item::Decl(ExternalDecl::EnumDef { variants, .. }) => {
                assert_eq!(variants.len(), 3);
                assert_eq!(variants[1], ("BUSY".into(), Some(5)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        let e = parse_expr("(unsigned) sizeof(struct Dir)").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        // `(a) + b` is addition, not a cast.
        let e = parse_expr("(a) + b").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn ternary_and_comma() {
        let e = parse_expr("a ? b : c").unwrap();
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
        let e = parse_expr("(a = 1, b = 2)").unwrap();
        assert!(matches!(e.kind, ExprKind::Comma(..)));
    }

    #[test]
    fn address_of_and_deref() {
        let e = parse_expr("*p = &x").unwrap();
        match e.kind {
            ExprKind::Assign { lhs, rhs, .. } => {
                assert!(matches!(
                    lhs.kind,
                    ExprKind::Unary {
                        op: UnaryOp::Deref,
                        ..
                    }
                ));
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Unary {
                        op: UnaryOp::AddrOf,
                        ..
                    }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn goto_and_labels() {
        let tu = parse_translation_unit(
            "void f(void) { int x; retry: x = g(); if (!x) goto retry; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("f").unwrap();
        assert!(matches!(&f.body[1].kind, StmtKind::Label(l, _) if l == "retry"));
    }

    #[test]
    fn wildcard_parsing() {
        let (tokens, _) = Lexer::new("WAIT_FOR_DB_FULL(addr)").tokenize().unwrap();
        let mut wc = HashSet::new();
        wc.insert("addr".to_string());
        let mut p = Parser::with_wildcards(tokens, wc);
        let e = p.expr().unwrap();
        let (_, args) = e.as_call().unwrap();
        assert!(matches!(&args[0].kind, ExprKind::Wildcard(w) if w == "addr"));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_translation_unit("void f(void) { int ; }", "bad.c").unwrap_err();
        assert_eq!(err.file, "bad.c");
        assert!(err.span.line >= 1);
    }

    #[test]
    fn prototypes_vs_definitions() {
        let tu = parse_translation_unit("void f(void);\nvoid f(void) { }", "t.c").unwrap();
        assert!(matches!(&tu.items[0], Item::Decl(ExternalDecl::Proto(_))));
        assert!(matches!(&tu.items[1], Item::Function(_)));
    }

    #[test]
    fn float_literals_parse() {
        // The no-float checker must be able to see these, so they must parse.
        let tu = parse_translation_unit("void f(void) { float r; r = 0.5; r = r * 2.0; }", "t.c")
            .unwrap();
        assert_eq!(tu.functions().count(), 1);
    }

    #[test]
    fn compound_assignment_ops() {
        for op in ["+=", "-=", "|=", "&=", "^=", "<<=", ">>="] {
            let e = parse_expr(&format!("a {op} 1")).unwrap();
            assert!(
                matches!(e.kind, ExprKind::Assign { op: Some(_), .. }),
                "{op}"
            );
        }
    }

    #[test]
    fn const_eval_dimensions() {
        let tu =
            parse_translation_unit("void f(void) { int buf[4 * 2]; buf[0] = 0; }", "t.c").unwrap();
        let f = tu.function("f").unwrap();
        match &f.body[0].kind {
            StmtKind::Decl(d) => {
                assert_eq!(d.ty, Type::Array(Box::new(Type::int()), Some(8)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn non_ascii_string_literal_round_trips() {
        let e = parse_expr("p(\"café\")").unwrap();
        let (_, args) = e.as_call().unwrap();
        assert!(matches!(&args[0].kind, ExprKind::StrLit(s) if s == "café"));
        assert_eq!(crate::print_expr(&e), "p(\"café\")");
    }

    #[test]
    fn non_ascii_identifier_byte_names_the_character() {
        let err = parse_translation_unit("void f(void) { int é; }", "u.c").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!((err.span.line, err.span.col), (1, 20));
        assert_eq!(err.file, "u.c");
    }
}
