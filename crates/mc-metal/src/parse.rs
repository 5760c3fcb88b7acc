//! Parser for metal source text.
//!
//! Grammar (informal):
//!
//! ```text
//! program   := [ '{' raw-prologue '}' ] 'sm' IDENT '{' item* '}'
//! item      := 'decl' '{' class '}' IDENT (',' IDENT)* ';'
//!            | 'pat' IDENT '=' alts ';'
//!            | IDENT ':' rules ';'
//! alts      := fragment ('|' fragment)*
//! fragment  := '{' c-tokens '}' | IDENT            (named pattern ref)
//! rules     := rule ('|' rule)*
//! rule      := alts '==>' target
//! target    := IDENT [action] | action
//! action    := '{' (err|warn) '(' STRING ')' ';' ... '}'
//! ```
//!
//! Pattern fragments are parsed with the C parser of [`mc_ast`], with the
//! `decl`-declared names as wildcards — patterns are literally "written in
//! the base language".

use crate::lang::*;
use mc_ast::{unescape, Lexer, Parser as CParser, Punct, Span, Token, TokenKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An error produced while parsing a metal program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetalParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl fmt::Display for MetalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metal parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for MetalParseError {}

impl MetalProgram {
    /// Parses a metal program from source text.
    ///
    /// # Errors
    ///
    /// Returns [`MetalParseError`] on any syntax error, on references to
    /// undeclared states or named patterns, and on programs without states.
    pub fn parse(src: &str) -> Result<MetalProgram, MetalParseError> {
        // Extract a leading `{ raw prologue }` textually: its contents
        // (e.g. `#include "flash-includes.h"`) need not lex as C.
        let (prologue, rest) = split_prologue(src)?;
        let (tokens, _) = Lexer::new(rest).tokenize().map_err(|e| MetalParseError {
            message: e.message,
            span: e.span,
        })?;
        let mut p = MetalParser {
            tokens,
            pos: 0,
            wildcards: BTreeMap::new(),
            named: HashMap::new(),
        };
        let mut prog = p.program()?;
        prog.prologue = prologue;
        Ok(prog)
    }
}

struct MetalParser<'src> {
    /// Ends with [`TokenKind::Eof`]; `pos` never moves past it.
    tokens: Vec<Token<'src>>,
    pos: usize,
    wildcards: BTreeMap<String, TypeClass>,
    named: HashMap<String, Vec<Pattern>>,
}

/// Rules as collected by the first pass, before state-name resolution:
/// the rule's source span, its pattern alternatives, target, and actions.
type RawRules = Vec<(Span, Vec<Pattern>, RawTarget, Vec<Action>)>;

/// An unresolved rule target (states may be referenced before definition).
enum RawTarget {
    Stay,
    Stop,
    Name(String, Span),
}

impl<'src> MetalParser<'src> {
    fn peek(&self) -> TokenKind<'src> {
        self.tokens[self.pos].kind
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

    fn err<T>(&self, message: impl Into<String>) -> Result<T, MetalParseError> {
        Err(MetalParseError {
            message: message.into(),
            span: self.peek_span(),
        })
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), MetalParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found `{}`", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, MetalParseError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn program(&mut self) -> Result<MetalProgram, MetalParseError> {
        if !self.peek().is_kw("sm") {
            return self.err("expected `sm`");
        }
        self.bump();
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;

        // First pass collects raw items so states can forward-reference.
        let mut raw_states: Vec<(String, Span, RawRules)> = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            match self.peek() {
                TokenKind::Eof => return self.err("unexpected end of metal program"),
                TokenKind::Ident("decl") => {
                    self.bump();
                    self.parse_decl()?;
                }
                TokenKind::Ident("pat") => {
                    self.bump();
                    let pname = self.expect_ident()?;
                    self.expect_punct(Punct::Assign)?;
                    let pats = self.parse_alts()?;
                    self.expect_punct(Punct::Semi)?;
                    self.named.insert(pname, pats);
                }
                TokenKind::Ident(_) => {
                    let sspan = self.peek_span();
                    let sname = self.expect_ident()?;
                    self.expect_punct(Punct::Colon)?;
                    let rules = self.parse_rules()?;
                    self.expect_punct(Punct::Semi)?;
                    raw_states.push((sname, sspan, rules));
                }
                other => return self.err(format!("unexpected token `{other}` in sm body")),
            }
        }
        if raw_states.is_empty() {
            return self.err("metal program must define at least one state");
        }

        // Second pass: resolve state names.
        let ids: HashMap<String, StateId> = raw_states
            .iter()
            .enumerate()
            .map(|(i, (n, _, _))| (n.clone(), StateId(i)))
            .collect();
        let mut states = Vec::new();
        for (sname, sspan, rules) in raw_states {
            let mut resolved = Vec::new();
            for (rspan, patterns, raw_target, actions) in rules {
                let target = match raw_target {
                    RawTarget::Stay => RuleTarget::Stay,
                    RawTarget::Stop => RuleTarget::Stop,
                    RawTarget::Name(n, span) => match ids.get(&n) {
                        Some(id) => RuleTarget::Goto(*id),
                        None => {
                            return Err(MetalParseError {
                                message: format!("transition to undeclared state `{n}`"),
                                span,
                            })
                        }
                    },
                };
                resolved.push(Rule {
                    patterns,
                    target,
                    actions,
                    span: rspan,
                });
            }
            states.push(StateDef {
                name: sname,
                rules: resolved,
                span: sspan,
            });
        }
        let all_state = states.iter().position(|s| s.name == "all").map(StateId);
        Ok(MetalProgram {
            name,
            prologue: None,
            wildcards: std::mem::take(&mut self.wildcards),
            states,
            all_state,
        })
    }

    /// `decl { class } a, b, c ;` — registers wildcards.
    fn parse_decl(&mut self) -> Result<(), MetalParseError> {
        self.expect_punct(Punct::LBrace)?;
        let class_name = self.expect_ident()?;
        // Multi-word classes like `unsigned long` — consume extra idents.
        while matches!(self.peek(), TokenKind::Ident(_)) {
            self.bump();
        }
        self.expect_punct(Punct::RBrace)?;
        let class = match class_name.as_str() {
            "scalar" => TypeClass::Scalar,
            "unsigned" | "int" | "long" | "short" | "char" => TypeClass::Unsigned,
            "any" | "expr" => TypeClass::Any,
            other => {
                return self.err(format!("unknown wildcard class `{other}`"));
            }
        };
        loop {
            let name = self.expect_ident()?;
            self.wildcards.insert(name, class);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    /// Pattern alternatives: fragment ('|' fragment)*.
    fn parse_alts(&mut self) -> Result<Vec<Pattern>, MetalParseError> {
        let mut pats = Vec::new();
        loop {
            if self.peek().is_punct(Punct::LBrace) {
                pats.push(self.parse_fragment()?);
            } else if let TokenKind::Ident(name) = self.peek() {
                // Named pattern reference.
                match self.named.get(name) {
                    Some(expansion) => {
                        pats.extend(expansion.iter().cloned());
                        self.bump();
                    }
                    None => return self.err(format!("reference to undeclared pattern `{name}`")),
                }
            } else {
                return self.err(format!(
                    "expected `{{ pattern }}` or pattern name, found `{}`",
                    self.peek()
                ));
            }
            if !self.eat_punct(Punct::Pipe) {
                break;
            }
        }
        Ok(pats)
    }

    /// Parses one `{ c-fragment }` into a [`Pattern`].
    fn parse_fragment(&mut self) -> Result<Pattern, MetalParseError> {
        let open_span = self.peek_span();
        self.expect_punct(Punct::LBrace)?;
        // Collect tokens until the matching close brace.
        let mut depth = 1usize;
        let mut inner: Vec<Token> = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => {
                    return Err(MetalParseError {
                        message: "unterminated pattern fragment".into(),
                        span: open_span,
                    })
                }
                TokenKind::Punct(Punct::LBrace) => {
                    depth += 1;
                    inner.push(self.tokens[self.pos]);
                    self.bump();
                }
                TokenKind::Punct(Punct::RBrace) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        break;
                    }
                    inner.push(self.tokens[self.pos]);
                    self.bump();
                }
                _ => {
                    inner.push(self.tokens[self.pos]);
                    self.bump();
                }
            }
        }
        // Decide statement vs expression by trailing semicolon.
        let is_stmt = matches!(
            inner.last().map(|t| &t.kind),
            Some(TokenKind::Punct(Punct::Semi))
        );
        let mut toks = inner;
        toks.push(Token::new(TokenKind::Eof, open_span));
        let wildcard_names = self.wildcards.keys().cloned().collect();
        let mut cp = CParser::with_wildcards(toks, wildcard_names);
        if is_stmt {
            let stmt = cp.stmt().map_err(|e| MetalParseError {
                message: format!("in pattern fragment: {}", e.message),
                span: if e.span.line > 1 { e.span } else { open_span },
            })?;
            Ok(Pattern::new(PatternKind::Stmt(stmt)))
        } else {
            let expr = cp.expr().map_err(|e| MetalParseError {
                message: format!("in pattern fragment: {}", e.message),
                span: if e.span.line > 1 { e.span } else { open_span },
            })?;
            Ok(Pattern::new(PatternKind::Expr(expr)))
        }
    }

    /// Rules of one state. Unlike in `pat` definitions, a `|` here
    /// separates *rules*; to give a single rule several pattern
    /// alternatives, name them with `pat`.
    fn parse_rules(&mut self) -> Result<RawRules, MetalParseError> {
        let mut rules = Vec::new();
        loop {
            let rspan = self.peek_span();
            let patterns = self.parse_rule_atom()?;
            let (target, actions) = if self.peek().is_punct(Punct::FatArrow) {
                self.bump();
                self.parse_target()?
            } else {
                (RawTarget::Stay, Vec::new())
            };
            rules.push((rspan, patterns, target, actions));
            if !self.eat_punct(Punct::Pipe) {
                break;
            }
        }
        Ok(rules)
    }

    /// One pattern atom in rule position: a `{ fragment }` or a named
    /// pattern reference (which may expand to several alternatives).
    fn parse_rule_atom(&mut self) -> Result<Vec<Pattern>, MetalParseError> {
        if self.peek().is_punct(Punct::LBrace) {
            Ok(vec![self.parse_fragment()?])
        } else if let TokenKind::Ident(name) = self.peek() {
            match self.named.get(name) {
                Some(expansion) => {
                    let pats = expansion.clone();
                    self.bump();
                    Ok(pats)
                }
                None => self.err(format!("reference to undeclared pattern `{name}`")),
            }
        } else {
            self.err(format!(
                "expected `{{ pattern }}` or pattern name, found `{}`",
                self.peek()
            ))
        }
    }

    /// Target after `==>`: `stop`, a state name, an action block, or a
    /// state name followed by an action block.
    fn parse_target(&mut self) -> Result<(RawTarget, Vec<Action>), MetalParseError> {
        let mut target = RawTarget::Stay;
        if let TokenKind::Ident(name) = self.peek() {
            let span = self.peek_span();
            self.bump();
            target = if name == "stop" {
                RawTarget::Stop
            } else {
                RawTarget::Name(name.to_string(), span)
            };
        }
        let actions = if self.peek().is_punct(Punct::LBrace) {
            self.parse_actions()?
        } else {
            Vec::new()
        };
        if matches!(target, RawTarget::Stay) && actions.is_empty() {
            return self.err("expected state name or `{ action }` after `==>`");
        }
        Ok((target, actions))
    }

    /// `{ err("msg"); warn("msg"); }`
    fn parse_actions(&mut self) -> Result<Vec<Action>, MetalParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut actions = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let func = self.expect_ident()?;
            self.expect_punct(Punct::LParen)?;
            let msg = match self.bump() {
                TokenKind::Str(raw) => unescape(raw).into_owned(),
                other => return self.err(format!("expected string literal, found `{other}`")),
            };
            // Optional extra arguments are allowed and ignored (the paper's
            // err() takes printf-style arguments; our messages interpolate
            // wildcard bindings with %name instead).
            while self.eat_punct(Punct::Comma) {
                // skip one balanced argument expression (tokens until , or ))
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        TokenKind::Punct(Punct::LParen) => {
                            depth += 1;
                            self.bump();
                        }
                        TokenKind::Punct(Punct::RParen) if depth == 0 => break,
                        TokenKind::Punct(Punct::RParen) => {
                            depth -= 1;
                            self.bump();
                        }
                        TokenKind::Punct(Punct::Comma) if depth == 0 => break,
                        TokenKind::Eof => return self.err("unterminated action argument"),
                        _ => {
                            self.bump();
                        }
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::Semi)?;
            match func.as_str() {
                "err" => actions.push(Action::Err(msg)),
                "warn" => actions.push(Action::Warn(msg)),
                other => {
                    return self.err(format!("unknown action `{other}` (supported: err, warn)"))
                }
            }
        }
        Ok(actions)
    }
}

/// Splits a leading raw `{ ... }` prologue off the source text, returning
/// `(prologue, rest)`. Brace counting ignores braces inside string and char
/// literals and comments.
fn split_prologue(src: &str) -> Result<(Option<String>, &str), MetalParseError> {
    let trimmed = src.trim_start();
    if !trimmed.starts_with('{') {
        return Ok((None, src));
    }
    let offset = src.len() - trimmed.len();
    let bytes = src.as_bytes();
    let mut depth = 0usize;
    let mut i = offset;
    let mut in_str = false;
    let mut in_chr = false;
    let mut in_line_comment = false;
    let mut in_block_comment = false;
    while i < bytes.len() {
        let c = bytes[i];
        if in_line_comment {
            if c == b'\n' {
                in_line_comment = false;
            }
        } else if in_block_comment {
            if c == b'*' && bytes.get(i + 1) == Some(&b'/') {
                in_block_comment = false;
                i += 1;
            }
        } else if in_str {
            if c == b'\\' {
                i += 1;
            } else if c == b'"' {
                in_str = false;
            }
        } else if in_chr {
            if c == b'\\' {
                i += 1;
            } else if c == b'\'' {
                in_chr = false;
            }
        } else {
            match c {
                b'"' => in_str = true,
                b'\'' => in_chr = true,
                b'/' if bytes.get(i + 1) == Some(&b'/') => in_line_comment = true,
                b'/' if bytes.get(i + 1) == Some(&b'*') => in_block_comment = true,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let prologue = src[offset + 1..i].trim().to_string();
                        return Ok((Some(prologue), &src[i + 1..]));
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    Err(MetalParseError {
        message: "unterminated prologue block".into(),
        span: Span::new(1, 1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
        { #include "flash-includes.h" }
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==>
                    { err("Buffer not synchronized"); }
            ;
        }
    "#;

    #[test]
    fn parses_figure_2() {
        let sm = MetalProgram::parse(FIG2).unwrap();
        assert_eq!(sm.name, "wait_for_db");
        assert_eq!(sm.wildcards.len(), 2);
        assert_eq!(sm.states.len(), 1);
        assert_eq!(sm.states[0].name, "start");
        assert_eq!(sm.states[0].rules.len(), 2);
        assert_eq!(sm.states[0].rules[0].target, RuleTarget::Stop);
        assert_eq!(
            sm.states[0].rules[1].actions,
            vec![Action::Err("Buffer not synchronized".into())]
        );
    }

    #[test]
    fn prologue_recorded() {
        let sm = MetalProgram::parse(FIG2).unwrap();
        assert!(sm.prologue.unwrap().contains("include"));
    }

    const FIG3: &str = r#"
        sm msglen_check {
            pat zero_assign =
                { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
            pat nonzero_assign =
                { HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
              | { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;
            decl { unsigned } keep, swap, wait, dec, null, type;
            pat send_data =
                { PI_SEND(F_DATA, keep, swap, wait, dec, null) }
              | { IO_SEND(F_DATA, keep, swap, wait, dec, null) }
              | { NI_SEND(type, F_DATA, keep, wait, dec, null) } ;
            pat send_nodata =
                { PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
              | { IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
              | { NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;
            all:
                zero_assign ==> zero_len
              | nonzero_assign ==> nonzero_len
            ;
            zero_len:
                send_data ==> { err("data send, zero len"); } ;
            nonzero_len:
                send_nodata ==> { err("nodata send, nonzero len"); } ;
        }
    "#;

    #[test]
    fn parses_figure_3() {
        let sm = MetalProgram::parse(FIG3).unwrap();
        assert_eq!(sm.name, "msglen_check");
        assert_eq!(sm.states.len(), 3);
        assert!(sm.all_state.is_some());
        // Figure 3 "starts in the special state all".
        assert_eq!(sm.states[sm.start_state().0].name, "all");
        // named patterns expanded: all-state rule 1 has 1 pattern, rules of
        // zero_len expanded send_data into 3 alternatives.
        let zero_len = &sm.states[sm.state_by_name("zero_len").unwrap().0];
        assert_eq!(zero_len.rules[0].patterns.len(), 3);
    }

    #[test]
    fn rejects_undeclared_state() {
        let err = MetalProgram::parse("sm x { start: { f(); } ==> nowhere ; }").unwrap_err();
        assert!(err.message.contains("undeclared state"));
    }

    #[test]
    fn rejects_undeclared_pattern() {
        let err = MetalProgram::parse("sm x { start: ghost ==> stop ; }").unwrap_err();
        assert!(err.message.contains("undeclared pattern"));
    }

    #[test]
    fn rejects_empty_program() {
        assert!(MetalProgram::parse("sm x { }").is_err());
    }

    #[test]
    fn rejects_unknown_action() {
        let err =
            MetalProgram::parse("sm x { start: { f(); } ==> { abort(\"m\"); } ; }").unwrap_err();
        assert!(err.message.contains("unknown action"));
    }

    #[test]
    fn rejects_bad_fragment() {
        let err = MetalProgram::parse("sm x { start: { f(+; } ==> stop ; }").unwrap_err();
        assert!(err.message.contains("pattern fragment"));
    }

    #[test]
    fn rule_without_arrow_stays() {
        let sm = MetalProgram::parse("sm x { start: { f(); } | { g(); } ==> stop ; }").unwrap();
        assert_eq!(sm.states[0].rules.len(), 2);
        assert_eq!(sm.states[0].rules[0].target, RuleTarget::Stay);
        assert_eq!(sm.states[0].rules[1].target, RuleTarget::Stop);
    }

    #[test]
    fn target_with_state_and_action() {
        let sm = MetalProgram::parse(
            "sm x { start: { f(); } ==> bad { warn(\"saw f\"); } ; bad: { g(); } ==> stop ; }",
        )
        .unwrap();
        let r = &sm.states[0].rules[0];
        assert_eq!(r.target, RuleTarget::Goto(StateId(1)));
        assert_eq!(r.actions, vec![Action::Warn("saw f".into())]);
    }

    #[test]
    fn expression_fragments_without_semicolon() {
        let sm = MetalProgram::parse("sm x { start: { a = b } ==> stop ; }").unwrap();
        assert!(matches!(
            sm.states[0].rules[0].patterns[0].kind,
            PatternKind::Expr(_)
        ));
    }

    #[test]
    fn statement_fragments_with_semicolon() {
        let sm = MetalProgram::parse("sm x { start: { f(); } ==> stop ; }").unwrap();
        assert!(matches!(
            sm.states[0].rules[0].patterns[0].kind,
            PatternKind::Stmt(_)
        ));
    }
}
