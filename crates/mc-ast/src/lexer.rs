//! Hand-written lexer for the C subset.
//!
//! Preprocessor directives are not expanded: `#include` and friends are
//! skipped (recorded as raw lines by the parser when needed), and FLASH
//! macros such as `WAIT_FOR_DB_FULL(...)` are lexed as ordinary identifiers
//! so that they reach the AST as call expressions — exactly the view the
//! paper's checkers pattern-match against.

use crate::token::{unescape_char, Punct, Span, Token, TokenKind};
use std::fmt;

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Where the offending character is.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Streaming lexer over source text.
///
/// Tokens borrow their text from the source, so lexing allocates only the
/// token vector and the preprocessor lines. Text is sliced at character
/// boundaries, so non-ASCII literals keep their UTF-8 characters; spans
/// count bytes.
#[derive(Debug)]
pub struct Lexer<'src> {
    text: &'src str,
    src: &'src [u8],
    pos: usize,
    line: u32,
    /// Byte offset of the current line's first byte; a column is the
    /// 1-based byte distance from it.
    line_start: usize,
    /// Preprocessor lines encountered (e.g. `#include "flash.h"`), in order.
    pub preprocessor_lines: Vec<String>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            preprocessor_lines: Vec::new(),
        }
    }

    /// Lexes the entire input into a token vector terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on malformed literals or unknown characters.
    pub fn tokenize(mut self) -> Result<(Vec<Token<'src>>, Vec<String>), LexError> {
        // Protocol code runs about four source bytes per token.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            let tok = self.next_token().map_err(|e| *e)?;
            out.push(tok);
            if tok.kind == TokenKind::Eof {
                break;
            }
        }
        Ok((out, self.preprocessor_lines))
    }

    /// The byte at `pos + n`; NUL past the end (a NUL byte in the source
    /// therefore ends it too).
    fn peek_at(&self, n: usize) -> u8 {
        self.src.get(self.pos + n).copied().unwrap_or(0)
    }

    fn peek(&self) -> u8 {
        self.peek_at(0)
    }

    /// Consumes the newline at `pos`.
    fn newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.line_start = self.pos;
    }

    /// Consumes one character (a whole UTF-8 sequence) and returns it.
    fn bump_char(&mut self) -> char {
        let c = self
            .text
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or('\0');
        if c == '\n' {
            self.newline();
        } else {
            self.pos += c.len_utf8();
        }
        c
    }

    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) {
        let rest = &self.src[self.pos..];
        self.pos += rest.iter().position(|&b| !pred(b)).unwrap_or(rest.len());
    }

    fn span(&self) -> Span {
        Span::new(self.line, (self.pos - self.line_start + 1) as u32)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                b'\n' => self.newline(),
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek_at(1) == b'/' => self.eat_while(|b| b != b'\n' && b != 0),
                b'/' if self.peek_at(1) == b'*' => {
                    let start = self.span();
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            0 => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    span: start,
                                })
                            }
                            b'*' if self.peek_at(1) == b'/' => {
                                self.pos += 2;
                                break;
                            }
                            b'\n' => self.newline(),
                            _ => self.pos += 1,
                        }
                    }
                }
                b'#' if self.pos == self.line_start || self.at_line_start() => self.directive(),
                _ => return Ok(()),
            }
        }
    }

    /// Records the preprocessor directive at `pos` as one raw line
    /// (backslash continuations joined) and skips it.
    fn directive(&mut self) {
        let mut text = String::new();
        let mut from = self.pos;
        loop {
            match self.peek() {
                0 | b'\n' => break,
                b'\\' if self.peek_at(1) == b'\n' => {
                    text.push_str(&self.text[from..self.pos]);
                    self.pos += 1;
                    self.newline();
                    from = self.pos;
                }
                _ => self.pos += 1,
            }
        }
        text.push_str(&self.text[from..self.pos]);
        if self.peek() == b'\n' {
            self.newline();
        }
        self.preprocessor_lines.push(text);
    }

    fn at_line_start(&self) -> bool {
        self.src[self.line_start..self.pos]
            .iter()
            .all(|&b| b == b' ' || b == b'\t')
    }

    /// The next token. The error is boxed so the per-token `Result` stays
    /// token-sized: returning a bare `LexError` here made the whole loop
    /// several times slower.
    fn next_token(&mut self) -> Result<Token<'src>, Box<LexError>> {
        self.skip_trivia().map_err(Box::new)?;
        let span = self.span();
        let start = self.pos;
        let kind = match self.peek() {
            0 => TokenKind::Eof,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                self.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                TokenKind::Ident(&self.text[start..self.pos])
            }
            b'0'..=b'9' => self.lex_number(span).map_err(Box::new)?,
            b'"' => self.lex_string(span).map_err(Box::new)?,
            b'\'' => self.lex_char(span).map_err(Box::new)?,
            _ => match Punct::lex(&self.src[self.pos..]) {
                Some(p) => {
                    self.pos += p.as_str().len();
                    TokenKind::Punct(p)
                }
                None => return Err(Box::new(self.unexpected(span))),
            },
        };
        Ok(Token::new(kind, span))
    }

    fn lex_number(&mut self, span: Span) -> Result<TokenKind<'src>, LexError> {
        let start = self.pos;
        if self.peek() == b'0' && matches!(self.peek_at(1), b'x' | b'X') {
            self.pos += 2;
            self.eat_while(|b| b.is_ascii_hexdigit());
            let value =
                i64::from_str_radix(&self.text[start + 2..self.pos], 16).map_err(|_| LexError {
                    message: format!("invalid hex literal `{}`", &self.text[start..self.pos]),
                    span,
                })?;
            self.eat_int_suffix();
            return Ok(TokenKind::Int(value, &self.text[start..self.pos]));
        }
        self.eat_while(|b| b.is_ascii_digit());
        let (c1, c2) = (self.peek(), self.peek_at(1));
        let is_float = c1 == b'.' && c2.is_ascii_digit()
            || c1 == b'e'
            || c1 == b'E'
            || (c1 == b'.' && !c2.is_ascii_alphanumeric() && c2 != b'.');
        if is_float || c1 == b'f' || c1 == b'F' {
            if self.peek() == b'.' {
                self.pos += 1;
                self.eat_while(|b| b.is_ascii_digit());
            }
            if matches!(self.peek(), b'e' | b'E') {
                self.pos += 1;
                if matches!(self.peek(), b'+' | b'-') {
                    self.pos += 1;
                }
                self.eat_while(|b| b.is_ascii_digit());
            }
            let text = &self.text[start..self.pos];
            if matches!(self.peek(), b'f' | b'F') {
                self.pos += 1;
            }
            let value: f64 = text.parse().map_err(|_| LexError {
                message: format!("invalid float literal `{text}`"),
                span,
            })?;
            return Ok(TokenKind::Float(value, &self.text[start..self.pos]));
        }
        let text = &self.text[start..self.pos];
        let value: i64 = text.parse().map_err(|_| LexError {
            message: format!("invalid integer literal `{text}`"),
            span,
        })?;
        self.eat_int_suffix();
        Ok(TokenKind::Int(value, &self.text[start..self.pos]))
    }

    /// The error for a byte no token starts with, naming the whole
    /// character. Out of line, like the boxing in `next_token`, to keep
    /// the hot loop small.
    #[cold]
    #[inline(never)]
    fn unexpected(&mut self, span: Span) -> LexError {
        LexError {
            message: format!("unexpected character `{}`", self.bump_char()),
            span,
        }
    }

    fn eat_int_suffix(&mut self) {
        self.eat_while(|b| matches!(b, b'u' | b'U' | b'l' | b'L'));
    }

    /// Lexes a string literal to its raw text between the quotes; escapes
    /// are applied when the parser builds the literal.
    fn lex_string(&mut self, span: Span) -> Result<TokenKind<'src>, LexError> {
        self.pos += 1; // opening quote
        let start = self.pos;
        loop {
            match self.peek() {
                0 | b'\n' => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        span,
                    })
                }
                b'"' => break,
                b'\\' => {
                    // Skip the escaped byte (whatever it is: a NUL or a
                    // newline is part of the literal); the raw text keeps
                    // both.
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'\n') => self.newline(),
                        Some(_) => self.pos += 1,
                        None => {}
                    }
                }
                _ => self.pos += 1,
            }
        }
        let raw = &self.text[start..self.pos];
        self.pos += 1; // closing quote
        Ok(TokenKind::Str(raw))
    }

    fn lex_char(&mut self, span: Span) -> Result<TokenKind<'src>, LexError> {
        let unterminated = || LexError {
            message: "unterminated char literal".into(),
            span,
        };
        self.pos += 1; // opening quote
        let c = match self.peek() {
            b'\\' => {
                self.pos += 1;
                if self.pos >= self.src.len() {
                    return Err(unterminated());
                }
                unescape_char(self.bump_char())
            }
            0 => return Err(unterminated()),
            _ => self.bump_char(),
        };
        if self.peek() != b'\'' {
            return Err(unterminated());
        }
        self.pos += 1;
        Ok(TokenKind::Char(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (toks, _) = Lexer::new(src).tokenize().unwrap();
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_identifiers_and_ints() {
        let k = kinds("foo bar_1 42 0x2a");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("foo"),
                TokenKind::Ident("bar_1"),
                TokenKind::Int(42, "42"),
                TokenKind::Int(42, "0x2a"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_floats() {
        let k = kinds("1.5 2e3 7.0f");
        assert!(matches!(k[0], TokenKind::Float(v, _) if v == 1.5));
        assert!(matches!(k[1], TokenKind::Float(v, _) if v == 2000.0));
        assert!(matches!(k[2], TokenKind::Float(v, _) if v == 7.0));
    }

    #[test]
    fn lex_operators_longest_match() {
        let k = kinds("a <<= b == c << d");
        assert!(k.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(k.contains(&TokenKind::Punct(Punct::EqEq)));
        assert!(k.contains(&TokenKind::Punct(Punct::Shl)));
    }

    #[test]
    fn lex_strings_and_chars() {
        let k = kinds(r#""hello\n" 'x' '\t'"#);
        assert_eq!(k[0], TokenKind::Str(r"hello\n"));
        assert_eq!(k[0].to_string(), "\"hello\n\"");
        assert_eq!(k[1], TokenKind::Char('x'));
        assert_eq!(k[2], TokenKind::Char('\t'));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // line\n b /* block\n comment */ c");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn preprocessor_lines_recorded() {
        let (toks, pp) = Lexer::new("#include \"flash.h\"\nint x;")
            .tokenize()
            .unwrap();
        assert_eq!(pp, vec!["#include \"flash.h\"".to_string()]);
        assert_eq!(toks[0].kind, TokenKind::Ident("int"));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let (toks, _) = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 3));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::new("\"oops").tokenize().is_err());
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::new("/* never closed").tokenize().is_err());
    }

    #[test]
    fn unknown_character_is_error() {
        assert!(Lexer::new("int x = @;").tokenize().is_err());
    }

    #[test]
    fn int_suffixes_are_consumed() {
        let k = kinds("10UL 0xffU");
        assert_eq!(k[0], TokenKind::Int(10, "10UL"));
        assert!(matches!(&k[1], TokenKind::Int(255, _)));
    }

    #[test]
    fn non_ascii_literals_keep_their_characters() {
        let k = kinds("p(\"café\") 'é' \"日本\\é\"");
        assert_eq!(k[2], TokenKind::Str("café"));
        assert_eq!(k[4], TokenKind::Char('é'));
        assert_eq!(k[5], TokenKind::Str("日本\\é"));
        assert_eq!(k[5].to_string(), "\"日本é\"");
    }

    #[test]
    fn unexpected_non_ascii_character_is_named() {
        let err = Lexer::new("int é;").tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Span::new(1, 5));
    }

    #[test]
    fn columns_count_bytes_after_multibyte_text() {
        let (toks, _) = Lexer::new("\"é\" x\n/* ü\n */ y").tokenize().unwrap();
        assert_eq!(toks[1].span, Span::new(1, 6));
        assert_eq!(toks[2].span, Span::new(3, 5));
    }

    #[test]
    fn escaped_newlines_and_continuations_advance_lines() {
        let (toks, pp) = Lexer::new("#define A \\\n  1\n\"a\\\nb\" z")
            .tokenize()
            .unwrap();
        assert_eq!(pp, vec!["#define A   1".to_string()]);
        assert_eq!(toks[0].kind, TokenKind::Str("a\\\nb"));
        assert_eq!(toks[1].span, Span::new(4, 4));
    }
}
