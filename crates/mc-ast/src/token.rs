//! Tokens and source spans.

use mc_json::{FromJson, Json, JsonError, ToJson};
use std::borrow::Cow;
use std::fmt;

/// A location range in a source file.
///
/// Spans are attached to every AST node so that checker reports can point at
/// the exact line of protocol code that violates a rule — the paper stresses
/// that MC checkers "exactly locate errors" that would otherwise take days of
/// debugging to find.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Span {
    /// 1-based line of the first token.
    pub line: u32,
    /// 1-based column of the first token.
    pub col: u32,
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        mc_json::object(vec![
            ("line", self.line.to_json()),
            ("col", self.col.to_json()),
        ])
    }
}

impl FromJson for Span {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Span {
            line: mc_json::field(v, "line")?,
            col: mc_json::field(v, "col")?,
        })
    }
}

impl Span {
    /// Creates a span at the given line and column (both 1-based).
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A punctuation or operator token.
///
/// The lexer picks the variant with one `match` on the source bytes
/// (longest match first); [`Punct::as_str`] gives the spelling back for
/// messages and for the metal parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punct {
    /// `<<=`
    ShlEq,
    /// `>>=`
    ShrEq,
    /// `...`
    Ellipsis,
    /// `==>`, the metal transition arrow (not C: the metal parser reuses
    /// this lexer).
    FatArrow,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `%=`
    PercentEq,
    /// `&=`
    AmpEq,
    /// `|=`
    PipeEq,
    /// `^=`
    CaretEq,
    /// `->`
    Arrow,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Assign,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `!`
    Not,
    /// `~`
    Tilde,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl Punct {
    /// The token's spelling, e.g. `"<<="`.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            ShlEq => "<<=",
            ShrEq => ">>=",
            Ellipsis => "...",
            FatArrow => "==>",
            EqEq => "==",
            NotEq => "!=",
            Le => "<=",
            Ge => ">=",
            AndAnd => "&&",
            OrOr => "||",
            Shl => "<<",
            Shr => ">>",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            Arrow => "->",
            PlusPlus => "++",
            MinusMinus => "--",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Assign => "=",
            Lt => "<",
            Gt => ">",
            Not => "!",
            Tilde => "~",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Question => "?",
            Colon => ":",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
        }
    }

    /// The longest punctuation token at the start of `bytes`, or `None`
    /// if `bytes` does not start with one.
    pub fn lex(bytes: &[u8]) -> Option<Punct> {
        use Punct::*;
        let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
        Some(match (at(0), at(1), at(2)) {
            (b'<', b'<', b'=') => ShlEq,
            (b'>', b'>', b'=') => ShrEq,
            (b'.', b'.', b'.') => Ellipsis,
            (b'=', b'=', b'>') => FatArrow,
            (b'=', b'=', _) => EqEq,
            (b'!', b'=', _) => NotEq,
            (b'<', b'=', _) => Le,
            (b'>', b'=', _) => Ge,
            (b'&', b'&', _) => AndAnd,
            (b'|', b'|', _) => OrOr,
            (b'<', b'<', _) => Shl,
            (b'>', b'>', _) => Shr,
            (b'+', b'=', _) => PlusEq,
            (b'-', b'=', _) => MinusEq,
            (b'*', b'=', _) => StarEq,
            (b'/', b'=', _) => SlashEq,
            (b'%', b'=', _) => PercentEq,
            (b'&', b'=', _) => AmpEq,
            (b'|', b'=', _) => PipeEq,
            (b'^', b'=', _) => CaretEq,
            (b'-', b'>', _) => Arrow,
            (b'+', b'+', _) => PlusPlus,
            (b'-', b'-', _) => MinusMinus,
            (b'+', _, _) => Plus,
            (b'-', _, _) => Minus,
            (b'*', _, _) => Star,
            (b'/', _, _) => Slash,
            (b'%', _, _) => Percent,
            (b'=', _, _) => Assign,
            (b'<', _, _) => Lt,
            (b'>', _, _) => Gt,
            (b'!', _, _) => Not,
            (b'~', _, _) => Tilde,
            (b'&', _, _) => Amp,
            (b'|', _, _) => Pipe,
            (b'^', _, _) => Caret,
            (b'?', _, _) => Question,
            (b':', _, _) => Colon,
            (b';', _, _) => Semi,
            (b',', _, _) => Comma,
            (b'.', _, _) => Dot,
            (b'(', _, _) => LParen,
            (b')', _, _) => RParen,
            (b'[', _, _) => LBracket,
            (b']', _, _) => RBracket,
            (b'{', _, _) => LBrace,
            (b'}', _, _) => RBrace,
            _ => return None,
        })
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexical token. Text is borrowed from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword-candidate (keywords are distinguished by the
    /// parser via `is_keyword` helpers).
    Ident(&'src str),
    /// Integer literal. The original text (suffix included) is kept for
    /// exact re-printing of hex constants such as `0x8000`.
    Int(i64, &'src str),
    /// Floating-point literal (disallowed by FLASH rules, but the lexer must
    /// accept it so the execution-restriction checker can flag it), with
    /// its source text.
    Float(f64, &'src str),
    /// Character literal, e.g. `'a'`.
    Char(char),
    /// String literal: the source text between the quotes, escapes not yet
    /// applied (see [`unescape`]).
    Str(&'src str),
    /// Punctuation or operator, e.g. `==`, `{`.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl<'src> TokenKind<'src> {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&'src str> {
        match *self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if this token is the given punctuation.
    pub fn is_punct(&self, p: Punct) -> bool {
        *self == TokenKind::Punct(p)
    }

    /// Returns `true` if this token is the given keyword/identifier.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(*self, TokenKind::Ident(s) if s == kw)
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(_, text) => write!(f, "{text}"),
            TokenKind::Float(_, text) => write!(f, "{text}"),
            TokenKind::Char(c) => write!(f, "'{c}'"),
            TokenKind::Str(raw) => write!(f, "\"{}\"", unescape(raw)),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// What the token is.
    pub kind: TokenKind<'src>,
    /// Where the token starts.
    pub span: Span,
}

impl<'src> Token<'src> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'src>, span: Span) -> Self {
        Token { kind, span }
    }
}

/// The value of one escape: the character after a backslash.
pub(crate) fn unescape_char(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

/// Applies a string literal's escapes (`\n`, `\t`, `\r`, `\0`; any other
/// escaped character stands for itself). Borrows when there are none.
pub fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => chars.next().map_or('\0', unescape_char),
            c => c,
        });
    }
    Cow::Owned(out)
}

/// The C keywords recognized by the parser.
///
/// `metal` wildcard declarations extend this set on the pattern-parsing side
/// only; the core language set is fixed.
pub const KEYWORDS: &[&str] = &[
    "void", "int", "char", "long", "short", "unsigned", "signed", "float", "double", "struct",
    "union", "enum", "typedef", "static", "extern", "const", "volatile", "inline", "register",
    "if", "else", "while", "do", "for", "switch", "case", "default", "break", "continue", "return",
    "goto", "sizeof",
];

/// Returns `true` if `s` is a reserved C keyword in this subset (one of
/// [`KEYWORDS`]).
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "void"
            | "int"
            | "char"
            | "long"
            | "short"
            | "unsigned"
            | "signed"
            | "float"
            | "double"
            | "struct"
            | "union"
            | "enum"
            | "typedef"
            | "static"
            | "extern"
            | "const"
            | "volatile"
            | "inline"
            | "register"
            | "if"
            | "else"
            | "while"
            | "do"
            | "for"
            | "switch"
            | "case"
            | "default"
            | "break"
            | "continue"
            | "return"
            | "goto"
            | "sizeof"
    )
}

/// Returns `true` if `s` starts a type in this subset (type-specifier
/// keywords; typedef names are tracked separately by the parser).
pub fn is_type_keyword(s: &str) -> bool {
    matches!(
        s,
        "void"
            | "int"
            | "char"
            | "long"
            | "short"
            | "unsigned"
            | "signed"
            | "float"
            | "double"
            | "struct"
            | "union"
            | "enum"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
    }

    #[test]
    fn keyword_classification() {
        assert!(is_keyword("while"));
        assert!(!is_keyword("WAIT_FOR_DB_FULL"));
        assert!(!is_keyword("whilex"));
        assert!(KEYWORDS.iter().all(|k| is_keyword(k)));
        assert!(is_type_keyword("unsigned"));
        assert!(!is_type_keyword("return"));
    }

    #[test]
    fn token_kind_helpers() {
        let t = TokenKind::Punct(Punct::EqEq);
        assert!(t.is_punct(Punct::EqEq));
        assert!(!t.is_punct(Punct::Assign));
        let id = TokenKind::Ident("foo");
        assert_eq!(id.as_ident(), Some("foo"));
        assert!(id.is_kw("foo"));
    }

    #[test]
    fn token_display_roundtrip() {
        assert_eq!(TokenKind::Int(255, "0xff").to_string(), "0xff");
        assert_eq!(TokenKind::Str("hi").to_string(), "\"hi\"");
        assert_eq!(TokenKind::Str(r"a\tb").to_string(), "\"a\tb\"");
    }

    #[test]
    fn punct_lexes_every_spelling_back_to_itself() {
        use Punct::*;
        let all = [
            ShlEq, ShrEq, Ellipsis, FatArrow, EqEq, NotEq, Le, Ge, AndAnd, OrOr, Shl, Shr, PlusEq,
            MinusEq, StarEq, SlashEq, PercentEq, AmpEq, PipeEq, CaretEq, Arrow, PlusPlus,
            MinusMinus, Plus, Minus, Star, Slash, Percent, Assign, Lt, Gt, Not, Tilde, Amp, Pipe,
            Caret, Question, Colon, Semi, Comma, Dot, LParen, RParen, LBracket, RBracket, LBrace,
            RBrace,
        ];
        for p in all {
            assert_eq!(Punct::lex(p.as_str().as_bytes()), Some(p), "{p}");
            // Longest match: a trailing space never extends a token.
            assert_eq!(Punct::lex(format!("{p} ").as_bytes()), Some(p), "{p}");
        }
        assert_eq!(Punct::lex(b".."), Some(Dot));
        assert_eq!(Punct::lex(b"@"), None);
        assert_eq!(Punct::lex(b""), None);
    }

    #[test]
    fn unescape_borrows_plain_text() {
        assert!(matches!(unescape("plain"), Cow::Borrowed("plain")));
        assert_eq!(unescape(r"a\n\'\\é"), "a\n'\\é");
    }
}
