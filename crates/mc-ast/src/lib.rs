//! # mc-ast
//!
//! Lexer, parser, AST, and pretty-printer for the C subset that FLASH
//! protocol code is written in.
//!
//! This crate is the front end of the `flash-mc` workspace: everything the
//! meta-level-compilation framework does — pattern matching, control-flow
//! graph construction, checking — happens over the [`ast`] defined here.
//! The subset covers the constructs that appear in FLASH cache-coherence
//! protocol handlers (and that the paper's checkers inspect): function
//! definitions, the full C statement set, expression forms including
//! function-like macro invocations such as `WAIT_FOR_DB_FULL(addr)`,
//! struct/array/pointer types, and floating-point types (so the
//! execution-restriction checker can reject them).
//!
//! # Example
//!
//! ```
//! use mc_ast::parse_translation_unit;
//!
//! let src = r#"
//!     void NILocalGet(void) {
//!         HANDLER_DEFS();
//!         HANDLER_PROLOGUE();
//!         if (len > 0) {
//!             WAIT_FOR_DB_FULL(addr);
//!         }
//!     }
//! "#;
//! let tu = parse_translation_unit(src, "nilocalget.c")?;
//! assert_eq!(tu.functions().count(), 1);
//! # Ok::<(), mc_ast::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod fingerprint;
pub mod flash;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::{
    BinaryOp, Declaration, Expr, ExprKind, ExternalDecl, Function, Initializer, Item, Param, Stmt,
    StmtKind, StorageClass, StructDef, SwitchCase, TranslationUnit, Type, UnaryOp,
};
pub use fingerprint::{fnv1a, Fingerprint, FnFingerprint, Fnv1a};
pub use lexer::{LexError, Lexer};
pub use parser::{parse_expr, parse_stmt, parse_translation_unit, ParseError, Parser};
pub use printer::{print_expr, print_stmt, print_translation_unit};
pub use token::{unescape, Punct, Span, Token, TokenKind};
pub use visit::{walk_expr, walk_function, walk_stmt, Visitor};
