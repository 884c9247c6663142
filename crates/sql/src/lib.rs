//! SQL front-end for AutoIndex.
//!
//! This crate provides everything AutoIndex needs to understand a workload
//! query *textually and structurally*:
//!
//! * [`lexer`] — a hand-written, streaming SQL tokenizer whose tokens
//!   borrow the statement text (no allocation per token).
//! * [`ast`] — the abstract syntax tree for the SQL subset AutoIndex
//!   analyses (`SELECT` / `INSERT` / `UPDATE` / `DELETE` with joins,
//!   subqueries, boolean predicate trees, `GROUP BY` / `ORDER BY`).
//! * [`parser`] — a recursive-descent parser pulling from the tokenizer
//!   with one token of look-ahead; it allocates what the AST owns.
//! * [`predicate`] — boolean predicate normalisation: negation push-down
//!   (NNF) and *Disjunctive Normal Form* rewriting, which §IV-A of the paper
//!   uses to unify equivalent predicate expressions before candidate index
//!   generation.
//! * [`mod@fingerprint`] — `SQL2Template` support: replacing literals with
//!   placeholders so that queries differing only in constants map to the
//!   same template; one walk over the tokenizer writes the text or, in
//!   [`scan_fingerprint`], folds it into the same hash without allocating;
//!   a template store numbers the templates it admits with [`TemplateId`]s.
//!
//! The subset is deliberately scoped to what an index advisor consumes:
//! which columns appear in which clause, with which operators and
//! selectivity-relevant shapes. It is not a general-purpose SQL engine.
//!
//! # Example
//!
//! ```
//! use autoindex_sql::{fingerprint, parse_statement, scan_fingerprint, Lexer, LiteralBuf, TokenKind, Value};
//!
//! let q = "SELECT name FROM person WHERE temperature > 37.3 AND community = 'riverside'";
//! let stmt = parse_statement(q).unwrap();
//! assert!(stmt.is_select());
//! // Tokens are slices of `q`, as written; nothing was copied to lex them.
//! let mut lexer = Lexer::new(q);
//! assert!(matches!(lexer.next_token().unwrap().kind, TokenKind::Keyword("SELECT")));
//! assert!(matches!(lexer.next_token().unwrap().kind, TokenKind::Ident("name")));
//! // Two queries differing only in constants share a fingerprint.
//! let f1 = fingerprint(q).unwrap();
//! let f2 = fingerprint("SELECT name FROM person WHERE temperature > 39.1 AND community = 'hill'").unwrap();
//! assert_eq!(f1, f2);
//! // The same walk reaches the same hash without the text, and hands back
//! // the constants it replaced.
//! let mut literals = LiteralBuf::new();
//! assert_eq!(scan_fingerprint(q, &mut literals), Some(f1.hash));
//! assert_eq!(literals.values, [Value::Float(37.3), Value::Str("riverside".into())]);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod predicate;

pub use ast::{
    CmpOp, ColumnRef, DeleteStatement, InsertStatement, Join, JoinKind, OrderItem, Predicate,
    SelectItem, SelectStatement, SetClause, Statement, TableRef, UpdateStatement, Value,
};
pub use fingerprint::{fingerprint, scan_fingerprint, Fingerprint, LiteralBuf, TemplateId};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_statement, ParseError, Parser};
pub use predicate::{AtomicPredicate, Dnf, DnfError};

/// Errors produced anywhere in the SQL front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error: unexpected character at byte offset.
    Lex { offset: usize, message: String },
    /// Parse error with context.
    Parse(ParseError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex { offset, message } => {
                write!(f, "lexical error at byte {offset}: {message}")
            }
            SqlError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}
