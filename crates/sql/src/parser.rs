//! Recursive-descent parser for the AutoIndex SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! statement   := select | insert | update | delete
//! select      := SELECT [DISTINCT] items FROM tables {join} [WHERE pred]
//!                [GROUP BY cols [HAVING pred]] [ORDER BY order] [LIMIT n]
//!                [FOR UPDATE]
//! pred        := or_pred
//! or_pred     := and_pred {OR and_pred}
//! and_pred    := not_pred {AND not_pred}
//! not_pred    := NOT not_pred | atom
//! atom        := '(' pred ')' | EXISTS '(' select ')' | comparison
//! comparison  := colref (op value | op colref | [NOT] IN (...|select)
//!                | [NOT] BETWEEN v AND v | [NOT] LIKE 'p' | IS [NOT] NULL)
//! ```

use crate::ast::*;
use crate::lexer::{ident_text, unescape, Lexer, Token, TokenKind};
use crate::SqlError;

/// A parse error with the offending token offset and a message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single SQL statement. Trailing `;` is allowed.
///
/// Allocates what the returned [`Statement`] owns and nothing else: tokens
/// borrow `sql` and are pulled from the tokenizer one at a time.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let mut p = Parser::new(sql);
    let parsed = p.parse_statement().and_then(|stmt| {
        p.expect_end()?;
        Ok(stmt)
    });
    // A lexical error anywhere in the text outranks whatever the grammar
    // made of the tokens before it.
    match p.lex_error() {
        Some(e) => Err(e),
        None => Ok(parsed?),
    }
}

/// Recursive-descent parser pulling tokens from a [`Lexer`] with one token
/// of look-ahead. Use [`parse_statement`] unless you need to drive parsing
/// manually (e.g. a bare predicate); then check [`Parser::lex_error`] once
/// done.
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The look-ahead token.
    cur: Token<'a>,
    /// The lexical error the tokenizer stopped at; the grammar sees `Eof`
    /// from there on.
    lex_error: Option<SqlError>,
}

impl<'a> Parser<'a> {
    /// Create a parser over `sql`.
    pub fn new(sql: &'a str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(sql),
            cur: Token {
                kind: TokenKind::Eof,
                offset: 0,
            },
            lex_error: None,
        };
        p.advance();
        p
    }

    fn advance(&mut self) {
        match self.lexer.next_token() {
            Ok(token) => self.cur = token,
            Err(e) => {
                self.cur = Token {
                    kind: TokenKind::Eof,
                    offset: self.cur.offset,
                };
                self.lex_error = Some(e);
            }
        }
    }

    /// The first lexical error in the text, looked for up to its end: a
    /// parse that stopped early has not seen the tokens behind its error.
    pub fn lex_error(&mut self) -> Option<SqlError> {
        while self.lex_error.is_none() && !matches!(self.cur.kind, TokenKind::Eof) {
            self.advance();
        }
        self.lex_error.take()
    }

    fn peek(&self) -> TokenKind<'a> {
        self.cur.kind
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let kind = self.cur.kind;
        self.advance();
        kind
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.cur.offset,
            message: message.into(),
        })
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}, found {:?}", self.peek()))
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), TokenKind::Punct(q) if q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected {p:?}, found {:?}", self.peek()))
        }
    }

    /// Consume an identifier, as written.
    fn expect_raw_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        self.expect_raw_ident().map(ident_text)
    }

    /// Assert the whole input was consumed (modulo a trailing `;`).
    pub fn expect_end(&mut self) -> Result<(), ParseError> {
        self.eat_punct(";");
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("trailing input: {:?}", self.peek()))
        }
    }

    /// Parse one statement.
    pub fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            TokenKind::Keyword("SELECT") => Ok(Statement::Select(self.parse_select()?)),
            TokenKind::Keyword("INSERT") => Ok(Statement::Insert(self.parse_insert()?)),
            TokenKind::Keyword("UPDATE") => Ok(Statement::Update(self.parse_update()?)),
            TokenKind::Keyword("DELETE") => Ok(Statement::Delete(self.parse_delete()?)),
            other => self.err(format!("expected a statement keyword, found {other:?}")),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        // `Vec::new` + `push` here and below, not `vec![first]`: its exact
        // capacity of one is reallocated by the second element.
        let mut projection = Vec::new();
        projection.push(self.parse_select_item()?);
        while self.eat_punct(",") {
            projection.push(self.parse_select_item()?);
        }

        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.parse_table_ref()?);
            loop {
                if self.eat_punct(",") {
                    from.push(self.parse_table_ref()?);
                } else if let Some(kind) = self.peek_join_kind() {
                    self.consume_join_kind(kind);
                    let relation = self.parse_table_ref()?;
                    let on = if self.eat_keyword("ON") {
                        Some(self.parse_predicate()?)
                    } else {
                        None
                    };
                    joins.push(Join { kind, relation, on });
                } else {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_predicate()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        let mut having = None;
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_column_ref()?);
            while self.eat_punct(",") {
                group_by.push(self.parse_column_ref()?);
            }
            if self.eat_keyword("HAVING") {
                having = Some(self.parse_predicate()?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let column = self.parse_column_ref()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { column, descending });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => return self.err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };

        let for_update = if self.eat_keyword("FOR") {
            self.expect_keyword("UPDATE")?;
            true
        } else {
            false
        };

        Ok(SelectStatement {
            distinct,
            projection,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            for_update,
        })
    }

    fn peek_join_kind(&self) -> Option<JoinKind> {
        match self.peek() {
            TokenKind::Keyword("JOIN" | "INNER") => Some(JoinKind::Inner),
            TokenKind::Keyword("LEFT") => Some(JoinKind::Left),
            TokenKind::Keyword("RIGHT") => Some(JoinKind::Right),
            TokenKind::Keyword("FULL") => Some(JoinKind::Full),
            _ => None,
        }
    }

    fn consume_join_kind(&mut self, kind: JoinKind) {
        // Consume INNER/LEFT/RIGHT/FULL, optional OUTER, then JOIN.
        if kind != JoinKind::Inner || self.at_keyword("INNER") {
            self.bump();
            self.eat_keyword("OUTER");
            let _ = self.eat_keyword("JOIN");
        } else {
            // Bare JOIN.
            self.bump();
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_punct("*") {
            return Ok(SelectItem::Star);
        }
        // Aggregates: COUNT/SUM/AVG/MIN/MAX '(' (col | *) ')'
        if let TokenKind::Keyword(func @ ("COUNT" | "SUM" | "AVG" | "MIN" | "MAX")) = self.peek() {
            self.bump();
            self.expect_punct("(")?;
            let arg = if self.eat_punct("*") {
                None
            } else {
                self.eat_keyword("DISTINCT");
                Some(self.parse_column_ref()?)
            };
            self.expect_punct(")")?;
            // Optional alias.
            if self.eat_keyword("AS") {
                self.expect_raw_ident()?;
            }
            return Ok(SelectItem::Aggregate {
                func: func.to_string(),
                arg,
            });
        }
        let col = self.parse_column_ref()?;
        if self.eat_keyword("AS") {
            self.expect_raw_ident()?;
        }
        Ok(SelectItem::Column(col))
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_punct("(") {
            let query = Box::new(self.parse_select()?);
            self.expect_punct(")")?;
            let alias = self.parse_optional_alias();
            return Ok(TableRef::Derived { query, alias });
        }
        let name = self.expect_ident()?;
        let alias = self.parse_optional_alias();
        Ok(TableRef::Table { name, alias })
    }

    fn parse_optional_alias(&mut self) -> Option<String> {
        if self.eat_keyword("AS") {
            return self.expect_ident().ok();
        }
        match self.peek() {
            TokenKind::Ident(_) => self.expect_ident().ok(),
            _ => None,
        }
    }

    fn parse_column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.expect_ident()?;
        if self.eat_punct(".") {
            let column = self.expect_ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        let negative = self.eat_punct("-");
        match self.bump() {
            TokenKind::Int(v) => Ok(Value::Int(if negative { -v } else { v })),
            TokenKind::Float(v) => Ok(Value::Float(if negative { -v } else { v })),
            TokenKind::Str(raw) if !negative => Ok(Value::Str(unescape(raw))),
            TokenKind::Keyword("NULL") if !negative => Ok(Value::Null),
            TokenKind::Placeholder if !negative => Ok(Value::Placeholder),
            other => self.err(format!("expected a value, found {other:?}")),
        }
    }

    /// Parse a boolean predicate (public so `ON` clauses etc. can reuse it).
    pub fn parse_predicate(&mut self) -> Result<Predicate, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Predicate, ParseError> {
        let first = self.parse_and()?;
        if !self.at_keyword("OR") {
            return Ok(first);
        }
        let mut parts = Vec::new();
        parts.push(first);
        while self.eat_keyword("OR") {
            parts.push(self.parse_and()?);
        }
        Ok(Predicate::Or(parts))
    }

    fn parse_and(&mut self) -> Result<Predicate, ParseError> {
        let first = self.parse_not()?;
        if !self.at_keyword("AND") {
            return Ok(first);
        }
        let mut parts = Vec::new();
        parts.push(first);
        while self.eat_keyword("AND") {
            parts.push(self.parse_not()?);
        }
        Ok(Predicate::And(parts))
    }

    fn parse_not(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_keyword("NOT") {
            Ok(Predicate::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Predicate, ParseError> {
        if self.at_keyword("EXISTS") {
            self.bump();
            self.expect_punct("(")?;
            let query = Box::new(self.parse_select()?);
            self.expect_punct(")")?;
            return Ok(Predicate::Exists {
                query,
                negated: false,
            });
        }
        if self.eat_punct("(") {
            let p = self.parse_predicate()?;
            self.expect_punct(")")?;
            return Ok(p);
        }
        self.parse_comparison()
    }

    /// True when the current token is an aggregate function keyword
    /// followed by `(` — the start of a HAVING aggregate comparison.
    ///
    /// The one place the grammar needs a second token of look-ahead: a
    /// copy of the tokenizer lexes it (tokens borrow, so that is free of
    /// allocation) and the real one stays where it is.
    fn at_aggregate_call(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword("COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
        ) && matches!(
            self.lexer.clone().next_token(),
            Ok(Token {
                kind: TokenKind::Punct("("),
                ..
            })
        )
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.bump() {
            TokenKind::Punct("=") => Ok(CmpOp::Eq),
            TokenKind::Punct("<>") => Ok(CmpOp::Ne),
            TokenKind::Punct("<") => Ok(CmpOp::Lt),
            TokenKind::Punct("<=") => Ok(CmpOp::Le),
            TokenKind::Punct(">") => Ok(CmpOp::Gt),
            TokenKind::Punct(">=") => Ok(CmpOp::Ge),
            other => self.err(format!("expected a comparison operator, found {other:?}")),
        }
    }

    fn parse_comparison(&mut self) -> Result<Predicate, ParseError> {
        // `agg(col) op value` — the HAVING aggregate form. Checked before
        // column parsing because aggregate names lex as keywords, which
        // `parse_column_ref` rejects.
        if self.at_aggregate_call() {
            let TokenKind::Keyword(func) = self.bump() else {
                unreachable!("at_aggregate_call checked a keyword");
            };
            let func = func.to_string();
            self.expect_punct("(")?;
            let arg = if self.eat_punct("*") {
                None
            } else {
                self.eat_keyword("DISTINCT");
                Some(self.parse_column_ref()?)
            };
            self.expect_punct(")")?;
            let op = self.parse_cmp_op()?;
            let value = self.parse_value()?;
            return Ok(Predicate::AggCmp {
                func,
                arg,
                op,
                value,
            });
        }
        let column = self.parse_column_ref()?;
        let negated = self.eat_keyword("NOT");

        if self.eat_keyword("IN") {
            self.expect_punct("(")?;
            if self.at_keyword("SELECT") {
                let query = Box::new(self.parse_select()?);
                self.expect_punct(")")?;
                return Ok(Predicate::InSubquery {
                    column,
                    query,
                    negated,
                });
            }
            let mut values = Vec::new();
            values.push(self.parse_value()?);
            while self.eat_punct(",") {
                values.push(self.parse_value()?);
            }
            self.expect_punct(")")?;
            return Ok(Predicate::InList {
                column,
                values,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.parse_value()?;
            self.expect_keyword("AND")?;
            let high = self.parse_value()?;
            return Ok(Predicate::Between {
                column,
                low,
                high,
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let pattern = match self.bump() {
                TokenKind::Str(raw) => unescape(raw),
                TokenKind::Placeholder => "$".to_string(),
                other => return self.err(format!("expected LIKE pattern, found {other:?}")),
            };
            return Ok(Predicate::Like {
                column,
                pattern,
                negated,
            });
        }
        if negated {
            return self.err("expected IN/BETWEEN/LIKE after NOT");
        }
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Predicate::IsNull { column, negated });
        }

        let op = self.parse_cmp_op()?;

        // Right-hand side: value, or column reference (join edge).
        if !matches!(self.peek(), TokenKind::Ident(_)) {
            let value = self.parse_value()?;
            return Ok(Predicate::Cmp { column, op, value });
        }
        let right = self.parse_column_ref()?;
        if op == CmpOp::Eq {
            Ok(Predicate::JoinEq {
                left: column,
                right,
            })
        } else {
            // Non-equi column comparison: model as an opaque range
            // predicate on the left column (the advisor treats it as
            // a range restriction).
            Ok(Predicate::Cmp {
                column,
                op,
                value: Value::Placeholder,
            })
        }
    }

    fn parse_insert(&mut self) -> Result<InsertStatement, ParseError> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.eat_punct("(") {
            columns.push(self.expect_ident()?);
            while self.eat_punct(",") {
                columns.push(self.expect_ident()?);
            }
            self.expect_punct(")")?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut row = Vec::new();
            row.push(self.parse_value()?);
            while self.eat_punct(",") {
                row.push(self.parse_value()?);
            }
            self.expect_punct(")")?;
            rows.push(row);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(InsertStatement {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<UpdateStatement, ParseError> {
        self.expect_keyword("UPDATE")?;
        let table = self.expect_ident()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let column = self.expect_ident()?;
            self.expect_punct("=")?;
            // Allow simple arithmetic like `col = col + 1`: consume and
            // record as a placeholder (value irrelevant to indexing).
            let value = if let TokenKind::Ident(_) = self.peek() {
                self.parse_column_ref()?;
                if self.eat_punct("+") || self.eat_punct("-") {
                    self.parse_value()?;
                }
                Value::Placeholder
            } else {
                self.parse_value()?
            };
            sets.push(SetClause { column, value });
            if !self.eat_punct(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_predicate()?)
        } else {
            None
        };
        Ok(UpdateStatement {
            table,
            sets,
            where_clause,
        })
    }

    fn parse_delete(&mut self) -> Result<DeleteStatement, ParseError> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_predicate()?)
        } else {
            None
        };
        Ok(DeleteStatement {
            table,
            where_clause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_select() {
        let s = sel("SELECT a, b FROM t WHERE a = 1");
        assert_eq!(s.projection.len(), 2);
        assert_eq!(s.base_tables(), vec!["t"]);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_star_and_aggregates() {
        let s = sel("SELECT *, COUNT(*), SUM(x) FROM t");
        assert_eq!(s.projection.len(), 3);
        assert!(matches!(s.projection[0], SelectItem::Star));
        assert!(matches!(
            s.projection[1],
            SelectItem::Aggregate { ref func, arg: None } if func == "COUNT"
        ));
    }

    #[test]
    fn parses_joins() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w");
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert!(matches!(s.joins[0].on, Some(Predicate::JoinEq { .. })));
    }

    #[test]
    fn parses_implicit_join_with_aliases() {
        let s = sel("SELECT * FROM orders o, customer c WHERE o.cid = c.id");
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.resolve_alias("o"), Some("orders"));
        assert_eq!(s.resolve_alias("c"), Some("customer"));
    }

    #[test]
    fn parses_group_order_limit() {
        let s = sel("SELECT a FROM t GROUP BY a HAVING a > 2 ORDER BY a DESC, b LIMIT 10");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_having_over_aggregate() {
        let s = sel("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 5");
        assert!(matches!(
            s.having,
            Some(Predicate::AggCmp { ref func, arg: None, op: CmpOp::Gt, .. }) if func == "COUNT"
        ));
        let s = sel("SELECT a FROM t GROUP BY a HAVING SUM(amount) >= 100 AND a > 2");
        let Some(Predicate::And(parts)) = s.having else {
            panic!("expected AND in HAVING");
        };
        assert!(matches!(
            parts[0],
            Predicate::AggCmp { arg: Some(ref c), .. } if c.column == "amount"
        ));
        assert!(matches!(parts[1], Predicate::Cmp { .. }));
    }

    #[test]
    fn aggregate_comparison_in_where_also_parses() {
        // Semantically dubious SQL, but the parser must not panic on it;
        // downstream it becomes a non-sargable opaque atom.
        let s = sel("SELECT * FROM t WHERE MIN(b) < 3");
        assert!(matches!(s.where_clause, Some(Predicate::AggCmp { .. })));
    }

    #[test]
    fn parses_for_update() {
        let s = sel("SELECT a FROM t WHERE a = 1 FOR UPDATE");
        assert!(s.for_update);
    }

    #[test]
    fn parses_boolean_precedence() {
        // AND binds tighter than OR.
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.where_clause.unwrap() {
            Predicate::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Predicate::And(_)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_not() {
        let s = sel("SELECT * FROM t WHERE NOT (a = 1 AND b = 2)");
        assert!(matches!(s.where_clause.unwrap(), Predicate::Not(_)));
    }

    #[test]
    fn parses_in_between_like_isnull() {
        let s = sel("SELECT * FROM t WHERE a IN (1,2,3) AND b BETWEEN 1 AND 9 \
             AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (4)");
        let Predicate::And(parts) = s.where_clause.unwrap() else {
            panic!("expected AND");
        };
        assert_eq!(parts.len(), 5);
        assert!(matches!(parts[0], Predicate::InList { negated: false, .. }));
        assert!(matches!(parts[1], Predicate::Between { .. }));
        assert!(matches!(parts[2], Predicate::Like { .. }));
        assert!(matches!(parts[3], Predicate::IsNull { negated: true, .. }));
        assert!(matches!(parts[4], Predicate::InList { negated: true, .. }));
    }

    #[test]
    fn parses_subqueries() {
        let s = sel(
            "SELECT * FROM t WHERE EXISTS (SELECT x FROM u WHERE u.id = t.id) \
             AND a IN (SELECT b FROM v WHERE v.k = 7)",
        );
        let w = s.where_clause.unwrap();
        assert_eq!(w.subqueries().len(), 2);
    }

    #[test]
    fn parses_derived_table() {
        let s = sel("SELECT * FROM (SELECT a FROM u WHERE a = 2) d WHERE d.a = 1");
        assert!(matches!(s.from[0], TableRef::Derived { .. }));
        assert_eq!(s.from[0].binding_name(), Some("d"));
    }

    #[test]
    fn parses_insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert(i) = stmt else { panic!() };
        assert_eq!(i.columns, vec!["a", "b"]);
        assert_eq!(i.rows.len(), 2);
    }

    #[test]
    fn parses_update_with_arithmetic() {
        let stmt = parse_statement("UPDATE stock SET s_quantity = s_quantity - 5 WHERE s_i_id = 3")
            .unwrap();
        let Statement::Update(u) = stmt else { panic!() };
        assert_eq!(u.sets.len(), 1);
        assert_eq!(u.sets[0].value, Value::Placeholder);
        assert!(u.where_clause.is_some());
    }

    #[test]
    fn parses_delete() {
        let stmt = parse_statement("DELETE FROM t WHERE a < 5").unwrap();
        assert!(matches!(stmt, Statement::Delete(_)));
    }

    #[test]
    fn parses_placeholders_and_negative_numbers() {
        let s = sel("SELECT * FROM t WHERE a = ? AND b = $1 AND c = -3 AND d = -2.5");
        let Predicate::And(parts) = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(
            parts[0],
            Predicate::Cmp {
                value: Value::Placeholder,
                ..
            }
        ));
        assert!(matches!(
            parts[2],
            Predicate::Cmp {
                value: Value::Int(-3),
                ..
            }
        ));
        assert!(matches!(
            parts[3],
            Predicate::Cmp { value: Value::Float(v), .. } if v == -2.5
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEKT * FROM t").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage ~").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_statement("SELECT a FROM t; SELECT b FROM u").is_err());
    }

    #[test]
    fn parses_count_distinct_and_aliases() {
        let s = sel("SELECT COUNT(DISTINCT a) AS n, b AS label FROM t AS x WHERE x.a = 1");
        assert_eq!(s.projection.len(), 2);
        assert_eq!(s.from[0].binding_name(), Some("x"));
        assert_eq!(s.resolve_alias("x"), Some("t"));
    }

    #[test]
    fn parses_inner_and_full_outer_join_keywords() {
        let s = sel("SELECT * FROM a INNER JOIN b ON a.x = b.y FULL OUTER JOIN c ON b.z = c.w");
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Full);
    }

    #[test]
    fn parses_right_join() {
        let s = sel("SELECT * FROM a RIGHT JOIN b ON a.x = b.y");
        assert_eq!(s.joins[0].kind, JoinKind::Right);
    }

    #[test]
    fn parses_is_null_chain() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        let Predicate::And(parts) = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(parts[0], Predicate::IsNull { negated: false, .. }));
        assert!(matches!(parts[1], Predicate::IsNull { negated: true, .. }));
    }

    #[test]
    fn rejects_bad_limit() {
        assert!(parse_statement("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_statement("SELECT a FROM t LIMIT").is_err());
    }

    #[test]
    fn rejects_not_without_in_between_like() {
        assert!(parse_statement("SELECT * FROM t WHERE a NOT = 1").is_err());
    }

    #[test]
    fn non_equi_column_comparison_becomes_range_hint() {
        let s = sel("SELECT * FROM t WHERE a > b");
        assert!(matches!(
            s.where_clause.unwrap(),
            Predicate::Cmp {
                op: CmpOp::Gt,
                value: Value::Placeholder,
                ..
            }
        ));
    }

    #[test]
    fn trailing_semicolon_accepted() {
        assert!(parse_statement("SELECT a FROM t;").is_ok());
        assert!(parse_statement("DELETE FROM t WHERE a = 1;").is_ok());
    }

    #[test]
    fn update_multiple_set_clauses() {
        let stmt = parse_statement("UPDATE t SET a = 1, b = 'x', c = c + 2 WHERE d = 3").unwrap();
        let Statement::Update(u) = stmt else { panic!() };
        assert_eq!(u.sets.len(), 3);
        assert_eq!(u.sets[0].value, Value::Int(1));
        assert_eq!(u.sets[2].value, Value::Placeholder);
    }

    #[test]
    fn insert_without_column_list() {
        let stmt = parse_statement("INSERT INTO t VALUES (1, 2, 3)").unwrap();
        let Statement::Insert(i) = stmt else { panic!() };
        assert!(i.columns.is_empty());
        assert_eq!(i.rows[0].len(), 3);
    }

    #[test]
    fn deeply_nested_subqueries_parse() {
        let s = sel("SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE b IN \
             (SELECT c FROM v WHERE c = 1))");
        let w = s.where_clause.unwrap();
        assert_eq!(w.subqueries().len(), 2, "both nesting levels collected");
    }

    #[test]
    fn display_roundtrip_reparses_to_same_ast() {
        let cases = [
            "SELECT a, b FROM t WHERE a = 1 AND (b = 2 OR c > 3) ORDER BY a DESC LIMIT 5",
            "SELECT COUNT(*) FROM t GROUP BY a HAVING a > 2",
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "UPDATE t SET a = 5 WHERE b BETWEEN 1 AND 2",
            "DELETE FROM t WHERE a IN (1, 2)",
            "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z LIKE 'p%'",
        ];
        for sql in cases {
            let ast1 = parse_statement(sql).unwrap();
            let rendered = ast1.to_string();
            let ast2 = parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
            assert_eq!(ast1, ast2, "round-trip mismatch for {sql:?}");
        }
    }
}
