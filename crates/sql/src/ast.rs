//! Abstract syntax tree for the SQL subset AutoIndex analyses.
//!
//! The AST keeps exactly the structure an index advisor needs: which
//! columns appear in which clause, boolean predicate shape, join edges and
//! write targets. Every node implements [`std::fmt::Display`], rendering
//! canonical SQL (used by the fingerprinter and in tests for round-trips).

use std::fmt;

/// A literal (or bound) value appearing in a predicate or write statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Null,
    /// A `?`/`$n` bind parameter.
    Placeholder,
}

impl Value {
    /// Total order over values of possibly mixed types, used by the
    /// predicate evaluator in property tests. Numeric types compare
    /// numerically; strings lexicographically; `Null`/`Placeholder` compare
    /// as incomparable (returns `None`).
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Null => write!(f, "NULL"),
            Value::Placeholder => write!(f, "$"),
        }
    }
}

/// A (possibly table-qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table name or alias, if qualified.
    pub table: Option<String>,
    /// Column name (lower-cased by the lexer).
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators in atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator that holds exactly when `self` does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// True for `=`, the only operator giving point lookups.
    pub fn is_equality(self) -> bool {
        self == CmpOp::Eq
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate tree (the `WHERE`/`HAVING`/`ON` expression shape).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Conjunction of two or more predicates.
    And(Vec<Predicate>),
    /// Disjunction of two or more predicates.
    Or(Vec<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
    /// `col op value`.
    Cmp {
        column: ColumnRef,
        op: CmpOp,
        value: Value,
    },
    /// `t1.c = t2.c` — an equi-join edge.
    JoinEq { left: ColumnRef, right: ColumnRef },
    /// `col IN (v1, v2, ...)`.
    InList {
        column: ColumnRef,
        values: Vec<Value>,
        negated: bool,
    },
    /// `col BETWEEN low AND high`.
    Between {
        column: ColumnRef,
        low: Value,
        high: Value,
        negated: bool,
    },
    /// `col LIKE 'pattern'`.
    Like {
        column: ColumnRef,
        pattern: String,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { column: ColumnRef, negated: bool },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        query: Box<SelectStatement>,
        negated: bool,
    },
    /// `col [NOT] IN (subquery)`.
    InSubquery {
        column: ColumnRef,
        query: Box<SelectStatement>,
        negated: bool,
    },
    /// `agg(col) op value` — an aggregate comparison, legal only in
    /// `HAVING`. Never sargable (no B+Tree can seek an aggregate), but it
    /// must survive fingerprinting so the template is still learnable.
    AggCmp {
        func: String,
        arg: Option<ColumnRef>,
        op: CmpOp,
        value: Value,
    },
}

impl Predicate {
    /// Build a (flattened) conjunction; a single element collapses to itself.
    pub fn and(mut parts: Vec<Predicate>) -> Predicate {
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Predicate::And(parts)
        }
    }

    /// Build a (flattened) disjunction; a single element collapses to itself.
    pub fn or(mut parts: Vec<Predicate>) -> Predicate {
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Predicate::Or(parts)
        }
    }

    /// Visit every column referenced anywhere in this predicate (including
    /// subqueries' outer references are *not* followed — subqueries are
    /// opaque here and analysed as their own statements).
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.visit_columns(f);
                }
            }
            Predicate::Not(p) => p.visit_columns(f),
            Predicate::Cmp { column, .. }
            | Predicate::InList { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::Like { column, .. }
            | Predicate::IsNull { column, .. }
            | Predicate::InSubquery { column, .. } => f(column),
            Predicate::JoinEq { left, right } => {
                f(left);
                f(right);
            }
            Predicate::AggCmp { arg, .. } => {
                if let Some(c) = arg {
                    f(c);
                }
            }
            Predicate::Exists { .. } => {}
        }
    }

    /// Collect the subqueries nested directly in this predicate.
    pub fn subqueries(&self) -> Vec<&SelectStatement> {
        let mut out = Vec::new();
        self.collect_subqueries(&mut out);
        out
    }

    fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a SelectStatement>) {
        match self {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_subqueries(out);
                }
            }
            Predicate::Not(p) => p.collect_subqueries(out),
            Predicate::Exists { query, .. } | Predicate::InSubquery { query, .. } => {
                out.push(query);
                if let Some(w) = &query.where_clause {
                    w.collect_subqueries(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::And(ps) => {
                let mut first = true;
                for p in ps {
                    if !first {
                        write!(f, " AND ")?;
                    }
                    first = false;
                    if matches!(p, Predicate::Or(_) | Predicate::And(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Or(ps) => {
                let mut first = true;
                for p in ps {
                    if !first {
                        write!(f, " OR ")?;
                    }
                    first = false;
                    if matches!(p, Predicate::And(_) | Predicate::Or(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Not(p) => write!(f, "NOT ({p})"),
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::JoinEq { left, right } => write!(f, "{left} = {right}"),
            Predicate::InList {
                column,
                values,
                negated,
            } => {
                write!(f, "{column} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::Between {
                column,
                low,
                high,
                negated,
            } => write!(
                f,
                "{column} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Predicate::Like {
                column,
                pattern,
                negated,
            } => write!(
                f,
                "{column} {}LIKE '{}'",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            Predicate::IsNull { column, negated } => {
                write!(f, "{column} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Predicate::Exists { query, negated } => {
                write!(f, "{}EXISTS ({query})", if *negated { "NOT " } else { "" })
            }
            Predicate::InSubquery {
                column,
                query,
                negated,
            } => write!(
                f,
                "{column} {}IN ({query})",
                if *negated { "NOT " } else { "" }
            ),
            Predicate::AggCmp {
                func,
                arg,
                op,
                value,
            } => match arg {
                Some(c) => write!(f, "{func}({c}) {op} {value}"),
                None => write!(f, "{func}(*) {op} {value}"),
            },
        }
    }
}

/// A projected item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A plain column reference, optionally aliased.
    Column(ColumnRef),
    /// `agg(col)` or `agg(*)` — aggregate over an optional column.
    Aggregate {
        func: String,
        arg: Option<ColumnRef>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => write!(f, "*"),
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { func, arg } => match arg {
                Some(c) => write!(f, "{func}({c})"),
                None => write!(f, "{func}(*)"),
            },
        }
    }
}

/// A relation in the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A base table, optionally aliased.
    Table { name: String, alias: Option<String> },
    /// A derived table `(SELECT ...) alias`.
    Derived {
        query: Box<SelectStatement>,
        alias: Option<String>,
    },
}

impl TableRef {
    /// The name this relation is referred to by in the rest of the query.
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Derived { alias, .. } => alias.as_deref(),
        }
    }

    /// The underlying base-table name, if this is a base table.
    pub fn base_table(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, .. } => Some(name),
            TableRef::Derived { .. } => None,
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias } => match alias {
                Some(a) => write!(f, "{name} AS {a}"),
                None => write!(f, "{name}"),
            },
            TableRef::Derived { query, alias } => match alias {
                Some(a) => write!(f, "({query}) AS {a}"),
                None => write!(f, "({query})"),
            },
        }
    }
}

/// Join kind for explicit `JOIN` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Full => "FULL JOIN",
        };
        f.write_str(s)
    }
}

/// An explicit `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub relation: TableRef,
    pub on: Option<Predicate>,
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.relation)?;
        if let Some(on) = &self.on {
            write!(f, " ON {on}")?;
        }
        Ok(())
    }
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub column: ColumnRef,
    pub descending: bool,
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.column)?;
        if self.descending {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Predicate>,
    pub group_by: Vec<ColumnRef>,
    pub having: Option<Predicate>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    /// `FOR UPDATE` row-locking suffix (present in TPC-C transactions).
    pub for_update: bool,
}

impl SelectStatement {
    /// All base-table names referenced in `FROM`/`JOIN` (not subqueries).
    pub fn base_tables(&self) -> Vec<&str> {
        self.from
            .iter()
            .chain(self.joins.iter().map(|j| &j.relation))
            .filter_map(|t| t.base_table())
            .collect()
    }

    /// Resolve an alias used in this statement back to its base table, if
    /// the alias binds a base table at this level.
    pub fn resolve_alias(&self, binding: &str) -> Option<&str> {
        self.from
            .iter()
            .chain(self.joins.iter().map(|j| &j.relation))
            .find(|t| t.binding_name() == Some(binding))
            .and_then(|t| t.base_table())
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        for j in &self.joins {
            write!(f, " {j}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if self.for_update {
            write!(f, " FOR UPDATE")?;
        }
        Ok(())
    }
}

/// An `INSERT INTO t (cols) VALUES (...)` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    pub table: String,
    pub columns: Vec<String>,
    /// One or more value rows.
    pub rows: Vec<Vec<Value>>,
}

impl fmt::Display for InsertStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// One `col = value` assignment in an `UPDATE ... SET`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetClause {
    pub column: String,
    pub value: Value,
}

impl fmt::Display for SetClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.column, self.value)
    }
}

/// An `UPDATE t SET ... WHERE ...` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    pub table: String,
    pub sets: Vec<SetClause>,
    pub where_clause: Option<Predicate>,
}

impl fmt::Display for UpdateStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, s) in self.sets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// A `DELETE FROM t WHERE ...` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    pub table: String,
    pub where_clause: Option<Predicate>,
}

impl fmt::Display for DeleteStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// A parsed SQL statement of any supported kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStatement),
    Insert(InsertStatement),
    Update(UpdateStatement),
    Delete(DeleteStatement),
}

impl Statement {
    /// True if this is a read (`SELECT`) statement.
    pub fn is_select(&self) -> bool {
        matches!(self, Statement::Select(_))
    }

    /// True if this statement writes table data (and therefore may incur
    /// index maintenance cost).
    pub fn is_write(&self) -> bool {
        !self.is_select()
    }

    /// The statement's single target table for writes, or `None` for reads.
    pub fn write_table(&self) -> Option<&str> {
        match self {
            Statement::Insert(i) => Some(&i.table),
            Statement::Update(u) => Some(&u.table),
            Statement::Delete(d) => Some(&d.table),
            Statement::Select(_) => None,
        }
    }

    /// The `WHERE` predicate, for statements that have one.
    pub fn where_clause(&self) -> Option<&Predicate> {
        match self {
            Statement::Select(s) => s.where_clause.as_ref(),
            Statement::Update(u) => u.where_clause.as_ref(),
            Statement::Delete(d) => d.where_clause.as_ref(),
            Statement::Insert(_) => None,
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("a").to_string(), "a");
        assert_eq!(ColumnRef::qualified("t", "a").to_string(), "t.a");
    }

    #[test]
    fn cmp_op_negation_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn value_mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).partial_cmp_sql(&Value::Float(2.5)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(Value::Null.partial_cmp_sql(&Value::Int(1)), None);
    }

    #[test]
    fn and_or_collapse_singletons() {
        let p = Predicate::Cmp {
            column: ColumnRef::bare("a"),
            op: CmpOp::Eq,
            value: Value::Int(1),
        };
        assert_eq!(Predicate::and(vec![p.clone()]), p);
        assert_eq!(Predicate::or(vec![p.clone()]), p);
    }

    #[test]
    fn predicate_display_parenthesises_nested_or() {
        let p = Predicate::And(vec![
            Predicate::Or(vec![
                Predicate::Cmp {
                    column: ColumnRef::bare("a"),
                    op: CmpOp::Eq,
                    value: Value::Int(1),
                },
                Predicate::Cmp {
                    column: ColumnRef::bare("b"),
                    op: CmpOp::Eq,
                    value: Value::Int(2),
                },
            ]),
            Predicate::Cmp {
                column: ColumnRef::bare("c"),
                op: CmpOp::Gt,
                value: Value::Int(3),
            },
        ]);
        assert_eq!(p.to_string(), "(a = 1 OR b = 2) AND c > 3");
    }

    #[test]
    fn visit_columns_covers_all_atoms() {
        let p = Predicate::And(vec![
            Predicate::Cmp {
                column: ColumnRef::bare("a"),
                op: CmpOp::Eq,
                value: Value::Int(1),
            },
            Predicate::JoinEq {
                left: ColumnRef::qualified("t", "b"),
                right: ColumnRef::qualified("u", "c"),
            },
            Predicate::IsNull {
                column: ColumnRef::bare("d"),
                negated: true,
            },
        ]);
        let mut cols = Vec::new();
        p.visit_columns(&mut |c| cols.push(c.column.clone()));
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn statement_write_classification() {
        let ins = Statement::Insert(InsertStatement {
            table: "t".into(),
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(1)]],
        });
        assert!(ins.is_write());
        assert_eq!(ins.write_table(), Some("t"));
    }

    #[test]
    fn string_value_escapes_quotes_on_display() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
    }

    #[test]
    fn join_kind_display() {
        assert_eq!(JoinKind::Inner.to_string(), "JOIN");
        assert_eq!(JoinKind::Left.to_string(), "LEFT JOIN");
        assert_eq!(JoinKind::Right.to_string(), "RIGHT JOIN");
        assert_eq!(JoinKind::Full.to_string(), "FULL JOIN");
    }

    #[test]
    fn value_string_comparisons_are_lexicographic() {
        assert_eq!(
            Value::Str("apple".into()).partial_cmp_sql(&Value::Str("banana".into())),
            Some(std::cmp::Ordering::Less)
        );
        // Strings never compare with numbers.
        assert_eq!(Value::Str("1".into()).partial_cmp_sql(&Value::Int(1)), None);
        assert_eq!(
            Value::Placeholder.partial_cmp_sql(&Value::Placeholder),
            None
        );
    }

    #[test]
    fn statement_where_clause_accessor() {
        use crate::parse_statement;
        let s = parse_statement("SELECT * FROM t WHERE a = 1").unwrap();
        assert!(s.where_clause().is_some());
        let s = parse_statement("INSERT INTO t (a) VALUES (1)").unwrap();
        assert!(s.where_clause().is_none());
        let s = parse_statement("DELETE FROM t WHERE a = 2").unwrap();
        assert!(s.where_clause().is_some());
        let s = parse_statement("UPDATE t SET a = 3").unwrap();
        assert!(s.where_clause().is_none());
    }

    #[test]
    fn select_base_tables_skips_derived() {
        use crate::parse_statement;
        let Statement::Select(s) =
            parse_statement("SELECT * FROM a, (SELECT x FROM b) d JOIN c ON c.y = d.x").unwrap()
        else {
            panic!()
        };
        let mut t = s.base_tables();
        t.sort();
        assert_eq!(t, vec!["a", "c"]);
    }
}
