//! Abstract syntax tree for the supported SQL subset.

use crate::schema::DatalinkSpec;
use crate::value::{SqlType, Value};

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference: optional table qualifier + column name.
    Column {
        /// Table or alias qualifier, if written.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operator.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator.
    Binary(Box<Expr>, BinaryOp, Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%`/`_` wildcards).
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern operand.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Probe operand.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Probe operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// Scalar or aggregate function call. `COUNT(*)` is represented with
    /// `star = true` and empty args.
    Function {
        /// Function name, upper-cased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// True for `COUNT(*)`.
        star: bool,
    },
    /// Positional parameter `?` (1-based index assigned left to right).
    Param(usize),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `table.*`
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Alias, if given.
    pub alias: Option<String>,
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
}

/// A JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// ON condition.
    pub on: Expr,
}

/// Sort direction for ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort key expression.
    pub expr: Expr,
    /// True for ascending (default).
    pub asc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM table (None for table-less `SELECT 1+1`).
    pub from: Option<TableRef>,
    /// JOIN clauses, in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderBy>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDefAst {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// NOT NULL.
    pub not_null: bool,
    /// Column-level PRIMARY KEY.
    pub primary_key: bool,
    /// UNIQUE.
    pub unique: bool,
    /// `REFERENCES table(column)`.
    pub references: Option<(String, String)>,
    /// DATALINK options, when `ty` is [`SqlType::Datalink`].
    pub datalink: Option<DatalinkSpec>,
}

/// Table-level constraint in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (c1, c2, ...)`.
    PrimaryKey(Vec<String>),
    /// `FOREIGN KEY (c...) REFERENCES t (c...)`.
    ForeignKey {
        /// Referencing columns.
        columns: Vec<String>,
        /// Referenced table.
        ref_table: String,
        /// Referenced columns.
        ref_columns: Vec<String>,
    },
    /// `UNIQUE (c1, ...)`.
    Unique(Vec<String>),
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// SELECT query.
    Select(SelectStmt),
    /// INSERT INTO t [(cols)] VALUES (...), (...)
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list (empty = all columns in order).
        columns: Vec<String>,
        /// Row value lists.
        rows: Vec<Vec<Expr>>,
    },
    /// UPDATE t SET c = e, ... [WHERE p]
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Predicate.
        where_clause: Option<Expr>,
    },
    /// DELETE FROM t [WHERE p]
    Delete {
        /// Target table.
        table: String,
        /// Predicate.
        where_clause: Option<Expr>,
    },
    /// CREATE TABLE
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDefAst>,
        /// Table-level constraints.
        constraints: Vec<TableConstraint>,
    },
    /// DROP TABLE t
    DropTable {
        /// Table name.
        name: String,
    },
    /// CREATE \[UNIQUE\] INDEX name ON table (cols)
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns.
        columns: Vec<String>,
        /// Uniqueness constraint.
        unique: bool,
    },
    /// BEGIN \[TRANSACTION\]
    Begin,
    /// COMMIT
    Commit,
    /// ROLLBACK
    Rollback,
}

/// The body of [`Expr::visit`] and [`Expr::visit_mut`] — the one list of
/// each variant's children, in the order a walk meets them — over `&Expr`
/// or `&mut Expr`; `$visit` is the method that recurses into a child.
macro_rules! visit_body {
    ($node:expr, $f:ident, $visit:ident) => {
        if !$f($node) {
            return;
        }
        match $node {
            Expr::Unary(_, e) | Expr::IsNull { expr: e, .. } => e.$visit($f),
            Expr::Binary(l, _, r)
            | Expr::Like {
                expr: l,
                pattern: r,
                ..
            } => {
                l.$visit($f);
                r.$visit($f);
            }
            Expr::InList { expr, list, .. } => {
                expr.$visit($f);
                for e in list {
                    e.$visit($f);
                }
            }
            Expr::Between { expr, lo, hi, .. } => {
                for e in [expr, lo, hi] {
                    e.$visit($f);
                }
            }
            Expr::Function { args, .. } => {
                for e in args {
                    e.$visit($f);
                }
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
        }
    };
}

impl Expr {
    /// Visit every node, pre-order and left to right; `f` returning
    /// `false` skips that node's children.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr) -> bool) {
        visit_body!(self, f, visit);
    }

    /// [`Expr::visit`] over `&mut Expr`: `f` may rewrite a node, and the
    /// walk then descends into the rewritten node's children.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Expr) -> bool) {
        visit_body!(self, f, visit_mut);
    }

    /// True if the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            found |= matches!(e, Expr::Function { name, .. } if is_aggregate_fn(name));
            !found
        });
        found
    }
}

/// True when `name` is one of the supported aggregate functions.
pub fn is_aggregate_fn(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}
