//! Expression evaluation with SQL three-valued logic.
//!
//! An [`Expr`] is bound once per statement against the shape of the rows
//! it will meet ([`RowSchema::bind`]) and the [`Bound`] form is what the
//! one evaluator ([`EvalContext::eval_cow`]) runs, row after row.

use crate::error::{DbError, Result};
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// A resolved column slot in a row: optional table alias + column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table name or alias that qualifies this slot.
    pub table: Option<String>,
    /// Column name.
    pub name: String,
}

/// The shape of rows flowing through the executor.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    /// Slots in positional order.
    pub columns: Vec<ColumnRef>,
}

impl RowSchema {
    /// Build a schema for a single table's columns.
    pub fn for_table(table: &str, column_names: &[String]) -> Self {
        RowSchema {
            columns: column_names
                .iter()
                .map(|c| ColumnRef {
                    table: Some(table.to_ascii_uppercase()),
                    name: c.clone(),
                })
                .collect(),
        }
    }

    /// Concatenate two schemas (for joins).
    pub fn join(&self, other: &RowSchema) -> RowSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        RowSchema { columns }
    }

    /// Resolve a column reference to its slot — the one statement of the
    /// name-resolution rule: a slot matches when it carries the
    /// reference's name and, for a qualified reference, is bound under
    /// exactly that alias (a table's own name stops matching once the
    /// statement aliases it). No match is an unknown column, more than
    /// one an ambiguous reference. Only [`RowSchema::bind`] asks.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        // `slot == reference.to_ascii_uppercase()`, folded byte by byte
        // as it is compared: a lookup allocates nothing.
        let is = |slot: &str, reference: &str| {
            slot.len() == reference.len()
                && slot
                    .bytes()
                    .zip(reference.bytes())
                    .all(|(s, r)| s == r.to_ascii_uppercase())
        };
        let mut hits = self.columns.iter().enumerate().filter(|(_, c)| {
            is(&c.name, name)
                && table.is_none_or(|t| c.table.as_deref().is_some_and(|ct| is(ct, t)))
        });
        let upper = str::to_ascii_uppercase;
        match (hits.next(), hits.next()) {
            (Some((slot, _)), None) => Ok(slot),
            (Some(_), Some(_)) => Err(DbError::Eval(format!(
                "ambiguous column reference {}",
                upper(name)
            ))),
            (None, _) => Err(DbError::Eval(match table {
                Some(t) => format!("unknown column {}.{}", upper(t), upper(name)),
                None => format!("unknown column {}", upper(name)),
            })),
        }
    }

    /// Bind `e` against this row shape. `aggs` lists the aggregate calls
    /// a group answers, by position (empty outside a group); `functions`
    /// supplies the scalar functions. What does not bind — an unknown or
    /// ambiguous column, an unknown function, `f(*)` outside a group — is
    /// the statement's error, the first in evaluation order.
    pub fn bind(&self, e: &Expr, functions: &FnRegistry, aggs: &[Expr]) -> Result<Bound> {
        let one = |e: &Expr| self.bind(e, functions, aggs).map(Box::new);
        let all = |es: &[Expr]| -> Result<Vec<Bound>> {
            es.iter().map(|e| self.bind(e, functions, aggs)).collect()
        };
        Ok(match e {
            Expr::Literal(v) => Bound::Value(v.clone()),
            Expr::Param(n) => Bound::Param(*n),
            Expr::Column { table, name } => Bound::Slot(self.resolve(table.as_deref(), name)?),
            Expr::Unary(op, inner) => Bound::Unary(*op, one(inner)?),
            Expr::Binary(l, op, r) => Bound::Binary(one(l)?, *op, one(r)?),
            Expr::IsNull { expr, negated } => Bound::IsNull(one(expr)?, *negated),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Bound::Like(one(expr)?, one(pattern)?, *negated),
            Expr::InList {
                expr,
                list,
                negated,
            } => Bound::InList(one(expr)?, all(list)?, *negated),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => Bound::Between(one(expr)?, one(lo)?, one(hi)?, *negated),
            Expr::Function { name, args, star } => {
                // Inside a group an aggregate call is already a value —
                // wherever in a composite expression it stands.
                if let Some(i) = aggs.iter().position(|a| a == e) {
                    return Ok(Bound::Agg(i));
                }
                match functions.get(name) {
                    _ if *star => {
                        let what = format!("{name}(*) is only valid as an aggregate");
                        return Err(DbError::Eval(what));
                    }
                    None => return Err(DbError::Eval(format!("unknown function {name}"))),
                    Some(f) => Bound::Call(f.clone(), all(args)?),
                }
            }
        })
    }
}

/// An expression bound against the [`RowSchema`] of the rows it will
/// meet: a column is its slot, an aggregate call answered by a group is
/// the index of the group's finished value, a scalar function is the
/// registered function itself. Nothing in it names anything: evaluating
/// it raises only what a row's values raise.
#[derive(Clone)]
pub enum Bound {
    /// A literal.
    Value(Value),
    /// Positional parameter `?n` (1-based).
    Param(usize),
    /// A cell of the row.
    Slot(usize),
    /// The group's finished value of its `n`th aggregate call.
    Agg(usize),
    /// Unary operator.
    Unary(UnaryOp, Box<Bound>),
    /// Binary operator.
    Binary(Box<Bound>, BinaryOp, Box<Bound>),
    /// `expr IS [NOT] NULL` (`true` for NOT).
    IsNull(Box<Bound>, bool),
    /// `expr [NOT] LIKE pattern`.
    Like(Box<Bound>, Box<Bound>, bool),
    /// `expr [NOT] IN (list)`.
    InList(Box<Bound>, Vec<Bound>, bool),
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between(Box<Bound>, Box<Bound>, Box<Bound>, bool),
    /// A scalar function call.
    Call(ScalarFn, Vec<Bound>),
}

impl Bound {
    /// Mark in `read` every slot evaluating this may read.
    pub fn reads(&self, read: &mut [bool]) {
        match self {
            Bound::Slot(i) => read[*i] = true,
            Bound::Value(_) | Bound::Param(_) | Bound::Agg(_) => {}
            Bound::Unary(_, e) | Bound::IsNull(e, _) => e.reads(read),
            Bound::Binary(a, _, b) | Bound::Like(a, b, _) => {
                [a, b].iter().for_each(|e| e.reads(read))
            }
            Bound::Between(a, b, c, _) => [a, b, c].iter().for_each(|e| e.reads(read)),
            Bound::InList(e, list, _) => {
                e.reads(read);
                list.iter().for_each(|e| e.reads(read));
            }
            Bound::Call(_, args) => args.iter().for_each(|e| e.reads(read)),
        }
    }
}

/// A scalar function implementation.
pub type ScalarFn = Rc<dyn Fn(&[Value]) -> Result<Value>>;

/// Registry of scalar functions, keyed by upper-case name.
///
/// The `easia-datalink` crate registers the SQL/MED `DL*` functions here
/// (`DLVALUE`, `DLURLCOMPLETE`, `DLURLPATH`, `DLURLSERVER`, ...).
#[derive(Clone, Default)]
pub struct FnRegistry {
    fns: HashMap<String, ScalarFn>,
}

impl FnRegistry {
    /// Registry preloaded with the built-in scalar functions.
    pub fn with_builtins() -> Self {
        let mut r = FnRegistry::default();
        r.register("LENGTH", |args| {
            expect_args("LENGTH", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => match v.as_text() {
                    Some(s) => Value::Int(s.chars().count() as i64),
                    None => match v.lob_size() {
                        Some(n) => Value::Int(n as i64),
                        None => return Err(DbError::Eval("LENGTH expects a string or LOB".into())),
                    },
                },
            })
        });
        r.register("UPPER", |args| {
            expect_args("UPPER", args, 1)?;
            string_fn(&args[0], |s| s.to_uppercase())
        });
        r.register("LOWER", |args| {
            expect_args("LOWER", args, 1)?;
            string_fn(&args[0], |s| s.to_lowercase())
        });
        r.register("TRIM", |args| {
            expect_args("TRIM", args, 1)?;
            string_fn(&args[0], |s| s.trim().to_string())
        });
        r.register("SUBSTR", |args| {
            if args.len() != 2 && args.len() != 3 {
                return Err(DbError::Eval("SUBSTR expects 2 or 3 arguments".into()));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_text()
                .ok_or_else(|| DbError::Eval("SUBSTR expects a string".into()))?;
            let start = args[1]
                .as_int()
                .ok_or_else(|| DbError::Eval("SUBSTR start must be an integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL SUBSTR is 1-based.
            let from = (start.max(1) as usize - 1).min(chars.len());
            let len = match args.get(2) {
                Some(v) => v
                    .as_int()
                    .ok_or_else(|| DbError::Eval("SUBSTR length must be an integer".into()))?
                    .max(0) as usize,
                None => chars.len(),
            };
            Ok(Value::Str(chars[from..].iter().take(len).collect()))
        });
        r.register("ABS", |args| {
            expect_args("ABS", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.abs()),
                Value::Double(d) => Value::Double(d.abs()),
                _ => return Err(DbError::Eval("ABS expects a number".into())),
            })
        });
        r.register("ROUND", |args| {
            expect_args("ROUND", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(*i),
                Value::Double(d) => Value::Double(d.round()),
                _ => return Err(DbError::Eval("ROUND expects a number".into())),
            })
        });
        r.register("COALESCE", |args| {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        });
        r
    }

    /// Register (or replace) a function.
    pub fn register(&mut self, name: &str, f: impl Fn(&[Value]) -> Result<Value> + 'static) {
        self.fns.insert(name.to_ascii_uppercase(), Rc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<&ScalarFn> {
        self.fns.get(&name.to_ascii_uppercase())
    }
}

fn expect_args(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() != n {
        return Err(DbError::Eval(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn string_fn(v: &Value, f: impl Fn(&str) -> String) -> Result<Value> {
    Ok(match v {
        Value::Null => Value::Null,
        v => match v.as_text() {
            Some(s) => Value::Str(f(s)),
            None => return Err(DbError::Eval("expected a string argument".into())),
        },
    })
}

/// Everything a bound expression evaluates against: one row.
pub struct EvalContext<'a> {
    /// The current row.
    pub row: &'a [Value],
    /// Positional parameter values (1-based indices into this slice + 1).
    pub params: &'a [Value],
    /// The finished aggregate values of the group `row` represents, in
    /// the order of the aggregate calls the expressions were bound with;
    /// `None` outside an aggregate's groups.
    pub aggs: Option<&'a [Value]>,
}

impl<'a> EvalContext<'a> {
    /// `row` outside any group.
    pub fn new(row: &'a [Value], params: &'a [Value]) -> Self {
        EvalContext {
            row,
            params,
            aggs: None,
        }
    }

    /// Evaluate `expr` to a value of its own.
    pub fn eval(&self, expr: &Bound) -> Result<Value> {
        self.eval_cow(expr).map(Cow::into_owned)
    }

    /// Evaluate `expr`, lending what already exists — a literal, a
    /// parameter, a cell of the row, a group's aggregate — instead of
    /// copying it: a predicate that compares or matches them allocates
    /// nothing. The one evaluator body.
    pub fn eval_cow<'v>(&'v self, expr: &'v Bound) -> Result<Cow<'v, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match expr {
            Bound::Value(v) => Ok(Cow::Borrowed(v)),
            Bound::Param(n) => self
                .params
                .get(*n - 1)
                .map(Cow::Borrowed)
                .ok_or_else(|| DbError::Eval(format!("missing parameter ?{n}"))),
            Bound::Slot(i) => Ok(Cow::Borrowed(&self.row[*i])),
            Bound::Agg(i) => Ok(Cow::Borrowed(
                &self.aggs.expect("aggregate calls are bound inside a group")[*i],
            )),
            Bound::Unary(op, e) => {
                let v = self.eval_cow(e)?;
                match op {
                    UnaryOp::Neg => match &*v {
                        Value::Null => owned(Value::Null),
                        Value::Int(i) => owned(Value::Int(-i)),
                        Value::Double(d) => owned(Value::Double(-d)),
                        other => Err(DbError::Eval(format!(
                            "cannot negate {}",
                            other.type_name()
                        ))),
                    },
                    UnaryOp::Not => owned(match truth(&v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    }),
                }
            }
            Bound::Binary(l, op, r) => self.eval_binary(l, *op, r).map(Cow::Owned),
            Bound::IsNull(expr, negated) => {
                let v = self.eval_cow(expr)?;
                owned(Value::Bool(v.is_null() != *negated))
            }
            Bound::Like(expr, pattern, negated) => {
                let v = self.eval_cow(expr)?;
                let p = self.eval_cow(pattern)?;
                if v.is_null() || p.is_null() {
                    return owned(Value::Null);
                }
                let s = v
                    .as_text()
                    .ok_or_else(|| DbError::Eval("LIKE expects strings".into()))?;
                let pat = p
                    .as_text()
                    .ok_or_else(|| DbError::Eval("LIKE pattern must be a string".into()))?;
                owned(Value::Bool(like_match(s, pat) != *negated))
            }
            Bound::InList(expr, list, negated) => {
                let v = self.eval_cow(expr)?;
                if v.is_null() {
                    return owned(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = self.eval_cow(item)?;
                    if w.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.sql_cmp(&w) == Some(Ordering::Equal) {
                        return owned(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    // x IN (..., NULL) is UNKNOWN when no match was found.
                    owned(Value::Null)
                } else {
                    owned(Value::Bool(*negated))
                }
            }
            Bound::Between(expr, lo, hi, negated) => {
                let v = self.eval_cow(expr)?;
                let lo = self.eval_cow(lo)?;
                let hi = self.eval_cow(hi)?;
                let ge = match v.sql_cmp(&lo) {
                    Some(o) => o != Ordering::Less,
                    None => return owned(Value::Null),
                };
                let le = match v.sql_cmp(&hi) {
                    Some(o) => o != Ordering::Greater,
                    None => return owned(Value::Null),
                };
                owned(Value::Bool((ge && le) != *negated))
            }
            Bound::Call(f, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_cow(a).map(Cow::into_owned))
                    .collect::<Result<_>>()?;
                f(&vals).map(Cow::Owned)
            }
        }
    }

    fn eval_binary(&self, l: &Bound, op: BinaryOp, r: &Bound) -> Result<Value> {
        // Logical operators get SQL 3VL short-circuit treatment.
        if op == BinaryOp::And {
            let lv = truth(&*self.eval_cow(l)?);
            if lv == Some(false) {
                return Ok(Value::Bool(false));
            }
            let rv = truth(&*self.eval_cow(r)?);
            return Ok(match (lv, rv) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        if op == BinaryOp::Or {
            let lv = truth(&*self.eval_cow(l)?);
            if lv == Some(true) {
                return Ok(Value::Bool(true));
            }
            let rv = truth(&*self.eval_cow(r)?);
            return Ok(match (lv, rv) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        let lv = self.eval_cow(l)?;
        let rv = self.eval_cow(r)?;
        match op {
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let ord = match lv.sql_cmp(&rv) {
                    Some(o) => o,
                    None => {
                        if lv.is_null() || rv.is_null() {
                            return Ok(Value::Null);
                        }
                        return Err(DbError::Type(format!(
                            "cannot compare {} with {}",
                            lv.type_name(),
                            rv.type_name()
                        )));
                    }
                };
                let b = match op {
                    BinaryOp::Eq => ord == Ordering::Equal,
                    BinaryOp::NotEq => ord != Ordering::Equal,
                    BinaryOp::Lt => ord == Ordering::Less,
                    BinaryOp::LtEq => ord != Ordering::Greater,
                    BinaryOp::Gt => ord == Ordering::Greater,
                    BinaryOp::GtEq => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
            BinaryOp::Concat => {
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Str(format!("{lv}{rv}")))
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                arith(&lv, op, &rv)
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        }
    }
}

fn arith(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral; anything else is double.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(*b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinaryOp::Div => {
                if *b == 0 {
                    return Err(DbError::Eval("division by zero".into()));
                }
                Value::Int(a / b)
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    return Err(DbError::Eval("division by zero".into()));
                }
                Value::Int(a % b)
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.numeric(), r.numeric()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(DbError::Type(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            )))
        }
    };
    Ok(match op {
        BinaryOp::Add => Value::Double(a + b),
        BinaryOp::Sub => Value::Double(a - b),
        BinaryOp::Mul => Value::Double(a * b),
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            Value::Double(a / b)
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            Value::Double(a % b)
        }
        _ => unreachable!(),
    })
}

/// SQL truth of a value: `Some(bool)` or `None` for UNKNOWN.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        // Any other value in a boolean position is an error elsewhere;
        // treating non-empty as true would mask bugs, so be strict.
        _ => None,
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Matching is case-sensitive, per the standard.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut s, mut p) = (s.chars(), pattern.chars());
    // Where a mismatch resumes: the pattern just past the latest `%`
    // and the text that `%` has not swallowed yet. Earlier `%`s never
    // need revisiting — whatever they could absorb, the latest one can.
    let mut retry: Option<(std::str::Chars, std::str::Chars)> = None;
    loop {
        let (mut p_next, mut s_next) = (p.clone(), s.clone());
        let matched = match (p_next.next(), s_next.next()) {
            (None, None) => return true,
            (Some('%'), _) => {
                p = p_next;
                retry = Some((p.clone(), s.clone()));
                continue;
            }
            (Some(pc), Some(sc)) => pc == '_' || pc == sc,
            // The pattern since the latest `%` needs more text than is
            // left, and swallowing more only leaves less.
            (Some(_), None) => return false,
            (None, Some(_)) => false,
        };
        if matched {
            (p, s) = (p_next, s_next);
            continue;
        }
        // The latest `%` swallows one more character; the mismatch was
        // at or after its text, so there is one.
        let Some((after, rest)) = &mut retry else {
            return false;
        };
        rest.next();
        (p, s) = (after.clone(), rest.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Expr as E;
    use crate::sql::ast::{SelectItem, Stmt};
    use crate::sql::parse;

    /// The expression of `SELECT <sql_expr>`.
    fn expr_of(sql_expr: &str) -> Result<Expr> {
        match parse(&format!("SELECT {sql_expr}"))? {
            Stmt::Select(s) => match s.items.into_iter().next().unwrap() {
                SelectItem::Expr { expr, .. } => Ok(expr),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    fn eval_str(sql_expr: &str) -> Result<Value> {
        // Parse `SELECT <expr>` and evaluate against an empty row.
        let fns = FnRegistry::with_builtins();
        let bound = RowSchema::default().bind(&expr_of(sql_expr)?, &fns, &[])?;
        EvalContext::new(&[], &[]).eval(&bound)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Double(3.5));
        assert_eq!(eval_str("7 % 4").unwrap(), Value::Int(3));
        assert_eq!(eval_str("-(3 - 5)").unwrap(), Value::Int(2));
        assert!(eval_str("1 / 0").is_err());
        assert!(eval_str("1.5 % 0").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("1 < NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("'a' || NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("TRUE AND NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("FALSE AND NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("TRUE OR NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("FALSE OR NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT FALSE").unwrap(), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("2 >= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 <> 3").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' < 'abd'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 = 2.0").unwrap(), Value::Bool(true));
        assert!(eval_str("'a' > 1").is_err(), "incomparable non-null types");
    }

    #[test]
    fn concat() {
        assert_eq!(
            eval_str("'tur' || 'bulence'").unwrap(),
            Value::Str("turbulence".into())
        );
        assert_eq!(eval_str("'v' || 42").unwrap(), Value::Str("v42".into()));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("turbulence", "%bul%"));
        assert!(like_match("turbulence", "tur%"));
        assert!(like_match("turbulence", "%ence"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("S19990110150932", "S1999%"));
        assert!(!like_match("ABC", "abc"), "case-sensitive");
        assert!(like_match("aaa", "%%a%"));
    }

    /// Apart from the rest: the test macro names `Result` itself.
    mod like_oracle {
        use crate::expr::like_match;

        /// The matcher this module used before: it retries every split
        /// point of every `%`. Kept as the oracle for the iterative one.
        fn like_match_recursive(s: &str, pattern: &str) -> bool {
            fn rec(s: &[char], p: &[char]) -> bool {
                match p.first() {
                    None => s.is_empty(),
                    Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
                    Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                    Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
                }
            }
            let sc: Vec<char> = s.chars().collect();
            let pc: Vec<char> = pattern.chars().collect();
            rec(&sc, &pc)
        }

        proptest::proptest! {
            #[test]
            fn iterative_agrees_with_recursive(s in "[abé%_]{0,10}", p in "[abé%_]{0,7}") {
                proptest::prop_assert!(
                    like_match(&s, &p) == like_match_recursive(&s, &p),
                    "{s:?} LIKE {p:?}"
                );
            }
        }
    }

    #[test]
    fn like_via_eval() {
        assert_eq!(
            eval_str("'Channel flow' LIKE '%flow'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("'x' NOT LIKE 'y%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL LIKE '%'").unwrap(), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_str("2 IN (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("5 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("5 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        // NULL in the list makes a non-match UNKNOWN.
        assert_eq!(eval_str("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("1 IN (1, NULL)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_semantics() {
        assert_eq!(eval_str("5 BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("0 BETWEEN 1 AND 10").unwrap(), Value::Bool(false));
        assert_eq!(
            eval_str("0 NOT BETWEEN 1 AND 10").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("5 BETWEEN NULL AND 10").unwrap(), Value::Null);
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(eval_str("LENGTH('abc')").unwrap(), Value::Int(3));
        assert_eq!(eval_str("UPPER('abc')").unwrap(), Value::Str("ABC".into()));
        assert_eq!(eval_str("LOWER('ABC')").unwrap(), Value::Str("abc".into()));
        assert_eq!(
            eval_str("SUBSTR('turbulence', 4, 3)").unwrap(),
            Value::Str("bul".into())
        );
        assert_eq!(
            eval_str("SUBSTR('abc', 2)").unwrap(),
            Value::Str("bc".into())
        );
        assert_eq!(eval_str("ABS(-4)").unwrap(), Value::Int(4));
        assert_eq!(eval_str("ROUND(2.6)").unwrap(), Value::Double(3.0));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(eval_str("TRIM('  x ')").unwrap(), Value::Str("x".into()));
        assert_eq!(eval_str("LENGTH(NULL)").unwrap(), Value::Null);
        assert!(eval_str("NO_SUCH_FN(1)").is_err());
        assert!(eval_str("LENGTH(1, 2)").is_err());
    }

    #[test]
    fn column_resolution() {
        let schema = RowSchema {
            columns: vec![
                ColumnRef {
                    table: Some("S".into()),
                    name: "KEY".into(),
                },
                ColumnRef {
                    table: Some("A".into()),
                    name: "KEY".into(),
                },
                ColumnRef {
                    table: Some("A".into()),
                    name: "NAME".into(),
                },
            ],
        };
        assert_eq!(schema.resolve(Some("s"), "key").unwrap(), 0);
        assert_eq!(schema.resolve(Some("A"), "KEY").unwrap(), 1);
        assert_eq!(schema.resolve(None, "NAME").unwrap(), 2);
        assert!(schema.resolve(None, "KEY").is_err(), "ambiguous");
        assert!(schema.resolve(None, "MISSING").is_err());
    }

    #[test]
    fn column_eval_and_params() {
        let schema = RowSchema::for_table("T", &["A".into(), "B".into()]);
        let fns = FnRegistry::with_builtins();
        let row = vec![Value::Int(10), Value::Str("x".into())];
        let params = vec![Value::Int(10)];
        let ctx = EvalContext::new(&row, &params);
        let e = E::Binary(
            Box::new(E::Column {
                table: None,
                name: "A".into(),
            }),
            BinaryOp::Eq,
            Box::new(E::Param(1)),
        );
        let bound = schema.bind(&e, &fns, &[]).unwrap();
        assert_eq!(ctx.eval(&bound).unwrap(), Value::Bool(true));
        assert!(ctx.eval(&Bound::Param(2)).is_err(), "missing param");
    }

    /// Binding is where names fail: what does not bind is the error of
    /// the whole expression, whether or not evaluation would have reached
    /// it; an aggregate call bound inside a group reads the group's value
    /// by position.
    #[test]
    fn binding_raises_errors_and_numbers_aggregates() {
        let schema = RowSchema::for_table("T", &["A".into(), "B".into()]);
        let fns = FnRegistry::with_builtins();
        let row = [Value::Int(1), Value::Int(5)];
        let run = |sql: &str, aggs: &[Expr], values: Option<&[Value]>| {
            let bound = schema
                .bind(&expr_of(sql).unwrap(), &fns, aggs)
                .map_err(|e| e.to_string())?;
            let ctx = EvalContext {
                aggs: values,
                ..EvalContext::new(&row, &[])
            };
            ctx.eval(&bound).map_err(|e| e.to_string())
        };
        assert_eq!(run("A + B", &[], None), Ok(Value::Int(6)));
        for (sql, raised) in [
            ("nope = 1", "unknown column NOPE"),
            ("A < 0 AND nope = 1", "unknown column NOPE"),
            ("A = 1 OR t.nope", "unknown column T.NOPE"),
            ("NO_SUCH(A)", "unknown function NO_SUCH"),
            ("COUNT(*) + 1", "COUNT(*) is only valid as an aggregate"),
        ] {
            assert_eq!(
                run(sql, &[], None),
                Err(format!("evaluation error: {raised}"))
            );
        }
        let aggs = [expr_of("COUNT(*)").unwrap(), expr_of("SUM(B)").unwrap()];
        let values = [Value::Int(4), Value::Int(20)];
        let grouped = run("SUM(B) / COUNT(*) + A", &aggs, Some(&values));
        assert_eq!(grouped, Ok(Value::Int(6)));
        // A call the group does not answer is the error it always was.
        let unknown = run("MAX(B)", &aggs, Some(&values));
        assert_eq!(
            unknown,
            Err("evaluation error: unknown function MAX".into())
        );
    }
}
