//! Render fixpoint: every expression the parser can build renders, by
//! `expr_to_sql`, to text that parses back to the same tree.
//!
//! Sites execute the predicates the hub renders, so a render bug is a
//! wrong answer at a site rather than an error. The generator covers
//! columns (bare and qualified) and `?`; non-negative integers, strings
//! quoting `'`, NULL and booleans, the literals a pushed predicate keeps;
//! every binary operator, NOT and negation; `IS [NOT] NULL`, `[NOT]
//! LIKE`, `[NOT] IN`, `[NOT] BETWEEN`; and function calls, `COUNT(*)`
//! among them. Trees stand up to the parser's nesting budget high: the
//! text rendered for a tree the parser accepted is text it accepts.

use easia_db::sql::ast::{BinaryOp, UnaryOp};
use easia_db::sql::{expr_to_sql, parse, Expr, Stmt};
use easia_db::Value;
use proptest::prelude::*;

/// The parser's nesting budget (`sql::parser::MAX_DEPTH`): the height
/// of the highest tree it builds.
const BUDGET: usize = 64;

const BINARY: [BinaryOp; 14] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
    BinaryOp::Concat,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::And,
    BinaryOp::Or,
];

/// xorshift64*: deterministic, so a failure names its case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

fn leaf(rng: &mut Rng) -> Expr {
    let text = |rng: &mut Rng| -> String {
        let chars = ['a', 'Z', ' ', '\'', '%', '_', 'é', '"', ';', '-'];
        (0..rng.below(6))
            .map(|_| chars[rng.below(chars.len())])
            .collect()
    };
    match rng.below(10) {
        0 => Expr::Column {
            table: None,
            name: ["A", "B", "X1", "LONG_NAME"][rng.below(4)].into(),
        },
        1 => Expr::Column {
            table: Some("T".into()),
            name: "C".into(),
        },
        2 => Expr::Param(0),
        3 => Expr::Literal(Value::Int(rng.below(1000) as i64)),
        4 => Expr::Literal(Value::Int(i64::MAX - rng.below(3) as i64)),
        5 => Expr::Literal(Value::Str(text(rng))),
        6 => Expr::Literal(Value::Null),
        7 => Expr::Literal(Value::Bool(rng.below(2) == 0)),
        8 => Expr::Function {
            name: "COUNT".into(),
            args: vec![],
            star: true,
        },
        _ => Expr::Function {
            name: "NOW".into(),
            args: vec![],
            star: false,
        },
    }
}

/// A tree exactly `height` high: one child carries the height down, the
/// others are at most two high, so that deep trees stay small.
fn tree(rng: &mut Rng, height: usize) -> Expr {
    if height <= 1 {
        return leaf(rng);
    }
    let kind = rng.below(8);
    let kids = match kind {
        0 | 4 => 2,
        1..=3 => 1,
        5 => 2 + rng.below(3),
        6 => 3,
        _ => 1 + rng.below(3),
    };
    let tall = rng.below(kids);
    let mut sub: Vec<Expr> = (0..kids)
        .map(|k| match k == tall {
            true => tree(rng, height - 1),
            false => {
                let low = 1 + rng.below(2.min(height - 1));
                tree(rng, low)
            }
        })
        .rev()
        .collect();
    let pop = |sub: &mut Vec<Expr>| Box::new(sub.pop().expect("a child per operand"));
    let negated = rng.below(2) == 0;
    match kind {
        0 => Expr::Binary(pop(&mut sub), BINARY[rng.below(14)], pop(&mut sub)),
        1 => Expr::Unary(UnaryOp::Not, pop(&mut sub)),
        2 => Expr::Unary(UnaryOp::Neg, pop(&mut sub)),
        3 => Expr::IsNull {
            expr: pop(&mut sub),
            negated,
        },
        4 => Expr::Like {
            expr: pop(&mut sub),
            pattern: pop(&mut sub),
            negated,
        },
        5 => {
            let expr = pop(&mut sub);
            sub.reverse();
            Expr::InList {
                expr,
                list: sub,
                negated,
            }
        }
        6 => Expr::Between {
            expr: pop(&mut sub),
            lo: pop(&mut sub),
            hi: pop(&mut sub),
            negated,
        },
        _ => {
            sub.reverse();
            Expr::Function {
                name: ["F", "UPPER", "COUNT", "SUBSTR"][rng.below(4)].into(),
                args: sub,
                star: false,
            }
        }
    }
}

/// Number the `?`s left to right, as the parser does.
fn number(e: &mut Expr, next: &mut usize) {
    match e {
        Expr::Param(n) => {
            *next += 1;
            *n = *next;
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary(_, x) | Expr::IsNull { expr: x, .. } => number(x, next),
        Expr::Binary(l, _, r)
        | Expr::Like {
            expr: l,
            pattern: r,
            ..
        } => {
            number(l, next);
            number(r, next);
        }
        Expr::InList { expr, list, .. } => {
            number(expr, next);
            list.iter_mut().for_each(|x| number(x, next));
        }
        Expr::Between { expr, lo, hi, .. } => {
            number(expr, next);
            number(lo, next);
            number(hi, next);
        }
        Expr::Function { args, .. } => args.iter_mut().for_each(|x| number(x, next)),
    }
}

fn height(e: &Expr) -> usize {
    let kids: Vec<&Expr> = match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => vec![],
        Expr::Unary(_, x) | Expr::IsNull { expr: x, .. } => vec![x],
        Expr::Binary(l, _, r)
        | Expr::Like {
            expr: l,
            pattern: r,
            ..
        } => vec![l, r],
        Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
        Expr::Between { expr, lo, hi, .. } => vec![expr, lo, hi],
        Expr::Function { args, .. } => args.iter().collect(),
    };
    1 + kids.into_iter().map(height).max().unwrap_or(0)
}

fn where_clause(sql: &str) -> Result<Expr, String> {
    match parse(sql).map_err(|e| e.to_string())? {
        Stmt::Select(s) => s.where_clause.ok_or_else(|| "no WHERE".into()),
        other => Err(format!("{other:?}")),
    }
}

proptest! {
    #[test]
    fn rendered_expressions_parse_to_themselves(seed in any::<u64>(), tall in 1usize..BUDGET + 1) {
        let mut rng = Rng(seed | 1);
        for round in 0..32 {
            // Most trees are low; each case has one at its drawn height.
            let h = if round == 0 { tall } else { 1 + rng.below(8) };
            let mut e = tree(&mut rng, h);
            number(&mut e, &mut 0);
            prop_assert!(height(&e) == h, "{} high, not {h}: {e:?}", height(&e));
            let text = expr_to_sql(&e);
            let back = where_clause(&format!("SELECT A FROM T WHERE {text}"));
            prop_assert!(back.as_ref() == Ok(&e), "{text}\n{e:?}\n{back:?}");
        }
    }
}
