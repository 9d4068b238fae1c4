//! Recursive-descent parser.

use super::ast::*;
use super::lexer::{lex, lex_at, Sym, Token};
use crate::error::{DbError, Result};
use crate::schema::DatalinkSpec;
use crate::value::{SqlType, Value};

/// How high an expression tree may stand: each operator node adds a
/// level (each link of a binary chain, a prefix `NOT` or `-`, a
/// predicate, a function call). It bounds every walk of the tree: bind,
/// plan, eval, render and drop. The parser itself may nest twice as
/// deep (each parenthesis, list item, prefix operand and right operand
/// opens a level), which is what the text [`crate::sql::expr_to_sql`]
/// renders for a tree at the budget needs. DESIGN.md "Nesting budgets"
/// gives the stack a level costs.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parse one SQL statement (an optional trailing `;` is allowed). An
/// expression nested deeper than the budget (`MAX_DEPTH`) is a parse
/// error naming the byte offset of the token where the budget ran out.
pub fn parse(sql: &str) -> Result<Stmt> {
    let tokens = lex(sql)?;
    let mut p = P {
        sql,
        toks: tokens,
        i: 0,
        params: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.accept_sym(Sym::Semicolon);
    if !p.at_end() {
        return Err(DbError::Parse(format!(
            "trailing input after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

struct P<'a> {
    sql: &'a str,
    toks: Vec<Token>,
    i: usize,
    params: usize,
    /// Expressions open at the cursor (calls of `climb`).
    depth: usize,
}

impl P<'_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn at_end(&self) -> bool {
        self.i >= self.toks.len()
    }

    /// Consume the token at the cursor, moved out of the token list: the
    /// cursor never steps back, so nothing reads it there again.
    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get_mut(self.i)?;
        self.i += 1;
        Some(std::mem::replace(t, Token::Symbol(Sym::Semicolon)))
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let at = match self.peek() {
            Some(t) => format!("{t:?}"),
            None => "end of input".into(),
        };
        Err(DbError::Parse(format!("{} (at {at})", msg.into())))
    }

    /// Consume a keyword (case-folded identifier) if it matches.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(w)) if w == kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}"))
        }
    }

    fn accept_sym(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(x)) if *x == s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.accept_sym(s) {
            Ok(())
        } else {
            self.err(format!("expected '{s}'"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(w)) => Ok(w),
            other => Err(DbError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(w)) if w == kw)
    }

    fn statement(&mut self) -> Result<Stmt> {
        if self.peek_kw("SELECT") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.accept_kw("INSERT") {
            return self.insert();
        }
        if self.accept_kw("UPDATE") {
            return self.update();
        }
        if self.accept_kw("DELETE") {
            return self.delete();
        }
        if self.accept_kw("CREATE") {
            if self.accept_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.accept_kw("UNIQUE");
            self.expect_kw("INDEX")?;
            return self.create_index(unique);
        }
        if self.accept_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Stmt::DropTable { name });
        }
        if self.accept_kw("BEGIN") {
            self.accept_kw("TRANSACTION");
            self.accept_kw("WORK");
            return Ok(Stmt::Begin);
        }
        if self.accept_kw("COMMIT") {
            self.accept_kw("WORK");
            return Ok(Stmt::Commit);
        }
        if self.accept_kw("ROLLBACK") {
            self.accept_kw("WORK");
            return Ok(Stmt::Rollback);
        }
        self.err("expected a statement")
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.accept_kw("DISTINCT");
        if distinct {
            // allow `DISTINCT` only; `ALL` explicitly resets it
        } else {
            self.accept_kw("ALL");
        }
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.accept_kw("FROM") {
            from = Some(self.table_ref()?);
            loop {
                let kind = if self.accept_kw("INNER") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.accept_kw("LEFT") {
                    self.accept_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.accept_kw("JOIN") {
                    JoinKind::Inner
                } else {
                    break;
                };
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push(Join { kind, table, on });
            }
        }
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.accept_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.accept_kw("DESC") {
                    false
                } else {
                    self.accept_kw("ASC");
                    true
                };
                order_by.push(OrderBy { expr, asc });
                if !self.accept_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.accept_kw("LIMIT") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(DbError::Parse(format!("bad LIMIT: {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.accept_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `table.*`
        if let (
            Some(Token::Ident(t)),
            Some(Token::Symbol(Sym::Dot)),
            Some(Token::Symbol(Sym::Star)),
        ) = (
            self.toks.get(self.i),
            self.toks.get(self.i + 1),
            self.toks.get(self.i + 2),
        ) {
            let t = t.clone();
            self.i += 3;
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.expr()?;
        let alias = if self.accept_kw("AS") {
            Some(self.ident()?)
        } else {
            // Bare alias (ident not followed by a clause keyword).
            match self.peek() {
                Some(Token::Ident(w)) if !is_clause_keyword(w) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = match self.peek() {
            Some(Token::Ident(w)) if w == "AS" => {
                self.i += 1;
                Some(self.ident()?)
            }
            Some(Token::Ident(w)) if !is_clause_keyword(w) => Some(self.ident()?),
            _ => None,
        };
        Ok(TableRef { name, alias })
    }

    fn insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.accept_sym(Sym::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.accept_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.accept_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Stmt> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Stmt> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete {
            table,
            where_clause,
        })
    }

    fn create_index(&mut self, unique: bool) -> Result<Stmt> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Stmt::CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn create_table(&mut self) -> Result<Stmt> {
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.peek_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                constraints.push(TableConstraint::PrimaryKey(self.paren_name_list()?));
            } else if self.peek_kw("FOREIGN") {
                self.bump();
                self.expect_kw("KEY")?;
                let cols = self.paren_name_list()?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.ident()?;
                let ref_columns = self.paren_name_list()?;
                constraints.push(TableConstraint::ForeignKey {
                    columns: cols,
                    ref_table,
                    ref_columns,
                });
            } else if self.peek_kw("UNIQUE") {
                self.bump();
                constraints.push(TableConstraint::Unique(self.paren_name_list()?));
            } else {
                columns.push(self.column_def()?);
            }
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn paren_name_list(&mut self) -> Result<Vec<String>> {
        self.expect_sym(Sym::LParen)?;
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(names)
    }

    fn column_def(&mut self) -> Result<ColumnDefAst> {
        let name = self.ident()?;
        let ty = self.sql_type()?;
        let mut def = ColumnDefAst {
            name,
            ty,
            not_null: false,
            primary_key: false,
            unique: false,
            references: None,
            datalink: if ty == SqlType::Datalink {
                Some(DatalinkSpec::default())
            } else {
                None
            },
        };
        if ty == SqlType::Datalink {
            def.datalink = Some(self.datalink_options()?);
        }
        loop {
            if self.accept_kw("NOT") {
                self.expect_kw("NULL")?;
                def.not_null = true;
            } else if self.accept_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
            } else if self.accept_kw("UNIQUE") {
                def.unique = true;
            } else if self.accept_kw("REFERENCES") {
                let t = self.ident()?;
                self.expect_sym(Sym::LParen)?;
                let c = self.ident()?;
                self.expect_sym(Sym::RParen)?;
                def.references = Some((t, c));
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn sql_type(&mut self) -> Result<SqlType> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => SqlType::Integer,
            "DOUBLE" | "FLOAT" | "REAL" => {
                self.accept_kw("PRECISION");
                SqlType::Double
            }
            "VARCHAR" | "CHAR" | "CHARACTER" => {
                let mut n = 255usize;
                if self.accept_sym(Sym::LParen) {
                    match self.bump() {
                        Some(Token::Int(v)) if v > 0 => n = v as usize,
                        other => return Err(DbError::Parse(format!("bad length: {other:?}"))),
                    }
                    self.expect_sym(Sym::RParen)?;
                }
                SqlType::Varchar(n)
            }
            "BOOLEAN" | "BOOL" => SqlType::Boolean,
            "TIMESTAMP" | "DATE" => SqlType::Timestamp,
            "BLOB" => SqlType::Blob,
            "CLOB" | "TEXT" => SqlType::Clob,
            "DATALINK" => SqlType::Datalink,
            other => return Err(DbError::Parse(format!("unknown type {other}"))),
        })
    }

    /// Parse SQL/MED DATALINK options:
    /// `LINKTYPE URL`, `[NO] FILE LINK CONTROL`, `INTEGRITY ALL|NONE`,
    /// `READ PERMISSION DB|FS`, `WRITE PERMISSION BLOCKED|FS`,
    /// `RECOVERY YES|NO`, `ON UNLINK RESTORE|DELETE`.
    fn datalink_options(&mut self) -> Result<DatalinkSpec> {
        let mut spec = DatalinkSpec::default();
        loop {
            if self.accept_kw("LINKTYPE") {
                self.expect_kw("URL")?;
            } else if self.accept_kw("NO") {
                self.expect_kw("FILE")?;
                self.expect_kw("LINK")?;
                self.expect_kw("CONTROL")?;
                spec = DatalinkSpec::uncontrolled();
            } else if self.accept_kw("FILE") {
                self.expect_kw("LINK")?;
                self.expect_kw("CONTROL")?;
                spec.file_link_control = true;
            } else if self.accept_kw("INTEGRITY") {
                if self.accept_kw("ALL") {
                    spec.integrity_all = true;
                } else if self.accept_kw("NONE") {
                    spec.integrity_all = false;
                } else {
                    return self.err("expected ALL or NONE after INTEGRITY");
                }
            } else if self.accept_kw("READ") {
                self.expect_kw("PERMISSION")?;
                if self.accept_kw("DB") {
                    spec.read_permission_db = true;
                } else if self.accept_kw("FS") {
                    spec.read_permission_db = false;
                } else {
                    return self.err("expected DB or FS after READ PERMISSION");
                }
            } else if self.accept_kw("WRITE") {
                self.expect_kw("PERMISSION")?;
                if self.accept_kw("BLOCKED") {
                    spec.write_permission_blocked = true;
                } else if self.accept_kw("FS") {
                    spec.write_permission_blocked = false;
                } else {
                    return self.err("expected BLOCKED or FS after WRITE PERMISSION");
                }
            } else if self.accept_kw("RECOVERY") {
                if self.accept_kw("YES") {
                    spec.recovery = true;
                } else if self.accept_kw("NO") {
                    spec.recovery = false;
                } else {
                    return self.err("expected YES or NO after RECOVERY");
                }
            } else if self.accept_kw("ON") {
                self.expect_kw("UNLINK")?;
                if self.accept_kw("RESTORE") {
                    spec.on_unlink_restore = true;
                } else if self.accept_kw("DELETE") {
                    spec.on_unlink_restore = false;
                } else {
                    return self.err("expected RESTORE or DELETE after ON UNLINK");
                }
            } else {
                break;
            }
        }
        Ok(spec)
    }

    // ---- expressions: one precedence loop ----

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.climb(0)?.0)
    }

    /// The expression at the cursor built from operators that bind at
    /// least as tight as `min`, and its height. Binding powers, loosest
    /// first: OR 1, AND 2, prefix NOT 3, a predicate 4 (a comparison,
    /// IS, LIKE, IN or BETWEEN: one per operand, they do not chain),
    /// `+ - ||` 5, `* / %` 6, prefix `-` and `+` 7.
    fn climb(&mut self, min: u8) -> Result<(Expr, usize)> {
        let at = self.i;
        if self.depth == 2 * MAX_DEPTH {
            return Err(self.too_deep(at));
        }
        self.depth += 1;
        let (mut lhs, mut height, mut level) = if min <= 3 && self.accept_kw("NOT") {
            let (e, h) = self.climb(3)?;
            self.node(at, Expr::Unary(UnaryOp::Not, Box::new(e)), h, 3)?
        } else if self.accept_sym(Sym::Minus) {
            let (e, h) = self.climb(7)?;
            self.node(at, Expr::Unary(UnaryOp::Neg, Box::new(e)), h, 7)?
        } else if self.accept_sym(Sym::Plus) {
            let (e, h) = self.climb(7)?;
            (e, h, 7)
        } else {
            let (e, h) = self.primary()?;
            (e, h, 7)
        };
        while let Some((bp, op)) = self.infix() {
            // A predicate takes an operand with no predicate in it.
            if bp < min || level < bp || (level == 4 && bp == 4) {
                break;
            }
            let at = self.i;
            (lhs, height, level) = match op {
                Some(op) => {
                    self.i += 1;
                    self.link(at, lhs, height, op, bp)?
                }
                None => self.predicate(at, lhs, height)?,
            };
        }
        self.depth -= 1;
        Ok((lhs, height))
    }

    /// The operator at the cursor: its binding power, and the binary
    /// operator it is (`None` for a predicate's keyword).
    fn infix(&self) -> Option<(u8, Option<BinaryOp>)> {
        use BinaryOp::*;
        let bp = match self.peek()? {
            Token::Ident(w) => match w.as_str() {
                "OR" => (1, Some(Or)),
                "AND" => (2, Some(And)),
                "IS" | "NOT" | "LIKE" | "IN" | "BETWEEN" => (4, None),
                _ => return None,
            },
            Token::Symbol(s) => match s {
                Sym::Eq => (4, Some(Eq)),
                Sym::NotEq => (4, Some(NotEq)),
                Sym::Lt => (4, Some(Lt)),
                Sym::LtEq => (4, Some(LtEq)),
                Sym::Gt => (4, Some(Gt)),
                Sym::GtEq => (4, Some(GtEq)),
                Sym::Plus => (5, Some(Add)),
                Sym::Minus => (5, Some(Sub)),
                Sym::Concat => (5, Some(Concat)),
                Sym::Star => (6, Some(Mul)),
                Sym::Slash => (6, Some(Div)),
                Sym::Percent => (6, Some(Mod)),
                _ => return None,
            },
            _ => return None,
        };
        Some(bp)
    }

    /// `lhs op rhs`, the operator at token `at` and of binding power
    /// `bp`: a comparison takes an additive operand, the others bind
    /// their right operand one level tighter (left associative).
    fn link(
        &mut self,
        at: usize,
        lhs: Expr,
        height: usize,
        op: BinaryOp,
        bp: u8,
    ) -> Result<(Expr, usize, u8)> {
        let (rhs, h) = self.climb(bp + 1)?;
        let e = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        self.node(at, e, height.max(h), bp)
    }

    /// The predicate at token `at` after operand `lhs`: `IS [NOT]
    /// NULL`, `[NOT] LIKE`, `[NOT] IN (...)` or `[NOT] BETWEEN ... AND
    /// ...`.
    fn predicate(&mut self, at: usize, lhs: Expr, height: usize) -> Result<(Expr, usize, u8)> {
        let expr = Box::new(lhs);
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return self.node(at, Expr::IsNull { expr, negated }, height, 4);
        }
        let negated = self.accept_kw("NOT");
        let word = ["LIKE", "IN", "BETWEEN"]
            .into_iter()
            .find(|&w| self.accept_kw(w));
        let Some(word) = word else {
            return self.err("expected LIKE, IN or BETWEEN after NOT");
        };
        let (e, below) = match word {
            "LIKE" => {
                let (pattern, h) = self.climb(5)?;
                let pattern = Box::new(pattern);
                (
                    Expr::Like {
                        expr,
                        pattern,
                        negated,
                    },
                    h,
                )
            }
            "IN" => {
                self.expect_sym(Sym::LParen)?;
                let (list, h) = self.list()?;
                (
                    Expr::InList {
                        expr,
                        list,
                        negated,
                    },
                    h,
                )
            }
            _ => {
                let (lo, h1) = self.climb(5)?;
                self.expect_kw("AND")?;
                let (hi, h2) = self.climb(5)?;
                let (lo, hi) = (Box::new(lo), Box::new(hi));
                (
                    Expr::Between {
                        expr,
                        lo,
                        hi,
                        negated,
                    },
                    h1.max(h2),
                )
            }
        };
        self.node(at, e, height.max(below), 4)
    }

    /// The comma-separated expressions up to a closing parenthesis, and
    /// the height of the highest.
    fn list(&mut self) -> Result<(Vec<Expr>, usize)> {
        let (mut list, mut height) = (Vec::new(), 0);
        loop {
            let (e, h) = self.climb(0)?;
            list.push(e);
            height = height.max(h);
            if !self.accept_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok((list, height))
    }

    /// Operator node `e` (token `at`, binding power `bp`) over children
    /// at most `below` high, or the budget's error when it would stand
    /// higher than [`MAX_DEPTH`].
    fn node(&self, at: usize, e: Expr, below: usize, bp: u8) -> Result<(Expr, usize, u8)> {
        if below >= MAX_DEPTH {
            return Err(self.too_deep(at));
        }
        Ok((e, below + 1, bp))
    }

    /// The budget's error, naming the byte offset of token `at`.
    fn too_deep(&self, at: usize) -> DbError {
        let (mut k, mut start) = (0, None);
        let _ = lex_at(self.sql, |b| {
            start = (k == at).then_some(b);
            k += 1;
            k <= at
        });
        let byte = start.unwrap_or(self.sql.len());
        DbError::Parse(format!(
            "expression nested deeper than {MAX_DEPTH} at byte {byte}"
        ))
    }

    /// A literal, `?`, column, function call or parenthesised
    /// expression, and its height.
    fn primary(&mut self) -> Result<(Expr, usize)> {
        let at = self.i;
        let leaf = match self.bump() {
            Some(Token::Int(v)) => Expr::Literal(Value::Int(v)),
            Some(Token::Number(v)) => Expr::Literal(Value::Double(v)),
            Some(Token::Str(s)) => Expr::Literal(Value::Str(s)),
            Some(Token::Symbol(Sym::Question)) => {
                self.params += 1;
                Expr::Param(self.params)
            }
            Some(Token::Symbol(Sym::LParen)) => {
                let e = self.climb(0)?;
                self.expect_sym(Sym::RParen)?;
                return Ok(e);
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "NULL" => Expr::Literal(Value::Null),
                "TRUE" => Expr::Literal(Value::Bool(true)),
                "FALSE" => Expr::Literal(Value::Bool(false)),
                // Function call?
                _ if self.accept_sym(Sym::LParen) => {
                    let star = self.accept_sym(Sym::Star);
                    if star {
                        self.expect_sym(Sym::RParen)?;
                    }
                    let (args, h) = match star || self.accept_sym(Sym::RParen) {
                        true => (Vec::new(), 0),
                        false => self.list()?,
                    };
                    let e = Expr::Function {
                        name: word,
                        args,
                        star,
                    };
                    return self.node(at, e, h, 7).map(|(e, h, _)| (e, h));
                }
                // Qualified column?
                _ if self.accept_sym(Sym::Dot) => Expr::Column {
                    table: Some(word),
                    name: self.ident()?,
                },
                _ => Expr::Column {
                    table: None,
                    name: word,
                },
            },
            other => return Err(DbError::Parse(format!("unexpected token {other:?}"))),
        };
        Ok((leaf, 1))
    }
}

fn is_clause_keyword(w: &str) -> bool {
    matches!(
        w,
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "ON"
            | "AND"
            | "OR"
            | "AS"
            | "SET"
            | "VALUES"
            | "UNION"
            | "ASC"
            | "DESC"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::expr_to_sql;

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT * FROM simulation");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from.unwrap().name, "SIMULATION");
    }

    #[test]
    fn qbe_style_select() {
        let s = sel("SELECT TITLE, AUTHOR_KEY FROM SIMULATION \
             WHERE TITLE LIKE '%turbulence%' AND GRID_SIZE >= 256 \
             ORDER BY TITLE DESC LIMIT 10");
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].asc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn joins() {
        let s = sel("SELECT s.TITLE, a.NAME FROM SIMULATION s \
             JOIN AUTHOR a ON s.AUTHOR_KEY = a.AUTHOR_KEY \
             LEFT JOIN RESULT_FILE r ON r.SIMULATION_KEY = s.SIMULATION_KEY");
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert_eq!(s.from.unwrap().alias.as_deref(), Some("S"));
    }

    #[test]
    fn aggregates_and_grouping() {
        let s = sel(
            "SELECT AUTHOR_KEY, COUNT(*), MAX(GRID_SIZE) FROM SIMULATION \
             GROUP BY AUTHOR_KEY HAVING COUNT(*) > 1",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Function { name, star, .. },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(*star);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let st =
            parse("INSERT INTO author (author_key, name) VALUES ('A1', 'Mark'), ('A2', 'Jasmin')")
                .unwrap();
        match st {
            Stmt::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "AUTHOR");
                assert_eq!(columns, vec!["AUTHOR_KEY", "NAME"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = 1, b = 'x' WHERE k = 2").unwrap(),
            Stmt::Update { sets, .. } if sets.len() == 2
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a IS NOT NULL").unwrap(),
            Stmt::Delete { .. }
        ));
    }

    #[test]
    fn create_table_with_datalink() {
        let st = parse(
            "CREATE TABLE result_file (
                file_name VARCHAR(100) NOT NULL,
                simulation_key VARCHAR(30) REFERENCES simulation(simulation_key),
                file_size INTEGER,
                download_result DATALINK LINKTYPE URL FILE LINK CONTROL
                    INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
                    RECOVERY YES ON UNLINK RESTORE,
                PRIMARY KEY (file_name, simulation_key)
            )",
        )
        .unwrap();
        match st {
            Stmt::CreateTable {
                name,
                columns,
                constraints,
            } => {
                assert_eq!(name, "RESULT_FILE");
                assert_eq!(columns.len(), 4);
                let dl = columns[3].datalink.as_ref().unwrap();
                assert!(dl.file_link_control && dl.read_permission_db && dl.recovery);
                assert!(matches!(
                    &constraints[0],
                    TableConstraint::PrimaryKey(cols) if cols.len() == 2
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn datalink_no_link_control() {
        let st = parse("CREATE TABLE t (d DATALINK LINKTYPE URL NO FILE LINK CONTROL)").unwrap();
        match st {
            Stmt::CreateTable { columns, .. } => {
                let dl = columns[0].datalink.as_ref().unwrap();
                assert!(!dl.file_link_control);
                assert!(!dl.read_permission_db);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn foreign_key_constraint() {
        let st = parse(
            "CREATE TABLE r (a INTEGER, b INTEGER,
             FOREIGN KEY (a, b) REFERENCES s (x, y))",
        )
        .unwrap();
        match st {
            Stmt::CreateTable { constraints, .. } => match &constraints[0] {
                TableConstraint::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } => {
                    assert_eq!(columns, &vec!["A", "B"]);
                    assert_eq!(ref_table, "S");
                    assert_eq!(ref_columns, &vec!["X", "Y"]);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let s = sel("SELECT 1 + 2 * 3");
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Binary(_, BinaryOp::Add, rhs),
                ..
            } => assert!(matches!(**rhs, Expr::Binary(_, BinaryOp::Mul, _))),
            other => panic!("{other:?}"),
        }
        // AND binds tighter than OR.
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Binary(_, BinaryOp::Or, _)
        ));
    }

    #[test]
    fn predicates() {
        let s = sel("SELECT * FROM t WHERE a NOT LIKE 'x%' AND b IN (1,2) AND c BETWEEN 1 AND 5 AND d IS NULL");
        let mut likes = 0;
        let mut ins = 0;
        let mut betweens = 0;
        let mut nulls = 0;
        s.where_clause.unwrap().visit(&mut |e| {
            match e {
                Expr::Like { negated, .. } => {
                    assert!(negated);
                    likes += 1;
                }
                Expr::InList { .. } => ins += 1,
                Expr::Between { .. } => betweens += 1,
                Expr::IsNull { .. } => nulls += 1,
                _ => {}
            }
            true
        });
        assert_eq!((likes, ins, betweens, nulls), (1, 1, 1, 1));
    }

    #[test]
    fn params_numbered() {
        let s = sel("SELECT * FROM t WHERE a = ? AND b = ?");
        let mut params = Vec::new();
        s.where_clause.unwrap().visit(&mut |e| {
            if let Expr::Param(n) = e {
                params.push(*n);
            }
            true
        });
        assert_eq!(params, vec![1, 2]);
    }

    #[test]
    fn transactions() {
        assert_eq!(parse("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse("BEGIN TRANSACTION;").unwrap(), Stmt::Begin);
        assert_eq!(parse("COMMIT WORK").unwrap(), Stmt::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Stmt::Rollback);
    }

    #[test]
    fn create_index_stmt() {
        assert!(matches!(
            parse("CREATE UNIQUE INDEX idx_sim ON simulation (simulation_key)").unwrap(),
            Stmt::CreateIndex { unique: true, .. }
        ));
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra garbage garbage2").is_err());
        assert!(parse("FROB THE TABLE").is_err());
    }

    #[test]
    fn select_distinct() {
        assert!(sel("SELECT DISTINCT author_key FROM simulation").distinct);
    }

    #[test]
    fn table_less_select() {
        let s = sel("SELECT 1 + 1 AS two");
        assert!(s.from.is_none());
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { alias: Some(a), .. } if a == "TWO"
        ));
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT s.* FROM simulation s");
        assert_eq!(s.items, vec![SelectItem::QualifiedWildcard("S".into())]);
    }

    /// Each way to nest, with trees `d` high (the parenthesis shape: its
    /// parser as deep as such a tree may need), and the byte offset of
    /// the token where a budget of `d - 1` runs out: parentheses, NOT,
    /// an AND chain, a right-deep chain in parentheses, unary minus,
    /// function calls and an additive chain.
    fn nested(shape: usize, d: usize) -> (String, usize) {
        let w = "SELECT ID FROM T WHERE ".len();
        match shape {
            0 => {
                let (open, close) = ("(".repeat(2 * d - 1), ")".repeat(2 * d - 1));
                (
                    format!("SELECT ID FROM T WHERE {open}B{close}"),
                    w + 2 * d - 2,
                )
            }
            1 => (
                format!("SELECT ID FROM T WHERE {}B", "NOT ".repeat(d - 1)),
                w,
            ),
            2 => (
                format!("SELECT ID FROM T WHERE B{}", " AND B".repeat(d - 1)),
                w + 6 * d - 10,
            ),
            3 => {
                let (open, close) = ("B AND (".repeat(d - 1), ")".repeat(d - 1));
                (
                    format!("SELECT ID FROM T WHERE {open}B{close}"),
                    w + 7 * d - 7,
                )
            }
            4 => (format!("SELECT {}ID FROM T", "- ".repeat(d - 1)), 7),
            5 => (
                format!(
                    "SELECT {}ID{} FROM T",
                    "ABS(".repeat(d - 1),
                    ")".repeat(d - 1)
                ),
                7,
            ),
            _ => (
                format!("SELECT ID{} FROM T", " + 1".repeat(d - 1)),
                4 * d + 2,
            ),
        }
    }

    /// Every shape parses at the budget, renders to text that parses to
    /// the same tree, and executes, all on half a default thread stack
    /// in any profile; one level more is a parse error naming its byte.
    #[test]
    fn the_nesting_budget_is_exact_and_fits_half_a_default_stack() {
        let run = || {
            let mut db = crate::Database::new_in_memory();
            db.execute("CREATE TABLE T (ID INTEGER PRIMARY KEY, B BOOLEAN)")
                .unwrap();
            db.execute("INSERT INTO T VALUES (1, TRUE), (2, FALSE)")
                .unwrap();
            for shape in 0..7 {
                let (sql, _) = nested(shape, MAX_DEPTH);
                let s = sel(&sql);
                let again = match &s.where_clause {
                    Some(w) => format!("SELECT ID FROM T WHERE {}", expr_to_sql(w)),
                    None => {
                        let SelectItem::Expr { expr, .. } = &s.items[0] else {
                            panic!("{sql}")
                        };
                        format!("SELECT {} FROM T", expr_to_sql(expr))
                    }
                };
                assert_eq!(sel(&again), s, "{again}");
                let rs = db.execute(&sql).unwrap();
                assert!(!rs.rows.is_empty(), "{sql}");
                let (past, byte) = nested(shape, MAX_DEPTH + 1);
                let want = format!("expression nested deeper than {MAX_DEPTH} at byte {byte}");
                assert_eq!(parse(&past), Err(DbError::Parse(want)), "{past}");
            }
        };
        let thread = std::thread::Builder::new().stack_size(1 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }

    /// The budget bounds the probes that overflowed the stack before it:
    /// 1,000 parentheses, and 10,000 AND links, which parsed but could
    /// not be executed.
    #[test]
    fn deep_statements_are_refused_before_any_walk() {
        let parens = format!(
            "SELECT ID FROM T WHERE {}ID = ?{}",
            "(".repeat(1000),
            ")".repeat(1000)
        );
        let links = format!(
            "SELECT ID FROM T WHERE ID = 1{}",
            " AND ID = 1".repeat(10_000)
        );
        for sql in [parens, links] {
            let err = parse(&sql).unwrap_err();
            assert!(
                matches!(&err, DbError::Parse(m) if m.starts_with("expression nested deeper")),
                "{err}"
            );
        }
    }
}
