//! Recursive-descent parser.

use super::ast::*;
use super::lexer::{lex, Sym, Token};
use crate::error::{DbError, Result};
use crate::schema::DatalinkSpec;
use crate::value::{SqlType, Value};

/// Parse one SQL statement (an optional trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Stmt> {
    let tokens = lex(sql)?;
    let mut p = P {
        toks: tokens,
        i: 0,
        params: 0,
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

struct P {
    toks: Vec<Token>,
    i: usize,
    params: usize,
}

impl P {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn at_end(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
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

    // ---- expressions: precedence climbing ----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.accept_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(Box::new(lhs), BinaryOp::Or, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.accept_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(Box::new(lhs), BinaryOp::And, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.accept_kw("NOT") {
            let e = self.not_expr()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(e)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // IS [NOT] NULL
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = self.accept_kw("NOT");
        if self.accept_kw("LIKE") {
            let pat = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pat),
                negated,
            });
        }
        if self.accept_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.accept_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.accept_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return self.err("expected LIKE, IN or BETWEEN after NOT");
        }
        // Comparison operators.
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinaryOp::Eq),
            Some(Token::Symbol(Sym::NotEq)) => Some(BinaryOp::NotEq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinaryOp::Lt),
            Some(Token::Symbol(Sym::LtEq)) => Some(BinaryOp::LtEq),
            Some(Token::Symbol(Sym::Gt)) => Some(BinaryOp::Gt),
            Some(Token::Symbol(Sym::GtEq)) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            return Ok(Expr::Binary(Box::new(lhs), op, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinaryOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinaryOp::Sub,
                Some(Token::Symbol(Sym::Concat)) => BinaryOp::Concat,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinaryOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinaryOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinaryOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.accept_sym(Sym::Minus) {
            let e = self.unary()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(e)));
        }
        if self.accept_sym(Sym::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Number(v)) => Ok(Expr::Literal(Value::Double(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Symbol(Sym::Question)) => {
                self.params += 1;
                Ok(Expr::Param(self.params))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "NULL" => Ok(Expr::Literal(Value::Null)),
                "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
                "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
                _ => {
                    // Function call?
                    if self.accept_sym(Sym::LParen) {
                        if self.accept_sym(Sym::Star) {
                            self.expect_sym(Sym::RParen)?;
                            return Ok(Expr::Function {
                                name: word,
                                args: vec![],
                                star: true,
                            });
                        }
                        let mut args = Vec::new();
                        if !self.accept_sym(Sym::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.accept_sym(Sym::Comma) {
                                    break;
                                }
                            }
                            self.expect_sym(Sym::RParen)?;
                        }
                        return Ok(Expr::Function {
                            name: word,
                            args,
                            star: false,
                        });
                    }
                    // Qualified column?
                    if self.accept_sym(Sym::Dot) {
                        let col = self.ident()?;
                        return Ok(Expr::Column {
                            table: Some(word),
                            name: col,
                        });
                    }
                    Ok(Expr::Column {
                        table: None,
                        name: word,
                    })
                }
            },
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
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
}
