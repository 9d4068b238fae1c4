//! SQL tokeniser.
//!
//! Keywords are case-insensitive; identifiers are case-folded to upper
//! case (double-quoted identifiers preserve case); string literals use
//! single quotes with `''` escaping, exactly the form the XUIS operation
//! conditions use (`<eq>'S19990110150932'</eq>`).

use crate::error::{DbError, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier, upper-cased.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Number(f64),
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Concat,
    Semicolon,
    Question,
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Sym::LParen => "(",
            Sym::RParen => ")",
            Sym::Comma => ",",
            Sym::Dot => ".",
            Sym::Star => "*",
            Sym::Plus => "+",
            Sym::Minus => "-",
            Sym::Slash => "/",
            Sym::Percent => "%",
            Sym::Eq => "=",
            Sym::NotEq => "<>",
            Sym::Lt => "<",
            Sym::LtEq => "<=",
            Sym::Gt => ">",
            Sym::GtEq => ">=",
            Sym::Concat => "||",
            Sym::Semicolon => ";",
            Sym::Question => "?",
        };
        f.write_str(s)
    }
}

/// Tokenise SQL text.
pub fn lex(sql: &str) -> Result<Vec<Token>> {
    lex_at(sql, |_| true)
}

/// [`lex`], telling `start` the byte offset each token starts at until
/// it answers false, where the tokens end. The text is stepped in place:
/// a token's text is copied once, into its token.
pub(crate) fn lex_at(sql: &str, mut start: impl FnMut(usize) -> bool) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    // Where the run of ASCII digits from `i` ends.
    let digits = |i: usize| i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = 0usize;
    let mut out = Vec::new();
    while let Some(c) = sql[i..].chars().next() {
        let (at, tokens) = (i, out.len());
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                i = sql[i..].find('\n').map_or(sql.len(), |n| i + n);
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    let Some(n) = sql[i..].find('\'') else {
                        return Err(DbError::Parse("unterminated string literal".into()));
                    };
                    s.push_str(&sql[i..i + n]);
                    i += n + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                out.push(Token::Str(s));
            }
            '"' => {
                i += 1;
                let Some(n) = sql[i..].find('"') else {
                    return Err(DbError::Parse("unterminated quoted identifier".into()));
                };
                out.push(Token::Ident(sql[i..i + n].to_string()));
                i += n + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i = digits(i);
                let mut is_float = false;
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i = digits(i + 1);
                }
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+' | b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = digits(j);
                    }
                }
                let text = &sql[start..i];
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| DbError::Parse(format!("bad number {text}")))?;
                    out.push(Token::Number(v));
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => out.push(Token::Int(v)),
                        Err(_) => {
                            let v = text
                                .parse::<f64>()
                                .map_err(|_| DbError::Parse(format!("bad number {text}")))?;
                            out.push(Token::Number(v));
                        }
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let word = (sql[i..].chars())
                    .take_while(|&c| c.is_alphanumeric() || c == '_' || c == '$')
                    .map(char::len_utf8)
                    .sum::<usize>();
                out.push(Token::Ident(sql[i..i + word].to_ascii_uppercase()));
                i += word;
            }
            _ => {
                let (sym, adv) = match bytes.get(i..i + 2) {
                    Some(b"<=") => (Sym::LtEq, 2),
                    Some(b">=") => (Sym::GtEq, 2),
                    Some(b"<>") => (Sym::NotEq, 2),
                    Some(b"!=") => (Sym::NotEq, 2),
                    Some(b"||") => (Sym::Concat, 2),
                    _ => match c {
                        '(' => (Sym::LParen, 1),
                        ')' => (Sym::RParen, 1),
                        ',' => (Sym::Comma, 1),
                        '.' => (Sym::Dot, 1),
                        '*' => (Sym::Star, 1),
                        '+' => (Sym::Plus, 1),
                        '-' => (Sym::Minus, 1),
                        '/' => (Sym::Slash, 1),
                        '%' => (Sym::Percent, 1),
                        '=' => (Sym::Eq, 1),
                        '<' => (Sym::Lt, 1),
                        '>' => (Sym::Gt, 1),
                        ';' => (Sym::Semicolon, 1),
                        '?' => (Sym::Question, 1),
                        other => {
                            return Err(DbError::Parse(format!("unexpected character '{other}'")))
                        }
                    },
                };
                out.push(Token::Symbol(sym));
                i += adv;
            }
        }
        if out.len() > tokens && !start(at) {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_idents_fold_case() {
        let toks = lex("select Title from simulation").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("TITLE".into()),
                Token::Ident("FROM".into()),
                Token::Ident("SIMULATION".into()),
            ]
        );
    }

    #[test]
    fn quoted_identifier_preserves_case() {
        let toks = lex("\"MixedCase\"").unwrap();
        assert_eq!(toks, vec![Token::Ident("MixedCase".into())]);
    }

    #[test]
    fn string_literals_with_escape() {
        let toks = lex("'it''s a test'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's a test".into())]);
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn numbers() {
        let toks = lex("42 3.5 1e3 2.5e-2 9223372036854775807").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Number(3.5),
                Token::Number(1000.0),
                Token::Number(0.025),
                Token::Int(i64::MAX),
            ]
        );
    }

    #[test]
    fn operators() {
        let toks = lex("a<=b<>c||d!=e").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec![Sym::LtEq, Sym::NotEq, Sym::Concat, Sym::NotEq]);
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("select -- the whole row\n *").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("SELECT".into()), Token::Symbol(Sym::Star)]
        );
    }

    #[test]
    fn dotted_names() {
        let toks = lex("SIMULATION.AUTHOR_KEY").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SIMULATION".into()),
                Token::Symbol(Sym::Dot),
                Token::Ident("AUTHOR_KEY".into()),
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("select #").is_err());
    }
}
