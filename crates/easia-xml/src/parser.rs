//! Pull (event) parser for the XML subset used by the XUIS.
//!
//! The parser walks the input character by character, tracking line/column
//! for diagnostics, and yields [`Event`]s. Well-formedness is enforced:
//! matching end tags, unique attributes, a single root element, and valid
//! entity/character references. Elements nest at most `MAX_DEPTH` deep.

use crate::Pos;
use std::collections::BTreeSet;
use std::fmt;

/// How deep elements may nest. It bounds every walk of a parsed tree
/// (write, validate, the XUIS reader, clone and drop), which recurse
/// once per level; DESIGN.md "Nesting budgets" gives the stack a level
/// costs. A start tag deeper than this is an error naming its byte
/// offset.
pub(crate) const MAX_DEPTH: usize = 256;

/// A parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="v" ...>` — `self_closing` is true for `<name/>`.
    StartElement {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
        /// True if the tag was `<name ... />`.
        self_closing: bool,
    },
    /// `</name>` (also synthesised after a self-closing start tag).
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data with entities resolved; contiguous text and CDATA
    /// runs may be reported as multiple events.
    Text(String),
    /// `<!-- ... -->` contents.
    Comment(String),
    /// End of document.
    Eof,
}

/// A parse error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

/// Pull parser over an in-memory document.
pub struct Parser<'a> {
    chars: Vec<char>,
    src: std::marker::PhantomData<&'a str>,
    i: usize,
    line: u32,
    col: u32,
    /// Stack of open element names, to match end tags.
    stack: Vec<String>,
    /// Synthesised end-element for a self-closing tag, delivered next.
    pending_end: Option<String>,
    /// Whether the single root element has been seen and closed.
    root_seen: bool,
    root_closed: bool,
}

impl<'a> Parser<'a> {
    /// Create a parser over `src`.
    pub fn new(src: &'a str) -> Self {
        Parser {
            chars: src.chars().collect(),
            src: std::marker::PhantomData,
            i: 0,
            line: 1,
            col: 1,
            stack: Vec::new(),
            pending_end: None,
            root_seen: false,
            root_closed: false,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek_at(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, expected: char) -> Result<(), XmlError> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => self.err(format!("expected '{expected}', found '{c}'")),
            None => self.err(format!("expected '{expected}', found end of input")),
        }
    }

    fn eat_str(&mut self, s: &str) -> Result<(), XmlError> {
        for c in s.chars() {
            self.eat(c)?;
        }
        Ok(())
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(k, c)| self.peek_at(k) == Some(c))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        Self::is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        match self.peek() {
            Some(c) if Self::is_name_start(c) => {}
            Some(c) => return self.err(format!("invalid name start character '{c}'")),
            None => return self.err("expected a name, found end of input"),
        }
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if Self::is_name_char(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Ok(name)
    }

    fn parse_reference(&mut self) -> Result<char, XmlError> {
        // Called after consuming '&'.
        if self.peek() == Some('#') {
            self.bump();
            let (radix, digits_ok): (u32, fn(char) -> bool) = if self.peek() == Some('x') {
                self.bump();
                (16, |c| c.is_ascii_hexdigit())
            } else {
                (10, |c| c.is_ascii_digit())
            };
            let mut num = String::new();
            while matches!(self.peek(), Some(c) if digits_ok(c)) {
                num.push(self.bump().unwrap());
            }
            self.eat(';')?;
            if num.is_empty() {
                return self.err("empty character reference");
            }
            let code = u32::from_str_radix(&num, radix)
                .ok()
                .and_then(char::from_u32);
            match code {
                Some(c) => Ok(c),
                None => self.err(format!("invalid character reference &#{num};")),
            }
        } else {
            let name = self.parse_name()?;
            self.eat(';')?;
            match name.as_str() {
                "lt" => Ok('<'),
                "gt" => Ok('>'),
                "amp" => Ok('&'),
                "apos" => Ok('\''),
                "quot" => Ok('"'),
                _ => self.err(format!("unknown entity &{name};")),
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(c @ ('"' | '\'')) => c,
            Some(c) => return self.err(format!("expected quoted attribute value, found '{c}'")),
            None => return self.err("expected attribute value, found end of input"),
        };
        let mut v = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some('&') => v.push(self.parse_reference()?),
                Some('<') => return self.err("'<' not allowed in attribute value"),
                Some(c) => v.push(c),
                None => return self.err("unterminated attribute value"),
            }
        }
        Ok(v)
    }

    fn parse_tag(&mut self) -> Result<Event, XmlError> {
        // Called with '<' consumed and next char a name start or '/'.
        if self.peek() == Some('/') {
            self.bump();
            let name = self.parse_name()?;
            self.skip_ws();
            self.eat('>')?;
            match self.stack.pop() {
                Some(open) if open == name => {
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    Ok(Event::EndElement { name })
                }
                Some(open) => self.err(format!("mismatched end tag </{name}>, expected </{open}>")),
                None => self.err(format!("unexpected end tag </{name}>")),
            }
        } else {
            if self.stack.len() == MAX_DEPTH {
                // The tag's '<' is the character before the cursor.
                let byte: usize = self.chars[..self.i - 1].iter().map(|c| c.len_utf8()).sum();
                return self.err(format!(
                    "elements nested deeper than {MAX_DEPTH} at byte {byte}"
                ));
            }
            let name = self.parse_name()?;
            let mut attrs: Vec<(String, String)> = Vec::new();
            let mut seen: BTreeSet<String> = BTreeSet::new();
            loop {
                let before = self.i;
                self.skip_ws();
                match self.peek() {
                    Some('>') => {
                        self.bump();
                        if self.stack.is_empty() {
                            if self.root_closed || self.root_seen {
                                return self.err("multiple root elements");
                            }
                            self.root_seen = true;
                        }
                        self.stack.push(name.clone());
                        return Ok(Event::StartElement {
                            name,
                            attrs,
                            self_closing: false,
                        });
                    }
                    Some('/') => {
                        self.bump();
                        self.eat('>')?;
                        if self.stack.is_empty() {
                            if self.root_closed || self.root_seen {
                                return self.err("multiple root elements");
                            }
                            self.root_seen = true;
                        }
                        // Push now; the synthesised EndElement pops it.
                        self.stack.push(name.clone());
                        self.pending_end = Some(name.clone());
                        return Ok(Event::StartElement {
                            name,
                            attrs,
                            self_closing: true,
                        });
                    }
                    Some(c) if Self::is_name_start(c) => {
                        if self.i == before {
                            return self.err("expected whitespace before attribute");
                        }
                        let aname = self.parse_name()?;
                        self.skip_ws();
                        self.eat('=')?;
                        self.skip_ws();
                        let aval = self.parse_attr_value()?;
                        if !seen.insert(aname.clone()) {
                            return self.err(format!("duplicate attribute '{aname}'"));
                        }
                        attrs.push((aname, aval));
                    }
                    Some(c) => return self.err(format!("unexpected '{c}' in tag")),
                    None => return self.err("unterminated tag"),
                }
            }
        }
    }

    fn parse_comment(&mut self) -> Result<Event, XmlError> {
        // Called with "<!--" consumed.
        let mut text = String::new();
        loop {
            if self.starts_with("-->") {
                self.eat_str("-->")?;
                return Ok(Event::Comment(text));
            }
            if self.starts_with("--") {
                return self.err("'--' not allowed inside a comment");
            }
            match self.bump() {
                Some(c) => text.push(c),
                None => return self.err("unterminated comment"),
            }
        }
    }

    fn parse_cdata(&mut self) -> Result<Event, XmlError> {
        // Called with "<![CDATA[" consumed.
        let mut text = String::new();
        loop {
            if self.starts_with("]]>") {
                self.eat_str("]]>")?;
                return Ok(Event::Text(text));
            }
            match self.bump() {
                Some(c) => text.push(c),
                None => return self.err("unterminated CDATA section"),
            }
        }
    }

    fn skip_pi_or_decl(&mut self) -> Result<(), XmlError> {
        // Called with "<?" consumed; skip to "?>".
        loop {
            if self.starts_with("?>") {
                self.eat_str("?>")?;
                return Ok(());
            }
            if self.bump().is_none() {
                return self.err("unterminated processing instruction");
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Called with "<!DOCTYPE" consumed; skip a (possibly bracketed)
        // doctype declaration. Internal subsets are skipped, not parsed.
        let mut depth = 0i32;
        loop {
            match self.bump() {
                Some('[') => depth += 1,
                Some(']') => depth -= 1,
                Some('>') if depth <= 0 => return Ok(()),
                Some(_) => {}
                None => return self.err("unterminated DOCTYPE"),
            }
        }
    }

    /// Produce the next event.
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            if self.stack.is_empty() {
                self.root_closed = true;
            }
            return Ok(Event::EndElement { name });
        }
        loop {
            match self.peek() {
                None => {
                    if let Some(open) = self.stack.last() {
                        return self.err(format!("unexpected end of input, <{open}> still open"));
                    }
                    if !self.root_seen {
                        return self.err("document has no root element");
                    }
                    return Ok(Event::Eof);
                }
                Some('<') => {
                    self.bump();
                    match self.peek() {
                        Some('?') => {
                            self.bump();
                            self.skip_pi_or_decl()?;
                        }
                        Some('!') => {
                            self.bump();
                            if self.starts_with("--") {
                                self.eat_str("--")?;
                                return self.parse_comment();
                            } else if self.starts_with("[CDATA[") {
                                self.eat_str("[CDATA[")?;
                                if self.stack.is_empty() {
                                    return self.err("CDATA outside the root element");
                                }
                                return self.parse_cdata();
                            } else if self.starts_with("DOCTYPE") {
                                self.eat_str("DOCTYPE")?;
                                self.skip_doctype()?;
                            } else {
                                return self.err("unsupported markup declaration");
                            }
                        }
                        _ => return self.parse_tag(),
                    }
                }
                Some(_) => {
                    let mut text = String::new();
                    while let Some(c) = self.peek() {
                        if c == '<' {
                            break;
                        }
                        if c == '&' {
                            self.bump();
                            text.push(self.parse_reference()?);
                        } else {
                            if c == ']' && self.starts_with("]]>") {
                                return self.err("']]>' not allowed in character data");
                            }
                            text.push(c);
                            self.bump();
                        }
                    }
                    if self.stack.is_empty() {
                        if !text.chars().all(char::is_whitespace) {
                            return self.err("character data outside the root element");
                        }
                        // Ignorable whitespace between prolog/root/epilog.
                        continue;
                    }
                    return Ok(Event::Text(text));
                }
            }
        }
    }
}

/// Parse a complete document into a DOM tree rooted at its single root
/// element. Comments are preserved as nodes; prolog whitespace and
/// processing instructions are discarded.
pub fn parse_document(src: &str) -> Result<crate::dom::Element, XmlError> {
    use crate::dom::{Element, Node};
    let mut p = Parser::new(src);
    let mut stack: Vec<Element> = Vec::new();
    let mut root: Option<Element> = None;
    loop {
        match p.next_event()? {
            Event::StartElement { name, attrs, .. } => {
                stack.push(Element {
                    name,
                    attrs,
                    children: Vec::new(),
                });
            }
            Event::EndElement { .. } => {
                let done = stack.pop().expect("parser guarantees balanced tags");
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Element(done));
                } else {
                    root = Some(done);
                }
            }
            Event::Text(t) => {
                if let Some(parent) = stack.last_mut() {
                    // Merge adjacent text nodes for a canonical tree.
                    if let Some(Node::Text(prev)) = parent.children.last_mut() {
                        prev.push_str(&t);
                    } else {
                        parent.children.push(Node::Text(t));
                    }
                }
            }
            Event::Comment(c) => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Comment(c));
                }
            }
            Event::Eof => break,
        }
    }
    root.ok_or(XmlError {
        pos: Pos { line: 1, col: 1 },
        msg: "document has no root element".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event> {
        let mut p = Parser::new(src);
        let mut out = Vec::new();
        loop {
            let e = p.next_event().unwrap();
            let eof = e == Event::Eof;
            out.push(e);
            if eof {
                break;
            }
        }
        out
    }

    #[test]
    fn minimal_document() {
        let ev = events("<a/>");
        assert_eq!(
            ev,
            vec![
                Event::StartElement {
                    name: "a".into(),
                    attrs: vec![],
                    self_closing: true
                },
                Event::EndElement { name: "a".into() },
                Event::Eof
            ]
        );
    }

    #[test]
    fn attributes_and_text() {
        let ev = events(r#"<t name="AUTHOR" primaryKey='AUTHOR.AUTHOR_KEY'>x</t>"#);
        match &ev[0] {
            Event::StartElement { name, attrs, .. } => {
                assert_eq!(name, "t");
                assert_eq!(
                    attrs,
                    &vec![
                        ("name".to_string(), "AUTHOR".to_string()),
                        ("primaryKey".to_string(), "AUTHOR.AUTHOR_KEY".to_string())
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ev[1], Event::Text("x".into()));
    }

    #[test]
    fn entities_resolved() {
        let ev = events("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>");
        assert_eq!(ev[1], Event::Text("<x> & \"y\" 'z' AB".into()));
    }

    #[test]
    fn entity_in_attribute() {
        let ev = events(r#"<a v="a&amp;b"/>"#);
        match &ev[0] {
            Event::StartElement { attrs, .. } => assert_eq!(attrs[0].1, "a&b"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_cdata() {
        let ev = events("<a><!--note--><![CDATA[<raw&stuff>]]></a>");
        assert_eq!(ev[1], Event::Comment("note".into()));
        assert_eq!(ev[2], Event::Text("<raw&stuff>".into()));
    }

    #[test]
    fn xml_decl_and_doctype_skipped() {
        let ev = events("<?xml version=\"1.0\"?>\n<!DOCTYPE xuis [ <!ELEMENT a EMPTY> ]>\n<a/>");
        assert!(matches!(ev[0], Event::StartElement { .. }));
    }

    #[test]
    fn nested_structure() {
        let ev = events("<a><b><c/></b><b/></a>");
        let starts: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                Event::StartElement { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec!["a", "b", "c", "b"]);
    }

    #[test]
    fn error_mismatched_tags() {
        let mut p = Parser::new("<a><b></a></b>");
        p.next_event().unwrap();
        p.next_event().unwrap();
        let err = p.next_event().unwrap_err();
        assert!(err.msg.contains("mismatched"), "{err}");
    }

    #[test]
    fn error_duplicate_attribute() {
        let mut p = Parser::new(r#"<a x="1" x="2"/>"#);
        assert!(p.next_event().is_err());
    }

    #[test]
    fn error_unterminated() {
        let mut p = Parser::new("<a><b>");
        p.next_event().unwrap();
        p.next_event().unwrap();
        assert!(p.next_event().is_err());
    }

    #[test]
    fn error_multiple_roots() {
        let mut p = Parser::new("<a/><b/>");
        p.next_event().unwrap();
        p.next_event().unwrap(); // synthesised end
        assert!(p.next_event().is_err());
    }

    #[test]
    fn error_text_outside_root() {
        let mut p = Parser::new("hello<a/>");
        assert!(p.next_event().is_err());
    }

    #[test]
    fn error_unknown_entity() {
        let mut p = Parser::new("<a>&nbsp;</a>");
        p.next_event().unwrap();
        assert!(p.next_event().is_err());
    }

    #[test]
    fn error_positions_reported() {
        let mut p = Parser::new("<a>\n  <b></c>\n</a>");
        p.next_event().unwrap(); // <a>
        p.next_event().unwrap(); // text
        p.next_event().unwrap(); // <b>
        let err = p.next_event().unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn dom_round_structure() {
        let root = parse_document(
            r#"<table name="AUTHOR"><column name="AUTHOR_KEY"><type><VARCHAR/><size>30</size></type></column></table>"#,
        )
        .unwrap();
        assert_eq!(root.name, "table");
        assert_eq!(root.attr("name"), Some("AUTHOR"));
        let col = root.child("column").unwrap();
        let ty = col.child("type").unwrap();
        assert!(ty.child("VARCHAR").is_some());
        assert_eq!(ty.child("size").unwrap().text(), "30");
    }

    #[test]
    fn dom_merges_adjacent_text() {
        let root = parse_document("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.text(), "xyz");
    }

    #[test]
    fn whitespace_between_prolog_and_root_ok() {
        assert!(parse_document("  \n<a/>\n  ").is_ok());
    }

    /// `depth` elements nested in one another, each with an attribute.
    fn nested(depth: usize) -> String {
        format!("{}x{}", "<a k=\"v\">".repeat(depth), "</a>".repeat(depth))
    }

    /// A document at the budget parses, and every walk of its tree runs
    /// on half a default thread stack in any profile; one element more
    /// is an error naming the byte offset of its tag.
    #[test]
    fn the_nesting_budget_is_exact_and_fits_half_a_default_stack() {
        let run = || {
            let root = parse_document(&nested(MAX_DEPTH)).unwrap();
            let pretty = crate::write_document(&root, &crate::WriteOptions::default());
            assert!(parse_document(&pretty).is_ok());
            let text = crate::write_document(&root, &crate::WriteOptions::compact());
            assert!(parse_document(&text).unwrap() == root);
            assert_eq!(root.subtree_size(), MAX_DEPTH);
            assert_eq!(root.clone().deep_text(), "x");
            let err = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
            let byte = MAX_DEPTH * "<a k=\"v\">".len();
            let want = format!("elements nested deeper than {MAX_DEPTH} at byte {byte}");
            assert_eq!(err.msg, want);
        };
        let thread = std::thread::Builder::new().stack_size(1 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }

    /// 100,000 nested elements (600 KB) aborted the process on a
    /// default stack before the budget.
    #[test]
    fn deep_documents_are_refused_before_any_walk() {
        let err = parse_document(&nested(100_000)).unwrap_err();
        assert!(err.msg.starts_with("elements nested deeper than"), "{err}");
    }
}
