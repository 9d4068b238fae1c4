//! A simple DOM: elements with attributes and mixed-content children.

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data (entities already resolved).
    Text(String),
    /// A comment (`<!-- ... -->` contents).
    Comment(String),
}

/// An XML element: name, attributes in document order, children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Element name (no namespace handling).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Mixed-content children.
    pub children: Vec<Node>,
}

impl Element {
    /// Create an empty element with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add or replace an attribute and return `self`.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element and return `self`.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: append a text child and return `self`.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Set (add or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Remove an attribute; returns its previous value if present.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attrs.iter().position(|(n, _)| n == name)?;
        Some(self.attrs.remove(idx).1)
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Mutable first child element with the given name.
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.children.iter_mut().find_map(|n| match n {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given name, in order.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// All child elements in order, regardless of name.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element's *direct* text children.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }

    /// Concatenated text content of the whole subtree.
    pub fn deep_text(&self) -> String {
        let mut s = String::new();
        fn rec(e: &Element, s: &mut String) {
            for n in &e.children {
                match n {
                    Node::Text(t) => s.push_str(t),
                    Node::Element(c) => rec(c, s),
                    Node::Comment(_) => {}
                }
            }
        }
        rec(self, &mut s);
        s
    }

    /// Text of the first child element with the given name, if any.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.child(name).map(|e| e.text())
    }

    /// Append a child element.
    pub fn push_element(&mut self, child: Element) -> &mut Element {
        self.children.push(Node::Element(child));
        match self.children.last_mut() {
            Some(Node::Element(e)) => e,
            _ => unreachable!("just pushed an element"),
        }
    }

    /// Remove all child elements with the given name; returns how many were
    /// removed.
    pub fn remove_children_named(&mut self, name: &str) -> usize {
        let before = self.children.len();
        self.children
            .retain(|n| !matches!(n, Node::Element(e) if e.name == name));
        before - self.children.len()
    }

    /// Depth-first search for the first descendant element matching `pred`.
    pub fn find<'a>(&'a self, pred: &dyn Fn(&Element) -> bool) -> Option<&'a Element> {
        if pred(self) {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(hit) = c.find(pred) {
                return Some(hit);
            }
        }
        None
    }

    /// Depth-first collection of all descendant elements (including self)
    /// with the given name.
    pub fn descendants_named<'a>(&'a self, name: &str, out: &mut Vec<&'a Element>) {
        if self.name == name {
            out.push(self);
        }
        for c in self.child_elements() {
            c.descendants_named(name, out);
        }
    }

    /// Number of elements in the subtree including self.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("table")
            .with_attr("name", "SIMULATION")
            .with_child(
                Element::new("column")
                    .with_attr("name", "TITLE")
                    .with_child(
                        Element::new("samples")
                            .with_child(Element::new("sample").with_text("Channel flow 360")),
                    ),
            )
            .with_child(Element::new("column").with_attr("name", "AUTHOR_KEY"))
    }

    #[test]
    fn navigation() {
        let t = sample();
        assert_eq!(t.attr("name"), Some("SIMULATION"));
        assert_eq!(t.children_named("column").count(), 2);
        let c0 = t.child("column").unwrap();
        assert_eq!(c0.attr("name"), Some("TITLE"));
        let s = c0.child("samples").unwrap().child("sample").unwrap();
        assert_eq!(s.text(), "Channel flow 360");
    }

    #[test]
    fn attr_set_replace_remove() {
        let mut e = Element::new("x");
        e.set_attr("a", "1");
        e.set_attr("a", "2");
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.attr("a"), Some("2"));
        assert_eq!(e.remove_attr("a"), Some("2".to_string()));
        assert_eq!(e.attr("a"), None);
        assert_eq!(e.remove_attr("a"), None);
    }

    #[test]
    fn deep_text_spans_children() {
        let e = Element::new("p")
            .with_text("a")
            .with_child(Element::new("b").with_text("c"))
            .with_text("d");
        assert_eq!(e.text(), "ad");
        assert_eq!(e.deep_text(), "acd");
    }

    #[test]
    fn find_descendant() {
        let t = sample();
        let hit = t
            .find(&|e| e.name == "sample")
            .expect("sample element exists");
        assert_eq!(hit.text(), "Channel flow 360");
        assert!(t.find(&|e| e.name == "missing").is_none());
    }

    #[test]
    fn descendants_named_collects_all() {
        let t = sample();
        let mut out = Vec::new();
        t.descendants_named("column", &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn remove_children() {
        let mut t = sample();
        assert_eq!(t.remove_children_named("column"), 2);
        assert_eq!(t.children_named("column").count(), 0);
    }

    #[test]
    fn subtree_size_counts_elements() {
        assert_eq!(sample().subtree_size(), 5);
    }

    #[test]
    fn child_mut_allows_edit() {
        let mut t = sample();
        t.child_mut("column").unwrap().set_attr("hidden", "true");
        assert_eq!(t.child("column").unwrap().attr("hidden"), Some("true"));
    }
}
