//! A lightweight owned document tree.
//!
//! Used where random access beats streaming: the WSDL layer, tests, and the
//! examples. Intentionally minimal — namespaces are not resolved, and
//! comments/PIs are dropped on parse (they carry no data in this system).

use crate::error::{Error, Result};
use crate::event::{Attribute, Event};
use crate::parser::Parser;
use crate::writer::Writer;

/// A node in the tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (entities already resolved; CDATA merged in).
    Text(String),
}

/// An element with attributes and ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name as written.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

/// A parsed document: the root element plus the raw DOCTYPE body, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Raw text of the `<!DOCTYPE ...>` body, when present.
    pub doctype: Option<String>,
    /// The document element.
    pub root: Element,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: adds an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute::new(name, value));
        self
    }

    /// Builder-style: appends a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: appends a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Value of the attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Iterator over child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// First child element named `name`.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements named `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of this element's direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Counts elements in this subtree (including `self`).
    pub fn count_elements(&self) -> usize {
        let mut count = 1;
        let mut cursors = vec![self.elements()];
        while let Some(cursor) = cursors.last_mut() {
            match cursor.next() {
                Some(e) => {
                    count += 1;
                    cursors.push(e.elements());
                }
                None => {
                    cursors.pop();
                }
            }
        }
        count
    }

    /// Finds the first descendant (depth-first, including self) named `name`.
    pub fn descendant(&self, name: &str) -> Option<&Element> {
        if self.name == name {
            return Some(self);
        }
        let mut cursors = vec![self.elements()];
        while let Some(cursor) = cursors.last_mut() {
            match cursor.next() {
                Some(e) if e.name == name => return Some(e),
                Some(e) => cursors.push(e.elements()),
                None => {
                    cursors.pop();
                }
            }
        }
        None
    }

    /// Writes this subtree through an explicit stack of child cursors,
    /// not by recursion, so a tree of any depth serializes on any stack.
    fn write_into(&self, w: &mut Writer) {
        fn open<'e>(e: &'e Element, w: &mut Writer) -> std::slice::Iter<'e, Node> {
            w.start(&e.name);
            for a in &e.attributes {
                w.attr(&a.name, &a.value);
            }
            e.children.iter()
        }
        let mut cursors = vec![open(self, w)];
        while let Some(cursor) = cursors.last_mut() {
            match cursor.next() {
                Some(Node::Element(e)) => cursors.push(open(e, w)),
                Some(Node::Text(t)) => w.text(t),
                None => {
                    w.end();
                    cursors.pop();
                }
            }
        }
    }

    /// Serializes this element (compact form).
    pub fn to_xml(&self) -> String {
        let mut w = Writer::new();
        self.write_into(&mut w);
        w.finish()
    }

    /// Serializes this element with indentation.
    pub fn to_xml_pretty(&self) -> String {
        let mut w = Writer::pretty();
        self.write_into(&mut w);
        w.finish()
    }
}

/// Drops the subtree through an explicit stack, not by recursion: a
/// built tree may be deeper than [`MAX_DEPTH`](crate::parser::MAX_DEPTH)
/// (a schema's `<types>` element is), and a recursive drop of one would
/// overflow the thread's stack.
impl Drop for Element {
    fn drop(&mut self) {
        let mut pending = std::mem::take(&mut self.children);
        while let Some(node) = pending.pop() {
            if let Node::Element(mut e) = node {
                pending.append(&mut e.children);
            }
        }
    }
}

impl Document {
    /// Parses a document into a tree.
    ///
    /// Elements nest at most [`MAX_DEPTH`](crate::parser::MAX_DEPTH)
    /// deep; a deeper document is [`Error::TooDeep`] before any of its
    /// tree is built past the cap.
    ///
    /// Whitespace-only text nodes between elements are dropped (they are
    /// insignificant in every schema this system handles); other text is
    /// preserved verbatim.
    pub fn parse(src: &str) -> Result<Document> {
        let mut parser = Parser::new(src);
        let mut doctype = None;
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;
        loop {
            match parser.next_event()? {
                Event::XmlDecl { .. } => {}
                Event::Doctype(d) => doctype = Some(d),
                Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
                Event::Start {
                    name,
                    attributes,
                    empty,
                } => {
                    let elem = Element {
                        name,
                        attributes,
                        children: Vec::new(),
                    };
                    if empty {
                        attach(&mut stack, &mut root, elem);
                    } else {
                        stack.push(elem);
                    }
                }
                Event::End { .. } => {
                    let done = stack.pop().expect("parser guarantees balance");
                    attach(&mut stack, &mut root, done);
                }
                Event::Text(t) | Event::CData(t) => {
                    if let Some(top) = stack.last_mut() {
                        if !t.trim().is_empty() {
                            // Merge adjacent text runs for a canonical tree.
                            if let Some(Node::Text(prev)) = top.children.last_mut() {
                                prev.push_str(&t);
                            } else {
                                top.children.push(Node::Text(t));
                            }
                        }
                    }
                }
                Event::Eof => break,
            }
        }
        let root = root.ok_or(Error::BadDocumentStructure {
            offset: src.len(),
            detail: "no document element",
        })?;
        Ok(Document { doctype, root })
    }

    /// Serializes back to XML (compact, with declaration).
    pub fn to_xml(&self) -> String {
        let mut w = Writer::new();
        w.xml_decl();
        self.root.write_into(&mut w);
        w.finish()
    }
}

fn attach(stack: &mut [Element], root: &mut Option<Element>, elem: Element) {
    if let Some(parent) = stack.last_mut() {
        parent.children.push(Node::Element(elem));
    } else {
        *root = Some(elem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<order id="7"><line qty="2">widget</line><line qty="1">gadget &amp; co</line><note/></order>"#;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse(SAMPLE).unwrap();
        assert_eq!(doc.root.name, "order");
        assert_eq!(doc.root.attr("id"), Some("7"));
        let lines: Vec<_> = doc.root.children_named("line").collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].text(), "gadget & co");
        assert!(doc.root.child("note").is_some());
        assert!(doc.root.child("missing").is_none());
    }

    #[test]
    fn count_and_descendant() {
        let doc = Document::parse(SAMPLE).unwrap();
        assert_eq!(doc.root.count_elements(), 4);
        assert_eq!(doc.root.descendant("line").unwrap().attr("qty"), Some("2"));
    }

    #[test]
    fn serialization_roundtrip() {
        let doc = Document::parse(SAMPLE).unwrap();
        let xml = doc.root.to_xml();
        let again = Document::parse(&xml).unwrap();
        assert_eq!(doc.root, again.root);
    }

    #[test]
    fn builder_api() {
        let e = Element::new("a")
            .with_attr("k", "v")
            .with_child(Element::new("b").with_text("t"))
            .with_text("tail");
        assert_eq!(e.to_xml(), r#"<a k="v"><b>t</b>tail</a>"#);
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let doc = Document::parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
    }

    #[test]
    fn doctype_captured() {
        let doc = Document::parse("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>").unwrap();
        assert!(doc.doctype.unwrap().contains("ELEMENT"));
    }

    #[test]
    fn adjacent_text_merged() {
        let doc = Document::parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
        assert_eq!(doc.root.text(), "xyz");
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = Document::parse(SAMPLE).unwrap();
        let pretty = doc.root.to_xml_pretty();
        let again = Document::parse(&pretty).unwrap();
        assert_eq!(again.root.children_named("line").count(), 2);
    }
}
