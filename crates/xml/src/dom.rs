//! A lightweight owned document tree.
//!
//! Used where random access beats streaming: the WSDL layer, tests, and the
//! examples. Intentionally minimal — namespaces are not resolved, and
//! comments/PIs are dropped on parse (they carry no data in this system).

use crate::error::{Error, Result};
use crate::event::{Attribute, Event};
use crate::parser::Parser;
use crate::writer::Writer;
use std::fmt;

/// A node in the tree: an element or a text run.
#[derive(PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (entities already resolved; CDATA merged in).
    Text(String),
}

/// An element with attributes and ordered children.
///
/// `Clone`, `Debug` and `Drop` walk the subtree through an explicit
/// stack: a tree [`MAX_DEPTH`](crate::parser::MAX_DEPTH) deep, which
/// [`Document::parse`] accepts, would overflow a thread's stack one
/// recursion per level.
#[derive(PartialEq, Eq, Default)]
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

impl Clone for Element {
    fn clone(&self) -> Element {
        let shell = |e: &Element| Element {
            name: e.name.clone(),
            attributes: e.attributes.clone(),
            children: Vec::with_capacity(e.children.len()),
        };
        let mut stack = vec![(self.children.iter(), shell(self))];
        loop {
            let (children, copy) = stack.last_mut().expect("the root is popped last");
            match children.next() {
                Some(Node::Text(t)) => copy.children.push(Node::Text(t.clone())),
                Some(Node::Element(e)) => stack.push((e.children.iter(), shell(e))),
                None => {
                    let (_, done) = stack.pop().expect("just peeked");
                    match stack.last_mut() {
                        Some((_, parent)) => parent.children.push(Node::Element(done)),
                        None => return done,
                    }
                }
            }
        }
    }
}

impl Clone for Node {
    fn clone(&self) -> Node {
        match self {
            Node::Element(e) => Node::Element(e.clone()),
            Node::Text(t) => Node::Text(t.clone()),
        }
    }
}

/// The derived form, `{:#?}` included, written through an explicit
/// stack of child cursors.
impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pretty = f.alternate();
        // What goes before a field or list entry at `level`: a line
        // break and indent when pretty, `plain` otherwise.
        let brk = |f: &mut fmt::Formatter<'_>, level: usize, plain: &str| {
            if pretty {
                write!(f, "\n{:1$}", "", 4 * level)
            } else {
                f.write_str(plain)
            }
        };
        // A value with no tree below it, its own lines indented to `level`.
        let leaf = |f: &mut fmt::Formatter<'_>, level: usize, value: &dyn fmt::Debug| {
            if pretty {
                let indent = format!("\n{:1$}", "", 4 * level);
                f.write_str(&format!("{value:#?}").replace('\n', &indent))
            } else {
                write!(f, "{value:?}")
            }
        };
        // Writes `e` at `level` up to its first child.
        let open = |f: &mut fmt::Formatter<'_>, e: &Element, level: usize| {
            f.write_str("Element {")?;
            brk(f, level + 1, " ")?;
            f.write_str("name: ")?;
            leaf(f, level + 1, &e.name)?;
            f.write_str(",")?;
            brk(f, level + 1, " ")?;
            f.write_str("attributes: ")?;
            leaf(f, level + 1, &e.attributes)?;
            f.write_str(",")?;
            brk(f, level + 1, " ")?;
            f.write_str("children: [")
        };
        let comma = if pretty { "," } else { "" };
        open(f, self, 0)?;
        // Per open element: its child cursor, its level, and whether no
        // child has been written yet.
        let mut stack = vec![(self.children.iter(), 0, true)];
        while let Some((children, level, first)) = stack.last_mut() {
            let level = *level;
            match children.next() {
                Some(node) => {
                    brk(f, level + 2, if *first { "" } else { ", " })?;
                    *first = false;
                    match node {
                        Node::Text(_) => {
                            leaf(f, level + 2, node)?;
                            f.write_str(comma)?;
                        }
                        Node::Element(e) => {
                            f.write_str("Element(")?;
                            brk(f, level + 3, "")?;
                            open(f, e, level + 3)?;
                            stack.push((e.children.iter(), level + 3, true));
                        }
                    }
                }
                None => {
                    if !*first {
                        brk(f, level + 1, "")?;
                    }
                    f.write_str("]")?;
                    f.write_str(comma)?;
                    brk(f, level, " ")?;
                    f.write_str("}")?;
                    stack.pop();
                    if !stack.is_empty() {
                        // The `Element(..)` around a child.
                        f.write_str(comma)?;
                        brk(f, level - 1, "")?;
                        f.write_str(")")?;
                        f.write_str(comma)?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Element(e) => f.debug_tuple("Element").field(e).finish(),
            Node::Text(t) => f.debug_tuple("Text").field(t).finish(),
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
    fn debug_and_clone_match_the_derived_forms() {
        let tree = Element::new("a")
            .with_attr("k", "v")
            .with_child(
                Element::new("b")
                    .with_child(Element::new("c"))
                    .with_text("x"),
            )
            .with_text("t\nu");
        // What `#[derive(Debug)]` printed for this tree.
        assert_eq!(
            format!("{tree:?}"),
            r#"Element { name: "a", attributes: [Attribute { name: "k", value: "v" }], children: [Element(Element { name: "b", attributes: [], children: [Element(Element { name: "c", attributes: [], children: [] }), Text("x")] }), Text("t\nu")] }"#
        );
        let pretty = r#"Element {
    name: "a",
    attributes: [
        Attribute {
            name: "k",
            value: "v",
        },
    ],
    children: [
        Element(
            Element {
                name: "b",
                attributes: [],
                children: [
                    Element(
                        Element {
                            name: "c",
                            attributes: [],
                            children: [],
                        },
                    ),
                    Text(
                        "x",
                    ),
                ],
            },
        ),
        Text(
            "t\nu",
        ),
    ],
}"#;
        assert_eq!(format!("{tree:#?}"), pretty);
        let node = Node::Element(tree.clone());
        let indented = pretty.replace('\n', "\n    ");
        assert_eq!(
            format!("{node:#?}"),
            format!("Element(\n    {indented},\n)")
        );
        assert_eq!(tree.clone(), tree);
        assert_eq!(tree.clone().to_xml(), tree.to_xml());
        let doc = Document::parse(SAMPLE).unwrap();
        assert_eq!(doc.clone(), doc);
        assert_eq!(
            format!("{doc:?}"),
            format!("Document {{ doctype: None, root: {:?} }}", doc.root)
        );
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
