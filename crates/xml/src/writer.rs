//! Streaming XML writer.
//!
//! The merge-and-tag publisher in `xdx-core` produces documents by walking
//! sorted feeds and emitting tags; this writer is its output layer. It
//! escapes text and attribute values, validates names in debug builds, and
//! supports an optional pretty-printing mode for human-readable output.

use crate::escape::{escape_attr, escape_text};
use crate::parser::is_valid_name;
use std::fmt::Write as _;

/// Pretty output's deepest indentation: two spaces a level for the first
/// sixteen levels, then flat. Past that depth indentation no longer reads
/// as structure, and capping it keeps a deep tree's pretty output linear
/// in its size rather than quadratic in its depth (a 200k-level chain
/// would otherwise indent by hundreds of gigabytes).
const INDENT: &str = "                                ";

/// Streaming writer building a `String`.
///
/// # Example
/// ```
/// use xdx_xml::Writer;
/// let mut w = Writer::new();
/// w.start("Customer");
/// w.attr("ID", "c1");
/// w.text_element("CustName", "Alice & Bob");
/// w.end();
/// assert_eq!(w.finish(), "<Customer ID=\"c1\"><CustName>Alice &amp; Bob</CustName></Customer>");
/// ```
pub struct Writer {
    out: String,
    /// The open elements' names, innermost last, in one buffer, and
    /// where each starts in it.
    names: String,
    stack: Vec<usize>,
    /// True while the current start tag is still open (`<name` written but
    /// not yet `>`), i.e. attributes may still be added.
    tag_open: bool,
    pretty: bool,
    /// Suppress the indent before a closing tag when the element held text.
    had_text: bool,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// A compact writer (no insignificant whitespace).
    pub fn new() -> Self {
        Writer {
            out: String::new(),
            names: String::new(),
            stack: Vec::new(),
            tag_open: false,
            pretty: false,
            had_text: false,
        }
    }

    /// A pretty-printing writer (two-space indentation, flat past sixteen
    /// levels).
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Self::new()
        }
    }

    /// A compact writer with pre-reserved output capacity, for large
    /// documents whose approximate size is known (the publisher uses this).
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            out: String::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Emits the standard XML declaration.
    pub fn xml_decl(&mut self) {
        debug_assert!(self.out.is_empty(), "declaration must come first");
        self.out
            .push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if self.pretty {
            self.out.push('\n');
        }
    }

    fn close_pending_tag(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    fn indent(&mut self) {
        if self.pretty && !self.out.is_empty() {
            self.out.push('\n');
            let width = (2 * self.stack.len()).min(INDENT.len());
            self.out.push_str(&INDENT[..width]);
        }
    }

    /// Opens `<name`. Attributes may be added with [`Writer::attr`] until
    /// the next content call.
    pub fn start(&mut self, name: &str) {
        debug_assert!(is_valid_name(name), "invalid element name {name:?}");
        self.close_pending_tag();
        self.indent();
        self.out.push('<');
        self.out.push_str(name);
        self.stack.push(self.names.len());
        self.names.push_str(name);
        self.tag_open = true;
        self.had_text = false;
    }

    /// Adds an attribute to the currently open start tag.
    ///
    /// # Panics
    /// Panics (debug builds) if no start tag is open.
    pub fn attr(&mut self, name: &str, value: &str) {
        debug_assert!(self.tag_open, "attr() outside a start tag");
        debug_assert!(is_valid_name(name), "invalid attribute name {name:?}");
        let _ = write!(self.out, " {}=\"{}\"", name, escape_attr(value));
    }

    /// Writes escaped character data inside the current element.
    pub fn text(&mut self, text: &str) {
        self.close_pending_tag();
        self.out.push_str(&escape_text(text));
        self.had_text = true;
    }

    /// Writes pre-escaped/raw markup verbatim. The caller is responsible
    /// for well-formedness; used to splice already-serialized fragments.
    pub fn raw(&mut self, markup: &str) {
        self.close_pending_tag();
        self.out.push_str(markup);
        self.had_text = true;
    }

    /// Writes a comment (`--` in the body is replaced by `- -`).
    pub fn comment(&mut self, body: &str) {
        self.close_pending_tag();
        self.indent();
        self.out.push_str("<!--");
        self.out.push_str(&body.replace("--", "- -"));
        self.out.push_str("-->");
    }

    /// Closes the most recently opened element.
    ///
    /// Collapses `<a></a>` to `<a/>` when the element had no content.
    pub fn end(&mut self) {
        let at = self.stack.pop().expect("end() with no open element");
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            if !self.had_text {
                self.indent();
            }
            self.out.push_str("</");
            self.out.push_str(&self.names[at..]);
            self.out.push('>');
        }
        self.names.truncate(at);
        self.had_text = false;
    }

    /// Convenience: `<name>text</name>`.
    pub fn text_element(&mut self, name: &str, text: &str) {
        self.start(name);
        self.text(text);
        self.end();
    }

    /// Convenience: `<name/>` with no attributes or content.
    pub fn empty_element(&mut self, name: &str) {
        self.start(name);
        self.end();
    }

    /// Number of elements still open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Bytes written so far (useful for size-targeted generation).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Finishes the document and returns the serialized text.
    ///
    /// # Panics
    /// Panics if elements remain open, which would produce malformed XML.
    pub fn finish(mut self) -> String {
        self.close_pending_tag();
        assert!(
            self.stack.is_empty(),
            "finish() with {} open element(s)",
            self.stack.len()
        );
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_events;
    use crate::Document;

    #[test]
    fn basic_document() {
        let mut w = Writer::new();
        w.start("a");
        w.attr("x", "1");
        w.start("b");
        w.end();
        w.text("hi");
        w.end();
        assert_eq!(w.finish(), r#"<a x="1"><b/>hi</a>"#);
    }

    #[test]
    fn empty_element_collapses() {
        let mut w = Writer::new();
        w.empty_element("only");
        assert_eq!(w.finish(), "<only/>");
    }

    #[test]
    fn escaping_applied() {
        let mut w = Writer::new();
        w.start("e");
        w.attr("q", "a\"b<c");
        w.text("1 < 2 & 3");
        w.end();
        let doc = w.finish();
        assert_eq!(doc, "<e q=\"a&quot;b&lt;c\">1 &lt; 2 &amp; 3</e>");
        // And the parser can read back what we wrote.
        assert!(parse_events(&doc).is_ok());
    }

    #[test]
    fn pretty_mode_indents() {
        let mut w = Writer::pretty();
        w.start("a");
        w.start("b");
        w.end();
        w.end();
        assert_eq!(w.finish(), "<a>\n  <b/>\n</a>");
    }

    #[test]
    fn pretty_indentation_stops_growing_at_sixteen_levels() {
        let mut w = Writer::pretty();
        for _ in 0..20 {
            w.start("a");
        }
        for _ in 0..20 {
            w.end();
        }
        let out = w.finish();
        let widths: Vec<usize> = out
            .lines()
            .map(|l| l.len() - l.trim_start().len())
            .collect();
        assert_eq!(widths[15], 30);
        assert_eq!(widths[16..20], [32; 4]);
        assert_eq!(widths.iter().max(), Some(&32));
        assert_eq!(Document::parse(&out).unwrap().root.count_elements(), 20);
    }

    #[test]
    fn text_element_and_decl() {
        let mut w = Writer::new();
        w.xml_decl();
        w.start("root");
        w.text_element("k", "v");
        w.end();
        assert_eq!(
            w.finish(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><root><k>v</k></root>"
        );
    }

    #[test]
    #[should_panic(expected = "open element")]
    fn finish_with_open_elements_panics() {
        let mut w = Writer::new();
        w.start("a");
        let _ = w.finish();
    }

    #[test]
    fn comment_neutralizes_double_dash() {
        let mut w = Writer::new();
        w.start("a");
        w.comment("x--y");
        w.end();
        assert_eq!(w.finish(), "<a><!--x- -y--></a>");
    }

    #[test]
    fn roundtrip_through_parser() {
        let mut w = Writer::new();
        w.start("site");
        for i in 0..3 {
            w.start("item");
            w.attr("id", &format!("i{i}"));
            w.text_element("name", &format!("thing {i} <&>"));
            w.end();
        }
        w.end();
        let doc = w.finish();
        let events = parse_events(&doc).unwrap();
        let starts = events.iter().filter(|e| e.start_name().is_some()).count();
        assert_eq!(starts, 7); // site + 3*(item+name)
    }
}
