//! A non-validating XML pull parser.
//!
//! The parser checks well-formedness — balanced tags, unique attributes,
//! legal names, resolvable entities, a single document element — but does
//! not read external DTDs or validate content models. This matches the
//! capabilities of the expat-based pipeline the paper built its shredder on.
//!
//! # Example
//! ```
//! use xdx_xml::{Parser, Event};
//! let mut p = Parser::new("<a x=\"1\"><b/>hi</a>");
//! assert!(matches!(p.next_event().unwrap(), Event::Start { .. }));
//! ```

use crate::error::{Error, Result};
use crate::escape::unescape;
use crate::event::{Attribute, Event};

/// Returns true if `c` may start an XML name.
pub fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

/// Returns true if `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

/// Validates a full XML name (used by the writer too).
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => chars.all(is_name_char),
        _ => false,
    }
}

/// The deepest an element may nest (the document element is depth 1).
///
/// A start tag past it is [`Error::TooDeep`], so every reader that builds
/// a tree refuses a hostile document before it allocates one: a few
/// hundred KB of `<a>` would otherwise be a tree whose recursive walks
/// overflow the thread's stack. Figure 7's schema is 5 levels deep and
/// the DTD subset rejects recursive content models, so no valid document
/// comes near it.
pub const MAX_DEPTH: usize = 4096;

/// Streaming pull parser over an in-memory document.
///
/// Cursor-based over `&str`; produces [`Event`]s one at a time via
/// [`Parser::next_event`], or all at once via [`Parser::into_events`].
/// Elements nest at most [`MAX_DEPTH`] deep.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    stack: Vec<String>,
    seen_root: bool,
    done: bool,
    at_start: bool,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `src`.
    pub fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            stack: Vec::new(),
            seen_root: false,
            done: false,
            at_start: true,
        }
    }

    /// Current byte offset into the source.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Depth of currently-open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self, c: char) {
        self.pos += c.len_utf8();
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump(c);
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, prefix: &str, context: &'static str) -> Result<()> {
        if self.eat(prefix) {
            Ok(())
        } else if self.rest().is_empty() {
            Err(Error::UnexpectedEof {
                offset: self.pos,
                context,
            })
        } else {
            Err(Error::UnexpectedChar {
                offset: self.pos,
                found: self.peek().unwrap(),
                expected: context,
            })
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => self.bump(c),
            Some(c) => {
                return Err(Error::UnexpectedChar {
                    offset: self.pos,
                    found: c,
                    expected: "name",
                })
            }
            None => {
                return Err(Error::UnexpectedEof {
                    offset: self.pos,
                    context: "name",
                })
            }
        }
        while let Some(c) = self.peek() {
            if is_name_char(c) {
                self.bump(c);
            } else {
                break;
            }
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn read_until(&mut self, delim: &str, context: &'static str) -> Result<&'a str> {
        match self.rest().find(delim) {
            Some(i) => {
                let s = &self.rest()[..i];
                self.pos += i + delim.len();
                Ok(s)
            }
            None => Err(Error::UnexpectedEof {
                offset: self.pos,
                context,
            }),
        }
    }

    fn read_attr_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            Some(c) => {
                return Err(Error::UnexpectedChar {
                    offset: self.pos,
                    found: c,
                    expected: "quoted attribute value",
                })
            }
            None => {
                return Err(Error::UnexpectedEof {
                    offset: self.pos,
                    context: "attribute value",
                })
            }
        };
        self.bump(quote);
        let start = self.pos;
        let raw = self.read_until(
            if quote == '"' { "\"" } else { "'" },
            "closing attribute quote",
        )?;
        Ok(unescape(raw, start)?.into_owned())
    }

    /// Returns the next event, or [`Event::Eof`] once the document is done.
    pub fn next_event(&mut self) -> Result<Event> {
        if self.done {
            return Ok(Event::Eof);
        }
        if self.at_start {
            self.at_start = false;
            // Optional XML declaration must be first, with no leading space.
            if self.rest().starts_with("<?xml") {
                return self.parse_xml_decl();
            }
        }
        if self.stack.is_empty() {
            // Prolog or epilog: only whitespace, comments, PIs, doctype,
            // and (in the prolog) the document element are allowed.
            self.skip_ws();
        }
        let Some(c) = self.peek() else {
            if !self.stack.is_empty() {
                return Err(Error::UnexpectedEof {
                    offset: self.pos,
                    context: "element",
                });
            }
            if !self.seen_root {
                return Err(Error::BadDocumentStructure {
                    offset: self.pos,
                    detail: "no document element",
                });
            }
            self.done = true;
            return Ok(Event::Eof);
        };
        if c == '<' {
            return self.parse_markup();
        }
        if self.stack.is_empty() {
            return Err(Error::TextOutsideRoot { offset: self.pos });
        }
        self.parse_text()
    }

    fn parse_xml_decl(&mut self) -> Result<Event> {
        self.expect("<?xml", "xml declaration")?;
        let start = self.pos;
        let body = self.read_until("?>", "xml declaration")?;
        let mut version = "1.0".to_string();
        let mut encoding = None;
        // Tolerant pseudo-attribute scan; the declaration is advisory here.
        for piece in body.split_whitespace() {
            if let Some((k, v)) = piece.split_once('=') {
                let v = v.trim_matches(|c| c == '"' || c == '\'');
                match k {
                    "version" => version = v.to_string(),
                    "encoding" => encoding = Some(v.to_string()),
                    _ => {}
                }
            }
        }
        let _ = start;
        Ok(Event::XmlDecl { version, encoding })
    }

    fn parse_markup(&mut self) -> Result<Event> {
        debug_assert_eq!(self.peek(), Some('<'));
        if self.eat("<!--") {
            let body = self.read_until("-->", "comment")?;
            return Ok(Event::Comment(body.to_string()));
        }
        if self.eat("<![CDATA[") {
            if self.stack.is_empty() {
                return Err(Error::TextOutsideRoot { offset: self.pos });
            }
            let body = self.read_until("]]>", "CDATA section")?;
            return Ok(Event::CData(body.to_string()));
        }
        if self.rest().starts_with("<!DOCTYPE") {
            self.pos += "<!DOCTYPE".len();
            return self.parse_doctype();
        }
        if self.eat("<?") {
            let target = self.read_name()?;
            let body = self.read_until("?>", "processing instruction")?;
            return Ok(Event::ProcessingInstruction {
                target,
                data: body.trim_start().to_string(),
            });
        }
        if self.eat("</") {
            let name = self.read_name()?;
            self.skip_ws();
            self.expect(">", "'>' after closing tag name")?;
            match self.stack.pop() {
                Some(open) if open == name => Ok(Event::End { name }),
                Some(open) => Err(Error::MismatchedTag {
                    offset: self.pos,
                    open,
                    close: name,
                }),
                None => Err(Error::BadDocumentStructure {
                    offset: self.pos,
                    detail: "closing tag with no open element",
                }),
            }
        } else {
            self.expect("<", "start tag")?;
            self.parse_start_tag()
        }
    }

    fn parse_doctype(&mut self) -> Result<Event> {
        // Consume up to the matching '>', honoring an internal subset in
        // square brackets (which itself contains '>' characters).
        let start = self.pos;
        let mut depth = 0usize;
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    let body = self.src[start..i].trim().to_string();
                    self.pos = i + 1;
                    return Ok(Event::Doctype(body));
                }
                _ => {}
            }
            i += 1;
        }
        Err(Error::UnexpectedEof {
            offset: self.pos,
            context: "DOCTYPE declaration",
        })
    }

    fn parse_start_tag(&mut self) -> Result<Event> {
        if self.stack.is_empty() && self.seen_root {
            return Err(Error::BadDocumentStructure {
                offset: self.pos,
                detail: "multiple document elements",
            });
        }
        // Checked for empty elements too: `<a/>` one level past the cap
        // is a level past it all the same.
        if self.stack.len() >= MAX_DEPTH {
            return Err(Error::TooDeep {
                offset: self.pos - 1,
                depth: MAX_DEPTH + 1,
            });
        }
        let name = self.read_name()?;
        let mut attributes: Vec<Attribute> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump('>');
                    self.stack.push(name.clone());
                    self.seen_root = true;
                    return Ok(Event::Start {
                        name,
                        attributes,
                        empty: false,
                    });
                }
                Some('/') => {
                    self.bump('/');
                    self.expect(">", "'>' after '/'")?;
                    self.seen_root = true;
                    return Ok(Event::Start {
                        name,
                        attributes,
                        empty: true,
                    });
                }
                Some(c) if is_name_start(c) => {
                    let attr_offset = self.pos;
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect("=", "'=' after attribute name")?;
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    if attributes.iter().any(|a| a.name == aname) {
                        return Err(Error::DuplicateAttribute {
                            offset: attr_offset,
                            name: aname,
                        });
                    }
                    attributes.push(Attribute { name: aname, value });
                }
                Some(c) => {
                    return Err(Error::UnexpectedChar {
                        offset: self.pos,
                        found: c,
                        expected: "attribute, '>' or '/>'",
                    })
                }
                None => {
                    return Err(Error::UnexpectedEof {
                        offset: self.pos,
                        context: "start tag",
                    })
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<Event> {
        let start = self.pos;
        let end = self
            .rest()
            .find('<')
            .map(|i| self.pos + i)
            .unwrap_or(self.src.len());
        let raw = &self.src[start..end];
        self.pos = end;
        if raw.contains("]]>") {
            return Err(Error::UnexpectedChar {
                offset: start + raw.find("]]>").unwrap(),
                found: ']',
                expected: "']]>' must not appear in character data",
            });
        }
        Ok(Event::Text(unescape(raw, start)?.into_owned()))
    }

    /// Parses the whole document into a vector of events (excluding the
    /// trailing [`Event::Eof`]).
    pub fn into_events(mut self) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        loop {
            match self.next_event()? {
                Event::Eof => return Ok(out),
                e => out.push(e),
            }
        }
    }
}

/// Parses an entire document, returning its events. Convenience wrapper.
pub fn parse_events(src: &str) -> Result<Vec<Event>> {
    Parser::new(src).into_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event> {
        parse_events(src).expect("parse failed")
    }

    #[test]
    fn minimal_document() {
        let ev = events("<a/>");
        assert_eq!(
            ev,
            vec![Event::Start {
                name: "a".into(),
                attributes: vec![],
                empty: true
            }]
        );
    }

    #[test]
    fn nested_elements_and_text() {
        let ev = events("<a><b>hi</b></a>");
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[2], Event::Text("hi".into()));
        assert_eq!(ev[4], Event::End { name: "a".into() });
    }

    #[test]
    fn attributes_with_entities() {
        let ev = events(r#"<a x="1 &amp; 2" y='z'/>"#);
        match &ev[0] {
            Event::Start { attributes, .. } => {
                assert_eq!(attributes[0].value, "1 & 2");
                assert_eq!(attributes[1].value, "z");
            }
            _ => panic!("expected start"),
        }
    }

    #[test]
    fn xml_decl_and_doctype() {
        let ev = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE site [<!ELEMENT site (a)>]>\n<site><a/></site>");
        assert!(matches!(&ev[0], Event::XmlDecl { encoding: Some(e), .. } if e == "UTF-8"));
        assert!(matches!(&ev[1], Event::Doctype(d) if d.contains("ELEMENT")));
    }

    #[test]
    fn comments_and_pis() {
        let ev = events("<a><!-- note --><?php echo ?></a>");
        assert_eq!(ev[1], Event::Comment(" note ".into()));
        assert!(matches!(&ev[2], Event::ProcessingInstruction { target, .. } if target == "php"));
    }

    #[test]
    fn cdata_passthrough() {
        let ev = events("<a><![CDATA[<not-a-tag> & raw]]></a>");
        assert_eq!(ev[1], Event::CData("<not-a-tag> & raw".into()));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse_events("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, Error::MismatchedTag { .. }));
    }

    #[test]
    fn duplicate_attribute_error() {
        let err = parse_events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err, Error::DuplicateAttribute { .. }));
    }

    #[test]
    fn text_outside_root_error() {
        assert!(matches!(
            parse_events("hello<a/>"),
            Err(Error::TextOutsideRoot { .. })
        ));
        assert!(matches!(
            parse_events("<a/>junk"),
            Err(Error::TextOutsideRoot { .. })
        ));
    }

    #[test]
    fn multiple_roots_error() {
        let err = parse_events("<a/><b/>").unwrap_err();
        assert!(matches!(err, Error::BadDocumentStructure { .. }));
    }

    #[test]
    fn empty_input_error() {
        assert!(parse_events("").is_err());
        assert!(parse_events("   \n ").is_err());
    }

    #[test]
    fn unclosed_element_error() {
        assert!(matches!(
            parse_events("<a><b>"),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn cdata_end_in_text_error() {
        assert!(parse_events("<a>x]]>y</a>").is_err());
    }

    #[test]
    fn whitespace_between_elements_reported() {
        let ev = events("<a>\n  <b/>\n</a>");
        assert!(matches!(&ev[1], Event::Text(t) if t.trim().is_empty()));
    }

    #[test]
    fn names_validated() {
        assert!(parse_events("<1a/>").is_err());
        assert!(is_valid_name("a-b.c_d:e1"));
        assert!(!is_valid_name("-a"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("a b"));
    }

    #[test]
    fn depth_tracking() {
        let mut p = Parser::new("<a><b></b></a>");
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap();
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn nesting_past_the_cap_is_refused() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        assert_eq!(
            parse_events(&nested(MAX_DEPTH)).unwrap().len(),
            2 * MAX_DEPTH
        );
        let deeper = nested(MAX_DEPTH + 1);
        assert_eq!(
            parse_events(&deeper),
            Err(Error::TooDeep {
                offset: 3 * MAX_DEPTH,
                depth: MAX_DEPTH + 1
            })
        );
        let empty_past_the_cap = "<a>".repeat(MAX_DEPTH) + "<b/>" + &"</a>".repeat(MAX_DEPTH);
        assert!(matches!(
            parse_events(&empty_past_the_cap),
            Err(Error::TooDeep { .. })
        ));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let src = "<!DOCTYPE site [\n<!ELEMENT site (regions)>\n<!ELEMENT regions (#PCDATA)>\n]><site><regions/></site>";
        let ev = events(src);
        match &ev[0] {
            Event::Doctype(d) => assert!(d.contains("regions")),
            other => panic!("expected doctype, got {other:?}"),
        }
    }

    #[test]
    fn eof_is_sticky() {
        let mut p = Parser::new("<a/>");
        p.next_event().unwrap();
        assert_eq!(p.next_event().unwrap(), Event::Eof);
        assert_eq!(p.next_event().unwrap(), Event::Eof);
    }
}
