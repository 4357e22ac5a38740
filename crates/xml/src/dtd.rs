//! Parser for the DTD subset used by the paper's Figure 7.
//!
//! Supported declarations:
//!
//! * `<!ELEMENT name (child1, child2*, child3?) >` — sequence content with
//!   `?`, `*`, `+` cardinalities, including a cardinality on the whole group
//!   (`(category+)` is normalized to a single repeated child),
//! * `<!ELEMENT name (#PCDATA)>` and `<!ELEMENT name EMPTY>` — leaves,
//! * `<!ATTLIST name attr CDATA|ID #REQUIRED|#IMPLIED>` — recorded but not
//!   enforced (the exchange model only cares about the element tree),
//! * the paper's shorthand `(id ID)` for "this element just carries an
//!   identifier" — treated as a text leaf.
//!
//! The result is a [`SchemaTree`], the same model the XSD reader produces,
//! so DTD-described and XSD-described services are interchangeable.

use crate::error::{Error, Result};
use crate::parser::is_valid_name;
use crate::schema::{NodeId, Occurs, SchemaTree};
use std::collections::HashMap;

/// One parsed `<!ELEMENT>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// The declared element.
    pub name: String,
    /// Children in order with cardinalities; empty for leaves.
    pub children: Vec<(String, Occurs)>,
    /// True for `(#PCDATA)`, `(id ID)` and `EMPTY`-with-attributes leaves.
    pub is_leaf: bool,
}

/// One parsed `<!ATTLIST>` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Owning element.
    pub element: String,
    /// Attribute name.
    pub name: String,
    /// Declared type token (`ID`, `CDATA`, ...).
    pub ty: String,
    /// `true` for `#REQUIRED`.
    pub required: bool,
}

/// A parsed DTD: element declarations plus attribute lists.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    /// Element declarations in document order.
    pub elements: Vec<ElementDecl>,
    /// Attribute declarations in document order.
    pub attributes: Vec<AttrDecl>,
}

impl Dtd {
    /// Parses the body of a DTD (a sequence of `<!ELEMENT>` / `<!ATTLIST>`
    /// declarations; comments allowed).
    pub fn parse(src: &str) -> Result<Dtd> {
        let mut dtd = Dtd::default();
        let mut rest = src;
        let mut offset = 0usize;
        loop {
            let trimmed_len = rest.len() - rest.trim_start().len();
            rest = rest.trim_start();
            offset += trimmed_len;
            if rest.is_empty() {
                break;
            }
            if let Some(after) = rest.strip_prefix("<!--") {
                let end = after.find("-->").ok_or(Error::UnexpectedEof {
                    offset,
                    context: "DTD comment",
                })?;
                offset += 4 + end + 3;
                rest = &after[end + 3..];
                continue;
            }
            let close = rest.find('>').ok_or(Error::UnexpectedEof {
                offset,
                context: "DTD declaration",
            })?;
            let decl = &rest[..close];
            if let Some(body) = decl.strip_prefix("<!ELEMENT") {
                dtd.elements.push(parse_element_decl(body, offset)?);
            } else if let Some(body) = decl.strip_prefix("<!ATTLIST") {
                dtd.attributes.extend(parse_attlist(body, offset)?);
            } else {
                return Err(Error::Dtd {
                    offset,
                    detail: format!("unsupported declaration: {}", truncate(decl, 40)),
                });
            }
            offset += close + 1;
            rest = &rest[close + 1..];
        }
        Ok(dtd)
    }

    /// Builds the element tree rooted at `root`.
    ///
    /// Every element reachable from `root` must be declared (elements
    /// declared but unreachable are ignored). Errors on cycles, on elements
    /// used under two different parents (the tree model requires unique
    /// parents), and on undeclared children.
    pub fn to_schema_tree(&self, root: &str) -> Result<SchemaTree> {
        let by_name: HashMap<&str, &ElementDecl> =
            self.elements.iter().map(|e| (e.name.as_str(), e)).collect();
        if !by_name.contains_key(root) {
            return Err(Error::Schema {
                detail: format!("root element {root:?} not declared"),
            });
        }
        let mut tree = SchemaTree::new(root);
        let mut stack: Vec<(NodeId, &str)> = vec![(tree.root(), root)];
        while let Some((id, name)) = stack.pop() {
            let decl = by_name.get(name).ok_or_else(|| Error::Schema {
                detail: format!("element {name:?} not declared"),
            })?;
            if decl.is_leaf {
                tree.set_text(id);
                continue;
            }
            for (child, occurs) in &decl.children {
                let cid =
                    tree.add_child(id, child.clone(), *occurs)
                        .map_err(|_| Error::Schema {
                            detail: format!(
                        "element {child:?} appears under more than one parent (or a cycle exists)"
                    ),
                        })?;
                stack.push((cid, child));
            }
        }
        Ok(tree)
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        let mut end = n;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        &s[..end]
    }
}

fn parse_element_decl(body: &str, offset: usize) -> Result<ElementDecl> {
    let body = body.trim();
    let (name, rest) = split_name(body, offset)?;
    let rest = rest.trim();
    if rest == "EMPTY" || rest == "ANY" {
        return Ok(ElementDecl {
            name,
            children: Vec::new(),
            is_leaf: true,
        });
    }
    let inner = rest.strip_prefix('(').ok_or_else(|| Error::Dtd {
        offset,
        detail: format!("expected content model for {name}"),
    })?;
    // A trailing cardinality may follow the closing paren: `(category+)`
    // has it inside; `(a, b)*` outside. Handle both.
    let (inner, group_occurs) = match inner.rfind(')') {
        Some(i) => {
            let tail = inner[i + 1..].trim();
            let occ = parse_occurs_suffix(tail, offset)?;
            (&inner[..i], occ)
        }
        None => {
            return Err(Error::UnexpectedEof {
                offset,
                context: "content model",
            })
        }
    };
    let inner = inner.trim();
    if inner == "#PCDATA" {
        return Ok(ElementDecl {
            name,
            children: Vec::new(),
            is_leaf: true,
        });
    }
    // The paper's `(id ID)` shorthand: a parenthesized token pair that is
    // not a valid sequence of element names — treat as an opaque leaf.
    if inner.split_whitespace().count() == 2 && !inner.contains(',') {
        return Ok(ElementDecl {
            name,
            children: Vec::new(),
            is_leaf: true,
        });
    }
    let mut children = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            return Err(Error::Dtd {
                offset,
                detail: format!("empty item in model of {name}"),
            });
        }
        let (base, occurs) = match item.chars().last().unwrap() {
            '?' => (&item[..item.len() - 1], Occurs::Optional),
            '*' => (&item[..item.len() - 1], Occurs::Many),
            '+' => (&item[..item.len() - 1], Occurs::OneOrMore),
            _ => (item, Occurs::One),
        };
        let base = base.trim();
        if !is_valid_name(base) {
            return Err(Error::Dtd {
                offset,
                detail: format!("bad element name {base:?} in model of {name}"),
            });
        }
        // A group-level `+`/`*` distributes over single-child groups, which
        // is the only place Figure 7 uses it (`(category+)`, `(item*)`).
        let occurs = combine_occurs(occurs, group_occurs);
        children.push((base.to_string(), occurs));
    }
    Ok(ElementDecl {
        name,
        children,
        is_leaf: false,
    })
}

fn parse_occurs_suffix(tail: &str, offset: usize) -> Result<Occurs> {
    match tail {
        "" => Ok(Occurs::One),
        "?" => Ok(Occurs::Optional),
        "*" => Ok(Occurs::Many),
        "+" => Ok(Occurs::OneOrMore),
        other => Err(Error::Dtd {
            offset,
            detail: format!("unexpected trailing tokens {other:?}"),
        }),
    }
}

/// Combines an item cardinality with its enclosing group's cardinality.
fn combine_occurs(item: Occurs, group: Occurs) -> Occurs {
    use Occurs::*;
    match (item, group) {
        (x, One) => x,
        (One, g) => g,
        (Optional, Optional) => Optional,
        (OneOrMore, OneOrMore) => OneOrMore,
        // Any mix involving `*`, or `?`+`+`, admits zero and many.
        _ => Many,
    }
}

fn split_name(body: &str, offset: usize) -> Result<(String, &str)> {
    let body = body.trim_start();
    let end = body
        .find(|c: char| c.is_whitespace() || c == '(')
        .ok_or(Error::UnexpectedEof {
            offset,
            context: "element name",
        })?;
    let name = &body[..end];
    if !is_valid_name(name) {
        return Err(Error::BadName {
            offset,
            name: name.to_string(),
        });
    }
    Ok((name.to_string(), &body[end..]))
}

fn parse_attlist(body: &str, offset: usize) -> Result<Vec<AttrDecl>> {
    let mut toks = body.split_whitespace();
    let element = toks
        .next()
        .ok_or(Error::UnexpectedEof {
            offset,
            context: "ATTLIST element name",
        })?
        .to_string();
    let toks: Vec<&str> = toks.collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks.len() - i < 2 {
            return Err(Error::Dtd {
                offset,
                detail: format!("truncated ATTLIST for {element}"),
            });
        }
        let name = toks[i].to_string();
        let ty = toks[i + 1].to_string();
        let default = toks.get(i + 2).copied().unwrap_or("#IMPLIED");
        out.push(AttrDecl {
            element: element.clone(),
            name,
            ty,
            required: default == "#REQUIRED",
        });
        i += 3;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG7_SNIPPET: &str = r#"
        <!-- DTD for subset of auction database -->
        <!ELEMENT site (regions, categories, catgraph, people, openauctions, closedauctions)>
        <!ELEMENT categories (category+)>
        <!ELEMENT category (cname, cdescription)>
        <!ATTLIST category id ID #REQUIRED>
        <!ELEMENT cname (#PCDATA)>
        <!ELEMENT cdescription (id ID)>
        <!ELEMENT catgraph (id ID)>
        <!ELEMENT regions (africa, asia)>
        <!ELEMENT africa (item*)>
        <!ELEMENT asia (item*)>
        <!ELEMENT item (location, quantity)>
        <!ATTLIST item id ID #REQUIRED featured CDATA #IMPLIED>
        <!ELEMENT location (#PCDATA)>
        <!ELEMENT quantity (#PCDATA)>
        <!ELEMENT people (id ID)>
        <!ELEMENT openauctions (id ID)>
        <!ELEMENT closedauctions (id ID)>
    "#;

    #[test]
    fn parses_figure7_style_dtd() {
        let dtd = Dtd::parse(FIG7_SNIPPET).unwrap();
        assert_eq!(dtd.elements.len(), 15);
        let site = &dtd.elements[0];
        assert_eq!(site.name, "site");
        assert_eq!(site.children.len(), 6);
        let categories = dtd
            .elements
            .iter()
            .find(|e| e.name == "categories")
            .unwrap();
        assert_eq!(
            categories.children,
            vec![("category".to_string(), Occurs::OneOrMore)]
        );
        let africa = dtd.elements.iter().find(|e| e.name == "africa").unwrap();
        assert_eq!(africa.children, vec![("item".to_string(), Occurs::Many)]);
        let cdesc = dtd
            .elements
            .iter()
            .find(|e| e.name == "cdescription")
            .unwrap();
        assert!(cdesc.is_leaf);
    }

    #[test]
    fn attlist_parsed() {
        let dtd = Dtd::parse(FIG7_SNIPPET).unwrap();
        let item_attrs: Vec<_> = dtd
            .attributes
            .iter()
            .filter(|a| a.element == "item")
            .collect();
        assert_eq!(item_attrs.len(), 2);
        assert!(item_attrs[0].required);
        assert_eq!(item_attrs[1].name, "featured");
        assert!(!item_attrs[1].required);
    }

    #[test]
    fn builds_schema_tree_sharing_detected() {
        let dtd = Dtd::parse(FIG7_SNIPPET).unwrap();
        // `item` appears under both africa and asia: the element-tree model
        // requires unique parents, so this must be rejected...
        let err = dtd.to_schema_tree("site").unwrap_err();
        assert!(err.to_string().contains("item"));
    }

    #[test]
    fn builds_schema_tree() {
        let dtd = Dtd::parse(
            "<!ELEMENT site (regions, categories)>
             <!ELEMENT regions (item*)>
             <!ELEMENT item (location)>
             <!ELEMENT location (#PCDATA)>
             <!ELEMENT categories (category+)>
             <!ELEMENT category (#PCDATA)>",
        )
        .unwrap();
        let tree = dtd.to_schema_tree("site").unwrap();
        assert_eq!(tree.len(), 6);
        let item = tree.by_name("item").unwrap();
        assert_eq!(tree.node(item).occurs, Occurs::Many);
        let category = tree.by_name("category").unwrap();
        assert_eq!(tree.node(category).occurs, Occurs::OneOrMore);
        assert!(tree.node(tree.by_name("location").unwrap()).has_text);
    }

    #[test]
    fn undeclared_child_rejected() {
        let dtd = Dtd::parse("<!ELEMENT a (b)>").unwrap();
        assert!(dtd.to_schema_tree("a").is_err());
        assert!(dtd.to_schema_tree("nosuch").is_err());
    }

    #[test]
    fn empty_and_any() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY><!ELEMENT b ANY>").unwrap();
        assert!(dtd.elements.iter().all(|e| e.is_leaf));
    }

    #[test]
    fn group_cardinality_outside_parens() {
        let dtd = Dtd::parse("<!ELEMENT a (b)*><!ELEMENT b (#PCDATA)>").unwrap();
        assert_eq!(dtd.elements[0].children[0].1, Occurs::Many);
    }

    #[test]
    fn cycle_rejected() {
        let dtd = Dtd::parse("<!ELEMENT a (b)><!ELEMENT b (a)>").unwrap();
        assert!(dtd.to_schema_tree("a").is_err());
    }

    #[test]
    fn bad_declarations_rejected() {
        assert!(Dtd::parse("<!NOTATION x>").is_err());
        assert!(Dtd::parse("<!ELEMENT 1bad (#PCDATA)>").is_err());
        assert!(Dtd::parse("<!ELEMENT a (b,,c)>").is_err());
        assert!(Dtd::parse("<!ELEMENT a (b").is_err());
    }

    #[test]
    fn combine_occurs_table() {
        use Occurs::*;
        assert_eq!(combine_occurs(One, OneOrMore), OneOrMore);
        assert_eq!(combine_occurs(Many, One), Many);
        assert_eq!(combine_occurs(Optional, OneOrMore), Many);
        assert_eq!(combine_occurs(Optional, Optional), Optional);
    }
}
