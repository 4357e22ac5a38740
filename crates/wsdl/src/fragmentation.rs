//! The WSDL fragmentation extension (paper Section 3.1).
//!
//! A system declares the document fragments it is willing to produce or
//! prefers to consume:
//!
//! ```xml
//! <fragmentation name="T-fragmentation">
//!   <fragment name="Order_Service.xsd">
//!     <element name="Order">
//!       <attribute name="ID" type="string"/>
//!       <attribute name="PARENT" type="string"/>
//!       <element name="Service">
//!         <element name="ServiceName" type="string"/>
//!       </element>
//!     </element>
//!   </fragment>
//!   ...
//! </fragmentation>
//! ```
//!
//! Declaring a fragmentation "does not correspond to revealing systems
//! internals": the declaration speaks only in terms of elements of the
//! agreed-upon XML Schema. This module is pure syntax — parse and render
//! the declarations; `xdx-core` interprets them against the schema tree.

use std::collections::HashSet;
use xdx_xml::{Document, Element, Error, NodeId, Result, SchemaTree};

/// One declared fragment: a named connected region of the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentDecl {
    /// Fragment name (`Order_Service.xsd`).
    pub name: String,
    /// Root element of the region.
    pub root: String,
    /// All elements of the region (pre-order, root first).
    pub elements: Vec<String>,
}

/// A declared fragmentation: a named set of fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentationDecl {
    /// Fragmentation name (`T-fragmentation`).
    pub name: String,
    /// Fragments in declaration order.
    pub fragments: Vec<FragmentDecl>,
}

impl FragmentationDecl {
    /// Renders the extension element. `schema` supplies the nesting
    /// structure so each fragment prints as the paper shows it (nested
    /// `<element>`s with ID/PARENT attribute declarations on the root).
    pub fn to_xml(&self, schema: &SchemaTree) -> Result<String> {
        let mut frag_elem = Element::new("fragmentation").with_attr("name", &self.name);
        for frag in &self.fragments {
            let mut fe = Element::new("fragment").with_attr("name", &frag.name);
            fe = fe.with_child(render_region(schema, frag)?);
            frag_elem = frag_elem.with_child(fe);
        }
        Ok(frag_elem.to_xml_pretty())
    }

    /// Parses a `<fragmentation>` element.
    pub fn parse(src: &str) -> Result<FragmentationDecl> {
        let doc = Document::parse(src)?;
        if doc.root.name != "fragmentation" {
            return Err(Error::Schema {
                detail: format!("expected <fragmentation>, got <{}>", doc.root.name),
            });
        }
        let name = doc.root.attr("name").unwrap_or("").to_string();
        let mut fragments = Vec::new();
        for fe in doc.root.children_named("fragment") {
            let fname = fe
                .attr("name")
                .ok_or_else(|| Error::Schema {
                    detail: "fragment without name".into(),
                })?
                .to_string();
            let root_elem = fe.child("element").ok_or_else(|| Error::Schema {
                detail: format!("fragment {fname} is empty"),
            })?;
            let root = root_elem
                .attr("name")
                .ok_or_else(|| Error::Schema {
                    detail: "element without name".into(),
                })?
                .to_string();
            let mut elements = Vec::new();
            collect_elements(root_elem, &mut elements)?;
            fragments.push(FragmentDecl {
                name: fname,
                root,
                elements,
            });
        }
        if fragments.is_empty() {
            return Err(Error::Schema {
                detail: "fragmentation declares no fragments".into(),
            });
        }
        Ok(FragmentationDecl { name, fragments })
    }
}

/// Renders the schema subtree under the fragment's root restricted to
/// its element set, root first. The fragment root also gets the
/// ID/PARENT attribute declarations. The region is walked through an
/// explicit stack and built bottom-up, so a region of any depth renders
/// on any thread; the element set is looked up by name, once per child.
fn render_region(schema: &SchemaTree, frag: &FragmentDecl) -> Result<Element> {
    let root = schema.by_name(&frag.root).ok_or_else(|| Error::Schema {
        detail: format!("unknown element {:?}", frag.root),
    })?;
    let members: HashSet<&str> = frag.elements.iter().map(String::as_str).collect();
    // The region in pre-order, each element with the positions of its
    // region children.
    let mut region: Vec<(NodeId, Vec<usize>)> = Vec::new();
    let mut stack: Vec<(NodeId, Option<usize>)> = vec![(root, None)];
    while let Some((id, parent)) = stack.pop() {
        let at = region.len();
        if let Some(p) = parent {
            region[p].1.push(at);
        }
        region.push((id, Vec::new()));
        let kids = schema.node(id).children.iter().rev();
        stack.extend(
            kids.filter(|&&c| members.contains(schema.name(c)))
                .map(|&c| (c, Some(at))),
        );
    }
    // Children sit after their parent: build from the back.
    let mut built: Vec<Option<Element>> = Vec::new();
    built.resize_with(region.len(), || None);
    for (at, (id, kids)) in region.iter().enumerate().rev() {
        let node = schema.node(*id);
        let mut e = Element::new("element").with_attr("name", &node.name);
        if at == 0 {
            for attribute in ["ID", "PARENT"] {
                e = e.with_child(
                    Element::new("attribute")
                        .with_attr("name", attribute)
                        .with_attr("type", "string"),
                );
            }
        }
        if node.has_text && node.children.is_empty() {
            e = e.with_attr("type", "string");
        }
        for &k in kids {
            e = e.with_child(built[k].take().expect("children built first"));
        }
        built[at] = Some(e);
    }
    Ok(built[0].take().expect("the root is built last"))
}

/// Gathers element names from a fragment declaration body: `elem`'s and
/// those of every `<element>` nested under it, in pre-order, through an
/// explicit stack rather than recursion.
fn collect_elements(elem: &Element, out: &mut Vec<String>) -> Result<()> {
    let mut push_name = |e: &Element| {
        let name = e.attr("name").ok_or_else(|| Error::Schema {
            detail: "element without name".into(),
        })?;
        out.push(name.to_string());
        Ok(())
    };
    push_name(elem)?;
    let mut cursors = vec![elem.children_named("element")];
    while let Some(cursor) = cursors.last_mut() {
        match cursor.next() {
            Some(child) => {
                push_name(child)?;
                cursors.push(child.children_named("element"));
            }
            None => {
                cursors.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_xml::Occurs;

    /// Schema of the paper's Section 1.1, reduced to the parts the
    /// T-fragmentation example uses.
    fn customer_schema() -> SchemaTree {
        let mut t = SchemaTree::new("Customer");
        let n = t.add_child(t.root(), "CustName", Occurs::One).unwrap();
        t.set_text(n);
        let order = t.add_child(t.root(), "Order", Occurs::Many).unwrap();
        let service = t.add_child(order, "Service", Occurs::One).unwrap();
        let sn = t.add_child(service, "ServiceName", Occurs::One).unwrap();
        t.set_text(sn);
        let line = t.add_child(service, "Line", Occurs::Many).unwrap();
        let tel = t.add_child(line, "TelNo", Occurs::One).unwrap();
        t.set_text(tel);
        let switch = t.add_child(line, "Switch", Occurs::One).unwrap();
        let sid = t.add_child(switch, "SwitchID", Occurs::One).unwrap();
        t.set_text(sid);
        let feature = t.add_child(line, "Feature", Occurs::Many).unwrap();
        let fid = t.add_child(feature, "FeatureID", Occurs::One).unwrap();
        t.set_text(fid);
        t
    }

    /// The paper's T-fragmentation.
    fn t_fragmentation() -> FragmentationDecl {
        FragmentationDecl {
            name: "T-fragmentation".into(),
            fragments: vec![
                FragmentDecl {
                    name: "Customer.xsd".into(),
                    root: "Customer".into(),
                    elements: vec!["Customer".into(), "CustName".into()],
                },
                FragmentDecl {
                    name: "Order_Service.xsd".into(),
                    root: "Order".into(),
                    elements: vec!["Order".into(), "Service".into(), "ServiceName".into()],
                },
                FragmentDecl {
                    name: "Line_Switch.xsd".into(),
                    root: "Line".into(),
                    elements: vec![
                        "Line".into(),
                        "TelNo".into(),
                        "Switch".into(),
                        "SwitchID".into(),
                    ],
                },
                FragmentDecl {
                    name: "Feature.xsd".into(),
                    root: "Feature".into(),
                    elements: vec!["Feature".into(), "FeatureID".into()],
                },
            ],
        }
    }

    #[test]
    fn renders_like_the_paper() {
        let xml = t_fragmentation().to_xml(&customer_schema()).unwrap();
        assert!(xml.contains("fragmentation name=\"T-fragmentation\""));
        assert!(xml.contains("fragment name=\"Order_Service.xsd\""));
        // ID/PARENT attributes only on fragment roots.
        assert_eq!(xml.matches("attribute name=\"ID\"").count(), 4);
        assert_eq!(xml.matches("attribute name=\"PARENT\"").count(), 4);
        // Nested structure preserved: Service inside Order.
        let order_pos = xml.find("element name=\"Order\"").unwrap();
        let service_pos = xml.find("element name=\"Service\"").unwrap();
        assert!(service_pos > order_pos);
    }

    #[test]
    fn parse_roundtrip() {
        let decl = t_fragmentation();
        let xml = decl.to_xml(&customer_schema()).unwrap();
        let back = FragmentationDecl::parse(&xml).unwrap();
        assert_eq!(back, decl);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FragmentationDecl::parse("<other/>").is_err());
        assert!(FragmentationDecl::parse("<fragmentation name=\"x\"/>").is_err());
        assert!(FragmentationDecl::parse(
            "<fragmentation name=\"x\"><fragment name=\"f\"/></fragmentation>"
        )
        .is_err());
    }

    #[test]
    fn render_rejects_unknown_elements() {
        let decl = FragmentationDecl {
            name: "bad".into(),
            fragments: vec![FragmentDecl {
                name: "f".into(),
                root: "Nonexistent".into(),
                elements: vec!["Nonexistent".into()],
            }],
        };
        assert!(decl.to_xml(&customer_schema()).is_err());
    }

    #[test]
    fn excluded_children_not_rendered() {
        // Order_Service excludes Line; the rendered fragment must not
        // mention Line even though the schema nests it under Service.
        let xml = t_fragmentation().to_xml(&customer_schema()).unwrap();
        let frag_start = xml.find("Order_Service.xsd").unwrap();
        let frag_end = xml[frag_start..].find("</fragment>").unwrap() + frag_start;
        assert!(!xml[frag_start..frag_end].contains("name=\"Line\""));
    }
}
