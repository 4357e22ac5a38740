//! XML Schemas viewed as trees (paper Section 3.1).
//!
//! The data-exchange model never needs the full XML Schema language: it
//! views a schema as a *tree of elements*, where each element occurs within
//! its parent with a given cardinality (`1`, `?`, `*`, `+`) and leaves carry
//! typed text. Both the DTD subset of Figure 7 and the XSD fragment embedded
//! in the paper's WSDL example reduce to this tree, which is what fragments
//! and fragmentations (in `xdx-core`) are defined over.
//!
//! Element names are required to be unique within a schema tree. The paper
//! relies on this implicitly (fragments are named after their elements, and
//! the mapping between fragmentations matches fragments by element).

use crate::dom::{Document, Element, Node};
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;

/// Index of a node within its [`SchemaTree`]. The root is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node's id.
    pub const ROOT: NodeId = NodeId(0);

    /// Index into the tree's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Cardinality of an element within its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Occurs {
    /// Exactly once (DTD `a`).
    #[default]
    One,
    /// Zero or one (DTD `a?`).
    Optional,
    /// Zero or more (DTD `a*`).
    Many,
    /// One or more (DTD `a+`).
    OneOrMore,
}

impl Occurs {
    /// True when more than one instance may occur (`*` or `+`).
    ///
    /// Repetition is what makes a Combine inline repeated child rows under
    /// one parent, and what introduces NULL padding in sorted feeds.
    pub fn is_repeated(self) -> bool {
        matches!(self, Occurs::Many | Occurs::OneOrMore)
    }

    /// True when zero instances are allowed (`?` or `*`).
    pub fn is_optional(self) -> bool {
        matches!(self, Occurs::Optional | Occurs::Many)
    }

    /// DTD suffix for this cardinality.
    pub fn dtd_suffix(self) -> &'static str {
        match self {
            Occurs::One => "",
            Occurs::Optional => "?",
            Occurs::Many => "*",
            Occurs::OneOrMore => "+",
        }
    }
}

/// One element declaration in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaNode {
    /// Element name (unique in the tree).
    pub name: String,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in declaration order.
    pub children: Vec<NodeId>,
    /// Cardinality within the parent (ignored for the root).
    pub occurs: Occurs,
    /// Whether the element carries text content (leaf value).
    pub has_text: bool,
}

/// An XML Schema reduced to its element tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaTree {
    nodes: Vec<SchemaNode>,
    by_name: HashMap<String, NodeId>,
}

impl SchemaTree {
    /// Creates a tree with only the root element.
    pub fn new(root_name: impl Into<String>) -> Self {
        let name = root_name.into();
        let mut by_name = HashMap::new();
        by_name.insert(name.clone(), NodeId::ROOT);
        SchemaTree {
            nodes: vec![SchemaNode {
                name,
                parent: None,
                children: Vec::new(),
                occurs: Occurs::One,
                has_text: false,
            }],
            by_name,
        }
    }

    /// Adds a child element under `parent`.
    ///
    /// Errors if `parent` is out of range or `name` already exists.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        occurs: Occurs,
    ) -> Result<NodeId> {
        let name = name.into();
        if parent.index() >= self.nodes.len() {
            return Err(Error::Schema {
                detail: format!("unknown parent node {parent}"),
            });
        }
        if self.by_name.contains_key(&name) {
            return Err(Error::Schema {
                detail: format!("duplicate element name {name:?}"),
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(SchemaNode {
            name: name.clone(),
            parent: Some(parent),
            children: Vec::new(),
            occurs,
            has_text: false,
        });
        self.nodes[parent.index()].children.push(id);
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Marks `id` as carrying text content (a typed leaf value).
    pub fn set_text(&mut self, id: NodeId) {
        self.nodes[id.index()].has_text = true;
    }

    /// The root node id (always `NodeId(0)`).
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &SchemaNode {
        &self.nodes[id.index()]
    }

    /// Element name of `id`.
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Looks an element up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Number of elements in the schema.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a tree has at least a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over all node ids in creation order (root first; parents
    /// always precede children).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Node ids of the subtree rooted at `id`, in pre-order.
    pub fn subtree(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children reversed so pre-order pops left-to-right.
            for &c in self.nodes[n.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// True when `anc` is an ancestor of `id` (or equal to it).
    pub fn is_ancestor_or_self(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.nodes[n.index()].parent;
        }
        false
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.nodes[id.index()].parent;
        while let Some(n) = cur {
            d += 1;
            cur = self.nodes[n.index()].parent;
        }
        d
    }

    /// Path from the root to `id`, inclusive.
    pub fn path(&self, id: NodeId) -> Vec<NodeId> {
        let mut p = vec![id];
        let mut cur = self.nodes[id.index()].parent;
        while let Some(n) = cur {
            p.push(n);
            cur = self.nodes[n.index()].parent;
        }
        p.reverse();
        p
    }

    /// Height of the tree (a lone root has height 0).
    pub fn height(&self) -> usize {
        self.ids().map(|id| self.depth(id)).max().unwrap_or(0)
    }

    /// Leaf node ids (no children).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.ids()
            .filter(|id| self.node(*id).children.is_empty())
            .collect()
    }

    /// Builds a *balanced* schema tree: every interior node has `fanout`
    /// children, down to the given `height`. Node names are `e0`, `e1`, ...
    /// in breadth-first order; all non-root nodes repeat (`*`) when
    /// `repeated` is true. This is the shape the paper's simulator studies
    /// (Section 5.4: "the DTD was a balanced tree with 3 levels and fan-out
    /// 4", "a DTD of height 2 with fan-out 5, resulting in a tree with 31
    /// nodes").
    pub fn balanced(height: usize, fanout: usize, repeated: bool) -> SchemaTree {
        let mut tree = SchemaTree::new("e0");
        let mut frontier = vec![NodeId::ROOT];
        let mut next = 1usize;
        let occurs = if repeated { Occurs::Many } else { Occurs::One };
        for _ in 0..height {
            let mut new_frontier = Vec::new();
            for parent in frontier {
                for _ in 0..fanout {
                    let id = tree
                        .add_child(parent, format!("e{next}"), occurs)
                        .expect("generated names are unique");
                    next += 1;
                    new_frontier.push(id);
                }
            }
            frontier = new_frontier;
        }
        for leaf in tree.leaves() {
            tree.set_text(leaf);
        }
        tree
    }

    // ------------------------------------------------------------------
    // XSD-subset serialization (the form embedded in WSDL `<types>`)
    // ------------------------------------------------------------------

    /// The XSD subset used in the paper's WSDL example, as the `<schema>`
    /// element a WSDL `<types>` embeds: nested `<element name=...>` with
    /// `<sequence>` groups, `type="string"` leaves and
    /// `maxOccurs`/`minOccurs` cardinalities.
    ///
    /// Built bottom-up over the node table (a child's id is always above
    /// its parent's), so a schema of any depth builds without recursion.
    pub fn to_xsd_element(&self) -> Element {
        let mut built: Vec<Option<Element>> = Vec::new();
        built.resize_with(self.nodes.len(), || None);
        for (i, node) in self.nodes.iter().enumerate().rev() {
            let mut e = Element::new("element").with_attr("name", &node.name);
            if node.has_text && node.children.is_empty() {
                e = e.with_attr("type", "string");
            }
            match node.occurs {
                Occurs::One => {}
                Occurs::Optional => e = e.with_attr("minOccurs", "0"),
                Occurs::Many => {
                    e = e
                        .with_attr("minOccurs", "0")
                        .with_attr("maxOccurs", "unbounded")
                }
                Occurs::OneOrMore => e = e.with_attr("maxOccurs", "unbounded"),
            }
            if !node.children.is_empty() {
                let mut sequence = Element::new("sequence");
                sequence.children = node
                    .children
                    .iter()
                    .map(|c| Node::Element(built[c.index()].take().expect("children built first")))
                    .collect();
                e = e.with_child(sequence);
            }
            built[i] = Some(e);
        }
        let root = built[NodeId::ROOT.index()].take().expect("root built last");
        Element::new("schema")
            .with_attr("xmlns", "http://www.w3.org/XMLSchema")
            .with_child(root)
    }

    /// [`SchemaTree::to_xsd_element`] as pretty-printed text.
    pub fn to_xsd(&self) -> String {
        self.to_xsd_element().to_xml_pretty()
    }

    /// Parses the XSD subset produced by [`SchemaTree::to_xsd`] (also
    /// tolerates the hand-written style of the paper's Figure 1).
    pub fn from_xsd(src: &str) -> Result<SchemaTree> {
        let doc = Document::parse(src)?;
        let schema = if doc.root.name == "schema" || doc.root.name.ends_with(":schema") {
            &doc.root
        } else {
            doc.root.descendant("schema").ok_or_else(|| Error::Schema {
                detail: "no <schema> element".into(),
            })?
        };
        Self::from_xsd_element(schema)
    }

    /// Reads the tree from a parsed `<schema>` element, the inverse of
    /// [`SchemaTree::to_xsd_element`]. Walks the declarations through an
    /// explicit stack in document order, so ids number them in pre-order.
    pub fn from_xsd_element(schema: &Element) -> Result<SchemaTree> {
        let root_elem = schema.child("element").ok_or_else(|| Error::Schema {
            detail: "schema has no root <element>".into(),
        })?;
        let root_name = root_elem.attr("name").ok_or_else(|| Error::Schema {
            detail: "root element has no name".into(),
        })?;
        let mut tree = SchemaTree::new(root_name);
        if root_elem.attr("type").is_some() {
            tree.set_text(tree.root());
        }
        // (the tree node a declaration's children belong to, a cursor over them)
        let mut cursors = vec![(NodeId::ROOT, root_elem.elements())];
        while let Some((parent, cursor)) = cursors.last_mut() {
            let parent = *parent;
            let Some(child) = cursor.next() else {
                cursors.pop();
                continue;
            };
            match child.name.as_str() {
                "sequence" | "complexType" | "all" | "choice" => {
                    cursors.push((parent, child.elements()))
                }
                "element" => {
                    let name = child.attr("name").ok_or_else(|| Error::Schema {
                        detail: "element without a name attribute".into(),
                    })?;
                    let min = child.attr("minOccurs").unwrap_or("1");
                    let max = child.attr("maxOccurs").unwrap_or("1");
                    let occurs = match (min, max) {
                        ("0", "unbounded") => Occurs::Many,
                        (_, "unbounded") => Occurs::OneOrMore,
                        ("0", _) => Occurs::Optional,
                        _ => Occurs::One,
                    };
                    let id = tree.add_child(parent, name, occurs)?;
                    if child.attr("type").is_some() {
                        tree.set_text(id);
                    }
                    cursors.push((id, child.elements()));
                }
                // `attribute` declarations (ID/PARENT) are structural
                // metadata of fragments, not schema elements: skip.
                "attribute" => {}
                other => {
                    return Err(Error::Schema {
                        detail: format!("unsupported XSD construct <{other}>"),
                    })
                }
            }
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Customer schema of the paper's Section 1.1 (Figure 1).
    pub fn customer_schema() -> SchemaTree {
        let mut t = SchemaTree::new("Customer");
        let cust_name = t.add_child(t.root(), "CustName", Occurs::One).unwrap();
        t.set_text(cust_name);
        let order = t.add_child(t.root(), "Order", Occurs::Many).unwrap();
        let service = t.add_child(order, "Service", Occurs::One).unwrap();
        let sname = t.add_child(service, "ServiceName", Occurs::One).unwrap();
        t.set_text(sname);
        let line = t.add_child(service, "Line", Occurs::Many).unwrap();
        let telno = t.add_child(line, "TelNo", Occurs::One).unwrap();
        t.set_text(telno);
        let switch = t.add_child(line, "Switch", Occurs::One).unwrap();
        let swid = t.add_child(switch, "SwitchID", Occurs::One).unwrap();
        t.set_text(swid);
        let feature = t.add_child(line, "Feature", Occurs::Many).unwrap();
        let fid = t.add_child(feature, "FeatureID", Occurs::One).unwrap();
        t.set_text(fid);
        t
    }

    #[test]
    fn build_and_navigate() {
        let t = customer_schema();
        assert_eq!(t.len(), 11);
        assert_eq!(t.name(t.root()), "Customer");
        let line = t.by_name("Line").unwrap();
        assert_eq!(t.depth(line), 3);
        assert!(t.node(line).occurs.is_repeated());
        let path: Vec<_> = t
            .path(line)
            .iter()
            .map(|&n| t.name(n).to_string())
            .collect();
        assert_eq!(path, ["Customer", "Order", "Service", "Line"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = SchemaTree::new("a");
        t.add_child(t.root(), "b", Occurs::One).unwrap();
        assert!(t.add_child(t.root(), "b", Occurs::One).is_err());
        assert!(t.add_child(t.root(), "a", Occurs::One).is_err());
    }

    #[test]
    fn subtree_preorder() {
        let t = customer_schema();
        let service = t.by_name("Service").unwrap();
        let names: Vec<_> = t
            .subtree(service)
            .iter()
            .map(|&n| t.name(n).to_string())
            .collect();
        assert_eq!(
            names,
            [
                "Service",
                "ServiceName",
                "Line",
                "TelNo",
                "Switch",
                "SwitchID",
                "Feature",
                "FeatureID"
            ]
        );
    }

    #[test]
    fn ancestry() {
        let t = customer_schema();
        let order = t.by_name("Order").unwrap();
        let fid = t.by_name("FeatureID").unwrap();
        assert!(t.is_ancestor_or_self(order, fid));
        assert!(!t.is_ancestor_or_self(fid, order));
        assert!(t.is_ancestor_or_self(fid, fid));
    }

    #[test]
    fn balanced_tree_shape() {
        let t = SchemaTree::balanced(2, 5, true);
        assert_eq!(t.len(), 31); // 1 + 5 + 25, the paper's Table-5 DTD
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves().len(), 25);
        let t2 = SchemaTree::balanced(3, 4, true);
        assert_eq!(t2.len(), 85); // 1 + 4 + 16 + 64
    }

    #[test]
    fn xsd_roundtrip() {
        let t = customer_schema();
        let xsd = t.to_xsd();
        let back = SchemaTree::from_xsd(&xsd).unwrap();
        assert_eq!(back.len(), t.len());
        for id in t.ids() {
            let b = back.by_name(t.name(id)).unwrap();
            assert_eq!(
                back.node(b).occurs,
                t.node(id).occurs,
                "occurs of {}",
                t.name(id)
            );
            assert_eq!(back.node(b).has_text, t.node(id).has_text);
            assert_eq!(
                back.node(b).parent.map(|p| back.name(p).to_string()),
                t.node(id).parent.map(|p| t.name(p).to_string())
            );
        }
    }

    #[test]
    fn heights_and_leaves() {
        let t = customer_schema();
        assert_eq!(t.height(), 5); // Customer/Order/Service/Line/Switch/SwitchID
        assert!(t.leaves().iter().all(|&l| t.node(l).children.is_empty()));
    }

    #[test]
    fn occurs_predicates() {
        assert!(Occurs::Many.is_repeated() && Occurs::Many.is_optional());
        assert!(Occurs::OneOrMore.is_repeated() && !Occurs::OneOrMore.is_optional());
        assert!(!Occurs::One.is_repeated() && !Occurs::One.is_optional());
        assert!(Occurs::Optional.is_optional());
        assert_eq!(Occurs::Many.dtd_suffix(), "*");
    }
}
