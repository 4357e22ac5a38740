//! Fragments and fragmentations (paper Definitions 3.1–3.4).
//!
//! A *fragment* is a connected region of the schema tree: a root element
//! plus a subset of its descendants forming a subtree (descendant subtrees
//! may be cut off — they then belong to other fragments). A *fragmentation*
//! partitions all elements of the schema into such regions. *Validity*
//! (Def. 3.4) requires that each element is defined exactly once and that
//! the fragments connect to each other through parent/child relationships —
//! with a full partition of a tree the latter holds automatically, and we
//! verify both.

use crate::error::{Error, Result};
use std::collections::BTreeSet;
use xdx_relational::feed::{ColRole, FeedColumn, FeedSchema};
use xdx_wsdl::{FragmentDecl, FragmentationDecl};
use xdx_xml::{NodeId, SchemaTree};

/// A named connected region of the schema tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Fragment name (doubles as the table name on a relational system).
    pub name: String,
    /// Root element of the region.
    pub root: NodeId,
    /// All elements of the region, including the root.
    pub elements: BTreeSet<NodeId>,
}

impl Fragment {
    /// Builds a fragment, verifying that `elements` is a connected region
    /// rooted at `root`.
    pub fn new(
        schema: &SchemaTree,
        name: impl Into<String>,
        root: NodeId,
        elements: BTreeSet<NodeId>,
    ) -> Result<Fragment> {
        let name = name.into();
        if !elements.contains(&root) {
            return Err(Error::InvalidFragmentation {
                detail: format!("fragment {name}: root not among its elements"),
            });
        }
        for &e in &elements {
            if e.index() >= schema.len() {
                return Err(Error::InvalidFragmentation {
                    detail: format!("fragment {name}: unknown element {e}"),
                });
            }
            if e != root {
                // Every non-root element's parent must be in the region —
                // that is exactly connectedness for a subset of a tree.
                let parent = schema
                    .node(e)
                    .parent
                    .ok_or_else(|| Error::InvalidFragmentation {
                        detail: format!("fragment {name}: schema root below fragment root"),
                    })?;
                if !elements.contains(&parent) {
                    return Err(Error::InvalidFragmentation {
                        detail: format!(
                            "fragment {name}: element {} disconnected from root {}",
                            schema.name(e),
                            schema.name(root)
                        ),
                    });
                }
            }
        }
        Ok(Fragment {
            name,
            root,
            elements,
        })
    }

    /// True when `element` belongs to this fragment.
    pub fn contains(&self, element: NodeId) -> bool {
        self.elements.contains(&element)
    }

    /// Elements in schema pre-order (root first).
    pub fn elements_preorder(&self, schema: &SchemaTree) -> Vec<NodeId> {
        schema
            .subtree(self.root)
            .into_iter()
            .filter(|e| self.elements.contains(e))
            .collect()
    }

    /// The feed layout for instances of this fragment: the root's
    /// `PARENT`, then per element (pre-order) its `ID` and, for text
    /// leaves, its value.
    pub fn feed_schema(&self, schema: &SchemaTree) -> FeedSchema {
        let root_name = schema.name(self.root).to_string();
        let mut columns = vec![FeedColumn::new(root_name.clone(), ColRole::ParentRef)];
        for e in self.elements_preorder(schema) {
            let n = schema.node(e);
            columns.push(FeedColumn::new(n.name.clone(), ColRole::NodeId));
            if n.has_text {
                columns.push(FeedColumn::new(n.name.clone(), ColRole::Value));
            }
        }
        FeedSchema::new(root_name, columns)
    }

    /// Derives the conventional name for a region: its elements' names
    /// joined by `_`, uppercased — the style of the paper's `ITEM_LOCATION_
    /// QUANTITY_...` fragments.
    pub fn conventional_name(
        schema: &SchemaTree,
        root: NodeId,
        elements: &BTreeSet<NodeId>,
    ) -> String {
        schema
            .subtree(root)
            .into_iter()
            .filter(|e| elements.contains(e))
            .map(|e| schema.name(e).to_uppercase())
            .collect::<Vec<_>>()
            .join("_")
    }
}

/// A valid fragmentation: a partition of the schema into fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragmentation {
    /// Fragmentation name (`MF`, `LF`, `T-fragmentation`, ...).
    pub name: String,
    /// Fragments, in declaration order.
    pub fragments: Vec<Fragment>,
    /// `owner[element.index()]` = index into `fragments`.
    owner: Vec<usize>,
}

impl Fragmentation {
    /// Builds and validates a fragmentation (Def. 3.4): every schema
    /// element must be covered exactly once, and every fragment must be a
    /// connected region (checked by [`Fragment::new`] already, re-checked
    /// here for fragments built by hand).
    pub fn new(
        name: impl Into<String>,
        schema: &SchemaTree,
        fragments: Vec<Fragment>,
    ) -> Result<Fragmentation> {
        let name = name.into();
        if fragments.is_empty() {
            return Err(Error::InvalidFragmentation {
                detail: format!("{name}: no fragments"),
            });
        }
        let mut owner = vec![usize::MAX; schema.len()];
        for (i, frag) in fragments.iter().enumerate() {
            for &e in &frag.elements {
                if e.index() >= schema.len() {
                    return Err(Error::InvalidFragmentation {
                        detail: format!("{name}: unknown element {e}"),
                    });
                }
                if owner[e.index()] != usize::MAX {
                    return Err(Error::InvalidFragmentation {
                        detail: format!(
                            "{name}: element {} defined more than once (fragments {} and {})",
                            schema.name(e),
                            fragments[owner[e.index()]].name,
                            frag.name
                        ),
                    });
                }
                owner[e.index()] = i;
            }
        }
        if let Some(missing) = owner.iter().position(|&o| o == usize::MAX) {
            return Err(Error::InvalidFragmentation {
                detail: format!(
                    "{name}: element {} not covered by any fragment",
                    schema.name(NodeId(missing as u32))
                ),
            });
        }
        // Re-validate connectivity of each fragment.
        for frag in &fragments {
            Fragment::new(schema, frag.name.clone(), frag.root, frag.elements.clone())?;
        }
        Ok(Fragmentation {
            name,
            fragments,
            owner,
        })
    }

    /// The trivial fragmentation: the whole schema as one fragment — the
    /// default when a system registers no fragmentation ("the initial XML
    /// Schema would be used by default ... as in publish&map").
    pub fn whole_document(name: impl Into<String>, schema: &SchemaTree) -> Fragmentation {
        let elements: BTreeSet<NodeId> = schema.ids().collect();
        let frag = Fragment {
            name: Fragment::conventional_name(schema, schema.root(), &elements),
            root: schema.root(),
            elements,
        };
        Fragmentation::new(name, schema, vec![frag]).expect("whole schema is always valid")
    }

    /// The paper's `MF` (Most-Fragmented): "a separate fragment for each
    /// element in the DTD".
    pub fn most_fragmented(name: impl Into<String>, schema: &SchemaTree) -> Fragmentation {
        let fragments = schema
            .ids()
            .map(|id| Fragment {
                name: schema.name(id).to_uppercase(),
                root: id,
                elements: BTreeSet::from([id]),
            })
            .collect();
        Fragmentation::new(name, schema, fragments).expect("per-element partition is valid")
    }

    /// The paper's `LF` (Least-Fragmented): "inlines fragments that have
    /// an one-to-one relation with their parent" — fragment boundaries fall
    /// exactly at repeated (`*`/`+`) elements.
    pub fn least_fragmented(name: impl Into<String>, schema: &SchemaTree) -> Fragmentation {
        // Fragment roots: the schema root plus every repeated element.
        let mut roots: Vec<NodeId> = vec![schema.root()];
        roots.extend(
            schema
                .ids()
                .filter(|&id| id != schema.root() && schema.node(id).occurs.is_repeated()),
        );
        let root_set: BTreeSet<NodeId> = roots.iter().copied().collect();
        let mut fragments = Vec::new();
        for &root in &roots {
            let elements: BTreeSet<NodeId> = schema
                .subtree(root)
                .into_iter()
                .filter(|&e| {
                    // e belongs to root's fragment iff no other fragment
                    // root lies strictly between root and e.
                    let mut cur = e;
                    loop {
                        if cur == root {
                            return true;
                        }
                        if root_set.contains(&cur) {
                            return false;
                        }
                        cur = schema.node(cur).parent.expect("root reached first");
                    }
                })
                .collect();
            fragments.push(Fragment {
                name: Fragment::conventional_name(schema, root, &elements),
                root,
                elements,
            });
        }
        Fragmentation::new(name, schema, fragments).expect("cut-at-repetition is valid")
    }

    /// Index of the fragment owning `element`.
    pub fn fragment_of(&self, element: NodeId) -> usize {
        self.owner[element.index()]
    }

    /// The fragment owning `element`.
    pub fn owner_fragment(&self, element: NodeId) -> &Fragment {
        &self.fragments[self.fragment_of(element)]
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Always false (a valid fragmentation has ≥ 1 fragment).
    pub fn is_empty(&self) -> bool {
        false
    }

    // ------------------------------------------------------------------
    // WSDL extension bridge
    // ------------------------------------------------------------------

    /// Interprets a WSDL fragmentation declaration against a schema.
    pub fn from_decl(schema: &SchemaTree, decl: &FragmentationDecl) -> Result<Fragmentation> {
        let mut fragments = Vec::with_capacity(decl.fragments.len());
        for fd in &decl.fragments {
            let root = schema
                .by_name(&fd.root)
                .ok_or_else(|| Error::InvalidFragmentation {
                    detail: format!("fragment {}: unknown root element {}", fd.name, fd.root),
                })?;
            let mut elements = BTreeSet::new();
            for el in &fd.elements {
                let id = schema
                    .by_name(el)
                    .ok_or_else(|| Error::InvalidFragmentation {
                        detail: format!("fragment {}: unknown element {}", fd.name, el),
                    })?;
                elements.insert(id);
            }
            fragments.push(Fragment::new(schema, fd.name.clone(), root, elements)?);
        }
        Fragmentation::new(decl.name.clone(), schema, fragments)
    }

    /// Renders back into the WSDL extension syntax.
    pub fn to_decl(&self, schema: &SchemaTree) -> FragmentationDecl {
        FragmentationDecl {
            name: self.name.clone(),
            fragments: self
                .fragments
                .iter()
                .map(|f| FragmentDecl {
                    name: f.name.clone(),
                    root: schema.name(f.root).to_string(),
                    elements: f
                        .elements_preorder(schema)
                        .iter()
                        .map(|&e| schema.name(e).to_string())
                        .collect(),
                })
                .collect(),
        }
    }

    /// Builds the fragmentation whose fragment roots are exactly `roots`
    /// (which must include the schema root): every other element joins the
    /// fragment of its nearest ancestor root. This is how the simulator
    /// materializes random fragmentations and how the advisor explores the
    /// design space — a fragmentation is fully determined by its cut
    /// points.
    pub fn from_roots(
        name: impl Into<String>,
        schema: &SchemaTree,
        roots: &BTreeSet<NodeId>,
    ) -> Result<Fragmentation> {
        if !roots.contains(&schema.root()) {
            return Err(Error::InvalidFragmentation {
                detail: "schema root must be a fragment root".into(),
            });
        }
        let mut fragments = Vec::with_capacity(roots.len());
        for &root in roots {
            let elements: BTreeSet<NodeId> = schema
                .subtree(root)
                .into_iter()
                .filter(|&e| {
                    let mut cur = e;
                    loop {
                        if cur == root {
                            return true;
                        }
                        if roots.contains(&cur) {
                            return false;
                        }
                        cur = schema.node(cur).parent.expect("root reached first");
                    }
                })
                .collect();
            fragments.push(Fragment {
                name: Fragment::conventional_name(schema, root, &elements),
                root,
                elements,
            });
        }
        Fragmentation::new(name, schema, fragments)
    }

    /// The cut points of this fragmentation (its fragment roots).
    pub fn roots(&self) -> BTreeSet<NodeId> {
        self.fragments.iter().map(|f| f.root).collect()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use xdx_xml::Occurs;

    /// The Customer schema from the paper's Section 1.1.
    pub fn customer_schema() -> SchemaTree {
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

    /// The paper's T-fragmentation over the Customer schema.
    pub fn t_fragmentation(schema: &SchemaTree) -> Fragmentation {
        let frag = |name: &str, names: &[&str]| {
            let ids: BTreeSet<NodeId> = names.iter().map(|n| schema.by_name(n).unwrap()).collect();
            Fragment::new(schema, name, schema.by_name(names[0]).unwrap(), ids).unwrap()
        };
        Fragmentation::new(
            "T-fragmentation",
            schema,
            vec![
                frag("Customer.xsd", &["Customer", "CustName"]),
                frag("Order_Service.xsd", &["Order", "Service", "ServiceName"]),
                frag("Line_Switch.xsd", &["Line", "TelNo", "Switch", "SwitchID"]),
                frag("Feature.xsd", &["Feature", "FeatureID"]),
            ],
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn t_fragmentation_is_valid() {
        let schema = customer_schema();
        let f = t_fragmentation(&schema);
        assert_eq!(f.len(), 4);
        let line = schema.by_name("Line").unwrap();
        assert_eq!(f.owner_fragment(line).name, "Line_Switch.xsd");
        // Line's parent, Service, is in Order_Service.
        let service = schema.node(line).parent.unwrap();
        assert_eq!(f.owner_fragment(service).name, "Order_Service.xsd");
    }

    #[test]
    fn duplicate_coverage_rejected() {
        let schema = customer_schema();
        let all: BTreeSet<NodeId> = schema.ids().collect();
        let whole = Fragment::new(&schema, "all", schema.root(), all).unwrap();
        let single = Fragment::new(
            &schema,
            "cust",
            schema.root(),
            BTreeSet::from([schema.root()]),
        )
        .unwrap();
        let err = Fragmentation::new("bad", &schema, vec![whole, single]).unwrap_err();
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn missing_coverage_rejected() {
        let schema = customer_schema();
        let single = Fragment::new(
            &schema,
            "cust",
            schema.root(),
            BTreeSet::from([schema.root()]),
        )
        .unwrap();
        let err = Fragmentation::new("bad", &schema, vec![single]).unwrap_err();
        assert!(err.to_string().contains("not covered"));
    }

    #[test]
    fn disconnected_fragment_rejected() {
        let schema = customer_schema();
        let cust = schema.root();
        let line = schema.by_name("Line").unwrap();
        let err = Fragment::new(&schema, "bad", cust, BTreeSet::from([cust, line])).unwrap_err();
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn root_must_be_member() {
        let schema = customer_schema();
        let line = schema.by_name("Line").unwrap();
        assert!(Fragment::new(&schema, "bad", schema.root(), BTreeSet::from([line])).is_err());
    }

    #[test]
    fn most_fragmented_has_one_per_element() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        assert_eq!(mf.len(), schema.len());
        assert!(mf.fragments.iter().all(|f| f.elements.len() == 1));
    }

    #[test]
    fn least_fragmented_cuts_at_repetition() {
        let schema = customer_schema();
        let lf = Fragmentation::least_fragmented("LF", &schema);
        // Roots: Customer, Order(*), Line(*), Feature(*).
        assert_eq!(lf.len(), 4);
        let names: Vec<&str> = lf.fragments.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"CUSTOMER_CUSTNAME"));
        assert!(names.contains(&"ORDER_SERVICE_SERVICENAME"));
        assert!(names.contains(&"LINE_TELNO_SWITCH_SWITCHID"));
        assert!(names.contains(&"FEATURE_FEATUREID"));
    }

    #[test]
    fn whole_document_single_fragment() {
        let schema = customer_schema();
        let wd = Fragmentation::whole_document("default", &schema);
        assert_eq!(wd.len(), 1);
        assert_eq!(wd.fragments[0].elements.len(), schema.len());
    }

    #[test]
    fn feed_schema_layout() {
        let schema = customer_schema();
        let f = t_fragmentation(&schema);
        let os = &f.fragments[1]; // Order_Service
        let fs = os.feed_schema(&schema);
        let names: Vec<String> = fs.columns.iter().map(|c| c.display_name()).collect();
        assert_eq!(
            names,
            vec![
                "Order.PARENT",
                "Order.ID",
                "Service.ID",
                "ServiceName.ID",
                "ServiceName"
            ]
        );
        assert_eq!(fs.root_element, "Order");
    }

    #[test]
    fn decl_roundtrip() {
        let schema = customer_schema();
        let f = t_fragmentation(&schema);
        let decl = f.to_decl(&schema);
        let back = Fragmentation::from_decl(&schema, &decl).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decl_with_unknown_elements_rejected() {
        let schema = customer_schema();
        let decl = FragmentationDecl {
            name: "x".into(),
            fragments: vec![FragmentDecl {
                name: "f".into(),
                root: "Ghost".into(),
                elements: vec!["Ghost".into()],
            }],
        };
        assert!(Fragmentation::from_decl(&schema, &decl).is_err());
    }
}
